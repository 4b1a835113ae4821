"""Command line front end.

Every subcommand prints a single JSON document to stdout.  Exit codes:
0 on success, 1 for unusable input (bad arguments, unreadable files,
syntax or validation errors), 2 when the input was well formed but the
requested operation failed (zero-probability conditioning, impossible
sequences, and similar).  Warnings and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import OrthoprobError, ParseError, ValidationError
from .presets import half_transition_pair, order_dependence_example
from .scenario import (MAX_AXIOM_BUDGET, MAX_TRIALS, Query, Scenario, parse_scenario,
                       run_query)
from .states import (DensityState, condition, condition_seq,
                     conditioning_contract_violations, predictability, prob,
                     qubit_nonuniqueness_demo)

# The subcommands that run a scenario's own query: help text and the query
# kinds each accepts.
_SCENARIO_COMMANDS = {
    "predict": ("run a predictability query", ("predictability",)),
    "condition": ("run a prob / condition / condition_seq query",
                  ("condition", "condition_seq", "prob")),
    "compat": ("run a compatibility query", ("compatible",)),
    "interfere": ("run an interference decomposition query", ("interference",)),
    "twoslit": ("run a two-slit probability query", ("two_slit",)),
    "sample": ("sample a measurement chain", ("sample",)),
}


class _Parser(argparse.ArgumentParser):
    # Usage problems are input problems: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _emit(result: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(_round_floats(result), indent=2, allow_nan=False,
                         check_circular=False))
    else:
        print(json.dumps(result, allow_nan=False, check_circular=False))


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path!r}: {exc}") from None
    return parse_scenario(text)


def _run_scenario_command(args) -> dict:
    if args.trials > MAX_TRIALS:
        raise ValidationError(f"--trials: expected at most {MAX_TRIALS}")
    scenario = _load_scenario(args.scenario)
    _, allowed = _SCENARIO_COMMANDS[args.command]
    if scenario.query is None:
        raise ValidationError(
            f"scenario has no query; '{args.command}' needs one of: {', '.join(allowed)}")
    if scenario.query.kind not in allowed:
        raise ValidationError(
            f"'{args.command}' cannot run a {scenario.query.kind!r} query "
            f"(expected one of: {', '.join(allowed)})")
    return run_query(scenario, tol=args.tol, seed=args.seed, trials=args.trials)


def _run_axioms(args) -> dict:
    if args.budget is not None and args.budget > MAX_AXIOM_BUDGET:
        raise ValidationError(f"--budget: expected at most {MAX_AXIOM_BUDGET}")
    scenario = _load_scenario(args.scenario)
    if args.budget is not None:
        budget = args.budget
    elif scenario.query is not None and scenario.query.kind == "axioms":
        budget = scenario.query.fields["budget"]
    else:
        budget = 1000
    scenario.query = Query("axioms", {"budget": budget})
    return run_query(scenario, tol=args.tol, seed=args.seed, trials=args.trials)


def _run_demo_sec7(args) -> dict:
    _, e, f = half_transition_pair()
    result = predictability(f, e, tol=args.tol)
    mixed = DensityState(np.eye(4, dtype=np.complex128) / 4.0)
    p_f_given_e = prob(condition(mixed, e, tol=args.tol), f)
    return {"demo": "sec7", "dim": 4,
            "predictable": result.predictable,
            "s": result.s,
            "residual": result.residual,
            "p_f_given_e_mixed": p_f_given_e,
            "tol": args.tol}


def _run_demo_order(args) -> dict:
    _, mixed, f1, f2, e = order_dependence_example()
    forward = prob(condition_seq(mixed, [f1, f2], tol=args.tol), e)
    reverse = prob(condition_seq(mixed, [f2, f1], tol=args.tol), e)
    return {"demo": "order", "dim": 3,
            "p_e_after_f1_then_f2": forward,
            "p_e_after_f2_then_f1": reverse,
            "order_dependent": abs(forward - reverse) > args.tol,
            "tol": args.tol}


def _run_demo_qubit(args) -> dict:
    report = qubit_nonuniqueness_demo(angle=args.angle)
    violations = {
        "compression": conditioning_contract_violations(
            report.compression, report.base, report.condition_name),
        "alternative": conditioning_contract_violations(
            report.alternative, report.base, report.condition_name),
    }
    return {"demo": "qubit", "angle": args.angle,
            "condition": report.condition_name,
            "compression": dict(report.compression.values),
            "alternative": dict(report.alternative.values),
            "differ_on": list(report.differ_on),
            "distinct": report.distinct,
            "special_case": report.special_case,
            "contract_violations": violations,
            "note": report.note}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="numerical tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=42,
                        help="random seed for sampling and axiom checks (default 42)")
    common.add_argument("--trials", type=int, default=100_000,
                        help=f"number of sampled trials, at most {MAX_TRIALS} "
                             "(default 100000)")
    common.add_argument("--pretty", action="store_true",
                        help="indent output and round floats to 6 significant digits")

    scenario_arg = _Parser(add_help=False)
    scenario_arg.add_argument("--scenario", required=True, metavar="PATH",
                              help="path to a scenario JSON file")

    parser = _Parser(prog="orthoprob",
                     description="Conditional probability on orthospaces: "
                                 "scenario queries, demos, and checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for name, (help_text, _) in _SCENARIO_COMMANDS.items():
        p = sub.add_parser(name, parents=[common, scenario_arg], help=help_text)
        p.set_defaults(handler=_run_scenario_command)

    axioms = sub.add_parser("axioms", parents=[common, scenario_arg],
                            help="randomized orthospace axiom check on the "
                                 "scenario's algebra")
    axioms.add_argument("--budget", type=int, default=None,
                        help="random instances per axiom, at most "
                             f"{MAX_AXIOM_BUDGET} (default from the scenario "
                             "query, else 1000)")
    axioms.set_defaults(handler=_run_axioms)

    demo_sec7 = sub.add_parser("demo-sec7", parents=[common],
                               help="built-in half-transition pair: certified "
                                    "value 1/2 with zero residual")
    demo_sec7.set_defaults(handler=_run_demo_sec7)

    demo_order = sub.add_parser("demo-order", parents=[common],
                                help="built-in order-dependence example on C^3")
    demo_order.set_defaults(handler=_run_demo_order)

    demo_qubit = sub.add_parser("demo-qubit", parents=[common],
                                help="two distinct conditionals on a qubit "
                                     "event list")
    demo_qubit.add_argument("--angle", type=float, default=math.pi / 4,
                            help="angle of the tilted projection in radians "
                                 "(default pi/4)")
    demo_qubit.set_defaults(handler=_run_demo_qubit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OrthoprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(result, args.pretty)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
