"""Command line front end.

Every subcommand prints a single JSON document to stdout.  Exit codes:
0 on success, 1 for unusable input (bad arguments, unreadable files,
syntax or validation errors) or a reader that closed stdout, 2 when the
input was well formed but the requested operation failed (zero-probability
conditioning, impossible sequences, and similar).  Warnings and
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import OrthoprobError, ParseError, ValidationError
from .events import DEFAULT_AXIOM_BUDGET
from .linalg import DEFAULT_QUERY_TOL, _require_tolerance
from .scenario import (DEFAULT_SEED, DEFAULT_TRIALS, MAX_AXIOM_BUDGET, MAX_TRIALS,
                       QUERY_TABLE, Query, Scenario, parse_scenario, run_query)
from .states import (DensityState, condition, condition_seq,
                     conditioning_contract_violations, predictability, prob,
                     qubit_nonuniqueness_demo)


class _Parser(argparse.ArgumentParser):
    # Usage problems are input problems: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
        _require_tolerance(value)
    except ValueError:  # float()'s, or the ValidationError of _require_tolerance
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}") from None
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
    print(json.dumps(_round_floats(result) if pretty else result, indent=2 if pretty else None,
                     allow_nan=False, check_circular=False), flush=True)


def _load_scenario(args) -> Scenario:
    """The prelude of every scenario subcommand: the --trials ceiling, then the file."""
    if args.trials > MAX_TRIALS:
        raise ValidationError(f"--trials: expected at most {MAX_TRIALS}")
    try:
        data = Path(args.scenario).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {args.scenario!r}: {exc}") from None
    return parse_scenario(data)


def _run_scenario_command(args) -> dict:
    scenario = _load_scenario(args)
    allowed = sorted(kind for kind, q in QUERY_TABLE.items() if q.command == args.command)
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
    scenario = _load_scenario(args)
    if args.budget is not None:
        budget = args.budget
    elif scenario.query is not None and scenario.query.kind == "axioms":
        budget = scenario.query.fields["budget"]
    else:
        budget = DEFAULT_AXIOM_BUDGET
    scenario.query = Query("axioms", {"budget": budget})
    return run_query(scenario, tol=args.tol, seed=args.seed, trials=args.trials)


# The demo handlers import presets when called; no other subcommand needs it.

def _run_demo_sec7(args) -> dict:
    from .presets import half_transition_pair
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
    from .presets import order_dependence_example
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


_OPTIONS = {
    "--tol": dict(type=_tolerance, default=DEFAULT_QUERY_TOL,
                  help="numerical tolerance (default 1e-9)"),
    "--pretty": dict(action="store_true",
                     help="indent output and round floats to 6 significant digits"),
    "--seed": dict(type=int, default=DEFAULT_SEED, help=(
        f"random seed for sampling and axiom checks (default {DEFAULT_SEED})")),
    "--trials": dict(type=int, default=DEFAULT_TRIALS, help=(
        f"number of sampled trials, at most {MAX_TRIALS} (default {DEFAULT_TRIALS})")),
    "--scenario": dict(required=True, metavar="PATH", help="path to a scenario JSON file"),
    "--budget": dict(type=int, default=None, help=(
        f"random instances per axiom, at most {MAX_AXIOM_BUDGET} (default from the "
        f"scenario query, else {DEFAULT_AXIOM_BUDGET})")),
    "--angle": dict(type=float, default=math.pi / 4,
                    help="angle of the tilted projection in radians (default pi/4)"),
}
_SCENARIO_OPTIONS = ("--tol", "--pretty", "--seed", "--trials", "--scenario")

# Each subcommand and its options in --help order, with its help and handler.  A scenario
# subcommand runs the kinds whose QUERY_TABLE command is its name.
_COMMANDS = {
    "predict": ("run a predictability query", _run_scenario_command, _SCENARIO_OPTIONS),
    "condition": ("run a prob / condition / condition_seq query", _run_scenario_command,
                  _SCENARIO_OPTIONS),
    "compat": ("run a compatibility query", _run_scenario_command, _SCENARIO_OPTIONS),
    "interfere": ("run an interference decomposition query", _run_scenario_command,
                  _SCENARIO_OPTIONS),
    "twoslit": ("run a two-slit probability query", _run_scenario_command, _SCENARIO_OPTIONS),
    "sample": ("sample a measurement chain", _run_scenario_command, _SCENARIO_OPTIONS),
    "axioms": ("randomized orthospace axiom check on the scenario's algebra", _run_axioms,
               _SCENARIO_OPTIONS + ("--budget",)),
    "demo-sec7": ("built-in half-transition pair: certified value 1/2 with zero residual",
                  _run_demo_sec7, ("--tol", "--pretty")),
    "demo-order": ("built-in order-dependence example on C^3", _run_demo_order,
                   ("--tol", "--pretty")),
    "demo-qubit": ("two distinct conditionals on a qubit event list", _run_demo_qubit,
                   ("--pretty", "--angle")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="orthoprob",
                     description="Conditional probability on orthospaces: "
                                 "scenario queries, demos, and checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(handler=handler)
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
    try:
        _emit(result, args.pretty)
    except BrokenPipeError:  # Python's SIGPIPE note: to devnull, so exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
