"""The benchmark's workloads.

Each workload is a closed loop: one client in one process issues its next
operation only after the previous one returned.  A workload builds its
inputs from the seed in ``setup`` and hands out passes of operations; a
pass is a fixed list, so whole passes keep the operation mix the same
from run to run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import orthoprob

import gen
import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
CLI_INPUTS = HERE / "cli_inputs"
SUBPROCESS_TIMEOUT_S = 60

# Every orthoprob subcommand; scenario paths are relative to the checkout.
CLI_INVOCATIONS = (
    ("condition-die", ("condition", "--scenario", "scenarios/die.json")),
    ("condition-order", ("condition", "--scenario", "scenarios/order.json")),
    ("condition-qubit", ("condition", "--scenario", "scenarios/qubit.json")),
    ("predict-sec7", ("predict", "--scenario", "scenarios/sec7.json")),
    ("twoslit", ("twoslit", "--scenario", "scenarios/twoslit.json")),
    ("axioms-qubit", ("axioms", "--scenario", "scenarios/qubit.json", "--budget", "5")),
    ("demo-sec7", ("demo-sec7",)),
    ("demo-order", ("demo-order",)),
    ("demo-qubit", ("demo-qubit",)),
    ("compat", ("compat", "--scenario", "perfbench/cli_inputs/compat.json")),
    ("interfere", ("interfere", "--scenario", "perfbench/cli_inputs/interfere.json")),
    ("sample", ("sample", "--scenario", "perfbench/cli_inputs/sample.json")),
)


class SetupError(Exception):
    """The benchmark's own inputs are missing or stale."""


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Op:
    """One timed operation.

    ``verify`` judges an output against an oracle or a golden record and
    runs the first time a key is seen; later outputs for the same key must
    have the same ``fingerprint``.
    """

    key: str
    run: Callable[[], Any]
    verify: Callable[[Any], list]
    fingerprint: Callable[[Any], str]
    work: Callable[[Any], float] = lambda out: 1.0


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _order(items: list, seed: int, index: int) -> list:
    items = list(items)
    random.Random(f"{seed}/{index}").shuffle(items)
    return items


# ---------------------------------------------------------------------------

class CliWorkload:
    """`python -m orthoprob ...` as a subprocess, one invocation per op."""

    name = "cli"
    in_process = False

    def setup(self, seed: int) -> None:
        for kind, doc in gen.cli_input_docs().items():
            path = CLI_INPUTS / f"{kind}.json"
            if not path.is_file() or path.read_text(encoding="utf-8") != doc.text:
                raise SetupError(f"{path} differs from the generator's output; "
                                 "re-record with perfbench/golden.py")
        self.golden = {}
        for name, _ in CLI_INVOCATIONS:
            path = GOLDEN / "cli" / f"{name}.out"
            if not path.is_file():
                raise SetupError(f"missing golden output {path}")
            self.golden[name] = path.read_bytes()
        self.seed = seed

    def pass_ops(self, index: int, traced: bool = False) -> list[Op]:
        """Every invocation once; traced ones run under cli_child.py, which
        reports its spans on stderr."""
        prefix = ([sys.executable, str(HERE / "cli_child.py")] if traced
                  else [sys.executable, "-m", "orthoprob"])
        ops = []
        for name, argv in _order(CLI_INVOCATIONS, self.seed, index):
            def run(argv=argv):
                out = subprocess.run([*prefix, *argv], cwd=ROOT, env=child_env(),
                                     capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
                if traced:
                    out.spans = _child_spans(out)
                return out

            def verify(out, name=name):
                problems = []
                if out.returncode != 0:
                    problems.append(f"exit code {out.returncode}: "
                                    f"{out.stderr.decode(errors='replace')[-300:]}")
                if out.stdout != self.golden[name]:
                    problems.append("stdout differs from the golden record")
                return problems

            ops.append(Op(key=name, run=run, verify=verify,
                          fingerprint=lambda out: digest([out.returncode,
                                                          out.stdout.decode()])))
        return ops


def _child_spans(out) -> dict:
    """Span summary a traced CLI child printed on its last stderr line."""
    for line in reversed(out.stderr.decode(errors="replace").splitlines()):
        if line.startswith(spans.CHILD_MARK):
            return json.loads(line[len(spans.CHILD_MARK):])
    raise ValueError("traced child printed no span summary")


class QueriesWorkload:
    """parse_scenario -> run_query -> json.dumps, plus serialize_scenario."""

    name = "queries"
    in_process = True

    def setup(self, seed: int) -> None:
        self.docs = gen.query_docs(seed)
        self.seed = seed
        # parse_scenario renormalizes vector states on every read, so a
        # vector whose norm is 1 only to within an ulp changes bits on each
        # parse -> serialize -> parse cycle.  Such documents are listed
        # here and reported with the run instead of being failed.
        self.inexact_roundtrip = set()

    def notes(self) -> dict:
        return {"inexact_roundtrip_docs": sorted(self.inexact_roundtrip)}

    def pass_ops(self, index: int, traced: bool = False) -> list[Op]:
        ops = []
        for doc in _order(self.docs, self.seed, index):
            def run(doc=doc):
                scenario = orthoprob.parse_scenario(doc.text)
                result = orthoprob.run_query(scenario, seed=self.seed,
                                             trials=gen.QUERY_TRIALS)
                return (scenario, result, json.dumps(result),
                        orthoprob.serialize_scenario(scenario))

            def verify(out, doc=doc):
                scenario, result, _, text = out
                problems = (oracles.check_query(doc.spec, result)
                            + oracles.check_serialized(doc.spec["inputs"], text))
                if orthoprob.parse_scenario(text) != scenario:
                    self.inexact_roundtrip.add(doc.name)
                return problems

            ops.append(Op(key=doc.name, run=run, verify=verify,
                          fingerprint=lambda out: digest([out[2], out[3]])))
        return ops


class HarnessWorkload:
    """verify_orthospace_axioms over a fixed algebra mix and seed pool."""

    name = "harness"
    in_process = True

    def setup(self, seed: int) -> None:
        path = GOLDEN / "harness_counts.json"
        if not path.is_file():
            raise SetupError(f"missing golden record {path}")
        self.counts = json.loads(path.read_text(encoding="utf-8"))
        self.build(seed)

    def build(self, seed: int) -> None:
        self.algebras = [(f"{kind}{n}",
                          orthoprob.QuantumAlgebra(n) if kind == "quantum"
                          else orthoprob.BooleanAlgebra(n),
                          budget)
                         for kind, n, budget in gen.HARNESS_ALGEBRAS]
        self.seed = seed

    def pass_ops(self, index: int, traced: bool = False) -> list[Op]:
        pool_seed = gen.HARNESS_SEEDS[(self.seed + index) % len(gen.HARNESS_SEEDS)]
        ops = []
        for label, algebra, budget in _order(self.algebras, self.seed, index):
            key = f"{label}/seed{pool_seed}/budget{budget}"

            def run(algebra=algebra, budget=budget):
                return orthoprob.verify_orthospace_axioms(algebra, budget=budget,
                                                          seed=pool_seed)

            def verify(report, key=key):
                problems = []
                if key not in self.counts:
                    return [f"no recorded check counts for {key}"]
                if report.checks != self.counts[key]:
                    problems.append(f"checks {report.checks} != recorded "
                                    f"{self.counts[key]}")
                if not report.passed or report.messages:
                    problems.append(f"axiom failures {report.failures}: "
                                    f"{report.messages[:3]}")
                return problems

            ops.append(Op(key=key, run=run, verify=verify,
                          fingerprint=lambda r: digest([r.checks, r.failures, r.messages]),
                          work=lambda r: float(sum(r.checks.values()))))
        return ops


def _chain_digest(result) -> str:
    return digest([sorted(result.outcome_counts.items()), result.all_yes_count,
                   result.final_event_yes_count, repr(result.empirical_p),
                   repr(result.predicted_p)])


class _ChainInputs:
    def setup(self, seed: int) -> None:
        self.inputs = gen.chain_inputs(seed)
        alg = orthoprob.QuantumAlgebra(4)
        self.e, self.f = alg.event(self.inputs.e), alg.event(self.inputs.f)
        self.initial = orthoprob.DensityState(self.inputs.initial)


class ChainDeepWorkload(_ChainInputs):
    """One deep alternating chain; cost is dominated by per-node conditioning."""

    name = "chain_deep"
    in_process = True

    def pass_ops(self, index: int, traced: bool = False) -> list[Op]:
        tests = [self.e if k % 2 == 0 else self.f for k in range(gen.DEEP_TESTS)]
        # The last test is F, and F E F = F / 2: the chain is predictable.
        final = self.e if tests[-1] is self.f else self.f
        config = orthoprob.SamplerConfig(seed=self.inputs.sampler_seed,
                                         trials=gen.DEEP_TRIALS)

        def run():
            return orthoprob.sample_chain(self.initial, tests, final, config)

        def verify(result):
            return oracles.check_chain(result, gen.DEEP_TRIALS, gen.DEEP_TESTS,
                                       self.inputs.p_first, 0.5)

        return [Op(key="deep", run=run, verify=verify, fingerprint=_chain_digest,
                   work=lambda r: float(r.trials))]


class ChainShallowWorkload(_ChainInputs):
    """A one-test chain with millions of trials plus a state-independence
    check; cost is dominated by the sampler's vectorized draws."""

    name = "chain_shallow"
    in_process = True

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.others = [orthoprob.DensityState(rho)
                       for rho in self.inputs.independence_states]
        self.p_others = [float(np.trace(rho @ self.inputs.e).real)
                         for rho in self.inputs.independence_states]

    def pass_ops(self, index: int, traced: bool = False) -> list[Op]:
        seed = self.inputs.sampler_seed
        shallow = orthoprob.SamplerConfig(seed=seed, trials=gen.SHALLOW_TRIALS)
        independence = orthoprob.SamplerConfig(seed=seed, trials=gen.INDEPENDENCE_TRIALS)
        # E F E = E / 2 and F E F = F / 2 make [E, F, E] -> F predictable at 1/2.
        chain = [self.e, self.f, self.e]

        def run():
            return (orthoprob.sample_chain(self.initial, [self.e], self.f, shallow),
                    orthoprob.state_independence_check(self.f, chain, self.others,
                                                       independence))

        def verify(out):
            single, report = out
            return (oracles.check_chain(single, gen.SHALLOW_TRIALS, 1,
                                        self.inputs.p_first, 0.5)
                    + oracles.check_independence(report, 0.5, gen.INDEPENDENCE_TRIALS,
                                                 len(chain), self.p_others))

        def fingerprint(out):
            single, report = out
            return digest([_chain_digest(single), report.passed,
                           [_chain_digest(r) for r in report.results]])

        def work(out):
            single, report = out
            return float(single.trials + sum(r.trials for r in report.results))

        return [Op(key="shallow", run=run, verify=verify, fingerprint=fingerprint,
                   work=work)]


WORKLOADS = {w.name: w for w in (CliWorkload, QueriesWorkload, HarnessWorkload,
                                 ChainDeepWorkload, ChainShallowWorkload)}
