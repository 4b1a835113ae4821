"""Monte Carlo simulation of sequential yes/no measurement chains.

Each trial walks the test events in order, drawing a yes/no outcome with
the current state's probability and updating the state by conditioning on
the observed outcome (the complement on "no").  On the all-yes path a
final outcome for the target event is drawn.  States along the walk
depend only on the outcome prefix, so they are computed once per realized
prefix and trials are driven purely by uniform draws.

A trial's only state is the id of its prefix node among the level's
realized nodes; child ``c`` of a level is ``2 * parent + bit``.  Everything
else is kept per realized node: its outcome prefix, its trial count and
its state.  Realized nodes stay in increasing prefix order, so the last
level's nodes are the keys of ``outcome_counts`` in increasing order, and
the all-yes path, when realized, is the last node.  Chains of any length
take this one route.

The realized prefix states of one level are held as one stack, (m, d, d)
density matrices or (m, size) weight rows.  A level is conditioned a
block of children at a time, LEVEL_BLOCK_BYTES of states, by the stacked
routines that ``states.prob`` and ``states.condition`` run on one state,
so every state and probability carries the bits of the one-node-at-a-time
route.  The complement of each distinct test event, and the pair of
branches a level conditions on, are built once per chain, not once per
level.  The state contract runs once per block and reports the block's
first offending child: every realized branch has positive probability,
then each state passes the ClassicalState or DensityState checks (all but
the Hermitian scan, which the symmetrized compression passes by
construction).

Randomness comes from one counter-based Philox stream keyed by the seed,
consumed in a fixed level-major order; a given (seed, trial, step) always
sees the same uniform, so reruns are bit-identical.  Single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (EmptyChain, ImpossibleSequence, NotPredictable,
                     ValidationError, ZeroEvent, ZeroProbabilityCondition)
from .events import Event, _require_tolerance, _shared_kind, complement
from .states import (_STATE_KINDS, State, _branch_of, _check_states, _conditioned,
                     _probabilities, _stack_of, _warn_if_nonunique, condition,
                     predictability_seq, prob)

# Branch probabilities inside (0, 1e-14) are counted to the complementary
# branch so no trial ever conditions on a numerically vanishing event.
DEGENERATE_BRANCH = 1e-14
# Bytes of states a level conditions and checks at once: the level's
# temporaries stay near this size, however many states the level holds.
LEVEL_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SamplerConfig:
    """Trial count, RNG seed, and probability tolerance for chain runs."""

    seed: int = 42
    trials: int = 100_000
    tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) \
                or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        _require_tolerance(self.tol)


@dataclass(frozen=True)
class ChainResult:
    """Counts and summary statistics for one sampled chain.

    ``outcome_counts`` maps each observed yes/no bitstring (one character
    per test, '1' = yes, first test leftmost) to its frequency, in
    increasing key order.
    ``empirical_p`` is the final-event yes fraction among all-yes trials
    (NaN when no trial survived the chain).
    """

    outcome_counts: dict[str, int]
    all_yes_count: int
    final_event_yes_count: int
    empirical_p: float
    std_error: float
    predicted_p: float | None
    trials: int
    seed: int

    def __post_init__(self):
        total = sum(self.outcome_counts.values())
        if total != self.trials:
            raise ValidationError(
                f"outcome counts sum to {total}, expected {self.trials}")
        if self.all_yes_count > 0:
            expected = self.final_event_yes_count / self.all_yes_count
            if self.empirical_p != expected:
                raise ValidationError("empirical_p inconsistent with counts")


def _effective_yes(p: np.ndarray) -> np.ndarray:
    return np.where(p < DEGENERATE_BRANCH, 0.0,
                    np.where(p > 1.0 - DEGENERATE_BRANCH, 1.0, p))


def _block_size(stack: np.ndarray) -> int:
    return max(1, LEVEL_BLOCK_BYTES // stack[0].nbytes)


def _level_probabilities(stack: np.ndarray, event: Event) -> np.ndarray:
    """``prob(state, event)`` for every state of a level stack."""
    size = _block_size(stack)
    return np.concatenate([_probabilities(stack[lo:lo + size], event)
                           for lo in range(0, len(stack), size)])


def _branches(event: Event) -> tuple[Event, np.ndarray]:
    """The complement of a test event and the stack of the two branches a
    level conditions on, the complement's first."""
    comp = complement(event)
    return comp, np.stack([_branch_of(comp), _branch_of(event)])


def _condition_level(stack: np.ndarray, realized: np.ndarray, p_yes: np.ndarray,
                     comp: Event, branches: np.ndarray) -> np.ndarray:
    """States of the realized children of a level, in ``realized`` order.

    Child ``c`` is parent ``c // 2`` conditioned on the level's event when
    ``c`` is odd and on its complement ``comp`` when even, with the
    arithmetic of ``states.condition``; ``branches`` is ``_branches`` of
    the event.  Each block of children is checked as ``condition`` checks
    a state before the next block is built, and an error reports the
    block's first offending child.
    """
    children = np.empty((len(realized),) + stack.shape[1:], dtype=stack.dtype)
    size = _block_size(stack)
    for lo in range(0, len(realized), size):
        codes = realized[lo:lo + size]
        parents, bits = codes // 2, codes % 2
        p = p_yes[parents]
        no = bits == 0
        p[no] = _probabilities(stack[parents[no]], comp)
        block = _conditioned(stack[parents], branches[bits], p, 0.0)
        _check_states(block)
        children[lo:lo + len(codes)] = block
    return children


def sample_chain(initial: State, tests: Sequence[Event], final: Event,
                 config: SamplerConfig = SamplerConfig()) -> ChainResult:
    """Sample ``config.trials`` runs of the measurement chain.

    Every trial performs all tests in order under conditioning on the
    drawn outcomes; the final event is drawn only on the all-yes path.
    ``predicted_p`` carries the certified sequential conditional
    probability when the chain is statistically predictable, else None.
    """
    if len(tests) == 0:
        raise EmptyChain("sample_chain needs at least one test event")
    _shared_kind(initial, final, _STATE_KINDS)
    for event in tests:
        _shared_kind(initial, event, _STATE_KINDS)
    _warn_if_nonunique(tests[0])
    n = len(tests)
    trials = config.trials
    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))

    stack = _stack_of(initial)
    node_ids = np.zeros(trials, dtype=np.int64)
    paths = np.zeros((1, n), dtype=bool)
    branches = {}

    for k, event in enumerate(tests):
        if id(event) not in branches:
            branches[id(event)] = _branches(event)
        p_yes = _level_probabilities(stack, event)
        yes = _effective_yes(p_yes)
        outcome = rng.random(trials) < (yes if len(yes) == 1 else yes.take(node_ids))
        node_ids *= 2
        node_ids += outcome
        counts = np.bincount(node_ids, minlength=2 * len(stack))
        realized = np.flatnonzero(counts)
        if len(realized) < len(counts):
            remap = np.zeros(len(counts), dtype=np.int64)
            remap[realized] = np.arange(len(realized))
            node_ids = remap.take(node_ids)
        paths = paths[realized // 2]
        paths[:, k] = realized % 2
        stack = _condition_level(stack, realized, p_yes, *branches[id(event)])

    final_draw = rng.random(trials)
    last = len(realized) - 1
    if paths[last].all():
        all_yes_count = int(counts[realized[last]])
        p_final = _effective_yes(_probabilities(stack[last:], final))[0]
        hit = final_draw < p_final
        hit &= node_ids == last
        final_yes_count = int(np.count_nonzero(hit))
    else:
        all_yes_count = final_yes_count = 0

    rows = paths.view(np.uint8)
    rows += ord("0")
    keys = rows.view(f"S{n}").ravel().astype(f"U{n}").tolist()
    outcome_counts = dict(zip(keys, counts[realized].tolist()))

    if all_yes_count > 0:
        empirical = final_yes_count / all_yes_count
        std_error = math.sqrt(empirical * (1.0 - empirical) / all_yes_count)
    else:
        empirical = float("nan")
        std_error = float("nan")

    try:
        detection = predictability_seq(final, tests)
        predicted = detection.s if detection.predictable else None
    except (ImpossibleSequence, ZeroEvent):
        predicted = None

    return ChainResult(outcome_counts=outcome_counts, all_yes_count=all_yes_count,
                       final_event_yes_count=final_yes_count,
                       empirical_p=empirical, std_error=std_error,
                       predicted_p=predicted, trials=trials, seed=config.seed)


@dataclass(frozen=True)
class StateIndependenceReport:
    """Empirical check that a predictable chain ignores the initial state.

    ``passed`` means every run landed within four standard errors of the
    certified value (plus a 1e-12 absolute allowance so zero-variance
    chains are not failed over float roundoff in the certificate).
    """

    predicted_p: float
    results: tuple[ChainResult, ...]
    deviations: tuple[float, ...]
    passed: bool


def state_independence_check(target: Event, tests: Sequence[Event],
                             initial_states: Sequence[State],
                             config: SamplerConfig = SamplerConfig()
                             ) -> StateIndependenceReport:
    """Run the chain from several initial states and compare against the
    certified conditional probability.

    Raises NotPredictable when the chain has no state-independent value,
    and ZeroProbabilityCondition when some initial state cannot realize
    the all-yes path (analytic path probability <= config.tol).
    """
    if len(initial_states) == 0:
        raise ValidationError("state_independence_check needs at least one initial state")
    detection = predictability_seq(target, tests)
    if not detection.predictable:
        raise NotPredictable(
            f"chain is not statistically predictable (residual {detection.residual:.3e})")
    predicted = detection.s

    results = []
    for i, state in enumerate(initial_states):
        walking, path_p = state, 1.0
        for k, ev in enumerate(tests):
            path_p *= prob(walking, ev)
            if path_p <= config.tol:
                raise ZeroProbabilityCondition(
                    f"initial state {i} gives the all-yes path probability "
                    f"{path_p!r} <= {config.tol!r} by step {k}",
                    index=k, probability=path_p)
            walking = condition(walking, ev, tol=0.0)
        run_config = replace(config, seed=(config.seed + i) % 2 ** 64)
        results.append(sample_chain(state, tests, target, run_config))

    deviations = []
    passed = True
    for r in results:
        if r.all_yes_count == 0:
            passed = False
            deviations.append(float("inf"))
            continue
        err = abs(r.empirical_p - predicted)
        if err > 4.0 * r.std_error + 1e-12:
            passed = False
        deviations.append(err / r.std_error if r.std_error > 0.0 else
                          (0.0 if err <= 1e-12 else float("inf")))
    return StateIndependenceReport(predicted_p=predicted, results=tuple(results),
                                   deviations=tuple(deviations), passed=passed)
