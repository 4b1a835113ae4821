"""Monte Carlo simulation of sequential yes/no measurement chains.

Each trial walks the test events in order, drawing a yes/no outcome with
the current state's probability and updating the state by conditioning on
the observed outcome (the complement on "no").  On the all-yes path a
final outcome for the target event is drawn.  States along the walk
depend only on the outcome prefix, so they are computed once per realized
prefix and trials are driven purely by uniform draws.

A trial's only state is the id of its prefix node among the level's
realized nodes; child ``c`` of a level is ``2 * parent + bit``.  Ids stay
below ``2 * min(trials, 2**(n - 1))`` for n tests, so they are held in the
narrowest unsigned type that fits: 1 byte per trial for up to 8 tests or
128 trials, 2 bytes for up to 16 tests or 32768 trials, 4 bytes for up
to 32 tests or 2**31 trials, and int64, 8 bytes, past that.  Everything
else is kept per realized node: its outcome prefix, its trial count and
its state.  Each level draws, counts and renumbers the trials a chunk
of LEVEL_BLOCK_BYTES // 8 at a time, in trial order, so past the node
ids the working set is fixed.  Realized nodes stay in increasing prefix
order, so the last level's nodes are the keys of ``outcome_counts`` in
increasing order, and the all-yes path, when realized, is the last node.
Chains of any length take this one route.

The realized prefix states of one level are held as one stack, (m, d, d)
density matrices or (m, size) weight rows.  A level is conditioned a
block of children at a time, LEVEL_BLOCK_BYTES of states, by the algebra
kind's stacked routines, which ``states.prob`` and ``states.condition`` run
on one state, so every state and probability carries the bits of the
one-node-at-a-time route on kernels where the ``kernel_dependent`` tests
pass.  The complement of each distinct test event, and the pair of
branches a level conditions on, are built once per chain, not once per
level.  The state contract runs once per block and reports the block's
first offending child: every realized branch has positive probability,
then each state passes the ClassicalState or DensityState checks (all but
the Hermitian scan, which the symmetrized compression passes by
construction).

Randomness comes from one counter-based Philox stream keyed by the seed,
consumed in a fixed level-major order; a given (seed, trial, step) always
sees the same uniform, so reruns are bit-identical.  The generator keeps
its buffer position between calls, so drawing a level in chunks gives
every trial the uniform one draw of the whole level would.  The final
event's draw is skipped when no trial took the all-yes path, since nothing
reads the stream after it.  Single-threaded.

Trials decide on the stream's raw 64-bit words, never on doubles.  numpy's
``Generator.random`` turns a word ``u`` into the double ``k * 2**-53`` with
``k = u >> 11``, and ``random_raw`` reads the same words from the same
buffer, so every trial, final draw included, sees the ``k`` it would see
through ``random``.  For an integer ``k < 2**53``, ``k * 2**-53 < p``
exactly when ``k < ceil(p * 2**53)``: scaling by a power of two changes
only the exponent, so ``p * 2**53`` is exact.  Each branch probability
thus becomes one uint64 threshold, and comparing ``k`` with it gives the
bits of ``random() < p``, for ``p`` of 0 and 1 too.  A level of one node
(the first, and every level that certain tests alone lead to) counts its
"yes" trials with ``np.count_nonzero`` instead of a ``bincount`` of the
node ids.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import (EmptyChain, ImpossibleSequence, NotPredictable,
                     ValidationError, ZeroEvent, ZeroProbabilityCondition)
from .events import (_SEED_BOUND, DEFAULT_SEED, DEFAULT_TRIALS, Event, _require_instance,
                     _shared_kind, complement)
from .linalg import (DEFAULT_CONDITION_TOL, DEGENERATE_BRANCH, TAIL_LEVEL, _require_int,
                     _require_sequence)
from .states import State, _check_probabilities, condition, predictability_seq, prob

# Bytes of states or draws a level handles at once: the level's
# temporaries stay near this size, however many states or trials it holds.
LEVEL_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SamplerConfig:
    """Trial count (>= 1) and RNG seed (in [0, 2**64)) for chain runs."""

    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        object.__setattr__(self, "trials", _require_int(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0, _SEED_BOUND))


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


def _thresholds(p: np.ndarray) -> np.ndarray:
    """The uint64 thresholds ``ceil(p_eff * 2**53)`` of yes-branches of
    probability ``p``, where ``p_eff`` counts ``p`` inside
    (0, DEGENERATE_BRANCH) as 0 and inside (1 - DEGENERATE_BRANCH, 1) as 1:
    a draw ``k`` of ``_draws`` says yes exactly when ``k * 2**-53 < p_eff``,
    which is when ``k`` is below the threshold."""
    p_eff = np.where(p < DEGENERATE_BRANCH, 0.0,
                     np.where(p > 1.0 - DEGENERATE_BRANCH, 1.0, p))
    return np.ceil(p_eff * 2.0 ** 53).astype(np.uint64)


def _draws(philox: np.random.Philox, m: int) -> np.ndarray:
    """The next ``m`` words of the stream as 53-bit integers ``k``; the
    uniforms ``Generator.random`` would make of them are ``k * 2**-53``."""
    words = philox.random_raw(m)
    words >>= 11
    return words


def _node_id_type(trials: int, n: int) -> type:
    """The narrowest type of ``sample_chain``'s node ids for ``trials``
    trials of ``n`` tests.  Past uint32 it is int64, as numpy 1.x's
    ``bincount`` refuses uint64."""
    top = 2 * min(trials, 2 ** (n - 1)) - 1
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _block_size(stack: np.ndarray) -> int:
    return max(1, LEVEL_BLOCK_BYTES // stack[0].nbytes)


def _level_probabilities(kind, stack: np.ndarray, event: Event) -> np.ndarray:
    """``prob(state, event)`` for every state of a level stack of the
    algebra kind ``kind``."""
    size = _block_size(stack)
    return np.concatenate([kind.probabilities(stack[lo:lo + size], event)
                           for lo in range(0, len(stack), size)])


def _branches(kind, event: Event) -> tuple[Event, np.ndarray]:
    """The complement of a test event and the stack of the operands of the
    two branches a level conditions on, the complement's first."""
    comp = complement(event)
    return comp, np.stack([kind.operand(comp), kind.operand(event)])


def _condition_level(kind, stack: np.ndarray, realized: np.ndarray, p_yes: np.ndarray,
                     comp: Event, branches: np.ndarray) -> np.ndarray:
    """States of the realized children of a level, in ``realized`` order.

    Child ``c`` is parent ``c // 2`` conditioned on the level's event when
    ``c`` is odd and on its complement ``comp`` when even, with the
    arithmetic of ``states.condition``; ``branches`` is ``_branches`` of
    the event.  Each block of children is checked as ``condition`` checks
    a state before the next block is built, and an error reports the
    block's first offending child.  A block is conditioned as two halves,
    the "no" and the "yes" children, each with one shared branch; the
    probabilities are checked before either half is built and the states
    once the block is back in ``realized`` order.
    """
    children = np.empty((len(realized),) + stack.shape[1:], dtype=stack.dtype)
    size = _block_size(stack)
    for lo in range(0, len(realized), size):
        codes = realized[lo:lo + size]
        parents, no = codes // 2, codes % 2 == 0
        p = p_yes[parents]
        p[no] = kind.probabilities(stack[parents[no]], comp)
        _check_probabilities(p, 0.0)
        block = children[lo:lo + len(codes)]
        for half, branch in zip((no, ~no), branches):
            if half.any():
                block[half] = kind.conditioned(stack[parents[half]], branch, p[half])
        kind.check_states(block)
    return children


def sample_chain(initial: State, tests: Sequence[Event], final: Event,
                 config: SamplerConfig = SamplerConfig()) -> ChainResult:
    """Sample ``config.trials`` runs of the measurement chain.

    Every trial performs all tests in order under conditioning on the
    drawn outcomes; the final event is drawn only on the all-yes path.
    ``predicted_p`` carries the certified sequential conditional
    probability when the chain is statistically predictable, else None.
    """
    _require_sequence(tests, "tests", "events")
    _require_instance(SamplerConfig, config=config)
    if len(tests) == 0:
        raise EmptyChain("sample_chain needs at least one test event")
    kind = _shared_kind(initial, final, state=True)
    for event in tests:
        _shared_kind(initial, event, state=True)
    kind.warn_if_nonunique(tests[0])
    n = len(tests)
    trials = config.trials
    philox = np.random.Philox(key=np.uint64(config.seed))

    stack = kind.state_stack(initial)
    node_ids = np.zeros(trials, dtype=_node_id_type(trials, n))
    step = LEVEL_BLOCK_BYTES // 8
    chunks = [node_ids[lo:lo + step] for lo in range(0, trials, step)]
    gathered = np.empty(len(chunks[0]), dtype=np.uint64)
    outcome = np.empty(len(gathered), dtype=bool)
    paths = np.zeros((1, n), dtype=bool)
    branches = {}

    for k, event in enumerate(tests):
        if id(event) not in branches:
            branches[id(event)] = _branches(kind, event)
        p_yes = _level_probabilities(kind, stack, event)
        yes = _thresholds(p_yes)
        one_node = len(yes) == 1
        counts = np.zeros(2 * len(stack), dtype=np.int64)
        for ids in chunks:
            m = len(ids)
            # Node ids are always in range; raise mode would buffer ``out``.
            hit = np.less(_draws(philox, m),
                          yes if one_node else yes.take(ids, out=gathered[:m], mode="clip"),
                          out=outcome[:m])
            ids *= 2
            ids += hit
            if one_node:
                n_yes = np.count_nonzero(hit)
                counts += (m - n_yes, n_yes)
            else:
                counts += np.bincount(ids, minlength=len(counts))
        realized = np.flatnonzero(counts)
        if len(realized) < len(counts):
            remap = np.zeros(len(counts), dtype=node_ids.dtype)
            remap[realized] = np.arange(len(realized))
            for ids in chunks:
                remap.take(ids, out=ids, mode="clip")
        paths = paths[realized // 2]
        paths[:, k] = realized % 2
        stack = _condition_level(kind, stack, realized, p_yes, *branches[id(event)])

    last = len(realized) - 1
    all_yes_count = final_yes_count = 0
    if paths[last].all():
        all_yes_count = int(counts[realized[last]])
        final_yes = _thresholds(kind.probabilities(stack[last:], final))
        for ids in chunks:
            m = len(ids)
            hit = np.less(_draws(philox, m), final_yes, out=outcome[:m])
            hit &= ids == last
            final_yes_count += int(np.count_nonzero(hit))

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

    A run of n all-yes trials with k final "yes" passes when twice the tail
    of k under Binomial(n, s), s the certified value taken into [0, 1], is
    at least TAIL_LEVEL, or, when s is 0 or 1, when k = n s.
    ``deviations`` are the z-scores |k/n - s| / sqrt(s(1 - s)/n), else 0 or
    inf; a run with n = 0 fails, with inf.
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

    Run i, from ``initial_states[i]``, draws with seed ``config.seed + i``
    (modulo 2**64), so checks at adjacent seeds share streams: run 1 at
    seed 0 draws the stream of run 0 at seed 1.  A sweep over seeds whose
    runs must be independent steps the seed by ``len(initial_states)``.

    Raises NotPredictable when the chain has no state-independent value,
    and ZeroProbabilityCondition when some initial state cannot realize
    the all-yes path (analytic path probability <= DEFAULT_CONDITION_TOL).
    """
    _require_sequence(tests, "tests", "events")
    _require_sequence(initial_states, "initial_states", "states")
    _require_instance(SamplerConfig, config=config)
    if len(tests) == 0:
        raise EmptyChain("state_independence_check needs at least one test event")
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
            if path_p <= DEFAULT_CONDITION_TOL:
                raise ZeroProbabilityCondition(
                    f"initial state {i} gives the all-yes path probability "
                    f"{path_p!r} <= {DEFAULT_CONDITION_TOL!r} by step {k}",
                    index=k, probability=path_p)
            walking = condition(walking, ev, tol=0.0)
        run_config = replace(config, seed=(config.seed + i) % _SEED_BOUND)
        results.append(sample_chain(state, tests, target, run_config))

    s = min(max(predicted, 0.0), 1.0)
    verdicts, deviations = [], []
    for r in results:
        n, k = r.all_yes_count, r.final_event_yes_count
        if n == 0 or s in (0.0, 1.0):
            verdicts.append(n > 0 and k == n * s)
            deviations.append(0.0 if verdicts[-1] else math.inf)
        else:
            verdicts.append(_tail_reaches(k, n, s, TAIL_LEVEL / 2))
            deviations.append(math.sqrt(n) * abs(r.empirical_p - s) / math.sqrt(s * (1.0 - s)))
    return StateIndependenceReport(predicted_p=predicted, results=tuple(results),
                                   deviations=tuple(deviations), passed=all(verdicts))


def _tail_reaches(k: int, n: int, s: float, level: float) -> bool:
    """Whether Binomial(n, s), 0 < s < 1, gives k and the counts beyond it,
    away from n * s, a probability of at least ``level``.  The terms shrink
    from k outward, so the sum stops once it reaches ``level`` or once the
    terms left cannot take it there, at the last term at the latest."""
    step, end = (1, n + 1) if k >= n * s else (-1, -1)
    total = 0.0
    for j in range(k, end, step):
        term = math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * math.log(s) + (n - j) * math.log1p(-s))
        total += term
        if total >= level or total + term * (abs(end - j) - 1) < level:
            return total >= level
