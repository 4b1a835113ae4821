"""Monte Carlo simulation of sequential yes/no measurement chains.

Each trial walks the test events in order, drawing a yes/no outcome with
the current state's probability and updating the state by conditioning on
the observed outcome (the complement on "no").  On the all-yes path a
final outcome for the target event is drawn.  States along the walk
depend only on the outcome prefix, so they are computed once per realized
prefix and trials are driven purely by uniform draws.

A trial's only state is the id of its prefix node; the code of a node's
child is ``2 * id + bit``.  A level counts its children's trials only
where something reads the counts: a level that builds states (below), the
last level, whose counts are the outcome counts, and a level after which
the next level's codes could pass a chunk's length, so that a chain
realizing few prefixes counts no chunk into a longer array.
Such a level renumbers the ids to each child's place among its realized
children; after the last test they are left as codes, and the final draw
compares them with the all-yes node's code.  Any other level is certified
(below) and only appends its bit: its children's probabilities are its
branches' two certified values, read off a code's last bit, and the next
count takes the prefix of a code from its high bits and the outcomes since
the last count from its low bits.  Ids, codes of uncounted levels too, stay
below ``2 * min(trials, 2**(n - 1))`` for n tests, so they are held in the
narrowest unsigned type that fits: 1 byte per trial for up to 8 tests or
128 trials, 2 bytes for up to 16 tests or 32768 trials, 4 bytes for up
to 32 tests or 2**31 trials, and int64, 8 bytes, past that.  Everything
else is kept per node of the last count: its outcome prefix, its trial
count, its probability of the event the next draw reads (the next test,
or the final event after the last test) and, in the levels that build
states, its state.  The last level keeps the all-yes node alone, the one
the final draw reads.  Each level draws, and where it counts, counts and
renumbers the trials a chunk of ``linalg._CALL_BYTES`` of 8-byte draws at
a time, in trial order, so past the node ids the working set is fixed.
Codes and realized nodes stay in increasing prefix order, so the last
level's nodes are the keys of ``outcome_counts`` in increasing order, and
the all-yes path, when realized, is the last node.  Chains of any length
take this one route.

A level's pair is its test and the event the next draw reads.  When a
branch F of the test, the complement or the test itself, satisfies
F A F = s F for the event A read next, every child on that branch has
probability s of A whatever its state: the paper's state-independent
conditional probability.  A pair is certified, both branches, by
``states.predictability``'s arithmetic on the operands at rounding level,
``TOL_EXACT_BRANCH``; a branch of rank 0 is not certified.  States are
built up to the last level whose pair is not certified; every later level
gives each child the certified s of its branch and builds nothing, so a
chain of certified pairs builds no state.  Pairs are certified from the
last level back, each distinct pair once, and only up to the first that is
not certified.  The certified s equals a state's probability within
rounding, so the counts are the state route's in practice but not by
construction: they differ only where a draw falls between two roundings of
one probability.

The states of a level that builds them are held as one stack, (m, d, d)
density matrices or (m, size) weight rows.  Such a level is conditioned a
block of children at a time, ``linalg._CALL_BYTES`` of states, the bound
of the axiom harness's stacked calls too, by the algebra kind's stacked
routines, which ``states.prob`` and ``states.condition`` run on one state,
so every state and probability carries the bits of the one-node-at-a-time
route on kernels where the ``kernel_dependent`` tests pass.  Those
routines take events' operands, never events.  Each block's
probabilities of the event the next draw reads are taken in the pass that
builds and checks it; only the initial state's probability of the first
test is taken apart.  The pair of branches a level conditions on, the
operands of a test event's complement and of the event, is built once per
distinct test, not once per level, and no complement event is built.  The state
contract runs once per block of built children and reports the block's
first offending child: every branch built has positive probability, then
each state passes the ClassicalState or DensityState checks (all but the
Hermitian scan, which the symmetrized compression passes by
construction).  A level that builds no state checks none.

Randomness comes from one counter-based Philox stream, keyed by the seed
and a stream number (0 but in ``state_independence_check``), consumed in a
fixed level-major order; a given (seed, stream, trial, step) always sees
the same uniform, so reruns are bit-identical.  The generator keeps
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
bits of ``random() < p``, for ``p`` of 0 and 1 too.  A draw below a
level's lowest threshold says yes at every node, and one at or above its
highest says no at every node.  So a level whose thresholds lie so close
that fewer than one draw of a chunk is expected between them compares a
chunk's draws with the lowest, and gathers a threshold per trial only for
a chunk with a draw between the two; the outcomes are those of the
per-trial compare by construction.  Such levels are the levels of one node
(the first, and every level that certain tests alone lead to), certified
levels whose branches give one probability within a few ulp, as in a
chain of half-transition pairs, and levels of states whose probabilities
differ in their last bits only.  A level of one node that counts takes
its "yes" trials with ``np.count_nonzero`` instead of a ``bincount`` of the
node ids.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyChain, ImpossibleSequence, NotPredictable,
                     ValidationError, ZeroEvent, ZeroProbabilityCondition)
from .events import (_SEED_BOUND, DEFAULT_SEED, DEFAULT_TRIALS, Event, _require_instance,
                     _shared_kind)
from .linalg import (DEFAULT_CONDITION_TOL, DEGENERATE_BRANCH, TAIL_LEVEL, TOL_EXACT_BRANCH,
                     _require_int, _require_sequence, _slices)
from .states import (State, _certified, _check_probabilities, condition, predictability_seq,
                     prob)


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
    trials of ``n`` tests: one that holds every id below ``2 * min(trials,
    2**(n - 1))``.  A level's children number at most that, and
    ``sample_chain`` counts and renumbers them before the codes of levels
    that count nothing could reach it.  Past uint32 it is int64, as numpy
    1.x's ``bincount`` refuses uint64."""
    top = 2 * min(trials, 2 ** (n - 1)) - 1
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _condition_level(kind, stack: np.ndarray, realized: np.ndarray, p_yes: np.ndarray,
                     branches: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States of the realized children of a level, in ``realized`` order,
    and their probabilities of ``after``, the operand of the event the next
    draw reads.

    Child ``c`` is parent ``c // 2`` conditioned on ``branches[c % 2]``,
    the operands of the level's event's complement and of the event, with
    the arithmetic of ``states.condition``.  Children are built a block of
    ``linalg._CALL_BYTES`` of states at a time; each block is checked as
    ``condition`` checks a state before the next block is built, and an
    error reports the block's first offending child.  A block is
    conditioned as two halves, the "no" and the "yes" children, each with
    one shared branch; the probabilities are checked before either half is
    built and the states once the block is back in ``realized`` order,
    before its probabilities of ``after`` are taken.
    """
    children = np.empty((len(realized),) + stack.shape[1:], dtype=stack.dtype)
    p_after = np.empty(len(realized))
    for part in _slices(len(realized), stack[0].nbytes):
        parents, no = realized[part] // 2, realized[part] % 2 == 0
        p = p_yes[parents]
        p[no] = kind.probabilities(stack[parents[no]], branches[0])
        _check_probabilities(p, 0.0)
        block = children[part]
        for half, branch in zip((no, ~no), branches):
            if half.any():
                block[half] = kind.conditioned(stack[parents[half]], branch, p[half])
        kind.check_states(block)
        p_after[part] = kind.probabilities(block, after)
    return children, p_after


def _exact_branches(kind, branches: np.ndarray, after: np.ndarray) -> np.ndarray | None:
    """The probabilities of ``after`` on the two ``branches``, the no and
    the yes operands of a test, when both are certified state-independent
    at rounding level (``states.predictability``'s arithmetic at
    TOL_EXACT_BRANCH), else None.  A branch of rank 0 is never certified."""
    try:
        verdicts = [_certified(*kind.predictability(after, branch), TOL_EXACT_BRANCH)
                    for branch in branches]
    except ZeroEvent:
        return None
    return np.array([v.s for v in verdicts]) if all(v.predictable for v in verdicts) else None


def sample_chain(initial: State, tests: Sequence[Event], final: Event,
                 config: SamplerConfig = SamplerConfig(), *, _stream: int = 0) -> ChainResult:
    """Sample ``config.trials`` runs of the measurement chain.

    Every trial performs all tests in order under conditioning on the
    drawn outcomes; the final event is drawn only on the all-yes path.
    Past the last level whose pair, a test and the event read next, is not
    certified state-independent at rounding level, a level draws with the
    certified s of each branch instead of a conditioned state's
    probability.  The two agree within rounding, so the counts match the
    state route's in practice, though not by construction.  Such a level
    counts its trials' nodes only when it is the last or when the next
    level's codes could pass a chunk's length; otherwise its trials carry
    their outcome bits to the next level that counts.
    ``predicted_p`` carries the certified sequential conditional
    probability when the chain is statistically predictable, else None.
    The draws come from the Philox stream keyed by ``(config.seed,
    _stream)``.
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
    philox = np.random.Philox(key=np.array([config.seed, _stream], dtype=np.uint64))

    stack = kind.state_stack(initial)
    node_ids = np.zeros(trials, dtype=_node_id_type(trials, n))
    chunks = [node_ids[part] for part in _slices(trials, 8)]
    gathered = np.empty(len(chunks[0]), dtype=np.uint64)
    outcome = np.empty(len(gathered), dtype=bool)
    paths = np.zeros((1, n), dtype=bool)

    events = [*tests, final]
    operands = [kind.operand(event) for event in events]
    branches = {}
    for event, op in zip(tests, operands):
        if id(event) not in branches:
            branches[id(event)] = np.stack([kind.complement_of(op), op])
    # Levels from ``stateful`` on draw with certified values alone.  Pairs
    # are certified from the last level back, up to the first that is not:
    # the levels before it build states either way.
    stateful, exact = n, {}
    while stateful > 0:
        pair = id(tests[stateful - 1]), id(events[stateful])
        if pair not in exact:
            exact[pair] = _exact_branches(kind, branches[pair[0]], operands[stateful])
        if exact[pair] is None:
            break
        stateful -= 1

    p_yes = kind.probabilities(stack, operands[0])
    # A level that counts nothing doubles the codes' range, not the realized
    # nodes.  The next level's codes stay below a chunk's length, so that no
    # count of a chunk is longer than the chunk however few prefixes a chain
    # realizes.  A chunk holds at most ``trials`` trials, and the codes of
    # level k + 1 < n are below 2**(k + 2) <= 2**n, so they stay below the
    # bound ``_node_id_type`` sizes the ids for as well.
    # The ids of a level range over ``nodes`` values and hold the ``fresh``
    # newest outcome bits, which ``paths`` does not yet.
    nodes, fresh = 1, 0
    for k, (event, after, read) in enumerate(zip(tests, operands[1:], events[1:])):
        counted = k < stateful or k == n - 1 or 4 * nodes > len(gathered)
        yes = _thresholds(p_yes)
        lo, hi = yes.min(), yes.max()
        # Fewer than one draw a chunk is expected in [lo, hi), where a
        # trial's outcome depends on its node.
        close = int(hi - lo) * len(gathered) < 2 ** 53
        if counted:
            counts = np.zeros(2 * nodes, dtype=np.int64)
        for ids in chunks:
            m = len(ids)
            draws = _draws(philox, m)
            decided = close
            if close:
                hit = np.less(draws, lo, out=outcome[:m])
                decided = lo == hi or np.count_nonzero(draws < hi) == np.count_nonzero(hit)
            if not decided:
                # A certified child's probability is its branch's: after a
                # level that counted nothing, it is read off the last bit.
                # Node ids are always in range; raise mode would buffer ``out``.
                hit = np.less(draws, yes.take(ids & 1 if fresh else ids, out=gathered[:m],
                                              mode="clip"), out=outcome[:m])
            del draws  # before the next chunk's draws: peak memory would hold both
            ids *= 2
            ids += hit
            if not counted:
                continue
            if nodes == 1:
                n_yes = np.count_nonzero(hit)
                counts += (m - n_yes, n_yes)
            else:
                counts += np.bincount(ids, minlength=len(counts))
        fresh += 1
        if not counted:
            nodes *= 2
            p_yes = exact[id(event), id(read)]
            continue
        realized = np.flatnonzero(counts)
        if k < n - 1 and len(realized) < len(counts):
            remap = np.zeros(len(counts), dtype=node_ids.dtype)
            remap[realized] = np.arange(len(realized))
            for ids in chunks:
                remap.take(ids, out=ids, mode="clip")
        # Codes keep prefix order: a code's high bits are its prefix's row.
        paths = paths[realized >> fresh]
        for j in range(fresh):
            paths[:, k - j] = realized >> j & 1
        nodes, fresh = len(realized), 0
        built = realized
        if k == n - 1:
            # Only the final draw reads a last-level state: the all-yes one.
            built = realized[-1:] if paths[-1].all() else realized[:0]
        if k < stateful:
            stack, p_yes = _condition_level(kind, stack, built, p_yes, branches[id(event)],
                                            after)
        else:
            p_yes = exact[id(event), id(read)][built % 2]

    all_yes_count = final_yes_count = 0
    if paths[-1].all():
        # Ids are codes after the last test; an int keeps the compare in their type.
        last = int(realized[-1])
        all_yes_count = int(counts[last])
        final_yes = _thresholds(p_yes)
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

    Run i, from ``initial_states[i]``, draws from the Philox stream keyed
    by ``(config.seed, i)`` and reports ``config.seed``, so no two runs of
    any checks share a stream.  Run 0 draws the stream of ``sample_chain``
    at ``config``.

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
            if k < len(tests) - 1:
                walking = condition(walking, ev, tol=0.0)
        results.append(sample_chain(state, tests, target, config, _stream=i))

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
