"""Measurement-chain sampler: determinism, statistics, state independence."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orthoprob.linalg
from orthoprob.errors import (AlgebraMismatch, EmptyChain,
                              ImpossibleSequence, NonUniqueConditioningWarning,
                              NotPredictable, ValidationError, ZeroEvent,
                              ZeroProbabilityCondition)
from orthoprob.events import (_BOOLEAN, _QUANTUM, BooleanAlgebra, QuantumAlgebra, complement,
                             verify_orthospace_axioms)
from orthoprob.linalg import random_unitary
from orthoprob.presets import half_transition_pair, order_dependence_example
from orthoprob import sampler
from orthoprob.sampler import (DEGENERATE_BRANCH, TAIL_LEVEL, ChainResult, SamplerConfig,
                               _condition_level, _draws, _tail_reaches, _thresholds,
                               sample_chain, state_independence_check)
from orthoprob.states import (ClassicalState, DensityState, atom_state, condition, condition_seq,
                              predictability, predictability_seq, prob)

from helpers import SEED_REFUSALS, random_density_state, random_projection


@pytest.fixture
def half_pair_chain():
    _, e, f = half_transition_pair()
    mixed = DensityState(np.eye(4, dtype=np.complex128) / 4.0)
    return mixed, e, f


class TestDeterminism:
    def test_same_seed_bit_identical(self, half_pair_chain):
        mixed, e, f = half_pair_chain
        cfg = SamplerConfig(seed=7, trials=20_000)
        a = sample_chain(mixed, [e], f, cfg)
        b = sample_chain(mixed, [e], f, cfg)
        assert a.outcome_counts == b.outcome_counts
        assert a.all_yes_count == b.all_yes_count
        assert a.final_event_yes_count == b.final_event_yes_count
        assert a.empirical_p == b.empirical_p
        assert a.std_error == b.std_error

    def test_different_seeds_differ(self, half_pair_chain):
        mixed, e, f = half_pair_chain
        a = sample_chain(mixed, [e], f, SamplerConfig(seed=1, trials=20_000))
        b = sample_chain(mixed, [e], f, SamplerConfig(seed=2, trials=20_000))
        assert a.outcome_counts != b.outcome_counts


class TestStatistics:
    def test_counts_partition_trials(self, half_pair_chain):
        mixed, e, f = half_pair_chain
        result = sample_chain(mixed, [e], f, SamplerConfig(trials=10_000))
        assert sum(result.outcome_counts.values()) == 10_000
        assert set(result.outcome_counts) <= {"0", "1"}
        assert result.all_yes_count == result.outcome_counts["1"]

    def test_half_pair_band(self, half_pair_chain):
        mixed, e, f = half_pair_chain
        result = sample_chain(mixed, [e], f, SamplerConfig(seed=42, trials=50_000))
        band = 4.0 * np.sqrt(0.25 / result.all_yes_count)
        assert abs(result.empirical_p - 0.5) <= band
        assert result.predicted_p == pytest.approx(0.5, abs=1e-12)

    def test_certain_chain_is_exact(self):
        alg = QuantumAlgebra(3)
        f = alg.event(np.diag([1.0, 1.0, 0.0]))
        initial = atom_state(alg.event_from_span([np.array([1.0, 1.0, 0.0])]))
        result = sample_chain(initial, [f], f, SamplerConfig(trials=5_000))
        assert result.outcome_counts == {"1": 5_000}
        assert result.empirical_p == 1.0
        assert result.std_error == 0.0
        assert result.predicted_p == 1.0

    def test_path_frequencies_match_analytic(self):
        # Forward order chain on C^3; every prefix probability is known.
        _, mixed, f1, f2, e = order_dependence_example()
        trials = 60_000
        result = sample_chain(mixed, [f1, f2], e,
                              SamplerConfig(seed=11, trials=trials))
        analytic = {"11": 1.0 / 6.0, "10": 1.0 / 6.0,
                    "01": 1.0 / 6.0, "00": 0.5}
        assert sum(result.outcome_counts.values()) == trials
        for pattern, p in analytic.items():
            observed = result.outcome_counts.get(pattern, 0)
            sigma = np.sqrt(trials * p * (1.0 - p))
            assert abs(observed - trials * p) <= 5.0 * sigma, pattern

    def test_order_dependent_chain_predictions(self):
        _, mixed, f1, f2, e = order_dependence_example()
        forward = sample_chain(mixed, [f1, f2], e,
                               SamplerConfig(seed=3, trials=30_000))
        reverse = sample_chain(mixed, [f2, f1], e,
                               SamplerConfig(seed=3, trials=30_000))
        assert forward.predicted_p == pytest.approx(0.5, abs=1e-12)
        assert reverse.predicted_p == pytest.approx(0.0, abs=1e-12)
        assert reverse.final_event_yes_count == 0

    def test_boolean_chain(self):
        alg = BooleanAlgebra(6)
        fair = ClassicalState(alg.space, np.full(6, 1.0 / 6.0))
        evens = alg.event([1, 3, 5])
        face = alg.event([1])
        result = sample_chain(fair, [evens], face,
                              SamplerConfig(seed=19, trials=40_000))
        # Not predictable (1/3 is neither 0 nor 1), so no certificate.
        assert result.predicted_p is None
        band = 5.0 * np.sqrt(result.empirical_p * (1 - result.empirical_p)
                             / result.all_yes_count)
        assert abs(result.empirical_p - 1.0 / 3.0) <= band

    def test_empirical_matches_conditional_for_state_dependent_chain(self):
        # The sampler's all-yes estimate tracks the analytic sequential
        # conditional even when no state-independent certificate exists.
        rng = np.random.default_rng(23)
        alg = QuantumAlgebra(3)
        plane = alg.event(np.diag([1.0, 1.0, 0.0]))
        tilted = alg.event_from_span([np.array([1.0, 1.0, 1.0])])
        state = random_density_state(3, rng)
        analytic = prob(condition_seq(state, [plane]), tilted)
        result = sample_chain(state, [plane], tilted,
                              SamplerConfig(seed=29, trials=50_000))
        band = 4.0 * max(np.sqrt(analytic * (1 - analytic)
                                 / result.all_yes_count), 1e-6)
        assert abs(result.empirical_p - analytic) <= band

    def test_empty_chain_rejected(self, half_pair_chain):
        mixed, _, f = half_pair_chain
        with pytest.raises(EmptyChain):
            sample_chain(mixed, [], f, SamplerConfig(trials=10))


def _peak_bytes_per_trial(initial, tests, final, trials):
    sample_chain(initial, tests, final, SamplerConfig(trials=1_000))
    tracemalloc.start()
    try:
        sample_chain(initial, tests, final, SamplerConfig(trials=trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / trials


def test_one_test_chain_memory_per_trial(half_pair_chain):
    # Per trial the sampler keeps one node id, a uint8 for up to 8 tests;
    # draws and outcomes live in chunk-sized buffers, so the rest is a
    # fixed working set.
    mixed, e, f = half_pair_chain
    assert _peak_bytes_per_trial(mixed, [e], f, 2_000_000) < 2


def test_six_test_chain_memory_per_trial(half_pair_chain):
    mixed, e, f = half_pair_chain
    assert _peak_bytes_per_trial(mixed, [e, f] * 3, e, 2_000_000) < 2


def test_twelve_test_chain_memory_per_trial(half_pair_chain):
    # A uint16 node id; the 8190 realized prefix states add about 1 byte.
    mixed, e, f = half_pair_chain
    assert _peak_bytes_per_trial(mixed, [e, f] * 6, e, 2_000_000) < 4


class TestConfig:
    def test_validation(self):
        cases = [
            ({"trials": 0}, "trials must be >= 1"),
            ({"trials": True}, "trials True is not an integer"),
            ({"trials": 10.0}, "trials 10.0 is not an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": 2 ** 64}, "seed must be < 18446744073709551616"),
            ({"seed": True}, "seed True is not an integer"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValidationError) as exc:
                SamplerConfig(**kwargs)
            assert str(exc.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda rho, e: sample_chain(rho, [e], e, 10),
         "config must be a SamplerConfig, got int"),
        (lambda rho, e: sample_chain(rho, iter([e]), e),
         "tests must be a sequence of events, got list_iterator"),
        (lambda rho, e: state_independence_check(e, [e], rho),
         "initial_states must be a sequence of states, got DensityState"),
        (lambda rho, e: state_independence_check(e, [e], iter([rho])),
         "initial_states must be a sequence of states, got list_iterator"),
        (lambda rho, e: state_independence_check(e, iter([e]), [rho]),
         "tests must be a sequence of events, got list_iterator"),
        (lambda rho, e: state_independence_check(e, [e], [rho], 10),
         "config must be a SamplerConfig, got int"),
        (lambda rho, e: state_independence_check(e, [e], []),
         "state_independence_check needs at least one initial state"),
    ], ids=["chain-config", "chain-tests", "bare-state", "state-iterator",
            "independence-tests", "independence-config", "no-initial-states"])
    def test_arguments_are_checked(self, half_pair_chain, call, message):
        mixed, e, _ = half_pair_chain
        with pytest.raises(ValidationError) as exc:
            call(mixed, e)
        assert str(exc.value) == message


class TestSeedContract:
    """Sampling and the axiom harness take one seed range, [0, 2**64), with
    one message per refusal; numpy integers are taken and stored as ints."""

    @pytest.mark.parametrize("seed, message", SEED_REFUSALS)
    def test_refused_alike(self, seed, message):
        for run in (lambda: SamplerConfig(seed=seed),
                    lambda: verify_orthospace_axioms(QuantumAlgebra(2), budget=1, seed=seed)):
            with pytest.raises(ValidationError) as exc:
                run()
            assert str(exc.value) == message

    def test_numpy_integers_stored_as_ints(self):
        config = SamplerConfig(seed=np.uint64(2 ** 63), trials=np.int64(10))
        assert (config.seed, config.trials) == (2 ** 63, 10)
        assert type(config.seed) is int and type(config.trials) is int
        report = verify_orthospace_axioms(QuantumAlgebra(2), budget=np.int64(1),
                                          seed=np.uint64(2 ** 63))
        assert (report.seed, report.rounds) == (2 ** 63, 1)
        assert type(report.seed) is int and type(report.rounds) is int


class TestStateIndependence:
    def test_half_pair_passes(self, half_pair_chain):
        mixed, e, f = half_pair_chain
        rng = np.random.default_rng(101)
        states = [mixed] + [random_density_state(4, rng) for _ in range(3)]
        report = state_independence_check(f, [e], states,
                                          SamplerConfig(seed=5, trials=30_000))
        assert report.passed
        assert report.predicted_p == pytest.approx(0.5, abs=1e-12)
        assert len(report.results) == 4
        assert all(abs(d) <= 4.0 for d in report.deviations)

    def test_certain_chain_zero_variance(self):
        alg = QuantumAlgebra(3)
        f = alg.event(np.diag([1.0, 1.0, 0.0]))
        inside = atom_state(alg.event_from_span([np.array([1.0, 2.0, 0.0])]))
        report = state_independence_check(f, [f], [inside],
                                          SamplerConfig(trials=2_000))
        assert report.passed
        assert report.results[0].std_error == 0.0

    def test_not_predictable_rejected(self):
        alg = QuantumAlgebra(3)
        plane = alg.event(np.diag([1.0, 1.0, 0.0]))
        tilted = alg.event_from_span([np.array([1.0, 1.0, 1.0])])
        mixed = DensityState(np.eye(3) / 3.0)
        with pytest.raises(NotPredictable):
            state_independence_check(tilted, [plane], [mixed])

    def test_empty_tests_rejected(self, half_pair_chain):
        # Refused before detection runs, which would name predictability_seq.
        mixed, _, f = half_pair_chain
        with pytest.raises(EmptyChain) as info:
            state_independence_check(f, [], [mixed])
        assert str(info.value) == "state_independence_check needs at least one test event"

    def test_run_without_all_yes_trials_fails(self):
        # The all-yes path has probability 3e-9, above the refusal bound of
        # 1e-9, but 1000 trials realize it with probability about 3e-6.
        alg = QuantumAlgebra(2)
        e, plus = alg.event(np.diag([1.0, 0.0])), alg.event_from_span([np.array([1.0, 1.0])])
        rare = DensityState(np.diag([3e-9, 1.0 - 3e-9]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueConditioningWarning)
            report = state_independence_check(plus, [e], [rare], SamplerConfig(trials=1_000))
        assert report.results[0].all_yes_count == 0
        assert not report.passed
        assert report.deviations == (math.inf,)

    @pytest.mark.parametrize("std_error", [0.03, 0.0])
    def test_run_too_far_from_the_prediction_fails(self, half_pair_chain, monkeypatch,
                                                   std_error):
        # No seeded run of a predictable chain strays this far, so the
        # sampler's result is replaced: 90 yes of 100 against 1/2.  The
        # verdict and the z-score are taken under the certified s, so the
        # run's own standard error is not read.
        mixed, e, f = half_pair_chain

        def stray(initial, tests, final, config, *, _stream):
            return ChainResult({"1": 100}, 100, 90, 0.9, std_error, 0.5, 100, config.seed)

        monkeypatch.setattr(sampler, "sample_chain", stray)
        report = state_independence_check(f, [e], [mixed], SamplerConfig(trials=100))
        assert not report.passed
        s = report.predicted_p
        assert report.deviations == (abs(0.9 - s) / math.sqrt(s * (1.0 - s) / 100),)

    def test_a_certain_value_needs_every_trial_to_agree(self, monkeypatch):
        # s is 1: one "no" among 100 all-yes trials fails the run.
        alg = QuantumAlgebra(3)
        f = alg.event(np.diag([1.0, 1.0, 0.0]))
        inside = atom_state(alg.event_from_span([np.array([1.0, 2.0, 0.0])]))

        def stray(initial, tests, final, config, *, _stream):
            return ChainResult({"1": 100}, 100, 99, 0.99, 0.00995, 1.0, 100, config.seed)

        monkeypatch.setattr(sampler, "sample_chain", stray)
        report = state_independence_check(f, [f], [inside], SamplerConfig(trials=100))
        assert report.predicted_p == 1.0
        assert not report.passed
        assert report.deviations == (math.inf,)

    @pytest.mark.parametrize("s, trials", [(1e-6, 10_000), (0.01, 100)])
    def test_a_value_near_zero_passes_on_every_seed(self, s, trials):
        # Under s, a run of n all-yes trials sees no final "yes" with
        # probability (1 - s)^n, and the sample's own standard error is
        # then 0: a rule on it failed most of these runs.  Every trial from
        # the test's atom state is all-yes; about a third from I/3.
        alg = QuantumAlgebra(3)
        target = alg.event_from_span([np.array([1.0, 0.0, 0.0])])
        test = alg.event_from_span([np.array([math.sqrt(s), math.sqrt(1.0 - s), 0.0])])
        initial = [DensityState(np.eye(3) / 3.0), atom_state(test)]
        for seed in range(200):
            report = state_independence_check(target, [test], initial,
                                              SamplerConfig(seed=seed, trials=trials))
            assert report.predicted_p == pytest.approx(s, rel=1e-9)
            assert report.passed, (seed, report.deviations)

    def test_the_walk_conditions_between_tests_only(self, monkeypatch):
        # The path walk reads a conditioned state only at the next test, so
        # it conditions len(tests) - 1 times per initial state.  The walk
        # only decides whether the check raises, so the report is pinned
        # digit for digit.  Boolean events, so no BLAS kernel moves one.
        alg = BooleanAlgebra(6)
        tests = [alg.event([0, 1, 2, 3]), alg.event([0, 1, 2, 4]), alg.event([0, 1, 5])]
        target = alg.event([0, 1, 3])
        uniform = ClassicalState(alg.space, np.full(6, 1.0 / 6.0))
        skewed = ClassicalState(alg.space, np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.1]))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return condition(*args, **kwargs)

        monkeypatch.setattr(sampler, "condition", counted)
        report = state_independence_check(target, tests, [uniform, skewed],
                                          SamplerConfig(seed=9, trials=200))
        assert len(calls) == 2 * (len(tests) - 1)
        assert repr(report) == (
            "StateIndependenceReport(predicted_p=1.0, results=(ChainResult(outcome_counts="
            "{'001': 43, '010': 33, '100': 32, '110': 26, '111': 66}, all_yes_count=66, "
            "final_event_yes_count=66, empirical_p=1.0, std_error=0.0, predicted_p=1.0, "
            "trials=200, seed=9), ChainResult(outcome_counts={'001': 19, '010': 35, "
            "'100': 20, '110': 62, '111': 64}, all_yes_count=64, final_event_yes_count=64, "
            "empirical_p=1.0, std_error=0.0, predicted_p=1.0, trials=200, seed=9)), "
            "deviations=(0.0, 0.0), passed=True)")
        # The last test's probability still enters the path product.
        outside = ClassicalState(alg.space, np.array([0.0, 0.0, 0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ZeroProbabilityCondition) as info:
            state_independence_check(target, tests, [uniform, outside])
        assert str(info.value) == ("initial state 1 gives the all-yes path probability "
                                   "0.0 <= 1e-09 by step 2")
        assert (info.value.index, info.value.probability) == (2, 0.0)

    def test_adjacent_seeds_draw_distinct_streams(self, half_pair_chain):
        # Run i draws from the stream keyed (seed, i), so run 1 at seed 0
        # and run 0 at seed 1 draw distinct streams from the same state.
        # Run 0 draws the stream of sample_chain at the same seed.
        mixed, e, f = half_pair_chain
        at = {seed: state_independence_check(f, [e], [mixed, mixed],
                                             SamplerConfig(seed=seed, trials=1_000))
              for seed in (0, 1)}
        assert at[0].results[1] != at[1].results[0]
        assert [r.seed for r in at[0].results] == [0, 0]
        assert at[1].results[0] == sample_chain(mixed, [e], f,
                                                SamplerConfig(seed=1, trials=1_000))

    def test_unreachable_state_rejected(self, half_pair_chain):
        mixed, e, f = half_pair_chain
        outside = atom_state(
            QuantumAlgebra(4).event_from_span([np.array([0.0, 0.0, 1.0, 0.0])]))
        with pytest.raises(ZeroProbabilityCondition) as info:
            state_independence_check(f, [e], [mixed, outside],
                                     SamplerConfig(trials=1_000))
        assert info.value.index == 0


@pytest.mark.parametrize("s", [1e-6, 0.01, 0.3, 0.5, 0.97])
def test_tail_verdict_matches_exact_sums(s):
    """The float tail's verdict equals that of the tail summed exactly, with
    math.comb and fractions, for every count of a few small n."""
    q = Fraction(s)
    for n in (1, 2, 7, 30, 81):
        pmf = [math.comb(n, j) * q ** j * (1 - q) ** (n - j) for j in range(n + 1)]
        for k in range(n + 1):
            tail = sum(pmf[k:]) if k >= n * s else sum(pmf[:k + 1])
            for level in (TAIL_LEVEL / 2, 0.01, 0.3):
                assert _tail_reaches(k, n, s, level) == (tail >= Fraction(level)), (n, k, level)


def test_at_one_half_every_run_the_wald_rule_accepts_passes():
    # The old rule, |k/n - 1/2| <= 4 sqrt(p(1 - p)/n) + 1e-12 with p = k/n,
    # accepts an interval of counts; its two ends reach the tail level.
    for n in range(20, 2001):
        k = np.arange(n + 1)
        p = k / n
        accepted = k[np.abs(p - 0.5) <= 4.0 * np.sqrt(p * (1.0 - p) / n) + 1e-12]
        for end in (int(accepted[0]), int(accepted[-1])):
            assert _tail_reaches(end, n, 0.5, TAIL_LEVEL / 2), (n, end)


def _effective(p):
    return 0.0 if p < DEGENERATE_BRANCH else 1.0 if p > 1.0 - DEGENERATE_BRANCH else p


def _per_node_chain(initial, tests, final, config):
    """Reference sampler: one state object per realized prefix, built by
    ``prob`` and ``condition(..., tol=0.0)``, with the uniforms of
    ``Generator.random`` on the stream of ``sample_chain``."""
    def effective(state, event):
        return _effective(prob(state, event))

    prob(initial, final)
    n, trials = len(tests), config.trials
    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
    node_states = [initial]
    node_ids = np.zeros(trials, dtype=np.int64)
    bits = np.empty((trials, n), dtype=bool)
    all_yes = np.ones(trials, dtype=bool)
    for k, event in enumerate(tests):
        p_yes = np.array([effective(s, event) for s in node_states])
        outcome = rng.random(trials) < p_yes[node_ids]
        bits[:, k] = outcome
        all_yes &= outcome
        combo = node_ids * 2 + outcome
        realized = np.unique(combo)
        remap = np.full(2 * len(node_states), -1, dtype=np.int64)
        comp = complement(event)
        next_states = []
        for c in realized:
            parent, bit = divmod(int(c), 2)
            next_states.append(condition(node_states[parent], event if bit else comp, tol=0.0))
            remap[c] = len(next_states) - 1
        node_ids = remap[combo]
        node_states = next_states
    final_draw = rng.random(trials)
    all_yes_count = int(all_yes.sum())
    final_yes_count = 0
    if all_yes_count:
        p_final = effective(node_states[int(node_ids[int(np.argmax(all_yes))])], final)
        final_yes_count = int((all_yes & (final_draw < p_final)).sum())
    rows, freq = np.unique(bits, axis=0, return_counts=True)
    counts = {"".join("1" if b else "0" for b in row): int(c) for row, c in zip(rows, freq)}
    empirical = final_yes_count / all_yes_count if all_yes_count else math.nan
    std_error = (math.sqrt(empirical * (1.0 - empirical) / all_yes_count)
                 if all_yes_count else math.nan)
    try:
        detection = predictability_seq(final, tests)
        predicted = detection.s if detection.predictable else None
    except (ImpossibleSequence, ZeroEvent):
        predicted = None
    return ChainResult(outcome_counts=counts, all_yes_count=all_yes_count,
                       final_event_yes_count=final_yes_count, empirical_p=empirical,
                       std_error=std_error, predicted_p=predicted, trials=trials,
                       seed=config.seed)


THRESHOLD_EDGES = [0.0, 2.0 ** -53, 1e-14, 0.5, 1.0 - 1e-14, 1.0 - 2.0 ** -53, 1.0]


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.sampled_from(THRESHOLD_EDGES), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 64 - 1), offset=st.integers(0, 9),
       m=st.integers(1, 40))
@example(p=0.5, seed=3, offset=1, m=7)
@example(p=1.0 - 2.0 ** -53, seed=3, offset=6, m=5)
def test_thresholds_decide_as_generator_random(p, seed, offset, m):
    # ``offset`` words drawn first: unless it is a multiple of 4, the chunk
    # starts partway through the four words Philox makes per counter.
    generator = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    philox = np.random.Philox(key=np.uint64(seed))
    generator.random(offset)
    _draws(philox, offset)
    uniforms = generator.random(m)
    words = _draws(philox, m)
    assert np.array_equal(uniforms, words * 2.0 ** -53)
    threshold = _thresholds(np.array([p]))
    assert np.array_equal(words < threshold, uniforms < _effective(p))
    # Draws next to a threshold are too rare to come up, so the rule is
    # checked there directly: k * 2**-53 < q exactly when k < ceil(q * 2**53),
    # for the sampler's threshold and for p itself.
    for q, c in ((_effective(p), int(threshold[0])), (p, math.ceil(p * 2 ** 53))):
        for k in range(max(0, c - 2), min(2 ** 53, c + 2)):
            assert (k * 2.0 ** -53 < q) == (k < c)


def _assert_same_result(got, want):
    # The JSON output lists outcomes in this order.
    assert list(got.outcome_counts) == sorted(got.outcome_counts)
    for field in dataclasses.fields(ChainResult):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


def _random_quantum_chain(dim, n_tests, rng):
    alg = QuantumAlgebra(dim)
    pool = [alg.event(random_projection(dim, int(rng.integers(1, dim + 1)), rng))
            for _ in range(3)]
    tests = [pool[int(rng.integers(0, 3))] for _ in range(n_tests)]
    final = alg.event(random_projection(dim, int(rng.integers(0, dim + 1)), rng))
    return random_density_state(dim, rng), tests, final


def _random_boolean_chain(size, n_tests, rng):
    alg = BooleanAlgebra(size)
    weights = rng.dirichlet(np.ones(size))
    weights[rng.random(size) < 0.2] = 0.0  # some outcomes are impossible
    if weights.sum() == 0.0:
        weights[0] = 1.0
    state = ClassicalState(alg.space, weights / weights.sum())

    def subset():
        return alg.event(np.flatnonzero(rng.random(size) < 0.5))

    return state, [subset() for _ in range(n_tests)], subset()


def _branch_operands(event):
    """The operands of the two branches a level conditions on, the
    complement's first, taken from the public complement event."""
    kind = event._kind
    return np.stack([kind.operand(complement(event)), kind.operand(event)])


def _random_level(algebra, rng, m=12):
    """m states, half of them conditioned (so of lower rank or support),
    and one event with a certain, an impossible or a random rank."""
    if isinstance(algebra, QuantumAlgebra):
        dim = algebra.dim

        def event(rank):
            return algebra.event(random_projection(dim, rank, rng))

        def state():
            return random_density_state(dim, rng)

        ranks = range(dim + 1)
    else:
        size = algebra.space.size

        def event(rank):
            return algebra.event(rng.permutation(size)[:rank])

        def state():
            return ClassicalState(algebra.space, rng.dirichlet(np.ones(size)))

        ranks = range(size + 1)
    states = []
    while len(states) < m:
        s, by = state(), event(int(rng.choice(ranks)))
        if len(states) % 2 and prob(s, by) > 0.0:
            s = condition(s, by, tol=0.0)
        states.append(s)
    return states, event(int(rng.choice(ranks)))


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
# Boolean levels call no BLAS, so only the quantum cases depend on the kernel.
@pytest.mark.parametrize("algebra", [pytest.param(QuantumAlgebra(d),
                                                  marks=pytest.mark.kernel_dependent)
                                     for d in (1, 2, 3, 4, 6, 16)]
                         + [BooleanAlgebra(n) for n in (1, 6, 24)], ids=repr)
def test_level_arithmetic_matches_per_node(algebra):
    # The sampler's results hinge on these bits only where a draw falls
    # between two roundings, so the level arithmetic is pinned directly.
    seed = algebra.dim if isinstance(algebra, QuantumAlgebra) else 100 + algebra.space.size
    rng, after_rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    for _ in range(20):
        states, event = _random_level(algebra, rng)
        _, after = _random_level(algebra, after_rng, m=0)
        stack = np.stack([s.matrix if isinstance(s, DensityState) else s.weights
                          for s in states])
        kind = event._kind
        p_yes = kind.probabilities(stack, kind.operand(event))
        assert np.array_equal(p_yes, [prob(s, event) for s in states])
        comp = complement(event)
        branches = [comp, event]
        realized = np.array([c for c in range(2 * len(states))
                             if prob(states[c // 2], branches[c % 2]) > 0.0])
        children, p_after = _condition_level(kind, stack, realized, p_yes,
                                             _branch_operands(event), kind.operand(after))
        for c, child, p in zip(realized, children, p_after):
            want = condition(states[c // 2], branches[c % 2], tol=0.0)
            assert np.array_equal(child, want.matrix if isinstance(want, DensityState)
                                  else want.weights)
            assert p == prob(want, after)


def test_level_zero_probability_branch_matches_condition(monkeypatch):
    alg = QuantumAlgebra(3)
    e = alg.event(np.diag([1.0, 0.0, 0.0]))
    inside = DensityState(np.diag([0.5, 0.5, 0.0]))
    outside = DensityState(np.diag([0.0, 0.5, 0.5]))
    stack = np.stack([inside.matrix, outside.matrix])
    with pytest.raises(ZeroProbabilityCondition) as want:
        condition(outside, e, tol=0.0)
    # Children 0, 1 and 3: both branches of the first state, "yes" of the second.
    built = []
    monkeypatch.setattr(_QUANTUM, "conditioned", lambda *args: built.append(args))
    with pytest.raises(ZeroProbabilityCondition) as got:
        _condition_level(_QUANTUM, stack, np.array([0, 1, 3]),
                         _QUANTUM.probabilities(stack, e.matrix), _branch_operands(e), e.matrix)
    assert str(got.value) == str(want.value)
    assert got.value.probability == want.value.probability == 0.0
    # The whole block's probabilities are checked before either half is built.
    assert built == []


def test_level_in_blocks_matches_condition(monkeypatch):
    alg = QuantumAlgebra(3)
    e = alg.event(np.diag([1.0, 0.0, 0.0]))
    inside = DensityState(np.diag([0.5, 0.5, 0.0]))
    outside = DensityState(np.diag([0.0, 0.5, 0.5]))
    states = [inside, outside, inside, outside]
    stack = np.stack([s.matrix for s in states])
    monkeypatch.setattr(orthoprob.linalg, "_CALL_BYTES", 2 * inside.matrix.nbytes)
    realized = np.array([0, 1, 2, 4, 5, 6])
    p_yes = _QUANTUM.probabilities(stack, e.matrix)
    children, _ = _condition_level(_QUANTUM, stack, realized, p_yes, _branch_operands(e),
                                   e.matrix)
    for c, child in zip(realized, children):
        want = condition(states[c // 2], e if c % 2 else complement(e), tol=0.0)
        assert np.array_equal(child, want.matrix)
    # Child 7, "yes" of the last state, is impossible; it sits in the last block.
    with pytest.raises(ZeroProbabilityCondition,
                       match=r"^conditioning event has probability 0\.0 <= 0\.0$"):
        _condition_level(_QUANTUM, stack, np.append(realized, 7), p_yes, _branch_operands(e),
                         e.matrix)


def _state_and_middle_event(algebra):
    """A full-support state and an event of probability strictly inside (0, 1)."""
    if isinstance(algebra, QuantumAlgebra):
        return (random_density_state(3, np.random.default_rng(5)),
                algebra.event(np.diag([1.0, 1.0, 0.0])))
    return (ClassicalState(algebra.space, np.full(6, 1.0 / 6.0)),
            algebra.event([0, 2, 4]))


def _certain_and_impossible_chains(one, zero, middle):
    # Certain tests make levels of one and of two nodes realize one child
    # each; an impossible test leaves no all-yes trial.  A certain or
    # impossible last test leaves a last level with or without its all-yes
    # node, the one node of that level whose state is built.
    return ([one, middle, one], [middle, one, middle],
            [middle, zero, middle], [zero, middle, middle],
            [middle, middle, one], [middle, middle, zero])


def _built_states(monkeypatch):
    """A list to which every stacked conditioning call, of either kind, adds
    the number of states it builds, from now to the end of the test."""
    built = []
    for kind in (_QUANTUM, _BOOLEAN):
        def conditioned(stack, *args, original=kind.conditioned):
            built.append(len(stack))
            return original(stack, *args)
        monkeypatch.setattr(kind, "conditioned", conditioned)
    return built


def _states_of_route(result, levels):
    """The states that the state route builds for ``result``'s chain in its
    first ``levels`` levels: one per realized prefix of length 1 to
    ``levels``, but at the last level only the all-yes one."""
    keys = list(result.outcome_counts)
    n = len(keys[0])
    count = sum(len({key[:j] for key in keys}) for j in range(1, min(levels, n - 1) + 1))
    return count + (levels == n and "1" * n in result.outcome_counts)


def _routed_chains(algebra):
    """Chains of ``algebra``, each with the number of levels, from the first,
    that build states: all up to the last whose pair, the test and the event
    read next, has a branch that is not certified at rounding level.

    Quantum chains use the half pair e, f of C^4, whose four branch pairs
    are certified at 1/2, a generic plane g, and e moved by 1e-12 of
    Hermitian noise, which ``predictability`` certifies at its default
    tolerance but the sampler must not.  Boolean chains on 6 points use
    t = {0, 1, 2}: a branch inside or disjoint from the event read next is
    certified, at 1 or 0, and t and its complement t' are both only when
    that event is t or t'.  A test ``one`` or ``zero`` has a branch of rank
    0, never certified; as the event read next, either certifies any test.
    """
    one, zero = algebra.one(), algebra.zero()
    if isinstance(algebra, QuantumAlgebra):
        _, e, f = half_transition_pair()
        rng = np.random.default_rng(21)
        g = algebra.event(random_projection(4, 2, rng))
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        near = algebra.event(e.matrix + 1e-12 * (noise + noise.conj().T))
        assert predictability(near, f).predictable
        initial = random_density_state(4, rng)
        return initial, [
            ([e, f, e, f], e, 0), ([e, f, e, f], g, 4), ([e, f, g, f, e, f], e, 3),
            ([e, f, e, f], near, 4), ([near, f, e], f, 1),
            ([one, e, f], e, 1), ([e, one, f], e, 2), ([e, f, zero], e, 3),
            ([e, zero, f], one, 2)]
    t, u, v = algebra.event([0, 1, 2]), algebra.event([0, 1]), algebra.event([3, 4])
    t_ = complement(t)
    initial = ClassicalState(algebra.space, np.arange(1.0, 7.0) / 21.0)
    return initial, [
        ([t, t, t_, t], t, 0), ([t, u, t, t_], t, 2), ([v, t, t, t], t_, 1),
        ([t, t, u], t, 3), ([u, t_], v, 2),
        ([one, t, t], t, 1), ([t, one, t_], t, 2), ([t, zero, t], t, 2), ([t, t], zero, 0)]


def _tilted_pair(dim):
    """Events e, f of C^dim, dim even: the rank-1 pair of C^2 with P(f | e)
    = 0.8, times the unit of C^(dim / 2).  Each certifies the other on both
    branches, at 0.8 on the yes branch and 0.2 on the no branch."""
    unit, v = np.eye(dim // 2), np.sqrt([0.8, 0.2])
    algebra = QuantumAlgebra(dim)
    return (algebra.event(np.kron(np.diag([1.0, 0.0]), unit)),
            algebra.event(np.kron(np.outer(v, v), unit)))


def _certified_chains(n_tests, rng):
    """Chains of ``n_tests`` tests, of both kinds, whose every pair, a test
    and the event read next, is certified on both branches, so that no
    level builds a state.  The first alternates the tilted pair of C^2,
    whose branches give the next test 0.8 and 0.2.  The others draw each
    test and the final event from an event x and its complement, whose
    branches lie inside or outside the next event, at 1 or 0: x the yes
    half of the tilted pair, three points of six, or a singleton of six.
    They realize at most two prefixes a level."""
    e, f = _tilted_pair(2)
    chains = [(random_density_state(2, rng), [(e, f)[k % 2] for k in range(n_tests)],
               (e, f)[n_tests % 2])]
    boolean = BooleanAlgebra(6)
    weights = ClassicalState(boolean.space, rng.dirichlet(np.ones(6)))
    for x, initial in ((e, random_density_state(2, rng)), (boolean.event([0, 1, 2]), weights),
                       (boolean.event([3]), weights)):
        drawn = [(x, complement(x))[i] for i in rng.integers(0, 2, n_tests + 1)]
        chains.append((initial, drawn[:-1], drawn[-1]))
    return chains


def _bincounts(monkeypatch):
    """A list to which every ``np.bincount`` call adds the type of the ids
    it counts and its ``minlength``, from now to the end of the test."""
    calls = []
    bincount = np.bincount

    def counted(ids, *args, **kwargs):
        calls.append((ids.dtype.type, kwargs.get("minlength")))
        return bincount(ids, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    return calls


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
class TestAgainstPerNodeReference:
    """Every ChainResult field equals the per-node route's, compared by repr."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 16])
    def test_quantum(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for n_tests in range(1, 13):
            chain = _random_quantum_chain(dim, n_tests, rng)
            config = SamplerConfig(seed=n_tests, trials=300)
            _assert_same_result(sample_chain(*chain, config), _per_node_chain(*chain, config))

    @pytest.mark.parametrize("size", [1, 6, 24])
    def test_boolean(self, size):
        rng = np.random.default_rng(2000 + size)
        for n_tests in range(1, 13):
            chain = _random_boolean_chain(size, n_tests, rng)
            config = SamplerConfig(seed=n_tests, trials=300)
            _assert_same_result(sample_chain(*chain, config), _per_node_chain(*chain, config))

    @pytest.mark.parametrize("algebra", [QuantumAlgebra(3), BooleanAlgebra(6)])
    def test_certain_and_impossible_branches(self, algebra):
        one, zero = algebra.one(), algebra.zero()
        initial, middle = _state_and_middle_event(algebra)
        config = SamplerConfig(seed=3, trials=500)
        for tests in _certain_and_impossible_chains(one, zero, middle):
            got = sample_chain(initial, tests, middle, config)
            _assert_same_result(got, _per_node_chain(initial, tests, middle, config))
            for k, event in enumerate(tests):
                if event is one or event is zero:
                    assert {key[k] for key in got.outcome_counts} == \
                        {"1" if event is one else "0"}
            if any(event is zero for event in tests):
                assert got.all_yes_count == got.final_event_yes_count == 0
                assert math.isnan(got.empirical_p) and math.isnan(got.std_error)
            else:
                assert got.all_yes_count > 0

    @pytest.mark.parametrize("algebra", [QuantumAlgebra(4), BooleanAlgebra(6)], ids=repr)
    def test_states_stop_at_the_last_uncertified_level(self, algebra, monkeypatch):
        initial, chains = _routed_chains(algebra)
        built, certified = _built_states(monkeypatch), []
        exact_branches = sampler._exact_branches
        monkeypatch.setattr(sampler, "_exact_branches",
                            lambda *args: certified.append(1) or exact_branches(*args))
        for seed, (tests, final, levels) in enumerate(chains):
            config = SamplerConfig(seed=seed, trials=600)
            want = _per_node_chain(initial, tests, final, config)
            del built[:], certified[:]
            got = sample_chain(initial, tests, final, config)
            _assert_same_result(got, want)
            assert sum(built) == _states_of_route(got, levels), (seed, levels)
            # Pairs are certified from the last level back to the last level
            # whose pair is not certified, each distinct pair once.
            events = [*tests, final]
            assert len(certified) == len({(id(tests[k]), id(events[k + 1]))
                                          for k in range(max(levels - 1, 0), len(tests))})
            # The state route, taken when the certifier refuses, builds every
            # level's states.
            del built[:]
            with monkeypatch.context() as patch:
                patch.setattr(sampler, "_exact_branches", lambda *args: None)
                _assert_same_result(sample_chain(initial, tests, final, config), want)
            assert sum(built) == _states_of_route(got, len(tests))

    @pytest.mark.parametrize("states_per_block", [1, 3])
    def test_levels_split_into_blocks(self, states_per_block, monkeypatch):
        rng = np.random.default_rng(77)
        chains = [_random_quantum_chain(3, 6, rng), _random_boolean_chain(6, 6, rng)]
        built, sizes = _built_states(monkeypatch), []
        for chain in chains:
            config = SamplerConfig(seed=4, trials=400)
            want = _per_node_chain(*chain, config)
            del built[:]
            with monkeypatch.context() as patch:
                patch.setattr(orthoprob.linalg, "_CALL_BYTES",
                              states_per_block * chain[0].matrix.nbytes
                              if isinstance(chain[0], DensityState)
                              else states_per_block * chain[0].weights.nbytes)
                _assert_same_result(sample_chain(*chain, config), want)
            sizes += built
        assert max(sizes) == states_per_block

    @pytest.mark.parametrize("n_tests", [62, 63, 64])
    def test_wide_chain(self, n_tests):
        rng = np.random.default_rng(n_tests)
        for chain in (_random_quantum_chain(2, n_tests, rng),
                      _random_boolean_chain(6, n_tests, rng)):
            config = SamplerConfig(seed=8, trials=300)
            got = sample_chain(*chain, config)
            assert all(len(key) == n_tests for key in got.outcome_counts)
            _assert_same_result(got, _per_node_chain(*chain, config))

    @pytest.mark.parametrize("trials", [1, 2])
    def test_one_and_two_trials(self, trials):
        rng = np.random.default_rng(10 + trials)
        for n_tests in range(1, 9):
            for chain in (_random_quantum_chain(3, n_tests, rng),
                          _random_boolean_chain(6, n_tests, rng)):
                config = SamplerConfig(seed=n_tests, trials=trials)
                _assert_same_result(sample_chain(*chain, config),
                                    _per_node_chain(*chain, config))

    def test_every_child_realized(self, half_pair_chain):
        # Each test halves every prefix state, so with many trials per leaf
        # every level realizes all of its children.
        mixed, e, f = half_pair_chain
        tests = [e, f, e, f, e]
        config = SamplerConfig(seed=12, trials=5_000)
        got = sample_chain(mixed, tests, f, config)
        assert len(got.outcome_counts) == 2 ** len(tests)
        _assert_same_result(got, _per_node_chain(mixed, tests, f, config))

    @pytest.mark.parametrize("trials, n_tests", [
        (7, 12), (100, 12), (1000, 12), (128, 12), (129, 12), (2 ** 15, 17), (2 ** 15 + 1, 17)])
    def test_certified_levels_count_where_codes_would_pass_a_chunk(
            self, trials, n_tests, monkeypatch):
        # A certified level that counts nothing leaves its children's codes,
        # which double each level, until the next level's codes would pass
        # a chunk's length, min(trials, 2**15): that level counts and
        # renumbers its nodes, with a bincount of each chunk, before the
        # last.  The ids' type widens past 128 trials of 12 tests and past
        # 2**15 of 17.  The tilted pair's chain realizes up to 2**15 prefixes
        # a level at 2**15 trials, too many for the per-node route's states.
        chains = _certified_chains(n_tests, np.random.default_rng(trials))
        if trials >= 2 ** 15:
            chains = chains[1:]
        calls = _bincounts(monkeypatch)
        chunks = len(orthoprob.linalg._slices(trials, 8))
        for seed, chain in enumerate(chains):
            config = SamplerConfig(seed=seed, trials=trials)
            want = _per_node_chain(*chain, config)
            del calls[:]
            _assert_same_result(sample_chain(*chain, config), want)
            assert len(calls) > chunks
            assert {dtype for dtype, _ in calls} == {sampler._node_id_type(trials, n_tests)}

    @pytest.mark.parametrize("kind", ["quantum", "boolean"])
    def test_repeated_test_counts_no_chunk_into_a_longer_array(self, kind, monkeypatch):
        # A test repeated 20 times realizes two prefixes a level, all yes
        # and all no, at codes up to 2**20.  The level whose next codes
        # would pass a chunk, 2**15 draws, counts them: every bincount is at
        # most a chunk long, though the ids' bound, 2 * 2**16, is longer.
        if kind == "quantum":
            e, f = _tilted_pair(2)
            initial = random_density_state(2, np.random.default_rng(20))
        else:
            algebra = BooleanAlgebra(6)
            e = algebra.event([0, 1, 2])
            f = complement(e)
            initial = ClassicalState(algebra.space, np.full(6, 1 / 6))
        config = SamplerConfig(seed=20, trials=2 ** 16)
        want = _per_node_chain(initial, [e] * 20, f, config)
        calls = _bincounts(monkeypatch)
        got = sample_chain(initial, [e] * 20, f, config)
        _assert_same_result(got, want)
        assert len(got.outcome_counts) == 2
        chunk = orthoprob.linalg._CALL_BYTES // 8
        assert calls and max(length for _, length in calls) <= chunk < 2 ** 20

    def test_uncounted_levels_gather_by_the_last_bit(self, monkeypatch):
        # Every pair of these chains gives its branches two values, 0.8 and
        # 0.2 or 0 and 1, so draws between them are gathered per trial.  At
        # 8 tests the codes stay below a chunk's length, 3000, and only the
        # last level counts: every other level reads a threshold off the last bit
        # of a code.
        gathered = _gathers(monkeypatch)
        calls = _bincounts(monkeypatch)
        for seed, chain in enumerate(_certified_chains(8, np.random.default_rng(9))):
            config = SamplerConfig(seed=seed, trials=3_000)
            want = _per_node_chain(*chain, config)
            del calls[:], gathered[:]
            _assert_same_result(sample_chain(*chain, config), want)
            assert len(calls) == 1 and gathered

    @pytest.mark.parametrize("algebra", [QuantumAlgebra(4), BooleanAlgebra(6)], ids=repr)
    def test_states_then_uncounted_certified_levels(self, algebra, monkeypatch):
        # Two tests whose pairs are not certified build the states of four
        # prefixes; four certified levels follow, of which the first gathers
        # its thresholds by node and the next two by the last bit, counting
        # nothing, until the last level counts.
        rng = np.random.default_rng(31)
        if isinstance(algebra, QuantumAlgebra):
            x, y = _tilted_pair(4)
            u, w = (algebra.event(random_projection(4, 2, rng)) for _ in range(2))
            initial = random_density_state(4, rng)
        else:
            x, y = algebra.event([0, 1, 2]), algebra.event([3, 4, 5])
            u, w = algebra.event([0, 1, 3]), algebra.event([1, 2, 4])
            initial = ClassicalState(algebra.space, rng.dirichlet(np.ones(6)))
        tests = [u, w, x, y, x, y]
        config = SamplerConfig(seed=2, trials=2_000)
        want = _per_node_chain(initial, tests, x, config)
        built, calls = _built_states(monkeypatch), _bincounts(monkeypatch)
        got = sample_chain(initial, tests, x, config)
        _assert_same_result(got, want)
        assert len({key[:2] for key in got.outcome_counts}) == 4
        assert sum(built) == _states_of_route(got, 2)
        assert [length for _, length in calls] == [4, 2 ** 6]


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("chunk", [16, orthoprob.linalg._CALL_BYTES // 8])
@pytest.mark.parametrize("multiple, offset", [(1, -1), (1, 0), (1, 1), (3, 1)],
                         ids=["w-1", "w", "w+1", "3w+1"])
def test_trial_chunk_boundaries_match_per_node(chunk, multiple, offset, monkeypatch):
    # Trials are drawn, counted and remapped _CALL_BYTES // 8 at a
    # time; trial counts on either side of a chunk edge must not move a bit.
    monkeypatch.setattr(orthoprob.linalg, "_CALL_BYTES", 8 * chunk)
    trials = multiple * chunk + offset
    rng = np.random.default_rng(trials)
    chains = [_random_quantum_chain(3, 5, rng), _random_boolean_chain(6, 5, rng)]
    for algebra in (QuantumAlgebra(3), BooleanAlgebra(6)):
        initial, middle = _state_and_middle_event(algebra)
        chains += [(initial, tests, middle) for tests in _certain_and_impossible_chains(
            algebra.one(), algebra.zero(), middle)]
    without_all_yes = 0
    for seed, chain in enumerate(chains):
        config = SamplerConfig(seed=seed, trials=trials)
        got = sample_chain(*chain, config)
        _assert_same_result(got, _per_node_chain(*chain, config))
        without_all_yes += got.all_yes_count == 0
    # The impossible tests of both algebras leave no all-yes trial.
    assert without_all_yes >= 4


def _gathers(monkeypatch):
    """A list to which every chunk of a level that compares its draws with
    thresholds gathered per trial adds its length, from now to the end of
    the test."""
    gathered = []

    class Counted(np.ndarray):
        def take(self, indices, *args, **kwargs):
            gathered.append(len(indices))
            return np.asarray(self).take(indices, *args, **kwargs)

    thresholds = sampler._thresholds
    monkeypatch.setattr(sampler, "_thresholds", lambda p: thresholds(p).view(Counted))
    return gathered


@pytest.mark.parametrize("algebra", [QuantumAlgebra(4), BooleanAlgebra(6)], ids=repr)
def test_uniform_levels_compare_with_one_threshold(algebra, monkeypatch):
    # No level of these chains has a draw between its lowest and highest
    # threshold: a one-node level, a certified level of two branches of one
    # value, a level whose states all give the next event 1, and the half
    # pair turned by a unitary, certified at values an ulp apart.  The
    # draws are compared with the lowest threshold, never gathered per
    # trial, and the counts keep the bits of the per-node route.
    one, zero = algebra.one(), algebra.zero()
    if isinstance(algebra, QuantumAlgebra):
        _, e, f = half_transition_pair()
        rng = np.random.default_rng(8)
        u = random_unitary(4, rng)
        e2, f2 = (algebra.event(u @ x.matrix @ u.conj().T) for x in (e, f))
        initial = random_density_state(4, rng)
        chains = [([e, f, e, f], e), ([one, one, e], f), ([e, one, one], f),
                  ([e2, f2, e2, f2, e2], f2)]
    else:
        t = algebra.event([0, 1, 2])
        initial = ClassicalState(algebra.space, np.full(6, 1.0 / 6.0))
        chains = [([t, one, one], t), ([t, zero], t), ([one, t], t)]
    gathered = _gathers(monkeypatch)
    for seed, (tests, final) in enumerate(chains):
        config = SamplerConfig(seed=seed, trials=700)
        want = _per_node_chain(initial, tests, final, config)
        got = sample_chain(initial, tests, final, config)
        _assert_same_result(got, want)
        assert got.all_yes_count > 0 or tests[-1] is zero
    assert gathered == []


@pytest.mark.parametrize("algebra", [QuantumAlgebra(4), BooleanAlgebra(4)], ids=repr)
def test_close_thresholds_gather_only_chunks_with_a_draw_between(algebra, monkeypatch):
    # After the first test the two nodes give the second 0.5 and 0.52.  In
    # chunks of 16 trials fewer than one draw a chunk is expected between
    # the two thresholds, so a chunk is compared with the lower one and
    # gathered per trial only when a draw falls between them.
    monkeypatch.setattr(orthoprob.linalg, "_CALL_BYTES", 8 * 16)
    weights = np.array([0.25, 0.25, 0.26, 0.24])
    if isinstance(algebra, QuantumAlgebra):
        initial = DensityState(np.diag(weights))
        first, second = (algebra.event(np.diag(row)) for row in ([1.0, 1, 0, 0], [1.0, 0, 1, 0]))
    else:
        initial = ClassicalState(algebra.space, weights)
        first, second = algebra.event([0, 1]), algebra.event([0, 2])
    config = SamplerConfig(seed=6, trials=800)
    want = _per_node_chain(initial, [first, second], first, config)
    gathered = _gathers(monkeypatch)
    _assert_same_result(sample_chain(initial, [first, second], first, config), want)
    assert 0 < len(gathered) < 800 // 16 and set(gathered) == {16}


def _bit_chain(n_tests):
    """A uniform state on 2**n_tests outcomes and the tests "bit j is set",
    j < n_tests: every outcome prefix has probability 2**-length, so with
    enough trials every level realizes all of its children."""
    size = 2 ** n_tests
    alg = BooleanAlgebra(size)
    tests = [alg.event(np.flatnonzero(np.arange(size) >> j & 1)) for j in range(n_tests)]
    return ClassicalState(alg.space, np.full(size, 1.0 / size)), tests, tests[0]


class TestNodeIdTypeEdges:
    """Node ids take the narrowest type that holds ``2 * min(trials,
    2**(n - 1)) - 1``.  Chains on either side of a type's edge agree with
    the per-node route, on Boolean algebras, which no BLAS kernel affects."""

    @pytest.mark.parametrize("trials, n_tests, dtype", [
        (1, 1, np.uint8), (10 ** 12, 8, np.uint8), (10 ** 12, 9, np.uint16),
        (128, 64, np.uint8), (129, 64, np.uint16),
        (10 ** 12, 16, np.uint16), (10 ** 12, 17, np.uint32),
        (2 ** 15, 64, np.uint16), (2 ** 15 + 1, 64, np.uint32),
        (10 ** 12, 32, np.uint32), (10 ** 12, 33, np.int64),
        (2 ** 31, 64, np.uint32), (2 ** 31 + 1, 64, np.int64),
    ])
    def test_type_rule(self, trials, n_tests, dtype):
        assert sampler._node_id_type(trials, n_tests) is dtype

    def _run(self, chain, config, monkeypatch):
        types = []

        def recording(trials, n):
            types.append(original(trials, n))
            return types[-1]

        original = sampler._node_id_type
        monkeypatch.setattr(sampler, "_node_id_type", recording)
        got = sample_chain(*chain, config)
        _assert_same_result(got, _per_node_chain(*chain, config))
        return got, types

    @pytest.mark.parametrize("n_tests, dtype", [(8, np.uint8), (9, np.uint16)])
    def test_depth_edge(self, n_tests, dtype, monkeypatch):
        # Every prefix is realized, so the last level's ids run up to
        # 2**n_tests - 1: 255 fills a uint8 and 511 needs a uint16.
        got, types = self._run(_bit_chain(n_tests), SamplerConfig(seed=n_tests, trials=20_000),
                               monkeypatch)
        assert types == [dtype]
        assert len(got.outcome_counts) == 2 ** n_tests

    @pytest.mark.parametrize("trials, dtype", [(128, np.uint8), (129, np.uint16)])
    def test_trial_count_edge(self, trials, dtype, monkeypatch):
        # Nearly every trial has a prefix of its own, so the last level's
        # ids come near 2 * trials.
        got, types = self._run(_bit_chain(12), SamplerConfig(seed=trials, trials=trials),
                               monkeypatch)
        assert types == [dtype]
        assert len(got.outcome_counts) > 0.9 * trials


def test_deep_chain_builds_two_complements_and_never_reaches_eigvalsh(monkeypatch):
    # The shape of the chain_deep benchmark: 12 alternating tests on C^4
    # realizing all 8190 prefix nodes.  Its two distinct pairs, (e, f) and
    # (f, e) (the final event is e), are certified at rounding level, so the
    # chain builds no state: every level draws with the certified 1/2.  The
    # state route, which the chain takes when the certifier refuses, builds
    # the states of levels 1 to 11, 2 + 4 + ... + 2048, and the last level's
    # all-yes node, 4095 states, each passed by the Cholesky pre-check, and
    # gives the same result.  Each distinct test is complemented once per
    # chain, not once per level.
    _, e, f = half_transition_pair()
    initial = random_density_state(4, np.random.default_rng(5))
    tests = [e if k % 2 == 0 else f for k in range(12)]
    complements, certified = [], []

    def counted(operand):
        complements.append(operand)
        return complement_of(operand)

    def certifying(*args):
        certified.append(exact_branches(*args))
        return certified[-1]

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh was reached")

    complement_of, exact_branches = _QUANTUM.complement_of, sampler._exact_branches
    monkeypatch.setattr(_QUANTUM, "complement_of", counted)
    monkeypatch.setattr(sampler, "_exact_branches", certifying)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    built = _built_states(monkeypatch)
    for seed in (1, 5, 7, 11, 302):
        config = SamplerConfig(seed=seed, trials=120_000)
        del complements[:], certified[:], built[:]
        got = sample_chain(initial, tests, e, config)
        assert len(got.outcome_counts) == 2 ** 12
        assert len(complements) == 2 and all(map(np.array_equal, complements,
                                                 (e.matrix, f.matrix)))
        assert len(certified) == 2 and all(np.array_equal(s, [0.5, 0.5]) for s in certified)
        assert built == []
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_exact_branches", lambda *args: None)
            want = sample_chain(initial, tests, e, config)
        assert sum(built) == 4095
        assert repr(got) == repr(want)


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
def test_certified_chain_counts_its_nodes_in_the_last_level_only(monkeypatch):
    # 12 certified tests at 120,000 trials: no level's codes reach 2**12,
    # far below a chunk, 2**15 draws, and every level but the last appends
    # its bit to the ids and counts nothing.  The last level counts each chunk
    # once, on ids of the type ``_node_id_type`` gives.
    e, f = _tilted_pair(2)
    initial = random_density_state(2, np.random.default_rng(12))
    tests = [(e, f)[k % 2] for k in range(12)]
    config = SamplerConfig(seed=4, trials=120_000)
    want = _per_node_chain(initial, tests, e, config)
    calls = _bincounts(monkeypatch)
    got = sample_chain(initial, tests, e, config)
    _assert_same_result(got, want)
    chunks = len(orthoprob.linalg._slices(config.trials, 8))
    assert calls == [(sampler._node_id_type(config.trials, 12), 2 ** 12)] * chunks


class TestChainContract:
    @pytest.mark.parametrize("fields, message", [
        (dict(outcome_counts={"1": 3, "0": 2}), "outcome counts sum to 5, expected 6"),
        (dict(empirical_p=0.5), "empirical_p inconsistent with counts"),
    ], ids=["counts-not-trials", "empirical-p"])
    def test_inconsistent_result_is_refused(self, fields, message):
        valid = dict(outcome_counts={"1": 4, "0": 2}, all_yes_count=4,
                     final_event_yes_count=1, empirical_p=0.25, std_error=0.2,
                     predicted_p=None, trials=6, seed=0)
        ChainResult(**valid)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ChainResult(**{**valid, **fields})

    @pytest.mark.parametrize("initial, bad, message", [
        (DensityState(np.eye(4) / 4.0), QuantumAlgebra(3).one(),
         "state dimension 4 != event dimension 3"),
        (DensityState(np.eye(4) / 4.0), BooleanAlgebra(4).one(),
         "cannot pair DensityState with BooleanEvent"),
        (ClassicalState(BooleanAlgebra(4).space, np.full(4, 0.25)),
         BooleanAlgebra(5).one(), "state and event live on different sample spaces"),
    ])
    def test_mismatched_test_rejected_before_any_draw(self, initial, bad, message,
                                                      monkeypatch):
        good = (QuantumAlgebra(4) if isinstance(initial, DensityState)
                else BooleanAlgebra(initial.space.size)).one()

        def no_draws(*args, **kwargs):
            raise AssertionError("the sampler drew before checking its events")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(AlgebraMismatch, match=message):
            sample_chain(initial, [good, good, bad], good, SamplerConfig(trials=10))

    def test_dim2_chain_warns_once(self):
        alg = QuantumAlgebra(2)
        e = alg.event_from_span([np.array([1.0, 0.0])])
        f = alg.event_from_span([np.array([1.0, 1.0])])
        mixed = DensityState(np.eye(2) / 2.0)
        with pytest.warns(NonUniqueConditioningWarning) as record:
            sample_chain(mixed, [e, f, e, f], f, SamplerConfig(trials=1_000))
        assert len([w for w in record
                    if issubclass(w.category, NonUniqueConditioningWarning)]) == 1

    def test_dim3_chain_does_not_warn(self):
        _, mixed, f1, f2, e = order_dependence_example()
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonUniqueConditioningWarning)
            sample_chain(mixed, [f1, f2], e, SamplerConfig(trials=1_000))
