"""State layer tests: probabilities, conditioning, predictability,
compatibility, atoms, tabular states, and the qubit demonstration."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoprob.errors import (AlgebraMismatch, EmptyInput, ImpossibleSequence,
                              NonUniqueConditioningWarning, NotAtom,
                              ValidationError, ZeroEvent,
                              ZeroProbabilityCondition)
from orthoprob.events import (BooleanAlgebra, QuantumAlgebra, below,
                              complement, oplus)
from orthoprob.linalg import (StateVector, _symmetrized, jordan_product, quadratic_triple,
                              random_projection)
from orthoprob.presets import half_transition_pair, order_dependence_example
from orthoprob.states import (ClassicalState, DensityState, TableState,
                              _check_density_stack, _check_states, _check_weight_rows,
                              atom_state, atom_symmetry_check,
                              compatibility_residuals, compatible, condition,
                              condition_seq, conditioning_contract_violations,
                              is_dispersion_free, predictability,
                              predictability_seq, prob,
                              qubit_nonuniqueness_demo, random_density_state,
                              rank_one_transition)


@pytest.fixture
def die():
    return BooleanAlgebra(6)


@pytest.fixture
def fair(die):
    return ClassicalState(die.space, np.full(6, 1.0 / 6.0))


def diag_event(alg, pattern):
    return alg.event(np.diag(np.array(pattern, dtype=np.complex128)))


class TestStateConstruction:
    def test_classical_needs_unit_mass(self, die):
        with pytest.raises(ValidationError):
            ClassicalState(die.space, np.full(6, 0.15))

    def test_classical_rejects_negative(self, die):
        w = np.array([0.5, 0.6, -0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            ClassicalState(die.space, w)

    def test_density_needs_unit_trace(self):
        with pytest.raises(ValidationError):
            DensityState(np.eye(4) / 3.0)

    def test_density_needs_psd(self):
        with pytest.raises(ValidationError):
            DensityState(np.diag([1.5, -0.5]))

    def test_pure_state_accepted(self):
        rho = DensityState(np.outer([1.0, 0.0], [1.0, 0.0]))
        assert rho.dim == 2

    @pytest.mark.parametrize("weights, message", [
        ([0.15] * 6, "weights sum to 0.9, not 1 within 1e-12"),
        ([0.5, 0.6, -0.1, 0.0, 0.0, 0.0],
         "weights must be nonnegative, min = -0.1"),
        ([np.nan, 1.0, 0.0, 0.0, 0.0, 0.0], "weights must be finite"),
    ])
    def test_classical_messages(self, die, weights, message):
        with pytest.raises(ValidationError) as exc:
            ClassicalState(die.space, weights)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rho, message", [
        (np.eye(4) / 3.0, "density matrix trace 1.3333333333333333 is not 1 within 1e-10"),
        (np.diag([1.5, -0.5]), "density matrix has eigenvalue -5.000e-01 below -1e-10"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    ])
    def test_density_messages(self, rho, message):
        with pytest.raises(ValidationError) as exc:
            DensityState(rho)
        assert str(exc.value) == message

    @pytest.mark.parametrize("check, stack, message", [
        (_check_weight_rows, [[0.5, 0.5], [0.2, 0.2], [0.1, 0.1]],
         "weights sum to 0.4, not 1 within 1e-12"),
        (_check_weight_rows, [[0.5, 0.5], [1.5, -0.5], [2.0, -1.0]],
         "weights must be nonnegative, min = -0.5"),
        (_check_density_stack, [np.eye(2) / 2.0, np.eye(2) / 3.0, np.eye(2) / 4.0],
         "density matrix trace 0.6666666666666666 is not 1 within 1e-10"),
        (_check_density_stack, [np.eye(2) / 2.0, np.diag([1.2, -0.2]), np.diag([1.5, -0.5])],
         "density matrix has eigenvalue -2.000e-01 below -1e-10"),
    ])
    def test_stack_checks_report_first_offender(self, check, stack, message):
        with pytest.raises(ValidationError) as exc:
            check(np.array(stack, dtype=np.complex128 if check is _check_density_stack
                           else np.float64))
        assert str(exc.value) == message

    @pytest.mark.parametrize("stack, message", [
        (np.array([np.eye(2) / 2.0, [[np.nan, 0.0], [0.0, 1.0]]], dtype=np.complex128),
         "matrix entries must be finite"),
        (np.array([[0.5, 0.5], [np.inf, 0.0]]), "weights must be finite"),
        (np.array([np.eye(2) / 2.0, np.diag([1.5, -0.5])], dtype=np.complex128),
         "density matrix has eigenvalue -5.000e-01 below -1e-10"),
    ])
    def test_state_stack_check(self, stack, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _check_states(stack)


class TestProb:
    def test_die_faces(self, die, fair):
        assert prob(fair, die.event([0, 1])) == pytest.approx(1.0 / 3.0)
        assert prob(fair, die.zero()) == 0.0
        assert prob(fair, die.one()) == pytest.approx(1.0)

    def test_mixed_state_rank_share(self):
        _, e, f = half_transition_pair()
        mixed = DensityState(np.eye(4, dtype=np.complex128) / 4.0)
        assert prob(mixed, e) == pytest.approx(0.5)
        assert prob(mixed, f) == pytest.approx(0.5)

    def test_kind_mismatch(self, die, fair):
        with pytest.raises(AlgebraMismatch):
            prob(fair, QuantumAlgebra(6).zero())


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 16])
def test_one_state_stack_keeps_the_matrix_arithmetic(dim):
    # prob and condition run the stacked routines on a one-state stack;
    # their bits must stay those of the plain matrix formulas.
    rng = np.random.default_rng(dim)
    alg = QuantumAlgebra(dim)
    for _ in range(30):
        rho = random_density_state(dim, rng)
        e = alg.event(random_projection(dim, int(rng.integers(1, dim + 1)), rng))
        p = float(np.trace(rho.matrix @ e.matrix).real)
        assert prob(rho, e) == (0.0 if -1e-12 <= p < 0.0 else 1.0 if 1.0 < p <= 1.0 + 1e-12
                                else p)
        compressed = _symmetrized(e.matrix @ rho.matrix @ e.matrix)
        assert np.array_equal(condition(rho, e, tol=0.0).matrix,
                              compressed / compressed.trace().real)


@pytest.mark.parametrize("size", [1, 6, 24, 200])
def test_one_row_stack_keeps_the_weight_arithmetic(size):
    rng = np.random.default_rng(size)
    alg = BooleanAlgebra(size)
    for _ in range(30):
        w = rng.dirichlet(np.ones(size))
        state = ClassicalState(alg.space, w)
        members = sorted(np.flatnonzero(rng.random(size) < 0.5).tolist())
        p = float(w[members].sum()) if members else 0.0
        p = 1.0 if 1.0 < p <= 1.0 + 1e-12 else p
        assert prob(state, alg.event(members)) == p
        if p > 0.0:
            mask = np.zeros(size)
            mask[members] = 1.0
            assert np.array_equal(condition(state, alg.event(members), tol=0.0).weights,
                                  w * mask / p)


class TestConditioning:
    def test_boolean_rule(self, die):
        weighted = ClassicalState(die.space,
                                  np.array([0.5, 0.25, 0.25, 0.0, 0.0, 0.0]))
        nu = condition(weighted, die.event([0, 1]))
        assert np.allclose(nu.weights, [2.0 / 3.0, 1.0 / 3.0, 0, 0, 0, 0])

    def test_boolean_zero_probability(self, die):
        point = ClassicalState(die.space, np.array([1.0, 0, 0, 0, 0, 0]))
        with pytest.raises(ZeroProbabilityCondition) as info:
            condition(point, die.event([5]))
        assert info.value.probability == 0.0

    def test_quantum_compression(self):
        _, e, f = half_transition_pair()
        mixed = DensityState(np.eye(4, dtype=np.complex128) / 4.0)
        nu = condition(mixed, e)
        assert np.allclose(nu.matrix, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)
        assert prob(nu, f) == pytest.approx(0.5, abs=1e-12)

    def test_contract_for_events_below_condition(self):
        # nu(F) = mu(F)/mu(E) must hold for every F under E.
        rng = np.random.default_rng(31)
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        for _ in range(25):
            mu = random_density_state(4, rng)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            sub = alg.event_from_span(
                [np.array([math.cos(alpha), math.sin(alpha), 0.0, 0.0])])
            assert below(sub, e)
            if prob(mu, e) < 1e-6:
                continue
            nu = condition(mu, e)
            assert prob(nu, sub) == pytest.approx(
                prob(mu, sub) / prob(mu, e), abs=1e-10)

    def test_sequence_order_dependence(self):
        _, mixed, f1, f2, e = order_dependence_example()
        forward = prob(condition_seq(mixed, [f1, f2]), e)
        reverse = prob(condition_seq(mixed, [f2, f1]), e)
        assert forward == pytest.approx(0.5, abs=1e-12)
        assert reverse == pytest.approx(0.0, abs=1e-12)

    def test_sequence_reports_failing_index(self):
        _, mixed, f1, _, e = order_dependence_example()
        # e is orthogonal to f1, so the second step must fail.
        with pytest.raises(ZeroProbabilityCondition) as info:
            condition_seq(mixed, [f1, e])
        assert info.value.index == 1

    def test_sequence_needs_events(self, fair):
        with pytest.raises(EmptyInput):
            condition_seq(fair, [])

    def test_qubit_conditioning_warns(self):
        alg = QuantumAlgebra(2)
        e = alg.event(np.diag([1.0, 0.0]))
        mixed = DensityState(np.eye(2) / 2.0)
        with pytest.warns(NonUniqueConditioningWarning):
            condition(mixed, e)

    def test_higher_dims_do_not_warn(self):
        alg = QuantumAlgebra(3)
        e = diag_event(alg, [1, 0, 0])
        mixed = DensityState(np.eye(3) / 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            condition(mixed, e)


class TestPredictability:
    def test_half_pair_is_exact(self):
        _, e, f = half_transition_pair()
        result = predictability(f, e)
        assert result.predictable
        assert result.s == 0.5
        assert result.residual == 0.0

    def test_atom_given_is_always_predictable(self):
        # A rank-1 condition G satisfies GEG = <g|E|g> G for every E.
        alg = QuantumAlgebra(2)
        e = alg.event(np.diag([1.0, 0.0]))
        g = alg.event_from_span([np.array([1.0, 1.0])])
        result = predictability(e, g)
        assert result.predictable
        assert result.s == pytest.approx(0.5, abs=1e-12)

    def test_partial_overlap_not_predictable(self):
        alg = QuantumAlgebra(3)
        plane = alg.event(np.diag([1.0, 1.0, 0.0]))
        tilted_atom = alg.event_from_span([np.array([1.0, 1.0, 0.0])])
        assert not predictability(tilted_atom, plane).predictable

    def test_zero_condition_rejected(self):
        alg = QuantumAlgebra(3)
        with pytest.raises(ZeroEvent):
            predictability(alg.one(), alg.zero())

    def test_boolean_trivial_values(self, die):
        target = die.event([0, 1, 2])
        assert predictability(target, die.event([0, 1])).s == 1.0
        assert predictability(target, die.event([4, 5])).s == 0.0
        assert not predictability(target, die.event([2, 3])).predictable
        with pytest.raises(ZeroEvent):
            predictability(target, die.zero())

    def test_sequence_single_event_matches_plain(self):
        rng = np.random.default_rng(5)
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        f = diag_event(alg, [1, 0, 0, 0])
        single = predictability(e, f)
        seq = predictability_seq(e, [f])
        assert single.predictable == seq.predictable
        assert single.s == pytest.approx(seq.s, abs=1e-15)

    def test_last_event_always_certain(self):
        # P(F_n | F_1, ..., F_n) = 1.
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        f = alg.event_from_span([np.array([1.0, 0.0, 1.0, 0.0])])
        result = predictability_seq(f, [e, f])
        assert result.predictable
        assert result.s == pytest.approx(1.0, abs=1e-12)

    def test_impossible_sequence(self):
        alg = QuantumAlgebra(3)
        e1 = diag_event(alg, [1, 0, 0])
        e2 = diag_event(alg, [0, 1, 0])
        with pytest.raises(ImpossibleSequence):
            predictability_seq(alg.one(), [e1, e2])

    def test_boolean_sequence_impossible(self, die):
        with pytest.raises(ImpossibleSequence):
            predictability_seq(die.one(), [die.event([0]), die.event([1])])

    def test_empty_sequence(self, die):
        with pytest.raises(EmptyInput):
            predictability_seq(die.one(), [])


class TestDiagonalDichotomy:
    """Commuting (simultaneously diagonal) pairs admit only s = 0 or 1."""

    def test_contained_gives_one(self):
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        f = diag_event(alg, [1, 0, 0, 0])
        result = predictability(e, f)
        assert result.predictable and result.s == 1.0
        assert below(f, e)

    def test_orthogonal_gives_zero(self):
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        f = diag_event(alg, [0, 0, 0, 1])
        result = predictability(e, f)
        assert result.predictable and result.s == 0.0
        assert below(f, complement(e))

    def test_straddling_not_predictable(self):
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        f = diag_event(alg, [1, 0, 1, 0])
        assert not predictability(e, f).predictable

    def test_random_diagonal_pairs(self):
        rng = np.random.default_rng(12)
        alg = QuantumAlgebra(5)
        for _ in range(100):
            e_bits = rng.integers(0, 2, 5)
            f_bits = rng.integers(0, 2, 5)
            if not f_bits.any():
                continue
            e = diag_event(alg, e_bits.astype(float))
            f = diag_event(alg, f_bits.astype(float))
            result = predictability(e, f)
            if result.predictable:
                assert result.s in (0.0, 1.0)
                if result.s == 1.0:
                    assert below(f, e)
                else:
                    assert below(f, complement(e))
            else:
                assert not below(f, e)
                assert not below(f, complement(e))


class TestCompatibility:
    def test_boolean_always(self, die):
        assert compatible(die.event([0]), die.event([0, 1]))

    def test_commuting_projections(self):
        alg = QuantumAlgebra(4)
        e = diag_event(alg, [1, 1, 0, 0])
        f = diag_event(alg, [0, 1, 1, 0])
        assert compatible(e, f)

    def test_half_pair_incompatible(self):
        _, e, f = half_transition_pair()
        assert not compatible(e, f)

    def test_residuals_vanish_together(self):
        rng = np.random.default_rng(21)
        alg = QuantumAlgebra(4)
        from orthoprob.linalg import random_projection
        for _ in range(50):
            e = alg.event(random_projection(4, int(rng.integers(0, 5)), rng).matrix)
            f = alg.event(random_projection(4, int(rng.integers(0, 5)), rng).matrix)
            comm, ident_e, ident_f = compatibility_residuals(e, f)
            small = comm <= 1e-9
            assert (ident_e <= 1e-9) == small
            assert (ident_f <= 1e-9) == small

    def test_decomposition_under_idempotent(self):
        # F = {E,F,E} + 2 E' o (E o F) + E' o F for projections E, F.
        rng = np.random.default_rng(8)
        from orthoprob.linalg import random_projection
        for _ in range(50):
            e = random_projection(4, int(rng.integers(1, 4)), rng)
            f = random_projection(4, int(rng.integers(1, 4)), rng)
            e_prime = np.eye(4) - e.matrix
            efe = quadratic_triple(e.matrix, f.matrix).matrix
            ef = jordan_product(e.matrix, f.matrix).matrix
            mixed = jordan_product(e_prime, ef).matrix
            tail = jordan_product(e_prime, f.matrix).matrix
            recomposed = efe + 2.0 * mixed + tail
            assert np.allclose(recomposed, f.matrix, atol=1e-12)


class TestAtoms:
    def test_boolean_atom_state(self, die):
        state = atom_state(die.event([3]))
        assert state.weights[3] == 1.0
        assert state.weights.sum() == 1.0

    def test_quantum_atom_state(self):
        alg = QuantumAlgebra(3)
        ev = alg.event_from_span([np.array([1.0, 1.0, 0.0])])
        state = atom_state(ev)
        assert prob(state, ev) == pytest.approx(1.0, abs=1e-12)

    def test_not_atom(self, die):
        with pytest.raises(NotAtom):
            atom_state(die.event([0, 1]))

    def test_transition_probability_endpoints(self):
        e1 = StateVector([1.0, 0.0])
        e2 = StateVector([0.0, 1.0])
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        assert rank_one_transition(e1, e2) == 0.0
        assert rank_one_transition(e1, e1) == pytest.approx(1.0, abs=1e-15)
        assert rank_one_transition(plus, e1) == pytest.approx(0.5, abs=1e-15)

    def test_atom_symmetry(self):
        alg = QuantumAlgebra(3)
        a = alg.event_from_span([np.array([1.0, 0.0, 0.0])])
        b = alg.event_from_span([np.array([1.0, 2.0, 0.0])])
        assert atom_symmetry_check(a, b)
        with pytest.raises(NotAtom):
            atom_symmetry_check(a, oplus(a, alg.event_from_span(
                [np.array([0.0, 1.0, 0.0])])))

    def test_transition_matches_conditional(self):
        # P(F|E) for atoms E, F equals |<eta|xi>|^2.
        rng = np.random.default_rng(40)
        alg = QuantumAlgebra(3)
        for _ in range(20):
            xi_raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta_raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            xi = StateVector(xi_raw / np.linalg.norm(xi_raw))
            eta = StateVector(eta_raw / np.linalg.norm(eta_raw))
            target = alg.event(eta.projector().matrix)
            given = alg.event(xi.projector().matrix)
            result = predictability(target, given)
            assert result.predictable
            assert result.s == pytest.approx(rank_one_transition(eta, xi),
                                             abs=1e-12)


class TestDispersionFree:
    def test_point_mass(self, die):
        state = atom_state(die.event([2]))
        events = [die.event(list(members)) for members in
                  [(0,), (2,), (0, 2), (1, 3, 5), (0, 1, 2, 3, 4, 5)]]
        assert is_dispersion_free(state, events)

    def test_uniform_is_not(self, die, fair):
        assert not is_dispersion_free(fair, [die.event([0])])


class TestTableStates:
    def _pair(self):
        alg = QuantumAlgebra(2)
        e = alg.event(np.diag([1.0, 0.0]))
        return alg, e

    def test_valid_table(self):
        alg, e = self._pair()
        table = TableState({"E": e, "E'": complement(e)},
                           {"E": 0.7, "E'": 0.3},
                           {"E": "E'", "E'": "E"})
        assert table.value("E") == 0.7

    def test_rejects_bad_sum(self):
        alg, e = self._pair()
        with pytest.raises(ValidationError, match="sum"):
            TableState({"E": e, "E'": complement(e)},
                       {"E": 0.7, "E'": 0.2},
                       {"E": "E'", "E'": "E"})

    def test_rejects_non_complement_partner(self):
        alg, e = self._pair()
        g = alg.event_from_span([np.array([1.0, 1.0])])
        with pytest.raises(ValidationError, match="complement"):
            TableState({"E": e, "G": g},
                       {"E": 0.5, "G": 0.5},
                       {"E": "G", "G": "E"})

    def test_rejects_unit_event_mismatch(self):
        alg, e = self._pair()
        with pytest.raises(ValidationError, match="unit"):
            TableState({"zero": alg.zero(), "one": alg.one()},
                       {"zero": 0.1, "one": 0.9},
                       {"zero": "one", "one": "zero"})

    def test_contract_checker_flags_wrong_value(self):
        alg, e = self._pair()
        base = DensityState(np.eye(2) / 2.0)
        table = TableState({"E": e, "E'": complement(e)},
                           {"E": 0.7, "E'": 0.3},
                           {"E": "E'", "E'": "E"})
        violations = conditioning_contract_violations(table, base, "E")
        assert violations and "E" in violations[0]


class TestQubitNonUniqueness:
    def test_default_angle_special_case(self):
        report = qubit_nonuniqueness_demo()
        assert report.special_case
        assert report.differ_on == ("G", "G'")
        assert report.distinct
        assert report.compression.value("G") == pytest.approx(0.5, abs=1e-12)
        assert report.alternative.value("G") == 1.0
        assert report.alternative.value("G'") == 0.0
        assert "not unique" in report.note

    def test_tilted_angle_swaps_values(self):
        report = qubit_nonuniqueness_demo(angle=math.pi / 6)
        assert not report.special_case
        assert report.compression.value("G") == pytest.approx(0.75, abs=1e-12)
        assert report.alternative.value("G") == pytest.approx(0.25, abs=1e-12)
        assert report.differ_on == ("G", "G'")

    @pytest.mark.parametrize("angle", [math.pi / 4, math.pi / 6, 1.0])
    def test_both_tables_satisfy_the_contract(self, angle):
        report = qubit_nonuniqueness_demo(angle=angle)
        for table in (report.compression, report.alternative):
            assert conditioning_contract_violations(
                table, report.base, report.condition_name) == []

    def test_pinned_values_follow_conditioning(self):
        report = qubit_nonuniqueness_demo(angle=1.0)
        assert report.compression.value("E") == pytest.approx(1.0, abs=1e-12)
        assert report.compression.value("E'") == pytest.approx(0.0, abs=1e-12)
        assert report.alternative.value("E") == pytest.approx(1.0, abs=1e-12)


@st.composite
def boolean_setup(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.integers(min_value=0, max_value=50),
                        min_size=size, max_size=size).filter(lambda w: sum(w) > 0))
    members = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    others = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    return size, raw, members, others


class TestBooleanOracle:
    @given(boolean_setup())
    @settings(max_examples=120, deadline=None)
    def test_conditioning_matches_ratio(self, setup):
        size, raw, members, others = setup
        alg = BooleanAlgebra(size)
        weights = np.array(raw, dtype=np.float64)
        state = ClassicalState(alg.space, weights / weights.sum())
        e = alg.event(members)
        f = alg.event(others)
        p_e = prob(state, e)
        if p_e == 0.0:
            with pytest.raises(ZeroProbabilityCondition):
                condition(state, e)
            return
        nu = condition(state, e)
        joint = alg.event(members & others)
        assert prob(nu, f) == pytest.approx(prob(state, joint) / p_e, abs=1e-12)

    @given(boolean_setup())
    @settings(max_examples=120, deadline=None)
    def test_predictability_is_containment(self, setup):
        size, _, members, others = setup
        if not others:
            return
        alg = BooleanAlgebra(size)
        target = alg.event(members)
        given = alg.event(others)
        result = predictability(target, given)
        if others <= members:
            assert result.predictable and result.s == 1.0
        elif others & members == set():
            assert result.predictable and result.s == 0.0
        else:
            assert not result.predictable
