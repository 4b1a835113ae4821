"""State layer tests: probabilities, conditioning, predictability,
compatibility, atoms, tabular states, and the qubit demonstration."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoprob.linalg
from orthoprob.errors import (AlgebraMismatch, DimensionMismatch, EmptyInput,
                              ImpossibleSequence, NonUniqueConditioningWarning, NotAtom,
                              ValidationError, ZeroEvent, ZeroProbabilityCondition)
from orthoprob.events import (_BOOLEAN, _QUANTUM, BooleanAlgebra, BooleanEvent, QuantumAlgebra,
                              QuantumEvent, SampleSpace, below, complement, is_atom, oplus,
                              orthogonal, verify_orthospace_axioms)
from orthoprob.linalg import (TOL_HERMITIAN, HermitianOperator, Projection, StateVector,
                              _check_density_stack, _check_weight_rows, _symmetrized,
                              jordan_product, projector_from_span, quadratic_triple,
                              random_unitary)
from orthoprob.interference import interference_decomposition, two_slit
from orthoprob.presets import half_transition_pair, order_dependence_example
from orthoprob.sampler import SamplerConfig, sample_chain
from orthoprob.states import (ClassicalState, DensityState, PredictabilityResult, TableState,
                              _clamp_probability, atom_state, atom_symmetry_check,
                              compatibility_residuals, compatible, condition,
                              condition_seq, conditioning_contract_violations,
                              is_dispersion_free, predictability,
                              predictability_seq, prob,
                              qubit_nonuniqueness_demo, rank_one_transition)

from helpers import (frame_event, random_density_matrix, random_density_state,
                     random_hermitian, random_projection, spin_projection, spin_system,
                     state_family)


@pytest.fixture
def die():
    return BooleanAlgebra(6)


@pytest.fixture
def fair(die):
    return ClassicalState(die.space, np.full(6, 1.0 / 6.0))


def diag_event(alg, pattern):
    return alg.event(np.diag(np.array(pattern, dtype=np.complex128)))


class TestStateConstruction:
    def test_classical_equality_and_repr(self, die, fair):
        assert fair == ClassicalState(die.space, np.full(6, 1 / 6))
        assert fair != ClassicalState(die.space, [1.0, 0, 0, 0, 0, 0])
        assert fair != ClassicalState(SampleSpace(6, labels=tuple("abcdef")), np.full(6, 1 / 6))
        assert fair.__eq__(fair.weights) is NotImplemented
        assert repr(fair) == "ClassicalState(size=6)"

    def test_classical_needs_unit_mass(self, die):
        with pytest.raises(ValidationError):
            ClassicalState(die.space, np.full(6, 0.15))

    def test_classical_rejects_negative(self, die):
        w = np.array([0.5, 0.6, -0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            ClassicalState(die.space, w)

    def test_classical_needs_one_weight_per_point(self, die):
        with pytest.raises(ValidationError) as exc:
            ClassicalState(die.space, np.full(5, 0.2))
        assert str(exc.value) == "expected 6 weights, got shape (5,)"

    def test_density_needs_unit_trace(self):
        with pytest.raises(ValidationError):
            DensityState(np.eye(4) / 3.0)

    def test_density_needs_psd(self):
        with pytest.raises(ValidationError):
            DensityState(np.diag([1.5, -0.5]))

    def test_pure_state_accepted(self):
        rho = DensityState(np.outer([1.0, 0.0], [1.0, 0.0]))
        assert rho.dim == 2

    def test_operator_classes_are_not_equal_across_kinds(self):
        # diag(1, 0) is a Hermitian operator, a projection and a density
        # state at once; each object equals only one of its own class.
        m = np.diag([1.0, 0.0]).astype(np.complex128)
        ops = [HermitianOperator(m), Projection(m), DensityState(m)]
        for op in ops:
            assert isinstance(op, HermitianOperator)
            assert np.array_equal(op.matrix, m) and op.dim == 2
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                assert (a == b) is (i == j)
                assert (a != b) is (i != j)
        assert ops[1] == Projection(m.copy())
        assert ops[2] == DensityState(m.copy())

    def test_density_state_adopts_an_operator_array(self):
        proj = Projection(np.diag([0.0, 1.0]))
        for source in (proj, HermitianOperator(proj.matrix)):
            assert DensityState(source).matrix is source.matrix
        assert Projection(proj).matrix is proj.matrix
        assert repr(DensityState(proj)) == "DensityState(dim=2)"

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
        kind = _BOOLEAN if stack.ndim == 2 else _QUANTUM
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            kind.check_states(stack)


def _eigvalsh_verdict(stack):
    """The message of the DensityState checks on a stack decided by
    eigvalsh alone, with no Cholesky pre-check, or None when it passes."""
    traces = stack.trace(axis1=1, axis2=2).real
    off = np.abs(traces - 1.0)
    if off.max() > 1e-10:
        first = traces[(off > 1e-10).argmax()]
        return f"density matrix trace {float(first)!r} is not 1 within 1e-10"
    low = np.linalg.eigvalsh(stack)[:, 0]
    if low.min() < -1e-10:
        return f"density matrix has eigenvalue {low[(low < -1e-10).argmax()]:.3e} below -1e-10"
    return None


def _density_verdict(stack):
    try:
        _check_density_stack(stack)
    except ValidationError as exc:
        return str(exc)
    return None


def _no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh was reached")


def _state_with_lowest(dim, low, rng):
    """An exactly Hermitian unit-trace matrix whose smallest eigenvalue is
    ``low``, up to roundoff, in a Haar frame."""
    rest = rng.uniform(0.5, 1.5, size=dim - 1)
    rest *= (1.0 - low) / rest.sum()
    u = random_unitary(dim, rng)
    return _symmetrized((u * np.concatenate([[low], rest])) @ u.conj().T)


class TestCholeskyCertifier:
    """The Cholesky pre-check decides no stack differently from eigvalsh."""

    # lambda_min = -1e-10 + k 1e-13.  For k <= 5 the shifted factor fails
    # and eigvalsh decides: it rejects k < 0 and accepts k > 0.  At k = 10
    # roundoff decides whether the factor completes; from k = 11 on it
    # does, and at k = 15 and 50 the test requires it.
    BOUNDARY = list(range(-5, 6)) + [10, 11, 15, 50]

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
    def test_boundary_verdicts_match_eigvalsh(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        states = {k: [_state_with_lowest(dim, -1e-10 + k * 1e-13, rng) for _ in range(3)]
                  for k in self.BOUNDARY}
        everything = np.stack([rho for k in self.BOUNDARY for rho in states[k]])
        for rho in everything:
            assert _density_verdict(rho[None]) == _eigvalsh_verdict(rho[None])
        for k in self.BOUNDARY:
            stack = np.stack(states[k])
            assert _density_verdict(stack) == _eigvalsh_verdict(stack)
            if k != 0:  # at k = 0 roundoff decides
                assert (_density_verdict(stack) is None) is (k > 0), k
        # The first offender of a mixed stack is reported, wherever it sits.
        for order in (everything, everything[::-1]):
            assert _density_verdict(order) == _eigvalsh_verdict(order)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        for k in (15, 50):
            _check_density_stack(np.stack(states[k]))

    # Smallest eigenvalues at and around MIN_EIGENVALUE = -1e-10, the middle
    # two a relative 1e-6 either side of it.
    LOWEST = [0.0, -0.99e-10, -1e-10 * (1 - 1e-6), -1e-10 * (1 + 1e-6), -2e-10]

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_lowest_eigenvalue_oracle(self, dim, monkeypatch):
        """Each matrix, and each stack of three, is accepted exactly when
        eigvalsh(rho)[0] >= MIN_EIGENVALUE holds for all of it, and a refused
        stack reports its first offender, wherever it sits."""
        rng = np.random.default_rng(200 + dim)
        states = {low: [_state_with_lowest(dim, low, rng) for _ in range(3)]
                  for low in self.LOWEST}
        for low, trio in states.items():
            for rho in trio:
                verdict = _density_verdict(rho[None])
                assert verdict == _eigvalsh_verdict(rho[None])
                assert (verdict is None) is bool(np.linalg.eigvalsh(rho)[0] >= -1e-10), low
            stack = np.stack(trio)
            assert _density_verdict(stack) == _eigvalsh_verdict(stack)
        # One offender among passing states, in each position, and two offenders.
        good, bad, worse = states[0.0][0], states[-2e-10][0], _state_with_lowest(dim, -5e-10, rng)
        for stack in ([bad, good, good], [good, bad, good], [good, good, bad],
                      [good, worse, bad], [good, bad, worse]):
            stack = np.stack(stack)
            first = np.linalg.eigvalsh(stack)[:, 0]
            first = first[(first < -1e-10).argmax()]
            assert _density_verdict(stack) == \
                f"density matrix has eigenvalue {first:.3e} below -1e-10"
        # A stack whose smallest eigenvalues are 0 factors, so eigvalsh never runs.
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        _check_density_stack(np.stack(states[0.0]))
        for rho in states[0.0]:
            _check_density_stack(rho[None])

    def test_a_pure_state_and_its_conditioning_skip_eigvalsh(self, monkeypatch):
        _, e, f = half_transition_pair()
        v = np.array([0.6, 0.0, 0.8j, 0.0])
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        pure = DensityState(np.outer(v, v.conj()))
        conditioned = condition(pure, f)
        assert prob(conditioned, f) == pytest.approx(1.0)
        assert prob(condition(conditioned, e), e) == pytest.approx(1.0)


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


_E = QuantumAlgebra(3).event(np.diag([1.0, 0.0, 0.0]))
_BE = BooleanAlgebra(3).event([0])
_RHO = DensityState(np.eye(3) / 3.0)
_W = ClassicalState(_BE.space, np.full(3, 1.0 / 3.0))
_V = StateVector([1.0, 0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: prob(_E, _E), "cannot pair QuantumEvent with QuantumEvent"),
    (lambda: condition(_E, _E), "cannot pair QuantumEvent with QuantumEvent"),
    (lambda: sample_chain(_E, [_E], _E), "cannot pair QuantumEvent with QuantumEvent"),
    (lambda: prob(_BE, _BE), "cannot pair BooleanEvent with BooleanEvent"),
    (lambda: prob(_RHO, _RHO), "cannot pair DensityState with DensityState"),
    (lambda: orthogonal(_RHO, _RHO), "cannot mix DensityState with DensityState"),
    (lambda: orthogonal(_W, _W), "cannot mix ClassicalState with ClassicalState"),
    (lambda: compatible(_RHO, _E), "cannot mix DensityState with QuantumEvent"),
    (lambda: prob(_RHO, Projection(_E.matrix)), "cannot pair DensityState with Projection"),
    (lambda: prob(_W, BooleanAlgebra(3)), "cannot pair ClassicalState with BooleanAlgebra"),
    (lambda: orthogonal(_E, None), "cannot mix QuantumEvent with NoneType"),
    (lambda: oplus(None, _BE), "cannot mix NoneType with BooleanEvent"),
])
def test_operand_roles(call, message):
    """Each operand has the role its position gives it: an event where a
    state belongs is a mismatch, and so is a state where an event belongs,
    whatever their kinds."""
    with pytest.raises(AlgebraMismatch, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: condition_seq(_RHO, iter([_E])),
     "events must be a sequence of events, got list_iterator"),
    (lambda: predictability_seq(_E, iter([_E])),
     "given must be a sequence of events, got list_iterator"),
    (lambda: is_dispersion_free(_RHO, _E), "events must be a sequence of events, got QuantumEvent"),
    (lambda: complement(None), "e must be an event, got NoneType"),
    (lambda: complement(BooleanAlgebra(3)), "e must be an event, got BooleanAlgebra"),
    (lambda: is_atom(None), "e must be an event, got NoneType"),
    (lambda: is_atom(_RHO), "e must be an event, got DensityState"),
    (lambda: atom_state(None), "event must be an event, got NoneType"),
    (lambda: atom_symmetry_check(_E, None), "f must be an event, got NoneType"),
    (lambda: interference_decomposition(None, _E, _E, _E),
     "source_atom must be an event, got NoneType"),
    (lambda: verify_orthospace_axioms("boolean"), "algebra must be an event algebra, got str"),
    (lambda: verify_orthospace_axioms(_BE), "algebra must be an event algebra, got BooleanEvent"),
    (lambda: condition(_RHO, _E, tol=None), "tol must be finite and >= 0, got None"),
    (lambda: orthogonal(_E, _E, tol="1e-9"), "tol must be finite and >= 0, got '1e-9'"),
    (lambda: rank_one_transition(None, None), "xi must be a StateVector, got NoneType"),
    (lambda: rank_one_transition(_V, _E), "eta must be a StateVector, got QuantumEvent"),
    (lambda: two_slit(None, None, None, None), "source must be a StateVector, got NoneType"),
    (lambda: two_slit(_V, _V, _V, _RHO), "detector must be a StateVector, got DensityState"),
    (lambda: conditioning_contract_violations(None, _RHO, "a"),
     "table must be a TableState, got NoneType"),
    (lambda: TableState(None, {}, {}), "events must be a Mapping, got NoneType"),
    (lambda: BooleanAlgebra(4).event(3), "members must be an iterable of integers, got int"),
    (lambda: BooleanAlgebra(4).event(None),
     "members must be an iterable of integers, got NoneType"),
    (lambda: BooleanAlgebra(4).event([[0]]), "member [0] is not an integer"),
    (lambda: BooleanEvent(4, frozenset()), "space must be a SampleSpace, got int"),
    (lambda: ClassicalState(None, [1.0]), "space must be a SampleSpace, got NoneType"),
    (lambda: SampleSpace(2, labels=5), "labels must be a sequence of strings"),
    (lambda: BooleanAlgebra(2, labels=[0, 1]), "labels must be a sequence of strings"),
    (lambda: DensityState([["a"]]), "matrix must be a rectangular array of numbers"),
    (lambda: QuantumAlgebra(2).event([["a", "b"], ["c", "d"]]),
     "matrix must be a rectangular array of numbers"),
    (lambda: HermitianOperator([[1], [1, 2]]), "matrix must be a rectangular array of numbers"),
    (lambda: projector_from_span([["a"]]), "span vector must be a rectangular array of numbers"),
    (lambda: StateVector("x"), "state vector must be a rectangular array of numbers"),
    (lambda: StateVector([10 ** 400]), "state vector must be a rectangular array of numbers"),
    (lambda: ClassicalState(_BE.space, "ab"), "weights must be a rectangular array of numbers"),
])
def test_argument_types(call, message):
    """A single operand that is not what its parameter takes, a sequence
    argument that is not a sequence, and an array that numpy cannot read
    as numbers get a ValidationError that names the argument."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


STACK_DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 16, 64]


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("dim", STACK_DIMS)
def test_one_state_stack_keeps_the_matrix_arithmetic(dim):
    # prob and condition run the stacked routines on a one-state stack;
    # their bits must stay those of the plain matrix formulas.  A user
    # matrix that is Hermitian only within TOL_HERMITIAN is kept as given.
    rng = np.random.default_rng(dim)
    alg = QuantumAlgebra(dim)
    for _ in range(30):
        rho = random_density_state(dim, rng)
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        noise -= noise.conj().T
        skewed = DensityState(rho.matrix + 0.4 * TOL_HERMITIAN / np.abs(noise).max() * noise)
        assert not np.array_equal(skewed.matrix, skewed.matrix.conj().T)
        e = alg.event(random_projection(dim, int(rng.integers(1, dim + 1)), rng))
        for state in (rho, skewed):
            p = float(np.trace(state.matrix @ e.matrix).real)
            assert prob(state, e) == (0.0 if -1e-12 <= p < 0.0
                                      else 1.0 if 1.0 < p <= 1.0 + 1e-12 else p)
            compressed = _symmetrized(e.matrix @ state.matrix @ e.matrix)
            assert np.array_equal(condition(state, e, tol=0.0).matrix,
                                  compressed / compressed.trace().real)


@pytest.mark.kernel_dependent
@pytest.mark.parametrize("dim", STACK_DIMS)
def test_stacks_keep_the_matrix_arithmetic(dim):
    # The kind's probabilities and conditioned multiply a stack by the shared E as
    # one gemm over the rows of all its matrices, which must give the bits
    # of one matmul per matrix.  The left product E @ rho stays one matmul
    # per matrix: as one gemm, E times the matrices side by side, it rounds
    # differently at dims 2, 3, 5 and 6, among others.
    rng = np.random.default_rng(400 + dim)
    pool = np.stack([random_density_matrix(dim, rng) for _ in range(600)])
    stacks = [pool[:1], pool[:2], pool[:7], pool[::2]]
    assert not stacks[-1].flags.c_contiguous
    for stack in stacks:
        e = random_projection(dim, int(rng.integers(1, dim + 1)), rng).matrix
        p = _QUANTUM.probabilities(stack, e)
        assert np.array_equal(
            p, _clamp_probability(np.array([(rho @ e).trace().real for rho in stack])))
        for rho, child in zip(stack, _QUANTUM.conditioned(stack, e, p)):
            compressed = _symmetrized(e @ rho @ e)
            assert np.array_equal(child, compressed / compressed.trace().real)


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

    def test_checks_the_state_once(self, monkeypatch):
        # The conditioned matrix is exactly Hermitian: no constructor and no
        # Hermitian scan run on it, only the density checks.
        rng = np.random.default_rng(8)
        rho, e = random_density_state(4, rng), diag_event(QuantumAlgebra(4), [1, 1, 0, 0])
        want = condition(rho, e)

        def no_scan(*args, **kwargs):
            raise AssertionError("the Hermitian scan ran")

        monkeypatch.setattr(HermitianOperator, "__init__", no_scan)
        monkeypatch.setattr(orthoprob.linalg, "_square_complex", no_scan)
        got = condition(rho, e)
        assert type(got) is DensityState
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert not got.matrix.flags.writeable

    def test_a_trace_off_by_more_than_tol_trace_is_refused(self, monkeypatch):
        # Conditioning keeps the trace check a refusal; it never renormalizes.
        conditioned = _QUANTUM.conditioned
        monkeypatch.setattr(_QUANTUM, "conditioned",
                            lambda *args: conditioned(*args) * (1 + 1e-9))
        e = diag_event(QuantumAlgebra(3), [1, 0, 0])
        with pytest.raises(ValidationError, match=re.escape(
                "density matrix trace 1.000000001 is not 1 within 1e-10")):
            condition(DensityState(np.eye(3) / 3.0), e)

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
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_certificate_is_the_jordan_quadratic_product(self, dim):
        # s and the residual are read off {F,E,F} as quadratic_triple forms it.
        rng = np.random.default_rng(dim)
        alg = QuantumAlgebra(dim)
        for _ in range(5):
            e, f = (frame_event(alg, random_unitary(dim, rng)[:, :k])
                    for k in rng.integers(1, dim + 1, size=2))
            fef = quadratic_triple(f, e).matrix
            s = float(fef.trace().real) / float(f.matrix.trace().real)
            result = predictability(e, f)
            assert (result.s, result.residual) == (s, float(np.linalg.norm(fef - s * f.matrix)))

    def test_certified_value_outside_unit_interval_is_refused(self):
        assert not PredictabilityResult(False, 1.5, 0.25).predictable
        with pytest.raises(ValidationError,
                           match=r"^certified conditional probability 1\.5 outside \[0, 1\]$"):
            PredictabilityResult(True, 1.5, 0.0)

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

    def test_sequence_kind_messages(self, die):
        q3, q4 = QuantumAlgebra(3), QuantumAlgebra(4)
        other = BooleanAlgebra(4)
        cases = [
            (die.one(), [q3.one()], "cannot mix BooleanEvent with QuantumEvent"),
            (q3.one(), [die.one()], "cannot mix QuantumEvent with BooleanEvent"),
            (die.one(), [die.one(), other.one()], "events live on different sample spaces"),
            (q3.one(), [q3.one(), q4.one()], "events have different dimensions: 3 vs 4"),
            (q3.one(), [q3.one(), die.one()], "cannot mix QuantumEvent with BooleanEvent"),
        ]
        for target, given, message in cases:
            with pytest.raises(AlgebraMismatch, match=f"^{re.escape(message)}$"):
                predictability_seq(target, given)

    def test_sequence_checks_each_event_in_order(self, die):
        q3 = QuantumAlgebra(3)
        with pytest.raises(ZeroEvent, match="^a conditioning event is empty$"):
            predictability_seq(die.one(), [die.zero(), q3.one()])
        with pytest.raises(AlgebraMismatch):
            predictability_seq(die.one(), [q3.one(), die.zero()])
        with pytest.raises(ZeroEvent, match="zero projection"):
            predictability_seq(q3.one(), [q3.zero(), die.one()])
        with pytest.raises(AlgebraMismatch):
            predictability_seq(q3.one(), [q3.one(), die.one(), q3.zero()])


class TestPredictabilitySpreadOracle:
    """The pair verdict against ``eigh``.  With Q an orthonormal basis of
    ran(F), P(target | F) fills the eigenvalue range of Q^H T Q over all
    states, and the residual ||FTF - sF||_F is the distance of those
    eigenvalues from their mean s.  So spread <= 2 residual <= 2 sqrt(rank)
    spread, and at ``bound = tol * max(1, ||F||_F)`` a pair whose spread is
    at most bound / sqrt(rank) is certified and one whose spread exceeds
    2 bound is not."""

    TOL = orthoprob.linalg.DEFAULT_DETECTION_TOL
    ROUNDOFF = 1e-14

    @staticmethod
    def spread(target, given):
        values, vectors = np.linalg.eigh(given.matrix)
        q = vectors[:, values > 0.5]
        inside = np.linalg.eigvalsh(q.conj().T @ target.matrix @ q)
        return float(inside[-1] - inside[0]), q.shape[1]

    def assert_oracle_holds(self, target, given):
        """The verdict, certified or not, after checking both bounds."""
        spread, rank = self.spread(target, given)
        result = predictability(target, given, self.TOL)
        assert spread <= 2 * result.residual + self.ROUNDOFF
        assert 2 * result.residual <= 2 * math.sqrt(rank) * spread + self.ROUNDOFF
        bound = self.TOL * max(1.0, float(np.linalg.norm(given.matrix)))
        if spread <= bound / math.sqrt(rank) - self.ROUNDOFF:
            assert result.predictable
        if spread > 2 * bound + self.ROUNDOFF:
            assert not result.predictable
        return result.predictable

    def test_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            dim = int(rng.integers(2, 8))
            alg = QuantumAlgebra(dim)
            target, given = (frame_event(alg, random_unitary(dim, rng)[:, :k])
                             for k in rng.integers(1, dim + 1, size=2))
            self.assert_oracle_holds(target, given)

    def test_pairs_turned_near_the_bound(self):
        # The half-transition target, exactly predictable after E, turned by
        # exp(i eps H): the spread grows with eps through the bound.
        alg, e, f = half_transition_pair()
        rng = np.random.default_rng(8)
        verdicts = set()
        for eps in np.logspace(-13, -5, 40):
            values, vectors = np.linalg.eigh(random_hermitian(4, rng).matrix)
            turn = (vectors * np.exp(1j * eps * values)) @ vectors.conj().T
            target = alg.event(_symmetrized(turn @ f.matrix @ turn.conj().T))
            verdicts.add(self.assert_oracle_holds(target, e))
        assert verdicts == {True, False}


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

    def test_verdict_is_the_commutator_test_alone(self):
        # Two atoms of C^3 from one Haar frame, the second turned by a tiny
        # angle: the commutator and identity residuals differ in their last
        # digits, and a tolerance between them must not raise.
        alg = QuantumAlgebra(3)
        split = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = random_unitary(3, rng)
            theta = 10.0 ** rng.uniform(-16, -6)
            turn = np.eye(3, dtype=np.complex128)
            turn[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]]
            v = u @ turn
            e = alg.event_from_span([u[:, 0]])
            f = alg.event_from_span([v[:, 1]])
            comm, ident_e, ident_f = compatibility_residuals(e, f)
            scale = max(1.0, float(np.linalg.norm(e.matrix)), float(np.linalg.norm(f.matrix)))
            for ident in (ident_e, ident_f):
                tol = (comm + ident) / 2.0 / scale
                assert compatible(e, f, tol=tol) is (comm <= tol * scale)
                split += (comm <= tol * scale) != (ident <= tol * scale)
        assert split > 0

    def test_residuals_vanish_together(self):
        rng = np.random.default_rng(21)
        alg = QuantumAlgebra(4)
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

    @pytest.mark.parametrize("pair, message", [
        (lambda die: (die.event([0]), QuantumAlgebra(2).one()),
         "cannot mix BooleanEvent with QuantumEvent"),
        (lambda die: (QuantumAlgebra(6).one(), die.event([0])),
         "cannot mix QuantumEvent with BooleanEvent"),
        (lambda die: (QuantumAlgebra(2).one(), QuantumAlgebra(3).one()),
         "events have different dimensions: 2 vs 3"),
        (lambda die: (die.event([0]), die.event([0, 1])),
         "compatibility residuals need quantum events"),
    ], ids=["boolean-quantum", "quantum-boolean", "dims-2-3", "boolean-pair"])
    def test_residuals_refuse_other_operands(self, die, pair, message):
        with pytest.raises(AlgebraMismatch, match=f"^{re.escape(message)}$"):
            compatibility_residuals(*pair(die))


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

    def test_an_atoms_branch_is_its_state(self, die):
        # The bits that the former one-hot and DensityState(event) builders gave.
        weights = np.zeros(6)
        weights[3] = 1.0
        assert atom_state(die.event([3])).weights.tobytes() == weights.tobytes()
        ev = QuantumAlgebra(3).event_from_span([np.array([1.0, 1.0j, 0.0])])
        state = atom_state(ev)
        assert type(state) is DensityState
        assert state.matrix is ev.matrix

    def test_an_accepted_atom_converts(self):
        # The projection check allows a trace 1 +- 1e-9 and a state 1 +- 1e-10:
        # the atom's state is divided by its trace.
        ev = QuantumEvent(np.diag([1 + 5e-10, 0.0, 0.0]))
        want = ev.matrix / (1 + 5e-10)
        assert atom_state(ev).matrix.tobytes() == want.tobytes()
        paths = QuantumEvent(np.diag([1.0, 0.0, 0.0])), QuantumEvent(np.diag([0.0, 1.0, 0.0]))
        report = interference_decomposition(ev, *paths, paths[0])
        assert report.p_total == 1.0

    def test_transition_probability_endpoints(self):
        e1 = StateVector([1.0, 0.0])
        e2 = StateVector([0.0, 1.0])
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        assert rank_one_transition(e1, e2) == 0.0
        assert rank_one_transition(e1, e1) == pytest.approx(1.0, abs=1e-15)
        assert rank_one_transition(plus, e1) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(DimensionMismatch) as exc:
            rank_one_transition(e1, StateVector([1.0, 0.0, 0.0]))
        assert str(exc.value) == "vectors have different dimensions: 2 vs 3"

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
        assert repr(table) == """TableState(names=['E', "E'"])"""

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

    # Events are named by their key in the pool the test builds: e = diag(1, 0)
    # on C^2, c its complement, z the zero event of C^3.
    @pytest.mark.parametrize("events, values, complements, message", [
        ({"E": "e", "E'": "c"}, {"E": 0.7}, {"E": "E'", "E'": "E"},
         "events, values and complements must share one name set"),
        ({}, {}, {}, "table must list at least one event"),
        ({"E": "e", "E'": "z"}, {"E": 0.7, "E'": 0.3}, {"E": "E'", "E'": "E"},
         "all listed events must share one dimension"),
        ({"E": "e", "E'": "c"}, {"E": 0.7, "E'": 0.3}, {"E": "G", "E'": "E"},
         "complement partner 'G' not listed"),
        ({"E": "e", "E'": "c", "G": "e"}, {"E": 0.7, "E'": 0.3, "G": 0.7},
         {"E": "E'", "E'": "G", "G": "E"}, "complement map is not an involution at 'E'"),
        ({"E": "e", "E'": "c"}, {"E": 1.5, "E'": -0.5}, {"E": "E'", "E'": "E"},
         "value of 'E' is 1.5, outside [0, 1]"),
        ({"E": "none", "E'": "c"}, {"E": 0.7, "E'": 0.3}, {"E": "E'", "E'": "E"},
         "event 'E' must be a QuantumEvent, got NoneType"),
        ({"E": "b", "E'": "c"}, {"E": 0.7, "E'": 0.3}, {"E": "E'", "E'": "E"},
         "event 'E' must be a QuantumEvent, got BooleanEvent"),
        ({"E": "e", "E'": "c"}, {"E": None, "E'": 0.3}, {"E": "E'", "E'": "E"},
         "value of 'E' must be a number, got NoneType"),
        ({"E": "e", "E'": "c"}, {"E": "0.7", "E'": 0.3}, {"E": "E'", "E'": "E"},
         "value of 'E' must be a number, got str"),
        ({"E": "e", "E'": "c"}, {"E": True, "E'": 0.3}, {"E": "E'", "E'": "E"},
         "value of 'E' must be a number, got bool"),
        ({"E": "e", "E'": "c"}, {"E": 10 ** 400, "E'": 0.3}, {"E": "E'", "E'": "E"},
         "value of 'E' must fit in a float"),
    ], ids=["names", "empty", "dimensions", "partner", "involution", "range", "none-event",
            "boolean-event", "none-value", "string-value", "bool-value", "huge-value"])
    def test_construction_errors(self, events, values, complements, message):
        # A non-event entry used to end in AttributeError and a non-number
        # value in TypeError or OverflowError.
        _, e = self._pair()
        pool = {"e": e, "c": complement(e), "z": QuantumAlgebra(3).zero(), "none": None,
                "b": BooleanAlgebra(2).one()}
        with pytest.raises(ValidationError) as exc:
            TableState({name: pool[key] for name, key in events.items()}, values, complements)
        assert str(exc.value) == message

    def test_contract_checker_on_an_impossible_condition(self):
        alg, e = self._pair()
        table = TableState({"E": e, "E'": complement(e)},
                           {"E": 0.7, "E'": 0.3},
                           {"E": "E'", "E'": "E"})
        base = DensityState(np.diag([0.0, 1.0]))
        assert conditioning_contract_violations(table, base, "E") == \
            ["base state gives 'E' probability 0.0"]

    @pytest.mark.parametrize("name", ["X", ["E"]])
    def test_contract_checker_on_an_unlisted_condition(self, name):
        # Used to end in KeyError, or TypeError for an unhashable name.
        alg, e = self._pair()
        table = TableState({"E": e, "E'": complement(e)},
                           {"E": 0.7, "E'": 0.3},
                           {"E": "E'", "E'": "E"})
        with pytest.raises(ValidationError) as exc:
            conditioning_contract_violations(table, DensityState(np.eye(2) / 2.0), name)
        assert str(exc.value) == f"condition_name {name!r} is not listed in the table"

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

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan, "1", True, 10 ** 400],
                             ids=["inf", "-inf", "nan", "str", "bool", "past-float"])
    def test_angle_must_be_a_finite_real_number(self, angle):
        # Before, inf ended in math.cos's "math domain error" and nan in
        # "span vector entries must be finite".
        with pytest.raises(ValidationError, match=re.escape(
                f"angle must be a finite real number, got {angle!r}")):
            qubit_nonuniqueness_demo(angle=angle)

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


# ---------------------------------------------------------------------------
# Oracles from the paper's definition: a conditional probability is
# state-independent when it takes the same value in every state.  The d^2
# states of helpers.state_family are informationally complete, so the
# spread of P(E | F) over them is zero exactly when F E F = s F.  On the
# pairs below the spread is at most 6.7e-16 where the pair is predictable
# and at least 7.8e-4 where it is not.
FAMILY_SPREAD = 1e-9


def _predictability_pairs(dim, rng):
    """(target E, given F) pairs on C^dim: generic, atom given, F <= E,
    F _|_ E, F E F = cos^2(t) F, and F E F = sum_i cos^2(t_i) f_i f_i^H,
    which is a multiple of F only when F is an atom."""
    alg = QuantumAlgebra(dim)
    pairs = []
    for _ in range(4):
        u = random_unitary(dim, rng)
        b = int(rng.integers(1, dim // 2 + 1))
        f = frame_event(alg, u[:, :b])
        angles = rng.uniform(0.2, 1.3, size=b)
        tilted = np.cos(angles) * u[:, :b] + np.sin(angles) * u[:, b:2 * b]
        level = np.cos(angles[0]) * u[:, :b] + np.sin(angles[0]) * u[:, b:2 * b]
        generic = alg.event(random_projection(dim, int(rng.integers(1, dim)), rng))
        pairs += [
            (generic, alg.event(random_projection(dim, int(rng.integers(2, dim)), rng))),
            (generic, frame_event(alg, u[:, b:b + 1])),
            (frame_event(alg, u[:, :b + 1]), f),
            (frame_event(alg, u[:, b:]), f),
            (frame_event(alg, level), f),
            (frame_event(alg, tilted), f),
        ]
    return pairs


def _family_values(target, given, mix, conditioned):
    return np.array([prob(conditioned(rho, given), target) for rho in state_family(mix)])


class TestPredictabilityFamilyOracle:
    """predictability and predictability_seq against the spread of the
    conditional probability over an informationally complete family."""

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_verdict_is_a_constant_conditional(self, dim):
        rng = np.random.default_rng(dim)
        verdicts = set()
        for target, given in _predictability_pairs(dim, rng):
            result = predictability(target, given)
            p = _family_values(target, given, given.matrix / given.rank, condition)
            assert (np.ptp(p) <= FAMILY_SPREAD) == result.predictable, np.ptp(p)
            if result.predictable:
                assert np.abs(p - result.s).max() <= FAMILY_SPREAD
            verdicts.add(result.predictable)
        assert verdicts == {True, False}

    def test_sec7_pair(self):
        _, e, f = half_transition_pair()
        for target, given in ((f, e), (e, f)):
            p = _family_values(target, given, given.matrix / given.rank, condition)
            assert predictability(target, given).predictable
            assert np.abs(p - 0.5).max() <= FAMILY_SPREAD

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_sequence_verdict_is_a_constant_conditional(self, dim):
        # The family is mixed with M M^H / tr(M M^H), M = F1 ... Fn, the
        # operator whose expectation is the probability of the sequence.
        rng = np.random.default_rng(100 + dim)
        alg = QuantumAlgebra(dim)
        verdicts = set()
        for target, given in _predictability_pairs(dim, rng):
            first = alg.event(random_projection(dim, int(rng.integers(2, dim)), rng))
            for seq in ([first, given], [given, first, given], [first, target]):
                m = seq[0].matrix
                for ev in seq[1:]:
                    m = m @ ev.matrix
                b = _symmetrized(m @ m.conj().T)
                result = predictability_seq(target, seq)
                p = _family_values(target, seq, b / b.trace().real, condition_seq)
                assert (np.ptp(p) <= FAMILY_SPREAD) == result.predictable, np.ptp(p)
                if result.predictable:
                    assert np.abs(p - result.s).max() <= FAMILY_SPREAD
                verdicts.add(result.predictable)
        assert verdicts == {True, False}


class TestSpinFactorOracle:
    """Closed forms on the spin factor: P_v = (1 + v.sigma)/2 of unit vectors
    v, w, u in R^(2k+1) with entries 0 and +-1/2 on C^(2^k).  (P_w, P_v) is
    predictable with s = (1 + v.w)/2 although neither event is an atom and
    the pair does not commute; every product is exact, so each value is
    pinned bit for bit, whatever the BLAS kernel.  Last come C^2, where the
    P_v are atoms, and rational vectors, pinned within a stated bound."""

    V = np.array([0.5, 0.5, 0.5, 0.5, 0.0])
    W = np.array([0.5, 0.5, 0.5, -0.5, 0.0])
    U = np.array([0.0, 0.5, -0.5, 0.5, 0.5])

    @pytest.fixture(params=[4, 8, 16, 64])
    def sigmas(self, request):
        return spin_system(request.param.bit_length() - 1)

    def test_events_are_projections_of_half_rank(self, sigmas):
        dim = sigmas.shape[-1]
        products = np.einsum("iab,jbc->ijac", sigmas, sigmas)
        assert np.array_equal(products + products.transpose(1, 0, 2, 3),
                              2 * np.einsum("ij,ab->ijab", np.eye(len(sigmas)), np.eye(dim)))
        for v in (self.V, self.W, self.U):
            p = spin_projection(sigmas, v)
            assert p.rank == dim // 2
            assert not is_atom(p)

    def test_predictability_is_the_closed_form(self, sigmas):
        result = predictability(spin_projection(sigmas, self.W), spin_projection(sigmas, self.V))
        assert result.predictable
        assert result.s == (1 + self.V @ self.W) / 2 == 0.75
        assert result.residual == 0.0

    def test_sequence_predictability_is_the_closed_form(self, sigmas):
        result = predictability_seq(spin_projection(sigmas, self.U),
                                    [spin_projection(sigmas, self.V),
                                     spin_projection(sigmas, self.W)])
        assert result.predictable
        assert result.s == (1 + self.W @ self.U) / 2 == 0.375
        assert result.residual == 0.0

    def test_orthogonal_exactly_for_opposite_vectors(self, sigmas):
        pv = spin_projection(sigmas, self.V)
        assert orthogonal(pv, spin_projection(sigmas, -self.V))
        assert not orthogonal(pv, spin_projection(sigmas, self.W))
        assert not orthogonal(pv, pv)

    def test_complement_is_the_opposite_vector(self, sigmas):
        for v in (self.V, self.W, self.U):
            assert complement(spin_projection(sigmas, v)).matrix.tobytes() == \
                spin_projection(sigmas, -v).matrix.tobytes()

    def test_compatible_exactly_for_parallel_vectors(self, sigmas):
        pv, pw = spin_projection(sigmas, self.V), spin_projection(sigmas, self.W)
        assert compatible(pv, pv)
        assert compatible(pv, spin_projection(sigmas, -self.V))
        assert not compatible(pv, pw)
        assert not compatible(pw, spin_projection(sigmas, self.U))

    def test_condition_is_the_closed_form(self, sigmas):
        # The state P_w / tr P_w, compressed by P_v, is s P_v / tr P_w with
        # s = 3/4: conditioning gives P_v / tr P_v.
        dim = sigmas.shape[-1]
        pv, pw = spin_projection(sigmas, self.V), spin_projection(sigmas, self.W)
        conditioned = condition(DensityState(pw.matrix / (dim // 2)), pv)
        assert conditioned.matrix.tobytes() == (pv.matrix / (dim // 2)).tobytes()
        assert prob(conditioned, pw) == 0.75

    def test_sampled_chain_predicts_the_closed_form(self, sigmas):
        dim = sigmas.shape[-1]
        result = sample_chain(DensityState(np.eye(dim) / dim),
                              [spin_projection(sigmas, self.V), spin_projection(sigmas, self.W)],
                              spin_projection(sigmas, self.U), SamplerConfig(trials=100))
        assert result.predicted_p == (1 + self.W @ self.U) / 2 == 0.375

    def test_qubit_atoms_are_the_closed_form(self):
        # k = 1: on C^2 each P_v is a rank-one atom.  The axes of R^3 are the
        # unit vectors with entries 0 and +-1, so every product is exact.
        sigmas = spin_system(1)
        pv, pw, pu = (spin_projection(sigmas, axis) for axis in np.eye(3))
        minus = spin_projection(sigmas, -np.eye(3)[0])
        assert all(p.rank == 1 and is_atom(p) for p in (pv, pw, pu, minus))
        result = predictability(pw, pv)
        assert (result.predictable, result.s, result.residual) == (True, 0.5, 0.0)
        result = predictability_seq(pu, [pv, pw])
        assert (result.predictable, result.s, result.residual) == (True, 0.5, 0.0)
        assert orthogonal(pv, minus) and not orthogonal(pv, pw) and not orthogonal(pv, pv)
        assert complement(pv).matrix.tobytes() == minus.matrix.tobytes()
        assert compatible(pv, minus) and not compatible(pv, pw)
        with pytest.warns(NonUniqueConditioningWarning):
            conditioned = condition(DensityState(pw.matrix), pv)
        assert conditioned.matrix.tobytes() == pv.matrix.tobytes()
        assert prob(conditioned, pw) == 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueConditioningWarning)
            result = sample_chain(DensityState(np.eye(2) / 2), [pv, pw], pu,
                                  SamplerConfig(trials=100))
        assert result.predicted_p == 0.5

    # Rational unit vectors of R^3: no entry of P_v is exact, so each closed
    # form holds within BOUND, relative to ||P_v||_F for the residuals.  The
    # largest error measured on SkylakeX, Haswell, Sandybridge and Katmai
    # cores was 2.3e-16 for s and 1.6e-16 relative for a residual.
    RATIONAL = (np.array([1.0, 2.0, 2.0]) / 3, np.array([2.0, 3.0, 6.0]) / 7,
                np.array([2.0, -1.0, 2.0]) / 3)
    V_W, W_U = Fraction(2 + 6 + 12, 21), Fraction(4 - 3 + 12, 21)
    BOUND = 4e-16

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_rational_family_within_the_bound(self, k):
        sigmas = spin_system(k)
        dim = sigmas.shape[-1]
        pv, pw, pu = (spin_projection(sigmas, v) for v in self.RATIONAL)
        scale = pv._norm
        result = predictability(pw, pv)
        assert result.predictable
        assert abs(result.s - float((1 + self.V_W) / 2)) <= self.BOUND
        assert result.residual <= self.BOUND * scale
        result = predictability_seq(pu, [pv, pw])
        assert result.predictable
        assert abs(result.s - float((1 + self.W_U) / 2)) <= self.BOUND
        assert result.residual <= self.BOUND * scale
        minus = spin_projection(sigmas, -self.RATIONAL[0])
        assert orthogonal(pv, minus) and not orthogonal(pv, pw)
        assert np.abs(complement(pv).matrix - minus.matrix).max() <= self.BOUND
        assert compatible(pv, minus) and not compatible(pv, pw)
        assert is_atom(pv) is (dim == 2)
        half = max(1, dim // 2)  # the rank of every P_v
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueConditioningWarning)
            conditioned = condition(DensityState(pw.matrix / half), pv)
            chain = sample_chain(DensityState(np.eye(dim) / dim), [pv, pw], pu,
                                 SamplerConfig(trials=100))
        assert np.abs(conditioned.matrix - pv.matrix / half).max() <= self.BOUND
        assert abs(prob(conditioned, pw) - float((1 + self.V_W) / 2)) <= self.BOUND
        assert abs(chain.predicted_p - float((1 + self.W_U) / 2)) <= self.BOUND


class TestBooleanDiagonalStates:
    """A classical state and an event agree with their diagonal images: the
    density matrix diag(w) and the 0/1 diagonal projection."""

    @pytest.mark.parametrize("size", range(1, 9))
    def test_state_layer_agrees(self, size):
        rng = np.random.default_rng(size)
        boolean, quantum = BooleanAlgebra(size), QuantumAlgebra(size)

        def diagonal(ev):
            return quantum.event(np.diag([float(i in ev.members) for i in range(size)]))

        events = [boolean.event(np.flatnonzero(rng.random(size) < 0.5)) for _ in range(5)]
        events += [complement(ev) for ev in events] + [boolean.zero(), boolean.one()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueConditioningWarning)
            for _ in range(3):
                weights = rng.dirichlet(np.ones(size))
                classical = ClassicalState(boolean.space, weights)
                density = DensityState(np.diag(weights).astype(np.complex128))
                for b in events:
                    qb = diagonal(b)
                    np.testing.assert_allclose(prob(density, qb), prob(classical, b),
                                               rtol=1e-14, atol=0)
                    if not b.members:
                        for state, given in ((classical, b), (density, qb)):
                            with pytest.raises(ZeroProbabilityCondition):
                                condition(state, given)
                            with pytest.raises(ZeroEvent):
                                predictability(given, given)
                        continue
                    conditioned = condition(density, qb).matrix
                    np.testing.assert_allclose(np.diag(conditioned).real,
                                               condition(classical, b).weights,
                                               rtol=1e-14, atol=0)
                    assert not (conditioned - np.diag(np.diag(conditioned))).any()
                    for a in events:
                        qa = diagonal(a)
                        verdict, image = predictability(a, b), predictability(qa, qb)
                        assert image.predictable == verdict.predictable
                        assert image.s == verdict.s
                        assert compatible(qa, qb) == compatible(a, b)

    def test_chains_agree(self):
        # Weights in eighths make every first-level probability exact, so
        # both kinds condition, certify and sample from the same numbers.
        size = 6
        boolean, quantum = BooleanAlgebra(size), QuantumAlgebra(size)

        def diagonal(ev):
            return quantum.event(np.diag([float(i in ev.members) for i in range(size)]))

        weights = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0]) / 8.0
        classical = ClassicalState(boolean.space, weights)
        density = DensityState(np.diag(weights).astype(np.complex128))
        e, f, g = boolean.event([0, 1, 2, 3]), boolean.event([1, 2, 4]), boolean.event([1, 5])
        chains = [([e, f], boolean.event([1, 2])), ([e, f], boolean.event([0, 4])),
                  ([e, f], g), ([f, e, g], e), ([f, e, complement(g)], g), ([g], f),
                  ([e, complement(g), f], g)]
        config = SamplerConfig(seed=7, trials=200_000)
        verdicts = set()
        for tests, final in chains:
            images = [diagonal(t) for t in tests]
            conditioned = np.diag(condition_seq(density, images).matrix).real
            assert np.array_equal(conditioned, condition_seq(classical, tests).weights)
            verdict = predictability_seq(final, tests)
            image = predictability_seq(diagonal(final), images)
            assert (image.predictable, image.s) == (verdict.predictable, verdict.s)
            verdicts.add(verdict.predictable)
            got = sample_chain(classical, tests, final, config)
            want = sample_chain(density, images, diagonal(final), config)
            assert got.outcome_counts == want.outcome_counts
            assert got.final_event_yes_count == want.final_event_yes_count
            assert got.predicted_p == want.predicted_p
        assert verdicts == {True, False}


def _compatibility_pairs(dim, rng):
    """(E, F) pairs on C^dim with F neither 0 nor 1: column subsets of one
    Haar frame, which commute, and pairs from two frames, which do not."""
    alg = QuantumAlgebra(dim)
    pairs = []
    for _ in range(20):
        u = random_unitary(dim, rng)
        cols = rng.permutation(dim)
        f_rank = int(rng.integers(1, dim))
        e_cols = np.flatnonzero(rng.random(dim) < 0.5)
        pairs.append((frame_event(alg, u[:, e_cols]), frame_event(alg, u[:, cols[:f_rank]])))
        pairs.append((alg.event(random_projection(dim, int(rng.integers(1, dim)), rng)),
                      alg.event(random_projection(dim, int(rng.integers(1, dim)), rng))))
    return pairs


class TestCompatibilityFamilyOracle:
    """compatible against the law of total probability,
    P(E) = P(F) P(E|F) + P(F') P(E|F'), over an informationally complete
    family: it holds in every member exactly when E = FEF + F'EF', that is
    when E and F commute.  On the pairs below the largest violation is
    about 4.7e-16 where they commute and at least 1.2e-2 where they do not."""

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_verdict_is_total_probability(self, dim):
        rng = np.random.default_rng(200 + dim)
        family = state_family(np.eye(dim) / dim)
        verdicts = set()
        for e, f in _compatibility_pairs(dim, rng):
            f_prime = complement(f)
            violation = max(
                abs(prob(rho, e) - prob(rho, f) * prob(condition(rho, f), e)
                    - prob(rho, f_prime) * prob(condition(rho, f_prime), e))
                for rho in family)
            assert (violation <= FAMILY_SPREAD) == compatible(e, f), violation
            verdicts.add(compatible(e, f))
        assert verdicts == {True, False}


class TestUnitaryCovariance:
    """The state layer commutes with a change of basis rho -> U rho U^H,
    E -> U E U^H: probabilities, conditional states, predictability and
    compatibility move with the basis.  The pairs are exact frame pairs
    and generic pairs, far from every tolerance boundary."""

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_state_layer_is_covariant(self, dim):
        rng = np.random.default_rng(300 + dim)
        alg = QuantumAlgebra(dim)
        verdicts = set()
        for target, given in _predictability_pairs(dim, rng):
            u = random_unitary(dim, rng)

            def turned(x):
                return _symmetrized(u @ x.matrix @ u.conj().T)

            u_target, u_given = alg.event(turned(target)), alg.event(turned(given))
            for _ in range(2):
                rho = random_density_state(dim, rng)
                u_rho = DensityState(turned(rho))
                for ev, u_ev in ((target, u_target), (given, u_given)):
                    assert abs(prob(u_rho, u_ev) - prob(rho, ev)) <= 1e-12
                np.testing.assert_allclose(condition(u_rho, u_given).matrix,
                                           turned(condition(rho, given)), rtol=0, atol=1e-12)
            result, u_result = predictability(target, given), predictability(u_target, u_given)
            assert u_result.predictable == result.predictable
            assert abs(u_result.s - result.s) <= 1e-12
            assert compatible(u_target, u_given) == compatible(target, given)
            verdicts.add((result.predictable, compatible(target, given)))
        assert {p for p, _ in verdicts} == {True, False}
        assert {c for _, c in verdicts} == {True, False}
