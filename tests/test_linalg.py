"""Kernel tests: constructors, Jordan operations, span projectors.

Expected matrices below are hand-derived from the rank-2 pair
E = diag(1,1,0,0), F = the half-pattern projection; every entry is dyadic,
so equality checks are exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoprob.linalg
import orthoprob.states
from orthoprob.errors import DimensionMismatch, EmptyInput, ValidationError
from orthoprob.events import QuantumAlgebra, QuantumEvent, complement
from orthoprob.linalg import (SPAN_DROP, HermitianOperator, Projection, StateVector,
                              _frobenius_norms, _jp, _projection_checks, _slices,
                              _symmetrized, _within, jordan_product, projector_from_span,
                              quadratic_triple, random_unitary, triple_product)
from orthoprob.states import DensityState

from helpers import (is_positive_semidefinite, matmul, min_eigenvalue,
                     random_density_matrix, random_hermitian,
                     random_orthogonal_projections, random_projection)

E4 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
F4 = 0.5 * np.array([[1, 0, 1, 0],
                     [0, 1, 0, 1],
                     [1, 0, 1, 0],
                     [0, 1, 0, 1]], dtype=np.complex128)

# E @ F keeps the first two rows of F and zeroes the rest.
EF_PRODUCT = 0.5 * np.array([[1, 0, 1, 0],
                             [0, 1, 0, 1],
                             [0, 0, 0, 0],
                             [0, 0, 0, 0]], dtype=np.complex128)

# (EF + FE)/2 entrywise.
EF_JORDAN = np.array([[0.50, 0.00, 0.25, 0.00],
                      [0.00, 0.50, 0.00, 0.25],
                      [0.25, 0.00, 0.00, 0.00],
                      [0.00, 0.25, 0.00, 0.00]], dtype=np.complex128)


class TestConstructors:
    def test_hermitian_accepts_and_freezes(self):
        op = HermitianOperator(F4)
        assert op.dim == 4
        assert op.matrix.trace().real == pytest.approx(2.0)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 9.0

    def test_hermitian_rejects_skew(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_rejects_nan(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_hermitian_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((2, 3)))

    def test_hermitian_rejects_complex_diagonal(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[1.0 + 1e-9j, 0.0], [0.0, 1.0]]))

    def test_projection_ranks(self):
        assert Projection(E4).rank == 2
        assert Projection(F4).rank == 2
        assert Projection(np.zeros((3, 3))).rank == 0
        assert Projection(np.eye(3)).rank == 3

    def test_projection_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            Projection(np.diag([1.0, 0.5]))

    def test_projection_rejects_drifted_trace(self):
        # 100 eigenvalues each 2e-10 above 1: the idempotency residual stays
        # inside TOL_IDEMPOTENT * scale but the accumulated trace offset does
        # not.
        m = np.diag(np.full(100, 1.0 + 2e-10))
        with pytest.raises(ValidationError) as exc:
            Projection(m)
        assert str(exc.value) == "projection trace 100.00000002 is not an admissible integer rank"

    def test_state_vector_norm(self):
        StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            StateVector(np.array([0.0, 0.0]))

    def test_state_vector_shape(self):
        with pytest.raises(ValidationError) as exc:
            StateVector(np.eye(2))
        assert str(exc.value) == "state vector must be 1-d and nonempty, got shape (2, 2)"

    def test_state_vector_projector(self):
        v = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        p = v.projector()
        assert p.rank == 1
        assert np.allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_state_vector_equality_and_repr(self):
        v = StateVector(np.array([1.0, 0.0]))
        assert v == StateVector([1.0, 0.0])
        assert v != StateVector([0.0, 1.0])
        assert v != "v" and v.__eq__(v.vector) is NotImplemented
        assert repr(v) == "StateVector(dim=2)"


class TestProducts:
    def test_matmul_half_pair(self):
        assert np.array_equal(matmul(E4, F4), EF_PRODUCT)

    def test_matmul_identity_and_zero(self):
        a = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), a), a)
        assert np.array_equal(matmul(a, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(np.eye(2), np.eye(3))

    def test_jordan_half_pair_entries(self):
        got = jordan_product(HermitianOperator(E4), HermitianOperator(F4))
        assert np.array_equal(got.matrix, EF_JORDAN)

    def test_jordan_square_collapses(self):
        f = HermitianOperator(F4)
        assert np.array_equal(jordan_product(f, f).matrix, F4 @ F4)

    def test_jordan_unit(self):
        rng = np.random.default_rng(7)
        y = random_hermitian(4, rng)
        eye = HermitianOperator(np.eye(4))
        assert np.allclose(jordan_product(eye, y).matrix, y.matrix, atol=1e-15)

    def test_jordan_commutative_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_hermitian(5, rng)
            y = random_hermitian(5, rng)
            assert np.array_equal(jordan_product(x, y).matrix,
                                  jordan_product(y, x).matrix)

    def test_jordan_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            jordan_product(HermitianOperator(np.eye(2)),
                           HermitianOperator(np.eye(3)))


class TestTripleProduct:
    def test_half_pair_compressions(self):
        assert np.array_equal(quadratic_triple(E4, F4).matrix, 0.5 * E4)
        assert np.array_equal(quadratic_triple(F4, E4).matrix, 0.5 * F4)

    def test_compression_against_basis_oracle(self):
        # F = sum of projectors onto (e1+e3)/sqrt2 and (e2+e4)/sqrt2, so
        # FEF = sum_kl f_k <f_k|E f_l> f_l^H can be assembled directly.
        f1 = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        f2 = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
        basis = [f1, f2]
        expected = np.zeros((4, 4), dtype=np.complex128)
        for fk in basis:
            for fl in basis:
                expected += np.outer(fk, fl.conj()) * np.vdot(fk, E4 @ fl)
        got = quadratic_triple(F4, E4).matrix
        assert np.allclose(got, expected, atol=1e-15)
        assert np.allclose(got, 0.5 * F4, atol=1e-15)

    def test_symmetric_form_matches_matrix_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = random_hermitian(4, rng)
            y = random_hermitian(4, rng)
            via_jordan = triple_product(x, y, x).matrix
            via_matmul = quadratic_triple(x, y).matrix
            assert np.allclose(via_jordan, via_matmul, atol=1e-13)

    def test_jordan_identity(self):
        # (X o Y) o X^2 = X o (Y o X^2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = random_hermitian(5, rng)
            y = random_hermitian(5, rng)
            x2 = jordan_product(x, x)
            lhs = jordan_product(jordan_product(x, y), x2)
            rhs = jordan_product(x, jordan_product(y, x2))
            assert np.allclose(lhs.matrix, rhs.matrix, atol=1e-13)

    def test_nested_compression_identity(self):
        # {{X,Y,X}, Z, {X,Y,X}} = {X, {Y, {X,Z,X}, Y}, X}
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = random_hermitian(4, rng)
            y = random_hermitian(4, rng)
            z = random_hermitian(4, rng)
            xyx = triple_product(x, y, x)
            lhs = triple_product(xyx, z, xyx)
            inner = triple_product(y, triple_product(x, z, x), y)
            rhs = triple_product(x, inner, x)
            assert np.allclose(lhs.matrix, rhs.matrix, atol=1e-12)

    def test_squared_compression_identity(self):
        # {X,Y,X}^2 = {X, {Y, X^2, Y}, X}
        rng = np.random.default_rng(17)
        for _ in range(30):
            x = random_hermitian(4, rng)
            y = random_hermitian(4, rng)
            xyx = triple_product(x, y, x).matrix
            lhs = xyx @ xyx
            inner = triple_product(y, jordan_product(x, x), y)
            rhs = triple_product(x, inner, x).matrix
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestSpanProjector:
    def test_plane_diagonal_vector(self):
        p = projector_from_span([np.array([1.0, 1.0, 0.0])])
        expected = np.array([[0.5, 0.5, 0.0],
                             [0.5, 0.5, 0.0],
                             [0.0, 0.0, 0.0]])
        assert p.rank == 1
        assert np.allclose(p.matrix, expected, atol=1e-15)

    def test_dependent_vectors_dropped(self):
        vs = [np.array([1.0, 0.0, 0.0]),
              np.array([2.0, 0.0, 0.0]),
              np.array([0.0, 1.0, 0.0])]
        p = projector_from_span(vs)
        assert p.rank == 2
        assert np.allclose(p.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_complex_span(self):
        p = projector_from_span([np.array([1.0, 1.0j]) / np.sqrt(2.0)])
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert np.allclose(p.matrix, expected, atol=1e-15)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            projector_from_span([])

    @pytest.mark.parametrize("vectors", [
        [[1e200, 1e200]],
        [[1.0, 0.0], [0.0, 1e300j]],
    ])
    def test_overflowing_norm_rejected(self, vectors):
        # An inf norm made the default drop threshold inf, so every vector
        # was dropped and the zero projection came back.
        with np.errstate(over="ignore"), \
                pytest.raises(ValidationError, match="span vector norm inf is not finite"):
            projector_from_span([np.array(v) for v in vectors])

    @pytest.mark.parametrize("vectors, error, message", [
        ([np.eye(2)], ValidationError, "span vectors must be 1-d"),
        ([np.array([1.0, np.nan])], ValidationError, "span vector entries must be finite"),
        ([np.ones(2), np.ones(3)], DimensionMismatch,
         "span vectors have different lengths: [2, 3]"),
    ], ids=["not-1-d", "not-finite", "lengths"])
    def test_malformed_vectors_rejected(self, vectors, error, message):
        with pytest.raises(error) as exc:
            projector_from_span(vectors)
        assert str(exc.value) == message

    @pytest.mark.parametrize("build", [projector_from_span,
                                       lambda vs: QuantumAlgebra(2).event_from_span(vs)])
    def test_vectors_must_be_a_sequence(self, build):
        with pytest.raises(ValidationError,
                           match="^vectors must be a sequence of vectors, got list_iterator$"):
            build(iter([np.array([1.0, 0.0])]))
        # A 2-d array of row vectors is not a Sequence, and is taken as one.
        assert build(np.array([[1.0, 0.0], [0.0, 1.0]])).rank == 2

    @pytest.mark.parametrize("vectors", [
        [np.array([1.0, np.nan]), np.eye(2)],
        [np.array([np.inf, 0.0]), np.ones(3)],
        [np.ones(2), np.array([0.0, np.nan]), "not a number"],
    ], ids=["then-2-d", "then-length", "then-unreadable"])
    def test_an_earlier_fault_is_reported_first(self, vectors):
        with pytest.raises(ValidationError, match="^span vector entries must be finite$"):
            projector_from_span(vectors)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 16, 64])
    def test_bits_of_the_per_vector_reference(self, dim):
        """The stacked norms and the broadcast outer products give the bits
        of np.linalg.norm and np.outer taken one vector at a time."""
        def reference(cols):
            drop = SPAN_DROP * max(float(np.linalg.norm(c)) for c in cols)
            basis = []
            for v in cols:
                w = v.copy()
                for _ in range(2):
                    for q in basis:
                        w = w - np.vdot(q, w) * q
                nrm = float(np.linalg.norm(w))
                if nrm > drop:
                    basis.append(w / nrm)
            p = np.zeros((dim, dim), dtype=np.complex128)
            for q in basis:
                p += np.outer(q, q.conj())
            return _symmetrized(p)

        rng = np.random.default_rng(dim)
        for k in (1, 2, dim, dim + 2):
            cols = list(rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim)))
            cols.append(cols[0] * 3.0)  # dependent: dropped
            assert projector_from_span(cols).matrix.tobytes() == reference(cols).tobytes()

    def test_large_in_range_vector(self):
        p = projector_from_span([np.array([1e150, 1e150])])
        assert p.rank == 1
        assert np.allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_full_span_is_identity(self):
        rng = np.random.default_rng(23)
        u = random_unitary(5, rng)
        p = projector_from_span(list(u.T))
        assert p.rank == 5
        assert np.allclose(p.matrix, np.eye(5), atol=1e-13)


class TestSpectralHelpers:
    def test_min_eigenvalue(self):
        assert min_eigenvalue(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)

    def test_psd_check(self):
        assert is_positive_semidefinite(np.diag([0.0, 1.0]))
        assert not is_positive_semidefinite(np.diag([-1e-6, 1.0]))
        assert is_positive_semidefinite(np.diag([-1e-12, 1.0]))


# Inputs every public validator rejects, with the exact message.
MALFORMED = [
    (np.array([[1.0, np.nan], [np.nan, 0.0]]), "matrix entries must be finite"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    (np.zeros((2, 3)), "matrix must be square, got shape (2, 3)"),
    (np.zeros(4), "matrix must be square, got shape (4,)"),
    (np.zeros((0, 0)), "matrix must be at least 1x1"),
]
NON_HERMITIAN = [
    (np.array([[1.0, 1.0], [0.0, 0.0]]),
     "matrix is not Hermitian: max |A - A^H| = 1.000e+00 exceeds 1.0e-10"),
    (np.diag([1.0 + 1e-9j, 0.0]),
     "matrix is not Hermitian: max |A - A^H| = 2.000e-09 exceeds 1.0e-10"),
]


class TestPublicValidators:
    """User-supplied matrices are always checked in full."""

    @pytest.mark.parametrize("entries, message", MALFORMED + NON_HERMITIAN)
    @pytest.mark.parametrize("build", [HermitianOperator, Projection])
    def test_constructors_reject(self, build, entries, message):
        with pytest.raises(ValidationError) as exc:
            build(entries)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entries, message", MALFORMED)
    def test_jordan_operations_reject(self, entries, message):
        for operation in (jordan_product, quadratic_triple):
            with pytest.raises(ValidationError) as exc:
                operation(entries, np.eye(2))
            assert str(exc.value) == message

    @pytest.mark.parametrize("entries", [
        [[1e200, 1e200], [1e200, -1e200]],  # P@P holds inf - inf = NaN
        [[0.0, 1e200], [1e200, 0.0]],       # ||P||_F, hence the bound, is inf
    ])
    def test_projection_rejects_overflow(self, entries):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match="not idempotent"):
            Projection(np.array(entries))


def _no_scan(operator, entries):
    raise AssertionError("the Hermitian scan ran")


class TestAdoptedResults:
    """Complements and Jordan products skip the Hermitian scan, which
    could never fail on them, and keep the bits, ranks and norms that the
    public constructors gave them."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 16])
    def test_bitwise_equal_to_the_constructors(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        cases = []
        for _ in range(10):
            # A user's projection, Hermitian only within TOL_HERMITIAN, makes
            # a complement with the same skew.
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng).matrix
            loose = QuantumEvent(p + 1e-12 * (rng.normal(size=p.shape)
                                               + 1j * rng.normal(size=p.shape)))
            x, y, z = (random_hermitian(dim, rng) for _ in range(3))
            want = [QuantumEvent(np.eye(dim) - loose.matrix),
                    HermitianOperator(_jp(x.matrix, y.matrix)),
                    HermitianOperator(_jp(x.matrix, _jp(y.matrix, z.matrix))
                                      - _jp(y.matrix, _jp(z.matrix, x.matrix))
                                      + _jp(z.matrix, _jp(x.matrix, y.matrix))),
                    HermitianOperator(_symmetrized(x.matrix @ y.matrix @ x.matrix))]
            cases.append(((loose, x, y, z), want))
        monkeypatch.setattr(HermitianOperator, "__init__", _no_scan)
        for (loose, x, y, z), want in cases:
            got = [complement(loose), jordan_product(x, y), triple_product(x, y, z),
                   quadratic_triple(x, y)]
            for g, w in zip(got, want):
                assert type(g) is type(w)
                assert g.matrix.tobytes() == w.matrix.tobytes()
                assert not g.matrix.flags.writeable
            assert (got[0].rank, got[0]._norm) == (want[0].rank, want[0]._norm)

    def test_overflow_is_still_refused(self):
        big = HermitianOperator(np.diag([1e200, 1.0]))
        for operation in (jordan_product, quadratic_triple):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValidationError, match="^matrix entries must be finite$"):
                operation(big, big)


def _no_call(*args, **kwargs):
    raise AssertionError("a second check ran")


class TestAdoptionRule:
    """A constructor given an operator takes its matrix without the
    Hermitian scan and runs only the check its own class adds."""

    @pytest.fixture
    def operators(self):
        proj = Projection(np.diag([1.0, 0.0]))
        return [proj, QuantumEvent(proj), DensityState(proj)]

    def test_a_plain_operator_takes_any_operator(self, operators, monkeypatch):
        monkeypatch.setattr(orthoprob.linalg, "_square_complex", _no_call)
        for op in operators:
            taken = HermitianOperator(op)
            assert type(taken) is HermitianOperator
            assert taken.matrix is op.matrix

    def test_a_projection_takes_rank_and_norm(self, operators, monkeypatch):
        monkeypatch.setattr(orthoprob.linalg, "_square_complex", _no_call)
        monkeypatch.setattr(orthoprob.linalg, "_projection_checks", _no_call)
        for op in operators[:2]:
            for cls in (Projection, QuantumEvent):
                taken = cls(op)
                assert taken.matrix is op.matrix
                assert (taken.rank, taken._norm) == (op.rank, op._norm)

    def test_a_density_state_takes_a_density_state(self, operators, monkeypatch):
        monkeypatch.setattr(orthoprob.linalg, "_square_complex", _no_call)
        monkeypatch.setattr(orthoprob.states, "_check_density_stack", _no_call)
        assert DensityState(operators[2]).matrix is operators[2].matrix
        with pytest.raises(AssertionError, match="a second check ran"):
            DensityState(operators[0])

    def test_each_class_runs_its_own_check(self):
        half = HermitianOperator(np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError, match="^matrix is not idempotent"):
            Projection(half)
        assert DensityState(half).matrix is half.matrix
        with pytest.raises(ValidationError, match="^density matrix trace 2.0 is not 1"):
            DensityState(Projection(np.eye(2)))


def test_within_is_the_relative_rule():
    # residual <= tol * max(1, scale), elementwise: the bound itself passes,
    # a scale below 1 counts as 1, and a NaN residual fails.
    residual = np.array([0.0, 2e-9, 2e-9, 3e-9, np.nan])
    scale = np.array([0.0, 2.0, 0.5, 2.0, 1.0])
    assert _within(residual, 1e-9, scale).tolist() == [True, True, False, False, False]
    assert _within(0.0, 0.0, 7.0)


class TestKernelNorm:
    """The event kernel takes the norms of its own products stacked, with
    _frobenius_norms, and reads the ||P||_F stored by Projection; both are
    bit for bit what np.linalg.norm returns."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
    def test_bitwise_equal_to_frobenius_norm(self, dim):
        p = random_projection(dim, (dim + 1) // 2, np.random.default_rng(dim))
        assert p._norm == np.linalg.norm(p.matrix)
        assert Projection(p.matrix.copy())._norm == np.linalg.norm(p.matrix)

    def test_kernel_norm_accepts_non_hermitian(self):
        assert _frobenius_norms(np.array([[[0.0, 3.0], [4.0, 0.0]]]))[0] == 5.0

    @pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
    def test_stacked_norms_keep_the_bits(self, dim):
        rng = np.random.default_rng(dim)
        a = np.stack([random_projection(dim, r % (dim + 1), rng).matrix for r in range(3)])
        b = np.stack([random_projection(dim, r % (dim + 1), rng).matrix for r in range(5)])
        table = _frobenius_norms(a[:, None] @ b[None])
        for i in range(len(a)):
            assert _frobenius_norms(a[i:i + 1])[0] == np.linalg.norm(a[i])
            for j in range(len(b)):
                assert table[i, j] == np.linalg.norm(a[i] @ b[j])


class TestStackedProjectionChecks:
    """_projection_checks on a stack says of each matrix what the
    Projection constructor says of it alone."""

    def test_matches_the_constructor(self):
        rng = np.random.default_rng(5)
        mats = [random_projection(2, 1, rng).matrix, np.zeros((2, 2)), np.eye(2),
                np.diag([1.0, 0.5]),            # not idempotent
                np.diag([1.0 + 9e-10] * 2),     # idempotent within tol, trace off rank 2
                np.array([[0.0, 1e200], [1e200, 0.0]])]  # overflows
        with np.errstate(over="ignore", invalid="ignore"):
            errors, norms, ranks = _projection_checks(np.stack(mats).astype(np.complex128))
        for m, error, norm, rank in zip(mats, errors, norms, ranks):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    p = Projection(m)
            except ValidationError as exc:
                assert error == str(exc)
            else:
                assert error is None
                assert (norm, rank) == (p._norm, p.rank)
        messages = " | ".join(e for e in errors if e)
        assert "not idempotent" in messages and "admissible integer rank" in messages


class TestRandomGenerators:
    def test_random_unitary(self):
        rng = np.random.default_rng(0)
        u = random_unitary(6, rng)
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    def test_random_hermitian_bounded(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(6, rng)
        assert np.abs(h.matrix).max() <= 1.0

    @pytest.mark.parametrize("rank", [0, 1, 3, 5])
    def test_random_projection_rank(self, rank):
        rng = np.random.default_rng(2)
        p = random_projection(5, rank, rng)
        assert p.rank == rank
        assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) < 1e-12

    def test_random_orthogonal_projections(self):
        rng = np.random.default_rng(4)
        ps = random_orthogonal_projections(7, [2, 3, 1], rng)
        assert [p.rank for p in ps] == [2, 3, 1]
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                assert np.linalg.norm(a.matrix @ b.matrix) < 1e-12

    def test_random_density_matrix(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(4, rng)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert min_eigenvalue(rho) > -1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(count=st.integers(0, 5000), entry_bytes=st.integers(1, 1 << 20),
       bound=st.one_of(st.none(), st.integers(1, 1 << 20)))
def test_slices_cut_every_entry_once_in_whole_parts(count, entry_bytes, bound):
    # The slices cover range(count) once, in order; each but the last holds
    # as many entries as fit in the bound, one at the least.
    parts = _slices(count, entry_bytes, bound)
    step = max(1, (orthoprob.linalg._CALL_BYTES if bound is None else bound) // entry_bytes)
    assert [i for part in parts for i in range(count)[part]] == list(range(count))
    assert all(part.stop - part.start == step for part in parts[:-1])
    assert 0 < parts[-1].stop - parts[-1].start <= step if count else parts == []


def test_slices_read_the_bound_at_the_call(monkeypatch):
    monkeypatch.setattr(orthoprob.linalg, "_CALL_BYTES", 24)
    assert _slices(5, 8) == [slice(0, 3), slice(3, 5)]
    assert _slices(2, 100) == [slice(0, 1), slice(1, 2)]
