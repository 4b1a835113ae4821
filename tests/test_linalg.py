"""Kernel tests: constructors, Jordan operations, span projectors.

Expected matrices below are hand-derived from the rank-2 pair
E = diag(1,1,0,0), F = the half-pattern projection; every entry is dyadic,
so equality checks are exact.
"""

import numpy as np
import pytest

from orthoprob.errors import DimensionMismatch, EmptyInput, ValidationError
from orthoprob.linalg import (HermitianOperator, Projection, StateVector,
                              frobenius_norm, is_positive_semidefinite,
                              jordan_product, matmul, min_eigenvalue,
                              projector_from_span, quadratic_triple,
                              random_density_matrix, random_hermitian,
                              random_orthogonal_projections,
                              random_projection, random_unitary,
                              triple_product)

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
        assert op.trace() == pytest.approx(2.0)
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
            HermitianOperator(np.array([[1.0 + 1e-9j, 0.0], [0.0, 1.0]]),
                              tol=1e-10)

    def test_projection_ranks(self):
        assert Projection(E4).rank == 2
        assert Projection(F4).rank == 2
        assert Projection(np.zeros((3, 3))).rank == 0
        assert Projection(np.eye(3)).rank == 3

    def test_projection_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            Projection(np.diag([1.0, 0.5]))

    def test_projection_rejects_drifted_trace(self):
        # 100 eigenvalues each 2e-4 above 1: the idempotency residual stays
        # inside tol*scale but the accumulated trace offset does not.
        m = np.diag(np.full(100, 1.0 + 2e-4))
        with pytest.raises(ValidationError, match="rank"):
            Projection(m, tol=1e-3)

    def test_state_vector_norm(self):
        StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            StateVector(np.array([0.0, 0.0]))

    def test_state_vector_projector(self):
        v = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        p = v.projector()
        assert p.rank == 1
        assert np.allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)


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

    def test_frobenius_norm(self):
        assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)


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
    def test_frobenius_norm_rejects(self, entries, message):
        with pytest.raises(ValidationError) as exc:
            frobenius_norm(entries)
        assert str(exc.value) == message

    def test_frobenius_norm_accepts_non_hermitian(self):
        assert frobenius_norm(np.array([[0.0, 3.0], [4.0, 0.0]])) == 5.0

    @pytest.mark.parametrize("entries", [
        [[1e200, 1e200], [1e200, -1e200]],  # P@P holds inf - inf = NaN
        [[0.0, 1e200], [1e200, 0.0]],       # ||P||_F, hence the bound, is inf
    ])
    def test_projection_rejects_overflow(self, entries):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match="not idempotent"):
            Projection(np.array(entries))


class TestKernelNorm:
    """The event kernel takes np.linalg.norm of its own products and reads
    the ||P||_F stored by Projection; both are bit for bit what
    frobenius_norm returns."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
    def test_bitwise_equal_to_frobenius_norm(self, dim):
        rng = np.random.default_rng(dim)
        p = random_projection(dim, (dim + 1) // 2, rng)
        q = random_projection(dim, dim // 2, rng)
        assert p._norm == frobenius_norm(p)
        assert Projection(p.matrix.copy())._norm == frobenius_norm(p)
        pq = p.matrix @ q.matrix
        for m in (pq, pq - p.matrix, p.matrix - q.matrix, pq.T, pq[::2, ::2],
                  pq.T[::-1, :]):
            assert float(np.linalg.norm(m)) == frobenius_norm(m)


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
        assert frobenius_norm(p.matrix @ p.matrix - p.matrix) < 1e-12

    def test_random_orthogonal_projections(self):
        rng = np.random.default_rng(4)
        ps = random_orthogonal_projections(7, [2, 3, 1], rng)
        assert [p.rank for p in ps] == [2, 3, 1]
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                assert frobenius_norm(a.matrix @ b.matrix) < 1e-12

    def test_random_density_matrix(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(4, rng)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert min_eigenvalue(rho) > -1e-12
