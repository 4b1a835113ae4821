"""Dense complex matrix kernel.

Validated Hermitian operators, projections and unit vectors, plus the
Jordan-algebra operations (symmetrized product, triple products) that the
event and state layers build on.  Everything is immutable after
construction and every function is pure.  Matrices are dense complex128;
the shipped scenarios are dimension <= 4 and the design ceiling is 64, so
no sparse or structured paths exist.

Construction contract: the public constructors validate everything they
are given.  The private ``_symmetrized_projection`` is used only for
``_symmetrized`` output of internal products and skips only the Hermitian
scan; every projection, however built, passes the idempotency and
trace-rank checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyInput, ValidationError

# Absolute entrywise tolerance for accepting a matrix as Hermitian.
TOL_HERMITIAN = 1e-10
# Relative tolerance for a projection's idempotency residual.
TOL_IDEMPOTENT = 1e-9
# Absolute tolerance for accepting a vector as normalized.
TOL_NORM = 1e-10


def _square_complex(value, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(value, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError(f"{what} must be at least 1x1")
    _require_finite(arr, what)
    return arr


def _require_finite(arr: np.ndarray, what: str = "matrix") -> None:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} entries must be finite")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.flags.writeable = False
    return out


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """Exactly Hermitian average (M + M^H)/2, of one matrix or of each
    matrix in a stack.

    Used to assemble results that are Hermitian in exact arithmetic so the
    constructor tolerance never has to absorb BLAS roundoff skew.
    """
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


class HermitianOperator:
    """A finite square complex matrix equal to its conjugate transpose.

    Self-adjointness is checked entrywise at construction (absolute
    tolerance ``tol``); the stored array is read-only.
    """

    __slots__ = ("_matrix",)

    def __init__(self, entries, tol: float = TOL_HERMITIAN):
        arr = _square_complex(entries)
        skew = np.abs(arr - arr.conj().T).max()
        if skew > tol:
            raise ValidationError(
                f"matrix is not Hermitian: max |A - A^H| = {skew:.3e} exceeds {tol:.1e}")
        self._matrix = _frozen(arr)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def trace(self) -> float:
        return float(self._matrix.trace().real)

    def norm(self) -> float:
        return float(np.linalg.norm(self._matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        return self._matrix.shape == other._matrix.shape and bool(
            np.array_equal(self._matrix, other._matrix))

    __hash__ = None

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class Projection:
    """An orthogonal projection: Hermitian and idempotent.

    The idempotency residual ||P@P - P||_F must stay below
    ``tol * max(1, ||P||_F)`` and the trace must sit within the same bound
    of an integer; that integer is stored as the rank, and ||P||_F is kept
    for the tolerance scales of the event and state layers.
    """

    __slots__ = ("_op", "_rank", "_norm")

    def __init__(self, entries, tol: float = TOL_IDEMPOTENT,
                 hermitian_tol: float = TOL_HERMITIAN):
        op = entries if isinstance(entries, HermitianOperator) else \
            HermitianOperator(entries, tol=hermitian_tol)
        m = op.matrix
        norm = float(np.linalg.norm(m))
        scale = max(1.0, norm)
        residual = float(np.linalg.norm(m @ m - m))
        # Overflow (entries of 1e154 and up) must fail too: it makes the
        # residual NaN or the norm, and with it the bound, infinite.
        if not (residual <= tol * scale and norm < math.inf):
            raise ValidationError(
                f"matrix is not idempotent: ||P@P - P||_F = {residual:.3e} "
                f"exceeds {tol:.1e} * {scale:.3g}")
        tr = float(m.trace().real)
        rank = int(round(tr))
        if abs(tr - rank) > tol * scale or rank < 0 or rank > m.shape[0]:
            raise ValidationError(
                f"projection trace {tr!r} is not an admissible integer rank")
        self._op = op
        self._rank = rank
        self._norm = norm

    @property
    def op(self) -> HermitianOperator:
        return self._op

    @property
    def matrix(self) -> np.ndarray:
        return self._op.matrix

    @property
    def dim(self) -> int:
        return self._op.dim

    @property
    def rank(self) -> int:
        return self._rank

    def __eq__(self, other) -> bool:
        if not isinstance(other, Projection):
            return NotImplemented
        return self._op == other._op

    __hash__ = None

    def __repr__(self) -> str:
        return f"Projection(dim={self.dim}, rank={self.rank})"


class StateVector:
    """A unit vector in C^n (norm within ``tol`` of 1, entries finite)."""

    __slots__ = ("_vector",)

    def __init__(self, entries, tol: float = TOL_NORM):
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ValidationError(f"state vector must be 1-d and nonempty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("state vector entries must be finite")
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > tol:
            raise ValidationError(f"state vector norm {nrm!r} is not 1 within {tol:.1e}")
        self._vector = _frozen(arr)

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @property
    def dim(self) -> int:
        return self._vector.shape[0]

    def projector(self) -> Projection:
        """Rank-one projection onto the spanned line."""
        v = self._vector
        return _symmetrized_projection(np.outer(v, v.conj()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return bool(np.array_equal(self._vector, other._vector))

    __hash__ = None

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def _symmetrized_projection(m: np.ndarray) -> Projection:
    """Projection onto the exactly Hermitian average (M + M^H)/2 of an
    internal product M with finite entries.

    Skips only the Hermitian scan, which that average passes bit for bit;
    the idempotency and trace-rank checks of :class:`Projection` still run.
    """
    h = np.ascontiguousarray(_symmetrized(m))
    h.flags.writeable = False
    op = HermitianOperator.__new__(HermitianOperator)
    op._matrix = h
    return Projection(op)


def _matrix_of(value) -> np.ndarray:
    if isinstance(value, Projection):
        return value.matrix
    if isinstance(value, HermitianOperator):
        return value.matrix
    return _square_complex(value)


def _hermitian_matrix_of(value) -> np.ndarray:
    """Matrix of a Hermitian argument; raw arrays are validated on the way in."""
    if isinstance(value, (Projection, HermitianOperator)):
        return _matrix_of(value)
    return HermitianOperator(value).matrix


def _check_same_dim(*mats: np.ndarray) -> None:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands have different dimensions: {sorted(dims)}")


def frobenius_norm(a) -> float:
    """Frobenius norm sqrt(trace(A^H A))."""
    return float(np.linalg.norm(_matrix_of(a)))


def matmul(a, b) -> np.ndarray:
    """Plain matrix product A @ B (generally not Hermitian)."""
    ma, mb = _matrix_of(a), _matrix_of(b)
    _check_same_dim(ma, mb)
    return ma @ mb


def jordan_product(x, y) -> HermitianOperator:
    """Symmetrized product (XY + YX)/2 of two Hermitian operators.

    Both orderings of the arguments produce bit-identical results because
    the two matrix products are formed explicitly and float addition
    commutes.
    """
    a, b = _hermitian_matrix_of(x), _hermitian_matrix_of(y)
    _check_same_dim(a, b)
    return HermitianOperator(_symmetrized((a @ b + b @ a) / 2.0))


def _jp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _symmetrized((a @ b + b @ a) / 2.0)


def triple_product(x, y, z) -> HermitianOperator:
    """Jordan triple product {X,Y,Z} = Xo(YoZ) - Yo(ZoX) + Zo(XoY).

    With X = Z this coincides (up to roundoff) with the quadratic form
    XYX; see :func:`quadratic_triple`.
    """
    a, b, c = (_hermitian_matrix_of(v) for v in (x, y, z))
    _check_same_dim(a, b, c)
    m = _jp(a, _jp(b, c)) - _jp(b, _jp(c, a)) + _jp(c, _jp(a, b))
    return HermitianOperator(m)


def quadratic_triple(x, y) -> HermitianOperator:
    """The compression XYX, i.e. {X,Y,X} evaluated directly."""
    a, b = _hermitian_matrix_of(x), _hermitian_matrix_of(y)
    _check_same_dim(a, b)
    return HermitianOperator(_symmetrized(a @ b @ a))


def projector_from_span(vectors: Sequence, tol: float | None = None) -> Projection:
    """Orthogonal projection onto span{v_1, ..., v_k}.

    Uses modified Gram-Schmidt with one re-orthogonalization pass.
    Vectors whose residual norm falls below the drop threshold
    (``tol``, default ``1e-10 * max input norm``) are treated as linearly
    dependent and skipped, so the rank of the result is the numerical
    rank of the input family.
    """
    if len(vectors) == 0:
        raise EmptyInput("projector_from_span needs at least one vector")
    cols = []
    for v in vectors:
        arr = v.vector if isinstance(v, StateVector) else \
            np.asarray(v, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError("span vectors must be 1-d")
        if not np.isfinite(arr).all():
            raise ValidationError("span vector entries must be finite")
        cols.append(arr)
    dims = {c.shape[0] for c in cols}
    if len(dims) != 1:
        raise DimensionMismatch(f"span vectors have different lengths: {sorted(dims)}")
    dim = dims.pop()
    norms = [float(np.linalg.norm(c)) for c in cols]
    for nrm in norms:
        # A norm that overflows would make the default drop threshold
        # infinite and silently drop every vector.
        if not math.isfinite(nrm):
            raise ValidationError(f"span vector norm {nrm!r} is not finite")
    if tol is None:
        tol = 1e-10 * max(norms)
    basis: list[np.ndarray] = []
    for v in cols:
        w = v.astype(np.complex128, copy=True)
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for q in basis:
                w = w - np.vdot(q, w) * q
        nrm = float(np.linalg.norm(w))
        if nrm > tol:
            basis.append(w / nrm)
    p = np.zeros((dim, dim), dtype=np.complex128)
    for q in basis:
        p += np.outer(q, q.conj())
    return _symmetrized_projection(p)


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(_hermitian_matrix_of(a))[0])


def is_positive_semidefinite(a, tol: float = 1e-10) -> bool:
    return min_eigenvalue(a) >= -tol


# ---------------------------------------------------------------------------
# Random constructions used by tests and the axiom harness.

def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Random Hermitian matrix with every entry bounded by 1 in modulus."""
    a = rng.uniform(-0.5, 0.5, size=(dim, dim)) + \
        1j * rng.uniform(-0.5, 0.5, size=(dim, dim))
    return HermitianOperator(_symmetrized(a))


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> Projection:
    """Random rank-``rank`` projection from a Haar frame."""
    if not 0 <= rank <= dim:
        raise ValidationError(f"rank {rank} out of range for dimension {dim}")
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return _symmetrized_projection(cols @ cols.conj().T)


def random_orthogonal_projections(dim: int, ranks: Sequence[int],
                                  rng: np.random.Generator) -> list[Projection]:
    """Mutually orthogonal projections carved from one random frame.

    ``sum(ranks)`` must not exceed ``dim``; a zero rank yields the zero
    projection, which is orthogonal to everything.
    """
    if sum(ranks) > dim:
        raise ValidationError(f"ranks {list(ranks)} exceed dimension {dim}")
    u = random_unitary(dim, rng)
    out, start = [], 0
    for r in ranks:
        cols = u[:, start:start + r]
        out.append(_symmetrized_projection(cols @ cols.conj().T))
        start += r
    return out


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix A A^H / trace."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = _symmetrized(a @ a.conj().T)
    return m / m.trace().real
