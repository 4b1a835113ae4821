"""Dense complex matrix kernel.

Validated Hermitian operators, projections and unit vectors, plus the
Jordan-algebra operations (symmetrized product, triple products) that the
event and state layers build on.  Everything is immutable after
construction and every function is pure.  Matrices are dense complex128;
the shipped scenarios are dimension <= 4 and the design ceiling is 64, so
no sparse or structured paths exist.

Construction contract: each array is checked once.  A constructor takes
an operator's matrix as it is and scans anything else for Hermitian
symmetry; then the class runs only its own ``_check``, which keeps what
the given operator holds: ``Projection(p)`` takes a projection's rank and
norm, ``DensityState(rho)`` a density state as it is.  Internal results
are ``_symmetrized``, hence Hermitian bit for bit, and the private
``_adopted`` hands them, and complements I - P, to ``_check`` unscanned.
Every projection check, of one matrix or of a stack, is
``_projection_checks``; a caller that checked a stack hands each matrix's
(rank, norm) to ``_adopted``, and nothing is checked again.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyInput, ValidationError

# The numerical policy: every fixed bound and every default tolerance, one name per
# role, as the README's "Tolerances" lists them; _within applies the relative ones.
TOL_HERMITIAN = 1e-10  # largest abs(A - A^H) entry that a constructor accepts
TOL_IDEMPOTENT = 1e-9  # ||P@P - P||_F, and a trace's distance from a rank; relative to ||P||_F
TOL_NORM = 1e-10  # distance of a StateVector's norm from 1
TOL_WEIGHT_SUM = 1e-12  # distance of a ClassicalState's weight sum from 1
TOL_TRACE = 1e-10  # distance of a DensityState's trace from 1 (atom and vector states: rescaled)
MIN_EIGENVALUE = -1e-10  # lowest eigenvalue a DensityState may have
_CHOLESKY_SHIFT = 1e-10 - 1e-12  # a density stack that factors shifted by it passes MIN_EIGENVALUE
SPAN_DROP = 1e-10  # span residual, relative to the largest input norm, taken as dependence
CLAMP = 1e-12  # distance outside [0, 1] from which a probability is clamped into it
TOL_IDENTITY = 1e-10  # abs(p_total - (term1 + term2 + cross)) of an InterferenceReport
TOL_P_TOTAL = 1e-12  # distance outside [0, 1] that an InterferenceReport's p_total may have
TOL_OVERLAP = 1e-8  # abs(<path1|path2>) that two_slit accepts as orthogonal
TOL_SAME_P = 1e-9  # atom_symmetry_check's abs(P(e|f) - P(f|e)); is_dispersion_free's min(p, 1 - p)
TOL_CONTRACT = 1e-10  # conditioning_contract_violations' abs(value - conditional)
TOL_TABLE = 1e-12  # TableState's complement, sum, range and unit checks; the qubit demo's ties
TOL_WIRE_NORM = 1e-6  # distance from 1 of a scenario vector's norm (renormalized above TOL_NORM)
TAIL_LEVEL = math.erfc(4 / math.sqrt(2))  # 2 Phi(-4): least two-sided tail of a state_independence_check run
DEFAULT_EVENT_TOL = 1e-9  # relation and commutator residuals of two events, relative to their norms
DEFAULT_DETECTION_TOL = 1e-8  # predictability residual, relative to the conditioning events' norm
DEFAULT_CONDITION_TOL = 1e-9  # probability at or below which conditioning is refused
DEFAULT_PATH_TOL = 1e-9  # path probability at or below which interference drops or refuses it
DEFAULT_QUERY_TOL = 1e-9  # tol of run_query and of --tol, passed to every operation of a query
DEGENERATE_BRANCH = 1e-14  # branch probability that the sampler counts to the other branch
TOL_EXACT_BRANCH = 64 * sys.float_info.epsilon  # ||FAF - sF||_F, relative to ||F||_F, up to which the sampler draws branch F with s

# Bytes of operands that one stacked call takes, in the sampler's levels and
# the axiom harness's blocks: their temporaries stay near this size, however
# many states, trials or events the level or block holds.
_CALL_BYTES = 1 << 18


def _numeric_array(value, dtype, what: str) -> np.ndarray:
    """``np.asarray(value, dtype=dtype)``, the one conversion of a caller's
    array; ValidationError naming ``what`` when numpy cannot convert it
    (a malformed string, ragged rows, an int too large for a float)."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None


def _square_complex(value, what: str = "matrix") -> np.ndarray:
    arr = _numeric_array(value, np.complex128, what)
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
    out = m + m.conj().swapaxes(-1, -2)
    out /= 2.0
    return out


def _within(residual, tol, scale):
    """``residual <= tol * max(1, scale)``, elementwise: every relative verdict."""
    return residual <= tol * np.maximum(1.0, scale)


def _require_tolerance(tol: float) -> None:
    # Compared exactly as given: NaN, infinities and ints beyond the largest
    # float fail the range, and a bool is not taken as 0 or 1.
    if isinstance(tol, bool) or not (isinstance(tol, (int, float))
                                     and 0 <= tol <= sys.float_info.max):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


def _require_int(value, what: str, least: int | None = None, bound: int | None = None) -> int:
    """``value``, an int or a numpy integer but no bool, as an int in [least, bound)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} {value!r} is not an integer")
    value = int(value)
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least}")
    if bound is not None and value >= bound:
        raise ValidationError(f"{what} must be < {bound}")
    return value


def _require_sequence(value, name: str, of: str) -> None:
    if not isinstance(value, Sequence):
        raise ValidationError(
            f"{name} must be a sequence of {of}, got {type(value).__name__}")


def _slices(count: int, entry_bytes: int, bound: int | None = None) -> list[slice]:
    """Slices that cut ``count`` entries of ``entry_bytes`` bytes each, in
    order, into parts of as many whole entries as fit in ``bound``
    (``_CALL_BYTES``, read at the call, when None), one at the least."""
    step = max(1, (_CALL_BYTES if bound is None else bound) // entry_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack of shape (..., d, d).

    The squares of the real and of the imaginary parts are each summed by
    one dot product, as ``np.linalg.norm`` does for a single matrix, so a
    norm has the same bits whatever stack its matrix sits in.
    """
    flat = stack.reshape(stack.shape[:-2] + (1, stack.shape[-2] * stack.shape[-1]))
    re, im = flat.real, flat.imag
    squares = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(squares[..., 0, 0])


_SETTLE = np.zeros(1, dtype=np.complex128)


def _settled(product: np.ndarray) -> np.ndarray:
    """``product``, returned unchanged after one complex add of a constant.

    OpenBLAS's AVX-512 complex kernels (the SkylakeX and Cooperlake cores;
    Haswell is not affected) return with the upper halves of the vector
    registers dirty, and the numpy SSE loop that runs next pays the
    AVX-SSE transition penalty (Intel, "Avoiding AVX-SSE Transition
    Penalties").  numpy's complex add is a VEX-encoded loop, so running it
    clears the dirty state.  On an AVX-512 Xeon under the SkylakeX kernel
    (numpy 2.4), the trace of a (1024, 4, 4) complex stack took 27 us from
    a clean state and 181 us right after a 4 x 4 zgemm, and
    ``_frobenius_norms`` of a (392, 6, 6) stack 27 us and 150 us; with this
    add in between, 28 us and 26 us.  A caller applies it to a complex
    product whose next reader is such a loop.
    """
    np.add(_SETTLE, _SETTLE)
    return product


def _projection_checks(stack: np.ndarray):
    """Check each matrix of a (k, d, d) stack of exactly Hermitian matrices
    as a projection; never raises.

    The idempotency residual ||P@P - P||_F must stay below
    ``TOL_IDEMPOTENT * max(1, ||P||_F)`` and the trace within the same
    bound of an integer rank in [0, d].

    Returns ``(errors, norms, ranks)``: ``errors[i]`` is None when matrix i
    passes, else the message its constructor raises; ``norms`` holds the
    Frobenius norms and ``ranks`` the traces rounded to integers, as
    floats, of which those of the passing matrices are their ranks.
    """
    norms = _frobenius_norms(stack)
    # In place, here and below: stacks reach hundreds of matrices, and peak
    # memory counts every temporary.
    square = stack @ stack
    square -= stack
    residuals = _frobenius_norms(square)
    del square
    dim = stack.shape[-1]
    traces = stack.trace(axis1=-2, axis2=-1).real
    # Traces are rounded within [-1, d + 1], so that an overflowed one
    # stays finite; beyond [-0.5, d + 0.5] the rank is out of range either way.
    ranks = np.rint(np.minimum(np.maximum(traces, -1.0), dim + 1.0))
    # One comparison for both residuals: the larger one against the bound.
    worst = np.abs(traces - ranks)
    np.maximum(worst, residuals, out=worst)
    # Overflow (entries of 1e154 and up) must fail too: it makes the
    # residual NaN or the norm, and with it the bound, infinite.
    passed = (_within(worst, TOL_IDEMPOTENT, norms) & (norms < math.inf)
              & (ranks >= 0.0) & (ranks <= dim))
    errors = [None] * len(norms)
    for i in (~passed).nonzero()[0]:
        if not (_within(residuals[i], TOL_IDEMPOTENT, norms[i]) and norms[i] < math.inf):
            errors[i] = (f"matrix is not idempotent: ||P@P - P||_F = {residuals[i]:.3e} "
                         f"exceeds {TOL_IDEMPOTENT:.1e} * {max(1.0, float(norms[i])):.3g}")
        else:
            errors[i] = (f"projection trace {float(traces[i])!r} is not an "
                         f"admissible integer rank")
    return errors, norms, ranks


def _check_weight_rows(rows: np.ndarray) -> None:
    """The ClassicalState weight checks on each row of an (m, size) stack.

    Each check covers the whole stack before the next one runs, and an
    error reports the first offending row.
    """
    if not np.isfinite(rows).all():
        raise ValidationError("weights must be finite")
    if rows.min(initial=0.0) < 0.0:
        first = rows[(rows < 0.0).any(axis=1).argmax()]
        raise ValidationError(f"weights must be nonnegative, min = {float(first.min())!r}")
    totals = rows.sum(axis=1)
    off = np.abs(totals - 1.0)
    if off.max() > TOL_WEIGHT_SUM:
        first = totals[(off > TOL_WEIGHT_SUM).argmax()]
        raise ValidationError(f"weights sum to {float(first)!r}, not 1 within {TOL_WEIGHT_SUM!r}")


def _check_density_stack(stack: np.ndarray) -> None:
    """The DensityState checks beyond HermitianOperator's on each matrix of
    an (m, d, d) stack of finite Hermitian matrices: unit trace within
    TOL_TRACE, no eigenvalue below MIN_EIGENVALUE = -1e-10.

    Each check covers the whole stack before the next one runs, and an
    error reports the first offending matrix.

    The eigenvalue bound is certified by one Cholesky factorization of the
    stack shifted by s = _CHOLESKY_SHIFT, with ``eigvalsh`` run only when
    some matrix fails to factor, to decide and word the failure.  A factor
    that completes is exact for rho + sI + dA with |dA| <= g |R^H||R|,
    g = gamma_{d+1} (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10), and ||R^H||R|||_2 <= tr(R^H R), about
    tr(rho) + d s; the trace check has just bounded tr(rho) by 1 + 1e-10.
    So lambda_min(rho) >= -s - g (1 + d s), above -1e-10 + 9.9e-13 for
    d <= 64, while the smallest eigenvalue ``eigvalsh`` reports is off by
    about d u ||rho||_2, near 1e-14: every stack that factors passes the
    ``eigvalsh`` check too.  Both routines read the lower triangle only.
    """
    traces = stack.trace(axis1=-2, axis2=-1).real
    off = np.abs(traces - 1.0)
    if off.max() > TOL_TRACE:
        first = float(traces[(off > TOL_TRACE).argmax()])
        raise ValidationError(f"density matrix trace {first!r} is not 1 within {TOL_TRACE!r}")
    # The shift is added to the diagonal only: off it, adding zeros could
    # change only the signs of zero entries, on which no pivot depends.
    shifted = stack.copy()
    dim = stack.shape[-1]
    shifted.reshape(len(stack), dim * dim)[:, ::dim + 1] += _CHOLESKY_SHIFT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(stack)[:, 0]
        if low.min() < MIN_EIGENVALUE:
            first = low[(low < MIN_EIGENVALUE).argmax()]
            raise ValidationError(
                f"density matrix has eigenvalue {first:.3e} below {MIN_EIGENVALUE!r}") from None


class HermitianOperator:
    """A finite square complex matrix equal to its conjugate transpose.

    Self-adjointness is checked entrywise at construction (absolute
    tolerance ``TOL_HERMITIAN``), and an operator argument is taken as it
    is; the stored array is read-only.  Projections and density states are
    Hermitian operators too: they keep their one array in the same slot,
    and an operator equals only an operator of its own class.
    """

    __slots__ = ("_matrix",)

    def __init__(self, entries):
        self._take(entries)

    def _take(self, entries) -> None:
        # Every constructor calls this, so building one object runs one
        # __init__, which perfbench's span tracing counts: a QuantumEvent
        # inherits Projection's and is counted under it.  An operator's
        # array is taken as it is, and ``_check`` keeps what it holds.
        self._matrix = _hermitian_matrix_of(entries)
        self._check(entries if self._matrix is getattr(entries, "_matrix", None) else None)

    def _check(self, given) -> None:
        """The checks this class adds, on ``self._matrix``; ``given`` is the
        operator it was taken from, or None.  A plain operator adds none."""

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._matrix.shape == other._matrix.shape and bool(
            np.array_equal(self._matrix, other._matrix))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projection(HermitianOperator):
    """An orthogonal projection: Hermitian and idempotent.

    The idempotency residual ||P@P - P||_F must stay below
    ``TOL_IDEMPOTENT * max(1, ||P||_F)`` and the trace must sit within the
    same bound of an integer; that integer is stored as the rank, and
    ||P||_F is kept for the tolerance scales of the event and state layers.
    A projection argument is taken with its rank and norm, unchecked.
    """

    __slots__ = ("_rank", "_norm")

    def __init__(self, entries):
        self._take(entries)

    def _check(self, given) -> None:
        # ``given`` may also be the (rank, norm) pair that a stacked
        # _projection_checks call gave this matrix.
        if isinstance(given, Projection):
            given = given._rank, given._norm
        elif not isinstance(given, tuple):
            errors, norms, ranks = _projection_checks(self._matrix[None])
            if errors[0]:
                raise ValidationError(errors[0])
            given = int(ranks[0]), float(norms[0])
        self._rank, self._norm = given

    @property
    def rank(self) -> int:
        return self._rank

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, rank={self.rank})"


class StateVector:
    """A unit vector in C^n (norm within ``TOL_NORM`` of 1, entries finite)."""

    __slots__ = ("_vector",)

    def __init__(self, entries):
        arr = _numeric_array(entries, np.complex128, "state vector")
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ValidationError(f"state vector must be 1-d and nonempty, got shape {arr.shape}")
        _require_finite(arr, "state vector")
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > TOL_NORM:
            raise ValidationError(f"state vector norm {nrm!r} is not 1 within {TOL_NORM:.1e}")
        self._vector = _frozen(arr)

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @property
    def dim(self) -> int:
        return self._vector.shape[0]

    def projector(self) -> Projection:
        """Rank-one projection onto the spanned line."""
        return _adopted(Projection, self._outer())

    def _outer(self) -> np.ndarray:
        """|v><v|, exactly Hermitian: the matrix of ``projector()``, unchecked."""
        v = self._vector
        return _symmetrized(np.outer(v, v.conj()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return bool(np.array_equal(self._vector, other._vector))

    __hash__ = None

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def _adopted(cls, m: np.ndarray, given=None):
    """A ``cls`` operator holding ``m`` after ``cls._check(given)`` alone:
    ``m`` is a fresh ``_symmetrized`` array, zero or identity matrix, I - P
    of a checked P, or a fresh array that passed ``_hermitian_array``, which
    the Hermitian scan could never refuse, and finite unless ``cls._check``
    refuses non-finite entries itself, as a projection's does.  ``m`` is
    made read-only, not copied."""
    h = np.ascontiguousarray(m)
    h.flags.writeable = False
    op = cls.__new__(cls)
    op._matrix = h
    op._check(given)
    return op


def _hermitian_array(entries) -> np.ndarray:
    """``entries`` as a complex matrix, after the checks of every operator
    constructor: square, nonempty, finite, and Hermitian within
    ``TOL_HERMITIAN``.  The result may be ``entries`` itself."""
    arr = _square_complex(entries)
    skew = np.abs(arr - arr.conj().T).max()
    if skew > TOL_HERMITIAN:
        raise ValidationError(f"matrix is not Hermitian: max |A - A^H| = {skew:.3e} "
                              f"exceeds {TOL_HERMITIAN:.1e}")
    return arr


def _hermitian_matrix_of(value) -> np.ndarray:
    """An operator's matrix as it is, or a read-only copy of ``value`` after
    ``_hermitian_array``'s checks."""
    return value._matrix if isinstance(value, HermitianOperator) else \
        _frozen(_hermitian_array(value))


def _check_same_dim(*mats: np.ndarray) -> None:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands have different dimensions: {sorted(dims)}")


def _jordan(form, *operands) -> HermitianOperator:
    """``form`` of the operands' matrices, as an operator: the one route of
    the public Jordan products."""
    mats = [_hermitian_matrix_of(v) for v in operands]
    _check_same_dim(*mats)
    m = form(*mats)
    # A product of finite matrices may overflow.
    _require_finite(m)
    return _adopted(HermitianOperator, m)


def _jp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _symmetrized((a @ b + b @ a) / 2.0)


def _triple(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return _jp(a, _jp(b, c)) - _jp(b, _jp(c, a)) + _jp(c, _jp(a, b))


def _quadratic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{A,B,A} = ABA, made exactly Hermitian: also the compression by
    which predictability certifies {F,E,F} = sF."""
    return _symmetrized(a @ b @ a)


def jordan_product(x, y) -> HermitianOperator:
    """Symmetrized product (XY + YX)/2 of two Hermitian operators.

    Both orderings of the arguments produce bit-identical results because
    the two matrix products are formed explicitly and float addition
    commutes.
    """
    return _jordan(_jp, x, y)


def triple_product(x, y, z) -> HermitianOperator:
    """Jordan triple product {X,Y,Z} = Xo(YoZ) - Yo(ZoX) + Zo(XoY).

    With X = Z this coincides (up to roundoff) with the quadratic form
    XYX; see :func:`quadratic_triple`.
    """
    return _jordan(_triple, x, y, z)


def quadratic_triple(x, y) -> HermitianOperator:
    """The compression XYX, i.e. {X,Y,X} evaluated directly."""
    return _jordan(_quadratic, x, y)


def projector_from_span(vectors: Sequence) -> Projection:
    """Orthogonal projection onto span{v_1, ..., v_k}.

    Uses modified Gram-Schmidt with one re-orthogonalization pass.
    Vectors whose residual norm falls below the drop threshold
    ``SPAN_DROP * max input norm`` are treated as linearly dependent and
    skipped, so the rank of the result is the numerical
    rank of the input family.  ``vectors`` is a sequence or a 2-d array.
    """
    return _adopted(Projection, _span_matrix(vectors))


def _span_matrix(vectors: Sequence) -> np.ndarray:
    """The exactly Hermitian matrix of ``projector_from_span(vectors)``,
    not yet checked as a projection."""
    if not isinstance(vectors, np.ndarray):
        _require_sequence(vectors, "vectors", "vectors")
    if len(vectors) == 0:
        raise EmptyInput("projector_from_span needs at least one vector")
    cols = []
    try:
        for v in vectors:
            arr = v.vector if isinstance(v, StateVector) else \
                _numeric_array(v, np.complex128, "span vector")
            if arr.ndim != 1:
                raise ValidationError("span vectors must be 1-d")
            cols.append(arr)
    finally:
        # One finiteness test for the vectors read, whose fault is
        # reported before any fault of a later vector.
        if cols:
            _require_finite(np.concatenate(cols), "span vector")
    dims = {c.shape[0] for c in cols}
    if len(dims) != 1:
        raise DimensionMismatch(f"span vectors have different lengths: {sorted(dims)}")
    dim = dims.pop()
    norms = [float(np.linalg.norm(c)) for c in cols]
    for nrm in norms:
        # A norm that overflows would make the drop threshold infinite and
        # silently drop every vector.
        if not math.isfinite(nrm):
            raise ValidationError(f"span vector norm {nrm!r} is not finite")
    drop = SPAN_DROP * max(norms)
    basis: list[np.ndarray] = []
    for v, nrm in zip(cols, norms):
        w = v.copy()  # updated in place
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for q in basis:
                w -= np.vdot(q, w) * q
        # With no basis yet, w is v, and its norm known.
        if basis:
            nrm = float(np.linalg.norm(w))
        if nrm > drop:
            w /= nrm
            basis.append(w)
    p = np.zeros((dim, dim), dtype=np.complex128)
    for q in basis:
        p += q[:, None] * q.conj()[None]  # np.outer's shapes, hence its bits, also at dim 1
    return _symmetrized(p)


# ---------------------------------------------------------------------------
# Random unitaries for the axiom harness.

def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return _haar(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def _haar(z: np.ndarray) -> np.ndarray:
    """The Haar unitary of each complex Gaussian matrix of a (..., n, n)
    stack: its QR factor Q with each column's phase fixed so that R has a
    positive diagonal (Mezzadri, Notices AMS 54, 2007).

    LAPACK factors a stack one matrix at a time, so a unitary has the same
    bits whatever stack its matrix sits in."""
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
