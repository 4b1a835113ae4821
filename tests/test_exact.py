"""The library's probabilities and verdicts against exact rational
arithmetic on the same floats (``exact``).

A verdict ``residual <= tol * max(1, scale)`` is computed in floating
point, so it may differ from the exact decision only where the exact
margin, residual / (tol * max(1, scale)), lies within the rounding error
of residual and bound of 1.  Each test states that band from a priori
bounds on the error of the products and norms (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 3), checks the library's
residual against the exact one within it, and requires the verdict to
equal the exact decision outside it.  Nothing here depends on the BLAS
kernel's summation order, so no case is marked ``kernel_dependent``.
"""

import math

import numpy as np
import pytest

from orthoprob import (BooleanAlgebra, ClassicalState, QuantumAlgebra, SampleSpace, below,
                       events_equal, orthogonal, prob)
from orthoprob.errors import ValidationError
from orthoprob.events import _one_pair
from orthoprob.linalg import DEFAULT_EVENT_TOL, TOL_IDEMPOTENT, _symmetrized, random_unitary

import exact
from helpers import frame_event, random_density_state, random_hermitian, random_projection

EPS = float(exact.EPS)
VERDICTS = {"orthogonality": orthogonal, "order": below, "equality": events_equal}
# prob's distance from the exact Re tr(rho E), in units of the last place.
# Measured over 16,000 random pairs at dims 2-8 (p >= 1/8), under the
# SkylakeX, Haswell, Sandybridge and Katmai kernels: at most 3.53; a
# Boolean sum at sizes 2-8: at most 1.69.
PROB_ULPS = 4


def _product_error(dim: int, a_norm: float, b_norm: float) -> float:
    """A bound on ||fl(AB) - AB||_F for complex d x d matrices: each entry
    is off by at most sqrt(2) gamma_(d+2) (|A||B|)_ij, and ||(|A||B|)||_F
    <= ||A||_F ||B||_F."""
    return 2 * (dim + 2) * EPS * a_norm * b_norm


def _norm_error(dim: int) -> float:
    """A bound on the relative error of a Frobenius norm computed from d**2
    entries, and of a bound ``tol * max(1, norm)`` built from it."""
    return 2 * (dim * dim + 2) * EPS


def _residual_error(relation: str, dim: int, residual: float, a_norm: float,
                    b_norm: float) -> float:
    """A bound on the distance of the computed residual of ``relation``
    from the exact residual of the same floats."""
    product = 0.0 if relation == "equality" else _product_error(dim, a_norm, b_norm)
    return product + _norm_error(dim) * (residual + product)


def _decided(exact_margin: float, error: float, bound: float, dim: int) -> bool:
    """Whether the exact margin lies outside the band around 1 within which
    rounding of the residual (by ``error``) and of the bound may move the
    computed verdict."""
    return abs(exact_margin - 1.0) > error / bound + 2 * _norm_error(dim)


def _pair(relation: str, algebra: QuantumAlgebra, scaled: float, rng):
    """Two events whose ``relation`` residual is, in exact arithmetic,
    ``scaled`` times the relation's scale max(1, ||A||_F, ||B||_F), to
    first order in ``scaled``; ``relation`` holds exactly at 0.

    The first k columns of a Haar frame u span A; w is u_0 turned by an
    angle theta towards u_k, and v is u_k turned towards u_0.
    Orthogonality: B spans v and u_(k+1), ..., so AB = sin(theta)
    |u_0><v|.  Order: A spans w and B the first k columns, so ||AB -
    A||_F = sin(theta).  Equality: B spans w, u_1, ..., u_(k-1), so ||A -
    B||_F = sqrt(2) sin(theta)."""
    dim = algebra.dim
    u = random_unitary(dim, rng)
    k = int(rng.integers(1, dim))
    j = int(rng.integers(1, dim - k + 1))
    scale = math.sqrt(max(k, j if relation == "orthogonality" else 1))
    theta = scaled * scale / (math.sqrt(2.0) if relation == "equality" else 1.0)
    c, s = math.cos(theta), math.sin(theta)
    w, v = (c * u[:, 0] + s * u[:, k])[:, None], (c * u[:, k] + s * u[:, 0])[:, None]
    if relation == "orthogonality":
        a, b = u[:, :k], np.hstack((v, u[:, k + 1:k + j]))
    elif relation == "order":
        a, b = w, u[:, :k]
    else:
        a, b = u[:, :k], np.hstack((w, u[:, 1:k]))
    return frame_event(algebra, a), frame_event(algebra, b)


def _exact_residual_squared(relation: str, a: list, b: list):
    if relation == "orthogonality":
        return exact.frobenius_squared(exact.product(a, b))
    if relation == "order":
        return exact.frobenius_squared(exact.difference(exact.product(a, b), a))
    return exact.frobenius_squared(exact.difference(a, b))


@pytest.mark.parametrize("relation", sorted(VERDICTS))
def test_relation_verdicts_equal_the_exact_decision(relation):
    """Per dim 2-8 and tol 1e-9 and 1e-5: a pair for which the relation
    holds exactly, one for which it fails by far, and five whose margin
    is drawn from [0.5, 1.5]."""
    rng = np.random.default_rng(sorted(VERDICTS).index(relation))
    decided = holds = near = 0
    for dim in range(2, 9):
        algebra = QuantumAlgebra(dim)
        for tol in (DEFAULT_EVENT_TOL, 1e-5):
            margins = rng.uniform(0.5, 1.5, size=5)
            for scaled in [0.0, 0.5 / tol] + list(margins):
                e, f = _pair(relation, algebra, scaled * tol, rng)
                a, b = exact.matrix(e), exact.matrix(f)
                residual_squared = _exact_residual_squared(relation, a, b)
                scale_squared = max(exact.frobenius_squared(a), exact.frobenius_squared(b))
                _, residual, e_norm, f_norm = _one_pair(relation, e, f)
                error = _residual_error(relation, dim, float(residual), e_norm, f_norm)
                assert exact.near(float(residual), residual_squared, error)
                margin = exact.margin(residual_squared, tol, scale_squared)
                verdict = exact.within(residual_squared, tol, scale_squared)
                at_bound = 0.5 <= scaled <= 1.5
                near += at_bound
                if _decided(margin, error, tol * max(1.0, e_norm, f_norm), dim):
                    decided += at_bound
                    holds += verdict and at_bound
                    assert VERDICTS[relation](e, f, tol) == verdict, (dim, tol, margin)
                else:
                    assert at_bound
    # The band is narrow: nearly every pair drawn at the bound is decided,
    # on both sides of it.
    assert decided >= 0.9 * near and 0 < holds < decided


@pytest.mark.parametrize("size", range(2, 9))
def test_boolean_verdicts_equal_the_exact_decision(size):
    """The library's Boolean residual counts points: it equals the exact
    squared residual of the events' indicator diagonals, and its verdict
    the exact decision at tol 0 and 1e-9, where only a residual of 0
    passes."""
    rng = np.random.default_rng(size)
    algebra = BooleanAlgebra(size)
    rows = [rng.random(size) < 0.5 for _ in range(5)]
    rows += [~rows[0], rows[0] & rows[1], np.zeros(size, dtype=bool)]
    events = [algebra.event(np.flatnonzero(row).tolist()) for row in rows]
    diagonals = [exact.indicator(row) for row in rows]
    for (e, a), (f, b) in [(x, y) for x in zip(events, diagonals)
                           for y in zip(events, diagonals)]:
        scale_squared = max(exact.frobenius_squared(a), exact.frobenius_squared(b))
        for relation, verdict in VERDICTS.items():
            residual_squared = _exact_residual_squared(relation, a, b)
            assert _one_pair(relation, e, f)[1] == residual_squared
            for tol in (0.0, DEFAULT_EVENT_TOL):
                assert verdict(e, f, tol) == exact.within(residual_squared, tol, scale_squared)


def test_projection_acceptance_equals_the_exact_decision():
    """``QuantumAlgebra(d).event(m)`` (``_projection_checks``) against the
    exact decision of its rule: ||M@M - M||_F and the trace's distance from
    the nearest integer r each within TOL_IDEMPOTENT * max(1, ||M||_F), and
    r in [0, d].  Per dim 2-8: a random projection, a random Hermitian
    matrix, and four projections with one eigenvalue moved off 0 or 1 by
    a margin drawn from [0.5, 1.5]."""
    rng = np.random.default_rng(8)
    decided = accepted = near = 0
    for dim in range(2, 9):
        algebra = QuantumAlgebra(dim)
        candidates = [random_projection(dim, int(rng.integers(0, dim + 1)), rng).matrix,
                      random_hermitian(dim, rng).matrix]
        for t in rng.uniform(0.5, 1.5, size=4):
            u = random_unitary(dim, rng)
            rank = int(rng.integers(0, dim + 1))
            eigenvalues = (np.arange(dim) < rank).astype(float)
            eigenvalues[rng.integers(dim)] += rng.choice((-1.0, 1.0)) * t * TOL_IDEMPOTENT * \
                max(1.0, math.sqrt(rank))
            candidates.append(_symmetrized((u * eigenvalues) @ u.conj().T))
        for k, m in enumerate(candidates):
            p = exact.matrix(m)
            norm_squared = exact.frobenius_squared(p)
            residual_squared = exact.frobenius_squared(exact.difference(exact.product(p, p), p))
            trace = exact.trace(p)[0]
            rank = round(trace)
            margin = max(exact.margin(residual_squared, TOL_IDEMPOTENT, norm_squared),
                         exact.margin((trace - rank) ** 2, TOL_IDEMPOTENT, norm_squared))
            verdict = margin <= 1.0 and 0 <= rank <= dim
            norm = math.sqrt(float(norm_squared))
            # The residual is that of order with A = B = M; a trace of d
            # entries is off by at most (d - 1) u times their sum.
            error = max(_residual_error("order", dim, margin * TOL_IDEMPOTENT * max(1.0, norm),
                                        norm, norm), dim * math.sqrt(dim) * EPS * norm)
            near += k >= 2
            if _decided(margin, error, TOL_IDEMPOTENT * max(1.0, norm), dim):
                decided += k >= 2
                accepted += verdict and k >= 2
                try:
                    algebra.event(m)
                except ValidationError:
                    assert not verdict, (dim, k, margin)
                else:
                    assert verdict, (dim, k, margin)
            else:
                assert k >= 2
    assert decided >= 0.9 * near and 0 < accepted < decided


@pytest.mark.parametrize("dim", range(2, 9))
def test_prob_is_within_a_few_ulps_of_the_exact_trace(dim):
    """``prob(rho, E)`` against the exact Re tr(rho E) on 40 random pairs:
    within ``PROB_ULPS`` units of the last place where the exact value is
    at least 1/8, and within ``PROB_ULPS`` units of the last place of 1
    (4 eps) for every pair."""
    rng = np.random.default_rng(dim)
    for _ in range(40):
        state = random_density_state(dim, rng)
        event = QuantumAlgebra(dim).event(random_projection(dim, int(rng.integers(1, dim + 1)),
                                                            rng).matrix)
        p = prob(state, event)
        value = exact.real_trace_of_product(exact.matrix(state), exact.matrix(event))
        assert abs(exact.Fraction(p) - value) <= PROB_ULPS * exact.EPS
        if value >= exact.Fraction(1, 8):
            assert exact.ulps(p, value) <= PROB_ULPS, value


@pytest.mark.parametrize("size", range(2, 9))
def test_boolean_prob_is_within_a_few_ulps_of_the_exact_sum(size):
    """A Boolean probability, a sum of at most 8 weights, against the exact
    sum of the same weights on 40 random pairs."""
    rng = np.random.default_rng(size)
    space = SampleSpace(size)
    for _ in range(40):
        weights = rng.random(size)
        state = ClassicalState(space, weights / weights.sum())
        members = np.flatnonzero(rng.random(size) < 0.5).tolist() or [0]
        value = sum(exact.Fraction(float(w)) for w in state.weights[members])
        assert exact.ulps(prob(state, BooleanAlgebra(space).event(members)), value) <= PROB_ULPS
