"""Interference decomposition for two-path conditioning.

Conditioning an atomic state on the union of two orthogonal path events
does not mix the per-path conditionals classically: the total carries an
extra cross term.  ``interference_decomposition`` computes all three
pieces and certifies that they add up to the independently computed
total; ``two_slit`` evaluates the closed rank-one form directly from
amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AlgebraMismatch, DegenerateDenominator, DimensionMismatch,
                     NotAtom, NotOrthogonal, ValidationError, ZeroEvent,
                     ZeroProbabilityCondition)
from .events import (QuantumEvent, _clamp_probability, _event_kind, _kind_of,
                     _require_instance, _require_tolerance, _shared_kind, orthogonal)
from .linalg import DEFAULT_PATH_TOL, TOL_IDENTITY, TOL_OVERLAP, TOL_P_TOTAL, StateVector
from .states import atom_state, condition, prob


@dataclass(frozen=True)
class InterferenceReport:
    """Two-path decomposition of a conditional probability.

    ``p_total`` is computed independently by conditioning on the summed
    event; construction fails unless it matches term1 + term2 + cross to
    TOL_IDENTITY (1e-10).  ``degenerate_paths`` lists path numbers (1 or 2)
    whose weight is at most tol; their term is 0 by convention.
    """

    p_total: float
    term1: float
    term2: float
    cross: float
    p_path1: float
    p_path2: float
    p_either_path: float
    degenerate_paths: tuple[int, ...] = ()

    def __post_init__(self):
        residual = self.identity_residual
        if residual > TOL_IDENTITY:
            raise ValidationError(
                f"decomposition identity violated: residual {residual:.3e}")
        if not -TOL_P_TOTAL <= self.p_total <= 1.0 + TOL_P_TOTAL:
            raise ValidationError(f"p_total {self.p_total!r} outside [0, 1]")

    @property
    def identity_residual(self) -> float:
        return abs(self.p_total - (self.term1 + self.term2 + self.cross))


def interference_decomposition(source_atom: QuantumEvent, path1: QuantumEvent,
                               path2: QuantumEvent, target: QuantumEvent,
                               tol: float = DEFAULT_PATH_TOL) -> InterferenceReport:
    """Decompose P(target | source_atom, path1 + path2) into path terms
    plus a cross term.

    term_k = P(target | source, path_k) * P(path_k | source) / P(path1 + path2 | source)
    cross  = 2 Re tr(rho path1 target path2) / P(path1 + path2 | source)

    The source must be an atom and the paths orthogonal nonzero quantum
    events; a Boolean operand, or one of another dimension, raises
    AlgebraMismatch after the checks of ``tol`` and of the atom, before
    any other work.
    """
    _require_tolerance(tol)
    kind = _event_kind(source_atom, "source_atom")
    if not kind.is_atom(source_atom):
        raise NotAtom("interference decomposition needs an atomic source event")
    operands = (source_atom, path1, path2, target)
    if any(k and k.commutative for k in map(_kind_of, operands)):
        raise AlgebraMismatch("interference decomposition needs quantum events")
    for x in operands[1:]:
        _shared_kind(source_atom, x)
    if path1.rank == 0 or path2.rank == 0:
        raise ZeroEvent("path events must be nonzero")
    if not orthogonal(path1, path2):
        raise NotOrthogonal("path events must be orthogonal")
    rho = atom_state(source_atom)
    # Orthogonal, as decided above.
    either = kind.event_of(path1, kind.sum_of(kind.operand(path1), kind.operand(path2)))
    p_either = prob(rho, either)
    if p_either <= tol:
        raise ZeroProbabilityCondition(
            f"the summed path event has probability {p_either!r} <= {tol!r}",
            probability=p_either)
    p_paths = [prob(rho, path1), prob(rho, path2)]
    terms, degenerate = [], []
    for k, (path, p_path) in enumerate(zip((path1, path2), p_paths), start=1):
        if p_path <= tol:
            degenerate.append(k)
            terms.append(0.0)
            continue
        p_target_after = prob(condition(rho, path, tol=tol), target)
        terms.append(p_target_after * p_path / p_either)
    cross_trace = np.trace(
        rho.matrix @ path1.matrix @ target.matrix @ path2.matrix)
    cross = 2.0 * float(cross_trace.real) / p_either
    p_total = prob(condition(rho, either, tol=tol), target)
    return InterferenceReport(
        p_total=p_total, term1=terms[0], term2=terms[1], cross=cross,
        p_path1=p_paths[0], p_path2=p_paths[1], p_either_path=p_either,
        degenerate_paths=tuple(degenerate))


def two_slit(source: StateVector, path1: StateVector, path2: StateVector,
             detector: StateVector, tol: float = DEFAULT_PATH_TOL) -> float:
    """Detection probability behind two slits, in closed rank-one form.

    |<source|path1><path1|detector> + <source|path2><path2|detector>|^2
    divided by |<source|path1>|^2 + |<source|path2>|^2.

    The path vectors must be orthogonal as given, |<path1|path2>| <=
    TOL_OVERLAP (1e-8; no re-orthogonalization is applied); a denominator,
    the probability of either path, <= tol raises DegenerateDenominator.
    """
    _require_tolerance(tol)
    _require_instance(StateVector, source=source, path1=path1, path2=path2, detector=detector)
    dims = {source.dim, path1.dim, path2.dim, detector.dim}
    if len(dims) != 1:
        raise DimensionMismatch(f"vectors have different dimensions: {sorted(dims)}")
    overlap = abs(np.vdot(path1.vector, path2.vector))
    if overlap > TOL_OVERLAP:
        raise NotOrthogonal(f"path vectors overlap: |<path1|path2>| = {overlap:.3e} exceeds "
                            f"{TOL_OVERLAP:.1e}; supply orthogonal paths")
    amp1_in = np.vdot(source.vector, path1.vector)
    amp2_in = np.vdot(source.vector, path2.vector)
    denom = float(abs(amp1_in) ** 2 + abs(amp2_in) ** 2)
    if denom <= tol:
        raise DegenerateDenominator(
            f"source has no amplitude on either path: denominator {denom!r}")
    amp = amp1_in * np.vdot(path1.vector, detector.vector) + \
        amp2_in * np.vdot(path2.vector, detector.vector)
    return float(_clamp_probability(abs(amp) ** 2 / denom))
