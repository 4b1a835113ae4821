"""States, conditioning, statistical predictability, and compatibility.

Classical states are weight vectors over a finite sample space; quantum
states are density matrices.  Conditioning follows the compression rule
rho -> E rho E / tr(rho E) (restriction and renormalization in the
classical case).  Predictability detection certifies the algebraic
criterion {F,E,F} = s F, resp. its sequential generalization, so that a
conditional probability exists independently of the underlying state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (AlgebraMismatch, DimensionMismatch, EmptyInput,
                     ImpossibleSequence, NonUniqueConditioningWarning, NotAtom,
                     ValidationError, ZeroEvent, ZeroProbabilityCondition)
from .events import (BooleanEvent, Event, QuantumAlgebra, QuantumEvent,
                     _require_same_kind, below, complement, events_equal, is_atom)
from .linalg import (HermitianOperator, StateVector, _symmetrized,
                     frobenius_norm, min_eigenvalue)

# Relative tolerance for certifying the predictability residual.
DEFAULT_DETECTION_TOL = 1e-8
# Probability threshold below which conditioning is refused.
DEFAULT_CONDITION_TOL = 1e-9


class ClassicalState:
    """Probability weights over a finite sample space."""

    __slots__ = ("space", "_weights")

    def __init__(self, space, weights):
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != space.size:
            raise ValidationError(
                f"expected {space.size} weights, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("weights must be finite")
        if arr.min(initial=0.0) < 0.0:
            raise ValidationError(f"weights must be nonnegative, min = {arr.min()!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {total!r}, not 1 within 1e-12")
        arr = arr.copy()
        arr.flags.writeable = False
        self.space = space
        self._weights = arr

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def __eq__(self, other):
        if not isinstance(other, ClassicalState):
            return NotImplemented
        return self.space == other.space and bool(
            np.array_equal(self._weights, other._weights))

    __hash__ = None

    def __repr__(self):
        return f"ClassicalState(size={self.space.size})"


class DensityState:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        op = rho if isinstance(rho, HermitianOperator) else HermitianOperator(rho)
        tr = op.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace {tr!r} is not 1 within 1e-10")
        low = min_eigenvalue(op)
        if low < -1e-10:
            raise ValidationError(
                f"density matrix has eigenvalue {low:.3e} below -1e-10")
        self.rho = op

    @property
    def matrix(self) -> np.ndarray:
        return self.rho.matrix

    @property
    def dim(self) -> int:
        return self.rho.dim

    def __eq__(self, other):
        if not isinstance(other, DensityState):
            return NotImplemented
        return self.rho == other.rho

    __hash__ = None

    def __repr__(self):
        return f"DensityState(dim={self.dim})"


State = Union[ClassicalState, DensityState]


@dataclass(frozen=True)
class PredictabilityResult:
    """Outcome of a predictability test.

    ``s`` is the candidate conditional probability (the trace ratio); it is
    the certified state-independent value exactly when ``predictable`` is
    true, in which case it lies in [0, 1] and ``residual`` is below the
    detection tolerance.
    """

    predictable: bool
    s: float
    residual: float

    def __post_init__(self):
        if self.predictable and not 0.0 <= self.s <= 1.0:
            raise ValidationError(
                f"certified conditional probability {self.s!r} outside [0, 1]")


def _pair_kind(state: State, event: Event) -> str:
    if isinstance(state, ClassicalState) and isinstance(event, BooleanEvent):
        if state.space != event.space:
            raise AlgebraMismatch("state and event live on different sample spaces")
        return "boolean"
    if isinstance(state, DensityState) and isinstance(event, QuantumEvent):
        if state.dim != event.dim:
            raise AlgebraMismatch(
                f"state dimension {state.dim} != event dimension {event.dim}")
        return "quantum"
    raise AlgebraMismatch(
        f"cannot pair {type(state).__name__} with {type(event).__name__}")


def _clamp_probability(p: float, tol: float = 1e-12) -> float:
    if -tol <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + tol:
        return 1.0
    return p


def prob(state: State, event: Event) -> float:
    """Probability of an event in a state."""
    kind = _pair_kind(state, event)
    if kind == "boolean":
        members = sorted(event.members)
        return _clamp_probability(float(state.weights[members].sum()) if members else 0.0)
    value = float(np.trace(state.matrix @ event.matrix).real)
    return _clamp_probability(value)


def _warn_if_nonunique(event: Event) -> None:
    if isinstance(event, QuantumEvent) and event.dim == 2:
        warnings.warn(
            "conditioning in a dimension-2 projection lattice (type I2): the "
            "returned state follows the compression rule, but conditional "
            "probabilities are not unique there",
            NonUniqueConditioningWarning, stacklevel=3)


def condition(state: State, event: Event,
              tol: float = DEFAULT_CONDITION_TOL) -> State:
    """State conditioned on an event of positive probability.

    Classical states are restricted and renormalized; density states are
    compressed, rho -> E rho E / tr(rho E).  Raises
    ZeroProbabilityCondition when the event's probability is <= tol.
    """
    kind = _pair_kind(state, event)
    p = prob(state, event)
    if p <= tol:
        raise ZeroProbabilityCondition(
            f"conditioning event has probability {p!r} <= {tol!r}",
            probability=p)
    _warn_if_nonunique(event)
    if kind == "boolean":
        mask = np.zeros(state.space.size)
        mask[sorted(event.members)] = 1.0
        return ClassicalState(state.space, state.weights * mask / p)
    e = event.matrix
    compressed = _symmetrized(e @ state.matrix @ e)
    return DensityState(compressed / compressed.trace().real)


def condition_seq(state: State, events: Sequence[Event],
                  tol: float = DEFAULT_CONDITION_TOL) -> State:
    """Left fold of :func:`condition` over a sequence of events.

    On failure the raised ZeroProbabilityCondition carries the index of
    the offending event.
    """
    if len(events) == 0:
        raise EmptyInput("condition_seq needs at least one event")
    current = state
    for k, ev in enumerate(events):
        try:
            current = condition(current, ev, tol)
        except ZeroProbabilityCondition as exc:
            raise ZeroProbabilityCondition(
                f"event {k} in the sequence has probability "
                f"{exc.probability!r} <= {tol!r}",
                index=k, probability=exc.probability) from None
    return current


def _boolean_predictability(n_given: int, n_joint: int, tol: float) -> PredictabilityResult:
    # Same residual as the projection formula, evaluated on indicator
    # diagonals: ||FEF - sF||_F^2 = k(1-s)^2 + (|F|-k)s^2 with k = |E & F|.
    s = n_joint / n_given
    residual = math.sqrt(n_joint * (1.0 - s) ** 2 + (n_given - n_joint) * s ** 2)
    scale = max(1.0, math.sqrt(n_given))
    return PredictabilityResult(residual <= tol * scale, s, residual)


def predictability(target: Event, given: Event,
                   tol: float = DEFAULT_DETECTION_TOL) -> PredictabilityResult:
    """Test whether the probability of ``target`` after observing ``given``
    is the same in every state.

    Quantum criterion: F E F = s F with s = tr(FEF)/tr(F).  Boolean events
    are predictable exactly when ``given`` is contained in ``target`` or in
    its complement.
    """
    if _require_same_kind(target, given) == "boolean":
        if not given.members:
            raise ZeroEvent("conditioning event is empty")
        return _boolean_predictability(len(given.members),
                                       len(given.members & target.members), tol)
    if given.proj.rank == 0:
        raise ZeroEvent("conditioning event is the zero projection")
    f = given.matrix
    fef = _symmetrized(f @ target.matrix @ f)
    s = float(fef.trace().real) / float(f.trace().real)
    residual = frobenius_norm(fef - s * f)
    scale = max(1.0, given.proj._norm)
    predictable = residual <= tol * scale
    if predictable and not -tol <= s <= 1.0 + tol:
        predictable = False
    if predictable:
        s = min(1.0, max(0.0, s))
    return PredictabilityResult(predictable, s, residual)


def predictability_seq(target: Event, given: Sequence[Event],
                       tol: float = DEFAULT_DETECTION_TOL) -> PredictabilityResult:
    """Sequential predictability of ``target`` after the yes-outcomes of
    ``given`` observed in order.

    Quantum criterion: with M = F1 ... Fn, the products A = M E M^H and
    B = M M^H must satisfy A = s B, s = tr(A)/tr(B).  Raises
    ImpossibleSequence when tr(B) <= tol (no state realizes the sequence)
    and ZeroEvent when some conditioning event is zero.
    """
    if len(given) == 0:
        raise EmptyInput("predictability_seq needs at least one event")
    first = given[0]
    if isinstance(first, BooleanEvent):
        if not (isinstance(target, BooleanEvent) and target.space == first.space):
            raise AlgebraMismatch("mixed or mismatched events")
        base = frozenset(range(first.space.size))
        for ev in given:
            if not (isinstance(ev, BooleanEvent) and ev.space == first.space):
                raise AlgebraMismatch("mixed or mismatched events")
            if not ev.members:
                raise ZeroEvent("a conditioning event is empty")
            base &= ev.members
        if not base:
            raise ImpossibleSequence("the events have empty intersection")
        return _boolean_predictability(len(base), len(base & target.members), tol)
    if not isinstance(target, QuantumEvent):
        raise AlgebraMismatch("mixed or mismatched events")
    dim = target.dim
    m = np.eye(dim, dtype=np.complex128)
    for ev in given:
        if not (isinstance(ev, QuantumEvent) and ev.dim == dim):
            raise AlgebraMismatch("mixed or mismatched events")
        if ev.proj.rank == 0:
            raise ZeroEvent("a conditioning event is the zero projection")
        m = m @ ev.matrix
    b = _symmetrized(m @ m.conj().T)
    tr_b = float(b.trace().real)
    if tr_b <= tol:
        raise ImpossibleSequence(
            f"no state can realize the sequence: tr(M M^H) = {tr_b!r}")
    a = _symmetrized(m @ target.matrix @ m.conj().T)
    s = float(a.trace().real) / tr_b
    residual = frobenius_norm(a - s * b)
    scale = max(1.0, frobenius_norm(b))
    predictable = residual <= tol * scale
    if predictable and not -tol <= s <= 1.0 + tol:
        predictable = False
    if predictable:
        s = min(1.0, max(0.0, s))
    return PredictabilityResult(predictable, s, residual)


def compatibility_residuals(e: QuantumEvent, f: QuantumEvent) -> tuple[float, float, float]:
    """Residuals of the commutator test and of both probabilistic identities.

    Returns (||EF - FE||, ||E - FEF - F'EF'||, ||F - EFE - E'FE'||); all
    three vanish together in exact arithmetic.
    """
    em, fm = e.matrix, f.matrix
    eye = np.eye(e.dim)
    ec, fc = eye - em, eye - fm
    comm = frobenius_norm(em @ fm - fm @ em)
    ident_e = frobenius_norm(em - fm @ em @ fm - fc @ em @ fc)
    ident_f = frobenius_norm(fm - em @ fm @ em - ec @ fm @ ec)
    return comm, ident_e, ident_f


def compatible(e: Event, f: Event, tol: float = 1e-9) -> bool:
    """Whether both total-probability decompositions hold across the pair.

    Boolean events are always compatible.  Projections are compatible
    exactly when they commute; the commutator test is cross-checked
    against the probabilistic identities and a disagreement (which no
    valid input produces) raises ArithmeticError.
    """
    if _require_same_kind(e, f) == "boolean":
        return True
    comm, ident_e, ident_f = compatibility_residuals(e, f)
    scale = max(1.0, e.proj._norm, f.proj._norm)
    by_commutator = comm <= tol * scale
    by_identities = ident_e <= tol * scale and ident_f <= tol * scale
    if by_commutator != by_identities:
        raise ArithmeticError(
            f"compatibility tests disagree: commutator {comm:.3e}, "
            f"identities ({ident_e:.3e}, {ident_f:.3e}) at tol {tol:.1e}")
    return by_commutator


def atom_state(event: Event) -> State:
    """The unique state assigning probability 1 to an atomic event."""
    if not is_atom(event):
        raise NotAtom("atom_state needs a minimal event")
    if isinstance(event, BooleanEvent):
        weights = np.zeros(event.space.size)
        weights[next(iter(event.members))] = 1.0
        return ClassicalState(event.space, weights)
    return DensityState(event.proj.op)


def rank_one_transition(xi: StateVector, eta: StateVector) -> float:
    """Transition probability |<eta|xi>|^2 between two unit vectors."""
    if xi.dim != eta.dim:
        raise DimensionMismatch(
            f"vectors have different dimensions: {xi.dim} vs {eta.dim}")
    return _clamp_probability(float(abs(np.vdot(eta.vector, xi.vector)) ** 2))


def atom_symmetry_check(e: Event, f: Event, tol: float = 1e-9) -> bool:
    """For two atoms, whether P(e|f) equals P(f|e) within tol."""
    if not (is_atom(e) and is_atom(f)):
        raise NotAtom("atom_symmetry_check needs two atomic events")
    forward = predictability(e, f).s
    backward = predictability(f, e).s
    return abs(forward - backward) <= tol


def is_dispersion_free(state: State, events: Sequence[Event],
                       tol: float = 1e-9) -> bool:
    """Whether the state assigns only 0/1 probabilities to the given events."""
    for ev in events:
        p = prob(state, ev)
        if min(p, 1.0 - p) > tol:
            return False
    return True


def random_density_state(dim: int, rng: np.random.Generator) -> DensityState:
    from .linalg import random_density_matrix
    return DensityState(random_density_matrix(dim, rng))


# ---------------------------------------------------------------------------
# Tabular states over an explicit finite event list, and the qubit
# non-uniqueness construction they were built to exhibit.

class TableState:
    """A finite probability table over an explicit event list.

    The listed events must be closed under complement (``complements``
    maps each name to its partner's name); values of complementary pairs
    must sum to 1 and any listed unit event must get value 1.  Everything
    is checked at construction, so an existing TableState is a valid
    state on its little event list.
    """

    __slots__ = ("events", "values", "complements")

    def __init__(self, events: Mapping[str, QuantumEvent],
                 values: Mapping[str, float],
                 complements: Mapping[str, str]):
        events = dict(events)
        values = {k: float(v) for k, v in values.items()}
        complements = dict(complements)
        names = set(events)
        if set(values) != names or set(complements) != names:
            raise ValidationError("events, values and complements must share one name set")
        if not names:
            raise ValidationError("table must list at least one event")
        dims = {ev.dim for ev in events.values()}
        if len(dims) != 1:
            raise ValidationError("all listed events must share one dimension")
        for name, partner in complements.items():
            if partner not in names:
                raise ValidationError(f"complement partner {partner!r} not listed")
            if complements[partner] != name:
                raise ValidationError(f"complement map is not an involution at {name!r}")
            # Float complements round-trip only to ~1 ulp, so compare with a
            # tight tolerance rather than bitwise.
            if not events_equal(events[partner], complement(events[name]), tol=1e-12):
                raise ValidationError(
                    f"event {partner!r} is not the complement of {name!r}")
            total = values[name] + values[partner]
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(
                    f"values of {name!r} and {partner!r} sum to {total!r}, not 1")
        for name, value in values.items():
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValidationError(f"value of {name!r} is {value!r}, outside [0, 1]")
        dim = dims.pop()
        eye = np.eye(dim, dtype=np.complex128)
        for name, ev in events.items():
            if ev.proj.rank == dim and frobenius_norm(ev.matrix - eye) <= 1e-12:
                if abs(values[name] - 1.0) > 1e-12:
                    raise ValidationError(
                        f"unit event {name!r} has value {values[name]!r}, expected 1")
        self.events = events
        self.values = values
        self.complements = complements

    def value(self, name: str) -> float:
        return self.values[name]

    def __repr__(self):
        return f"TableState(names={sorted(self.events)})"


def conditioning_contract_violations(table: TableState, base: DensityState,
                                     condition_name: str,
                                     tol: float = 1e-10) -> list[str]:
    """Check a table against the conditional-probability contract.

    For every listed event X below the conditioning event E, the table
    must assign value(X) = prob(base, X) / prob(base, E).  Returns a list
    of human-readable violations (empty when the contract holds).
    """
    cond = table.events[condition_name]
    p_cond = prob(base, cond)
    if p_cond <= 0.0:
        return [f"base state gives {condition_name!r} probability {p_cond!r}"]
    out = []
    for name, ev in table.events.items():
        if not below(ev, cond):
            continue
        expected = prob(base, ev) / p_cond
        got = table.values[name]
        if abs(got - expected) > tol:
            out.append(f"{name!r}: table value {got!r} != {expected!r}")
    return out


@dataclass(frozen=True)
class QubitNonUniquenessReport:
    """Two distinct valid conditionals for one condition on a qubit list.

    ``compression`` holds the values induced by the compression rule;
    ``alternative`` flips the free values (or pins them to 1/0 in the
    symmetric special case).  Both satisfy the conditional-probability
    contract on the listed events, witnessing non-uniqueness.
    """

    compression: TableState
    alternative: TableState
    base: DensityState
    condition_name: str
    differ_on: tuple[str, ...]
    special_case: bool
    note: str

    @property
    def distinct(self) -> bool:
        return bool(self.differ_on)


def qubit_nonuniqueness_demo(angle: float = math.pi / 4) -> QubitNonUniquenessReport:
    """Build two different conditional states on a six-event qubit list.

    The list {0, 1, E, E', G, G'} uses E projecting on (1, 0) and G on
    (cos angle, sin angle).  Conditioning the maximally mixed state on E
    pins the values of 0, 1, E, E' only; G is not comparable to E, so its
    value is free.  The compression rule picks cos^2(angle); flipping G
    with G' (or pinning G to 1 when the compression value is exactly 1/2)
    gives a second valid conditional.
    """
    alg = QuantumAlgebra(2)
    e = alg.event_from_span([np.array([1.0, 0.0])])
    g = alg.event_from_span([np.array([math.cos(angle), math.sin(angle)])])
    events = {"zero": alg.zero(), "one": alg.one(),
              "E": e, "E'": complement(e),
              "G": g, "G'": complement(g)}
    complements = {"zero": "one", "one": "zero",
                   "E": "E'", "E'": "E",
                   "G": "G'", "G'": "G"}
    base = DensityState(np.eye(2, dtype=np.complex128) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUniqueConditioningWarning)
        conditioned = condition(base, e)
    nu1 = {name: prob(conditioned, ev) for name, ev in events.items()}
    special = abs(nu1["G"] - 0.5) <= 1e-12
    nu2 = dict(nu1)
    if special:
        nu2["G"], nu2["G'"] = 1.0, 0.0
    else:
        nu2["G"], nu2["G'"] = nu1["G'"], nu1["G"]
    table1 = TableState(events, nu1, complements)
    table2 = TableState(events, nu2, complements)
    differ = tuple(sorted(n for n in events
                          if abs(nu1[n] - nu2[n]) > 1e-12))
    return QubitNonUniquenessReport(
        compression=table1, alternative=table2, base=base,
        condition_name="E", differ_on=differ, special_case=special,
        note=alg.flag or "")
