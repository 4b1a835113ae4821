"""States, conditioning, statistical predictability, and compatibility.

Classical states are weight vectors over a finite sample space; quantum
states are density matrices.  Conditioning follows the compression rule
rho -> E rho E / tr(rho E) (restriction and renormalization in the
classical case).  Predictability detection certifies the algebraic
criterion {F,E,F} = s F, resp. its sequential generalization, so that a
conditional probability exists independently of the underlying state.

The two state classes are handed to their algebra kinds (``events``),
which hold the arithmetic: a function here looks the kind up once and runs
its stacked routines on a stack of one state, so ``prob`` and
``condition`` carry the bits of the sampler's level stacks on kernels where
the ``kernel_dependent`` tests pass.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (AlgebraMismatch, DimensionMismatch, EmptyInput, NonUniqueConditioningWarning,
                     NotAtom, ValidationError, ZeroProbabilityCondition)
from .events import (_BOOLEAN, _QUANTUM, Event, QuantumAlgebra, QuantumEvent, SampleSpace,
                     _clamp_probability, _event_kind, _pair_verdict, _require_instance,
                     _require_tolerance, _shared_kind, below, complement, events_equal)
from .linalg import (DEFAULT_CONDITION_TOL, DEFAULT_DETECTION_TOL, DEFAULT_EVENT_TOL,
                     TOL_CONTRACT, TOL_SAME_P, TOL_TABLE, TOL_TRACE, HermitianOperator,
                     StateVector, _check_density_stack, _check_weight_rows, _numeric_array,
                     _require_sequence, _within)


class ClassicalState:
    """Probability weights over a finite sample space."""

    __slots__ = ("space", "_weights")

    def __init__(self, space, weights):
        _require_instance(SampleSpace, space=space)
        arr = _numeric_array(weights, np.float64, "weights")
        if arr.ndim != 1 or arr.shape[0] != space.size:
            raise ValidationError(
                f"expected {space.size} weights, got shape {arr.shape}")
        _check_weight_rows(arr[None])
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


class DensityState(HermitianOperator):
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    __slots__ = ()

    def __init__(self, rho):
        self._take(rho)

    def _check(self, given) -> None:
        if not isinstance(given, DensityState):
            _check_density_stack(self._matrix[None])


State = Union[ClassicalState, DensityState]
_BOOLEAN.state, _QUANTUM.state = ClassicalState, DensityState


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


def _check_probabilities(p: np.ndarray, tol: float) -> None:
    """Raises ZeroProbabilityCondition for the first probability <= tol."""
    if p.min() <= tol:
        p0 = float(p[(p <= tol).argmax()])
        raise ZeroProbabilityCondition(
            f"conditioning event has probability {p0!r} <= {tol!r}", probability=p0)


def prob(state: State, event: Event) -> float:
    """Probability of an event in a state."""
    kind = _shared_kind(state, event, state=True)
    return float(kind.probabilities(kind.state_stack(state), kind.operand(event))[0])


def condition(state: State, event: Event,
              tol: float = DEFAULT_CONDITION_TOL) -> State:
    """State conditioned on an event of positive probability.

    Classical states are restricted and renormalized; density states are
    compressed, rho -> E rho E / tr(rho E).  Raises
    ZeroProbabilityCondition when the event's probability is <= tol.
    """
    _require_tolerance(tol)
    kind = _shared_kind(state, event, state=True)
    stack, operand = kind.state_stack(state), kind.operand(event)
    p = kind.probabilities(stack, operand)
    _check_probabilities(p, tol)
    conditioned = kind.conditioned(stack, operand, p)[0]
    kind.warn_if_nonunique(event)
    return kind.state_of(state, conditioned)


def condition_seq(state: State, events: Sequence[Event],
                  tol: float = DEFAULT_CONDITION_TOL) -> State:
    """Left fold of :func:`condition` over a sequence of events.

    On failure the raised ZeroProbabilityCondition carries the index of
    the offending event.
    """
    _require_sequence(events, "events", "events")
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


def _certified(s: float, residual: float, scale: float, tol: float) -> PredictabilityResult:
    """The verdict on a candidate s: certified when ``_within(residual, tol,
    scale)`` and s lies in [-tol, 1 + tol], and then s is clamped to [0, 1]."""
    predictable = bool(_within(residual, tol, scale)) and -tol <= s <= 1.0 + tol
    if predictable:
        s = min(1.0, max(0.0, s))
    return PredictabilityResult(predictable, s, residual)


def predictability(target: Event, given: Event,
                   tol: float = DEFAULT_DETECTION_TOL) -> PredictabilityResult:
    """Test whether the probability of ``target`` after observing ``given``
    is the same in every state.

    Quantum criterion: F E F = s F with s = tr(FEF)/tr(F).  Boolean events
    are predictable exactly when ``given`` is contained in ``target`` or in
    its complement.
    """
    _require_tolerance(tol)
    kind = _shared_kind(target, given)
    return _certified(*kind.predictability(kind.operand(target), kind.operand(given)), tol)


def predictability_seq(target: Event, given: Sequence[Event],
                       tol: float = DEFAULT_DETECTION_TOL) -> PredictabilityResult:
    """Sequential predictability of ``target`` after the yes-outcomes of
    ``given`` observed in order.

    Quantum criterion: with M = F1 ... Fn, the products A = M E M^H and
    B = M M^H must satisfy A = s B, s = tr(A)/tr(B).  Raises
    ImpossibleSequence when tr(B) <= tol (no state realizes the sequence)
    and ZeroEvent when some conditioning event is zero.
    """
    _require_sequence(given, "given", "events")
    if len(given) == 0:
        raise EmptyInput("predictability_seq needs at least one event")
    _require_tolerance(tol)
    kind = _shared_kind(target, given[0])
    return _certified(*kind.predictability_seq(target, given, tol), tol)


def compatibility_residuals(e: QuantumEvent, f: QuantumEvent) -> tuple[float, float, float]:
    """Residuals of the commutator test and of both probabilistic identities.

    Returns (||EF - FE||, ||E - FEF - F'EF'||, ||F - EFE - E'FE'||); all
    three vanish together in exact arithmetic.  Raises AlgebraMismatch
    unless both are quantum events of one dimension.
    """
    kind = _shared_kind(e, f)
    if kind.commutative:
        raise AlgebraMismatch("compatibility residuals need quantum events")
    return kind.compatibility_residuals(kind.operand(e), kind.operand(f))


def compatible(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Whether both total-probability decompositions hold across the pair.

    Boolean events are always compatible.  Projections are compatible
    exactly when they commute, and the verdict is the commutator test
    ||EF - FE||_F <= tol * max(1, ||E||_F, ||F||_F) alone.  The identity
    residuals of :func:`compatibility_residuals` equal the commutator norm
    in exact arithmetic only, so they are reported, never consulted.
    """
    _require_tolerance(tol)
    return _shared_kind(e, f).commutative or _pair_verdict("commutator", e, f, tol)


def atom_state(event: Event) -> State:
    """The unique state assigning probability 1 to an atomic event."""
    kind = _event_kind(event, "event")
    if not kind.is_atom(event):
        raise NotAtom("atom_state needs a minimal event")
    return kind.state_of(event, _unit_trace(kind.operand(event)))


def _unit_trace(a: np.ndarray) -> np.ndarray:
    """``a``, a weight row or a matrix, divided by its sum or trace when
    that is farther than TOL_TRACE from 1, else ``a`` itself.

    An accepted projection's trace may be 1 +- TOL_IDEMPOTENT and a unit
    vector's squared norm 1 +- 2 TOL_NORM, while a state's trace must be
    1 +- TOL_TRACE.  As the scenario parser does with vector norms, only an
    array beyond the bound is divided, so every other keeps its bits.
    """
    total = float(a.sum() if a.ndim == 1 else a.trace().real)
    return a / total if abs(total - 1.0) > TOL_TRACE else a


def rank_one_transition(xi: StateVector, eta: StateVector) -> float:
    """Transition probability |<eta|xi>|^2 between two unit vectors."""
    _require_instance(StateVector, xi=xi, eta=eta)
    if xi.dim != eta.dim:
        raise DimensionMismatch(
            f"vectors have different dimensions: {xi.dim} vs {eta.dim}")
    return float(_clamp_probability(abs(np.vdot(eta.vector, xi.vector)) ** 2))


def atom_symmetry_check(e: Event, f: Event) -> bool:
    """For two atoms, whether P(e|f) equals P(f|e) within TOL_SAME_P (1e-9)."""
    if not (_event_kind(e).is_atom(e) and _event_kind(f, "f").is_atom(f)):
        raise NotAtom("atom_symmetry_check needs two atomic events")
    return abs(predictability(e, f).s - predictability(f, e).s) <= TOL_SAME_P


def is_dispersion_free(state: State, events: Sequence[Event]) -> bool:
    """Whether the state assigns only 0/1 probabilities, within TOL_SAME_P
    (1e-9), to the given events."""
    _require_sequence(events, "events", "events")
    return not any(min(p, 1.0 - p) > TOL_SAME_P for p in (prob(state, ev) for ev in events))


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
        _require_instance(Mapping, events=events, values=values, complements=complements)
        events = dict(events)
        for name, ev in events.items():
            if not isinstance(ev, QuantumEvent):
                raise ValidationError(
                    f"event {name!r} must be a QuantumEvent, got {type(ev).__name__}")
        values = {name: _table_value(name, v) for name, v in values.items()}
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
            if not events_equal(events[partner], complement(events[name]), tol=TOL_TABLE):
                raise ValidationError(
                    f"event {partner!r} is not the complement of {name!r}")
            total = values[name] + values[partner]
            if abs(total - 1.0) > TOL_TABLE:
                raise ValidationError(
                    f"values of {name!r} and {partner!r} sum to {total!r}, not 1")
        for name, value in values.items():
            if not -TOL_TABLE <= value <= 1.0 + TOL_TABLE:
                raise ValidationError(f"value of {name!r} is {value!r}, outside [0, 1]")
        dim = dims.pop()
        eye = np.eye(dim, dtype=np.complex128)
        for name, ev in events.items():
            if ev.rank == dim and float(np.linalg.norm(ev.matrix - eye)) <= TOL_TABLE:
                if abs(values[name] - 1.0) > TOL_TABLE:
                    raise ValidationError(
                        f"unit event {name!r} has value {values[name]!r}, expected 1")
        self.events = events
        self.values = values
        self.complements = complements

    def value(self, name: str) -> float:
        return self.values[name]

    def __repr__(self):
        return f"TableState(names={sorted(self.events)})"


def _table_value(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"value of {name!r} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"value of {name!r} must fit in a float") from None


def conditioning_contract_violations(table: TableState, base: DensityState,
                                     condition_name: str) -> list[str]:
    """Check a table against the conditional-probability contract.

    For every listed event X below the conditioning event E, the table
    must assign value(X) = prob(base, X) / prob(base, E) within
    TOL_CONTRACT (1e-10).  Returns a list of human-readable violations
    (empty when the contract holds).
    """
    _require_instance(TableState, table=table)
    try:
        cond = table.events[condition_name]
    except (KeyError, TypeError):  # not listed, or not even a possible key
        raise ValidationError(
            f"condition_name {condition_name!r} is not listed in the table") from None
    p_cond = prob(base, cond)
    if p_cond <= 0.0:
        return [f"base state gives {condition_name!r} probability {p_cond!r}"]
    out = []
    for name, ev in table.events.items():
        if not below(ev, cond):
            continue
        expected = prob(base, ev) / p_cond
        got = table.values[name]
        if abs(got - expected) > TOL_CONTRACT:
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
    try:
        finite = (isinstance(angle, numbers.Real) and not isinstance(angle, bool)
                  and math.isfinite(angle))
    except OverflowError:  # an int beyond the largest float
        finite = False
    if not finite:
        raise ValidationError(f"angle must be a finite real number, got {angle!r}")
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
    special = abs(nu1["G"] - 0.5) <= TOL_TABLE
    nu2 = dict(nu1)
    if special:
        nu2["G"], nu2["G'"] = 1.0, 0.0
    else:
        nu2["G"], nu2["G'"] = nu1["G'"], nu1["G"]
    table1 = TableState(events, nu1, complements)
    table2 = TableState(events, nu2, complements)
    differ = tuple(sorted(n for n in events
                          if abs(nu1[n] - nu2[n]) > TOL_TABLE))
    return QubitNonUniquenessReport(
        compression=table1, alternative=table2, base=base,
        condition_name="E", differ_on=differ, special_case=special,
        note=alg.flag or "")
