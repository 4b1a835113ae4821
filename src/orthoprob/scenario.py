"""Scenario files: parsing, validation, serialization, and query dispatch.

A scenario is one JSON document holding an algebra declaration, named
events, named states, and a single query record.  Complex numbers are
two-element [re, im] arrays; matrices are row-major nested arrays of such
pairs.  Parsing separates syntax errors (ParseError) from semantic ones
(ValidationError, with the offending location in the message).

``QUERY_TABLE`` is the single place where a query kind is declared: its
fields in wire order, each with its reference type, its runner, and the
subcommand that runs it.  Parsing, serialization, reference checks and
the command line's choice of kinds are generic loops over it.
``_FORMS`` is the single place where an algebra kind's wire forms are
declared: its algebra record and the forms of its events and states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import AlgebraMismatch, DimensionMismatch, ParseError, ValidationError
from .events import (_QUANTUM, _SEED_BOUND, DEFAULT_AXIOM_BUDGET, DEFAULT_SEED, DEFAULT_TRIALS,
                     BooleanAlgebra, Event, EventAlgebra, QuantumAlgebra, QuantumEvent,
                     _require_instance, _require_tolerance, verify_orthospace_axioms)
from .linalg import (DEFAULT_QUERY_TOL, TOL_NORM, TOL_WIRE_NORM, Projection, StateVector,
                     _adopted, _adopted_vector, _hermitian_array, _projection_checks,
                     _require_finite, _require_int, _span_matrix, _vector_norm)
from .states import (ClassicalState, DensityState, State, _commutes, _unit_trace,
                     compatibility_residuals, compatible, condition, condition_seq,
                     predictability, predictability_seq, prob)

# Largest Boolean ``size`` or quantum ``dim`` a scenario may declare: the
# dense kernel's design ceiling.  The library constructors take any size.
MAX_ALGEBRA_SIZE = 64
# Largest axiom ``budget`` a scenario or ``orthoprob axioms --budget`` may
# ask for: ten times the default, which at dim 64 is already minutes of
# rounds.  verify_orthospace_axioms itself takes any budget.
MAX_AXIOM_BUDGET = 10_000
# Largest ``orthoprob --trials``: the sampler's per-trial node ids then take
# 40 MB.  sample_chain itself takes any trial count.
MAX_TRIALS = 10_000_000


# ---------------------------------------------------------------------------
# Wire format helpers.

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _decode_complex(value, where: str) -> complex:
    if (not isinstance(value, list) or len(value) != 2
            or not all(_is_number(x) for x in value)):
        raise ValidationError(f"{where}: expected a two-element [re, im] array")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise ValidationError(f"{where}: [re, im] entries must fit in a float") from None


# The per-entry loops below are the reference decoders.  _decode_array
# falls back to them for any input it does not convert itself, so they
# alone word the errors, and they accept what the fast path leaves out,
# such as subclasses of list, int and float.

def _decode_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a nonempty array of [re, im] pairs")
    return np.array([_decode_complex(x, f"{where}[{i}]")
                     for i, x in enumerate(value)], dtype=np.complex128)


def _decode_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a nonempty array of rows")
    rows = [_decode_vector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ValidationError(f"{where}: rows have different lengths")
    return np.array(rows, dtype=np.complex128)


def _decode_array(value, where: str, ndim: int) -> np.ndarray:
    """A vector (``ndim`` 1) or matrix (``ndim`` 2) of [re, im] pairs, as
    complex128: ``_regular_array`` of it, or when that is None, its value
    by the per-entry reference decoders, which give the same values."""
    arr = _regular_array(value, ndim)
    return arr if arr is not None else \
        (_decode_vector if ndim == 1 else _decode_matrix)(value, where)


def _regular_array(value, ndim: int) -> np.ndarray | None:
    """``value`` as a complex128 array of ``ndim`` dimensions when it is a
    regular array of [re, im] pairs of plain numbers, flattened in one walk,
    one level at a time, and converted whole; else None."""
    level, shape = [value], []
    for _ in range(ndim + 1):
        # Exactly lists, all of one nonempty length.
        if not {list}.issuperset(map(type, level)):
            break
        lengths = set(map(len, level))
        if len(lengths) != 1 or 0 in lengths:
            break
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    else:
        # Exactly int and float entries: numpy would read True as 1.
        if shape[-1] == 2 and {int, float}.issuperset(map(type, level)):
            try:
                flat = np.array(level, dtype=np.float64)
            except OverflowError:  # the per-entry decoder reports it
                pass
            else:
                return flat.view(np.complex128).reshape(shape[:-1])
    return None


def _encode_array(arr: np.ndarray) -> list:
    """A complex vector or matrix as nested lists of [re, im] float pairs."""
    return np.ascontiguousarray(arr, np.complex128).view(np.float64) \
        .reshape(*arr.shape, 2).tolist()


def _require_keys(doc: dict, where: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> None:
    for key in required:
        if key not in doc:
            raise ValidationError(f"{where}: missing required key {key!r}")
    extra = set(doc) - set(required) - set(optional)
    if extra:
        raise ValidationError(f"{where}: unknown keys {sorted(extra)}")


def _form(spec, where: str, forms: tuple[str, ...]) -> str:
    """The one key of ``spec`` among ``forms``; ``spec`` may have no other key."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: expected an object")
    present = [k for k in forms if k in spec]
    if len(present) != 1:
        raise ValidationError(
            f"{where}: exactly one of {', '.join(map(repr, forms))} is required")
    if len(spec) > 1:  # keys beyond the form's
        _require_keys(spec, where, tuple(present))
    return present[0]


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where}: expected a nonempty string")
    return value


def _bounded_int(value, where: str, ceiling: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{where}: expected a positive integer")
    if value > ceiling:
        raise ValidationError(f"{where}: expected at most {ceiling}")
    return value


def _string_list(value, where: str, minimum: int = 1) -> tuple[str, ...]:
    if not isinstance(value, list) or len(value) < minimum:
        raise ValidationError(f"{where}: expected an array of at least {minimum} name(s)")
    return tuple(_string(x, f"{where}[{i}]") for i, x in enumerate(value))


# ---------------------------------------------------------------------------
# Query records.

# Reference types of query fields.  STATE, VECTOR (a state given as a unit
# vector) and EVENT name one entry; EVENTS names at least one event; THEN is
# an optional list of events, omitted when empty; BUDGET is an optional
# positive integer.
STATE, VECTOR, EVENT, EVENTS, THEN, BUDGET = (
    "state", "vector", "event", "events", "then", "budget")
_OPTIONAL = (THEN, BUDGET)


@dataclass(frozen=True)
class Query:
    """One query record: its kind and its fields in ``QUERY_TABLE`` order.

    Name fields hold strings, list fields tuples of strings and ``budget``
    an int.
    """

    kind: str
    fields: dict[str, Any]


def _parse_query(doc, where: str = "query") -> Query:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected an object")
    kind = _string(doc.get("kind", ""), f"{where}.kind")
    if kind not in QUERY_TABLE:
        raise ValidationError(
            f"{where}.kind: unknown query kind {kind!r} (expected one of {', '.join(QUERY_TABLE)})")
    spec = QUERY_TABLE[kind].fields.items()
    _require_keys(doc, where, ("kind",) + tuple(n for n, ref in spec if ref not in _OPTIONAL),
                  tuple(n for n, ref in spec if ref in _OPTIONAL))
    fields = {}
    for name, ref in spec:
        at = f"{where}.{name}"
        if ref == BUDGET:
            fields[name] = _bounded_int(doc.get(name, DEFAULT_AXIOM_BUDGET), at, MAX_AXIOM_BUDGET)
        elif ref == THEN:
            fields[name] = _string_list(doc.get(name, []), at, minimum=0)
        elif ref == EVENTS:
            fields[name] = _string_list(doc[name], at)
        else:
            fields[name] = _string(doc[name], at)
    return Query(kind, fields)


def _query_to_jsonable(query: Query, then: bool = True) -> dict:
    """The query's wire record; ``then=False`` leaves out THEN fields."""
    out = {"kind": query.kind}
    for name, ref in QUERY_TABLE[query.kind].fields.items():
        value = query.fields[name]
        if ref == THEN and not (then and value):
            continue
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# Wire forms of each algebra kind.
#
# ``_FORMS`` maps the "kind" of an algebra record to that kind's wire forms:
# its algebra record, and its event and state forms, each parsed by
# ``event`` or ``state`` from the form, its value and the entry's location.
# ``events`` then makes the events of a whole document from what ``event``
# gave: a quantum ``event`` leaves its projection check to it.

class _BooleanForms:
    event_forms, state_forms = ("members",), ("weights",)

    def algebra(self, doc: dict, where: str) -> BooleanAlgebra:
        _require_keys(doc, where, ("kind", "size"), ("labels",))
        size = _bounded_int(doc["size"], f"{where}.size", MAX_ALGEBRA_SIZE)
        labels = None
        if "labels" in doc:
            labels = _string_list(doc["labels"], f"{where}.labels")
        try:
            return BooleanAlgebra(size, labels)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    def algebra_record(self, algebra: BooleanAlgebra) -> dict:
        record: dict = {"kind": "boolean", "size": algebra.size}
        if algebra.space.labels is not None:
            record["labels"] = list(algebra.space.labels)
        return record

    def event(self, algebra: BooleanAlgebra, form: str, members, where: str) -> Event:
        if not isinstance(members, list) or not ({int}.issuperset(map(type, members)) or all(
                isinstance(i, int) and not isinstance(i, bool) for i in members)):
            raise ValidationError("'members' must be an array of integers")
        return algebra.event(members)

    def events(self, parsed: dict) -> dict:
        return parsed

    def event_record(self, event) -> dict:
        return {"members": sorted(event.members)}

    def state(self, algebra: BooleanAlgebra, form: str, weights, where: str) -> State:
        if not isinstance(weights, list) or not (
                {int, float}.issuperset(map(type, weights)) or all(map(_is_number, weights))):
            raise ValidationError("'weights' must be an array of numbers")
        try:
            weights = np.array(weights, dtype=np.float64)
        except OverflowError:
            raise ValidationError("'weights' entries must fit in a float") from None
        return ClassicalState(algebra.space, weights)

    def state_record(self, state) -> dict:
        return {"weights": state.weights.tolist()}


class _QuantumForms:
    event_forms, state_forms = ("matrix", "span"), ("density", "vector")

    def algebra(self, doc: dict, where: str) -> QuantumAlgebra:
        _require_keys(doc, where, ("kind", "dim"))
        return QuantumAlgebra(_bounded_int(doc["dim"], f"{where}.dim", MAX_ALGEBRA_SIZE))

    def algebra_record(self, algebra: QuantumAlgebra) -> dict:
        return {"kind": "quantum", "dim": algebra.dim}

    def event(self, algebra: QuantumAlgebra, form: str, value, where: str) -> np.ndarray:
        """The event's Hermitian matrix, of the algebra's dimension, not yet
        checked as a projection: ``events`` checks them all at once."""
        if form == "matrix":
            matrix = _hermitian_array(_decode_array(value, f"{where}.matrix", 2))
        else:
            if not isinstance(value, list) or not value:
                raise ValidationError("'span' must be a nonempty array of vectors")
            # A regular span is decoded whole, its vectors the rows of one
            # array; any other vector by vector, so that a fault is located.
            rows = _regular_array(value, 2)
            matrix = _span_matrix(rows if rows is not None else
                                  [_decode_array(v, f"{where}.span[{i}]", 1)
                                   for i, v in enumerate(value)])
        if len(matrix) != algebra.dim:
            # Refused as algebra.event refuses it: projection check first.
            algebra.event(_adopted(Projection, matrix))
        return matrix

    def events(self, parsed: dict) -> dict:
        """The matrices of ``parsed``, a dict from names to the results of
        ``event``, as events, after one projection check of their stack;
        the first to fail is reported."""
        if not parsed:
            return {}
        errors, norms, ranks = _projection_checks(np.array(list(parsed.values())))
        for name, error in zip(parsed, errors):
            if error:
                raise ValidationError(f"events.{name}: {error}")
        return {name: _adopted(QuantumEvent, matrix, (int(rank), norm))
                for (name, matrix), rank, norm in zip(parsed.items(), ranks.tolist(),
                                                      norms.tolist())}

    def event_record(self, event) -> dict:
        return {"matrix": _encode_array(event.matrix)}

    def state(self, algebra: QuantumAlgebra, form: str, value, where: str) -> State | StateVector:
        if form == "density":
            arr = _decode_array(value, f"{where}.density", 2)
            if arr.shape[0] != algebra.dim:
                raise ValidationError(
                    f"density matrix is {arr.shape[0]}x{arr.shape[1]}, "
                    f"algebra dimension is {algebra.dim}")
            return DensityState(arr)
        arr = _decode_array(value, f"{where}.vector", 1)
        if arr.shape[0] != algebra.dim:
            raise ValidationError(
                f"vector has {arr.shape[0]} entries, algebra dimension is {algebra.dim}")
        norm = _vector_norm(arr)
        if abs(norm - 1.0) > TOL_WIRE_NORM:
            raise ValidationError(
                f"vector norm {norm!r} is farther than 1e-6 from 1; not normalizing")
        if math.isnan(norm):  # a NaN entry: an infinite one made the norm infinite
            _require_finite(arr, "state vector")
        # Dividing an already unit vector would move its bits on every parse.
        # Either way the vector is a fresh one of norm 1 within TOL_NORM.
        return _adopted_vector(arr / norm if abs(norm - 1.0) > TOL_NORM else arr)

    def state_record(self, state) -> dict:
        if isinstance(state, StateVector):
            return {"vector": _encode_array(state.vector)}
        return {"density": _encode_array(state.matrix)}


_FORMS = {"boolean": _BooleanForms(), "quantum": _QuantumForms()}
# The algebra kind that each event form and each state form needs.
_FORM_KINDS = {role: {form: kind for kind, forms in _FORMS.items()
                      for form in getattr(forms, f"{role}_forms")}
               for role in ("event", "state")}


def _parse_algebra(doc, where: str = "algebra") -> EventAlgebra:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected an object")
    kind = _string(doc.get("kind", ""), f"{where}.kind")
    if kind not in _FORMS:
        raise ValidationError(
            f"{where}.kind: expected {' or '.join(map(repr, _FORMS))}, got {kind!r}")
    return _FORMS[kind].algebra(doc, where)


def _located(where: str, exc: Exception) -> ValidationError:
    """``exc`` as a ValidationError that names ``where`` once: the array
    decoders already start their messages with ``where`` and a key."""
    message = str(exc)
    return ValidationError(message if message.startswith(where + ".")
                           else f"{where}: {message}")


def _parse_entry(algebra: EventAlgebra, role: str, name: str, spec):
    """The ``role`` ("event" or "state") named ``name``, in the one form
    its ``spec`` names, as its kind's ``event`` or ``state`` parses it."""
    where = f"{role}s.{name}"
    kinds = _FORM_KINDS[role]
    form = _form(spec, where, tuple(kinds))
    try:
        if kinds[form] != algebra.kind:
            raise ValidationError(f"{form!r} {role}s need a {kinds[form]} algebra")
        return getattr(_FORMS[algebra.kind], role)(algebra, form, spec[form], where)
    except (AlgebraMismatch, DimensionMismatch, ValidationError) as exc:
        raise _located(where, exc) from None


# ---------------------------------------------------------------------------
# Scenario documents.

@dataclass(eq=False)
class Scenario:
    """Parsed scenario: an algebra, named events and states, one query.

    ``query`` may be None for documents that only declare an algebra with
    events and states (useful as input to the axiom checker).
    """

    algebra: EventAlgebra
    events: dict[str, Event]
    states: dict[str, State | StateVector]
    query: Query | None

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return scenario_to_jsonable(self) == scenario_to_jsonable(other)

    __hash__ = None


def _check_references(query: Query, events: dict, states: dict) -> None:
    for name, ref in QUERY_TABLE[query.kind].fields.items():
        value, where = query.fields[name], f"query.{name}"
        if ref == BUDGET:
            continue
        pool, what = (states, "state") if ref in (STATE, VECTOR) else (events, "event")
        located = [(where, value)] if isinstance(value, str) else \
            [(f"{where}[{i}]", n) for i, n in enumerate(value)]
        for at, n in located:
            if n not in pool:
                raise ValidationError(f"{at}: unknown {what} {n!r}")
            if ref == VECTOR and not isinstance(pool[n], StateVector):
                raise ValidationError(f"{at}: state {n!r} must be a 'vector' state")


def _parse_events(algebra: EventAlgebra, raw_events: dict) -> dict[str, Event]:
    """The document's events, in document order.

    Quantum events are checked as projections in one stacked call once
    every entry has been read.  When an entry fails before that, the
    entries before it are checked first, so the error raised is always the
    first one in document order.
    """
    forms = _FORMS[algebra.kind]
    parsed = {}
    try:
        for name, spec in raw_events.items():
            parsed[name] = _parse_entry(algebra, "event", _string(name, "events key"), spec)
    except ValidationError:
        forms.events(parsed)
        raise
    return forms.events(parsed)


def scenario_from_jsonable(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    _require_keys(doc, "scenario", ("algebra",), ("events", "states", "query"))
    algebra = _parse_algebra(doc["algebra"])
    raw_events = doc.get("events", {})
    if not isinstance(raw_events, dict):
        raise ValidationError("events: expected an object")
    events = _parse_events(algebra, raw_events)
    states: dict[str, State | StateVector] = {}
    raw_states = doc.get("states", {})
    if not isinstance(raw_states, dict):
        raise ValidationError("states: expected an object")
    for name, spec in raw_states.items():
        states[_string(name, "states key")] = _parse_entry(algebra, "state", name, spec)
    query = None
    if "query" in doc:
        query = _parse_query(doc["query"])
        _check_references(query, events, states)
    return Scenario(algebra=algebra, events=events, states=states, query=query)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; ParseError for syntax, ValidationError for meaning."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ValidationError(f"text must be str, bytes or bytearray, got {type(text).__name__}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, the plain ValueError of an integer literal
        # longer than Python's int conversion limit (4300 digits), and the
        # RecursionError of arrays or objects nested past the stack.
        raise ParseError(f"invalid JSON: {exc}") from None
    return scenario_from_jsonable(doc)


def scenario_to_jsonable(scenario: Scenario) -> dict:
    _require_instance(Scenario, scenario=scenario)
    forms = _FORMS[scenario.algebra.kind]
    doc = {"algebra": forms.algebra_record(scenario.algebra),
           "events": {n: forms.event_record(e) for n, e in scenario.events.items()},
           "states": {n: forms.state_record(s) for n, s in scenario.states.items()}}
    if scenario.query is not None:
        doc["query"] = _query_to_jsonable(scenario.query)
    return doc


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_jsonable(scenario), check_circular=False)


# ---------------------------------------------------------------------------
# Query execution.

def _nan_to_none(x: float | None):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


def _as_state(scenario: Scenario, name: str) -> State:
    state = scenario.states[name]
    if isinstance(state, StateVector):
        return _QUANTUM.state_of(state, _unit_trace(state._outer()))
    return state


def _conditioned(scenario: Scenario, q: dict, echo: dict, state: State, tol: float) -> dict:
    out = {**echo, "conditioned": _FORMS[scenario.algebra.kind].state_record(state),
           "tol": tol}
    if q["then"]:
        out["then"] = {n: prob(state, scenario.events[n]) for n in q["then"]}
    return out


# One runner per query kind; ``echo`` is the query's record without THEN
# fields.  Runners look library functions up by name at call time, so a name
# rebound in this module (for tracing, say) is the one that runs.  The
# interference and sampler runners import their module when called, so that
# a command running neither does not load it.

def _run_prob(scenario, q, echo, tol, seed, trials) -> dict:
    value = prob(_as_state(scenario, q["state"]), scenario.events[q["event"]])
    return {**echo, "value": value, "tol": tol}


def _run_condition(scenario, q, echo, tol, seed, trials) -> dict:
    state = condition(_as_state(scenario, q["state"]), scenario.events[q["event"]], tol=tol)
    return _conditioned(scenario, q, echo, state, tol)


def _run_condition_seq(scenario, q, echo, tol, seed, trials) -> dict:
    state = condition_seq(_as_state(scenario, q["state"]),
                          [scenario.events[n] for n in q["events"]], tol=tol)
    return _conditioned(scenario, q, echo, state, tol)


def _run_predictability(scenario, q, echo, tol, seed, trials) -> dict:
    target = scenario.events[q["target"]]
    given = [scenario.events[n] for n in q["given"]]
    if len(given) == 1:
        result = predictability(target, given[0], tol=tol)
    else:
        result = predictability_seq(target, given, tol=tol)
    return {**echo, "sequence": len(given) > 1, "predictable": result.predictable,
            "s": result.s, "residual": result.residual, "tol": tol}


def _run_compatible(scenario, q, echo, tol, seed, trials) -> dict:
    first, second = scenario.events[q["first"]], scenario.events[q["second"]]
    if first._kind.commutative:
        return {**echo, "compatible": compatible(first, second, tol=tol), "tol": tol}
    comm, ident_first, ident_second = compatibility_residuals(first, second)
    return {**echo, "compatible": _commutes(comm, first, second, tol), "tol": tol,
            "residuals": {"commutator": comm, "identity_first": ident_first,
                          "identity_second": ident_second}}


def _run_interference(scenario, q, echo, tol, seed, trials) -> dict:
    from .interference import interference_decomposition
    report = interference_decomposition(
        *(scenario.events[q[n]] for n in ("atom", "path1", "path2", "target")), tol=tol)
    return {**echo, "p_total": report.p_total, "term1": report.term1,
            "term2": report.term2, "cross": report.cross,
            "p_path1": report.p_path1, "p_path2": report.p_path2,
            "p_either_path": report.p_either_path,
            "degenerate_paths": list(report.degenerate_paths), "tol": tol}


def _run_two_slit(scenario, q, echo, tol, seed, trials) -> dict:
    from .interference import two_slit
    value = two_slit(*(scenario.states[q[n]] for n in ("source", "path1", "path2", "detector")),
                     tol=tol)
    return {**echo, "value": value, "tol": tol}


def _run_sample(scenario, q, echo, tol, seed, trials) -> dict:
    from .sampler import SamplerConfig, sample_chain
    config = SamplerConfig(seed=seed, trials=trials)
    result = sample_chain(_as_state(scenario, q["initial"]),
                          [scenario.events[n] for n in q["tests"]],
                          scenario.events[q["final"]], config)
    return {**echo, "seed": result.seed, "trials": result.trials, "tol": tol,
            "outcome_counts": result.outcome_counts,
            "all_yes_count": result.all_yes_count,
            "final_event_yes_count": result.final_event_yes_count,
            "empirical_p": _nan_to_none(result.empirical_p),
            "std_error": _nan_to_none(result.std_error),
            "predicted_p": result.predicted_p}


def _run_axioms(scenario, q, echo, tol, seed, trials) -> dict:
    report = verify_orthospace_axioms(scenario.algebra, budget=q["budget"],
                                      seed=seed, tol=tol)
    return {"kind": "axioms", "algebra": report.algebra, "budget": q["budget"],
            "seed": report.seed, "tol": tol, "checks": dict(report.checks),
            "failures": dict(report.failures), "passed": report.passed,
            "messages": list(report.messages)}


class QueryKind(NamedTuple):
    fields: dict[str, str]   # field name -> reference type, in wire order
    run: Callable[..., dict]
    command: str             # the subcommand that runs it


QUERY_TABLE = {
    "prob": QueryKind({"state": STATE, "event": EVENT}, _run_prob, "condition"),
    "condition": QueryKind({"state": STATE, "event": EVENT, "then": THEN}, _run_condition,
                           "condition"),
    "condition_seq": QueryKind({"state": STATE, "events": EVENTS, "then": THEN},
                               _run_condition_seq, "condition"),
    "predictability": QueryKind({"target": EVENT, "given": EVENTS}, _run_predictability,
                                "predict"),
    "compatible": QueryKind({"first": EVENT, "second": EVENT}, _run_compatible, "compat"),
    "interference": QueryKind({"atom": EVENT, "path1": EVENT, "path2": EVENT,
                               "target": EVENT}, _run_interference, "interfere"),
    "two_slit": QueryKind({"source": VECTOR, "path1": VECTOR, "path2": VECTOR,
                           "detector": VECTOR}, _run_two_slit, "twoslit"),
    "sample": QueryKind({"initial": STATE, "tests": EVENTS, "final": EVENT}, _run_sample,
                        "sample"),
    "axioms": QueryKind({"budget": BUDGET}, _run_axioms, "axioms"),
}


def run_query(scenario: Scenario, tol: float = DEFAULT_QUERY_TOL, seed: int = DEFAULT_SEED,
              trials: int = DEFAULT_TRIALS) -> dict:
    """Execute the scenario's query and return a JSON-ready result record.

    ``tol`` is forwarded to the underlying operation (conditioning
    threshold, detection tolerance, compatibility tolerance, path
    tolerance); ``seed`` and ``trials`` apply to sampling and axiom queries,
    and are checked for every query kind.
    """
    _require_instance(Scenario, scenario=scenario)
    query = scenario.query
    if query is None:
        raise ValidationError("scenario has no query to run")
    _require_tolerance(tol)
    trials = _require_int(trials, "trials", 1)
    seed = _require_int(seed, "seed", 0, _SEED_BOUND)
    return QUERY_TABLE[query.kind].run(scenario, query.fields,
                                       _query_to_jsonable(query, then=False),
                                       tol, seed, trials)
