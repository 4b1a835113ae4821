"""Scenario JSON layer: parsing, located errors, round-trips, dispatch."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoprob.events
import orthoprob.linalg
from orthoprob import scenario
from orthoprob.errors import ParseError, ValidationError
from orthoprob.events import QuantumEvent
from orthoprob.linalg import StateVector, projector_from_span
from orthoprob.states import DensityState, _unit_trace, condition, prob
from orthoprob.scenario import (parse_scenario, run_query, scenario_from_jsonable,
                                scenario_to_jsonable, serialize_scenario)

from helpers import SEED_REFUSALS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_BOOLEAN = """
{
  "algebra": {"kind": "boolean", "size": 3},
  "events": {"a": {"members": [0, 1]}},
  "states": {"u": {"weights": [0.25, 0.25, 0.5]}},
  "query": {"kind": "prob", "state": "u", "event": "a"}
}
"""


def _forbidden(*args, **kwargs):
    raise AssertionError("a projection check ran")


def quantum_doc(query):
    return json.dumps({
        "algebra": {"kind": "quantum", "dim": 2},
        "events": {
            "up": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            "diag": {"span": [[[1, 0], [1, 0]]]},
        },
        "states": {
            "mixed": {"density": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            "plus": {"vector": [[0.7071067811865476, 0],
                                [0.7071067811865476, 0]]},
        },
        "query": query,
    })


class TestParsing:
    def test_minimal_boolean(self):
        sc = parse_scenario(MINIMAL_BOOLEAN)
        assert sc.algebra.size == 3
        assert sc.events["a"].members == frozenset({0, 1})
        assert sc.query.kind == "prob"

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_scenario("{not json")

    def test_integer_literal_beyond_the_conversion_limit(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer of more than 4300 digits.
        text = '{"algebra": {"kind": "boolean", "size": ' + "9" * 5000 + "}}"
        with pytest.raises(ParseError, match="^invalid JSON: Exceeds the limit"):
            parse_scenario(text)

    def test_nesting_beyond_the_recursion_limit(self):
        text = '{"events": {"a": {"members": ' + "[" * 100_000 + "]" * 100_000 + "}}}"
        with pytest.raises(ParseError,
                           match="^invalid JSON: maximum recursion depth exceeded"):
            parse_scenario(text)

    def test_unknown_top_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_scenario('{"algebra": {"kind": "boolean", "size": 2}, "zap": 1}')

    def test_weights_sum_error_names_state(self):
        doc = ('{"algebra": {"kind": "boolean", "size": 2},'
               ' "states": {"bad": {"weights": [0.4, 0.5]}}}')
        with pytest.raises(ValidationError, match="states.bad"):
            parse_scenario(doc)

    def test_event_form_must_match_algebra(self):
        doc = ('{"algebra": {"kind": "quantum", "dim": 2},'
               ' "events": {"e": {"members": [0]}}}')
        with pytest.raises(ValidationError, match="events.e"):
            parse_scenario(doc)

    def test_exactly_one_event_form(self):
        doc = ('{"algebra": {"kind": "boolean", "size": 2},'
               ' "events": {"e": {"members": [0], "span": []}}}')
        with pytest.raises(ValidationError, match="exactly one"):
            parse_scenario(doc)

    def test_dimension_mismatch_located(self):
        doc = ('{"algebra": {"kind": "quantum", "dim": 3},'
               ' "events": {"e": {"matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}}}')
        with pytest.raises(ValidationError, match="events.e"):
            parse_scenario(doc)

    def test_unknown_query_reference(self):
        doc = ('{"algebra": {"kind": "boolean", "size": 2},'
               ' "events": {"e": {"members": [0]}},'
               ' "states": {"u": {"weights": [0.5, 0.5]}},'
               ' "query": {"kind": "prob", "state": "u", "event": "nope"}}')
        with pytest.raises(ValidationError, match="nope"):
            parse_scenario(doc)

    def test_unknown_query_kind(self):
        doc = ('{"algebra": {"kind": "boolean", "size": 2},'
               ' "query": {"kind": "dance"}}')
        with pytest.raises(ValidationError, match="dance"):
            parse_scenario(doc)

    def test_query_optional(self):
        sc = parse_scenario('{"algebra": {"kind": "boolean", "size": 2}}')
        assert sc.query is None
        with pytest.raises(ValidationError, match="no query"):
            run_query(sc)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            run_query(parse_scenario(MINIMAL_BOOLEAN), tol=tol)

    def test_vector_autonormalizes_within_1e6(self):
        slightly_off = 0.7071067811865476 * (1.0 + 4e-7)
        doc = json.dumps({
            "algebra": {"kind": "quantum", "dim": 2},
            "states": {"v": {"vector": [[slightly_off, 0], [slightly_off, 0]]}},
        })
        sc = parse_scenario(doc)
        assert isinstance(sc.states["v"], StateVector)
        assert np.linalg.norm(sc.states["v"].vector) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
    def test_an_accepted_vector_converts_to_a_state(self):
        # A norm within 1e-10 of 1 is kept as given, and its projector's trace
        # (1 + 1.8e-10) is then divided out; a unit vector keeps its bits.
        off = 1.0 + 0.9e-10
        for scale in (off, 1.0):
            doc = {"algebra": {"kind": "quantum", "dim": 2},
                   "events": {"e": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}},
                   "states": {"v": {"vector": [[0.6 * scale, 0], [0.8 * scale, 0]]}},
                   "query": {"kind": "condition", "state": "v", "event": "e"}}
            sc = scenario_from_jsonable(doc)
            vector = sc.states["v"]
            assert vector.vector.tobytes() == (np.array([0.6, 0.8]) * scale).astype(
                complex).tobytes()
            state = scenario._as_state(sc, "v")
            projector = vector.projector().matrix
            trace = float(projector.trace().real)
            assert state.matrix.tobytes() == (
                projector if scale == 1.0 else projector / trace).tobytes()
            conditioned = np.array(run_query(sc)["conditioned"]["density"])
            assert np.allclose(conditioned[0], np.diag([1.0, 0.0]), rtol=0, atol=1e-15)

    def test_vector_far_from_unit_rejected(self):
        doc = json.dumps({
            "algebra": {"kind": "quantum", "dim": 2},
            "states": {"v": {"vector": [[1.0, 0], [1.0, 0]]}},
        })
        with pytest.raises(ValidationError, match="norm"):
            parse_scenario(doc)

    def test_complex_pairs_required(self):
        doc = ('{"algebra": {"kind": "quantum", "dim": 2},'
               ' "events": {"e": {"matrix": [[1, 0], [0, 0]]}}}')
        with pytest.raises(ValidationError, match="re, im"):
            parse_scenario(doc)

    def test_two_slit_needs_vector_states(self):
        doc = json.dumps({
            "algebra": {"kind": "quantum", "dim": 2},
            "states": {"rho": {"density": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}},
            "query": {"kind": "two_slit", "source": "rho", "path1": "rho",
                      "path2": "rho", "detector": "rho"},
        })
        with pytest.raises(ValidationError, match="vector"):
            parse_scenario(doc)



UNKNOWN_KIND = ("query.kind: unknown query kind 'dance' (expected one of prob, "
                "condition, condition_seq, predictability, compatible, "
                "interference, two_slit, sample, axioms)")
NAMES_1 = "expected an array of at least 1 name(s)"


@pytest.mark.parametrize("query, message", [
    (5, "query: expected an object"),
    ([], "query: expected an object"),
    ({}, "query.kind: expected a nonempty string"),
    ({"kind": 3}, "query.kind: expected a nonempty string"),
    ({"kind": "dance"}, UNKNOWN_KIND),
    ({"kind": "prob"}, "query: missing required key 'state'"),
    ({"kind": "prob", "state": "mixed", "zap": 1},
     "query: missing required key 'event'"),
    ({"kind": "prob", "state": "mixed", "event": "up", "zap": 1, "abc": 2},
     "query: unknown keys ['abc', 'zap']"),
    ({"kind": "axioms", "budget": 5, "state": "mixed"},
     "query: unknown keys ['state']"),
    ({"kind": "prob", "state": 3, "event": "up"},
     "query.state: expected a nonempty string"),
    ({"kind": "prob", "state": "nope", "event": ""},
     "query.event: expected a nonempty string"),
    ({"kind": "predictability", "target": "up", "given": "diag"},
     f"query.given: {NAMES_1}"),
    ({"kind": "predictability", "target": "up", "given": []},
     f"query.given: {NAMES_1}"),
    ({"kind": "condition_seq", "state": "mixed", "events": []},
     f"query.events: {NAMES_1}"),
    ({"kind": "condition", "state": "mixed", "event": "up", "then": "diag"},
     "query.then: expected an array of at least 0 name(s)"),
    ({"kind": "sample", "initial": "mixed", "tests": ["up", 1], "final": "diag"},
     "query.tests[1]: expected a nonempty string"),
    ({"kind": "prob", "state": "nope", "event": "nope"},
     "query.state: unknown state 'nope'"),
    ({"kind": "prob", "state": "mixed", "event": "nope"},
     "query.event: unknown event 'nope'"),
    ({"kind": "condition", "state": "mixed", "event": "up",
      "then": ["diag", "nope"]},
     "query.then[1]: unknown event 'nope'"),
    ({"kind": "condition_seq", "state": "mixed", "events": ["up", "nope"]},
     "query.events[1]: unknown event 'nope'"),
    ({"kind": "predictability", "target": "nope", "given": ["up"]},
     "query.target: unknown event 'nope'"),
    ({"kind": "compatible", "first": "up", "second": "nope"},
     "query.second: unknown event 'nope'"),
    ({"kind": "interference", "atom": "up", "path1": "up", "path2": "nope",
      "target": "up"},
     "query.path2: unknown event 'nope'"),
    ({"kind": "two_slit", "source": "plus", "path1": "plus", "path2": "mixed",
      "detector": "plus"},
     "query.path2: state 'mixed' must be a 'vector' state"),
    ({"kind": "two_slit", "source": "plus", "path1": "plus", "path2": "plus",
      "detector": "nope"},
     "query.detector: unknown state 'nope'"),
    ({"kind": "sample", "initial": "mixed", "tests": ["up"], "final": "nope"},
     "query.final: unknown event 'nope'"),
    ({"kind": "axioms", "budget": 0}, "query.budget: expected a positive integer"),
    ({"kind": "axioms", "budget": True}, "query.budget: expected a positive integer"),
    ({"kind": "axioms", "budget": 2.0}, "query.budget: expected a positive integer"),
    ({"kind": "axioms", "budget": scenario.MAX_AXIOM_BUDGET + 1},
     "query.budget: expected at most 10000"),
    ({"kind": "axioms", "budget": 10 ** 12}, "query.budget: expected at most 10000"),
])
def test_malformed_query_message(query, message):
    with pytest.raises(ValidationError) as info:
        parse_scenario(quantum_doc(query))
    assert str(info.value) == message


def one_entry_doc(form, value, dim=1):
    """A quantum document whose only entry, event 'e' or state 's', is given
    in ``form``."""
    section, name = ("events", "e") if form in ("matrix", "span") else ("states", "s")
    return json.dumps({"algebra": {"kind": "quantum", "dim": dim},
                       section: {name: {form: value}}})


@pytest.mark.parametrize("form, value, dim, message", [
    pytest.param("matrix", [[[True, 0]]], 1,
                 "events.e.matrix[0][0]: expected a two-element [re, im] array",
                 id="matrix-bool-re"),
    pytest.param("matrix", [[[0.5, False]]], 1,
                 "events.e.matrix[0][0]: expected a two-element [re, im] array",
                 id="matrix-bool-im"),
    pytest.param("vector", [[1.0, 0.0], [False, 0.0]], 2,
                 "states.s.vector[1]: expected a two-element [re, im] array",
                 id="vector-bool-re"),
    pytest.param("span", [[["1.5", 0]]], 1,
                 "events.e.span[0][0]: expected a two-element [re, im] array",
                 id="span-string-re"),
    pytest.param("density", [[[None, 0]]], 1,
                 "states.s.density[0][0]: expected a two-element [re, im] array",
                 id="density-null-re"),
    pytest.param("matrix", [[[1, 0, 0]]], 1,
                 "events.e.matrix[0][0]: expected a two-element [re, im] array",
                 id="matrix-three-element-entry"),
    pytest.param("vector", [[[1], 0]], 1,
                 "states.s.vector[0]: expected a two-element [re, im] array",
                 id="vector-nested-re"),
    pytest.param("matrix", [[[1, 0], [0, 0]], [[0, 0]]], 2,
                 "events.e.matrix: rows have different lengths",
                 id="matrix-ragged-rows"),
    pytest.param("density", [[[1, 0]], []], 1,
                 "states.s.density[1]: expected a nonempty array of [re, im] pairs",
                 id="density-empty-row"),
    pytest.param("matrix", [{"re": 1}], 1,
                 "events.e.matrix[0]: expected a nonempty array of [re, im] pairs",
                 id="matrix-object-row"),
    pytest.param("matrix", [], 1, "events.e.matrix: expected a nonempty array of rows",
                 id="matrix-empty"),
    pytest.param("vector", [], 1,
                 "states.s.vector: expected a nonempty array of [re, im] pairs",
                 id="vector-empty"),
    pytest.param("span", [[]], 1,
                 "events.e.span[0]: expected a nonempty array of [re, im] pairs",
                 id="span-empty-vector"),
    # The last four messages were never doubled, so they keep their generated ids.
    ("density", [[[2 ** 63, 0]]], 1,
     "states.s: density matrix trace 9.223372036854776e+18 is not 1 within 1e-10"),
    ("density", [[[2 ** 64, 0]]], 1,
     "states.s: density matrix trace 1.8446744073709552e+19 is not 1 within 1e-10"),
    ("matrix", [[[float("nan"), 0]]], 1, "events.e: matrix entries must be finite"),
    ("vector", [[float("nan"), 0]], 1, "states.s: state vector entries must be finite"),
    pytest.param("density", [[[1, 0]]], 2,
                 "states.s: density matrix is 1x1, algebra dimension is 2", id="density-size"),
    pytest.param("vector", [[1, 0]], 2,
                 "states.s: vector has 1 entries, algebra dimension is 2", id="vector-size"),
])
def test_malformed_array_message(form, value, dim, message):
    with pytest.raises(ValidationError) as info:
        parse_scenario(one_entry_doc(form, value, dim))
    assert str(info.value) == message


def one_matrix_jsonable(value):
    return {"algebra": {"kind": "quantum", "dim": 1}, "events": {"e": {"matrix": value}}}


@pytest.mark.parametrize("value, message", [
    pytest.param([[(1, 0)]], "events.e.matrix[0][0]: expected a two-element [re, im] array",
                 id="tuple-entry"),
    pytest.param([[np.array([1.0, 0.0])]],
                 "events.e.matrix[0][0]: expected a two-element [re, im] array",
                 id="ndarray-entry"),
    pytest.param([np.array([[1.0, 0.0]])],
                 "events.e.matrix[0]: expected a nonempty array of [re, im] pairs",
                 id="ndarray-row"),
    pytest.param([[[np.int64(1), 0]]],
                 "events.e.matrix[0][0]: expected a two-element [re, im] array",
                 id="numpy-integer-re"),
])
def test_in_memory_arrays_must_be_lists_of_numbers(value, message):
    with pytest.raises(ValidationError) as info:
        scenario_from_jsonable(one_matrix_jsonable(value))
    assert str(info.value) == message


def test_in_memory_float_subclass_entries_accepted():
    sc = scenario_from_jsonable(one_matrix_jsonable([[[np.float64(1.0), -0.0]]]))
    assert sc.events["e"].matrix.tobytes() == np.array([[complex(1.0, -0.0)]]).tobytes()


HUGE = 10 ** 400  # an integer literal no float can hold


@pytest.mark.parametrize("form, value, message", [
    pytest.param("matrix", [[[HUGE, 0]]],
                 "events.e.matrix[0][0]: [re, im] entries must fit in a float", id="matrix"),
    pytest.param("span", [[[0, -HUGE]]],
                 "events.e.span[0][0]: [re, im] entries must fit in a float", id="span"),
    pytest.param("vector", [[HUGE, 0.5]],
                 "states.s.vector[0]: [re, im] entries must fit in a float", id="vector"),
    pytest.param("density", [[[0, HUGE]]],
                 "states.s.density[0][0]: [re, im] entries must fit in a float", id="density"),
])
def test_oversized_integer_entry_is_a_validation_error(form, value, message):
    with pytest.raises(ValidationError) as info:
        parse_scenario(one_entry_doc(form, value))
    assert str(info.value) == message


def test_oversized_integer_weight_is_a_validation_error():
    doc = json.dumps({"algebra": {"kind": "boolean", "size": 2},
                      "states": {"s": {"weights": [HUGE, 0]}}})
    with pytest.raises(ValidationError) as info:
        parse_scenario(doc)
    assert str(info.value) == "states.s: 'weights' entries must fit in a float"


@pytest.mark.parametrize("algebra, message", [
    ({"kind": "boolean", "size": scenario.MAX_ALGEBRA_SIZE + 1},
     "algebra.size: expected at most 64"),
    ({"kind": "boolean", "size": HUGE}, "algebra.size: expected at most 64"),
    ({"kind": "quantum", "dim": scenario.MAX_ALGEBRA_SIZE + 1},
     "algebra.dim: expected at most 64"),
    ({"kind": "quantum", "dim": 10 ** 30}, "algebra.dim: expected at most 64"),
    pytest.param({"kind": "boolean", "size": 2, "labels": ["a", "a"]},
                 "algebra: sample point labels must be distinct", id="duplicate-labels"),
])
def test_algebra_size_is_bounded(algebra, message):
    with pytest.raises(ValidationError) as info:
        parse_scenario(json.dumps({"algebra": algebra}))
    assert str(info.value) == message


def test_weights_must_be_numbers():
    doc = json.dumps({"algebra": {"kind": "boolean", "size": 2},
                      "states": {"s": {"weights": [0.5, "0.5"]}}})
    with pytest.raises(ValidationError) as info:
        parse_scenario(doc)
    assert str(info.value) == "states.s: 'weights' must be an array of numbers"


def test_algebra_size_ceiling_is_admitted():
    for kind, key in (("boolean", "size"), ("quantum", "dim")):
        sc = parse_scenario(json.dumps(
            {"algebra": {"kind": kind, key: scenario.MAX_ALGEBRA_SIZE}}))
        assert getattr(sc.algebra, key) == 64


def test_axiom_budget_ceiling_is_admitted():
    sc = parse_scenario(quantum_doc({"kind": "axioms",
                                     "budget": scenario.MAX_AXIOM_BUDGET}))
    assert sc.query.fields["budget"] == 10_000


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["sec7", "die", "twoslit", "order", "qubit"])
    def test_shipped_files(self, name):
        text = (SCENARIO_DIR / f"{name}.json").read_text()
        first = parse_scenario(text)
        second = parse_scenario(serialize_scenario(first))
        assert first == second

    def test_complex_entries_survive(self):
        doc = json.dumps({
            "algebra": {"kind": "quantum", "dim": 2},
            "events": {"e": {"span": [[[0.6, 0], [0, 0.8]]]}},
            "states": {},
            "query": None,
        }).replace(', "query": null', "")
        sc = parse_scenario(doc)
        again = parse_scenario(serialize_scenario(sc))
        assert np.array_equal(sc.events["e"].matrix, again.events["e"].matrix)

    @pytest.mark.parametrize("query", [
        {"kind": "compatible", "first": "up", "second": "diag"},
        {"kind": "interference", "atom": "up", "path1": "up", "path2": "diag",
         "target": "diag"},
        {"kind": "sample", "initial": "plus", "tests": ["diag", "up"],
         "final": "up"},
        {"kind": "axioms", "budget": 7},
    ])
    def test_unshipped_query_kinds(self, query):
        sc = parse_scenario(quantum_doc(query))
        assert scenario_to_jsonable(sc)["query"] == query
        assert parse_scenario(serialize_scenario(sc)) == sc

    @pytest.mark.parametrize("query, serialized", [
        ({"kind": "axioms"}, {"kind": "axioms", "budget": 1000}),
        ({"kind": "condition", "state": "mixed", "event": "up", "then": []},
         {"kind": "condition", "state": "mixed", "event": "up"}),
    ])
    def test_query_defaults_serialized(self, query, serialized):
        sc = parse_scenario(quantum_doc(query))
        assert scenario_to_jsonable(sc)["query"] == serialized
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_random_unit_vectors_are_a_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            z /= np.linalg.norm(z)
            doc = json.dumps({
                "algebra": {"kind": "quantum", "dim": 4},
                "states": {"v": {"vector": [[x.real, x.imag] for x in z]}},
            })
            first = parse_scenario(doc)
            assert parse_scenario(serialize_scenario(first)) == first

    def test_jsonable_is_json_safe(self):
        sc = parse_scenario(MINIMAL_BOOLEAN)
        json.dumps(scenario_to_jsonable(sc), allow_nan=False)


# Entries the wire codec must carry bit for bit: signed zeros, subnormals,
# the ends of the float range, non-finite values, and integers, including
# ones numpy reads as uint64 or cannot hold at all.
WIRE_ENTRIES = st.one_of(
    st.floats(),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                     1e308, -1e308, 1.7976931348623157e308, 2 ** 53 + 1,
                     2 ** 63 - 1, -2 ** 63, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 10 ** 300]),
)


@st.composite
def wire_arrays(draw):
    """An ``ndim`` and a wire array of that rank, 1-64 pairs per side, whose
    entries come from a small drawn pool of WIRE_ENTRIES."""
    ndim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, 64)) for _ in range(ndim)) + (2,)
    pool = draw(st.lists(WIRE_ENTRIES, min_size=1, max_size=12))
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))) \
        .integers(0, len(pool), size=shape)
    return ndim, np.vectorize(pool.__getitem__, otypes=[object])(picks).tolist()


def reference_encode(arr):
    """The per-entry encoder the codec replaced."""
    if arr.ndim == 2:
        return [reference_encode(row) for row in arr]
    return [[float(z.real), float(z.imag)] for z in map(complex, arr)]


def float_bits(nested):
    flat = np.array(nested, dtype=object).ravel().tolist()
    assert {type(x) for x in flat} == {float}
    return np.array(flat, dtype=np.float64).tobytes()


class TestWireCodec:
    @given(wire_arrays())
    @settings(max_examples=60, deadline=None)
    def test_codec_matches_per_entry_reference(self, case):
        ndim, wire = case
        reference = (scenario._decode_vector if ndim == 1 else scenario._decode_matrix)
        expected = reference(wire, "x")
        decoded = scenario._decode_array(wire, "x", ndim)
        assert decoded.dtype == np.complex128 and decoded.shape == expected.shape
        assert decoded.tobytes() == expected.tobytes()
        assert float_bits(scenario._encode_array(decoded)) == \
            float_bits(reference_encode(expected))

    def test_plain_input_skips_the_per_entry_decoder(self, monkeypatch):
        def fail(value, where):
            raise AssertionError(f"per-entry decoder reached at {where}")

        monkeypatch.setattr(scenario, "_decode_complex", fail)
        wire = [[[1, -0.0], [2 ** 63, 5e-324]], [[-1e308, 0], [0.5, 2 ** 40]]]
        assert scenario._decode_array(wire, "x", 2).shape == (2, 2)
        assert scenario._decode_array(wire[0], "x", 1).shape == (2,)

    def test_a_regular_span_is_decoded_whole(self, monkeypatch):
        """A span whose vectors form one regular array is decoded in one
        walk, and its event has the bits of the vectors decoded one by one."""
        rng = np.random.default_rng(3)
        span = [scenario._encode_array(v)
                for v in rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))]
        want = projector_from_span([scenario._decode_array(v, "x", 1) for v in span]).matrix

        def fail(value, where, ndim):
            raise AssertionError(f"vector decoded alone at {where}")

        monkeypatch.setattr(scenario, "_decode_array", fail)
        doc = {"algebra": {"kind": "quantum", "dim": 4}, "events": {"e": {"span": span}}}
        assert scenario.scenario_from_jsonable(doc).events["e"].matrix.tobytes() == \
            want.tobytes()

    @pytest.mark.parametrize("entries", [
        [3, -0.0, 0, -7], [2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 70],
        [10 ** 300, 2 ** 53 + 1, 1, 0.5],
    ], ids=["ints-and-signed-zero", "beyond-int64", "huge-and-odd"])
    def test_one_walk_matches_the_per_entry_decoders(self, entries, monkeypatch):
        """Plain entries, of any int size a float can hold, are converted in
        one pass with the bits of the per-entry decoders."""
        pairs = [entries[:2], entries[2:]]
        expected = (scenario._decode_vector(pairs, "x"),
                    scenario._decode_matrix([pairs, pairs[::-1]], "x"))

        def fail(value, where):
            raise AssertionError(f"per-entry decoder reached at {where}")

        monkeypatch.setattr(scenario, "_decode_complex", fail)
        decoded = (scenario._decode_array(pairs, "x", 1),
                   scenario._decode_array([pairs, pairs[::-1]], "x", 2))
        for got, want in zip(decoded, expected):
            assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("wire, message", [
        ([[[1, 0], [0, 0]], [[0, 0]]], "x: rows have different lengths"),
        ([[[1, 0], [0, 0]], [[0, 0], [10 ** 400, 0]]],
         "x[1][1]: [re, im] entries must fit in a float"),
        ([[[1, 0], [0, 0]], [[0, 0], [True, 0]]], "x[1][1]: expected a two-element [re, im] array"),
        ([[[1, 0], [0, 0]], []], "x[1]: expected a nonempty array of [re, im] pairs"),
        ([[[1, 0, 0]]], "x[0][0]: expected a two-element [re, im] array"),
    ], ids=["ragged", "huge", "bool", "empty-row", "triple"])
    def test_other_input_is_worded_by_the_per_entry_decoders(self, wire, message):
        with pytest.raises(ValidationError) as info:
            scenario._decode_array(wire, "x", 2)
        assert str(info.value) == message

    @given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_reproduces_every_array(self, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        unit = vectors[0] / np.linalg.norm(vectors[0])
        rho = np.outer(vectors[1], vectors[1].conj())
        encode = scenario._encode_array
        doc = json.dumps({
            "algebra": {"kind": "quantum", "dim": dim},
            "events": {"p": {"matrix": encode(projector_from_span([unit]).matrix)},
                       "q": {"span": [encode(v) for v in vectors]}},
            "states": {"rho": {"density": encode(rho / np.trace(rho).real)},
                       "psi": {"vector": encode(unit)}},
        })
        first = parse_scenario(doc)
        text = serialize_scenario(first)
        second = parse_scenario(text)
        for name in ("p", "q"):
            assert second.events[name].matrix.tobytes() == first.events[name].matrix.tobytes()
        assert second.states["rho"].matrix.tobytes() == first.states["rho"].matrix.tobytes()
        assert second.states["psi"].vector.tobytes() == first.states["psi"].vector.tobytes()
        assert serialize_scenario(second) == text


def _quantum_events(dim, events):
    return {"algebra": {"kind": "quantum", "dim": dim}, "events": events}


def _diag(*values):
    return {"matrix": scenario._encode_array(np.diag(np.array(values, dtype=complex)))}


NOT_IDEMPOTENT_A = ("events.A: matrix is not idempotent: ||P@P - P||_F = 2.000e+00 "
                    "exceeds 1.0e-09 * 2")


class TestDocumentStack:
    """A document's quantum events are checked as projections in one stacked
    call, and the error raised is the first in document order, with the
    message each entry's constructor gives."""

    @pytest.mark.parametrize("dim, events, message", [
        (2, {"A": _diag(2, 0), "B": _diag(0, 3)}, NOT_IDEMPOTENT_A),
        (2, {"A": _diag(2, 0), "B": {"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}},
         NOT_IDEMPOTENT_A),
        (2, {"A": _diag(2, 0), "B": {"span": [[[0, 0], [0, 0]]]}}, NOT_IDEMPOTENT_A),
        (2, {"A": _diag(1, 1, 2)},
         "events.A: matrix is not idempotent: ||P@P - P||_F = 2.000e+00 exceeds 1.0e-09 * 2.45"),
        (2, {"A": _diag(1, 0), "B": _diag(1, 0, 0)},
         "events.B: projection dimension 3 != algebra dimension 2"),
        (2, {"A": {"matrix": [[[1, 0], [1, 0]], [[0, 0], [0, 0]]]}, "B": _diag(2, 0)},
         "events.A: matrix is not Hermitian: max |A - A^H| = 1.000e+00 exceeds 1.0e-10"),
        (2, {"A": _diag(1, 0), "B": _diag(0, 1), "C": _diag(1, 0.5)},
         "events.C: matrix is not idempotent: ||P@P - P||_F = 2.500e-01 exceeds 1.0e-09 * 1.12"),
        (2, {"A": _diag(2, 0), "B": {"members": [0]}}, NOT_IDEMPOTENT_A),
        (2, {"A": _diag(1, 0), "": _diag(2, 0)}, "events key: expected a nonempty string"),
        (2, {"A": _diag(2, 0), "": _diag(1, 0)}, NOT_IDEMPOTENT_A),
    ], ids=["two-faults", "then-ragged", "then-zero-span", "dimension-after-idempotency",
            "dimension", "hermitian-first", "third-entry", "then-wrong-form", "key",
            "pending-before-key"])
    def test_first_error_in_document_order(self, dim, events, message):
        with pytest.raises(ValidationError) as info:
            scenario_from_jsonable(_quantum_events(dim, events))
        assert str(info.value) == message

    def test_one_projection_check_per_document(self, monkeypatch):
        calls = []
        checks = orthoprob.linalg._projection_checks

        def counted(stack):
            calls.append(len(stack))
            return checks(stack)

        monkeypatch.setattr(orthoprob.linalg, "_projection_checks", counted)
        monkeypatch.setattr(scenario, "_projection_checks", counted)
        parsed = scenario_from_jsonable(_quantum_events(2, {
            "up": _diag(1, 0), "down": {"span": [[[0, 0], [1, 0]]]},
            "diag": {"span": [[[1, 0], [1, 0]], [[2, 0], [2, 0]]]}}))
        assert calls == [3]
        assert [e.rank for e in parsed.events.values()] == [1, 1, 1]

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_stacked_events_match_one_at_a_time(self, dim):
        """Matrix bytes, norm and rank of each parsed event equal those of
        QuantumEvent(m) and projector_from_span built alone."""
        rng = np.random.default_rng(dim)
        encode = scenario._encode_array
        spans = [rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
                 for k in (1, max(1, dim // 2), dim)]
        alone = [projector_from_span(list(vs)) for vs in spans]
        matrices = [p.matrix for p in alone]
        events = {f"s{i}": {"span": [encode(v) for v in vs]} for i, vs in enumerate(spans)}
        events.update({f"m{i}": {"matrix": encode(m)} for i, m in enumerate(matrices)})
        parsed = scenario_from_jsonable(_quantum_events(dim, events)).events
        expected = alone + [QuantumEvent(m) for m in matrices]
        for event, want in zip(parsed.values(), expected):
            assert type(event) is QuantumEvent
            assert event.matrix.tobytes() == want.matrix.tobytes()
            assert (event._norm, event._rank) == (want._norm, want._rank)
            assert (type(event._norm), type(event._rank)) == (float, int)
            assert not event.matrix.flags.writeable

class TestRunQuery:
    @pytest.mark.parametrize("call, message", [
        (run_query, "scenario must be a Scenario, got NoneType"),
        (scenario_to_jsonable, "scenario must be a Scenario, got NoneType"),
        (serialize_scenario, "scenario must be a Scenario, got NoneType"),
        (parse_scenario, "text must be str, bytes or bytearray, got NoneType")])
    def test_entry_points_refuse_a_non_scenario(self, call, message):
        with pytest.raises(ValidationError) as info:
            call(None)
        assert str(info.value) == message

    def test_bytes_parse(self):
        assert parse_scenario(MINIMAL_BOOLEAN.encode()) == parse_scenario(MINIMAL_BOOLEAN)

    def test_one_commutator_per_compatible_query(self, monkeypatch):
        calls = []
        commutator = orthoprob.events._QuantumKind.commutator

        def counted(self, e, f):
            calls.append(1)
            return commutator(self, e, f)

        monkeypatch.setattr(orthoprob.events._QuantumKind, "commutator", counted)
        for second in ("up", "diag"):
            calls.clear()
            out = run_query(parse_scenario(quantum_doc(
                {"kind": "compatible", "first": "up", "second": second})))
            assert out["compatible"] is (second == "up")
            assert len(calls) == 1

    def test_prob(self):
        out = run_query(parse_scenario(MINIMAL_BOOLEAN))
        assert out["kind"] == "prob"
        assert out["value"] == pytest.approx(0.5)
        assert out["tol"] == 1e-9

    @pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
    def test_condition_with_then(self):
        out = run_query(parse_scenario(quantum_doc(
            {"kind": "condition", "state": "mixed", "event": "up",
             "then": ["diag"]})))
        assert out["conditioned"]["density"][0][0] == [1.0, 0.0]
        assert out["then"]["diag"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
    def test_condition_seq(self):
        out = run_query(parse_scenario(quantum_doc(
            {"kind": "condition_seq", "state": "mixed",
             "events": ["up", "diag"], "then": ["up"]})))
        assert out["then"]["up"] == pytest.approx(0.5, abs=1e-12)

    def test_predictability_single_and_seq(self):
        single = run_query(parse_scenario(quantum_doc(
            {"kind": "predictability", "target": "up", "given": ["diag"]})))
        assert single["sequence"] is False
        assert single["predictable"] is True
        seq = run_query(parse_scenario(quantum_doc(
            {"kind": "predictability", "target": "up",
             "given": ["diag", "up"]})))
        assert seq["sequence"] is True

    def test_compatible_reports_residuals(self):
        out = run_query(parse_scenario(quantum_doc(
            {"kind": "compatible", "first": "up", "second": "diag"})))
        assert out["compatible"] is False
        assert out["residuals"]["commutator"] > 1e-3

    def test_vector_state_usable_as_density(self):
        out = run_query(parse_scenario(quantum_doc(
            {"kind": "prob", "state": "plus", "event": "up"})))
        assert out["value"] == pytest.approx(0.5, abs=1e-12)

    def test_two_slit(self):
        doc = (SCENARIO_DIR / "twoslit.json").read_text()
        out = run_query(parse_scenario(doc))
        assert out["value"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
    def test_sample_deterministic(self):
        doc = quantum_doc({"kind": "sample", "initial": "mixed",
                           "tests": ["up"], "final": "diag"})
        a = run_query(parse_scenario(doc), seed=13, trials=5_000)
        b = run_query(parse_scenario(doc), seed=13, trials=5_000)
        assert a == b
        assert sum(a["outcome_counts"].values()) == 5_000

    def test_sample_without_all_yes_trials_reports_null(self):
        # The state gives the test probability 0, so no trial survives the
        # chain and the sampler's NaN statistics go out as JSON null.
        doc = json.dumps({
            "algebra": {"kind": "boolean", "size": 2},
            "events": {"heads": {"members": [0]}, "tails": {"members": [1]}},
            "states": {"sure": {"weights": [1, 0]}},
            "query": {"kind": "sample", "initial": "sure", "tests": ["tails"],
                      "final": "heads"}})
        out = run_query(parse_scenario(doc), trials=50)
        assert out["outcome_counts"] == {"0": 50} and out["all_yes_count"] == 0
        assert out["empirical_p"] is None and out["std_error"] is None
        assert out["predicted_p"] == 0.0
        assert json.loads(json.dumps(out, allow_nan=False)) == out

    def test_axioms(self):
        doc = ('{"algebra": {"kind": "boolean", "size": 4},'
               ' "query": {"kind": "axioms", "budget": 60}}')
        out = run_query(parse_scenario(doc))
        assert out["passed"] is True
        assert out["budget"] == 60
        assert min(out["checks"].values()) >= 60

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"), (1.5, "seed 1.5 is not an integer"),
        ("3", "seed '3' is not an integer"), (True, "seed True is not an integer"),
        (None, "seed None is not an integer")])
    def test_axiom_seed_is_checked(self, seed, message):
        doc = ('{"algebra": {"kind": "quantum", "dim": 2},'
               ' "query": {"kind": "axioms", "budget": 3}}')
        with pytest.raises(ValidationError) as info:
            run_query(parse_scenario(doc), seed=seed)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
    @pytest.mark.parametrize("query", [
        {"kind": "sample", "initial": "mixed", "tests": ["up"], "final": "diag"},
        {"kind": "axioms", "budget": 2}], ids=["sample", "axioms"])
    def test_one_seed_contract(self, query):
        """Sample and axiom queries refuse the same seeds with the same
        messages, and echo a numpy seed as a JSON-ready int."""
        parsed = parse_scenario(quantum_doc(query))
        for seed, message in SEED_REFUSALS:
            with pytest.raises(ValidationError) as info:
                run_query(parsed, seed=seed, trials=10)
            assert str(info.value) == message
        for seed in (np.int64(3), np.uint64(2 ** 63)):
            out = run_query(parsed, seed=seed, trials=np.int64(10))
            assert type(out["seed"]) is int and out["seed"] == seed
            assert json.loads(json.dumps(out))["seed"] == seed
        if query["kind"] == "sample":
            assert type(out["trials"]) is int and out["trials"] == 10

    def test_seed_and_trials_are_checked_for_every_kind(self):
        """run_query refuses a bad trial count, then a bad seed, whatever the
        query kind, before the query runs."""
        queries = {
            "prob": {"state": "mixed", "event": "up"},
            "condition": {"state": "mixed", "event": "up"},
            "condition_seq": {"state": "mixed", "events": ["up"]},
            "predictability": {"target": "up", "given": ["diag"]},
            "compatible": {"first": "up", "second": "diag"},
            "interference": {"atom": "up", "path1": "up", "path2": "diag", "target": "up"},
            "two_slit": {"source": "plus", "path1": "plus", "path2": "plus",
                         "detector": "plus"},
            "sample": {"initial": "mixed", "tests": ["up"], "final": "diag"},
            "axioms": {"budget": 2},
        }
        assert queries.keys() == scenario.QUERY_TABLE.keys()
        for kind, fields in queries.items():
            parsed = parse_scenario(quantum_doc({"kind": kind, **fields}))
            for seed, message in SEED_REFUSALS + [("x", "seed 'x' is not an integer")]:
                with pytest.raises(ValidationError) as info:
                    run_query(parsed, seed=seed, trials=10)
                assert str(info.value) == message
            for trials, message in [(0, "trials must be >= 1"),
                                    (2.0, "trials 2.0 is not an integer")]:
                with pytest.raises(ValidationError) as info:
                    run_query(parsed, seed=-1, trials=trials)
                assert str(info.value) == message

    def test_vector_state_skips_the_projection_check(self, monkeypatch):
        """A vector state becomes a density state through the density checks
        alone, with the bits the checked projector gave it: |v><v| of a unit
        vector could never fail the projection check."""
        parsed = parse_scenario(json.dumps({
            "algebra": {"kind": "quantum", "dim": 3},
            "events": {"plane": {"span": [[[1, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [1, 0]]]},
                       "up": {"span": [[[1, 0], [0, 0], [0, 0]]]}},
            "states": {"v": {"vector": [[0.6, 0], [0, 0.48], [0.64, 0]]}},
            "query": {"kind": "condition", "state": "v", "event": "plane", "then": ["up"]}}))
        vector = parsed.states["v"]
        want = condition(DensityState(_unit_trace(vector.projector().matrix)),
                         parsed.events["plane"])
        monkeypatch.setattr(orthoprob.linalg, "_projection_checks", _forbidden)
        monkeypatch.setattr(orthoprob.events, "_projection_checks", _forbidden)
        out = run_query(parsed)
        got = np.array(out["conditioned"]["density"])
        assert got.tobytes() == np.stack([want.matrix.real, want.matrix.imag], -1).tobytes()
        assert out["then"] == {"up": prob(want, parsed.events["up"])}
