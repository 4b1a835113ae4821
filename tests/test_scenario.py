"""Scenario JSON layer: parsing, located errors, round-trips, dispatch."""

import json
from pathlib import Path

import numpy as np
import pytest

from orthoprob.errors import ParseError, ValidationError
from orthoprob.linalg import StateVector
from orthoprob.scenario import (parse_scenario, run_query,
                                scenario_to_jsonable, serialize_scenario)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_BOOLEAN = """
{
  "algebra": {"kind": "boolean", "size": 3},
  "events": {"a": {"members": [0, 1]}},
  "states": {"u": {"weights": [0.25, 0.25, 0.5]}},
  "query": {"kind": "prob", "state": "u", "event": "a"}
}
"""


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
        assert sc.algebra.registry.lookup("a") == sc.events["a"]
        assert sc.query.kind == "prob"

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_scenario("{not json")

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
])
def test_malformed_query_message(query, message):
    with pytest.raises(ValidationError) as info:
        parse_scenario(quantum_doc(query))
    assert str(info.value) == message


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
        assert parse_scenario(serialize_scenario(sc, pretty=True)) == sc

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


class TestRunQuery:
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

    def test_axioms(self):
        doc = ('{"algebra": {"kind": "boolean", "size": 4},'
               ' "query": {"kind": "axioms", "budget": 60}}')
        out = run_query(parse_scenario(doc))
        assert out["passed"] is True
        assert out["budget"] == 60
        assert min(out["checks"].values()) >= 60
