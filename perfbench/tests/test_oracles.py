"""Oracles accept the library's outputs and reject deliberately wrong ones."""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

import orthoprob
import gen
import oracles

DOCS = {d.name.split(".", 1)[1] + "/" + d.spec["family"]: d
        for d in gen.boolean_docs(6, np.random.default_rng(5))
        + gen.quantum_docs(4, np.random.default_rng(6))}


def run(doc):
    scenario = orthoprob.parse_scenario(doc.text)
    result = orthoprob.run_query(scenario, seed=3, trials=gen.QUERY_TRIALS)
    return scenario, json.loads(json.dumps(result))


@pytest.mark.parametrize("key", sorted(DOCS))
def test_library_output_passes(key):
    doc = DOCS[key]
    scenario, result = run(doc)
    assert oracles.check_query(doc.spec, result) == []
    text = orthoprob.serialize_scenario(scenario)
    assert oracles.check_serialized(doc.spec["inputs"], text) == []


def bump(path, delta=1e-6):
    def corrupt(result):
        target = result
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = target[path[-1]] + delta
    return corrupt


def flip(field):
    def corrupt(result):
        result[field] = not result[field]
    return corrupt


def set_value(field, value):
    def corrupt(result):
        result[field] = value
    return corrupt


CORRUPTIONS = [
    ("prob/boolean", bump(["value"])),
    ("condition/boolean", bump(["then", "B"])),
    ("condition/boolean", bump(["conditioned", "weights", 0])),
    ("condition_seq/boolean", bump(["then", "C"])),
    ("predictable/boolean", flip("predictable")),
    ("unpredictable/boolean", bump(["s"])),
    ("predictability_seq/boolean", bump(["residual"])),
    ("compatible/boolean", flip("compatible")),
    ("sample/boolean", set_value("empirical_p", 0.5)),
    ("sample/boolean", set_value("predicted_p", None)),
    ("prob/quantum", bump(["value"])),
    ("condition/quantum", bump(["conditioned", "density", 0, 0, 0])),
    ("condition/quantum", bump(["then", "G"])),
    ("condition_seq/quantum", bump(["then", "G"])),
    ("predictable/quantum", bump(["s"])),
    ("predictable/quantum", flip("predictable")),
    ("unpredictable/quantum", flip("predictable")),
    ("predictability_seq/quantum", bump(["residual"])),
    ("commuting/quantum", flip("compatible")),
    ("noncommuting/quantum", bump(["residuals", "identity_first"])),
    ("interference/quantum", bump(["cross"])),
    ("interference/quantum", bump(["p_total"])),
    ("two_slit/quantum", bump(["value"])),
    ("sample/quantum", bump(["empirical_p"], 0.05)),
    ("sample/quantum", bump(["predicted_p"])),
]


@pytest.mark.parametrize("key,corrupt", CORRUPTIONS,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(CORRUPTIONS)])
def test_wrong_value_is_rejected(key, corrupt):
    doc = DOCS[key]
    _, result = run(doc)
    bad = copy.deepcopy(result)
    corrupt(bad)
    assert oracles.check_query(doc.spec, bad) != []


def test_sample_counts_that_do_not_sum_are_rejected():
    doc = DOCS["sample/quantum"]
    _, result = run(doc)
    key = next(iter(result["outcome_counts"]))
    result["outcome_counts"][key] += 1
    assert oracles.check_query(doc.spec, result) != []


@pytest.mark.parametrize("key", ["condition/quantum", "two_slit/quantum",
                                 "condition/boolean"])
def test_serialized_value_change_is_rejected(key):
    doc = DOCS[key]
    scenario, _ = run(doc)
    body = json.loads(orthoprob.serialize_scenario(scenario))
    if "events" in body and any("matrix" in e for e in body["events"].values()):
        name = next(n for n, e in body["events"].items() if "matrix" in e)
        body["events"][name]["matrix"][0][0][0] += 1e-6
    elif body["states"] and "vector" in next(iter(body["states"].values())):
        next(iter(body["states"].values()))["vector"][0][1] += 1e-6
    else:
        body["events"]["A"]["members"] = body["events"]["A"]["members"][1:]
    assert oracles.check_serialized(doc.spec["inputs"], json.dumps(body)) != []


def test_boolean_brute_force():
    # Given {0, 1} inside the target: certain.  Overlapping: not predictable.
    assert oracles._bool_predictability([0, 1, 2], [[0, 1]]) == (True, 1.0)
    assert oracles._bool_predictability([3, 4], [[0, 1]]) == (True, 0.0)
    assert oracles._bool_predictability([1, 2], [[0, 1]]) == (False, 0.5)
    # A sequence conditions on the intersection {1, 2}.
    assert oracles._bool_predictability([1, 2, 5], [[0, 1, 2], [1, 2, 3]]) == (True, 1.0)


@pytest.fixture(scope="module")
def half_chain():
    inputs = gen.chain_inputs(11)
    alg = orthoprob.QuantumAlgebra(4)
    e, f = alg.event(inputs.e), alg.event(inputs.f)
    initial = orthoprob.DensityState(inputs.initial)
    result = orthoprob.sample_chain(initial, [e, f, e, f], e,
                                    orthoprob.SamplerConfig(seed=4, trials=20_000))
    return inputs, result


def as_record(result, **changes):
    fields = {k: getattr(result, k) for k in
              ("outcome_counts", "trials", "all_yes_count", "predicted_p",
               "empirical_p", "std_error")}
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_chain_oracle_accepts_library_result(half_chain):
    inputs, result = half_chain
    assert oracles.check_chain(result, 20_000, 4, inputs.p_first, 0.5) == []


@pytest.mark.parametrize("changes", [
    {"empirical_p": 0.6},
    {"predicted_p": 0.4},
    {"predicted_p": None},
    {"trials": 19_999},
    {"outcome_counts": {"1111": 20_000}},
])
def test_chain_oracle_rejects_wrong_result(half_chain, changes):
    inputs, result = half_chain
    bad = as_record(result, **changes)
    assert oracles.check_chain(bad, 20_000, 4, inputs.p_first, 0.5) != []


def test_independence_oracle(half_chain):
    inputs, _ = half_chain
    alg = orthoprob.QuantumAlgebra(4)
    e, f = alg.event(inputs.e), alg.event(inputs.f)
    states = [orthoprob.DensityState(r) for r in inputs.independence_states]
    p_firsts = [float(np.trace(r @ inputs.e).real) for r in inputs.independence_states]
    report = orthoprob.state_independence_check(
        f, [e, f, e], states, orthoprob.SamplerConfig(seed=2, trials=20_000))
    assert oracles.check_independence(report, 0.5, 20_000, 3, p_firsts) == []
    assert oracles.check_independence(report, 0.25, 20_000, 3, p_firsts) != []
    assert oracles.check_independence(report, 0.5, 20_000, 3, p_firsts[:-1]) != []
