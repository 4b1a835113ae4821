"""BENCHMARK.json matches what run.py prints; inputs and goldens agree."""

import json

import gen
import run
import workloads

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_manifest():
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.per_layer_units()


def test_workloads_match_the_manifest():
    names = [w["name"] for w in MANIFEST["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_cli_inputs_are_the_generator_output():
    for kind, doc in gen.cli_input_docs().items():
        assert (workloads.CLI_INPUTS / f"{kind}.json").read_text() == doc.text


def test_harness_counts_cover_every_algebra_and_seed():
    counts = json.loads((workloads.GOLDEN / "harness_counts.json").read_text())
    assert len(counts) == len(gen.HARNESS_ALGEBRAS) * len(gen.HARNESS_SEEDS)


def test_generation_is_seeded():
    a, b = gen.query_docs(4), gen.query_docs(4)
    assert [d.text for d in a] == [d.text for d in b]
    assert [d.text for d in a] != [d.text for d in gen.query_docs(5)]
