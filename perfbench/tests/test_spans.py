"""Span recorder: self-time arithmetic, parent links, and inertness."""

import importlib
import itertools
import sys

import numpy as np
import pytest

import orthoprob
import spans


def fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder(clock=fake_clock())
    inner = rec.wrap("states.prob", lambda: None)

    def body():
        inner()
        inner()

    outer = rec.wrap("states.condition", body)
    rec.op = 7
    outer()
    # outer: 0 -> 5; inner: 1 -> 2 and 3 -> 4.
    assert rec.spans == [("states.condition", 0.0, 5.0, -1, 7, False),
                         ("states.prob", 1.0, 2.0, 0, 7, False),
                         ("states.prob", 3.0, 4.0, 0, 7, False)]
    summary = spans.summarize(rec.spans)
    assert summary["states.condition.calls"] == 1
    assert summary["states.condition.self_s"] == 3.0
    assert summary["states.prob.calls"] == 2
    assert summary["states.prob.self_s"] == 2.0


def test_grandchildren_count_only_against_their_parent():
    rec = spans.Recorder(clock=fake_clock())
    leaf = rec.wrap("linalg.HermitianOperator", lambda: None)
    middle = rec.wrap("linalg.Projection", lambda: leaf())
    top = rec.wrap("events.oplus", lambda: middle())
    top()
    # top 0 -> 5, middle 1 -> 4, leaf 2 -> 3.
    summary = spans.summarize(rec.spans)
    assert [s[3] for s in rec.spans] == [-1, 0, 1]
    assert summary["events.oplus.self_s"] == 2.0
    assert summary["linalg.Projection.self_s"] == 2.0
    assert summary["linalg.HermitianOperator.self_s"] == 1.0


def test_errors_are_counted_and_propagate():
    rec = spans.Recorder(clock=fake_clock())

    def fail():
        raise ValueError("boom")

    wrapped = rec.wrap("scenario.parse_scenario", fail)
    with pytest.raises(ValueError):
        wrapped()
    summary = spans.summarize(rec.spans)
    assert summary["scenario.parse_scenario.errors"] == 1
    assert summary["scenario.parse_scenario.calls"] == 1


def _bindings():
    """Every orthoprob namespace attribute and listed class __init__."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "orthoprob" or name.startswith("orthoprob."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for layer, names in spans.LAYERS.items():
        module = sys.modules[f"orthoprob.{layer}"]
        for entry in names:
            obj = getattr(module, entry)
            if isinstance(obj, type):
                found[(entry, "__init__")] = obj.__dict__["__init__"]
    return found


def test_tracing_rebinds_every_namespace_and_restores_it():
    import orthoprob.cli  # noqa: F401  (tracing imports it too)

    before = _bindings()
    original_prob = orthoprob.states.prob
    with spans.tracing(spans.Recorder()):
        assert orthoprob.prob is not original_prob
        assert orthoprob.states.prob is orthoprob.prob
        assert orthoprob.scenario.prob is orthoprob.prob
        assert orthoprob.sampler.prob is orthoprob.prob
        assert orthoprob.DensityState.__init__ is not before[("DensityState", "__init__")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_library_has_no_wrapper():
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"orthoprob.{layer}")
        for entry in names:
            obj = getattr(module, entry)
            target = obj.__dict__["__init__"] if isinstance(obj, type) else obj
            assert not hasattr(target, "__wrapped__"), f"{layer}.{entry}"


def test_sampler_counts_from_a_real_chain():
    _, e, f = orthoprob.half_transition_pair()
    mixed = orthoprob.DensityState(np.eye(4, dtype=np.complex128) / 4.0)
    rec = spans.Recorder()
    with spans.tracing(rec):
        result = orthoprob.sample_chain(mixed, [e, f], e,
                                        orthoprob.SamplerConfig(seed=1, trials=1000))
    summary = spans.summarize(rec.spans)
    assert summary["sampler.sample_chain.calls"] == 1
    # Levels realize 2 then 4 prefixes; the sampler's own prob calls are the
    # fit check, one per node per level (1 + 2) and the final draw.
    assert len(result.outcome_counts) == 4
    assert summary["sampler.nodes_realized"] == 6
    assert summary["sampler.branch_slots"] == 2 * (1 + 3 + 1)
    # Every condition span under the chain has the chain's span as parent.
    chain_index = next(i for i, s in enumerate(rec.spans) if s[0] == "sampler.sample_chain")
    assert all(s[3] == chain_index for s in rec.spans if s[0] == "states.condition")
