"""Span recording around orthoprob's public entry points.

Tracing is installed only inside ``tracing(recorder)``: each listed entry
point is replaced by a wrapper in every ``orthoprob.*`` namespace that
holds it, and each listed class gets a wrapped ``__init__``.  Leaving the
block restores the originals, so an untraced run executes the library
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# Public entry points per layer (module of src/orthoprob).
LAYERS = {
    "cli": ("main",),
    "scenario": ("parse_scenario", "run_query", "serialize_scenario"),
    "linalg": ("Projection", "HermitianOperator", "StateVector", "projector_from_span"),
    "events": ("orthogonal", "oplus", "complement", "below", "events_equal",
               "verify_orthospace_axioms"),
    "states": ("prob", "condition", "condition_seq", "DensityState", "ClassicalState",
               "predictability", "predictability_seq", "compatible",
               "compatibility_residuals"),
    "interference": ("interference_decomposition", "two_slit"),
    "sampler": ("sample_chain", "state_independence_check"),
}
ENTRIES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

SAMPLE_CHAIN = "sampler.sample_chain"
# Prefix of the stderr line on which a traced CLI child reports its spans.
CHILD_MARK = "PERFBENCH-SPANS "


class Recorder:
    """Keeps every span in memory as (name, start, end, parent, op, error).

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``op`` the operation id current when the span opened.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, error)

        return wrapper


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install span wrappers for the block and restore the originals after."""
    modules = {layer: importlib.import_module(f"orthoprob.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items()
                  if n == "orthoprob" or n.startswith("orthoprob.")]
    undo = []
    try:
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name)
                label = f"{layer}.{name}"
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    undo.append((original, "__init__", init))
                    original.__init__ = recorder.wrap(label, init)
                    continue
                wrapper = recorder.wrap(label, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            undo.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        yield recorder
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def summarize(spans) -> dict:
    """Per-entry calls, self time and errors, plus sampler counts.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    ``sampler.nodes_realized`` counts the prefix states sample_chain builds
    (its direct ``condition`` calls); ``sampler.branch_slots`` is twice its
    direct ``prob`` calls, one per yes/no branch it could have realized.
    """
    child_time = [0.0] * len(spans)
    stats = {name: [0, 0.0, 0] for name in ENTRIES}
    nodes = probs = 0
    for name, start, end, parent, _op, _error in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if spans[parent][0] == SAMPLE_CHAIN:
                nodes += name == "states.condition"
                probs += name == "states.prob"
    for i, (name, start, end, _parent, _op, error) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
        entry[2] += error
    out = {}
    for name, (calls, self_s, errors) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.errors"] = errors
    out["sampler.nodes_realized"] = nodes
    out["sampler.branch_slots"] = 2 * probs
    return out
