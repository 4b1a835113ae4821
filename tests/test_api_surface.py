"""The public API's parameter names, its contract for caller tolerances,
and the one table of numerical bounds.

``SURFACE`` lists the parameters of every function, constructor and public
method that ``orthoprob.__all__`` exports, as ``inspect.signature`` reads
them (``self`` left out).  A settable value added or removed shows up here
as a one-line diff.  Exceptions are listed only where they define their
own ``__init__``.
"""

import ast
import inspect
import io
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoprob
from orthoprob import (BooleanAlgebra, ClassicalState, DensityState, QuantumAlgebra,
                       SampleSpace, SamplerConfig, StateVector, atom_state,
                       atom_symmetry_check, below, compatibility_residuals, compatible,
                       complement, condition, condition_seq, events, events_equal,
                       half_transition_pair, interference, interference_decomposition,
                       is_dispersion_free, linalg, oplus, orthogonal, predictability,
                       predictability_seq, prob, rank_one_transition, sample_chain, sampler,
                       state_independence_check, states, two_slit, verify_orthospace_axioms)
from orthoprob.errors import OrthoprobError, ValidationError

from helpers import random_density_matrix, random_projection

ROOT = Path(__file__).resolve().parent.parent

SURFACE = {
    "AxiomReport": ("algebra", "rounds", "seed", "checks", "failures", "messages"),
    "AxiomReport.summary": (),
    "BooleanAlgebra": ("space", "labels"),
    "BooleanAlgebra.event": ("members",),
    "BooleanAlgebra.one": (),
    "BooleanAlgebra.zero": (),
    "BooleanEvent": ("space", "members"),
    "ChainResult": ("outcome_counts", "all_yes_count", "final_event_yes_count",
                    "empirical_p", "std_error", "predicted_p", "trials", "seed"),
    "ClassicalState": ("space", "weights"),
    "DensityState": ("rho",),
    "HermitianOperator": ("entries",),
    "InterferenceReport": ("p_total", "term1", "term2", "cross", "p_path1", "p_path2",
                           "p_either_path", "degenerate_paths"),
    "PredictabilityResult": ("predictable", "s", "residual"),
    "Projection": ("entries",),
    "QuantumAlgebra": ("dim",),
    "QuantumAlgebra.event": ("entries",),
    "QuantumAlgebra.event_from_span": ("vectors",),
    "QuantumAlgebra.one": (),
    "QuantumAlgebra.zero": (),
    "QuantumEvent": ("entries",),
    "QubitNonUniquenessReport": ("compression", "alternative", "base", "condition_name",
                                 "differ_on", "special_case", "note"),
    "SampleSpace": ("size", "labels"),
    "SamplerConfig": ("seed", "trials"),
    "Scenario": ("algebra", "events", "states", "query"),
    "StateIndependenceReport": ("predicted_p", "results", "deviations", "passed"),
    "StateVector": ("entries",),
    "StateVector.projector": (),
    "TableState": ("events", "values", "complements"),
    "TableState.value": ("name",),
    "ZeroProbabilityCondition": ("message", "index", "probability"),
    "atom_state": ("event",),
    "atom_symmetry_check": ("e", "f"),
    "below": ("e", "f", "tol"),
    "compatibility_residuals": ("e", "f"),
    "compatible": ("e", "f", "tol"),
    "complement": ("e",),
    "condition": ("state", "event", "tol"),
    "condition_seq": ("state", "events", "tol"),
    "conditioning_contract_violations": ("table", "base", "condition_name"),
    "events_equal": ("e", "f", "tol"),
    "half_transition_pair": (),
    "interference_decomposition": ("source_atom", "path1", "path2", "target", "tol"),
    "is_atom": ("e",),
    "is_dispersion_free": ("state", "events"),
    "jordan_product": ("x", "y"),
    "oplus": ("e", "f", "tol"),
    "order_dependence_example": (),
    "orthogonal": ("e", "f", "tol"),
    "parse_scenario": ("text",),
    "predictability": ("target", "given", "tol"),
    "predictability_seq": ("target", "given", "tol"),
    "prob": ("state", "event"),
    "projector_from_span": ("vectors",),
    "quadratic_triple": ("x", "y"),
    "qubit_nonuniqueness_demo": ("angle",),
    "rank_one_transition": ("xi", "eta"),
    "run_query": ("scenario", "tol", "seed", "trials"),
    # ``_stream`` is keyword-only and set by state_independence_check alone.
    "sample_chain": ("initial", "tests", "final", "config", "_stream"),
    "scenario_from_jsonable": ("doc",),
    "scenario_to_jsonable": ("scenario",),
    "serialize_scenario": ("scenario",),
    "state_independence_check": ("target", "tests", "initial_states", "config"),
    "triple_product": ("x", "y", "z"),
    "two_slit": ("source", "path1", "path2", "detector", "tol"),
    "verify_orthospace_axioms": ("algebra", "budget", "seed", "tol"),
}


def _parameters(fn) -> tuple:
    return tuple(name for name in inspect.signature(fn).parameters if name != "self")


def test_parameter_names_are_pinned():
    surface = {}
    for name in orthoprob.__all__:
        obj = getattr(orthoprob, name)
        if inspect.isfunction(obj):
            surface[name] = _parameters(obj)
        elif inspect.isclass(obj):
            if not issubclass(obj, BaseException) or "__init__" in vars(obj):
                surface[name] = _parameters(obj)
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(value):
                    surface[f"{name}.{attr}"] = _parameters(value)
    assert surface == SURFACE


def _calls():
    """One valid call per entry point that takes a caller ``tol``, as a
    function of it.  ``verify_orthospace_axioms``, ``run_query`` and
    ``SamplerConfig`` are tested for this with their own modules."""
    _, e, f = half_transition_pair()
    mixed = orthoprob.DensityState(np.eye(4, dtype=np.complex128) / 4.0)
    qutrit = QuantumAlgebra(3)
    atom = qutrit.event_from_span([np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)])
    up, down = qutrit.event(np.diag([1.0, 0.0, 0.0])), qutrit.event(np.diag([0.0, 1.0, 0.0]))
    vectors = [StateVector(np.array(v) / np.linalg.norm(v))
               for v in ([1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, -1.0])]
    return {
        "orthogonal": lambda tol: orthogonal(up, down, tol),
        "below": lambda tol: below(up, up, tol),
        "events_equal": lambda tol: events_equal(up, up, tol),
        "oplus": lambda tol: oplus(up, down, tol),
        "condition": lambda tol: condition(mixed, e, tol),
        "condition_seq": lambda tol: condition_seq(mixed, [e, f], tol),
        "predictability": lambda tol: predictability(f, e, tol),
        "predictability_seq": lambda tol: predictability_seq(f, [e], tol),
        "compatible": lambda tol: compatible(e, f, tol),
        "interference_decomposition":
            lambda tol: interference_decomposition(atom, up, down, atom, tol),
        "two_slit": lambda tol: two_slit(*vectors, tol=tol),
    }


CALLS = sorted(_calls())


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, None, "1e-9", True, 10 ** 400])
@pytest.mark.parametrize("entry", CALLS)
def test_invalid_tolerance_is_refused(entry, tol):
    # Each call succeeds at tol 1e-9; a negative, NaN or infinite tol used
    # to give a confident verdict, such as "not predictable" for the sec7
    # pair at tol -1, and a tol of another type ended in a TypeError.  True
    # was taken as 1 (refusing a p = 0.5 conditioning as "0.5 <= True"), and
    # an int too large for a float ended in an OverflowError.
    call = _calls()[entry]
    call(1e-9)
    with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
        call(tol)


def _fuzz_worlds():
    """Per algebra, its events and its states: zero and unit events,
    atoms and wider events, and rank-deficient states beside full ones.
    The Boolean spaces differ in size or labels only."""
    rng = np.random.default_rng(11)
    worlds = []
    for dim in (1, 2, 3):
        algebra = QuantumAlgebra(dim)
        pure = np.zeros((dim, dim), dtype=np.complex128)
        pure[0, 0] = 1.0
        worlds.append(([algebra.zero(), algebra.one()]
                       + [algebra.event(random_projection(dim, rank, rng).matrix)
                          for rank in (1, 1, dim - 1, dim)],
                       [DensityState(pure), DensityState(random_density_matrix(dim, rng))]))
    for space in (SampleSpace(1), SampleSpace(3), SampleSpace(3, ("a", "b", "c")),
                  SampleSpace(4)):
        algebra = BooleanAlgebra(space)
        worlds.append(([algebra.zero(), algebra.one(), algebra.event([0]),
                        algebra.event(range(space.size - 1))],
                       [ClassicalState(space, np.eye(space.size)[-1]),
                        ClassicalState(space, np.full(space.size, 1.0 / space.size))]))
    return worlds


def _fuzz_vectors():
    """Per dimension 1 to 3, unit vectors: the basis, an equal mixture of
    two basis vectors, a random complex one, and one whose overlap with
    the first basis vector lies just above and one just below
    ``TOL_OVERLAP``."""
    rng = np.random.default_rng(12)
    sets = []
    for dim in (1, 2, 3):
        rows = list(np.eye(dim, dtype=np.complex128))
        rows.append(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        if dim > 1:
            rows.append(rows[0] + rows[1])
            rows += [rows[1] + overlap * rows[0] for overlap in (0.5e-8, 2e-8)]
        sets.append([StateVector(row / np.linalg.norm(row)) for row in rows])
    return sets


def _fuzz_frames():
    """Per dimension 2 and 3, the events of one random frame: its atoms,
    an atom between the first two, the span of the last two, zero and
    one, so that orthogonal paths and atoms abound."""
    rng = np.random.default_rng(13)
    frames = []
    for dim in (2, 3):
        algebra = QuantumAlgebra(dim)
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0].T
        frames.append([algebra.event_from_span([row]) for row in u]
                      + [algebra.event_from_span([u[0] + u[1]]),
                         algebra.event_from_span(u[-2:]), algebra.zero(), algebra.one()])
    return frames


FUZZ_WORLDS = _fuzz_worlds()
FUZZ_VECTORS = _fuzz_vectors()
FUZZ_FRAMES = _fuzz_frames()
FUZZ_ALGEBRAS = [QuantumAlgebra(dim) for dim in (1, 2, 3, 4)] + [
    BooleanAlgebra(1), BooleanAlgebra(3, ("a", "b", "c")), BooleanAlgebra(6)]
# Anything that may stand where an event or a state belongs, bare objects too.
FUZZ_ANY = [x for events, states in FUZZ_WORLDS for x in events + states] + [
    None, 0, "event", np.eye(2)]
FUZZED = {"prob": prob, "condition": condition, "condition_seq": condition_seq,
          "predictability_seq": predictability_seq, "sample_chain": sample_chain,
          "state_independence_check": state_independence_check, "orthogonal": orthogonal,
          "below": below, "events_equal": events_equal, "oplus": oplus,
          "complement": complement, "predictability": predictability,
          "compatible": compatible, "compatibility_residuals": compatibility_residuals,
          "atom_state": atom_state, "interference_decomposition": interference_decomposition,
          "two_slit": two_slit, "verify_orthospace_axioms": verify_orthospace_axioms,
          "atom_symmetry_check": atom_symmetry_check, "is_dispersion_free": is_dispersion_free,
          "rank_one_transition": rank_one_transition}
# The entry points that take two events and a tolerance.
FUZZED_PAIRS = ("orthogonal", "below", "events_equal", "oplus", "predictability", "compatible")


@st.composite
def _fuzz_call(draw, entry):
    """A call of ``entry`` on one drawn algebra's events and states, each
    argument foreign (another algebra's, or no event or state) one time in
    ten, and each sequence an iterator, a tuple or a bare item at times.
    ``sample_chain``'s tests run to 14 events, past the levels after which
    a chain of up to 50 trials must count its nodes to keep its codes
    within a chunk."""
    events, states = draw(st.sampled_from(FUZZ_WORLDS))

    def pick(own, foreign=FUZZ_ANY):
        return draw(st.sampled_from(own if draw(st.integers(0, 9)) else foreign))

    def vectors(count):
        # Foreign vectors are of another dimension, or no vector at all.
        own = draw(st.sampled_from(FUZZ_VECTORS))
        foreign = [v for vs in FUZZ_VECTORS if vs is not own for v in vs] + FUZZ_ANY
        return [pick(own, foreign) for _ in range(count)]

    def interference_args():
        # The source is one of the frame's first two atoms, or foreign.
        own = draw(st.sampled_from(FUZZ_FRAMES))
        return pick(own[:2]), pick(own), pick(own), pick(own), tol

    def axioms():
        # A budget of 1 to 3 rounds, or one the harness refuses.
        return (pick(FUZZ_ALGEBRAS, FUZZ_ANY[:3] + [None, 0]),
                pick([1, 2, 3], [0, -1, 1.5, True, None]),
                pick([0, 1, 2, 3], [-1, 2 ** 64, 0.5, False]), tol)

    def sequence(own, longest=4):
        items = [pick(own) for _ in range(draw(st.integers(0, longest)))]
        shape = draw(st.integers(0, 9))
        return (items if shape < 7 else tuple(items) if shape == 7
                else iter(items) if shape == 8 else pick(own))

    tol = draw(st.sampled_from([0.0, 1e-300, 1e300, linalg.DEFAULT_CONDITION_TOL]))
    config = SamplerConfig(seed=draw(st.integers(0, 3)), trials=draw(st.integers(1, 50)))
    args = {"prob": lambda: (pick(states), pick(events)),
            "condition": lambda: (pick(states), pick(events), tol),
            "condition_seq": lambda: (pick(states), sequence(events), tol),
            "predictability_seq": lambda: (pick(events), sequence(events), tol),
            "sample_chain": lambda: (pick(states), sequence(events, 14), pick(events), config),
            "state_independence_check":
                lambda: (pick(events), sequence(events), sequence(states), config),
            "compatibility_residuals": lambda: (pick(events), pick(events)),
            "complement": lambda: (pick(events),),
            "atom_state": lambda: (pick(events),),
            "interference_decomposition": interference_args,
            "two_slit": lambda: (*vectors(4), tol),
            "verify_orthospace_axioms": axioms,
            "atom_symmetry_check": lambda: (pick(events), pick(events)),
            "is_dispersion_free": lambda: (pick(states), sequence(events)),
            "rank_one_transition": lambda: vectors(2),
            **dict.fromkeys(FUZZED_PAIRS, lambda: (pick(events), pick(events), tol))}[entry]()
    return lambda: FUZZED[entry](*args)


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("entry", sorted(FUZZED))
def test_entry_points_return_or_raise_their_own_errors(entry):
    """Each call of an entry point whose events reach the kinds' operands,
    on mixed kinds, mismatched spaces, zero events, rank-deficient states,
    iterators or bare objects where sequences belong, and the tolerances
    0, 1e-300 and 1e300, returns or raises an OrthoprobError; so does each
    call of the vector entry points on vectors of mixed dimensions and
    paths near ``TOL_OVERLAP``, and of the axiom harness on small budgets,
    foreign algebras and refused budgets or seeds."""
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(call=_fuzz_call(entry))
    def fuzz(call):
        try:
            call()
        except OrthoprobError:
            pass

    fuzz()


# One row of the table at the top of linalg.py: ``NAME = value  # role``.
TABLE_ROW = re.compile(r"^(_?[A-Z][A-Z_]*) = ([^#\n]+?)  # (.+)$", re.MULTILINE)


def test_readme_lists_the_tolerance_table():
    """README "Tolerances" lists the table at the top of linalg.py row for
    row: name, value as written, and role (a ``|`` escaped as ``\\|``)."""
    table = TABLE_ROW.findall(inspect.getsource(linalg))
    assert len(table) > 20
    for name, _, _ in table:
        assert isinstance(getattr(linalg, name), float)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `linalg\.(\w+)` \| (.+?) \| (.+) \|$", section, re.MULTILINE)
    assert [(name, value, role.replace("\\|", "|")) for name, value, role in rows] == table


@pytest.mark.parametrize("module, name", [
    (events, "DEFAULT_EVENT_TOL"), (states, "DEFAULT_DETECTION_TOL"),
    (states, "DEFAULT_CONDITION_TOL"), (interference, "DEFAULT_PATH_TOL"),
    (sampler, "DEGENERATE_BRANCH")])
def test_old_names_read_the_table(module, name):
    assert getattr(module, name) is getattr(linalg, name)


def test_bounds_are_read_from_the_table():
    """No module writes a float in exponent form outside the table: every
    bound and default reads a name from it.  Strings and comments may."""
    table_lines = {m.group(0) for m in TABLE_ROW.finditer(inspect.getsource(linalg))}
    for path in sorted((ROOT / "src" / "orthoprob").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NUMBER and re.search(r"[eE][-+]?\d", token.string):
                assert lines[token.start[0] - 1] in table_lines, (path.name, token.start)


def _private_numpy_paths(source: str) -> list[str]:
    """The dotted numpy paths in ``source`` that hold a name beginning with
    ``_``: the modules and names it imports from numpy, and each attribute
    chain read from a name that such an import binds."""
    tree = ast.parse(source)
    roots, paths = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "numpy":
                    roots[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
                    paths.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                paths.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in roots:
            paths.append(".".join([roots[node.id], *reversed(chain)]))
    return sorted({path for path in paths if any(part.startswith("_") for part in path.split("."))})


def test_only_public_numpy_is_used():
    """pyproject.toml's numpy range rests on public API alone."""
    assert _private_numpy_paths(
        "import numpy as np\nfrom numpy.linalg import _umath_linalg as u\n"
        "import numpy._core\nnp.linalg._umath_linalg.cholesky_lo\nu.cholesky_up\n"
        "np.linalg.norm\nx._private\n") == [
        "numpy._core", "numpy.linalg._umath_linalg", "numpy.linalg._umath_linalg.cholesky_lo",
        "numpy.linalg._umath_linalg.cholesky_up"]
    for path in sorted((ROOT / "src" / "orthoprob").glob("*.py")):
        assert _private_numpy_paths(path.read_text(encoding="utf-8")) == [], path.name


def _unused_private_names(sources: dict) -> list[str]:
    """What ``sources``, module names to source texts, leave unused:
    "module: def NAME" for a private top-level function or class that no
    module reads, "module: const NAME" for a private name that a
    top-level assignment binds and no module reads, and "module: import
    NAME" for a private name that a module imports and does not read
    itself.  A name is read where it is loaded, as a name or as an
    attribute."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {module: {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)}
            for module, tree in trees.items()}
    anywhere = set().union(*read.values())
    found = []
    for module, tree in trees.items():
        found += [f"{module}: def {node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and private(node.name) and node.name not in anywhere]
        targets = [target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in getattr(node, "targets", None) or [node.target]]
        bound = {name.id for target in targets for name in ast.walk(target)
                 if isinstance(name, ast.Name)}
        found += [f"{module}: const {name}" for name in sorted(bound)
                  if private(name) and name not in anywhere]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                found += [f"{module}: import {name}" for name in bound
                          if private(name) and name not in read[module]]
    return sorted(found)


def test_no_private_name_is_left_unused():
    """Every private function, class and module-level constant in
    src/orthoprob is used by some module, and every private name a module
    imports is used there."""
    assert _unused_private_names({
        "a": "from b import _f, _g\nimport _m\ndef _h(): pass\nclass _K: pass\n"
             "def __dunder__(): pass\n_f()\nx._K\nb._C + _D\n",
        "b": "def _f(): pass\ndef _g(): pass\ndef _unread(): pass\n_unread = 1\n"
             "_C = 1\n_D, (_E, PUBLIC) = 2, (3, 4)\n_F: int = 5\n__all__ = []\n"}) == [
        "a: def _h", "a: import _g", "a: import _m", "b: const _E", "b: const _F",
        "b: const _unread", "b: def _g", "b: def _unread"]
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "orthoprob").glob("*.py"))}
    assert _unused_private_names(sources) == []
