"""Seeded input generators for the benchmark workloads.

Everything here uses numpy only, never orthoprob: the values the oracles
compare against come from how each input was built, not from the library
under test.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Query workload mix: every query kind except axioms.
BOOLEAN_SIZES = (6, 24, 64)
QUANTUM_DIMS = (4, 16, 64)
# Trials handed to run_query; only sample queries use them.
QUERY_TRIALS = 20_000

# Seed of the scenario files the cli workload reads.  They are committed
# under cli_inputs/ and run.py checks they still equal this output.
CLI_INPUT_SEED = 20100317

# Harness: fixed algebras, budgets sized to roughly 0.1 s per call, and a
# fixed pool of seeds whose check counts are recorded in golden/.
HARNESS_ALGEBRAS = (("quantum", 2, 3), ("quantum", 4, 4), ("quantum", 6, 4),
                    ("quantum", 16, 4), ("boolean", 6, 80))
HARNESS_SEEDS = tuple(range(8))

# Deep chain: 12 alternating tests, every branch after the first has
# probability exactly 1/2, so with this many trials all 2^13 - 2 = 8190
# prefix nodes are realized for every seed (each leaf expects at least 23
# trials) and the work per call is seed-free.  A 14-test chain realizes
# 32766 nodes but takes about 2 s, too few calls per run for a tail.
DEEP_TESTS = 12
DEEP_TRIALS = 120_000
# Shallow chain: one test, millions of trials.
SHALLOW_TRIALS = 2_000_000
INDEPENDENCE_STATES = 4
INDEPENDENCE_TRIALS = 250_000


# ---------------------------------------------------------------------------
# numpy constructions

def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def projector(cols: np.ndarray) -> np.ndarray:
    """Projection onto the span of orthonormal columns."""
    return hermitian(cols @ cols.conj().T)


def random_projection(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    return projector(haar_unitary(n, rng)[:, :rank])


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = hermitian(a @ a.conj().T)
    return m / m.trace().real


def predictable_pair(n: int, rank: int, s: float, rng: np.random.Generator):
    """(target E, given F) with F E F = s F exactly in exact arithmetic.

    F projects on orthonormal q_i; E on sqrt(s) q_i + sqrt(1 - s) r_i with
    the r_i orthonormal and orthogonal to every q_i.
    """
    u = haar_unitary(n, rng)
    q, r = u[:, :rank], u[:, rank:2 * rank]
    return projector(np.sqrt(s) * q + np.sqrt(1.0 - s) * r), projector(q)


def half_pair(rng: np.random.Generator):
    """The half-transition pair on C^4 rotated by a Haar unitary.

    Each of E, E' compresses F to half of itself and vice versa, so every
    branch after the first test of an alternating E, F chain has
    probability exactly 1/2.
    """
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    f = 0.5 * np.array([[1, 0, 1, 0], [0, 1, 0, 1],
                        [1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.complex128)
    u = haar_unitary(4, rng)
    return hermitian(u @ e @ u.conj().T), hermitian(u @ f @ u.conj().T)


def balanced_density(e: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random density matrix giving E a probability in [0.4, 0.6]."""
    while True:
        rho = random_density(e.shape[0], rng)
        if 0.4 <= float(np.trace(rho @ e).real) <= 0.6:
            return rho


# ---------------------------------------------------------------------------
# Wire format

def enc_vector(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=np.complex128)]


def enc_matrix(m) -> list:
    return [enc_vector(row) for row in m]


def enc_event(p: np.ndarray, form: str, rng: np.random.Generator) -> dict:
    """A projection as a user would write it: a matrix, or a span of
    linearly independent but non-orthonormal vectors."""
    if form == "matrix":
        return {"matrix": enc_matrix(p)}
    w, v = np.linalg.eigh(p)
    basis = v[:, w > 0.5]
    mix = np.eye(basis.shape[1]) + 0.3 * rng.uniform(-1, 1, size=(basis.shape[1],) * 2)
    return {"span": [enc_vector(c) for c in (basis @ mix).T]}


@dataclass
class Doc:
    """One scenario document plus what the oracle needs to check its result."""

    name: str
    text: str
    spec: dict = field(repr=False)


def _doc(name, algebra, events, states, query, spec, rng, pretty=False) -> Doc:
    """Encode a document.  ``events`` maps names to member lists (boolean)
    or to (projection, form) pairs (quantum); ``states`` maps names to
    (form, value) pairs.  The raw values are kept in ``spec["inputs"]``."""
    encoded_events = {
        n: {"members": e} if isinstance(e, list) else enc_event(e[0], e[1], rng)
        for n, e in events.items()}
    encoded_states = {
        n: {form: value if form == "weights" else
            enc_vector(value) if form == "vector" else enc_matrix(value)}
        for n, (form, value) in states.items()}
    body = {"algebra": algebra, "events": encoded_events, "states": encoded_states,
            "query": query}
    text = json.dumps(body, indent=2 if pretty else None)
    inputs = {"events": {n: e if isinstance(e, list) else e[0] for n, e in events.items()},
              "states": states}
    return Doc(name, text + ("\n" if pretty else ""),
               {"kind": query["kind"], "inputs": inputs, **spec})


# ---------------------------------------------------------------------------
# Boolean documents

def _subset(n: int, k: int, rng) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


def _overlapping(n: int, rng) -> tuple[list[int], list[int]]:
    """Two subsets that meet without either containing the other."""
    while True:
        a, b = _subset(n, max(2, n // 2), rng), _subset(n, max(2, n // 2), rng)
        sa, sb = set(a), set(b)
        if sa & sb and sa - sb and sb - sa:
            return a, b


def boolean_docs(n: int, rng: np.random.Generator) -> list[Doc]:
    alg = {"kind": "boolean", "size": n}
    w = rng.dirichlet(np.ones(n))
    w = w / w.sum()
    weights = [float(x) for x in w]
    states = {"w": ("weights", weights)}
    tag = f"boolean{n}"
    a, b = _overlapping(n, rng)
    c = _subset(n, n // 2, rng)
    docs = []

    def add(kind, events, doc_states, query, spec):
        docs.append(_doc(f"{tag}.{kind}", alg, events, doc_states, query,
                         {"family": "boolean", **spec}, rng))

    add("prob", dict(A=a), states,
        {"kind": "prob", "state": "w", "event": "A"},
        {"w": weights, "A": a})
    add("condition", dict(A=a, B=b, C=c), states,
        {"kind": "condition", "state": "w", "event": "A", "then": ["B", "C"]},
        {"w": weights, "A": a, "then": {"B": b, "C": c}})
    add("condition_seq", dict(A=a, B=b, C=c), states,
        {"kind": "condition_seq", "state": "w", "events": ["A", "B"], "then": ["C"]},
        {"w": weights, "events": [a, b], "then": {"C": c}})
    given = _subset(n, max(1, n // 4), rng)
    if rng.random() < 0.5:
        extra = _subset(n, n // 3, rng)
        target = sorted(set(given) | set(extra))
    else:
        target = sorted(set(range(n)) - set(given))[: max(1, n // 3)]
    add("predictable", dict(E=target, F=given), {},
        {"kind": "predictability", "target": "E", "given": ["F"]},
        {"target": target, "given": [given]})
    add("unpredictable", dict(E=a, F=b), {},
        {"kind": "predictability", "target": "E", "given": ["F"]},
        {"target": a, "given": [b]})
    add("predictability_seq", dict(A=a, B=b, C=c), {},
        {"kind": "predictability", "target": "C", "given": ["A", "B"]},
        {"target": c, "given": [a, b]})
    add("compatible", dict(A=a, B=b), {},
        {"kind": "compatible", "first": "A", "second": "B"}, {})
    final = sorted(set(a) & set(b) | set(c))
    add("sample", dict(A=a, B=b, C=final), states,
        {"kind": "sample", "initial": "w", "tests": ["A", "B"], "final": "C"},
        {"w": weights, "tests": [a, b], "final": final})
    return docs


# ---------------------------------------------------------------------------
# Quantum documents

def quantum_docs(n: int, rng: np.random.Generator, pretty: bool = False) -> list[Doc]:
    alg = {"kind": "quantum", "dim": n}
    tag = f"quantum{n}"
    half, quarter = n // 2, max(1, n // 4)
    rho = random_density(n, rng)
    states = {"rho": ("density", rho)}
    docs = []

    def add(kind, events, doc_states, query, spec):
        docs.append(_doc(f"{tag}.{kind}", alg, events, doc_states, query,
                         {"family": "quantum", **spec}, rng, pretty))

    e = random_projection(n, half, rng)
    add("prob", {"E": (e, "matrix")}, states,
        {"kind": "prob", "state": "rho", "event": "E"}, {"rho": rho, "E": e})

    e, g = random_projection(n, half, rng), random_projection(n, half, rng)
    add("condition", {"E": (e, "span"), "G": (g, "matrix")}, states,
        {"kind": "condition", "state": "rho", "event": "E", "then": ["G"]},
        {"rho": rho, "events": [e], "then": {"G": g}})

    e1, e2 = random_projection(n, half, rng), random_projection(n, half, rng)
    g = random_projection(n, quarter, rng)
    add("condition_seq", {"E1": (e1, "span"), "E2": (e2, "matrix"), "G": (g, "span")},
        states, {"kind": "condition_seq", "state": "rho", "events": ["E1", "E2"],
                 "then": ["G"]},
        {"rho": rho, "events": [e1, e2], "then": {"G": g}})

    s = float(rng.uniform(0.1, 0.9))
    target, given = predictable_pair(n, quarter, s, rng)
    add("predictable", {"E": (target, "matrix"), "F": (given, "span")}, {},
        {"kind": "predictability", "target": "E", "given": ["F"]},
        {"target": target, "given": [given], "s": s})

    target, given = random_projection(n, half, rng), random_projection(n, half, rng)
    add("unpredictable", {"E": (target, "span"), "F": (given, "matrix")}, {},
        {"kind": "predictability", "target": "E", "given": ["F"]},
        {"target": target, "given": [given]})

    s = float(rng.uniform(0.1, 0.9))
    target, given = predictable_pair(n, quarter, s, rng)
    first = random_projection(n, half, rng)
    add("predictability_seq",
        {"E": (target, "span"), "G": (first, "matrix"), "F": (given, "matrix")}, {},
        {"kind": "predictability", "target": "E", "given": ["G", "F"]},
        {"target": target, "given": [first, given], "s": s})

    u = haar_unitary(n, rng)
    d1 = np.zeros(n)
    d1[rng.choice(n, size=half, replace=False)] = 1.0
    d2 = np.zeros(n)
    d2[rng.choice(n, size=half, replace=False)] = 1.0
    e, f = hermitian(u @ np.diag(d1) @ u.conj().T), hermitian(u @ np.diag(d2) @ u.conj().T)
    add("commuting", {"E": (e, "matrix"), "F": (f, "span")}, {},
        {"kind": "compatible", "first": "E", "second": "F"},
        {"first": e, "second": f, "commute": True})

    e, f = random_projection(n, half, rng), random_projection(n, half, rng)
    add("noncommuting", {"E": (e, "span"), "F": (f, "matrix")}, {},
        {"kind": "compatible", "first": "E", "second": "F"},
        {"first": e, "second": f, "commute": False})

    frame = haar_unitary(n, rng)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    path1, path2 = projector(frame[:, :quarter]), projector(frame[:, quarter:2 * quarter])
    tgt = random_projection(n, half, rng)
    add("interference",
        {"A": (projector((psi / np.linalg.norm(psi))[:, None]), "span"),
         "P1": (path1, "matrix"), "P2": (path2, "span"), "T": (tgt, "matrix")}, {},
        {"kind": "interference", "atom": "A", "path1": "P1", "path2": "P2", "target": "T"},
        {"psi": psi, "path1": path1, "path2": path2, "target": tgt})

    frame = haar_unitary(n, rng)
    src, det = haar_unitary(n, rng)[:, 0], haar_unitary(n, rng)[:, 0]
    vectors = {"src": src, "p1": frame[:, 0], "p2": frame[:, 1], "det": det}
    add("two_slit", {}, {k: ("vector", v) for k, v in vectors.items()},
        {"kind": "two_slit", "source": "src", "path1": "p1", "path2": "p2",
         "detector": "det"}, vectors)

    s = float(rng.uniform(0.1, 0.9))
    final, given = predictable_pair(n, quarter, s, rng)
    first = random_projection(n, half, rng)
    add("sample", {"G": (first, "span"), "F": (given, "matrix"), "E": (final, "matrix")},
        states, {"kind": "sample", "initial": "rho", "tests": ["G", "F"], "final": "E"},
        {"rho": rho, "tests": [first, given], "final": final, "s": s})
    return docs


def query_docs(seed: int) -> list[Doc]:
    """The queries workload's documents, one of each kind per size."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for n in BOOLEAN_SIZES:
        docs += boolean_docs(n, rng)
    for n in QUANTUM_DIMS:
        docs += quantum_docs(n, rng)
    return docs


def cli_input_docs() -> dict[str, Doc]:
    """Scenario files for the CLI subcommands no shipped scenario covers."""
    by_kind = {d.name.split(".")[1]: d
               for d in quantum_docs(4, np.random.default_rng(CLI_INPUT_SEED), pretty=True)}
    return {"compat": by_kind["noncommuting"], "interfere": by_kind["interference"],
            "sample": by_kind["sample"]}


# ---------------------------------------------------------------------------
# Chains

@dataclass
class ChainInputs:
    e: np.ndarray
    f: np.ndarray
    initial: np.ndarray
    p_first: float
    independence_states: list
    sampler_seed: int


def chain_inputs(seed: int) -> ChainInputs:
    rng = np.random.default_rng([seed, 2])
    e, f = half_pair(rng)
    initial = balanced_density(e, rng)
    others = [balanced_density(e, rng) for _ in range(INDEPENDENCE_STATES)]
    return ChainInputs(e=e, f=f, initial=initial,
                       p_first=float(np.trace(initial @ e).real),
                       independence_states=others,
                       sampler_seed=int(rng.integers(0, 2 ** 32)))
