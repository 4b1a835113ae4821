"""Independent oracles for the outputs the benchmark times.

Each check takes what the generator built (numpy arrays, member lists and
the constants a construction fixes) and the library's output, and returns
a list of problems; an empty list means the output is right.  Nothing
here calls orthoprob.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

ATOL = 1e-9
# Sampled frequencies: the library's own certificate band, and a wider
# band for the extra binomial checks so they practically never misfire.
CERT_SE = 4.0
BINOMIAL_SE = 5.0


def _close(problems: list, label: str, got, want, tol: float = ATOL) -> None:
    if got is None or not abs(float(got) - float(want)) <= tol:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _close_array(problems, label, got: np.ndarray, want: np.ndarray) -> None:
    err = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
    if not err <= ATOL:
        problems.append(f"{label}: max entry error {err:.3e}")


def _equal(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _trace_prob(rho: np.ndarray, p: np.ndarray) -> float:
    return float(np.trace(rho @ p).real)


def _compress(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    m = p @ rho @ p
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# Boolean side: sums over explicit sample points and a powerset brute force.

def _bool_prob(weights, members) -> float:
    return sum(weights[i] for i in members)


def _bool_condition(weights, members) -> list[float]:
    total = _bool_prob(weights, members)
    keep = set(members)
    return [w / total if i in keep else 0.0 for i, w in enumerate(weights)]


def _bool_predictability(target, given_list) -> tuple[bool, float]:
    """Whether P(target | given...) is the same in every state, and its
    value in the uniform state.

    The conditioning sequence leaves the intersection B of the given
    events.  Every nonempty subset S of B (each S carries the uniform state
    on S) is tried when B has at most 12 points; otherwise the point
    masses, which span all states, are tried.
    """
    base = set(given_list[0]).intersection(*map(set, given_list[1:]))
    hits = set(target)
    if len(base) <= 12:
        subsets = (s for k in range(1, len(base) + 1)
                   for s in itertools.combinations(sorted(base), k))
    else:
        subsets = ((i,) for i in sorted(base))
    values = {sum(1 for i in s if i in hits) / len(s) for s in subsets}
    return len(values) == 1, len(base & hits) / len(base)


def _bool_residual(target, given_list) -> float:
    n = 1 + max(max(m) for m in [target, *given_list] if m)
    base = set(given_list[0]).intersection(*map(set, given_list[1:]))
    f = np.diag([1.0 if i in base else 0.0 for i in range(n)])
    e = np.diag([1.0 if i in set(target) else 0.0 for i in range(n)])
    s = len(base & set(target)) / len(base)
    return float(np.linalg.norm(f @ e @ f - s * f))


# ---------------------------------------------------------------------------
# Query results

def check_query(spec: dict, result: dict) -> list[str]:
    """Problems with one run_query result, judged from the doc's spec."""
    problems: list[str] = []
    kind, family = spec["kind"], spec["family"]
    _equal(problems, "kind", result.get("kind"), kind)
    if problems:
        return problems
    check = _CHECKS[(family, kind)]
    check(spec, result, problems)
    return problems


def _bool_probability(spec, result, problems):
    _close(problems, "value", result["value"], _bool_prob(spec["w"], spec["A"]))


def _bool_conditioning(spec, result, problems):
    weights = spec["w"]
    events = spec.get("events") or [spec["A"]]
    for members in events:
        weights = _bool_condition(weights, members)
    got = result["conditioned"]["weights"]
    if len(got) != len(weights):
        problems.append(f"conditioned weights: length {len(got)} != {len(weights)}")
        return
    for i, (g, w) in enumerate(zip(got, weights)):
        _close(problems, f"conditioned[{i}]", g, w)
    for name, members in spec["then"].items():
        _close(problems, f"then.{name}", result["then"][name], _bool_prob(weights, members))


def _bool_predictability_check(spec, result, problems):
    predictable, s = _bool_predictability(spec["target"], spec["given"])
    _equal(problems, "predictable", result["predictable"], predictable)
    _close(problems, "s", result["s"], s)
    _close(problems, "residual", result["residual"],
           _bool_residual(spec["target"], spec["given"]))


def _bool_compatible(spec, result, problems):
    _equal(problems, "compatible", result["compatible"], True)


def _bool_sample(spec, result, problems):
    _check_counts(problems, result, len(spec["tests"]))
    predictable, s = _bool_predictability(spec["final"], spec["tests"])
    first_yes = _bool_prob(spec["w"], spec["tests"][0])
    _check_first_test(problems, result, first_yes)
    _check_certified(problems, result, s if predictable else None)


def _q_probability(spec, result, problems):
    _close(problems, "value", result["value"], _trace_prob(spec["rho"], spec["E"]))


def _q_conditioning(spec, result, problems):
    rho = spec["rho"]
    for p in spec["events"]:
        rho = _compress(rho, p)
    _close_array(problems, "conditioned density",
                 _decode_matrix(result["conditioned"]["density"]), rho)
    for name, p in spec["then"].items():
        _close(problems, f"then.{name}", result["then"][name], _trace_prob(rho, p))


def _q_predictability(spec, result, problems):
    e, given = spec["target"], spec["given"]
    m = np.eye(e.shape[0])
    for p in given:
        m = m @ p
    a, b = m @ e @ m.conj().T, m @ m.conj().T
    s = float(np.trace(a).real / np.trace(b).real)
    residual = float(np.linalg.norm(a - s * b))
    if "s" in spec:
        # Built predictable: s is fixed by the construction.
        _equal(problems, "predictable", result["predictable"], True)
        _close(problems, "s", result["s"], spec["s"])
    else:
        _equal(problems, "predictable", result["predictable"],
               residual <= ATOL * max(1.0, float(np.linalg.norm(b))))
        _close(problems, "s", result["s"], s)
    _close(problems, "residual", result["residual"], residual)


def _q_compatible(spec, result, problems):
    e, f = spec["first"], spec["second"]
    comm = float(np.linalg.norm(e @ f - f @ e))
    _equal(problems, "compatible", result["compatible"], spec["commute"])
    # In exact arithmetic both total-probability residuals equal the
    # commutator norm.
    for key in ("commutator", "identity_first", "identity_second"):
        _close(problems, f"residuals.{key}", result["residuals"][key], comm)


def _q_interference(spec, result, problems):
    psi = spec["psi"] / np.linalg.norm(spec["psi"])
    rho = np.outer(psi, psi.conj())
    p1, p2, t = spec["path1"], spec["path2"], spec["target"]
    either = p1 + p2
    p_either = _trace_prob(rho, either)
    want = {
        "p_either_path": p_either,
        "p_path1": _trace_prob(rho, p1),
        "p_path2": _trace_prob(rho, p2),
        "p_total": float(np.trace(either @ rho @ either @ t).real) / p_either,
        "term1": float(np.trace(p1 @ rho @ p1 @ t).real) / p_either,
        "term2": float(np.trace(p2 @ rho @ p2 @ t).real) / p_either,
        "cross": 2.0 * float(np.trace(rho @ p1 @ t @ p2).real) / p_either,
    }
    for key, value in want.items():
        _close(problems, key, result[key], value)
    _close(problems, "term1 + term2 + cross", result["term1"] + result["term2"]
           + result["cross"], result["p_total"], 1e-10)


def _q_two_slit(spec, result, problems):
    src, p1, p2, det = (spec[k] for k in ("src", "p1", "p2", "det"))

    def bracket(x, y):  # <x|y>
        return sum(a.conjugate() * b for a, b in zip(x, y))

    amp = bracket(det, p1) * bracket(p1, src) + bracket(det, p2) * bracket(p2, src)
    weight = abs(bracket(p1, src)) ** 2 + abs(bracket(p2, src)) ** 2
    _close(problems, "value", result["value"], abs(amp) ** 2 / weight)


def _q_sample(spec, result, problems):
    _check_counts(problems, result, len(spec["tests"]))
    _check_first_test(problems, result, _trace_prob(spec["rho"], spec["tests"][0]))
    _check_certified(problems, result, spec["s"])


def _check_counts(problems, result, n_tests):
    counts = result["outcome_counts"]
    _equal(problems, "sum of outcome_counts", sum(counts.values()), result["trials"])
    if any(len(k) != n_tests or set(k) - {"0", "1"} for k in counts):
        problems.append("outcome_counts: keys are not yes/no strings of the chain length")
    _equal(problems, "all_yes_count", result["all_yes_count"], counts.get("1" * n_tests, 0))


def _check_first_test(problems, result, p):
    trials = result["trials"]
    yes = sum(c for k, c in result["outcome_counts"].items() if k[0] == "1")
    band = BINOMIAL_SE * math.sqrt(p * (1.0 - p) / trials) + 1e-12
    if not abs(yes / trials - p) <= band:
        problems.append(f"first-test yes fraction {yes / trials!r} is more than "
                        f"{BINOMIAL_SE} SE from {p!r}")


def _check_certified(problems, result, s):
    """Certified value s (None when the chain is not predictable)."""
    if s is None:
        _equal(problems, "predicted_p", result["predicted_p"], None)
        return
    _close(problems, "predicted_p", result["predicted_p"], s)
    empirical, se = result["empirical_p"], result["std_error"]
    if empirical is None or not abs(empirical - s) <= CERT_SE * se + 1e-12:
        problems.append(f"empirical_p {empirical!r} is more than {CERT_SE} SE "
                        f"({se!r}) from {s!r}")


_CHECKS = {
    ("boolean", "prob"): _bool_probability,
    ("boolean", "condition"): _bool_conditioning,
    ("boolean", "condition_seq"): _bool_conditioning,
    ("boolean", "predictability"): _bool_predictability_check,
    ("boolean", "compatible"): _bool_compatible,
    ("boolean", "sample"): _bool_sample,
    ("quantum", "prob"): _q_probability,
    ("quantum", "condition"): _q_conditioning,
    ("quantum", "condition_seq"): _q_conditioning,
    ("quantum", "predictability"): _q_predictability,
    ("quantum", "compatible"): _q_compatible,
    ("quantum", "interference"): _q_interference,
    ("quantum", "two_slit"): _q_two_slit,
    ("quantum", "sample"): _q_sample,
}


def check_serialized(inputs: dict, text: str) -> list[str]:
    """serialize_scenario output against the values the document was built
    from: member lists and weights exactly, matrices and unit vectors to
    ATOL (a span is written back as its projection matrix)."""
    problems: list[str] = []
    doc = json.loads(text)
    for section in ("events", "states"):
        _equal(problems, f"{section} names", sorted(doc.get(section, {})),
               sorted(inputs[section]))
    for name, want in inputs["events"].items():
        got = doc["events"].get(name, {})
        if isinstance(want, list):
            _equal(problems, f"events.{name}.members", got.get("members"), sorted(want))
        elif "matrix" not in got:
            problems.append(f"events.{name}: no matrix written")
        else:
            _close_array(problems, f"events.{name}.matrix", _decode_matrix(got["matrix"]),
                         want)
    for name, (form, want) in inputs["states"].items():
        got = doc["states"].get(name, {})
        if form not in got:
            problems.append(f"states.{name}: no {form!r} written")
        elif form == "weights":
            _equal(problems, f"states.{name}.weights", got["weights"], want)
        elif form == "vector":
            vector = np.array([complex(re, im) for re, im in got["vector"]])
            _close_array(problems, f"states.{name}.vector", vector,
                         want / np.linalg.norm(want))
        else:
            _close_array(problems, f"states.{name}.density", _decode_matrix(got["density"]),
                         want)
    return problems


# ---------------------------------------------------------------------------
# Chain results (ChainResult-like objects)

def check_chain(result, trials: int, n_tests: int, p_first: float,
                certified: float) -> list[str]:
    """A sampled chain whose first test has yes-probability ``p_first``
    and whose final event has the certified value ``certified``."""
    problems: list[str] = []
    record = {"outcome_counts": result.outcome_counts, "trials": result.trials,
              "all_yes_count": result.all_yes_count,
              "predicted_p": result.predicted_p,
              "empirical_p": result.empirical_p, "std_error": result.std_error}
    _equal(problems, "trials", result.trials, trials)
    _check_counts(problems, record, n_tests)
    _check_first_test(problems, record, p_first)
    _check_certified(problems, record, certified)
    return problems


def check_independence(report, certified: float, trials: int, n_tests: int,
                       p_firsts) -> list[str]:
    problems: list[str] = []
    _equal(problems, "passed", report.passed, True)
    _close(problems, "predicted_p", report.predicted_p, certified)
    _equal(problems, "runs", len(report.results), len(p_firsts))
    for i, (run, p) in enumerate(zip(report.results, p_firsts)):
        problems += [f"run {i}: {msg}" for msg in check_chain(run, trials, n_tests,
                                                               p, certified)]
    return problems
