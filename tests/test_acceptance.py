"""Acceptance suite: twelve end-to-end checks, one verdict line each.

Each test prints ``[PASS]``/``[FAIL] criterion NN: ...`` to the terminal
(bypassing capture) and then asserts, so a plain ``pytest -v`` run shows
one verdict per criterion alongside the usual test outcome.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from orthoprob.events import (BooleanAlgebra, QuantumAlgebra, below,
                              complement)
from orthoprob.interference import interference_decomposition, two_slit
from orthoprob.linalg import (HermitianOperator, StateVector,
                              jordan_product, quadratic_triple, random_unitary)
from orthoprob.presets import half_transition_pair
from orthoprob.sampler import SamplerConfig, sample_chain
from orthoprob.states import (ClassicalState, DensityState, compatible,
                              compatibility_residuals, condition,
                              conditioning_contract_violations, predictability,
                              prob, qubit_nonuniqueness_demo)

from helpers import (random_density_state, random_orthogonal_projections,
                     random_projection)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def verdict(capsys, num, passed, detail):
    tag = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {num:02d}: {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


def run_demo(*args):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orthoprob", *args],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


def bounded_hermitian(dim, rng):
    # Entries stay inside the unit disc: |(m_ij + conj(m_ji))/2| <= sqrt(1/2).
    m = rng.uniform(-0.5, 0.5, (dim, dim)) + 1j * rng.uniform(-0.5, 0.5,
                                                              (dim, dim))
    return HermitianOperator((m + m.conj().T) / 2.0)


def rel_residual(lhs, rhs):
    return np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs),
                                           np.linalg.norm(rhs))


def test_criterion_01_demo_sec7_conditional(capsys):
    out, elapsed = run_demo("demo-sec7")
    ok = (abs(out["s"] - 0.5) <= 1e-12 and out["predictable"] is True
          and out["residual"] <= 1e-12 and elapsed < 1.0)
    verdict(capsys, 1, ok,
            f"demo-sec7 conditional {out['s']} with residual "
            f"{out['residual']:.1e} in {elapsed:.2f}s")


def test_criterion_02_jordan_identities(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dim = 2 + i % 5
        x = bounded_hermitian(dim, rng)
        y = bounded_hermitian(dim, rng)
        z = bounded_hermitian(dim, rng)
        xsq = jordan_product(x, x)
        jordan = rel_residual(jordan_product(jordan_product(x, y), xsq).matrix,
                              jordan_product(x, jordan_product(y, xsq)).matrix)
        inner = quadratic_triple(x, y)
        ident_a = rel_residual(
            quadratic_triple(inner, z).matrix,
            quadratic_triple(x, quadratic_triple(y, quadratic_triple(x, z))).matrix)
        ident_b = rel_residual(
            inner.matrix @ inner.matrix,
            quadratic_triple(x, quadratic_triple(y, xsq)).matrix)
        worst = max(worst, jordan, ident_a, ident_b)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    verdict(capsys, 2, ok,
            f"200 random pairs/triples dims 2-6, worst relative residual "
            f"{worst:.1e} in {elapsed:.2f}s")


def test_criterion_03_compression_decomposition(capsys):
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(200):
        dim = 2 + i % 5
        e = random_projection(dim, 1 + int(rng.integers(dim)) % (dim - 1), rng)
        f = random_projection(dim, 1 + int(rng.integers(dim)) % (dim - 1), rng)
        ec = np.eye(dim) - e.matrix
        ef = jordan_product(e.matrix, f.matrix)
        rhs = (quadratic_triple(e.matrix, f.matrix).matrix
               + 2.0 * jordan_product(ec, ef).matrix
               + jordan_product(ec, f.matrix).matrix)
        worst = max(worst, np.linalg.norm(f.matrix - rhs))
    ok = worst <= 1e-10
    verdict(capsys, 3, ok,
            f"200 random projection pairs, worst decomposition residual "
            f"{worst:.1e}")


def test_criterion_04_compatibility_routes_agree(capsys):
    rng = np.random.default_rng(404)
    tol = 1e-9
    algebras = {d: QuantumAlgebra(d) for d in range(2, 7)}
    commuting_ok = 0
    for i in range(500):
        dim = 2 + i % 5
        alg = algebras[dim]
        if i < 250:
            u = random_unitary(dim, rng)
            d1 = rng.integers(0, 2, dim).astype(float)
            d2 = rng.integers(0, 2, dim).astype(float)
            e = alg.event(u @ np.diag(d1) @ u.conj().T)
            f = alg.event(u @ np.diag(d2) @ u.conj().T)
            if compatible(e, f, tol=tol):
                commuting_ok += 1
        else:
            e = alg.event(random_projection(dim, 1 + i % (dim - 1), rng).matrix)
            f = alg.event(random_projection(
                dim, 1 + int(rng.integers(dim - 1)), rng).matrix)
            compatible(e, f, tol=tol)
        comm, ident_e, ident_f = compatibility_residuals(e, f)
        scale = max(1.0, np.linalg.norm(e.matrix), np.linalg.norm(f.matrix))
        assert (comm <= tol * scale) == (ident_e <= tol * scale
                                         and ident_f <= tol * scale)
    ok = commuting_ok == 250
    verdict(capsys, 4, ok,
            f"500 pairs agreed on both routes; {commuting_ok}/250 constructed "
            f"commuting pairs compatible")


def test_criterion_05_diagonal_dichotomy(capsys):
    rng = np.random.default_rng(505)
    algebras = {d: QuantumAlgebra(d) for d in range(2, 7)}
    n_predictable = 0
    for i in range(200):
        dim = 2 + i % 5
        alg = algebras[dim]
        e_bits = rng.integers(0, 2, dim)
        f_bits = rng.integers(0, 2, dim)
        if i % 2 == 0:
            # Force containment in E or its complement so the predictable
            # branch is exercised heavily, not just by chance.
            side = e_bits if i % 4 == 0 else 1 - e_bits
            f_bits = f_bits * side
        if not f_bits.any():
            f_bits[int(rng.integers(dim))] = 1
        e = alg.event(np.diag(e_bits.astype(np.complex128)))
        f = alg.event(np.diag(f_bits.astype(np.complex128)))
        result = predictability(e, f)
        if result.predictable:
            n_predictable += 1
            assert min(abs(result.s), abs(result.s - 1.0)) <= 1e-9
            if result.s >= 0.5:
                assert below(f, e)
            else:
                assert below(f, complement(e))
    ok = n_predictable >= 100
    verdict(capsys, 5, ok,
            f"200 diagonal pairs, {n_predictable} predictable, each with "
            f"s in {{0,1}} and the matching containment")


def test_criterion_06_state_independence(capsys):
    rng = np.random.default_rng(606)
    alg4, e, f = half_transition_pair()
    pairs = [(f, e)]
    for i in range(20):
        dim = 3 + i % 4
        alg = QuantumAlgebra(dim)
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        given = alg.event_from_span([raw])
        target = alg.event(random_projection(
            dim, 1 + i % (dim - 1), rng).matrix)
        pairs.append((target, given))
    worst = 0.0
    for target, given in pairs:
        result = predictability(target, given)
        assert result.predictable
        dim = given.dim
        done = 0
        while done < 10:
            rho = random_density_state(dim, rng)
            if prob(rho, given) < 1e-3:
                continue
            nu = condition(rho, given)
            worst = max(worst, abs(prob(nu, target) - result.s))
            done += 1
    ok = worst <= 1e-9
    verdict(capsys, 6,
            ok, f"21 predictable pairs x 10 random density states, worst "
                f"deviation from detected s: {worst:.1e}")


def test_criterion_07_two_slit(capsys):
    source = StateVector([INV_SQRT2, INV_SQRT2, 0.0])
    s1 = StateVector([1.0, 0.0, 0.0])
    s2 = StateVector([0.0, 1.0, 0.0])
    dark = StateVector([INV_SQRT2, -INV_SQRT2, 0.0])
    bright_err = abs(two_slit(source, s1, s2, source) - 1.0)
    dark_err = abs(two_slit(source, s1, s2, dark))

    rng = np.random.default_rng(707)
    worst_sum = 0.0
    for i in range(100):
        dim = 3 + i % 4
        alg = QuantumAlgebra(dim)
        r1 = 1 + i % (dim - 1)
        r2 = 1 + int(rng.integers(dim - r1)) if dim - r1 > 1 else 1
        p1m, p2m = random_orthogonal_projections(dim, [r1, r2], rng)
        p1 = alg.event(p1m.matrix)
        p2 = alg.event(p2m.matrix)
        atom = alg.event_from_span([rng.normal(size=dim)
                                    + 1j * rng.normal(size=dim)])
        target = alg.event(random_projection(
            dim, 1 + int(rng.integers(dim - 1)), rng).matrix)
        rep = interference_decomposition(atom, p1, p2, target)
        worst_sum = max(worst_sum, abs(rep.term1 + rep.term2 + rep.cross
                                       - rep.p_total))

    worst_cross = 0.0
    for i in range(40):
        dim = 4 + i % 3
        alg = QuantumAlgebra(dim)
        bits = np.zeros(dim)
        bits[:2] = 1.0
        p1 = alg.event(np.diag(bits.astype(np.complex128)))
        p2 = alg.event(np.diag((1.0 - bits).astype(np.complex128)))
        t_bits = rng.integers(0, 2, dim).astype(np.complex128)
        target = alg.event(np.diag(t_bits))
        atom = alg.event_from_span([rng.normal(size=dim)
                                    + 1j * rng.normal(size=dim)])
        rep = interference_decomposition(atom, p1, p2, target)
        worst_cross = max(worst_cross, abs(rep.cross))

    ok = (bright_err <= 1e-12 and dark_err <= 1e-12
          and worst_sum <= 1e-10 and worst_cross <= 1e-10)
    verdict(capsys, 7, ok,
            f"bright {bright_err:.1e}, dark {dark_err:.1e}, worst term-sum "
            f"gap {worst_sum:.1e}, worst commuting cross {worst_cross:.1e}")


def test_criterion_08_boolean_reduction(capsys):
    alg = BooleanAlgebra(5)
    subsets = [frozenset(c) for r in range(6)
               for c in combinations(range(5), r)]
    events = {m: alg.event(m) for m in subsets}
    full = frozenset(range(5))
    rng = np.random.default_rng(808)

    worst = 0.0
    for _ in range(50):
        w = rng.uniform(0.05, 1.0, 5)
        w /= w.sum()
        state = ClassicalState(alg.space, w)
        mu = {m: float(sum(w[i] for i in m)) for m in subsets}
        for cond in subsets:
            if not cond:
                continue
            nu = condition(state, events[cond])
            for target in subsets:
                expected = mu[target & cond] / mu[cond]
                worst = max(worst, abs(prob(nu, events[target]) - expected))

    trivial = True
    for cond in subsets:
        if not cond:
            continue
        for target in subsets:
            result = predictability(events[target], events[cond])
            contained = cond <= target or cond <= (full - target)
            trivial = trivial and result.predictable == contained
            if contained:
                trivial = trivial and result.s == (1.0 if cond <= target
                                                   else 0.0)

    ok = worst <= 1e-12 and trivial
    verdict(capsys, 8, ok,
            f"powerset of 5 points x 50 states, worst conditional gap "
            f"{worst:.1e}; predictability trivial: {trivial}")


def test_criterion_09_demo_order_dependence(capsys):
    out, _ = run_demo("demo-order")
    fwd = out["p_e_after_f1_then_f2"]
    rev = out["p_e_after_f2_then_f1"]
    ok = abs(fwd - 0.5) <= 1e-12 and abs(rev) <= 1e-12
    verdict(capsys, 9, ok,
            f"demo-order reports {fwd} then-reversed {rev}")


def test_criterion_10_sampler_band_and_determinism(capsys):
    alg, e, f = half_transition_pair()
    mixed = DensityState(np.eye(4, dtype=np.complex128) / 4.0)
    config = SamplerConfig(seed=42, trials=200_000)
    start = time.perf_counter()
    first = sample_chain(mixed, [e], f, config)
    second = sample_chain(mixed, [e], f, config)
    elapsed = time.perf_counter() - start
    band = 4.0 * math.sqrt(0.25 / first.all_yes_count)
    ok = (abs(first.empirical_p - 0.5) <= band
          and first.outcome_counts == second.outcome_counts
          and first.empirical_p == second.empirical_p
          and elapsed < 10.0)
    verdict(capsys, 10, ok,
            f"200000 trials seed 42: empirical {first.empirical_p:.5f} within "
            f"{band:.1e} of 0.5, rerun bit-identical, {elapsed:.2f}s")


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
def test_criterion_11_qubit_nonuniqueness(capsys):
    report = qubit_nonuniqueness_demo()
    bad_compression = conditioning_contract_violations(
        report.compression, report.base, report.condition_name)
    bad_alternative = conditioning_contract_violations(
        report.alternative, report.base, report.condition_name)
    gap = abs(report.compression.value("G") - report.alternative.value("G"))
    ok = (bad_compression == [] and bad_alternative == []
          and report.distinct and "G" in report.differ_on and gap > 1e-6)
    verdict(capsys, 11, ok,
            f"two valid conditionals for the same qubit condition differ on "
            f"G by {gap:.3f}; violations: {bad_compression + bad_alternative}")


def test_criterion_12_axiom_harness(capsys):
    from orthoprob.events import verify_orthospace_axioms
    n_failures = 0
    messages = []
    min_checks = None
    total = 0
    algebras = [BooleanAlgebra(size) for size in range(2, 7)]
    algebras += [QuantumAlgebra(dim) for dim in (3, 4, 6)]
    for algebra in algebras:
        report = verify_orthospace_axioms(algebra, budget=1000)
        n_failures += sum(report.failures.values())
        messages.extend(report.messages)
        least = min(report.checks.values())
        min_checks = least if min_checks is None else min(min_checks, least)
        total += sum(report.checks.values())
    ok = n_failures == 0 and min_checks >= 1000
    verdict(capsys, 12, ok,
            f"8 algebras, {total} axiom checks, min {min_checks} per axiom, "
            f"{n_failures} failures{'; ' + '; '.join(messages[:3]) if messages else ''}")
