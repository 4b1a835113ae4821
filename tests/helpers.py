"""Random operators, spectral checks and reference oracles that only the
tests use.

Built on the kernel's private constructors, so a random projection is
made exactly as the library makes its internal sums: the symmetrized
average of a product, checked for idempotency and rank.
"""

from typing import Sequence

import numpy as np

from orthoprob.errors import NotOrthogonal, ValidationError
from orthoprob.events import (AxiomReport, BooleanAlgebra, BooleanEvent, QuantumEvent,
                              complement, events_equal, oplus, orthogonal)
from orthoprob.linalg import (HermitianOperator, Projection, _check_same_dim,
                              _hermitian_matrix_of, _symmetrized,
                              _symmetrized_projection, random_unitary)
from orthoprob.states import DensityState


def matmul(a, b) -> np.ndarray:
    """Plain matrix product A @ B (generally not Hermitian) of two operators
    or arrays."""
    ma, mb = (x.matrix if isinstance(x, HermitianOperator) else np.asarray(x, np.complex128)
              for x in (a, b))
    _check_same_dim(ma, mb)
    return ma @ mb


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(_hermitian_matrix_of(a))[0])


def is_positive_semidefinite(a, tol: float = 1e-10) -> bool:
    return min_eigenvalue(a) >= -tol


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Random Hermitian matrix with every entry bounded by 1 in modulus."""
    a = rng.uniform(-0.5, 0.5, size=(dim, dim)) + \
        1j * rng.uniform(-0.5, 0.5, size=(dim, dim))
    return HermitianOperator(_symmetrized(a))


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> Projection:
    """Random rank-``rank`` projection from a Haar frame."""
    if not 0 <= rank <= dim:
        raise ValidationError(f"rank {rank} out of range for dimension {dim}")
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return _symmetrized_projection(cols @ cols.conj().T)


def random_orthogonal_projections(dim: int, ranks: Sequence[int],
                                  rng: np.random.Generator) -> list[Projection]:
    """Mutually orthogonal projections carved from one random frame.

    ``sum(ranks)`` must not exceed ``dim``; a zero rank yields the zero
    projection, which is orthogonal to everything.
    """
    if sum(ranks) > dim:
        raise ValidationError(f"ranks {list(ranks)} exceed dimension {dim}")
    u = random_unitary(dim, rng)
    out, start = [], 0
    for r in ranks:
        cols = u[:, start:start + r]
        out.append(_symmetrized_projection(cols @ cols.conj().T))
        start += r
    return out


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix A A^H / trace."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = _symmetrized(a @ a.conj().T)
    return m / m.trace().real


def random_density_state(dim: int, rng: np.random.Generator) -> DensityState:
    return DensityState(random_density_matrix(dim, rng))


def frame_event(algebra, cols: np.ndarray):
    """The event projecting on the span of orthonormal columns."""
    return algebra.event(_symmetrized(cols @ cols.conj().T))


def state_family(mix: np.ndarray) -> list[DensityState]:
    """The d^2 states on e_i, (e_i + e_j)/sqrt2 and (e_i + i e_j)/sqrt2,
    each mixed half and half with the density matrix ``mix``.  They span
    the Hermitian matrices, mixed or not, so tr(rho X) = 0 on every member
    only for X = 0.  Mixing with E / rank E gives the event E positive
    probability in every member."""
    dim = mix.shape[0]
    eye = np.eye(dim)
    vectors = [eye[i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            vectors += [(eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2)]
    return [DensityState((np.outer(v, v.conj()) + mix) / 2) for v in vectors]


# ---------------------------------------------------------------------------
# The axiom harness evaluated pair by pair, as the reference for the
# stacked verify_orthospace_axioms.

def harness_round(algebra, rng: np.random.Generator):
    """d, e, f, g of one harness round, drawn as the harness draws them."""
    if isinstance(algebra, BooleanAlgebra):
        n = algebra.size
        assignment = rng.integers(0, 4, size=n)
        d, e, f = (algebra.event(np.flatnonzero(assignment == i)) for i in range(3))
        return d, e, f, algebra.event(np.flatnonzero(rng.random(n) < 0.5))
    n = algebra.dim
    while True:
        ranks = rng.integers(0, n + 1, size=3)
        if ranks.sum() <= n:
            break
    u = random_unitary(n, rng)
    blocks, start = [], 0
    for r in ranks:
        cols = u[:, start:start + r]
        blocks.append(algebra.event(_symmetrized_projection(cols @ cols.conj().T)))
        start += r
    v = random_unitary(n, rng)
    k = int(rng.integers(1, n)) if n > 1 else 1
    cols = v[:, :k]
    return (*blocks, algebra.event(_symmetrized_projection(cols @ cols.conj().T)))


def _remainder(y, x):
    """The event r with x + r = y, built as the harness builds it."""
    if isinstance(x, BooleanEvent):
        return BooleanEvent(x.space, y.members - x.members)
    return QuantumEvent(_symmetrized_projection(y.matrix - x.matrix))


def per_pair_axioms(algebra, budget: int, seed: int = 0, tol: float = 1e-9) -> AxiomReport:
    """verify_orthospace_axioms with every relation decided by one call of
    the public orthogonal, oplus, complement or events_equal."""
    return axiom_report(algebra, per_pair_rounds(algebra, budget, seed, tol), seed)


def axiom_report(algebra, rounds: list, seed: int = 0) -> AxiomReport:
    """The report of the rounds of ``per_pair_rounds``; raises the error
    that ended them, if one did."""
    axioms = ("OS1", "OS2", "OS3", "OS4", "OS5", "OS6")
    report = AxiomReport(algebra=repr(algebra), rounds=len(rounds), seed=seed,
                         checks={ax: 0 for ax in axioms},
                         failures={ax: 0 for ax in axioms})
    for checks in rounds:
        if isinstance(checks, Exception):
            raise checks
        for ax, ok, describe in checks:
            report.checks[ax] += 1
            if not ok:
                report.failures[ax] += 1
                if len(report.messages) < 20:
                    report.messages.append(f"{ax}: {describe}")
    return report


def per_pair_rounds(algebra, budget: int, seed: int = 0, tol: float = 1e-9) -> list:
    """Each round's checks, as (axiom, verdict, failure text), evaluated
    pair by pair.  A round whose evaluation raises is the error instead,
    and no rounds follow it."""
    rng = np.random.default_rng(seed)
    zero, one = algebra.zero(), algebra.one()
    rounds = []
    for round_no in range(budget):
        checks = []
        try:
            _per_pair_round(algebra, rng, round_no, zero, one, tol,
                            lambda ax, ok, describe: checks.append((ax, ok, describe)))
        except (NotOrthogonal, ValidationError) as exc:
            rounds.append(exc)
            break
        rounds.append(checks)
    return rounds


def _per_pair_round(algebra, rng, round_no, zero, one, tol, record) -> None:
    d, e, f, g = harness_round(algebra, rng)
    pool = [d, e, f, g, complement(g), zero, one]
    complements = [complement(x) for x in pool]

    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            ok = orthogonal(pool[i], pool[j], tol) == orthogonal(pool[j], pool[i], tol)
            record("OS1", ok, f"round {round_no}: asymmetric orthogonality")

    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            a, b = pool[i], pool[j]
            if not orthogonal(a, b, tol):
                continue
            try:
                ok = events_equal(oplus(a, b, tol), oplus(b, a, tol), tol)
            except NotOrthogonal:
                record("OS2", False, f"round {round_no}: sum not defined in both orders")
                continue
            except ValidationError as exc:
                record("OS2", False, f"round {round_no}: sum failed validation: {exc}")
                continue
            record("OS2", ok, f"round {round_no}: sum not commutative")

    try:
        ef = oplus(e, f, tol)
        de = oplus(d, e, tol)
        ok = (orthogonal(d, ef, tol) and orthogonal(f, de, tol)
              and events_equal(oplus(d, ef, tol), oplus(de, f, tol), tol))
    except (NotOrthogonal, ValidationError):
        ok = False
    record("OS3", ok, f"round {round_no}: triple associativity/closure failed")

    for x in (d, e, f, g):
        ok = orthogonal(zero, x, tol) and events_equal(oplus(x, zero, tol), x, tol)
        record("OS4", ok, f"round {round_no}: zero not neutral")

    for x, xc in zip(pool, complements):
        ok = orthogonal(x, xc, tol) and events_equal(oplus(x, xc, tol), one, tol)
        record("OS5", ok, f"round {round_no}: complement fails sum-to-unit")
        for h in pool:
            if orthogonal(x, h, tol):
                try:
                    total = oplus(x, h, tol)
                except ValidationError:
                    continue
                if events_equal(total, one, tol):
                    record("OS5", events_equal(h, xc, tol),
                           f"round {round_no}: second complement candidate found")

    for x in pool:
        for y, yc in zip(pool, complements):
            if orthogonal(x, yc, tol):
                try:
                    rem = _remainder(y, x)
                    ok = (orthogonal(x, rem, tol)
                          and events_equal(oplus(x, rem, tol), y, tol))
                except (NotOrthogonal, ValidationError):
                    ok = False
                record("OS6", ok, f"round {round_no}: no orthogonal remainder below")
    for x in pool:
        for h in pool:
            if not orthogonal(x, h, tol):
                continue
            try:
                y = oplus(x, h, tol)
            except ValidationError:
                continue
            record("OS6", orthogonal(x, complement(y), tol),
                   f"round {round_no}: sum does not dominate summand")
