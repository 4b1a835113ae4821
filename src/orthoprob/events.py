"""Event algebras over finite sample spaces and complex projection lattices.

Both algebras expose the same orthospace operations (orthogonality,
orthogonal sum, complement, order, atoms) so the state layer can stay
agnostic about which kind of event it handles.  A randomized harness
checks the six orthospace axioms on generated event families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (AlgebraMismatch, NotOrthogonal, ValidationError)
from .linalg import (Projection, _symmetrized_projection, projector_from_span,
                     random_unitary)

# Relative tolerance (scaled by max(1, operand norms)) for orthogonality
# and ordering residuals on projections.
DEFAULT_EVENT_TOL = 1e-9


@dataclass(frozen=True)
class SampleSpace:
    """Finite sample space with optional distinct point labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("sample space needs at least one point")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValidationError(
                    f"{len(self.labels)} labels for {self.size} points")
            if len(set(self.labels)) != self.size:
                raise ValidationError("sample point labels must be distinct")


@dataclass(frozen=True)
class BooleanEvent:
    """A subset of a finite sample space."""

    space: SampleSpace
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for i in self.members:
            if not isinstance(i, (int, np.integer)) or not 0 <= i < self.space.size:
                raise ValidationError(
                    f"member {i!r} outside sample space of size {self.space.size}")


@dataclass(frozen=True, eq=False)
class QuantumEvent:
    """An event in a complex projection lattice.

    ``matrix`` and ``dim`` are the projection's, copied once at
    construction.
    """

    proj: Projection
    matrix: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", self.proj._matrix)
        object.__setattr__(self, "dim", self.proj._matrix.shape[0])

    def __eq__(self, other):
        if not isinstance(other, QuantumEvent):
            return NotImplemented
        return self.proj == other.proj

    __hash__ = None


Event = Union[BooleanEvent, QuantumEvent]


class _Registry:
    """Name -> event mapping, write-once per name."""

    def __init__(self):
        self._by_name: dict[str, Event] = {}

    def register(self, name: str, event: Event) -> None:
        if not isinstance(name, str) or not name:
            raise ValidationError("event names must be nonempty strings")
        if name in self._by_name:
            raise ValidationError(f"event name {name!r} is already registered")
        self._by_name[name] = event

    def lookup(self, name: str) -> Event:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown event name {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def items(self):
        return self._by_name.items()


class BooleanAlgebra:
    """Powerset algebra of a finite sample space."""

    kind = "boolean"
    # Boolean algebras always carry unique conditional probabilities.
    unique_conditioning = True
    flag = None

    def __init__(self, space: SampleSpace | int, labels: Sequence[str] | None = None):
        if isinstance(space, SampleSpace):
            self.space = space
        else:
            self.space = SampleSpace(int(space),
                                     tuple(labels) if labels is not None else None)
        self.registry = _Registry()

    @property
    def size(self) -> int:
        return self.space.size

    def event(self, members: Iterable[int]) -> BooleanEvent:
        return BooleanEvent(self.space, frozenset(int(i) for i in members))

    def zero(self) -> BooleanEvent:
        return BooleanEvent(self.space, frozenset())

    def one(self) -> BooleanEvent:
        return BooleanEvent(self.space, frozenset(range(self.space.size)))

    def register(self, name: str, event: BooleanEvent) -> BooleanEvent:
        if event.space != self.space:
            raise AlgebraMismatch("event belongs to a different sample space")
        self.registry.register(name, event)
        return event

    def __repr__(self):
        return f"BooleanAlgebra(size={self.size})"


class QuantumAlgebra:
    """Lattice of orthogonal projections on C^dim."""

    kind = "quantum"

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValidationError("quantum algebra dimension must be >= 1")
        self.dim = dim
        self.registry = _Registry()
        # Dimension two is the lone projection lattice where conditional
        # probabilities fail to be unique; flag it so callers can warn.
        self.unique_conditioning = dim != 2
        self.flag = None if dim != 2 else \
            "type I2: not a UCP space (conditional probabilities are not unique)"

    def event(self, entries, tol: float = None) -> QuantumEvent:
        proj = entries if isinstance(entries, Projection) else (
            Projection(entries) if tol is None else Projection(entries, tol=tol))
        if proj.dim != self.dim:
            raise AlgebraMismatch(
                f"projection dimension {proj.dim} != algebra dimension {self.dim}")
        return QuantumEvent(proj)

    def event_from_span(self, vectors: Sequence) -> QuantumEvent:
        return self.event(projector_from_span(vectors))

    def zero(self) -> QuantumEvent:
        return QuantumEvent(Projection(np.zeros((self.dim, self.dim), dtype=np.complex128)))

    def one(self) -> QuantumEvent:
        return QuantumEvent(Projection(np.eye(self.dim, dtype=np.complex128)))

    def register(self, name: str, event: QuantumEvent) -> QuantumEvent:
        if event.dim != self.dim:
            raise AlgebraMismatch("event dimension differs from algebra dimension")
        self.registry.register(name, event)
        return event

    def __repr__(self):
        return f"QuantumAlgebra(dim={self.dim})"


EventAlgebra = Union[BooleanAlgebra, QuantumAlgebra]


def _require_same_kind(e: Event, f: Event) -> str:
    if isinstance(e, BooleanEvent) and isinstance(f, BooleanEvent):
        if e.space != f.space:
            raise AlgebraMismatch("events live on different sample spaces")
        return "boolean"
    if isinstance(e, QuantumEvent) and isinstance(f, QuantumEvent):
        if e.dim != f.dim:
            raise AlgebraMismatch(
                f"events have different dimensions: {e.dim} vs {f.dim}")
        return "quantum"
    raise AlgebraMismatch(
        f"cannot mix {type(e).__name__} with {type(f).__name__}")


def _require_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


def _scale(e: QuantumEvent, f: QuantumEvent) -> float:
    return max(1.0, e.proj._norm, f.proj._norm)


def orthogonal(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Whether two events exclude each other (disjoint / EF = 0)."""
    kind = _require_same_kind(e, f)
    if kind == "boolean":
        return not (e.members & f.members)
    residual = float(np.linalg.norm(e.matrix @ f.matrix))
    return residual <= tol * _scale(e, f)


def oplus(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> Event:
    """Orthogonal sum, defined exactly for orthogonal pairs."""
    kind = _require_same_kind(e, f)
    if not orthogonal(e, f, tol):
        raise NotOrthogonal("orthogonal sum requested for non-orthogonal events")
    if kind == "boolean":
        return BooleanEvent(e.space, e.members | f.members)
    return QuantumEvent(_symmetrized_projection(e.matrix + f.matrix))


def complement(e: Event) -> Event:
    """The unique event orthogonal to e that sums with it to the unit."""
    if isinstance(e, BooleanEvent):
        return BooleanEvent(e.space, frozenset(range(e.space.size)) - e.members)
    eye = np.eye(e.dim, dtype=np.complex128)
    return QuantumEvent(Projection(eye - e.matrix))


def below(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Order relation e <= f (subset / EF = E)."""
    kind = _require_same_kind(e, f)
    if kind == "boolean":
        return e.members <= f.members
    residual = float(np.linalg.norm(e.matrix @ f.matrix - e.matrix))
    return residual <= tol * _scale(e, f)


def is_atom(e: Event) -> bool:
    """Minimal nonzero event: a singleton or a rank-one projection."""
    if isinstance(e, BooleanEvent):
        return len(e.members) == 1
    return e.proj.rank == 1


def events_equal(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Equality up to the orthogonality tolerance."""
    kind = _require_same_kind(e, f)
    if kind == "boolean":
        return e.members == f.members
    return float(np.linalg.norm(e.matrix - f.matrix)) <= tol * _scale(e, f)


def _difference(f: Event, e: Event) -> Event:
    """The event d with e + d = f, valid when e <= f."""
    if isinstance(e, BooleanEvent):
        return BooleanEvent(e.space, f.members - e.members)
    return QuantumEvent(_symmetrized_projection(f.matrix - e.matrix))


# ---------------------------------------------------------------------------
# Randomized orthospace axiom harness.

_AXIOMS = ("OS1", "OS2", "OS3", "OS4", "OS5", "OS6")
_MAX_MESSAGES = 20


@dataclass
class AxiomReport:
    """Outcome of a randomized axiom verification run.

    ``checks`` counts evaluated instances per axiom, ``failures`` the
    instances that came out false; ``messages`` holds the first few
    failure descriptions verbatim.
    """

    algebra: str
    rounds: int
    seed: int
    checks: dict[str, int] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    @property
    def passed(self) -> bool:
        return self.total_failures == 0

    def summary(self) -> str:
        lines = [f"{self.algebra}: {self.rounds} rounds, seed {self.seed}"]
        for ax in _AXIOMS:
            lines.append(f"  {ax}: {self.checks.get(ax, 0)} checks, "
                         f"{self.failures.get(ax, 0)} failures")
        return "\n".join(lines)


def _random_round_boolean(alg: BooleanAlgebra, rng: np.random.Generator):
    n = alg.size
    assignment = rng.integers(0, 4, size=n)
    d = alg.event(np.flatnonzero(assignment == 0))
    e = alg.event(np.flatnonzero(assignment == 1))
    f = alg.event(np.flatnonzero(assignment == 2))
    g = alg.event(np.flatnonzero(rng.random(n) < 0.5))
    return d, e, f, g


def _random_round_quantum(alg: QuantumAlgebra, rng: np.random.Generator):
    n = alg.dim
    # Disjoint column blocks of one Haar frame give an exactly orthogonal triple.
    while True:
        ranks = rng.integers(0, n + 1, size=3)
        if ranks.sum() <= n:
            break
    u = random_unitary(n, rng)
    blocks, start = [], 0
    for r in ranks:
        cols = u[:, start:start + r]
        blocks.append(alg.event(_symmetrized_projection(cols @ cols.conj().T)))
        start += r
    d, e, f = blocks
    v = random_unitary(n, rng)
    k = int(rng.integers(1, n)) if n > 1 else 1
    cols = v[:, :k]
    g = alg.event(_symmetrized_projection(cols @ cols.conj().T))
    return d, e, f, g


def verify_orthospace_axioms(algebra: EventAlgebra, budget: int = 1000,
                             seed: int = 0,
                             tol: float = DEFAULT_EVENT_TOL) -> AxiomReport:
    """Check the orthospace axioms on ``budget`` random event families.

    Each round draws a mutually orthogonal triple plus an unrelated event
    and evaluates every axiom on the combinations that arise, so each
    axiom accumulates at least ``budget`` checked instances.
    """
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
        raise ValidationError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    _require_tolerance(tol)
    rng = np.random.default_rng(seed)
    report = AxiomReport(algebra=repr(algebra), rounds=budget, seed=seed,
                         checks={ax: 0 for ax in _AXIOMS},
                         failures={ax: 0 for ax in _AXIOMS})

    def record(ax: str, ok: bool, describe: str) -> None:
        report.checks[ax] += 1
        if not ok:
            report.failures[ax] += 1
            if len(report.messages) < _MAX_MESSAGES:
                report.messages.append(f"{ax}: {describe}")

    zero, one = algebra.zero(), algebra.one()
    for round_no in range(budget):
        if isinstance(algebra, BooleanAlgebra):
            d, e, f, g = _random_round_boolean(algebra, rng)
        else:
            d, e, f, g = _random_round_quantum(algebra, rng)
        pool = [d, e, f, g, complement(g), zero, one]
        complements = [complement(x) for x in pool]

        # OS1: orthogonality is symmetric.
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                ok = orthogonal(pool[i], pool[j], tol) == orthogonal(pool[j], pool[i], tol)
                record("OS1", ok, f"round {round_no}: asymmetric orthogonality")

        # OS2: the sum of an orthogonal pair exists and is commutative.
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if not orthogonal(a, b, tol):
                    continue
                try:
                    ok = events_equal(oplus(a, b, tol), oplus(b, a, tol), tol)
                except ValidationError as exc:
                    ok = False
                    record("OS2", ok, f"round {round_no}: sum failed validation: {exc}")
                    continue
                record("OS2", ok, f"round {round_no}: sum not commutative")

        # OS3: pairwise orthogonal triples close up and associate.
        try:
            ef = oplus(e, f, tol)
            de = oplus(d, e, tol)
            ok = (orthogonal(d, ef, tol) and orthogonal(f, de, tol)
                  and events_equal(oplus(d, ef, tol), oplus(de, f, tol), tol))
        except (NotOrthogonal, ValidationError) as exc:
            ok = False
        record("OS3", ok, f"round {round_no}: triple associativity/closure failed")

        # OS4: zero is orthogonal to everything and neutral for the sum.
        for x in (d, e, f, g):
            ok = orthogonal(zero, x, tol) and events_equal(oplus(x, zero, tol), x, tol)
            record("OS4", ok, f"round {round_no}: zero not neutral")

        # OS5: the complement is an orthocomplement and is unique.
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

        # OS6: e is orthogonal to the complement of y exactly when y splits
        # as e plus a remainder orthogonal to e.
        for x in pool:
            for y, yc in zip(pool, complements):
                if orthogonal(x, yc, tol):
                    try:
                        rem = _difference(y, x)
                        ok = (orthogonal(x, rem, tol)
                              and events_equal(oplus(x, rem, tol), y, tol))
                    except (NotOrthogonal, ValidationError):
                        ok = False
                    record("OS6", ok,
                           f"round {round_no}: no orthogonal remainder below")
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

    return report
