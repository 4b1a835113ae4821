"""Event algebras over finite sample spaces and complex projection lattices.

Both algebras expose the same orthospace operations (orthogonality,
orthogonal sum, complement, order, atoms) so the state layer can stay
agnostic about which kind of event it handles.  Orthogonality, order and
equality are decided on stacks of events, one route per algebra kind: the
public one-pair functions run it on stacks of one, and a randomized harness
that checks the six orthospace axioms runs it on each round's events at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (AlgebraMismatch, NotOrthogonal, ValidationError)
from .linalg import (TOL_HERMITIAN, TOL_IDEMPOTENT, Projection, _frobenius_norms,
                     _projection_checks, _symmetrized, _symmetrized_projection,
                     projector_from_span, random_unitary)

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


class QuantumEvent(Projection):
    """An event in a complex projection lattice: a :class:`Projection`.

    A :class:`Projection` argument is adopted with its rank and norm and is
    not checked again; anything else is checked as ``Projection`` checks
    it.  An event never equals a plain ``Projection``.
    """

    __slots__ = ()

    def __init__(self, entries, tol: float = TOL_IDEMPOTENT):
        if isinstance(entries, Projection):
            self._matrix, self._rank, self._norm = entries._matrix, entries._rank, entries._norm
        else:
            super().__init__(entries, tol)


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

    def event(self, entries, tol: float = TOL_IDEMPOTENT) -> QuantumEvent:
        event = QuantumEvent(entries, tol)
        if event.dim != self.dim:
            raise AlgebraMismatch(
                f"projection dimension {event.dim} != algebra dimension {self.dim}")
        return event

    def event_from_span(self, vectors: Sequence) -> QuantumEvent:
        return self.event(projector_from_span(vectors))

    def zero(self) -> QuantumEvent:
        return QuantumEvent(np.zeros((self.dim, self.dim), dtype=np.complex128))

    def one(self) -> QuantumEvent:
        return QuantumEvent(np.eye(self.dim, dtype=np.complex128))

    def register(self, name: str, event: QuantumEvent) -> QuantumEvent:
        if event.dim != self.dim:
            raise AlgebraMismatch("event dimension differs from algebra dimension")
        self.registry.register(name, event)
        return event

    def __repr__(self):
        return f"QuantumAlgebra(dim={self.dim})"


EventAlgebra = Union[BooleanAlgebra, QuantumAlgebra]


_EVENT_KINDS = {"boolean": BooleanEvent, "quantum": QuantumEvent}


def _shared_kind(x, e: Event, kinds: dict = _EVENT_KINDS) -> str:
    """The kind, "boolean" or "quantum", that ``x`` shares with the event
    ``e``.  ``kinds`` maps each kind to the class of ``x``'s role: an event
    (the default) or a state (``states._STATE_KINDS``).  Raises
    AlgebraMismatch unless both are of one kind on one space or dimension."""
    two_events = kinds is _EVENT_KINDS
    if isinstance(x, kinds["boolean"]) and isinstance(e, BooleanEvent):
        if x.space != e.space:
            raise AlgebraMismatch("events live on different sample spaces" if two_events
                                  else "state and event live on different sample spaces")
        return "boolean"
    if isinstance(x, kinds["quantum"]) and isinstance(e, QuantumEvent):
        if x.dim != e.dim:
            raise AlgebraMismatch(
                f"events have different dimensions: {x.dim} vs {e.dim}" if two_events
                else f"state dimension {x.dim} != event dimension {e.dim}")
        return "quantum"
    raise AlgebraMismatch(
        f"cannot {'mix' if two_events else 'pair'} {type(x).__name__} with {type(e).__name__}")


def _require_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


# ---------------------------------------------------------------------------
# Event stacks: the one route by which every relation is decided.
#
# A stack holds k events of one kind, with one norm per event.  The
# relation residuals broadcast, so stacks a[:, None] and b[None] give a
# (len a, len b) table and equal-length stacks one residual per pair.  The
# builders (complement_of, sum_of, difference_of) check nothing; checks()
# returns each entry's norm and None or the message its constructor raises.


class _BooleanStacks:
    """Boolean events as (k, size) bool rows.

    A residual counts sample points, so every verdict is exact: a relation
    holds when its residual is zero, whatever the tolerance.  Rows cannot
    fail a check and their norms are unused zeros.
    """

    @staticmethod
    def stack(events: Sequence[BooleanEvent]):
        rows = np.zeros((len(events), events[0].space.size), dtype=bool)
        for row, ev in zip(rows, events):
            row[list(ev.members)] = True
        return rows, np.zeros(len(events))

    @staticmethod
    def orthogonality(a, b):
        return (a & b).sum(axis=-1)

    @staticmethod
    def order(a, b):
        return (a & ~b).sum(axis=-1)

    @staticmethod
    def equality(a, b):
        return (a ^ b).sum(axis=-1)

    @staticmethod
    def holds(residuals, a_norms, b_norms, tol):
        return residuals == 0

    @staticmethod
    def complement_of(rows):
        return ~rows

    @staticmethod
    def sum_of(a, b):
        return a | b

    @staticmethod
    def difference_of(y, x):
        return y & ~x

    @staticmethod
    def checks(rows, hermitian):
        return np.zeros(len(rows)), [None] * len(rows)

    @staticmethod
    def draw(algebra: BooleanAlgebra, rng: np.random.Generator):
        """d, e, f, g of one harness round; d, e, f are disjoint."""
        n = algebra.size
        assignment = rng.integers(0, 4, size=n)
        return np.stack((assignment == 0, assignment == 1, assignment == 2,
                         rng.random(n) < 0.5))


class _QuantumStacks:
    """Quantum events as (k, d, d) projection matrices.

    A residual is the Frobenius norm of AB (orthogonality), AB - A (order)
    or A - B (equality), and a relation holds when the residual is at most
    ``tol * max(1, ||A||_F, ||B||_F)``.  The checks are those of
    :class:`Projection`, Hermitian scan included; a matrix that
    ``_symmetrized`` made passes that scan exactly.
    """

    @staticmethod
    def stack(events: Sequence[QuantumEvent]):
        return (np.array([ev.matrix for ev in events]),
                np.array([ev._norm for ev in events]))

    @staticmethod
    def orthogonality(a, b):
        return _frobenius_norms(a @ b)

    @staticmethod
    def order(a, b):
        return _frobenius_norms(a @ b - a)

    @staticmethod
    def equality(a, b):
        return _frobenius_norms(a - b)

    @staticmethod
    def holds(residuals, a_norms, b_norms, tol):
        return residuals <= tol * np.maximum(1.0, np.maximum(a_norms, b_norms))

    @staticmethod
    def complement_of(mats):
        return np.eye(mats.shape[-1], dtype=np.complex128) - mats

    @staticmethod
    def sum_of(a, b):
        return _symmetrized(a + b)

    @staticmethod
    def difference_of(y, x):
        return _symmetrized(y - x)

    @staticmethod
    def checks(mats, hermitian):
        """Norms and check errors of each matrix; ``hermitian`` adds the
        scan that :func:`complement` runs and ``_symmetrized`` output
        passes exactly."""
        errors, norms, _ = _projection_checks(
            mats, hermitian_tol=TOL_HERMITIAN if hermitian else None)
        return norms, errors

    @staticmethod
    def draw(algebra: QuantumAlgebra, rng: np.random.Generator):
        """d, e, f, g of one harness round; d, e, f are exactly orthogonal."""
        n = algebra.dim
        # Disjoint column blocks of one Haar frame give an exactly orthogonal triple.
        while True:
            ranks = rng.integers(0, n + 1, size=3)
            if ranks.sum() <= n:
                break
        u = random_unitary(n, rng)
        frames, start = [], 0
        for r in ranks:
            frames.append(u[:, start:start + r])
            start += r
        v = random_unitary(n, rng)
        k = int(rng.integers(1, n)) if n > 1 else 1
        frames.append(v[:, :k])
        return _symmetrized(np.stack([c @ c.conj().T for c in frames]))


_STACKS = {"boolean": _BooleanStacks, "quantum": _QuantumStacks}


def _one_pair(relation: str, e: Event, f: Event):
    """The stacks of e's kind, the residual of ``relation``
    ("orthogonality", "order" or "equality") from e to f on one-pair
    stacks, and the two norms."""
    stacks = _STACKS[_shared_kind(e, f)]
    pair, norms = stacks.stack((e, f))
    return stacks, getattr(stacks, relation)(pair[:1], pair[1:]), norms[:1], norms[1:]


def _pair_verdict(relation: str, e: Event, f: Event, tol: float) -> bool:
    stacks, residuals, a_norms, b_norms = _one_pair(relation, e, f)
    return bool(stacks.holds(residuals, a_norms, b_norms, tol)[0])


def orthogonal(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Whether two events exclude each other (disjoint / EF = 0)."""
    return _pair_verdict("orthogonality", e, f, tol)


def oplus(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> Event:
    """Orthogonal sum, defined exactly for orthogonal pairs."""
    if not orthogonal(e, f, tol):
        raise NotOrthogonal("orthogonal sum requested for non-orthogonal events")
    if isinstance(e, BooleanEvent):
        return BooleanEvent(e.space, e.members | f.members)
    return QuantumEvent(_symmetrized_projection(e.matrix + f.matrix))


def complement(e: Event) -> Event:
    """The unique event orthogonal to e that sums with it to the unit."""
    if isinstance(e, BooleanEvent):
        return BooleanEvent(e.space, frozenset(range(e.space.size)) - e.members)
    return QuantumEvent(np.eye(e.dim, dtype=np.complex128) - e.matrix)


def below(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Order relation e <= f (subset / EF = E)."""
    return _pair_verdict("order", e, f, tol)


def is_atom(e: Event) -> bool:
    """Minimal nonzero event: a singleton or a rank-one projection."""
    if isinstance(e, BooleanEvent):
        return len(e.members) == 1
    return e.rank == 1


def events_equal(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Equality up to the orthogonality tolerance."""
    return _pair_verdict("equality", e, f, tol)


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


# Positions of a harness round's pool: d, e, f (mutually orthogonal), g,
# g', 0, 1.  Its stack of events holds the complement of member x at POOL + x.
_D, _E, _F, _G, _ZERO, _ONE = 0, 1, 2, 3, 5, 6
_POOL = 7


def _round_verdicts(stacks, four, units, tol: float):
    """Yield (axiom, verdict, failure text) for one harness round on the
    drawn events d, e, f, g and the stack of 0 and 1.

    The checks and their order are those of the axioms evaluated pair by
    pair with the public operations.  The round builds its events in four
    checked stacks, and decides each relation it needs among them in one
    stacked call as soon as both sides exist:
    1. the pool and its complements: the orthogonality table pool x (pool
       + complements) and the equality table pool x complements;
    2. the sums of the orthogonal ordered pairs and the OS6 remainders;
    3. the remainders' sums and the OS3 triple sums;
    4. the complements of the sums.
    Where the pairwise evaluation lets ``oplus`` or ``complement`` raise,
    the same error is raised when that check is reached.
    """
    def verdicts(relation, a, a_norms, b, b_norms):
        """``relation`` from a[i] to b[i] as a list; a stack of one pairs
        with every entry of the other."""
        return stacks.holds(getattr(stacks, relation)(a, b), a_norms, b_norms, tol).tolist()

    def take(entries, entry_norms, index):
        return entries.take(index, axis=0), entry_norms.take(index)

    # 1. d e f g g' 0 1 and their complements, checked in the order the
    # pairwise evaluation builds them: d e f g g' d' e' f' g' g'' 0' 1'.
    # In ``both``, complement x' sits at POOL + x.
    drawn = np.concatenate((four, stacks.complement_of(four[_G:])))
    first = np.concatenate((drawn, stacks.complement_of(np.concatenate((drawn, units[0])))))
    first_norms, first_errors = stacks.checks(first, True)
    for error in first_errors:
        if error:
            raise ValidationError(error)
    both = np.concatenate((drawn, units[0], first[len(drawn):]))
    both_norms = np.concatenate((first_norms[:len(drawn)], units[1], first_norms[len(drawn):]))
    pool, pool_norms = both[:_POOL], both_norms[:_POOL]
    orth = verdicts("orthogonality", pool[:, None], pool_norms[:, None],
                    both[None], both_norms[None])
    same = verdicts("equality", pool[:, None], pool_norms[:, None],
                    both[None, _POOL:], both_norms[None, _POOL:])

    # 2. x + y for every orthogonal ordered pool pair and for each member
    # with its complement; y - x for every x orthogonal to the complement
    # of y.
    pairs = [(x, y) for x in range(_POOL) for y in (*range(_POOL), _POOL + x)
             if orth[x][y]]
    splits = [(x, y) for x in range(_POOL) for y in range(_POOL) if orth[x][_POOL + y]]
    at = [[None] * (2 * _POOL) for _ in range(_POOL)]
    for k, (x, y) in enumerate(pairs):
        at[x][y] = k
    n, m = len(pairs), len(splits)
    px = [x for x, _ in pairs]
    sx, sy = [x for x, _ in splits], [y for _, y in splits]
    sx_, sx_norms = take(both, both_norms, sx)
    built = np.concatenate((
        stacks.sum_of(both.take(px, axis=0), both.take([y for _, y in pairs], axis=0)),
        stacks.difference_of(both.take(sy, axis=0), sx_)))
    norms, errors = stacks.checks(built, False)
    sums, sum_norms, sum_errors = built[:n], norms[:n], errors[:n]
    rests, rest_norms, rest_errors = built[n:], norms[n:], errors[n:]
    is_one = verdicts("equality", sums, sum_norms, pool[_ONE:], pool_norms[_ONE:])
    swaps = [(at[x][y], at[y][x]) for x, y in pairs if x < y < _POOL and orth[y][x]]
    commutes = dict(zip(swaps, verdicts(
        "equality", *take(sums, sum_norms, [xy for xy, _ in swaps]),
        *take(sums, sum_norms, [yx for _, yx in swaps]))))
    xs = [x for x in (_D, _E, _F, _G) if orth[x][_ZERO]]
    with_zero = [at[x][_ZERO] for x in xs]
    neutral = dict(zip(with_zero, verdicts("equality", *take(sums, sum_norms, with_zero),
                                           *take(pool, pool_norms, xs))))
    rest_orth = verdicts("orthogonality", sx_, sx_norms, rests, rest_norms)

    # 3. x + (y - x) for each split and, when both inner sums exist,
    # d + (e + f) and (d + e) + f, after d _|_ e + f, f _|_ d + e and
    # d + e _|_ f.
    ef, de = at[_E][_F], at[_D][_E]
    parts = [stacks.sum_of(sx_, rests)]
    closed = False
    if ef is not None and de is not None and not sum_errors[ef] and not sum_errors[de]:
        lhs = np.stack((pool[_D], pool[_F], sums[de]))
        lhs_norms = np.array((pool_norms[_D], pool_norms[_F], sum_norms[de]))
        rhs = np.stack((sums[ef], sums[de], pool[_F]))
        rhs_norms = np.array((sum_norms[ef], sum_norms[de], pool_norms[_F]))
        closed = all(verdicts("orthogonality", lhs, lhs_norms, rhs, rhs_norms))
        parts.append(stacks.sum_of(lhs[0::2], rhs[0::2]))
    resums = np.concatenate(parts)
    resum_norms, resum_errors = stacks.checks(resums, False)
    restored = verdicts("equality", resums[:m], resum_norms[:m], *take(both, both_norms, sy))
    associates = (closed and resum_errors[m:] == [None, None]
                  and verdicts("equality", resums[m:m + 1], resum_norms[m:m + 1],
                               resums[m + 1:], resum_norms[m + 1:])[0])
    # Memory peaks with the largest algebras; free what step 4 no longer needs.
    del parts, resums, sx_

    # 4. The complement of every sum.
    sum_comps = stacks.complement_of(sums)
    sum_comp_norms, sum_comp_errors = stacks.checks(sum_comps, True)
    dominated = verdicts("orthogonality", *take(both, both_norms, px),
                         sum_comps, sum_comp_norms)

    def summed(x, y):
        """Position of x + y among the sums; raises as ``oplus(x, y)`` does."""
        if not orth[x][y]:
            raise NotOrthogonal("orthogonal sum requested for non-orthogonal events")
        if sum_errors[at[x][y]]:
            raise ValidationError(sum_errors[at[x][y]])
        return at[x][y]

    # OS1: orthogonality is symmetric.
    for x in range(_POOL):
        for y in range(x + 1, _POOL):
            yield "OS1", orth[x][y] == orth[y][x], "asymmetric orthogonality"

    # OS2: the sum of an orthogonal pair exists and is commutative.
    for x in range(_POOL):
        for y in range(x + 1, _POOL):
            if not orth[x][y]:
                continue
            if sum_errors[at[x][y]]:
                yield "OS2", False, f"sum failed validation: {sum_errors[at[x][y]]}"
            elif not orth[y][x]:
                yield "OS2", False, "sum not defined in both orders"
            elif sum_errors[at[y][x]]:
                yield "OS2", False, f"sum failed validation: {sum_errors[at[y][x]]}"
            else:
                yield "OS2", commutes[at[x][y], at[y][x]], "sum not commutative"

    # OS3: pairwise orthogonal triples close up and associate.
    yield "OS3", associates, "triple associativity/closure failed"

    # OS4: zero is orthogonal to everything and neutral for the sum.
    for x in (_D, _E, _F, _G):
        ok = orth[_ZERO][x] and neutral[summed(x, _ZERO)]
        yield "OS4", ok, "zero not neutral"

    # OS5: the complement is an orthocomplement and is unique.
    for x in range(_POOL):
        ok = orth[x][_POOL + x] and is_one[summed(x, _POOL + x)]
        yield "OS5", ok, "complement fails sum-to-unit"
        for h in range(_POOL):
            if orth[x][h] and not sum_errors[at[x][h]] and is_one[at[x][h]]:
                yield "OS5", same[h][x], "second complement candidate found"

    # OS6: x is orthogonal to the complement of y exactly when y splits as
    # x plus a remainder orthogonal to x ...
    for j in range(m):
        ok = (not rest_errors[j] and rest_orth[j] and not resum_errors[j]
              and restored[j])
        yield "OS6", ok, "no orthogonal remainder below"
    # ... and a sum dominates its summands.
    for k, (x, y) in enumerate(pairs):
        if y >= _POOL or sum_errors[k]:
            continue
        if sum_comp_errors[k]:
            raise ValidationError(sum_comp_errors[k])
        yield "OS6", dominated[k], "sum does not dominate summand"


def verify_orthospace_axioms(algebra: EventAlgebra, budget: int = 1000,
                             seed: int = 0,
                             tol: float = DEFAULT_EVENT_TOL) -> AxiomReport:
    """Check the orthospace axioms on ``budget`` random event families.

    Each round draws a mutually orthogonal triple plus an unrelated event
    and evaluates every axiom on the combinations that arise, so each
    axiom accumulates at least ``budget`` checked instances.  A pair whose
    orthogonality holds in one order only fails OS2 ("sum not defined in
    both orders").
    """
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
        raise ValidationError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    _require_tolerance(tol)
    stacks = _STACKS[algebra.kind]
    rng = np.random.default_rng(seed)
    report = AxiomReport(algebra=repr(algebra), rounds=budget, seed=seed,
                         checks={ax: 0 for ax in _AXIOMS},
                         failures={ax: 0 for ax in _AXIOMS})
    units = stacks.stack((algebra.zero(), algebra.one()))
    for round_no in range(budget):
        for ax, ok, what in _round_verdicts(stacks, stacks.draw(algebra, rng), units, tol):
            report.checks[ax] += 1
            if not ok:
                report.failures[ax] += 1
                if len(report.messages) < _MAX_MESSAGES:
                    report.messages.append(f"{ax}: round {round_no}: {what}")
    return report
