"""Event algebras over finite sample spaces and complex projection lattices.

Both algebras expose the same orthospace operations (orthogonality,
orthogonal sum, complement, order, atoms) so the state layer can stay
agnostic about which kind of event it handles.  Orthogonality, order and
equality are decided on stacks of events, one route per algebra kind: the
public one-pair functions run it on stacks of one.  A randomized harness
checks the six orthospace axioms a block of rounds at a time, with blocks
bounded by bytes; it draws the rounds in turn, so they keep their random
stream, and keeps the first 20 failure messages in (round, axiom,
position) order.
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

    @property
    def size(self) -> int:
        return self.space.size

    def event(self, members: Iterable[int]) -> BooleanEvent:
        return BooleanEvent(self.space, frozenset(int(i) for i in members))

    def zero(self) -> BooleanEvent:
        return BooleanEvent(self.space, frozenset())

    def one(self) -> BooleanEvent:
        return BooleanEvent(self.space, frozenset(range(self.space.size)))

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
# returns each entry's norm and, by position, the message its constructor
# raises for each entry that fails.


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
    def checks(rows):
        return np.zeros(len(rows)), {}

    @staticmethod
    def draw(algebra: BooleanAlgebra, rng: np.random.Generator):
        """d, e, f, g of one harness round; d, e, f are disjoint."""
        assignment = rng.integers(0, 4, size=algebra.size)
        return np.concatenate((assignment == np.arange(3)[:, None],
                               [rng.random(algebra.size) < 0.5]))


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
    def checks(mats):
        """Norms of the matrices and the message of each failing one by
        position, after the Hermitian scan that :func:`complement` runs
        (``_symmetrized`` output passes it exactly)."""
        errors, norms, _ = _projection_checks(mats, hermitian_tol=TOL_HERMITIAN)
        return norms, {i: error for i, error in enumerate(errors) if error}

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
# g', 0, 1; the complement of member x sits at POOL + x.  An (x, y) table
# pairs member x with member y, a pool-sum table (x, y) in column y < POOL
# and (x, x') in column POOL.
_D, _E, _F, _G, _ZERO, _ONE, _POOL = 0, 1, 2, 3, 5, 6, 7
_X, _Y = np.indices((_POOL, _POOL))
_X8, _PARTNERS = np.hstack((_X, _X[:, :1])), np.hstack((_Y, _X[:, :1] + _POOL))
_PAIRS = np.triu_indices(_POOL, 1)
# Members are exactly Hermitian, so adding or subtracting an exact zero and
# symmetrizing round nothing: x + 0, 0 + y, y - y, y - 0 and 1 - y are x,
# y, 0, y and y' bit for bit, and are taken from the pool, not built.
_WITH_ZERO = (_X8 == _ZERO) | (_PARTNERS == _ZERO)
_TRIVIAL = (_X == _Y) | (_X == _ZERO) | (_Y == _ONE)
# The checks of one round in the order the axioms visit them, as (axiom,
# wording of a failure); an OS2 failure is worded by its cause.
_ROUND_CHECKS = (
    [("OS1", "asymmetric orthogonality")] * len(_PAIRS[0]) + [("OS2", None)] * len(_PAIRS[0])
    + [("OS3", "triple associativity/closure failed")] + [("OS4", "zero not neutral")] * (_G + 1)
    + [("OS5", "complement fails sum-to-unit"),
       *[("OS5", "second complement candidate found")] * _POOL] * _POOL
    + [("OS6", "no orthogonal remainder below")] * _POOL ** 2
    + [("OS6", "sum does not dominate summand")] * _POOL ** 2)
_AXIOM_STARTS = [[ax for ax, _ in _ROUND_CHECKS].index(ax) for ax in _AXIOMS]
# Bytes bounding a block's pool x (pool + complements) relation table (a
# block has at least one round) and the operands of one relation call.
_HARNESS_BLOCK_BYTES = 1 << 18


def _block_verdicts(stacks, four, tol: float):
    """The checks of R harness rounds drawn as ``four`` (R, 4, ...), d e f g
    each: ``(checked, failed, describe)``, two (R, len(_ROUND_CHECKS))
    masks in (round, axiom, position) order, and ``describe(round, check)``
    wording a failure.

    Verdicts, failures and the first error raised (in round order, then
    check order) are those of the axioms evaluated pair by pair with the
    public operations.  The block's events sit in one stack with their
    norms and check outcomes; every round fills the same fixed-shape tables
    of positions in it (pool and complements, member sums, their
    complements, remainders, re-sums, triple sums) and of verdicts.  An
    event is built and checked, and a relation decided, only where the
    pairwise evaluation does so: each step compresses the entries under its
    masks into stacked calls and scatters the outcomes back.
    """
    def decide(relation, *requests):
        """Per (mask, a, b), ``relation`` from the events at positions a to
        those at b where the mask is set, False elsewhere; the operands of
        one stacked call stay within _HARNESS_BLOCK_BYTES."""
        flats = [mask.reshape(-1).nonzero()[0] for mask, _, _ in requests]
        a, b = (np.concatenate([request[side].take(flat)
                                for request, flat in zip(requests, flats)]) for side in (1, 2))
        step = max(1, _HARNESS_BLOCK_BYTES // (2 * events[0].nbytes))
        held = np.concatenate([stacks.holds(
            getattr(stacks, relation)(events.take(a[i:i + step], axis=0),
                                      events.take(b[i:i + step], axis=0)),
            norms.take(a[i:i + step]), norms.take(b[i:i + step]), tol)
            for i in range(0, max(len(a), 1), step)])
        tables, ends = [], np.cumsum([len(flat) for flat in flats])
        for (mask, _, _), flat, end in zip(requests, flats, ends):
            tables.append(np.zeros(mask.shape, dtype=bool))
            tables[-1].put(flat, held[end - len(flat):end])
        return tables

    def build(*requests):
        """Per (mask, make, *operand positions), append ``make`` of the
        operands where the mask is set to the stack, check it, and return
        the table of its positions, 0 where the mask is clear."""
        nonlocal filled
        start, tables = filled, []
        for mask, make, *operands in requests:
            flat = mask.reshape(-1).nonzero()[0]
            tables.append(np.zeros(mask.shape, dtype=np.intp))
            tables[-1].put(flat, np.arange(filled, filled + len(flat)))
            events[filled:filled + len(flat)] = make(
                *(events.take(op.take(flat), axis=0) for op in operands))
            filled += len(flat)
        norms[start:filled], new_errors = stacks.checks(events[start:filled])
        for k, error in new_errors.items():
            bad[start + k], errors[start + k] = True, error
        return tables

    # The pool d e f g g' 0 1 and its complements, checked in that order.
    rounds, zero = len(four), np.zeros_like(four[:, :1])
    drawn = np.concatenate((four, stacks.complement_of(four[:, _G:]), zero,
                            stacks.complement_of(zero)), axis=1)
    table = np.concatenate((drawn, stacks.complement_of(drawn)), axis=1)
    pool_norms, errors = stacks.checks(table.reshape((-1,) + table.shape[2:]))
    at = np.arange(len(pool_norms)).reshape(table.shape[:2])
    table_norms = pool_norms.reshape(at.shape)
    orth = stacks.holds(stacks.orthogonality(table[:, :_POOL, None], table[:, None]),
                        table_norms[:, :_POOL, None], table_norms[:, None], tol)
    paired, split = orth[:, _X8, _PARTNERS], orth[:, :, _POOL:]
    # The stack holds the pool, then room for all that is built below.
    filled = len(pool_norms)
    size = filled + 2 * ((paired & ~_WITH_ZERO).sum() + (split & ~_TRIVIAL).sum() + rounds)
    events = np.empty((size,) + table.shape[2:], dtype=table.dtype)
    norms, bad = np.empty(size), np.zeros(size, dtype=bool)
    events[:filled], norms[:filled] = table.reshape(events[:filled].shape), pool_norms
    bad.put(list(errors), True)
    del drawn, table
    # Positions of x, y and x' in (x, y) tables, of x and its partner in
    # pool-sum tables, and of the members.
    base = 2 * _POOL * np.arange(rounds)[:, None, None]
    x7, y7, c7, x8, partners = base + _X, base + _Y, base + _POOL + _X, base + _X8, \
        base + _PARTNERS
    P = at[:, :_POOL]

    # x + y for every member y and for x', where x _|_ y; y - x where x _|_ y'.
    sums, rests = build((paired & ~_WITH_ZERO, stacks.sum_of, x8, partners),
                        (split & ~_TRIVIAL, stacks.difference_of, y7, x7))
    sums = np.where(_WITH_ZERO, np.where(_X8 == _ZERO, partners, x8), sums)
    rests = np.where(_X == _Y, base + _ZERO,
                     np.where(_X == _ZERO, y7, np.where(_Y == _ONE, c7, rests)))
    sum_bad, rest_bad = paired & bad.take(sums), split & bad.take(rests)
    summed = paired & ~sum_bad
    member_sums, de, ef = sums[:, :, :_POOL], sums[:, _D, _E], sums[:, _E, _F]
    is_one, commutes, neutral = decide(
        "equality", (summed, sums, np.broadcast_to(base + _ONE, paired.shape)),
        (summed[:, :, :_POOL] & summed[:, :, :_POOL].swapaxes(1, 2) & (_X < _Y),
         member_sums, member_sums.swapaxes(1, 2)),
        (summed[:, :_G + 1, _ZERO], sums[:, :_G + 1, _ZERO], P[:, :_G + 1]))
    # d + (e + f) and (d + e) + f close up when d _|_ e + f, f _|_ d + e and
    # d + e _|_ f.
    inner = summed[:, _D, _E] & summed[:, _E, _F]
    d_ef, f_de, de_f, apart = decide(
        "orthogonality", (inner, P[:, _D], ef), (inner, P[:, _F], de), (inner, de, P[:, _F]),
        (split & ~rest_bad, x7, rests))
    closed = d_ef & f_de & de_f

    # The complement of each sum of two members (x' for x + 0, y' for
    # 0 + y), the triple sums, and x + (y - x) where x _|_ y - x.
    dominant = summed[:, :, :_POOL]
    tops, left, right, resums = build(
        (dominant & ~_WITH_ZERO[:, :_POOL], stacks.complement_of, member_sums),
        (closed, stacks.sum_of, P[:, _D], ef), (closed, stacks.sum_of, de, P[:, _F]),
        (apart & ~_TRIVIAL, stacks.sum_of, x7, rests))
    tops = np.where(_WITH_ZERO[:, :_POOL], member_sums + _POOL, tops)
    resums = np.where(_X == _Y, x7, np.where(_X == _ZERO, y7,
                                             np.where(_Y == _ONE, sums[:, :, _POOL:], resums)))
    candidate, unit_sum = is_one[:, :, :_POOL], is_one[:, :, _POOL:]
    dominated, = decide("orthogonality", (dominant, x7, tops))
    second, associates, restored = decide(
        "equality", (candidate, y7, c7),
        (closed & ~bad.take(left) & ~bad.take(right), left, right),
        (apart & ~bad.take(resums), resums, y7))

    # The pairwise evaluation raises, in this order within a round, on the
    # pool checks, oplus(x, 0) (OS4), oplus(x, x') (OS5) and the complement
    # of a sum of two members (OS6).
    raises = np.concatenate((bad[:len(pool_norms)].reshape(at.shape),
                             orth[:, _ZERO, :_G + 1] & ~summed[:, :_G + 1, _ZERO],
                             sum_bad[:, :, _POOL], (dominant & bad.take(tops)).reshape(rounds, -1)),
                            axis=1)
    if raises.any():
        where = np.concatenate((at, sums[:, :_G + 1, _ZERO], sums[:, :, _POOL],
                                tops.reshape(rounds, -1)), axis=1).reshape(-1)[raises.argmax()]
        if not bad[where]:
            raise NotOrthogonal("orthogonal sum requested for non-orthogonal events")
        raise ValidationError(errors[where])

    x, y = _PAIRS

    def describe(r, k):
        axiom, what = _ROUND_CHECKS[k]
        if what is None:
            i = k - _AXIOM_STARTS[1]
            xy, yx = sums[r, x[i], y[i]], sums[r, y[i], x[i]]
            what = (f"sum failed validation: {errors[xy]}" if bad[xy]
                    else "sum not defined in both orders" if not orth[r, y[i], x[i]]
                    else f"sum failed validation: {errors[yx]}" if bad[yx]
                    else "sum not commutative")
        return axiom, what

    pair_orth, every = orth[:, x, y], np.ones((rounds, len(_ROUND_CHECKS)), dtype=bool)
    # OS1: orthogonality is symmetric.  OS2: the sum of an orthogonal pair
    # exists and is commutative.  OS3: pairwise orthogonal triples close up
    # and associate.  OS4: zero is orthogonal to everything and neutral for
    # the sum.  OS5: the complement sums to the unit, and no other member
    # does.  OS6: x _|_ y' exactly when y splits as x plus a remainder
    # orthogonal to x, and a sum dominates its summands.
    checked = np.concatenate((
        every[:, :_AXIOM_STARTS[1]], pair_orth, every[:, _AXIOM_STARTS[2]:_AXIOM_STARTS[4]],
        np.concatenate((every[:, :_POOL, None], candidate), axis=2).reshape(rounds, -1),
        split.reshape(rounds, -1), dominant.reshape(rounds, -1)), axis=1)
    failed = np.concatenate((
        pair_orth != orth[:, y, x],
        pair_orth & ~(summed[:, x, y] & summed[:, y, x] & commutes[:, x, y]),
        ~associates[:, None], ~(orth[:, _ZERO, :_G + 1] & neutral),
        np.concatenate((~unit_sum, candidate & ~second), axis=2).reshape(rounds, -1),
        (split & ~restored).reshape(rounds, -1), (dominant & ~dominated).reshape(rounds, -1)),
        axis=1)
    return checked, failed, describe


def verify_orthospace_axioms(algebra: EventAlgebra, budget: int = 1000,
                             seed: int = 0,
                             tol: float = DEFAULT_EVENT_TOL) -> AxiomReport:
    """Check the orthospace axioms on ``budget`` random event families.

    Each round draws a mutually orthogonal triple plus an unrelated event
    and evaluates every axiom on the combinations that arise, so each
    axiom accumulates at least ``budget`` checked instances.  A pair whose
    orthogonality holds in one order only fails OS2 ("sum not defined in
    both orders").

    Rounds are evaluated a block at a time, as many as keep one block's
    relation table within ``_HARNESS_BLOCK_BYTES``.  Each round is drawn in
    turn from the one seeded generator, so the draws do not depend on the
    block size, and the report keeps the first 20 failure messages in
    (round, axiom, position) order.
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
    drawn = [stacks.draw(algebra, rng)]
    block = max(1, _HARNESS_BLOCK_BYTES // (_POOL * 2 * _POOL * drawn[0][0].nbytes))
    for start in range(0, budget, block):
        drawn += [stacks.draw(algebra, rng) for _ in range(min(block, budget - start) - len(drawn))]
        checked, failed, describe = _block_verdicts(stacks, np.stack(drawn), tol)
        drawn = []
        for ax, n, bad in zip(_AXIOMS, np.add.reduceat(checked.sum(axis=0), _AXIOM_STARTS),
                              np.add.reduceat(failed.sum(axis=0), _AXIOM_STARTS)):
            report.checks[ax] += int(n)
            report.failures[ax] += int(bad)
        for flat in np.flatnonzero(failed)[:_MAX_MESSAGES - len(report.messages)]:
            r, k = divmod(int(flat), failed.shape[1])
            ax, what = describe(r, k)
            report.messages.append(f"{ax}: round {start + r}: {what}")
    return report
