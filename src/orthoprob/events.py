"""Event algebras over finite sample spaces and complex projection lattices.

Both algebras expose the same orthospace operations (orthogonality,
orthogonal sum, complement, order, atoms).  Each algebra kind has one kind
object, ``_BOOLEAN`` or ``_QUANTUM``, that owns how the kind's events and
states are held as arrays and computed on; the state layer and the sampler
call it and never ask which kind they handle.  Orthogonality, order and
equality are decided on stacks of events, one route per algebra kind: the
public one-pair functions run it on stacks of one.  A randomized harness
checks the six orthospace axioms a block of rounds at a time, with blocks
bounded by bytes; it draws the rounds in turn, so they keep their random
stream, and keeps the first 20 failure messages in (round, axiom,
position) order.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (AlgebraMismatch, ImpossibleSequence, NonUniqueConditioningWarning,
                     NotOrthogonal, ValidationError, ZeroEvent)
from .linalg import (CLAMP, DEFAULT_EVENT_TOL, Projection, _adopted, _check_density_stack,
                     _check_weight_rows, _frobenius_norms, _projection_checks, _require_finite,
                     _require_tolerance, _symmetrized, _symmetrized_projection, _within,
                     projector_from_span, random_unitary)


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

    def __init__(self, entries):
        if isinstance(entries, Projection):
            self._matrix, self._rank, self._norm = entries._matrix, entries._rank, entries._norm
        else:
            super().__init__(entries)


Event = Union[BooleanEvent, QuantumEvent]


class BooleanAlgebra:
    """Powerset algebra of a finite sample space."""

    kind = "boolean"
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
        self.flag = None if dim != 2 else \
            "type I2: not a UCP space (conditional probabilities are not unique)"

    def event(self, entries) -> QuantumEvent:
        event = QuantumEvent(entries)
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


def _require_sequence(value, name: str, of: str) -> None:
    if not isinstance(value, Sequence):
        raise ValidationError(
            f"{name} must be a sequence of {of}, got {type(value).__name__}")


def _require_instance(cls: type, **values) -> None:
    for name, value in values.items():
        if not isinstance(value, cls):
            raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _clamp_probability(p: np.ndarray) -> np.ndarray:
    """``p`` with values in [-CLAMP, 0) set to 0 and values in
    (1, 1 + CLAMP] set to 1."""
    if p.min(initial=0.0) < 0.0 or p.max(initial=1.0) > 1.0:
        p = np.where((-CLAMP <= p) & (p < 0.0), 0.0, p)
        p = np.where((1.0 < p) & (p <= 1.0 + CLAMP), 1.0, p)
    return p


# ---------------------------------------------------------------------------
# Algebra kinds.
#
# Each algebra kind has one kind object, _BOOLEAN or _QUANTUM: the one place
# that knows how the kind's events and states are held as arrays and how
# they are computed on.  Its algebras and events point at it as ``_kind``,
# and a public function looks it up once and calls it.  A stack holds k
# events with one norm per event.  The relation residuals broadcast, so
# stacks a[:, None] and b[None] give a (len a, len b) table and
# equal-length stacks one residual per pair; ``holds`` decides them.  The
# builders (complement_of, sum_of, difference_of) check nothing; ``checks``
# returns each entry's norm and, by position, the message its constructor
# raises for each entry that fails.  A state stack holds m states, and
# ``branch`` is what conditioning on an event multiplies a state by.  The
# predictability parts return the candidate s, its residual and its scale,
# for ``states`` to certify with ``_within``.  ``commutative`` says that all
# events commute: every pair is compatible, and only the other kind has a
# ``commutator``, compatibility residuals and an interference term.


class _BooleanKind:
    """Boolean events as (k, size) bool rows, states as (m, size) weight rows.

    A residual counts sample points, so every verdict is exact: a relation
    holds when its residual is zero, whatever the tolerance.  Rows cannot
    fail a check and their norms are unused zeros.
    """

    algebra, event, state = BooleanAlgebra, BooleanEvent, None
    commutative = True

    def shares(self, x, e, state: bool) -> None:
        if x.space != e.space:
            raise AlgebraMismatch("state and event live on different sample spaces" if state
                                  else "events live on different sample spaces")

    def stack(self, events: Sequence[BooleanEvent]):
        rows = np.zeros((len(events), events[0].space.size), dtype=bool)
        for row, ev in zip(rows, events):
            row[list(ev.members)] = True
        return rows, np.zeros(len(events))

    def orthogonality(self, a, b):
        return (a & b).sum(axis=-1)

    def order(self, a, b):
        return (a & ~b).sum(axis=-1)

    def equality(self, a, b):
        return (a ^ b).sum(axis=-1)

    def holds(self, residuals, a_norms, b_norms, tol):
        return residuals == 0

    def complement_of(self, rows):
        return ~rows

    def sum_of(self, a, b):
        return a | b

    def difference_of(self, y, x):
        return y & ~x

    def checks(self, rows):
        return np.zeros(len(rows)), {}

    def draw(self, algebra: BooleanAlgebra, rng: np.random.Generator):
        """d, e, f, g of one harness round; d, e, f are disjoint."""
        assignment = rng.integers(0, 4, size=algebra.size)
        return np.concatenate((assignment == np.arange(3)[:, None],
                               [rng.random(algebra.size) < 0.5]))

    def complement(self, e):
        return BooleanEvent(e.space, frozenset(range(e.space.size)) - e.members)

    def oplus(self, e, f):
        return BooleanEvent(e.space, e.members | f.members)

    def is_atom(self, e) -> bool:
        return len(e.members) == 1

    def state_stack(self, state):
        return state.weights[None]

    def branch(self, event):
        mask = np.zeros(event.space.size)
        mask[sorted(event.members)] = 1.0
        return mask

    def probabilities(self, stack, event):
        # take() keeps each row contiguous, so it sums in the order of a
        # 1-d sum; stack[:, members] is column-major and would not.
        members = np.array(sorted(event.members), dtype=np.intp)
        return _clamp_probability(stack.take(members, axis=1).sum(axis=1))

    def conditioned(self, stack, branch, p):
        return stack * branch / p[:, None]

    def check_states(self, stack) -> None:
        _check_weight_rows(stack)

    def rebuilt(self, like, weights):
        return self.state(like.space, weights)

    def atom_state(self, event):
        weights = np.zeros(event.space.size)
        weights[next(iter(event.members))] = 1.0
        return self.state(event.space, weights)

    def warn_if_nonunique(self, event) -> None:
        pass

    def predictability(self, target, given):
        if not given.members:
            raise ZeroEvent("conditioning event is empty")
        return _counted(len(given.members), len(given.members & target.members))

    def predictability_seq(self, target, given, tol):
        base = frozenset(range(target.space.size))
        for ev in given:
            _shared_kind(target, ev)
            if not ev.members:
                raise ZeroEvent("a conditioning event is empty")
            base &= ev.members
        if not base:
            raise ImpossibleSequence("the events have empty intersection")
        return _counted(len(base), len(base & target.members))


def _counted(n_given: int, n_joint: int):
    # The residual of the projection formula evaluated on indicator
    # diagonals: ||FEF - sF||_F^2 = k(1-s)^2 + (|F|-k)s^2 with k = |E & F|.
    s = n_joint / n_given
    residual = math.sqrt(n_joint * (1.0 - s) ** 2 + (n_given - n_joint) * s ** 2)
    return s, residual, math.sqrt(n_given)


class _QuantumKind:
    """Quantum events as (k, d, d) projection matrices, states as (m, d, d)
    density matrices.

    A residual is the Frobenius norm of AB (orthogonality), AB - A (order)
    or A - B (equality), and a relation holds when the residual is at most
    ``tol * max(1, ||A||_F, ||B||_F)``.  The checks are those of
    :class:`Projection` but the Hermitian scan: drawn events, their sums
    and remainders are ``_symmetrized`` and complements I - P of those, so
    every matrix checked is exactly Hermitian.
    """

    algebra, event, state = QuantumAlgebra, QuantumEvent, None
    commutative = False

    def shares(self, x, e, state: bool) -> None:
        if x.dim != e.dim:
            raise AlgebraMismatch(f"state dimension {x.dim} != event dimension {e.dim}" if state
                                  else f"events have different dimensions: {x.dim} vs {e.dim}")

    def stack(self, events: Sequence[QuantumEvent]):
        return (np.array([ev.matrix for ev in events]),
                np.array([ev._norm for ev in events]))

    def orthogonality(self, a, b):
        return _frobenius_norms(a @ b)

    def order(self, a, b):
        return _frobenius_norms(a @ b - a)

    def equality(self, a, b):
        return _frobenius_norms(a - b)

    def holds(self, residuals, a_norms, b_norms, tol):
        return _within(residuals, tol, np.maximum(a_norms, b_norms))

    def complement_of(self, mats):
        return np.eye(mats.shape[-1], dtype=np.complex128) - mats

    def sum_of(self, a, b):
        return _symmetrized(a + b)

    def difference_of(self, y, x):
        return _symmetrized(y - x)

    def checks(self, mats):
        errors, norms, _ = _projection_checks(mats)
        return norms, {i: error for i, error in enumerate(errors) if error}

    def draw(self, algebra: QuantumAlgebra, rng: np.random.Generator):
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

    def complement(self, e):
        return _adopted(QuantumEvent, np.eye(e.dim, dtype=np.complex128) - e.matrix)

    def oplus(self, e, f):
        return QuantumEvent(_symmetrized_projection(e.matrix + f.matrix))

    def is_atom(self, e) -> bool:
        return e.rank == 1

    def state_stack(self, state):
        return state.matrix[None]

    def branch(self, event):
        return event.matrix

    def probabilities(self, stack, event):
        """The products ``rho @ E`` are one gemm of the rows of all the
        matrices by the shared ``E``: each row of a product is that row
        times ``E`` either way, and the flat product gives the bits of one
        matmul per matrix (pinned in the tests, dims 1 to 64)."""
        d = stack.shape[-1]
        products = (stack.reshape(-1, d) @ event.matrix).reshape(stack.shape)
        return _clamp_probability(products.trace(axis1=1, axis2=2).real)

    def conditioned(self, stack, branch, p):
        """Each matrix compressed to ``(E @ rho) @ E``, made exactly
        Hermitian and divided by its trace.

        The right products by the shared ``E`` are one gemm of the rows of
        all the left products, which gives the bits of one matmul per
        matrix.  The left products stay one matmul per matrix: as one gemm,
        ``E`` times the matrices side by side, they change bits at some
        dims (2, 3, 5 and 6, among others, with the OpenBLAS that numpy
        wheels bundle).
        """
        d = stack.shape[-1]
        compressed = _symmetrized(((branch @ stack).reshape(-1, d) @ branch).reshape(stack.shape))
        compressed /= compressed.trace(axis1=1, axis2=2).real[:, None, None]
        return compressed

    def check_states(self, stack) -> None:
        """The DensityState checks on a stack of exactly Hermitian matrices."""
        _require_finite(stack)
        _check_density_stack(stack)

    def rebuilt(self, like, matrix):
        return self.state(matrix)

    def atom_state(self, event):
        return self.state(event)

    def warn_if_nonunique(self, event) -> None:
        if event.dim == 2:
            warnings.warn(
                "conditioning in a dimension-2 projection lattice (type I2): the "
                "returned state follows the compression rule, but conditional "
                "probabilities are not unique there",
                NonUniqueConditioningWarning, stacklevel=3)

    def predictability(self, target, given):
        if given.rank == 0:
            raise ZeroEvent("conditioning event is the zero projection")
        f = given.matrix
        return _trace_ratio(_symmetrized(f @ target.matrix @ f), f, float(f.trace().real),
                            given._norm)

    def predictability_seq(self, target, given, tol):
        m = np.eye(target.dim, dtype=np.complex128)
        for ev in given:
            _shared_kind(target, ev)
            if ev.rank == 0:
                raise ZeroEvent("a conditioning event is the zero projection")
            m = m @ ev.matrix
        b = _symmetrized(m @ m.conj().T)
        tr_b = float(b.trace().real)
        if tr_b <= tol:
            raise ImpossibleSequence(
                f"no state can realize the sequence: tr(M M^H) = {tr_b!r}")
        return _trace_ratio(_symmetrized(m @ target.matrix @ m.conj().T), b, tr_b,
                            float(np.linalg.norm(b)))

    def commutator(self, e, f) -> float:
        em, fm = e.matrix, f.matrix
        return float(np.linalg.norm(em @ fm - fm @ em))

    def compatibility_residuals(self, e, f):
        em, fm = e.matrix, f.matrix
        eye = np.eye(e.dim)
        ec, fc = eye - em, eye - fm
        ident_e = float(np.linalg.norm(em - fm @ em @ fm - fc @ em @ fc))
        ident_f = float(np.linalg.norm(fm - em @ fm @ em - ec @ fm @ ec))
        return self.commutator(e, f), ident_e, ident_f


def _trace_ratio(a: np.ndarray, b: np.ndarray, tr_b: float, scale: float):
    """s = tr A / tr B for A = sB, the residual ||A - sB||_F, and its scale."""
    s = float(a.trace().real) / tr_b
    return s, float(np.linalg.norm(a - s * b)), scale


_BOOLEAN, _QUANTUM = _BooleanKind(), _QuantumKind()
BooleanAlgebra._kind = BooleanEvent._kind = _BOOLEAN
QuantumAlgebra._kind = QuantumEvent._kind = _QUANTUM


def _shared_kind(x, e: Event, state: bool = False):
    """The kind object that ``x``, an event or, when ``state`` is set, a
    state, shares with the event ``e``.  Raises AlgebraMismatch unless both
    are of one kind on one space or dimension."""
    kind = getattr(e, "_kind", None)
    if kind is None or not isinstance(e, kind.event) \
            or not isinstance(x, kind.state if state else kind.event):
        raise AlgebraMismatch(
            f"cannot {'pair' if state else 'mix'} {type(x).__name__} with {type(e).__name__}")
    kind.shares(x, e, state)
    return kind


def _kind_of(x):
    """The kind object of the event ``x``, None when ``x`` is not an event."""
    kind = getattr(x, "_kind", None)
    return kind if kind is not None and isinstance(x, kind.event) else None


def _event_kind(e, name: str = "e"):
    """The kind object of the event ``e``; ValidationError naming the
    argument when ``e`` is not an event."""
    kind = _kind_of(e)
    if kind is None:
        raise ValidationError(f"{name} must be an event, got {type(e).__name__}")
    return kind


def _one_pair(relation: str, e: Event, f: Event):
    """The kind of e, the residual of ``relation`` ("orthogonality",
    "order" or "equality") from e to f on one-pair stacks, and the two
    norms."""
    kind = _shared_kind(e, f)
    pair, norms = kind.stack((e, f))
    return kind, getattr(kind, relation)(pair[:1], pair[1:]), norms[:1], norms[1:]


def _pair_verdict(relation: str, e: Event, f: Event, tol: float) -> bool:
    _require_tolerance(tol)
    kind, residuals, a_norms, b_norms = _one_pair(relation, e, f)
    return bool(kind.holds(residuals, a_norms, b_norms, tol)[0])


def orthogonal(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Whether two events exclude each other (disjoint / EF = 0)."""
    return _pair_verdict("orthogonality", e, f, tol)


def oplus(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> Event:
    """Orthogonal sum, defined exactly for orthogonal pairs."""
    if not orthogonal(e, f, tol):
        raise NotOrthogonal("orthogonal sum requested for non-orthogonal events")
    return e._kind.oplus(e, f)


def complement(e: Event) -> Event:
    """The unique event orthogonal to e that sums with it to the unit."""
    return _event_kind(e).complement(e)


def below(e: Event, f: Event, tol: float = DEFAULT_EVENT_TOL) -> bool:
    """Order relation e <= f (subset / EF = E)."""
    return _pair_verdict("order", e, f, tol)


def is_atom(e: Event) -> bool:
    """Minimal nonzero event: a singleton or a rank-one projection."""
    return _event_kind(e).is_atom(e)


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


def _block_verdicts(kind, four, tol: float):
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
        held = np.concatenate([kind.holds(
            getattr(kind, relation)(events.take(a[i:i + step], axis=0),
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
        norms[start:filled], new_errors = kind.checks(events[start:filled])
        for k, error in new_errors.items():
            bad[start + k], errors[start + k] = True, error
        return tables

    # The pool d e f g g' 0 1 and its complements, checked in that order.
    rounds, zero = len(four), np.zeros_like(four[:, :1])
    drawn = np.concatenate((four, kind.complement_of(four[:, _G:]), zero,
                            kind.complement_of(zero)), axis=1)
    table = np.concatenate((drawn, kind.complement_of(drawn)), axis=1)
    pool_norms, errors = kind.checks(table.reshape((-1,) + table.shape[2:]))
    at = np.arange(len(pool_norms)).reshape(table.shape[:2])
    table_norms = pool_norms.reshape(at.shape)
    orth = kind.holds(kind.orthogonality(table[:, :_POOL, None], table[:, None]),
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
    sums, rests = build((paired & ~_WITH_ZERO, kind.sum_of, x8, partners),
                        (split & ~_TRIVIAL, kind.difference_of, y7, x7))
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
        (dominant & ~_WITH_ZERO[:, :_POOL], kind.complement_of, member_sums),
        (closed, kind.sum_of, P[:, _D], ef), (closed, kind.sum_of, de, P[:, _F]),
        (apart & ~_TRIVIAL, kind.sum_of, x7, rests))
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
    kind = getattr(algebra, "_kind", None)
    if kind is None or not isinstance(algebra, kind.algebra):
        raise ValidationError(f"algebra must be an event algebra, got {type(algebra).__name__}")
    rng = np.random.default_rng(seed)
    report = AxiomReport(algebra=repr(algebra), rounds=budget, seed=seed,
                         checks={ax: 0 for ax in _AXIOMS},
                         failures={ax: 0 for ax in _AXIOMS})
    drawn = [kind.draw(algebra, rng)]
    block = max(1, _HARNESS_BLOCK_BYTES // (_POOL * 2 * _POOL * drawn[0][0].nbytes))
    for start in range(0, budget, block):
        drawn += [kind.draw(algebra, rng) for _ in range(min(block, budget - start) - len(drawn))]
        checked, failed, describe = _block_verdicts(kind, np.stack(drawn), tol)
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
