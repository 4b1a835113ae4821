"""Event algebras over finite sample spaces and complex projection lattices.

Both algebras expose the same orthospace operations (orthogonality,
orthogonal sum, complement, order, atoms).  Each algebra kind has one kind
object, ``_BOOLEAN`` or ``_QUANTUM``, that owns how the kind's events and
states are held as arrays and computed on; the state layer and the sampler
call it and never ask which kind they handle.  Orthogonality, order and
equality are decided by one residual per algebra kind, which broadcasts:
the public one-pair functions run it on the two events' own arrays, the
harness on stacks of them.  A randomized harness checks the six orthospace
axioms a block of rounds at a time, with blocks bounded by bytes; it draws
the rounds in turn, so they keep their random stream, and keeps the first
20 failure messages in (round, axiom, position) order.  Its block
evaluator is in ``_harness``, which the harness imports on its first call.
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
                     _check_weight_rows, _frobenius_norms, _haar, _projection_checks,
                     _require_finite, _quadratic, _require_int, _require_tolerance, _settled,
                     _slices, _symmetrized, _within, projector_from_span)


@dataclass(frozen=True)
class SampleSpace:
    """Finite sample space with optional distinct point labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "size", _require_int(self.size, "sample space size", 1))
        if self.labels is not None:
            if not (isinstance(self.labels, Sequence)
                    and all(isinstance(label, str) for label in self.labels)):
                raise ValidationError("labels must be a sequence of strings")
            object.__setattr__(self, "labels", tuple(self.labels))
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
    _norm = 0.0  # a class attribute, not a field: the relations' unused scale

    def __post_init__(self):
        _require_instance(SampleSpace, space=self.space)
        if not isinstance(self.members, Iterable):
            raise ValidationError(
                f"members must be an iterable of integers, got {type(self.members).__name__}")
        members = frozenset(i if type(i) is int else _require_int(i, "member")
                            for i in self.members)
        object.__setattr__(self, "members", members)
        if members and (min(members) < 0 or max(members) >= self.space.size):
            for i in members:
                if not 0 <= i < self.space.size:
                    raise ValidationError(
                        f"member {i!r} outside sample space of size {self.space.size}")


class QuantumEvent(Projection):
    """An event in a complex projection lattice: a :class:`Projection`,
    built and checked as ``Projection`` builds and checks it.  An event
    never equals a plain ``Projection``.
    """

    __slots__ = ()


Event = Union[BooleanEvent, QuantumEvent]


class BooleanAlgebra:
    """Powerset algebra of a finite sample space."""

    kind = "boolean"
    flag = None

    def __init__(self, space: SampleSpace | int, labels: Sequence[str] | None = None):
        if not isinstance(space, SampleSpace):
            space = SampleSpace(space, labels)
        elif labels is not None:
            raise ValidationError("labels must be None when space is a SampleSpace: it holds them")
        self.space = space

    @property
    def size(self) -> int:
        return self.space.size

    def event(self, members: Iterable[int]) -> BooleanEvent:
        return BooleanEvent(self.space, members)

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
        self.dim = _require_int(dim, "quantum algebra dimension", 1)
        # Dimension two is the lone projection lattice where conditional
        # probabilities fail to be unique; flag it so callers can warn.
        self.flag = None if self.dim != 2 else \
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
        return _adopted(QuantumEvent, np.zeros((self.dim, self.dim), dtype=np.complex128))

    def one(self) -> QuantumEvent:
        return _adopted(QuantumEvent, np.eye(self.dim, dtype=np.complex128))

    def __repr__(self):
        return f"QuantumAlgebra(dim={self.dim})"


EventAlgebra = Union[BooleanAlgebra, QuantumAlgebra]


def _require_instance(cls: type, **values) -> None:
    for name, value in values.items():
        if not isinstance(value, cls):
            raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _clamp_probability(p: np.ndarray) -> np.ndarray:
    """``p`` with values in [-CLAMP, 0) set to 0 and values in
    (1, 1 + CLAMP] set to 1."""
    p = np.where((-CLAMP <= p) & (p < 0.0), 0.0, p)
    return np.where((1.0 < p) & (p <= 1.0 + CLAMP), 1.0, p)


# ---------------------------------------------------------------------------
# Algebra kinds.
#
# Each algebra kind has one kind object, _BOOLEAN or _QUANTUM: the one place
# that knows how the kind's events and states are held as arrays and how
# they are computed on.  Its algebras and events point at it as ``_kind``,
# and a public function looks it up once and calls it.  ``operand`` is an
# event's own array, a bool row or its projection matrix, of
# ``operand_bytes(algebra)`` bytes; every event has a norm, ``_norm``.
# The relation residuals broadcast, so two operands give
# one residual, stacks a[:, None] and b[None] a (len a, len b) table and
# equal-length stacks one residual per pair; ``holds`` decides them.  The
# builders (complement_of, sum_of, difference_of) check nothing; ``checks``
# returns each entry's norm and, by position, the message its constructor
# raises for each entry that fails; the quantum complement and oplus run
# the builders on one matrix.  A state stack holds m states; its
# probabilities of an event and its conditioning on it take the event's
# operand, and conditioning multiplies each state by it.
# ``state_of(like, array)`` is the one route from an array the library
# computed to a checked state on ``like``'s space.  The predictability parts
# return the candidate s, its residual and its scale, for ``states`` to
# certify with ``_within``.  ``commutative`` says that all events commute:
# every pair is compatible, and only the other kind has a ``commutator``,
# whose norm ``holds`` decides, compatibility residuals and an interference
# term.


class _BooleanKind:
    """Boolean events as size-long bool rows, states as (m, size) weight rows.

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

    def operand_bytes(self, algebra) -> int:
        return algebra.size

    def operand(self, event):
        row = np.zeros(event.space.size, dtype=bool)
        row[list(event.members)] = True
        return row

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

    def draw(self, algebra: BooleanAlgebra, rng: np.random.Generator, rounds: int):
        """d, e, f, g of each of ``rounds`` harness rounds, a (rounds, 4,
        size) stack; d, e, f are disjoint."""
        four = np.empty((rounds, 4, algebra.size), dtype=bool)
        for members in four:
            members[:3] = rng.integers(0, 4, size=algebra.size) == np.arange(3)[:, None]
            members[3] = rng.random(algebra.size) < 0.5
        return four

    def complement(self, e):
        return BooleanEvent(e.space, frozenset(range(e.space.size)) - e.members)

    def oplus(self, e, f):
        return BooleanEvent(e.space, e.members | f.members)

    def is_atom(self, e) -> bool:
        return len(e.members) == 1

    def state_stack(self, state):
        return state.weights[None]

    def probabilities(self, stack, operand):
        # take() keeps each row contiguous, so it sums in the order of a
        # 1-d sum; stack[:, operand] is column-major and would not.
        return _clamp_probability(stack.take(np.flatnonzero(operand), axis=1).sum(axis=1))

    def conditioned(self, stack, operand, p):
        return stack * operand / p[:, None]

    def check_states(self, stack) -> None:
        _check_weight_rows(stack)

    def state_of(self, like, weights):
        return self.state(like.space, weights)

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
    """Quantum events as (d, d) projection matrices, states as (m, d, d)
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

    def operand_bytes(self, algebra) -> int:
        return 16 * algebra.dim ** 2

    def operand(self, event):
        return event.matrix

    def orthogonality(self, a, b):
        return _frobenius_norms(_settled(a @ b))

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

    def draw(self, algebra: QuantumAlgebra, rng: np.random.Generator, rounds: int):
        """d, e, f, g of each of ``rounds`` harness rounds, a (rounds, 4, d,
        d) stack; d, e, f are exactly orthogonal.

        Each round takes its draws from the generator in the order of a
        round drawn alone: the ranks, the Gaussian pairs of u and of v, then
        g's rank k.  The block's 2 * rounds unitaries then come from one
        stacked QR, which gives each the bits of ``random_unitary``.
        """
        n = algebra.dim
        gaussians = np.empty((rounds, 2, n, n), dtype=np.complex128)
        ends = []
        for pair in gaussians:
            while True:
                ranks = rng.integers(0, n + 1, size=3)
                if ranks.sum() <= n:
                    break
            for z in pair:
                z[...] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ends.append((*np.cumsum(ranks), int(rng.integers(1, n)) if n > 1 else 1))
        four = np.empty((rounds, 4, n, n), dtype=np.complex128)
        for (u, v), (a, b, c, k), frames in zip(_haar(gaussians), ends, four):
            # Disjoint column blocks of one Haar frame u give an exactly
            # orthogonal triple; g spans the first k columns of v.
            for frame, cols in zip(frames, (u[:, :a], u[:, a:b], u[:, b:c], v[:, :k])):
                frame[...] = cols @ cols.conj().T
        return _symmetrized(four)

    def complement(self, e):
        return _adopted(QuantumEvent, self.complement_of(e.matrix))

    def oplus(self, e, f):
        return _adopted(QuantumEvent, self.sum_of(e.matrix, f.matrix))

    def is_atom(self, e) -> bool:
        return e.rank == 1

    def state_stack(self, state):
        return state.matrix[None]

    def probabilities(self, stack, operand):
        """The products ``rho @ E`` are one gemm of the rows of all the
        matrices by the shared ``E``: each row of a product is that row
        times ``E`` either way, and the flat product gives the bits of one
        matmul per matrix on kernels where the ``kernel_dependent`` tests
        pass (pinned there, dims 1 to 64)."""
        d = stack.shape[-1]
        products = _settled((stack.reshape(-1, d) @ operand).reshape(stack.shape))
        return _clamp_probability(products.trace(axis1=-2, axis2=-1).real)

    def conditioned(self, stack, operand, p):
        """Each matrix compressed to ``(E @ rho) @ E``, made exactly
        Hermitian and divided by its trace.

        The right products by the shared ``E`` are one gemm of the rows of
        all the left products, which gives the bits of one matmul per
        matrix on kernels where the ``kernel_dependent`` tests pass.  The
        left products stay one matmul per matrix: as one gemm, ``E`` times
        the matrices side by side, they change bits at some dims (2, 3, 5
        and 6, among others, with the OpenBLAS that numpy wheels bundle).
        """
        d = stack.shape[-1]
        compressed = _symmetrized(((operand @ stack).reshape(-1, d) @ operand).reshape(stack.shape))
        compressed /= compressed.trace(axis1=-2, axis2=-1).real[:, None, None]
        return compressed

    def check_states(self, stack) -> None:
        """The DensityState checks on a stack of exactly Hermitian matrices."""
        _require_finite(stack)
        _check_density_stack(stack)

    def state_of(self, like, matrix):
        """The density state adopting ``matrix``, an exactly Hermitian array
        the library computed, after the checks of ``check_states``."""
        _require_finite(matrix)
        return _adopted(self.state, matrix)

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
        return _trace_ratio(_quadratic(f, target.matrix), f, float(f.trace().real),
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


def _kind_of(x):
    """The kind object of the event ``x``, None when ``x`` is not an event."""
    kind = getattr(x, "_kind", None)
    return kind if kind is not None and isinstance(x, kind.event) else None


def _shared_kind(x, e: Event, state: bool = False):
    """The kind object that ``x``, an event or, when ``state`` is set, a
    state, shares with the event ``e``.  Raises AlgebraMismatch unless both
    are of one kind on one space or dimension."""
    kind = _kind_of(e)
    if kind is None or not isinstance(x, kind.state if state else kind.event):
        raise AlgebraMismatch(
            f"cannot {'pair' if state else 'mix'} {type(x).__name__} with {type(e).__name__}")
    kind.shares(x, e, state)
    return kind


def _event_kind(e, name: str = "e"):
    """The kind object of the event ``e``; ValidationError naming the
    argument when ``e`` is not an event."""
    kind = _kind_of(e)
    if kind is None:
        raise ValidationError(f"{name} must be an event, got {type(e).__name__}")
    return kind


def _one_pair(relation: str, e: Event, f: Event):
    """The kind of e, the residual of ``relation`` ("orthogonality",
    "order" or "equality") from e to f on their operands, and the two
    norms."""
    kind = _shared_kind(e, f)
    return kind, getattr(kind, relation)(kind.operand(e), kind.operand(f)), e._norm, f._norm


def _pair_verdict(relation: str, e: Event, f: Event, tol: float) -> bool:
    _require_tolerance(tol)
    kind, residual, e_norm, f_norm = _one_pair(relation, e, f)
    return bool(kind.holds(residual, e_norm, f_norm, tol))


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
DEFAULT_AXIOM_BUDGET = 1000  # rounds when no budget is given, here, in a scenario or on the CLI
DEFAULT_SEED = 42  # SamplerConfig's and run_query's seed, and the CLI's --seed default
DEFAULT_TRIALS = 100_000  # SamplerConfig's and run_query's trials, and the CLI's --trials default
_SEED_BOUND = 2 ** 64  # a seed is in [0, _SEED_BOUND): the width of the sampler's Philox key
# A block of harness rounds is drawn and evaluated together: as many rounds
# as keep what they hold (_harness._HELD events and _TABLE_BYTES of tables
# a round) within _HARNESS_BLOCK_BYTES, and at least one.  At dims 2, 4, 6
# and 16 a block holds 160, 62, 30 and 4 rounds, and from dim 25 on one.  A
# stacked call of a block takes as many of its entries as keep the call's
# operands within linalg._CALL_BYTES, the sampler's bound too.
_HARNESS_BLOCK_BYTES = 3 << 20


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


def verify_orthospace_axioms(algebra: EventAlgebra, budget: int = DEFAULT_AXIOM_BUDGET,
                             seed: int = 0,
                             tol: float = DEFAULT_EVENT_TOL) -> AxiomReport:
    """Check the orthospace axioms on ``budget`` random event families.

    Each round draws a mutually orthogonal triple plus an unrelated event
    and evaluates every axiom on the combinations that arise, so each
    axiom accumulates at least ``budget`` checked instances.  A pair whose
    orthogonality holds in one order only fails OS2 ("sum not defined in
    both orders").

    Rounds are drawn and evaluated a block at a time, as many as keep the
    events and tables a block holds within ``_HARNESS_BLOCK_BYTES``, and each
    stacked call of a block takes as many entries as keep its operands
    within ``linalg._CALL_BYTES``.  A block takes its rounds from the one
    seeded generator in the order in which rounds drawn one at a time would
    take them, so the draws, and the report, depend on neither bound; the
    report keeps the first 20 failure messages in (round, axiom, position)
    order.
    """
    budget, seed = _require_int(budget, "budget", 1), _require_int(seed, "seed", 0, _SEED_BOUND)
    _require_tolerance(tol)
    kind = getattr(algebra, "_kind", None)
    if kind is None or not isinstance(algebra, kind.algebra):
        raise ValidationError(f"algebra must be an event algebra, got {type(algebra).__name__}")
    from ._harness import _AXIOM_STARTS, _HELD, _TABLE_BYTES, _block_verdicts
    rng = np.random.default_rng(seed)
    report = AxiomReport(algebra=repr(algebra), rounds=budget, seed=seed,
                         checks={ax: 0 for ax in _AXIOMS},
                         failures={ax: 0 for ax in _AXIOMS})
    for block in _slices(budget, _HELD * kind.operand_bytes(algebra) + _TABLE_BYTES,
                         _HARNESS_BLOCK_BYTES):
        checked, failed, describe = _block_verdicts(
            kind, kind.draw(algebra, rng, block.stop - block.start), tol)
        for ax, n, bad in zip(_AXIOMS, np.add.reduceat(checked.sum(axis=0), _AXIOM_STARTS),
                              np.add.reduceat(failed.sum(axis=0), _AXIOM_STARTS)):
            report.checks[ax] += int(n)
            report.failures[ax] += int(bad)
        for flat in np.flatnonzero(failed)[:_MAX_MESSAGES - len(report.messages)]:
            r, k = divmod(int(flat), failed.shape[1])
            ax, what = describe(r, k)
            report.messages.append(f"{ax}: round {block.start + r}: {what}")
    return report
