"""Event algebra tests: lattice operations and the axiom harness."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import orthoprob._harness
import orthoprob.events
import orthoprob.linalg
from orthoprob.errors import (AlgebraMismatch, NotOrthogonal, ValidationError)
from orthoprob.events import (DEFAULT_EVENT_TOL, BooleanAlgebra, BooleanEvent,
                              QuantumAlgebra, QuantumEvent, SampleSpace, _clamp_probability,
                              _one_pair, below, complement, events_equal, is_atom, oplus,
                              orthogonal, verify_orthospace_axioms)
from orthoprob.linalg import (Projection, _frobenius_norms, _settled, jordan_product,
                              random_unitary)
from orthoprob.states import DensityState, condition, prob

import helpers
from helpers import (axiom_report, frame_event, harness_round, per_pair_axioms,
                     per_pair_rounds, random_density_matrix, random_projection, state_family)

# The harness's own bounds on the bytes of one block of rounds and on the
# operands of one stacked call.
BLOCK_BYTES = orthoprob.events._HARNESS_BLOCK_BYTES
CALL_BYTES = orthoprob.linalg._CALL_BYTES
# Check counts of the benchmark's harness workload, keyed
# "<kind><size>/seed<seed>/budget<budget>"; read here, never written.
HARNESS_COUNTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden"
     / "harness_counts.json").read_text(encoding="utf-8"))


def _forbidden(*args, **kwargs):
    raise AssertionError("the public constructor ran")


@pytest.fixture
def die():
    return BooleanAlgebra(6, labels=["1", "2", "3", "4", "5", "6"])


@pytest.fixture
def qdim3():
    return QuantumAlgebra(3)


class TestBooleanAlgebra:
    def test_space_and_labels(self, die):
        assert die.size == 6
        assert die.space.labels == ("1", "2", "3", "4", "5", "6")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            BooleanAlgebra(2, labels=["a", "a"])

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            BooleanAlgebra(3, labels=["a", "b"])

    def test_labels_with_a_sample_space_are_refused(self):
        # Before, the labels were dropped and the space kept none.
        with pytest.raises(ValidationError, match="labels"):
            BooleanAlgebra(SampleSpace(3), labels=["x", "y", "z"])

    def test_a_sample_space_keeps_its_labels(self):
        space = SampleSpace(3, ("x", "y", "z"))
        assert BooleanAlgebra(space).space is space
        assert BooleanAlgebra(space).space.labels == ("x", "y", "z")

    def test_event_bounds(self, die):
        die.event([0, 5])
        with pytest.raises(ValidationError):
            die.event([6])
        with pytest.raises(ValidationError):
            die.event([-1])

    def test_lattice_ops(self, die):
        low = die.event([0, 1])
        high = die.event([4, 5])
        mid = die.event([2, 3])
        assert orthogonal(low, high)
        assert not orthogonal(low, die.event([1, 2]))
        both = oplus(low, high)
        assert both.members == frozenset({0, 1, 4, 5})
        assert complement(both).members == frozenset({2, 3})
        assert below(low, both)
        assert not below(both, low)
        assert events_equal(oplus(both, mid), die.one())

    def test_oplus_requires_orthogonal(self, die):
        with pytest.raises(NotOrthogonal):
            oplus(die.event([0, 1]), die.event([1, 2]))

    def test_atoms(self, die):
        assert is_atom(die.event([3]))
        assert not is_atom(die.event([3, 4]))
        assert not is_atom(die.zero())


class TestQuantumAlgebra:
    def test_event_from_matrix(self, qdim3):
        ev = qdim3.event(np.diag([1.0, 1.0, 0.0]))
        assert ev.dim == 3
        assert ev.rank == 2

    def test_rejects_non_projection(self, qdim3):
        with pytest.raises(ValidationError):
            qdim3.event(np.diag([1.0, 0.3, 0.0]))

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValidationError, match="^quantum algebra dimension must be >= 1$"):
            QuantumAlgebra(0)

    def test_rejects_wrong_dimension(self, qdim3):
        with pytest.raises(AlgebraMismatch):
            qdim3.event(np.eye(4))

    def test_span_event(self, qdim3):
        ev = qdim3.event_from_span([np.array([1.0, 1.0, 0.0])])
        assert is_atom(ev)
        assert np.allclose(ev.matrix[:2, :2], 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_lattice_ops(self, qdim3):
        e1 = qdim3.event_from_span([np.array([1.0, 0.0, 0.0])])
        e2 = qdim3.event_from_span([np.array([0.0, 1.0, 0.0])])
        diag = qdim3.event_from_span([np.array([1.0, 1.0, 0.0]) / np.sqrt(2)])
        assert orthogonal(e1, e2)
        assert not orthogonal(e1, diag)
        plane = oplus(e1, e2)
        assert plane.rank == 2
        assert below(diag, plane)
        assert not below(plane, diag)
        assert events_equal(complement(plane),
                            qdim3.event_from_span([np.array([0.0, 0.0, 1.0])]))

    def test_oplus_requires_orthogonal(self, qdim3):
        e1 = qdim3.event_from_span([np.array([1.0, 0.0, 0.0])])
        diag = qdim3.event_from_span([np.array([1.0, 1.0, 0.0])])
        with pytest.raises(NotOrthogonal):
            oplus(e1, diag)

    def test_complement_involution_up_to_tol(self, qdim3):
        g = qdim3.event_from_span([np.array([np.cos(0.3), np.sin(0.3), 0.0])])
        assert events_equal(complement(complement(g)), g, tol=1e-12)

    def test_mixed_kinds_rejected(self, die, qdim3):
        with pytest.raises(AlgebraMismatch):
            orthogonal(die.event([0]), qdim3.zero())

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_zero_and_one_skip_the_constructor(self, dim, monkeypatch):
        # Both are exact arrays the library built: adopted after the
        # projection check alone, with the constructor's bits, rank and norm.
        want = [QuantumEvent(np.zeros((dim, dim))), QuantumEvent(np.eye(dim))]
        monkeypatch.setattr(orthoprob.linalg.HermitianOperator, "_take", _forbidden)
        algebra = QuantumAlgebra(dim)
        for got, w, rank in zip([algebra.zero(), algebra.one()], want, [0, dim]):
            assert type(got) is QuantumEvent
            assert got.matrix.tobytes() == w.matrix.tobytes()
            assert not got.matrix.flags.writeable
            assert (got.rank, got._norm) == (rank, w._norm)


class TestEventIsAProjection:
    """A quantum event is its projection: one object, one checked array."""

    def test_an_event_is_a_projection(self, qdim3):
        ev = qdim3.event(np.diag([1.0, 1.0, 0.0]))
        assert isinstance(ev, Projection)
        assert QuantumEvent.__slots__ == ()
        assert not hasattr(ev, "__dict__")
        assert (ev.dim, ev.rank) == (3, 2)
        assert repr(ev) == "QuantumEvent(dim=3, rank=2)"

    def test_operator_routines_accept_events(self, qdim3):
        atom = qdim3.event_from_span([np.array([1.0, 1.0, 0.0])])
        plane = qdim3.event(np.diag([1.0, 1.0, 0.0]))
        rho = DensityState(atom)
        assert rho.matrix is atom.matrix
        assert prob(rho, atom) == pytest.approx(1.0, abs=1e-15)
        assert jordan_product(atom, plane) == jordan_product(atom.matrix, plane.matrix)

    def test_never_equals_a_plain_projection(self, qdim3):
        ev = qdim3.event(np.diag([1.0, 0.0, 0.0]))
        proj = Projection(ev.matrix)
        assert ev != proj and proj != ev
        assert ev == QuantumEvent(proj)
        assert ev == qdim3.event(proj)

    def test_each_event_is_checked_once(self, qdim3, monkeypatch):
        calls = []
        checks = orthoprob.linalg._projection_checks

        def counted(*args, **kwargs):
            calls.append(1)
            return checks(*args, **kwargs)

        monkeypatch.setattr(orthoprob.linalg, "_projection_checks", counted)

        def count(build):
            calls.clear()
            build()
            return len(calls)

        e1 = qdim3.event_from_span([np.array([1.0, 0.0, 0.0])])
        e2 = qdim3.event(np.diag([0.0, 1.0, 0.0]))
        proj = Projection(np.diag([0.0, 0.0, 1.0]))
        assert count(lambda: qdim3.event(np.diag([1.0, 1.0, 0.0]))) == 1
        assert count(lambda: qdim3.event_from_span([np.array([1.0, 1.0, 0.0])])) == 1
        assert count(lambda: oplus(e1, e2)) == 1
        assert count(lambda: complement(e1)) == 1
        assert count(qdim3.zero) == count(qdim3.one) == 1
        # A projection is adopted with its rank and norm, not checked again,
        # by an event and by a plain projection alike.
        assert count(lambda: qdim3.event(proj)) == 0
        assert count(lambda: QuantumEvent(proj)) == 0
        assert count(lambda: Projection(proj)) == 0
        adopted = QuantumEvent(proj)
        assert adopted.matrix is proj.matrix
        assert (adopted.rank, adopted._norm) == (proj.rank, proj._norm)


def _hermitian(m):
    return (m + m.conj().T) / 2.0


class TestBooleanDiagonalEmbedding:
    """A Boolean event and its diagonal 0/1 projection behave alike."""

    @pytest.mark.parametrize("size", range(1, 9))
    def test_operations_agree(self, size):
        rng = np.random.default_rng(size)
        boolean, quantum = BooleanAlgebra(size), QuantumAlgebra(size)

        def diagonal(ev):
            return quantum.event(np.diag([float(i in ev.members) for i in range(size)]))

        def same(q, b):
            return np.array_equal(q.matrix, diagonal(b).matrix)

        events = [boolean.event(np.flatnonzero(rng.random(size) < 0.5))
                  for _ in range(6)]
        events += [complement(ev) for ev in events] + [boolean.zero(), boolean.one()]
        for a in events:
            qa = diagonal(a)
            assert is_atom(qa) == is_atom(a)
            assert same(complement(qa), complement(a))
            for b in events:
                qb = diagonal(b)
                assert orthogonal(qa, qb) == orthogonal(a, b)
                assert below(qa, qb) == below(a, b)
                assert events_equal(qa, qb) == events_equal(a, b)
                if orthogonal(a, b):
                    assert same(oplus(qa, qb), oplus(a, b))


class TestUnitaryCovariance:
    """Verdicts on projections are unchanged by E -> U E U^H."""

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_verdicts_invariant(self, dim):
        rng = np.random.default_rng(dim)
        alg = QuantumAlgebra(dim)
        frame = random_unitary(dim, rng)
        # Spans of column subsets of one frame: the verdicts follow the subsets.
        subsets = [frozenset(np.flatnonzero(rng.random(dim) < 0.5)) for _ in range(8)]
        subsets += [frozenset(), frozenset(range(dim))]
        events = []
        for cols in subsets:
            c = frame[:, sorted(cols)]
            events.append(alg.event(_hermitian(c @ c.conj().T)))
        generic = [alg.event(random_projection(dim, rank, rng))
                   for rank in range(1, dim)]
        events += generic
        subsets += [None] * len(generic)
        u = random_unitary(dim, rng)
        rotated = [alg.event(_hermitian(u @ ev.matrix @ u.conj().T)) for ev in events]
        for e, ue, s in zip(events, rotated, subsets):
            for f, uf, t in zip(events, rotated, subsets):
                for relation in (orthogonal, below, events_equal):
                    assert relation(e, f) == relation(ue, uf), relation.__name__
                if s is not None and t is not None:
                    assert orthogonal(e, f) == (not s & t)
                    assert below(e, f) == (s <= t)
                    assert events_equal(e, f) == (s == t)

class TestSampleSpace:
    def test_size_positive(self):
        with pytest.raises(ValidationError):
            SampleSpace(0)

    def test_member_validation(self):
        space = SampleSpace(3)
        with pytest.raises(ValidationError):
            BooleanAlgebra(space).event([3])


class TestIntegerArguments:
    """Sizes, dimensions and members are ints or numpy integers; a float,
    a string or a bool is refused, never rounded or taken as 0 or 1."""

    @pytest.mark.parametrize("build, message", [
        (lambda: BooleanAlgebra(6).event([2.7]), "member 2.7 is not an integer"),
        (lambda: BooleanAlgebra(6).event(["3"]), "member '3' is not an integer"),
        (lambda: BooleanAlgebra(6).event([2.0]), "member 2.0 is not an integer"),
        (lambda: BooleanEvent(SampleSpace(6), {2.7}), "member 2.7 is not an integer"),
        (lambda: BooleanEvent(SampleSpace(6), {True}), "member True is not an integer"),
        (lambda: QuantumAlgebra(2.5), "quantum algebra dimension 2.5 is not an integer"),
        (lambda: QuantumAlgebra("3"), "quantum algebra dimension '3' is not an integer"),
        (lambda: QuantumAlgebra(True), "quantum algebra dimension True is not an integer"),
        (lambda: SampleSpace(6.5), "sample space size 6.5 is not an integer"),
        (lambda: BooleanAlgebra(6.5), "sample space size 6.5 is not an integer"),
        (lambda: SampleSpace(True), "sample space size True is not an integer"),
    ])
    def test_refused(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_existing_messages_stay(self):
        with pytest.raises(ValidationError, match="^sample space size must be >= 1$"):
            SampleSpace(0)
        with pytest.raises(ValidationError, match="^member 6 outside sample space of size 6$"):
            BooleanEvent(SampleSpace(6), {6})

    def test_plain_members_are_kept_and_ranged_at_once(self):
        space = SampleSpace(6)
        plain = frozenset({0, 5})
        assert BooleanEvent(space, plain).members == plain
        assert BooleanEvent(space, (i for i in (1, 2))).members == frozenset({1, 2})
        for members, first in [({-1, 2}, -1), ({np.int64(7), 2}, 7), ([3, 6], 6)]:
            with pytest.raises(ValidationError,
                               match=f"^member {first} outside sample space of size 6$"):
                BooleanEvent(space, members)
        # Checked one member at a time, so the float is refused before the
        # unhashable list after it is reached.
        with pytest.raises(ValidationError, match="^member 2.5 is not an integer$"):
            BooleanEvent(space, [2.5, [1]])

    def test_numpy_integers_are_ints(self):
        event = BooleanAlgebra(np.int64(6)).event([np.int64(2), np.intp(4)])
        assert event.members == frozenset({2, 4})
        assert all(type(i) is int for i in event.members)
        assert type(event.space.size) is int
        assert BooleanEvent(SampleSpace(np.int32(3)), {np.uint8(1)}).members == frozenset({1})
        assert QuantumAlgebra(np.int64(3)).dim == 3
        assert type(QuantumAlgebra(np.int64(3)).dim) is int


class TestAxiomHarness:
    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_boolean_instances(self, size):
        report = verify_orthospace_axioms(BooleanAlgebra(size), budget=150, seed=9)
        assert report.passed, report.summary()
        assert all(report.checks[ax] >= 150 for ax in report.checks)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_quantum_instances(self, dim):
        report = verify_orthospace_axioms(QuantumAlgebra(dim), budget=120, seed=9)
        assert report.passed, report.summary()
        assert set(report.checks) == {"OS1", "OS2", "OS3", "OS4", "OS5", "OS6"}

    def test_budget_validated(self):
        with pytest.raises(ValidationError, match="budget must be >= 1"):
            verify_orthospace_axioms(BooleanAlgebra(3), budget=0)

    @pytest.mark.parametrize("budget", [2.5, "3", True, None])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(ValidationError,
                           match=f"^budget {re.escape(repr(budget))} is not an integer$"):
            verify_orthospace_axioms(QuantumAlgebra(2), budget=budget)

    def test_numpy_integer_budget_accepted(self):
        report = verify_orthospace_axioms(BooleanAlgebra(3), budget=np.int64(2))
        assert report.passed and report.checks["OS3"] == 2

    def test_seed_must_be_nonnegative(self):
        # Before, a negative seed ended in numpy's "expected non-negative
        # integer" ValueError.
        with pytest.raises(ValidationError, match="^seed must be >= 0$"):
            verify_orthospace_axioms(QuantumAlgebra(2), budget=3, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "3", True, None, [1, 2]])
    def test_seed_must_be_an_integer(self, seed):
        # Before, 1.5 and "3" ended in a TypeError, None ran unseeded,
        # True ran as seed 1 and [1, 2] was taken as a seed sequence.
        with pytest.raises(ValidationError,
                           match=f"^seed {re.escape(repr(seed))} is not an integer$"):
            verify_orthospace_axioms(QuantumAlgebra(2), budget=3, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        report = verify_orthospace_axioms(QuantumAlgebra(3), budget=4, seed=np.uint32(7))
        assert report.checks == verify_orthospace_axioms(QuantumAlgebra(3), budget=4,
                                                         seed=7).checks

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # A negative or NaN tolerance used to fail every check of a valid
        # algebra instead of being refused.
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            verify_orthospace_axioms(QuantumAlgebra(2), budget=3, tol=tol)

    def test_adversarial_rejection(self):
        # A non-idempotent matrix can never enter the lattice, so the
        # harness only ever sees genuine projections.
        alg = QuantumAlgebra(3)
        with pytest.raises(ValidationError):
            alg.event(np.full((3, 3), 0.4))

    def test_report_summary_mentions_counts(self):
        report = verify_orthospace_axioms(BooleanAlgebra(3), budget=25, seed=1)
        text = report.summary()
        assert "OS1" in text and "OS6" in text


@pytest.mark.parametrize("key", sorted(HARNESS_COUNTS))
def test_harness_matches_recorded_counts(key):
    kind, size, seed, budget = re.fullmatch(
        r"(boolean|quantum)(\d+)/seed(\d+)/budget(\d+)", key).groups()
    algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(int(size))
    report = verify_orthospace_axioms(algebra, budget=int(budget), seed=int(seed))
    assert report.checks == HARNESS_COUNTS[key]
    assert report.passed
    assert report.messages == []


class TestStackedHarness:
    """The stacked harness against the harness evaluated pair by pair with
    the public operations (tests/helpers.py)."""

    ALGEBRAS = [("boolean", n) for n in range(1, 10)] + \
        [("quantum", n) for n in (*range(1, 9), 16)]

    @staticmethod
    def assert_same_reports(algebra, seeds, tol):
        for seed in seeds:
            stacked = verify_orthospace_axioms(algebra, 1, seed=seed, tol=tol)
            reference = per_pair_axioms(algebra, 1, seed=seed, tol=tol)
            assert stacked.checks == reference.checks
            assert stacked.failures == reference.failures
            assert stacked.messages == reference.messages

    @pytest.mark.parametrize("tol", [DEFAULT_EVENT_TOL, 0.0, 1e-16, 1e-14, 1e-6])
    @pytest.mark.parametrize("kind, size", ALGEBRAS)
    def test_matches_the_per_pair_reference(self, kind, size, tol):
        # At tol 0 exact orthogonality fails on roundoff, so OS3, OS5 and
        # OS6 fail and the message order is compared too.
        algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(size)
        self.assert_same_reports(algebra, range(8), tol)

    @pytest.mark.parametrize("dim", [*range(1, 7), 8, 16])
    def test_checks_only_exactly_hermitian_stacks(self, dim, monkeypatch):
        # The stacked checks leave out the Hermitian scan, which holds only
        # while every matrix the harness checks equals its adjoint bit for bit.
        checks, seen = orthoprob.events._QUANTUM.checks, []

        def hermitian_only(mats):
            assert np.array_equal(mats, mats.conj().swapaxes(-1, -2))
            seen.append(len(mats))
            return checks(mats)

        monkeypatch.setattr(orthoprob.events._QUANTUM, "checks", hermitian_only)
        for tol in (0.0, 1e-16, 1e-9, 1.0):
            for seed in range(3):
                try:
                    verify_orthospace_axioms(QuantumAlgebra(dim), budget=4, seed=seed,
                                             tol=tol)
                except (NotOrthogonal, ValidationError):
                    pass  # at tol 1 sums of overlapping events are refused
        assert sum(seen) > 0

    @pytest.mark.parametrize("tol", [0.5, 1.0])
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_matches_the_reference_where_sums_fail_their_checks(self, dim, tol):
        # Tolerances this loose call generic pairs orthogonal; their sums
        # then fail the projection checks, which exercises the branches for
        # built events that fail ("sum failed validation", skipped sums).
        self.assert_same_reports(QuantumAlgebra(dim), range(4), tol)

    @staticmethod
    def assert_same_outcome(algebra, reference, budget, seed, tol, monkeypatch):
        """The harness, at its own bounds, at one round per block and at one
        entry per stacked call, gives the reference's report or raises its
        error."""
        for block_bound, call_bound in ((BLOCK_BYTES, CALL_BYTES), (1, CALL_BYTES),
                                        (BLOCK_BYTES, 1)):
            monkeypatch.setattr(orthoprob.events, "_HARNESS_BLOCK_BYTES", block_bound)
            monkeypatch.setattr(orthoprob.linalg, "_CALL_BYTES", call_bound)
            try:
                expected = axiom_report(algebra, reference[:budget], seed)
            except (NotOrthogonal, ValidationError) as exc:
                with pytest.raises(type(exc)) as raised:
                    verify_orthospace_axioms(algebra, budget, seed=seed, tol=tol)
                assert str(raised.value) == str(exc)
                continue
            report = verify_orthospace_axioms(algebra, budget, seed=seed, tol=tol)
            assert (report.checks, report.failures, report.messages) == \
                (expected.checks, expected.failures, expected.messages)

    @pytest.mark.parametrize("kind, size", [("boolean", 3), ("boolean", 6), ("quantum", 2),
                                            ("quantum", 4), ("quantum", 16)])
    def test_matches_the_reference_across_blocks(self, kind, size, monkeypatch):
        # Runs of several blocks, and of one round per block: check counts,
        # round numbers, the order of messages across rounds and the
        # 20-message cap.  At tol 0 the quantum rounds fail from round 0,
        # so 23 rounds reach the cap many blocks before their end.
        algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(size)
        for seed in range(3):
            for tol in (0.0, 1e-16):
                longest = 23 if (seed, tol) == (0, 0.0) else 5
                reference = per_pair_rounds(algebra, longest, seed, tol)
                for budget in sorted({5, longest}):
                    self.assert_same_outcome(algebra, reference, budget, seed, tol,
                                             monkeypatch)

    @pytest.mark.parametrize("tol", [0.5, 1.0])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_the_reference_across_blocks_at_loose_tolerances(self, dim, tol,
                                                                     monkeypatch):
        algebra = QuantumAlgebra(dim)
        reference = per_pair_rounds(algebra, 5, dim, tol)
        self.assert_same_outcome(algebra, reference, 5, dim, tol, monkeypatch)

    @pytest.mark.parametrize("kind, size", [("boolean", 7), ("quantum", 2),
                                            ("quantum", 5), ("quantum", 16)])
    def test_one_pair_residuals_equal_the_table(self, kind, size):
        algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(size)
        kind = algebra._kind
        for seed in range(3):
            d, e, f, g = harness_round(algebra, np.random.default_rng(seed))
            pool = [d, e, f, g, complement(g), algebra.zero(), algebra.one()]
            events = pool + [complement(x) for x in pool]
            a, b = (np.stack([kind.operand(x) for x in xs]) for xs in (pool, events))
            for relation in ("orthogonality", "order", "equality"):
                table = getattr(kind, relation)(a[:, None], b[None])
                for i, x in enumerate(pool):
                    for j, y in enumerate(events):
                        assert _one_pair(relation, x, y)[1] == table[i, j]
            # The one-pair complement and oplus build on the stacked builders'
            # arithmetic: their operands have the bits of the stacks'.
            tops, sums = kind.complement_of(a), kind.sum_of(a[:, None], a[None])
            for i, x in enumerate(pool):
                assert kind.operand(complement(x)).tobytes() == tops[i].tobytes()
                for j, y in enumerate(pool):
                    if orthogonal(x, y):
                        assert kind.operand(oplus(x, y)).tobytes() == sums[i, j].tobytes()

    @pytest.mark.parametrize("rounds", [1, 3, 41])
    @pytest.mark.parametrize("kind, size", [("quantum", n) for n in (1, 2, 3, 4, 5, 6, 16)]
                             + [("boolean", n) for n in (1, 6, 64)])
    def test_a_block_draw_equals_its_rounds_drawn_in_turn(self, kind, size, rounds):
        # A block's unitaries come from one stacked QR; its members must
        # have the bits of rounds drawn one at a time, and the generator
        # must end in the same state.
        algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(size)
        block_rng, round_rng = np.random.default_rng(size), np.random.default_rng(size)
        block = algebra._kind.draw(algebra, block_rng, rounds)
        drawn = np.stack([[algebra._kind.operand(x) for x in harness_round(algebra, round_rng)]
                          for _ in range(rounds)])
        assert (block.shape, block.dtype) == (drawn.shape, drawn.dtype)
        assert block.tobytes() == drawn.tobytes()
        assert block_rng.bit_generator.state == round_rng.bit_generator.state

    @pytest.mark.parametrize("kind, size, budget",
                             [("quantum", n, 100) for n in range(1, 7)]
                             + [("quantum", 16, 4), ("quantum", 64, 2),
                                ("boolean", 6, 300), ("boolean", 64, 60)])
    def test_every_stacked_call_keeps_its_operands_within_the_bound(self, kind, size,
                                                                     budget, monkeypatch):
        # The operands of one stacked call, broadcast, fit the call bound, or
        # the call holds one entry: one event, pair or round; no call holds
        # none.  Each case has a block whose steps must be split to fit.  At
        # dim 64 and budget 2, seed 3 builds remainders (seed 64 builds
        # none), so every method runs.
        algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(size)
        names, called = ("orthogonality", "equality", "complement_of", "sum_of",
                         "difference_of", "checks"), set()

        def bounded(name, method):
            def call(*stacks):
                shape = np.broadcast_shapes(*(stack.shape for stack in stacks))
                nbytes = len(stacks) * int(np.prod(shape)) * stacks[0].itemsize
                assert shape[0] > 0, (name, shape)
                assert nbytes <= CALL_BYTES or shape[0] == 1, (name, shape)
                called.add(name)
                return method(*stacks)
            return call

        for name in names:
            monkeypatch.setattr(algebra._kind, name, bounded(name, getattr(algebra._kind, name)))
        seed = 3 if size == 64 and kind == "quantum" else size
        assert verify_orthospace_axioms(algebra, budget, seed=seed).passed
        assert called == set(names)

    @pytest.mark.parametrize("kind, size, budget, rounds",
                             [("quantum", 2, 3, [3]), ("quantum", 4, 4, [4]),
                              ("quantum", 6, 4, [4]), ("quantum", 16, 4, [4]),
                              ("boolean", 6, 80, [80]), ("quantum", 64, 3, [1, 1, 1]),
                              ("quantum", 2, 400, [160, 160, 80]),
                              ("quantum", 16, 9, [4, 4, 1])])
    def test_block_sizes(self, kind, size, budget, rounds, monkeypatch):
        # The benchmark's algebras at its budgets are one block each, dim 16
        # among them; a dim-64 round is a block of its own, and a block holds
        # 160 rounds at dim 2 and 4 at dim 16.
        algebra = (QuantumAlgebra if kind == "quantum" else BooleanAlgebra)(size)
        blocks, evaluate = [], orthoprob._harness._block_verdicts

        def counted(kind, four, *args):
            blocks.append(len(four))
            return evaluate(kind, four, *args)

        monkeypatch.setattr(orthoprob._harness, "_block_verdicts", counted)
        verify_orthospace_axioms(algebra, budget)
        assert blocks == rounds

    def test_makes_no_per_pair_public_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-pair call from the harness")

        for name in ("orthogonal", "oplus", "complement", "below", "events_equal"):
            monkeypatch.setattr(orthoprob.events, name, forbidden)
        for algebra in (BooleanAlgebra(4), QuantumAlgebra(3)):
            assert verify_orthospace_axioms(algebra, budget=3).passed

    @pytest.mark.parametrize("ranks", [(1,), (2,), (1, 2)])
    def test_matches_the_reference_when_built_events_fail_their_checks(self, ranks,
                                                                       monkeypatch):
        # Built events of the given ranks fail their checks, so sums fail
        # OS2 with their message and a failing oplus(x, x') or complement
        # raises.  Pool events are exempt, as a check fails on the matrix
        # alone: the harness takes x + 0 from the pool where the pairwise
        # evaluation builds and checks it again.
        pool, drawing = [], []
        draw, checks = helpers.harness_round, orthoprob.linalg._projection_checks

        def recorded(algebra, rng):
            drawing.append(True)
            events = draw(algebra, rng)
            drawing.clear()
            eye = np.eye(algebra.dim)
            pool.extend(m for ev in events for m in (ev.matrix, eye - ev.matrix,
                                                      eye - (eye - ev.matrix)))
            return events

        def failing(stack):
            errors, norms, made = checks(stack)
            for i, m in enumerate(stack):
                if (errors[i] is None and not drawing and round(m.trace().real) in ranks
                        and not any(np.abs(m - p).max() < 1e-13 for p in pool)):
                    errors[i] = f"built rank {made[i]} refused"
            return errors, norms, made

        monkeypatch.setattr(helpers, "harness_round", recorded)
        monkeypatch.setattr(orthoprob.linalg, "_projection_checks", failing)
        monkeypatch.setattr(orthoprob.events, "_projection_checks", failing)
        algebra = QuantumAlgebra(4)
        for seed in range(3):
            pool[:] = [np.zeros((4, 4)), np.eye(4)]
            reference = per_pair_rounds(algebra, 4, seed)
            pool[:] = [np.zeros((4, 4)), np.eye(4)]
            rng = np.random.default_rng(seed)
            for _ in range(4):
                recorded(algebra, rng)
            self.assert_same_outcome(algebra, reference, 4, seed, DEFAULT_EVENT_TOL,
                                     monkeypatch)

    def test_one_sided_orthogonality_fails_os2(self, monkeypatch):
        # The pool pair (d, e) of round 0 is orthogonal in one order only.
        # oplus(e, d) raised NotOrthogonal out of the harness; now the sum
        # is an OS2 failure.
        helpers.one_sided_orthogonality(monkeypatch)
        report = verify_orthospace_axioms(QuantumAlgebra(6), budget=5, seed=2)
        assert report.failures["OS1"] == report.failures["OS2"] == 1
        assert "OS2: round 0: sum not defined in both orders" in report.messages

    # The shipped sums are bitwise commutative, since IEEE addition is: x + y
    # and y + x pass or fail their checks together and are equal.  Only an
    # order-dependent sum reaches the last two OS2 wordings.

    def test_an_order_dependent_sum_is_not_commutative(self, monkeypatch):
        monkeypatch.setattr(orthoprob.events._BOOLEAN, "sum_of",
                            lambda a, b: a | b | np.roll(a, 1, axis=-1))
        report = verify_orthospace_axioms(BooleanAlgebra(6), budget=1, seed=0)
        os2 = [m for m in report.messages if m.startswith("OS2")]
        assert report.failures["OS1"] == 0 and report.failures["OS2"] == len(os2) > 0
        assert all(m.endswith(": sum not commutative") for m in os2)

    def test_a_sum_failing_in_the_second_order_only(self, monkeypatch):
        # Members of ranks 3, 2, 1 and 1 in pool order, each orthogonal
        # pair summed wrongly (doubled) when its first operand has the
        # smaller rank and the two do not fill the space: so x + y passes
        # for every pair x before y, and the complement sums x + x' pass.
        kind, n = orthoprob.events._QUANTUM, 6
        members = np.diag([1, 1, 1, 0, 0, 0]), np.diag([0, 0, 0, 1, 1, 0]), \
            np.diag([0, 0, 0, 0, 0, 1]), np.diag([1, 0, 0, 0, 0, 0])
        sum_of = kind.sum_of

        def wrong_in_one_order(a, b):
            ra, rb = (m.trace(axis1=-2, axis2=-1).real for m in (a, b))
            out = sum_of(a, b)
            out[(ra < rb - 0.5) & (ra + rb < n - 0.5)] *= 2.0
            return out

        monkeypatch.setattr(kind, "draw",
                            lambda algebra, rng, rounds: np.array([members] * rounds, complex))
        monkeypatch.setattr(kind, "sum_of", wrong_in_one_order)
        report = verify_orthospace_axioms(QuantumAlgebra(n), budget=1)
        os2 = [m for m in report.messages if m.startswith("OS2")]
        # (d, e), (d, f), (e, f) and (e, g); f + g and g + f have rank 1 each.
        assert report.failures["OS1"] == 0 and report.failures["OS2"] == len(os2) == 4
        assert all(m.startswith("OS2: round 0: sum failed validation: matrix is not "
                                "idempotent") for m in os2)


@pytest.mark.parametrize("dim", range(1, 65))
def test_settled_products_keep_their_arithmetic(dim):
    # orthogonality and probabilities hand their products to _settled,
    # which returns its argument: both must keep the bits of the same
    # arithmetic written out here.
    x = np.ones(3)
    assert _settled(x) is x
    rng = np.random.default_rng(dim)
    algebra, kind = QuantumAlgebra(dim), orthoprob.events._QUANTUM
    a, b = (np.stack([random_projection(dim, r % (dim + 1), rng).matrix for r in range(k)])
            for k in (3, 5))
    assert (kind.orthogonality(a[:, None], b[None]).tobytes()
            == _frobenius_norms(a[:, None] @ b[None]).tobytes())
    stack = np.stack([random_density_matrix(dim, rng) for _ in range(4)])
    e = algebra.event(random_projection(dim, int(rng.integers(1, dim + 1)), rng).matrix)
    products = (stack.reshape(-1, dim) @ e.matrix).reshape(stack.shape)
    assert (kind.probabilities(stack, e.matrix).tobytes()
            == _clamp_probability(products.trace(axis1=-2, axis2=-1).real).tobytes())


class TestStateFamilyOracle:
    """orthogonal and below against the paper's conditional probabilities:
    E _|_ F exactly when P(F | E) = 0 in every state of an informationally
    complete family, and E <= F exactly when P(F | E) = 1 in every one.
    Zero and one are read at the default event tolerance: exact pairs give
    roundoff near 1e-16, and pairs rotated by theta >= 1e-3 give at least
    sin(theta)^2 / (2 rank E) ~ 1e-7."""

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_verdicts_follow_the_family(self, dim):
        algebra = QuantumAlgebra(dim)
        rng = np.random.default_rng(dim)
        for trial in range(4):
            u = random_unitary(dim, rng)
            a = int(rng.integers(1, dim - 1))
            b = int(rng.integers(1, dim - a))
            # E spans the first a columns, F the next b; column a + b lies
            # outside both.
            inside, beside, outside = u[:, :a], u[:, a:a + b], u[:, a + b]
            for theta in (1e-3, 0.3):
                tilted = beside.copy()
                tilted[:, 0] = np.cos(theta) * beside[:, 0] + np.sin(theta) * inside[:, 0]
                leaning = inside.copy()
                leaning[:, 0] = np.cos(theta) * inside[:, 0] + np.sin(theta) * outside
                e = frame_event(algebra, inside)
                cases = [  # (E, F, E _|_ F, E <= F)
                    (e, frame_event(algebra, beside), True, False),
                    (e, frame_event(algebra, tilted), False, False),
                    (e, frame_event(algebra, u[:, :a + b]), False, True),
                    (frame_event(algebra, leaning), frame_event(algebra, u[:, :a + b]),
                     False, False),
                ]
                for given, target, exclusive, contained in cases:
                    p = np.array([prob(condition(rho, given), target)
                                  for rho in state_family(given.matrix / given.rank)])
                    assert orthogonal(given, target) == exclusive
                    assert below(given, target) == contained
                    assert (p.max() <= DEFAULT_EVENT_TOL) == exclusive
                    assert (np.abs(p - 1).max() <= DEFAULT_EVENT_TOL) == contained
