"""Interference decomposition and the closed two-slit formula."""

import dataclasses

import numpy as np
import pytest

import orthoprob.interference
from orthoprob.errors import (AlgebraMismatch, DegenerateDenominator, DimensionMismatch,
                              NotAtom, NotOrthogonal,
                              ZeroProbabilityCondition)
from orthoprob.events import BooleanAlgebra, QuantumAlgebra, oplus
from orthoprob.interference import InterferenceReport, interference_decomposition, two_slit
from orthoprob.linalg import StateVector, random_unitary
from orthoprob.states import DensityState, condition, prob

from helpers import frame_event

INV_SQRT2 = 1.0 / np.sqrt(2.0)


@pytest.fixture
def slits():
    alg = QuantumAlgebra(3)
    d = alg.event_from_span([np.array([1.0, 1.0, 0.0])])
    e1 = alg.event_from_span([np.array([1.0, 0.0, 0.0])])
    e2 = alg.event_from_span([np.array([0.0, 1.0, 0.0])])
    return alg, d, e1, e2


class TestDecomposition:
    def test_constructive(self, slits):
        alg, d, e1, e2 = slits
        target = alg.event_from_span([np.array([1.0, 1.0, 0.0])])
        report = interference_decomposition(d, e1, e2, target)
        assert report.term1 == pytest.approx(0.25, abs=1e-12)
        assert report.term2 == pytest.approx(0.25, abs=1e-12)
        assert report.cross == pytest.approx(0.5, abs=1e-12)
        assert report.p_total == pytest.approx(1.0, abs=1e-12)

    def test_destructive(self, slits):
        alg, d, e1, e2 = slits
        target = alg.event_from_span([np.array([1.0, -1.0, 0.0])])
        report = interference_decomposition(d, e1, e2, target)
        assert report.term1 == pytest.approx(0.25, abs=1e-12)
        assert report.term2 == pytest.approx(0.25, abs=1e-12)
        assert report.cross == pytest.approx(-0.5, abs=1e-12)
        assert report.p_total == pytest.approx(0.0, abs=1e-12)

    def test_terms_always_sum(self, slits):
        alg, d, e1, e2 = slits
        rng = np.random.default_rng(77)
        for _ in range(40):
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            target = alg.event_from_span([raw])
            report = interference_decomposition(d, e1, e2, target)
            assert report.identity_residual <= 1e-10

    def test_commuting_target_kills_cross(self, slits):
        # F = E1 + E2 commutes with both paths; no interference survives.
        alg, d, e1, e2 = slits
        target = alg.event(np.diag([1.0, 1.0, 0.0]))
        report = interference_decomposition(d, e1, e2, target)
        assert report.cross == pytest.approx(0.0, abs=1e-12)
        assert report.p_total == pytest.approx(report.term1 + report.term2,
                                               abs=1e-12)

    def test_source_must_be_atom(self, slits):
        alg, _, e1, e2 = slits
        fat = alg.event(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(NotAtom):
            interference_decomposition(fat, e1, e2, alg.one())

    def test_boolean_events_are_refused_after_the_atom_check(self):
        die = BooleanAlgebra(6)
        a, b, c = die.event([0]), die.event([1]), die.event([2])
        with pytest.raises(NotAtom):
            interference_decomposition(die.event([0, 1]), b, c, a)
        with pytest.raises(AlgebraMismatch,
                           match="^interference decomposition needs quantum events$"):
            interference_decomposition(a, b, c, a)

    @pytest.mark.parametrize("position", range(4))
    def test_each_operand_is_kind_checked_before_any_work(self, slits, position, monkeypatch):
        # A Boolean operand, or one of another dimension, anywhere among the
        # atom, the two paths and the target is refused before the
        # orthogonality, oplus and conditioning work starts.
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the kind check")

        for name in ("orthogonal", "oplus", "atom_state", "prob", "condition"):
            monkeypatch.setattr(orthoprob.interference, name, forbidden)
        alg, d, e1, e2 = slits
        operands = [d, e1, e2, alg.one()]
        boolean = list(operands)
        boolean[position] = BooleanAlgebra(3).event([0])
        with pytest.raises(AlgebraMismatch,
                           match="^interference decomposition needs quantum events$"):
            interference_decomposition(*boolean)
        wider = list(operands)
        wider[position] = QuantumAlgebra(4).event_from_span([np.array([1.0, 0, 0, 0])])
        dims = (4, 3) if position == 0 else (3, 4)
        with pytest.raises(AlgebraMismatch,
                           match=f"^events have different dimensions: {dims[0]} vs {dims[1]}$"):
            interference_decomposition(*wider)

    def test_paths_must_be_orthogonal(self, slits):
        alg, d, e1, _ = slits
        tilted = alg.event_from_span([np.array([1.0, 1.0, 0.0])])
        with pytest.raises(NotOrthogonal):
            interference_decomposition(d, e1, tilted, alg.one())

    def test_unreachable_paths(self, slits):
        alg, _, e1, e2 = slits
        far = alg.event_from_span([np.array([0.0, 0.0, 1.0])])
        with pytest.raises(ZeroProbabilityCondition):
            interference_decomposition(far, e1, e2, alg.one())

    def test_degenerate_single_path_is_reported(self, slits):
        alg, _, e1, e2 = slits
        source = alg.event_from_span([np.array([1.0, 0.0, 0.0])])
        target = alg.event(np.diag([1.0, 1.0, 0.0]))
        report = interference_decomposition(source, e1, e2, target)
        assert report.degenerate_paths == (2,)
        assert report.term2 == 0.0
        assert report.p_total == pytest.approx(1.0, abs=1e-12)


class TestSorkinOracle:
    """The layer against Sorkin's hierarchy (gr-qc/9401003): with
    p(S) = P(sum S) * P(T | sum S) for a set S of orthogonal paths, quantum
    probability is a quadratic measure, so the third-order interference
    I3 = p(ABC) - p(AB) - p(AC) - p(BC) + p(A) + p(B) + p(C) vanishes while
    the second-order I2 = p(AB) - p(A) - p(B) need not.  p is computed with
    oplus, prob and condition alone, independently of the decomposition."""

    @staticmethod
    def p(rho, paths, target):
        total = paths[0]
        for path in paths[1:]:
            total = oplus(total, path)
        weight = prob(rho, total)
        return weight * prob(condition(rho, total), target)

    @staticmethod
    def setup(dim, rng):
        """A pure source, three orthogonal paths from one Haar frame, the
        frame itself and the source atom."""
        alg = QuantumAlgebra(dim)
        u = random_unitary(dim, rng)
        cuts = np.sort(rng.choice(np.arange(1, dim), size=2, replace=False)) \
            if dim > 3 else np.array([1, 2])
        end = int(rng.integers(cuts[1] + 1, dim + 1))
        paths = [frame_event(alg, u[:, lo:hi])
                 for lo, hi in ((0, cuts[0]), (cuts[0], cuts[1]), (cuts[1], end))]
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return alg, paths, u, DensityState(np.outer(v, v.conj())), alg.event_from_span([v])

    def test_third_order_interference_vanishes(self):
        rng = np.random.default_rng(94010003)
        for trial in range(200):
            dim = (3, 4, 6)[trial % 3]
            alg, (a, b, c), _, rho, atom = self.setup(dim, rng)
            w = random_unitary(dim, rng)
            target = frame_event(alg, w[:, :int(rng.integers(1, dim))])
            p = {name: self.p(rho, paths, target) for name, paths in (
                ("a", [a]), ("b", [b]), ("c", [c]), ("ab", [a, b]), ("ac", [a, c]),
                ("bc", [b, c]), ("abc", [a, b, c]))}
            i3 = (p["abc"] - p["ab"] - p["ac"] - p["bc"] + p["a"] + p["b"] + p["c"])
            assert abs(i3) <= 1e-12
            report = interference_decomposition(atom, a, b, target)
            i2 = p["ab"] - p["a"] - p["b"]
            assert report.cross * report.p_either_path == pytest.approx(i2, abs=1e-12)

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_second_order_interference_vanishes_for_a_commuting_target(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            alg, (a, b, _), u, rho, _ = self.setup(dim, rng)
            # Any span of frame columns commutes with every path.
            columns = rng.permutation(dim)[:int(rng.integers(1, dim))]
            target = frame_event(alg, u[:, columns])
            i2 = self.p(rho, [a, b], target) - self.p(rho, [a], target) \
                - self.p(rho, [b], target)
            assert abs(i2) <= 1e-12


class TestUnitaryCovariance:
    """The oracle of unitary covariance: every report field is a trace of
    products of the four operands, so conjugating all of them by one Haar
    unitary U must leave the report unchanged up to roundoff."""

    @staticmethod
    def frames(dim, rng, degenerate):
        """Orthonormal columns of the atom, both paths and the target.  A
        degenerate atom lies inside path 1, so path 2 has no weight."""
        u = random_unitary(dim, rng)
        k1 = int(rng.integers(1, dim))
        k2 = int(rng.integers(k1 + 1, dim + 1))
        path1, path2 = u[:, :k1], u[:, k1:k2]
        basis = path1 if degenerate else np.eye(dim)
        v = basis @ (rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1]))
        target = random_unitary(dim, rng)[:, :int(rng.integers(1, dim + 1))]
        return [(v / np.linalg.norm(v))[:, None], path1, path2, target]

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_report_is_invariant(self, dim):
        rng = np.random.default_rng(900 + dim)
        alg = QuantumAlgebra(dim)
        for trial in range(30):
            frames = self.frames(dim, rng, degenerate=trial % 5 == 0)
            w = random_unitary(dim, rng)
            want = interference_decomposition(*(frame_event(alg, f) for f in frames))
            got = interference_decomposition(*(frame_event(alg, w @ f) for f in frames))
            assert got.degenerate_paths == want.degenerate_paths == \
                ((2,) if trial % 5 == 0 else ())
            for field in dataclasses.fields(InterferenceReport):
                if field.name != "degenerate_paths":
                    assert abs(getattr(got, field.name) - getattr(want, field.name)) \
                        <= 1e-12, field.name


class TestTwoSlit:
    def test_constructive_peak(self):
        source = StateVector([INV_SQRT2, INV_SQRT2, 0.0])
        s1 = StateVector([1.0, 0.0, 0.0])
        s2 = StateVector([0.0, 1.0, 0.0])
        assert two_slit(source, s1, s2, source) == pytest.approx(1.0, abs=1e-12)

    def test_destructive_null(self):
        source = StateVector([INV_SQRT2, INV_SQRT2, 0.0])
        s1 = StateVector([1.0, 0.0, 0.0])
        s2 = StateVector([0.0, 1.0, 0.0])
        dark = StateVector([INV_SQRT2, -INV_SQRT2, 0.0])
        assert two_slit(source, s1, s2, dark) == pytest.approx(0.0, abs=1e-12)

    def test_matches_decomposition_total(self):
        rng = np.random.default_rng(55)
        alg = QuantumAlgebra(4)
        s1 = StateVector([1.0, 0.0, 0.0, 0.0])
        s2 = StateVector([0.0, 1.0, 0.0, 0.0])
        for _ in range(25):
            raw_s = rng.normal(size=4) + 1j * rng.normal(size=4)
            raw_d = rng.normal(size=4) + 1j * rng.normal(size=4)
            source = StateVector(raw_s / np.linalg.norm(raw_s))
            detector = StateVector(raw_d / np.linalg.norm(raw_d))
            denom = (abs(np.vdot(s1.vector, source.vector)) ** 2
                     + abs(np.vdot(s2.vector, source.vector)) ** 2)
            if denom < 1e-3:
                continue
            closed = two_slit(source, s1, s2, detector)
            report = interference_decomposition(
                alg.event(source.projector().matrix),
                alg.event(s1.projector().matrix),
                alg.event(s2.projector().matrix),
                alg.event(detector.projector().matrix))
            assert closed == pytest.approx(report.p_total, abs=1e-10)

    def test_rejects_overlapping_paths(self):
        source = StateVector([1.0, 0.0])
        with pytest.raises(NotOrthogonal):
            two_slit(source, source, source, source)

    def test_degenerate_denominator(self):
        source = StateVector([0.0, 0.0, 1.0])
        s1 = StateVector([1.0, 0.0, 0.0])
        s2 = StateVector([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateDenominator):
            two_slit(source, s1, s2, source)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            two_slit(StateVector([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]),
                     StateVector([0.0, 1.0, 0.0]), StateVector([1.0, 0.0]))
