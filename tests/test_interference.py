"""Interference decomposition and the closed two-slit formula."""

import numpy as np
import pytest

from orthoprob.errors import (AlgebraMismatch, DegenerateDenominator, DimensionMismatch,
                              NotAtom, NotOrthogonal,
                              ZeroProbabilityCondition)
from orthoprob.events import BooleanAlgebra, QuantumAlgebra
from orthoprob.interference import interference_decomposition, two_slit
from orthoprob.linalg import StateVector

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
