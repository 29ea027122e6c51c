import numpy as np
import pytest

from fdc.errors import Infeasible, IterationBudgetExceeded
from fdc.scaling import (
    ScalingWeights,
    central_cut,
    fixed_point_scaling,
    recheck_certificate,
    separation_oracle,
    solve_scaling_sdp,
    weighted_second_moment,
)
from tests.conftest import seeded_points

FOUR_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
HAND_SOLUTION = np.array([2.0, 2.0, 1.0, 1.0])  # closed-form by symmetry


class TestCentralCut:
    @staticmethod
    def _halfplanes(lo0, hi0, hi1):
        """Cut oracle for {x0 >= lo0, x0 <= hi0, x1 <= hi1}."""
        def cut(c):
            for i, sign, bound in ((0, -1.0, -lo0), (0, 1.0, hi0), (1, 1.0, hi1)):
                if sign * c[i] > bound:
                    return sign * np.eye(2)[i]
            return None
        return cut

    def test_feasible_box_returns_a_center_inside_it(self):
        cut = self._halfplanes(0.6, 1.0, 0.3)   # the box [0.6, 1] x [0, 0.3]
        c = central_cut(cut, np.full(2, 0.5), 0.5 * np.sqrt(2), 0.0, 1.0, 0.1, 1000)
        assert c is not None
        assert 0.6 <= c[0] <= 1.0 and 0.0 <= c[1] <= 0.3

    def test_empty_region_returns_none(self):
        cut = self._halfplanes(0.6, 0.4, 1.0)   # x0 >= 0.6 and x0 <= 0.4
        # Every cut is along x0, so the slab verdict comes within 12 steps,
        # well before the volume verdict would.
        assert central_cut(cut, np.full(2, 0.5), 0.5 * np.sqrt(2), 0.0, 1.0, 0.1,
                           12) is None

    def test_budget_exhausted_raises(self):
        cut = self._halfplanes(0.6, 1.0, 0.3)
        with pytest.raises(IterationBudgetExceeded):
            central_cut(cut, np.full(2, 0.5), 0.5 * np.sqrt(2), 0.0, 1.0, 0.1, 1)


class TestSeparationOracle:
    def test_violation_at_ones(self):
        viol = separation_oracle(FOUR_POINTS, ScalingWeights(np.ones(4), 0.0), tau=1e-12)
        assert viol is not None
        assert viol.point_index in (2, 3)
        assert viol.violation_gap == pytest.approx(0.5, abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        expect = np.array([s, s]) if viol.point_index == 2 else np.array([s, -s])
        assert min(np.abs(viol.witness - expect).max(),
                   np.abs(viol.witness + expect).max()) < 1e-12

    def test_hand_solution_certified(self):
        assert separation_oracle(FOUR_POINTS, ScalingWeights(HAND_SOLUTION, 0.01)) is None

    def test_one_dimensional_always_satisfied(self):
        assert separation_oracle(np.array([[5.0]]), ScalingWeights(np.array([3.0]), 0.0)) is None

    def test_heavy_instance_never_certifies(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for c in (np.ones(3), np.array([1.0, 1.0, 100.0]), np.array([1e6, 1e6, 1.0])):
            assert separation_oracle(pts, ScalingWeights(c, 1e-3)) is not None


class TestFixedPoint:
    def test_four_point_converges_fast(self):
        w = fixed_point_scaling(FOUR_POINTS, 1e-3, max_iters=50)
        assert w is not None
        np.testing.assert_allclose(w.c_sq, HAND_SOLUTION, rtol=0.01)

    def test_single_point(self):
        w = fixed_point_scaling(np.array([[7.0]]), 1e-3, max_iters=5)
        assert w is not None and w.c_sq[0] == pytest.approx(1.0)

    def test_heavy_input_returns_none(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert fixed_point_scaling(pts, 1e-3, max_iters=800) is None


class TestSolve:
    def test_hand_solution_within_one_percent(self):
        w = solve_scaling_sdp(FOUR_POINTS, 1e-3)
        np.testing.assert_allclose(w.c_sq / w.c_sq.min(), HAND_SOLUTION, rtol=0.01)

    def test_single_point(self):
        w = solve_scaling_sdp(np.array([[5.0]]), 1e-3)
        np.testing.assert_allclose(w.c_sq, [1.0])

    def test_heavy_raises_infeasible(self):
        with pytest.raises(Infeasible):
            solve_scaling_sdp(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 1e-3,
                              fp_budget=200)

    def test_ellipsoid_fallback_certifies(self):
        # fp_budget=0 silences the accelerator so the ellipsoid path runs
        w = solve_scaling_sdp(FOUR_POINTS, 0.05, fp_budget=0)
        ok, worst, thr = recheck_certificate(FOUR_POINTS, w)
        assert ok
        np.testing.assert_allclose(w.c_sq / w.c_sq.min(), HAND_SOLUTION, rtol=0.15)

    def test_certificates_on_random_instances(self):
        solved = 0
        for seed in range(25):
            pts = seeded_points(3, 7, 8, seed).astype(np.float64)
            try:
                w = solve_scaling_sdp(pts, 1e-3)
            except Infeasible:
                continue
            ok, worst, thr = recheck_certificate(pts, w)
            assert ok, f"seed {seed}: {worst} < {thr}"
            assert w.c_sq.min() >= 1.0 - 1e-9
            solved += 1
        assert solved >= 15

    def test_scale_equivariance(self):
        w1 = solve_scaling_sdp(FOUR_POINTS, 1e-3)
        w2 = solve_scaling_sdp(2.0 * FOUR_POINTS, 1e-3)
        # min-normalized weights agree; the transform shrinks by the scale
        np.testing.assert_allclose(w1.c_sq, w2.c_sq, rtol=1e-9)
        ok, _, _ = recheck_certificate(2.0 * FOUR_POINTS, w2)
        assert ok
        s1 = weighted_second_moment(FOUR_POINTS, w1.c_sq) / 4.0
        s2 = weighted_second_moment(2.0 * FOUR_POINTS, w2.c_sq) / 4.0
        from fdc.linalg import inv_sqrt_psd

        A1 = inv_sqrt_psd(s1, 1e-12)
        A2 = inv_sqrt_psd(s2, 1e-12)
        np.testing.assert_allclose(A2, 0.5 * A1, rtol=1e-8)

    def test_ellipsoid_certifies_when_no_heavy_subspace(self):
        # d <= 3, n <= 8: whenever the brute-force oracle says no heavy
        # subspace exists, the ellipsoid path must certify within budget
        from fdc.harness import brute_force_heavy_subspace

        certified = 0
        for seed in range(40):
            pts = seeded_points(3, 4 + seed % 5, 2, seed)
            if brute_force_heavy_subspace(pts).found:
                continue
            w = solve_scaling_sdp(pts.astype(np.float64), 1e-3, fp_budget=0)
            ok, _, _ = recheck_certificate(pts.astype(np.float64), w)
            assert ok
            certified += 1
            if certified >= 6:
                break
        assert certified >= 4

    def test_weights_magnitude_bound(self):
        for seed in range(8):
            pts = seeded_points(2, 6, 16, seed).astype(np.float64)
            try:
                w = solve_scaling_sdp(pts, 1e-3)
            except Infeasible:
                continue
            n, b, k = 6, 5, 2
            assert np.all(w.c_sq >= 1.0 - 1e-9)
            assert np.all(w.c_sq <= float(n) ** (8 * b * k))
