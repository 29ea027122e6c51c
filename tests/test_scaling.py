import numpy as np
import pytest

from fdc import scaling
from fdc.errors import Infeasible, IterationBudgetExceeded
from fdc.harness import central_cut
from fdc.linalg import jacobi_eigh
from fdc.scaling import (
    ScalingWeights,
    _secular_min,
    _surely_violated,
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


def _check_oracle(pts, c_sq, delta, tau=None):
    """The oracle against LAPACK on every constraint matrix: the worst point,
    its least eigenvalue (within 1e-13 of the matrix's scale) and a witness
    that really violates it; None only when nothing is violated."""
    pts = np.asarray(pts, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(c_sq, dtype=np.float64)
    scaled = ((k + delta) / n) * weighted_second_moment(pts, c)
    mats = scaled[None] - c[:, None, None] * np.einsum("ni,nj->nij", pts, pts)
    mins = np.linalg.eigvalsh(mats)[:, 0]
    scale = np.trace(scaled) + c * np.einsum("ni,ni->n", pts, pts)
    slack = 1e-12 * scale if tau is None else np.full(n, tau)
    viol = separation_oracle(pts, ScalingWeights(c, delta), tau=tau)
    rel = mins + slack
    if viol is None:
        assert rel.min() >= -1e-13 * scale.max()
        return None
    i = viol.point_index
    assert rel[i] <= rel.min() + 1e-13 * scale.max()
    assert abs(-viol.violation_gap - mins[i]) <= 1e-13 * scale[i]
    w = viol.witness
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert w @ mats[i] @ w < 0
    # The witness is a least eigenvector: its Rayleigh quotient is mins[i].
    assert abs(w @ mats[i] @ w - mins[i]) <= 1e-12 * scale[i]
    # Every point's least eigenvalue, not only the worst one's.
    lam, Q = jacobi_eigh(scaled)
    z = pts @ Q
    every = _secular_min(lam, c[:, None] * z * z)[0]
    np.testing.assert_array_less(np.abs(every - mins), 1e-13 * scale)
    return viol


class TestSecularOracle:
    def test_deflated_axis_points(self):
        # S is diagonal with distinct eigenvalues; every point lies on an
        # eigenvector, so all but one z_j vanish.
        pts = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0],
                        [0.0, 5.0, 0.0]])
        viol = _check_oracle(pts, [1.0, 4.0, 1.0, 1.0], 0.0)
        assert viol is not None

    def test_point_orthogonal_to_an_eigenvector(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0],
                        [1.0, 1.0, 0.0]])
        for c in ([1.0, 1.0, 1.0, 1.0], [1.0, 9.0, 2.0, 30.0], [50.0, 1.0, 1.0, 1.0]):
            _check_oracle(pts, c, 1e-3)

    def test_repeated_eigenvalues(self):
        # S is a multiple of I: one eigenvalue of multiplicity k.
        assert _check_oracle(FOUR_POINTS, np.ones(4), 0.0, tau=1e-12) is not None
        assert _check_oracle(FOUR_POINTS, HAND_SOLUTION, 0.01) is None
        cube = np.array([[s0, s1, s2] for s0 in (-1.0, 1.0) for s1 in (-1.0, 1.0)
                         for s2 in (-1.0, 1.0)])
        pts = np.vstack([cube, np.eye(3)])
        _check_oracle(pts, np.ones(11), 0.0)
        _check_oracle(pts, np.r_[np.ones(8), 30.0 * np.ones(3)], 0.0)

    def test_one_dimensional(self):
        pts = np.array([[2.0], [-1.0], [5.0]])
        assert _check_oracle(pts, [1.0, 1.0, 1.0], 0.0) is not None
        assert _check_oracle(pts, [1.0, 1.0, 1.0], 0.0, tau=100.0) is None

    def test_explicit_tau(self):
        pts = seeded_points(4, 9, 6, 2).astype(np.float64)
        c = np.exp(np.linspace(0.0, 4.0, 9))
        viol = _check_oracle(pts, c, 1e-3, tau=0.0)
        assert viol is not None
        # A threshold just past the worst violation certifies the same weights.
        assert _check_oracle(pts, c, 1e-3, tau=viol.violation_gap * (1 + 1e-9) + 1e-300) is None

    def test_random_instances_match_lapack(self):
        gen = np.random.default_rng(5)
        for _ in range(40):
            k = int(gen.integers(1, 9))
            n = int(gen.integers(1, 30))
            pts = gen.standard_normal((n, k)) * 10.0 ** gen.uniform(-3, 3, size=(n, 1))
            c = np.exp(gen.uniform(0.0, 12.0, size=n))
            _check_oracle(pts, c / c.min(), float(gen.choice([0.0, 1e-3, 0.5])))


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


FIBONACCI = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}


def fixed_point_iterates(points, delta, max_iters, m):
    """The weights ``fixed_point_scaling`` holds after steps 1, 2, 3, 5, 8, ...
    and after step ``max_iters``: a copy of its loop that stops where it
    stops (the weights before a failed Cholesky are yielded too)."""
    unit, _ = scaling._unit_rows(points)
    n, k = unit.shape
    c = np.ones(n)
    last_check = -10
    for t in range(1, max_iters + 1):
        sigma = weighted_second_moment(unit, c, m) / m.sum()
        try:
            L = np.linalg.cholesky(sigma + 1e-30 * max(np.trace(sigma), 1e-300) * np.eye(k))
        except np.linalg.LinAlgError:
            yield c.copy()
            return
        sol = np.linalg.solve(L, unit.T)
        quads = np.einsum("kn,kn->n", sol, sol)
        if not np.all(quads > 0):
            return
        c_new = 1.0 / quads
        c_new = c_new / c_new.min()
        rel = np.max(np.abs(c_new - c) / np.maximum(c, 1e-300))
        c = c_new
        if t in FIBONACCI or t == max_iters:
            yield c.copy()
        if c.max() > scaling.WEIGHT_RANGE_CAP:
            return
        if rel < 1e-7 or t - last_check >= 10 or t == max_iters:
            last_check = t
            cand = ScalingWeights(c / c.min(), delta)
            if rel < 1e-13 or (not _surely_violated(unit, cand, m)
                               and separation_oracle(unit, cand, mults=m) is None):
                return


class TestPreRejection:
    """``_surely_violated`` may only claim a violation the oracle reports too.

    Near-feasible candidates stress it: fixed-point iterates, certified
    weights scaled pointwise by 1 +- eps, and certified weights with one
    point's weight raised to the oracle's own decision boundary, where only
    the pre-rejection's margin keeps the two from disagreeing.
    """

    @staticmethod
    def _boundary(pts, m, w, i):
        def raised(e):
            c = w.c_sq.copy()
            c[i] *= 1.0 + e
            return ScalingWeights(c, w.delta)

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if separation_oracle(pts, raised(mid), mults=m) is None:
                lo = mid
            else:
                hi = mid
        return [raised(e) for e in np.linspace(lo, hi, 5)]

    def _candidates(self):
        gen = np.random.default_rng(11)
        for _ in range(16):
            k = int(gen.integers(2, 7))
            n = int(gen.integers(k + 1, 40))
            pts = gen.standard_normal((n, k))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            m = gen.integers(1, 4, size=n).astype(np.float64)
            delta = float(gen.choice([0.0, 1e-9, 1e-3]))
            for c in fixed_point_iterates(pts, delta, 400, m):
                yield pts, m, ScalingWeights(c, delta)
            w = fixed_point_scaling(pts, delta, max_iters=400, mults=m)
            if w is None:
                continue
            for eps in (1e-9, 1e-12):
                c = w.c_sq * (1.0 + eps * gen.uniform(-1.0, 1.0, size=n))
                yield pts, m, ScalingWeights(c / c.min(), delta)
            for i in gen.choice(n, size=2, replace=False):
                for cand in self._boundary(pts, m, w, i):
                    yield pts, m, cand

    def test_never_rejects_what_the_oracle_accepts(self):
        fired = 0
        for pts, m, cand in self._candidates():
            if _surely_violated(pts, cand, m):
                fired += 1
                assert separation_oracle(pts, cand, mults=m) is not None
        assert fired > 100  # the test is not vacuous

    def test_fixed_point_output_unchanged(self, monkeypatch):
        def weights():
            out = []
            for seed in range(4):
                pts = seeded_points(5, 40, 30, seed=seed).astype(np.float64)
                w = fixed_point_scaling(pts, 1e-3, max_iters=800)
                assert w is not None
                out.append(w.c_sq.tobytes())
            return out

        with_skips = weights()
        monkeypatch.setattr(scaling, "_surely_violated", lambda *a: False)
        assert weights() == with_skips


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

    def test_newton_fallback_certifies(self):
        # fp_budget=0 silences the accelerator so the Newton path runs
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

    def test_newton_certifies_when_no_heavy_subspace(self):
        # d <= 3, n <= 8: whenever the brute-force oracle says no heavy
        # subspace exists, the Newton path must certify within budget
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

    def test_newton_certifies_fifty_thousand_rows(self):
        # The fallback never forms a nu x nu array, so it runs at any nu.
        X = np.random.default_rng(1).standard_normal((50_000, 3))
        w = solve_scaling_sdp(X, 1e-3, fp_budget=0)
        assert recheck_certificate(X, w)[0]

    def test_newton_gives_up_on_heavy_input(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        assert scaling._newton_scaling(pts, 1e-3, np.ones(4)) is None

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
