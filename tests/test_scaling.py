import numpy as np
import pytest

from fdc import scaling
from fdc.errors import Infeasible
from fdc.scaling import (
    ScalingWeights,
    fixed_point_scaling,
    separation_oracle,
    solve_scaling_sdp,
    weighted_second_moment,
)
from tests.conftest import seeded_points
from tests.reference import brute_force_heavy_subspace, central_cut, recheck_certificate

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
        with pytest.raises(RuntimeError):
            central_cut(cut, np.full(2, 0.5), 0.5 * np.sqrt(2), 0.0, 1.0, 0.1, 1)


class TestSeparationOracle:
    def test_violation_at_ones(self):
        # S = 1.5 I, so the diagonal points have leverage 2/1.5 = 4/3.
        viol = separation_oracle(FOUR_POINTS, ScalingWeights(np.ones(4), 0.0))
        assert viol is not None
        assert viol.point_index in (2, 3)
        assert viol.violation_gap == pytest.approx(1.0 / 3.0, abs=1e-12)
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

    def test_points_short_of_spanning_never_certify(self):
        # n < k: S is singular, even though every S - c^2 x x^T is PSD here.
        gen = np.random.default_rng(3)
        for n, k in ((1, 2), (2, 3), (3, 6), (5, 8)):
            pts = gen.standard_normal((n, k))
            for c in (np.ones(n), np.exp(gen.uniform(0.0, 6.0, size=n))):
                viol = separation_oracle(pts, ScalingWeights(c / c.min(), 0.5))
                assert viol is not None and viol.violation_gap == np.inf
        with pytest.raises(Infeasible):
            solve_scaling_sdp(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]), 1e-3)

    def test_overflowing_moment_never_certifies(self):
        # The first point's true leverage is 3/2, but c^2 x x^T overflows.
        pts = np.array([[1e200, 0.0], [0.0, 1.0], [0.0, 1.0]])
        with np.errstate(over="ignore"):
            viol = separation_oracle(pts, ScalingWeights(np.ones(3), 0.0))
        assert viol is not None and viol.violation_gap == np.inf


def _check_oracle(pts, c_sq, delta, mults=None):
    """The oracle against LAPACK on every constraint matrix S - c^2 x x^T:
    (a) its verdict is the sign of each matrix's least eigenvalue wherever
    the leverage q is not within 1e-6 of 1; (b) it reports the largest q,
    with gap q - 1; (c) its witness w has w^T (S - c^2 x x^T) w < 0."""
    pts = np.asarray(pts, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(c_sq, dtype=np.float64)
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    S = ((k + delta) / m.sum()) * weighted_second_moment(pts, c, m)
    mats = S[None] - c[:, None, None] * np.einsum("ni,nj->nij", pts, pts)
    mins = np.linalg.eigvalsh(mats)[:, 0]
    q = c * np.einsum("ni,in->n", pts, np.linalg.solve(S, pts.T))
    clear = np.abs(q - 1.0) > 1e-6
    np.testing.assert_array_equal(mins[clear] < 0, q[clear] > 1.0)
    viol = separation_oracle(pts, ScalingWeights(c, delta), mults=mults)
    if viol is None:
        assert not np.any(q[clear] > 1.0)
        return None
    assert q.max() > 1.0 - 1e-6
    i = viol.point_index
    assert q[i] >= q.max() * (1.0 - 1e-9)
    assert viol.violation_gap == pytest.approx(q[i] - 1.0, rel=1e-8, abs=1e-8)
    w = viol.witness
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert w @ mats[i] @ w < 0
    return viol


class TestSecularOracle:
    """Geometries that stress an eigenvalue route (points on eigenvectors of
    S, repeated eigenvalues), checked against LAPACK."""

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
        assert _check_oracle(FOUR_POINTS, np.ones(4), 0.0) is not None
        assert _check_oracle(FOUR_POINTS, HAND_SOLUTION, 0.01) is None
        cube = np.array([[s0, s1, s2] for s0 in (-1.0, 1.0) for s1 in (-1.0, 1.0)
                         for s2 in (-1.0, 1.0)])
        pts = np.vstack([cube, np.eye(3)])
        _check_oracle(pts, np.ones(11), 0.0)
        _check_oracle(pts, np.r_[np.ones(8), 30.0 * np.ones(3)], 0.0)

    def test_one_dimensional(self):
        pts = np.array([[2.0], [-1.0], [5.0]])
        assert _check_oracle(pts, [1.0, 1.0, 1.0], 0.0) is not None
        assert _check_oracle(pts, [6.25, 25.0, 1.0], 0.0) is None

    def test_random_instances_match_lapack(self):
        gen = np.random.default_rng(5)
        for _ in range(40):
            k = int(gen.integers(1, 9))
            n = int(gen.integers(k, 30))
            pts = gen.standard_normal((n, k)) * 10.0 ** gen.uniform(-3, 3, size=(n, 1))
            c = np.exp(gen.uniform(0.0, 12.0, size=n))
            _check_oracle(pts, c / c.min(), float(gen.choice([0.0, 1e-3, 0.5])))

    def test_fixed_point_iterates_match_lapack(self):
        # Near-feasible candidates: the fixed point's iterates approach the
        # boundary q = 1 from both sides.
        gen = np.random.default_rng(11)
        checked = 0
        for _ in range(16):
            k = int(gen.integers(2, 7))
            n = int(gen.integers(k + 1, 40))
            pts = gen.standard_normal((n, k))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            m = gen.integers(1, 4, size=n).astype(np.float64)
            delta = float(gen.choice([0.0, 1e-9, 1e-3]))
            for c in fixed_point_iterates(pts, delta, 400, m):
                _check_oracle(pts, c, delta, mults=m)
                checked += 1
        assert checked > 100


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
            if rel < 1e-13 or separation_oracle(unit, cand, mults=m) is None:
                return


class TestSolve:
    def test_hand_solution_within_one_percent(self):
        w = solve_scaling_sdp(FOUR_POINTS, 1e-3)
        np.testing.assert_allclose(w.c_sq / w.c_sq.min(), HAND_SOLUTION, rtol=0.01)

    def test_single_point(self):
        w = solve_scaling_sdp(np.array([[5.0]]), 1e-3)
        np.testing.assert_array_equal(w.c_sq, [1.0])

    def test_one_dimensional_weights_certified(self):
        # Unit weights on the unit rows are weights 1/x^2 on the points: the
        # fixed point certifies them at its first check.
        X = np.array([[1.0], [-2.0], [4.0]])
        w = solve_scaling_sdp(X, 1e-3)
        np.testing.assert_array_equal(w.c_sq, [16.0, 4.0, 1.0])
        assert recheck_certificate(X, w)[0]

    def test_heavy_raises_infeasible(self):
        with pytest.raises(Infeasible):
            solve_scaling_sdp(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 1e-3)
        with pytest.raises(Infeasible):
            solve_scaling_sdp(np.array([[1.0, 2.0]]), 1e-3)

    def test_newton_fallback_certifies(self):
        w = scaling._newton_scaling(FOUR_POINTS, 0.05, np.ones(4))
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
        from fdc.transform import weighted_qr_transform

        A1 = weighted_qr_transform(FOUR_POINTS, w1.c_sq, np.ones(4))
        A2 = weighted_qr_transform(2.0 * FOUR_POINTS, w2.c_sq, np.ones(4))
        np.testing.assert_allclose(A2, 0.5 * A1, rtol=1e-8)

    def test_newton_certifies_when_no_heavy_subspace(self):
        # d <= 3, n <= 8: whenever the brute-force oracle says no heavy
        # subspace exists, the Newton path must certify within budget
        certified = 0
        for seed in range(40):
            pts = seeded_points(3, 4 + seed % 5, 2, seed)
            if brute_force_heavy_subspace(pts).found:
                continue
            w = scaling._newton_scaling(pts.astype(np.float64), 1e-3, np.ones(len(pts)))
            ok, _, _ = recheck_certificate(pts.astype(np.float64), w)
            assert ok
            certified += 1
            if certified >= 6:
                break
        assert certified >= 4

    def test_newton_certifies_fifty_thousand_rows(self):
        # The fallback never forms a nu x nu array, so it runs at any nu.
        X = np.random.default_rng(1).standard_normal((50_000, 3))
        w = scaling._newton_scaling(X, 1e-3, np.ones(len(X)))
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
