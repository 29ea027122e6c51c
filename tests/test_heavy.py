from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fdc.errors import RankDeficient
from fdc.exact import directions, exact_rank
from fdc.harness import (
    brute_force_heavy_subspace,
    extract_subspace,
    lp_feasible,
    lp_heavy_subspace,
    max_weight_basis,
    pair_swap_search,
)
from fdc import heavy, scaling
from fdc.heavy import _certify_no_strict, _enumerate_flats, find_heavy_subspace
from fdc.linalg import jacobi_eigh, span_of
from tests.conftest import seeded_points


def independent_subsets(pts, k):
    """All index k-subsets that are linearly independent (exact)."""
    out = []
    for comb in combinations(range(len(pts)), k):
        if exact_rank([tuple(pts[i]) for i in comb]) == k:
            out.append(comb)
    return out


class TestMaxWeightBasis:
    def test_example_weights(self):
        pts = np.array([[1, 0], [2, 0], [0, 1]])
        got = max_weight_basis(pts, 2, [0.9, 0.8, 0.1])
        assert got == [0, 2]
        # derived oracle: exhaustive over all independent pairs
        v = np.array([0.9, 0.8, 0.1])
        best = max(independent_subsets(pts, 2), key=lambda c: v[list(c)].sum())
        assert v[list(best)].sum() == pytest.approx(v[got].sum()) == pytest.approx(1.0)

    def test_ties_lexicographic_prefix(self):
        pts = np.array([[1, 0], [2, 0], [0, 1], [1, 1]])
        assert max_weight_basis(pts, 2, [0.5, 0.5, 0.5, 0.5]) == [0, 2]

    def test_dim_one(self):
        assert max_weight_basis(np.array([[5]]), 1, [1.0]) == [0]

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            max_weight_basis(np.array([[1, 0], [2, 0]]), 2, [1.0, 0.5])

    def test_matches_exhaustive_on_random(self):
        for seed in range(25):
            pts = seeded_points(3, 7, 3, seed)
            k = exact_rank([tuple(r) for r in pts])
            v = np.round(np.linspace(0.9, 0.1, 7), 3)
            got = max_weight_basis(pts, k, v)
            best = max(independent_subsets(pts, k), key=lambda c: (v[list(c)].sum(),))
            assert v[got].sum() == pytest.approx(v[list(best)].sum())


def check_feasible_against_all_bases(pts, k, v):
    """Direct check of the basis-threshold inequality over every basis."""
    n = len(pts)
    worst = min(
        v.sum() - (n / k) * v[list(c)].sum() - 1.0
        for c in independent_subsets(pts, k)
    )
    return worst


class TestLpFeasible:
    def test_two_two_split_infeasible(self):
        assert lp_feasible(np.array([[1, 0], [1, 0], [0, 1], [0, 1]]), 2) is None

    def test_three_one_split_feasible(self):
        pts = np.array([[1, 0], [1, 0], [1, 0], [0, 1]])
        v = lp_feasible(pts, 2)
        assert v is not None
        # accepted with slack >= -1/(4N) against every basis
        assert check_feasible_against_all_bases(pts, 2, v) >= -1.0 / (4 * 4)

    def test_all_independent_infeasible(self):
        assert lp_feasible(np.array([[1, 0], [0, 1]]), 2) is None

    def test_requires_multiple_of_k(self):
        with pytest.raises(ValueError):
            lp_feasible(np.array([[1, 0], [1, 0], [0, 1]]), 2)


class TestExtractSubspace:
    def test_continuation_of_feasible_example(self):
        pts = np.array([[1, 0], [1, 0], [1, 0], [0, 1]])
        v = lp_feasible(pts, 2)
        res = extract_subspace(pts, 2, v)
        assert res.found and res.subspace.dim == 1
        assert res.member_indices == [0, 1, 2]

    def test_binary_certificate(self):
        # ones exactly on a 1-dim subspace holding (n/k)*kappa + 1 = 3 points
        pts = np.array([[2, 0], [1, 0], [3, 0], [0, 1]])
        res = extract_subspace(pts, 2, np.array([1.0, 1.0, 1.0, 0.0]))
        assert res.subspace.dim == 1 and res.member_indices == [0, 1, 2]

    def test_perturbed_vector_same_subspace(self):
        pts = np.array([[1, 0], [1, 0], [1, 0], [0, 1]])
        res = extract_subspace(pts, 2, np.array([1.0, 0.97, 0.99, 1.0 / 32]))
        assert res.subspace.dim == 1 and res.member_indices == [0, 1, 2]


class TestFindHeavySubspace:
    def test_two_one_line(self):
        r = find_heavy_subspace(np.array([[1, 0], [1, 0], [0, 1]]))
        assert r.found and r.subspace.dim == 1 and r.member_indices == [0, 1]

    def test_general_position_not_found(self):
        assert not find_heavy_subspace(np.array([[1, 0], [0, 1], [1, 1]])).found

    def test_equality_case_basis(self):
        r = find_heavy_subspace(np.array([[1, 0], [0, 1]]))
        assert r.found and r.subspace.dim == 1 and r.member_indices == [0]

    def test_count_inequality_exact(self):
        for seed in range(40):
            pts = seeded_points(3, 9, 2, seed)
            r = find_heavy_subspace(pts)
            if r.found:
                k = exact_rank([tuple(x) for x in pts])
                assert len(r.member_indices) * k >= r.subspace.dim * len(pts)
                assert r.subspace.dim < k

    def test_lp_engine_matches_auto(self):
        for seed in range(25):
            pts = seeded_points(3, 6, 2, seed)
            if exact_rank([tuple(x) for x in pts]) < 3:
                continue
            auto = find_heavy_subspace(pts)
            lp = lp_heavy_subspace(pts)
            assert auto.found == lp.found

    def test_matches_brute_force(self):
        for seed in range(60):
            pts = seeded_points(3, 8, 2, seed)
            auto = find_heavy_subspace(pts)
            brute = brute_force_heavy_subspace(pts)
            assert auto.found == brute.found
            if auto.found:
                assert sorted(auto.member_indices) == sorted(brute.member_indices)

    def test_span_deficient_returns_span(self):
        from fdc.linalg import full_space

        pts = np.array([[1, 0, 0], [2, 0, 0], [1, 1, 0]])
        r = find_heavy_subspace(pts, V=full_space(3))
        assert r.found and r.subspace.dim == 2 and r.member_indices == [0, 1, 2]

    def test_invariance_under_scaling_and_unimodular(self):
        T = np.array([[2, 3, 1], [1, 2, 1], [0, 1, 1]])  # det = 2... use unimodular below
        T = np.array([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
        for seed in range(25):
            pts = seeded_points(3, 8, 2, seed)
            base = find_heavy_subspace(pts)
            scales = (seeded_points(1, 8, 2, seed + 1000)[:, 0] % 3 + 1).astype(np.int64)
            r_scaled = find_heavy_subspace(pts * scales[:, None])
            r_mapped = find_heavy_subspace(pts @ T.T)
            assert base.found == r_scaled.found == r_mapped.found
            if base.found:
                assert base.member_indices == r_scaled.member_indices == r_mapped.member_indices


class TestPairSwap:
    def test_equality_found(self):
        r = pair_swap_search(np.array([[1, 0], [0, 1]]), 2)
        assert r.found and r.member_indices == [0]

    def test_nothing_found(self):
        assert not pair_swap_search(np.array([[1, 0], [0, 1], [1, 1]]), 2).found

    def test_two_two_split(self):
        r = pair_swap_search(np.array([[1, 0], [1, 0], [0, 1], [0, 1]]), 2)
        assert r.found and r.member_indices == [0, 1]

    def test_agrees_with_auto_engine(self):
        for seed in range(15):
            pts = seeded_points(2, 4, 2, seed)
            if exact_rank([tuple(x) for x in pts]) < 2:
                continue
            auto = find_heavy_subspace(pts)
            lp_full = lp_heavy_subspace(pts)
            assert auto.found == lp_full.found


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(v)) for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_force_flats(dirs, mult, k):
    """{(excess, dim, mask bytes)} over the flats of all independent
    subsets of at most k - 1 directions."""
    M = int(mult.sum())
    out = set()
    for size in range(1, k):
        for comb in combinations(range(len(dirs)), size):
            sub = [dirs[i] for i in comb]
            if fraction_rank(sub) < size:
                continue
            mask = np.array([fraction_rank(sub + [x]) == size for x in dirs])
            out.add((k * int(mult[mask].sum()) - M * size, size, mask.tobytes()))
    return out


def general_points(gen, d, n):
    X = gen.integers(-9, 10, size=(n, d))
    X[~X.any(axis=1), 0] = 1
    return X


def nested_points(gen, d, n):
    frame = gen.integers(-3, 4, size=(d, d))
    while fraction_rank(frame) < d:
        frame = gen.integers(-3, 4, size=(d, d))
    parts, level = [], 1
    while n > 0:
        cnt = max(n // 2, 1) if level < d else n
        parts.append(gen.integers(-5, 6, size=(cnt, level)) @ frame[:level])
        n -= cnt
        level += 1
    X = np.vstack(parts)
    X[~X.any(axis=1), 0] = 1
    return X


def cluster_points(gen, d, n):
    X = gen.integers(-5, 6, size=(n, d))
    X[~X.any(axis=1), 0] = 1
    X[:n // 3] = X[0] * np.arange(1, n // 3 + 1)[:, None]
    return X


def planted_points(gen, d, n):
    X = gen.integers(-5, 6, size=(n, d))
    X[:n // 2, 2:] = 0
    X[~X.any(axis=1), 0] = 1
    return X


class TestEnumerateFlats:
    @pytest.mark.parametrize("family", [nested_points, cluster_points, planted_points])
    def test_each_flat_once_and_all_of_them(self, family):
        gen = np.random.default_rng(7)
        for d, n in ((3, 9), (4, 12), (4, 14)):
            X = family(gen, d, n)
            dirs, mult, _ = directions(X)
            k = fraction_rank(dirs)
            flats = _enumerate_flats(dirs, mult, k)
            keys = [(e, dim, mask.tobytes()) for e, dim, mask in flats]
            assert len({key[2] for key in keys}) == len(keys)
            assert set(keys) == brute_force_flats(dirs, mult, k)


def replayed_certify(coords, mult, budgets):
    """The certificate loop run under every budget in turn, whatever the
    previous run did: (proven, snapshots)."""
    M = float(mult.sum())
    snapshots = []
    for budget in budgets:
        w = scaling.fixed_point_scaling(
            coords, 1.0 / (8.0 * M), max_iters=budget, mults=mult,
            snapshot_hook=lambda *snap: snapshots.append(snap))
        if w is None:
            continue
        lam_min = float(jacobi_eigh(scaling.weighted_second_moment(coords, w.c_sq, mult))[0][-1])
        if lam_min > 0 and scaling.separation_oracle(
                coords, w, mults=mult, tau=lam_min / (8.0 * M * M)) is None:
            return True, snapshots
    return False, snapshots


def frames(snapshots):
    return {(t, c.tobytes(), sigma.tobytes()) for t, c, sigma in snapshots}


class TestCertifyBudgets:
    @staticmethod
    def _instance(X):
        dirs, mult, _ = directions(X)
        return dirs.astype(np.float64) @ span_of(X).basis, mult, span_of(X).dim

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        inner = scaling.fixed_point_scaling

        def counting(*args, **kwargs):
            calls.append(kwargs["max_iters"])
            return inner(*args, **kwargs)

        monkeypatch.setattr(scaling, "fixed_point_scaling", counting)
        return calls

    @pytest.mark.parametrize("family", [general_points, planted_points, cluster_points,
                                        nested_points])
    def test_run_ending_early_is_not_replayed(self, monkeypatch, family):
        X = family(np.random.default_rng(3), 5, 40)
        coords, mult, k = self._instance(X)
        want = replayed_certify(coords, mult, heavy.CERT_BUDGETS)
        calls = self._counted(monkeypatch)
        proven, snaps = _certify_no_strict(coords, mult, k)
        assert calls == [heavy.CERT_BUDGETS[0]]
        assert snaps[-1][0] < heavy.CERT_BUDGETS[0]
        assert proven == want[0]
        assert frames(snaps) == frames(want[1])

    def test_exhausted_run_escalates(self, monkeypatch):
        X = general_points(np.random.default_rng(3), 5, 30)
        coords, mult, k = self._instance(X)
        budgets = (2, 4, 8)
        monkeypatch.setattr(heavy, "CERT_BUDGETS", budgets)
        want = replayed_certify(coords, mult, budgets)
        calls = self._counted(monkeypatch)
        proven, snaps = _certify_no_strict(coords, mult, k)
        assert calls == list(budgets)
        assert proven == want[0]
        assert frames(snaps) == frames(want[1])
