from itertools import combinations

import numpy as np
import pytest

from fdc.errors import RankDeficient
from fdc.exact import exact_rank
from fdc.harness import (
    brute_force_heavy_subspace,
    extract_subspace,
    lp_feasible,
    lp_heavy_subspace,
    max_weight_basis,
    pair_swap_search,
)
from fdc.heavy import find_heavy_subspace
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
