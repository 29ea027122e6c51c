import functools
from itertools import combinations

import numpy as np
import pytest

from fdc.dataset import PointSet
from fdc.errors import PrecisionLimit
from fdc.exact import IntSpan, directions, exact_prime, membership_mask
from fdc.harness import general_position_model
from fdc import heavy
from fdc.heavy import BasisPacking, find_heavy_subspace
from fdc.transform import forster_decompose, verify_piece
from tests.conftest import full_space, seeded_points
from tests.reference import (
    Span,
    brute_force_heavy_subspace,
    extract_subspace,
    lp_feasible,
    lp_heavy_subspace,
    max_weight_basis,
    pair_swap_search,
)


def independent_subsets(pts, k):
    """All index k-subsets that are linearly independent (exact)."""
    out = []
    for comb in combinations(range(len(pts)), k):
        if IntSpan(pts.shape[1], pts[list(comb)]).rank == k:
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
        with pytest.raises(ValueError):
            max_weight_basis(np.array([[1, 0], [2, 0]]), 2, [1.0, 0.5])

    def test_matches_exhaustive_on_random(self):
        for seed in range(25):
            pts = seeded_points(3, 7, 3, seed)
            k = IntSpan(pts.shape[1], pts).rank
            v = np.round(np.linspace(0.9, 0.1, 7), 3)
            got = max_weight_basis(pts, k, v)
            best = max(independent_subsets(pts, k), key=lambda c: (v[list(c)].sum(),))
            assert v[got].sum() == pytest.approx(v[list(best)].sum())
            # Scaling every point by 2^45 changes no independence, so no pick.
            assert max_weight_basis(pts * 2 ** 45, k, v) == got


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
        assert res.found and res.dim == 1
        assert res.member_indices == [0, 1, 2]

    def test_binary_certificate(self):
        # ones exactly on a 1-dim subspace holding (n/k)*kappa + 1 = 3 points
        pts = np.array([[2, 0], [1, 0], [3, 0], [0, 1]])
        res = extract_subspace(pts, 2, np.array([1.0, 1.0, 1.0, 0.0]))
        assert res.dim == 1 and res.member_indices == [0, 1, 2]

    def test_perturbed_vector_same_subspace(self):
        pts = np.array([[1, 0], [1, 0], [1, 0], [0, 1]])
        res = extract_subspace(pts, 2, np.array([1.0, 0.97, 0.99, 1.0 / 32]))
        assert res.dim == 1 and res.member_indices == [0, 1, 2]


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
                k = IntSpan(pts.shape[1], pts).rank
                assert len(r.member_indices) * k >= r.subspace.dim * len(pts)
                assert r.subspace.dim < k

    def test_lp_engine_matches_auto(self):
        for seed in range(25):
            pts = seeded_points(3, 6, 2, seed)
            if IntSpan(pts.shape[1], pts).rank < 3:
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
            if IntSpan(pts.shape[1], pts).rank < 2:
                continue
            auto = find_heavy_subspace(pts)
            lp_full = lp_heavy_subspace(pts)
            assert auto.found == lp_full.found


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    return Span(rows).dim


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


FAMILIES = [general_points, planted_points, cluster_points, nested_points]


def fraction_basis(rows):
    """Indices of a maximal independent subset of the rows, in order."""
    basis = []
    for i, row in enumerate(rows):
        if fraction_rank([rows[j] for j in basis] + [row]) > len(basis):
            basis.append(i)
    return basis


def check_packing(dirs, mult, k, prime=None):
    """Re-check a maximum BasisPacking mod ``prime`` (None for heavy.PRIME)
    with Fraction ranks: independent sets, weights within M, coverage as
    reported and within demand; bases only when every demand is met, else a
    flat whose excess k*m - M*dim is the unmet demand spanned by the reached
    directions.  Returns the reached mask."""
    packing = BasisPacking(dirs, mult, k, prime)
    reached = packing.maximize()
    M = int(mult.sum())
    assert sum(packing.sets.values()) <= M
    cover = np.zeros(len(dirs), dtype=np.int64)
    for B, weight in packing.sets.items():
        assert weight > 0 and fraction_rank([dirs[i] for i in B]) == len(B)
        cover[list(B)] += weight
    assert (cover == packing.cover).all() and (cover <= k * mult).all()
    if cover.sum() == k * M:
        assert reached is None
        assert all(len(B) == k for B in packing.sets)
    else:
        basis = [dirs[i] for i in np.nonzero(reached)[0][fraction_basis(dirs[reached])]]
        in_flat = np.array([fraction_rank(basis + [x]) == len(basis) for x in dirs])
        assert k * int(mult[in_flat].sum()) - M * len(basis) == k * M - cover.sum() > 0
    return reached


class TestBasisPacking:
    """Fraction re-checks of the packing mod exact_prime(dirs), which is the
    rational packing."""
    prime = staticmethod(exact_prime)

    def test_certificate_on_families(self):
        gen = np.random.default_rng(3)
        met = []
        for family in FAMILIES:
            for d, n in ((4, 12), (5, 40), (6, 60)):
                dirs, mult, _ = directions(family(gen, d, n))
                for m in (mult, mult * gen.integers(1, 5, size=mult.size)):
                    reached = check_packing(dirs, m, fraction_rank(dirs), self.prime(dirs))
                    met.append(reached is None)
        assert 0 < sum(met) < len(met)   # both outcomes are re-checked

    def test_certificate_at_learner_scale(self):
        # A learner stage's shape: 400 lines in d = 10, 1.47M hits.
        X = general_position_model(10, 400, 0.2, seed=3).support.points
        dirs, _, _ = directions(X)
        mult = np.random.default_rng(4).integers(2, 7350, size=dirs.shape[0])
        assert 1.4e6 < mult.sum() < 1.55e6
        assert check_packing(dirs, mult, 10, self.prime(dirs)) is None

    def test_exchange_matches_fraction_rank(self):
        # For an independent B of every size 1..k: u is outside when B + u
        # is independent, and has an arc to B[a] when it is in span B, not
        # in B, and B - B[a] + u is independent.
        gen = np.random.default_rng(8)
        sizes = []
        for family in FAMILIES * 2:
            dirs, mult, _ = directions(family(gen, 4, 12))
            k = fraction_rank(dirs)
            packing = BasisPacking(dirs, mult, k, self.prime(dirs))
            for size in range(1, k + 1):
                order = gen.permutation(len(dirs))
                B = tuple(sorted(int(order[i]) for i in fraction_basis(dirs[order])[:size]))
                arcs, outside = packing._exchange(B)
                sizes.append((size, k))
                rows = [dirs[i] for i in B]
                for u, x in enumerate(dirs):
                    assert outside[u] == (fraction_rank(rows + [x]) > size)
                    for a in range(size):
                        swap = rows[:a] + rows[a + 1:] + [x]
                        assert arcs[u, a] == (u not in B and not outside[u]
                                              and fraction_rank(swap) == size)
        assert (1, 4) in sizes and any(1 < size < k for size, k in sizes)


class TestModPacking(TestBasisPacking):
    """The same Fraction re-checks of the packing mod heavy.PRIME: its sets
    are independent over Q, and on these inputs it reaches the rational
    maximum."""
    prime = staticmethod(lambda dirs: None)


def weighted_instances():
    """(X, m): small sets of every family with counts 0 to 3, the rows of an
    exact basis of span(X) counted at least once."""
    gen = np.random.default_rng(5)
    for family in FAMILIES * 10:
        d = int(gen.integers(2, 5))
        X = family(gen, d, int(gen.integers(d + 2, 14)))
        m = gen.integers(0, 4, size=X.shape[0])
        basis = IntSpan(X.shape[1], X).pivots
        m[basis] = np.maximum(m[basis], 1)
        yield X, m


class TestMultiplicities:
    def test_weights_match_repeated_rows(self):
        stages = {"strict": 0, "equality": 0, "none": 0}
        for X, m in weighted_instances():
            weighted = find_heavy_subspace(X, mults=m)
            repeated = find_heavy_subspace(np.repeat(X, m, axis=0))
            assert weighted.found == repeated.found
            if not weighted.found:
                stages["none"] += 1
                continue
            in_w = in_span(weighted.subspace, X)
            assert (in_w == in_span(repeated.subspace, X)).all()
            assert weighted.member_indices == np.nonzero(in_w)[0].tolist()
            origin = np.repeat(np.arange(X.shape[0]), m)
            assert sorted(set(origin[repeated.member_indices])) == \
                [i for i in weighted.member_indices if m[i] > 0]
            k, M = IntSpan(X.shape[1], X).rank, int(m.sum())
            excess = k * int(m[in_w].sum()) - M * weighted.subspace.dim
            stages["strict" if excess > 0 else "equality"] += 1
        assert min(stages.values()) > 0, stages


def in_span(subspace, X):
    return membership_mask(list(subspace.int_rows), X)


def exact_route(X, m):
    """The heavy decision of X with counts m from the rational packing
    (mod the exact prime) alone."""
    dirs, _, inverse = directions(X)
    mult = np.zeros(dirs.shape[0], dtype=np.int64)
    np.add.at(mult, inverse, m)
    packing = BasisPacking(dirs, mult, fraction_rank(dirs), exact_prime(dirs))
    return heavy._decide(packing, mult, inverse)


def count_routes(monkeypatch):
    """Patch heavy._decide to record, per decision, the packing's prime and
    whether its answer was certified."""
    routes, decide = [], heavy._decide

    def counted(packing, *args):
        result = decide(packing, *args)
        routes.append((packing.prime, result is not None))
        return result
    monkeypatch.setattr(heavy, "_decide", counted)
    return routes


@functools.cache
def brute_force_decisions():
    """(found, members) of the brute force on the unweighted instances of at
    most 12 rows, the brute force's limit."""
    return [(r.found, r.member_indices) for r in (
        brute_force_heavy_subspace(X) for X, _ in weighted_instances() if X.shape[0] <= 12)]


@functools.cache
def wide_instances():
    """(X, brute-force (found, members)): the unweighted instances of at most
    12 rows, each mapped by an invertible matrix with entries as large as
    keep its coordinates below 2^62."""
    gen, out = np.random.default_rng(9), []
    for X, _ in weighted_instances():
        if X.shape[0] > 12:
            continue
        top = 2 ** (62 - int(np.abs(X).sum(axis=1).max()).bit_length())
        F = gen.integers(-top, top, size=(X.shape[1],) * 2, endpoint=True)
        while fraction_rank(F) < X.shape[1]:
            F = gen.integers(-top, top, size=(X.shape[1],) * 2, endpoint=True)
        X = X @ F
        brute = brute_force_heavy_subspace(X)
        out.append((X, (brute.found, brute.member_indices)))
    assert max(int(np.abs(X).max()) for X, _ in out) >= 2 ** 61
    return out


class TestModRoute:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_small_primes_agree_with_the_exact_route(self, monkeypatch, p):
        cases = [(X, m, exact_route(X, m)) for X, m in weighted_instances()]
        routes = count_routes(monkeypatch)
        monkeypatch.setattr(heavy, "PRIME", p)
        for X, m, want in cases:
            got = find_heavy_subspace(X, mults=m)
            assert (got.found, got.member_indices) == (want.found, want.member_indices)
        fallbacks = sum(ok for prime, ok in routes if prime != p)
        assert 0 < fallbacks < len(cases)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_small_primes_agree_with_the_brute_force(self, monkeypatch, p):
        cases = [X for X, _ in weighted_instances() if X.shape[0] <= 12]
        wants = brute_force_decisions()
        monkeypatch.setattr(heavy, "PRIME", p)
        for X, want in zip(cases, wants):
            got = find_heavy_subspace(X)
            assert (got.found, got.member_indices) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_small_primes_agree_with_the_brute_force_at_62_bits(self, monkeypatch, p):
        cases = wide_instances()
        routes = count_routes(monkeypatch)
        monkeypatch.setattr(heavy, "PRIME", p)
        for X, want in cases:
            got = find_heavy_subspace(X)
            assert (got.found, got.member_indices) == want
        assert any(prime != p for prime, _ in routes)

    def test_rows_dependent_mod_the_prime(self, monkeypatch):
        # Independent over Q, dependent mod p: (1, 0, 0) = (1, p, 0) mod p.
        p = heavy.PRIME
        rows = [(1, 0, 0), (1, p, 0), (0, 0, 1), (0, 1, 0), (p, 1, 1), (1, 1, p)]
        sets = [[0, 1, 2], [0, 1, 2, 2], [0, 1, 3, 2, 4]]
        gen = np.random.default_rng(6)
        sets += [gen.integers(0, len(rows), size=gen.integers(3, 9)) for _ in range(40)]
        routes = count_routes(monkeypatch)
        for idx in sets:
            X = np.array([rows[i] for i in idx], dtype=np.int64)
            X *= gen.integers(1, 3, size=(len(idx), 1))
            got, brute = find_heavy_subspace(X), brute_force_heavy_subspace(X)
            assert (got.found, got.member_indices) == (brute.found, brute.member_indices)
        assert (p, False) in routes   # a certificate failed and fell back


def near_plane_probe(bits):
    """d = 6: 30 rows within a few units of a 2-flat scaled by 2^bits, and
    30 small random rows.  No flat is heavy."""
    g = np.random.default_rng(0)
    frame = g.integers(-5, 6, (2, 6))
    combo = g.integers(-5, 6, (30, 2))
    near = (2 ** bits) * (combo @ frame) + g.integers(-3, 4, (30, 6))
    X = np.vstack([near, g.integers(-9, 10, (30, 6))])
    X[~X.any(axis=1)] = np.eye(6, dtype=np.int64)[0]
    return X


class TestNearHeavyProbe:
    @pytest.mark.parametrize("bits", [8, 16, 24, 32, 40, 52])
    def test_decided_at_every_bit_size(self, bits):
        assert not find_heavy_subspace(near_plane_probe(bits)).found

    @pytest.mark.parametrize("bits", [8, 16, 24, 32, 40])
    def test_decomposes(self, bits):
        S = PointSet(6, near_plane_probe(bits))
        dec = forster_decompose(S, 1e-3)
        assert all(verify_piece(p, S).passed for p in dec.pieces)

    @pytest.mark.parametrize("bits", [48, 52])
    def test_beyond_binary64_raises_typed_error(self, bits):
        with pytest.raises(PrecisionLimit):
            forster_decompose(PointSet(6, near_plane_probe(bits)), 1e-3)


def test_coordinates_near_2_62_take_python_ints():
    # Rank 2 rows past 2^53: exchange coefficients and memberships overflow
    # int64 and are settled in Python ints.
    rows = [(2 ** 62 - i, 2 ** 61 + 3 * i, i + 1) for i in range(10)]
    rows += [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    r = find_heavy_subspace(np.array(rows, dtype=np.int64))
    assert r.found and r.subspace.dim == 2 and r.member_indices == list(range(10))
