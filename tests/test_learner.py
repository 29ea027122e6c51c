import tracemalloc

import numpy as np
import pytest

from fdc import rng
from fdc.dataset import (
    TAG_FLIP,
    TAG_MARGINAL,
    EtaSpec,
    LabeledDataset,
    MassartModel,
    PointSet,
    eta_values,
    gen_hard_instance,
    massart_draw,
    sign_pm1,
)
from fdc.errors import CoverageFailure, DegenerateSecondMoment, ParseError
from fdc.exact import directions, distinct_rows, primitive_rows
from fdc.harness import ModelOracle, general_position_model
from fdc.learner import (
    DatasetOracle,
    LearnerConfig,
    PartialClassifier,
    Stage,
    _band_select,
    _line_sample,
    _rejection_draw,
    _rejection_hits,
    classifier_from_dict,
    classifier_to_dict,
    evaluate_classifier,
    learn_halfspace,
    outlier_bound,
    weak_partial_learner,
)
from fdc.transform import _forster_transform_once, forster_transform, mapped_unit_rows
from tests.conftest import full_space


class TestCanonicalize:
    def test_gcd_stripped_sign_kept(self):
        X = np.array([[4, -8], [-6, -9], [1, 0]])
        np.testing.assert_array_equal(primitive_rows(X)[0], [[1, -2], [-2, -3], [1, 0]])


class TestOutlierBound:
    def test_orthonormal_pair(self):
        assert outlier_bound(np.array([[1.0, 0.0], [0.0, 1.0]])).gamma == pytest.approx(np.sqrt(2))

    def test_skewed_triple(self):
        got = outlier_bound(np.array([[1.0, 0.0], [0.0, 1.0], [10.0, 0.0]])).gamma
        assert got == pytest.approx(np.sqrt(3))  # attained at (0, 1)

    def test_single_point_1d(self):
        assert outlier_bound(np.array([[4.0]])).gamma == pytest.approx(1.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSecondMoment):
            outlier_bound(np.array([[1.0, 0.0], [2.0, 0.0]]))


def _stage(subspace, A, w, t):
    return Stage(subspace, np.asarray(A, float), np.asarray(w, float), float(t))


class TestPartialClassifier:
    def test_hand_enumerated_two_stage_chain(self):
        # stage 1: claim |x_hat . e1| >= 0.9 with sign of x1
        # stage 2: claim everything in the line span(e2) by sign of x2
        from fdc.linalg import Subspace

        full = full_space(2)
        line = Subspace(2, np.array([[0.0], [1.0]]), int_rows=[(0, 1)])
        h = PartialClassifier([
            _stage(full, np.eye(2), [1.0, 0.0], 0.9),
            _stage(line, np.eye(1), [1.0], 0.0),
        ])
        X = np.array([
            [5, 0],    # stage 1, +1
            [-3, 1],   # |x1/||x|||  = 0.949 -> stage 1, -1
            [0, 2],    # stage 1 score 0 < 0.9; stage 2 claims, sign(+) = +1
            [0, -7],   # stage 2, -1
            [1, 1],    # no stage: * (0.707 < 0.9, not in line)
            [2, -1],   # 0.894 < 0.9 -> *
        ])
        np.testing.assert_array_equal(h.evaluate(X), [1, -1, 1, -1, 0, 0])
        np.testing.assert_array_equal(h.predict(X), [1, -1, 1, -1, 1, 1])

    def test_chain_monotone(self):
        full = full_space(2)
        stages = [
            _stage(full, np.eye(2), [1.0, 0.0], 0.8),
            _stage(full, np.eye(2), [0.0, 1.0], 0.5),
            _stage(full, np.eye(2), [1.0, 1.0], 0.0),
        ]
        X = np.array([[3, 1], [1, 3], [-2, 5], [4, -1], [1, 1], [-1, -1]])
        prev = PartialClassifier([]).evaluate(X)
        for j in range(1, 4):
            cur = PartialClassifier(stages[:j]).evaluate(X)
            settled = prev != 0
            np.testing.assert_array_equal(cur[settled], prev[settled])
            prev = cur

    def test_boundary_sign_positive(self):
        full = full_space(2)
        h = PartialClassifier([_stage(full, np.eye(2), [0.0, 1.0], 0.0)])
        np.testing.assert_array_equal(h.evaluate(np.array([[1, 0], [-4, 0]])), [1, 1])
        # -2^63 has no int64 negation; it used to flip the point's sign.
        h = PartialClassifier([_stage(full, np.eye(2), [1.0, 0.0], 0.0)])
        with pytest.raises(ParseError, match=r"no int64 negation \(line 1\)"):
            h.evaluate(np.array([[-2 ** 63, 0], [-2 ** 62, 0]]))


class TestWeakLearner:
    def _mapped_massart(self, dim, n, eta, seed, n_support=150):
        model = general_position_model(dim, n_support, eta, seed)
        ds = massart_draw(model, n, seed)
        piece = forster_transform(PointSet(dim, primitive_rows(ds.base.points)[0]), 0.25)
        coords = primitive_rows(ds.base.points)[0].astype(float) @ piece.subspace.basis
        F = mapped_unit_rows(piece.transform, coords)
        return F, ds.labels, model, piece

    def test_noiseless_two_dim(self):
        F, y, model, piece = self._mapped_massart(2, 8000, 0.0, seed=5)
        res = weak_partial_learner(F[:4000], np.arange(4000), y[:4000], 0.0, 0.05)
        scores = F[4000:] @ res.w
        claimed = np.abs(scores) >= res.threshold
        assert claimed.mean() > 0
        err = np.mean(sign_pm1(scores[claimed]) != y[4000:][claimed])
        assert err <= 0.05

    def test_massart_noise_five_dim(self):
        F, y, model, piece = self._mapped_massart(5, 30000, 0.2, seed=9)
        res = weak_partial_learner(F[:20000], np.arange(20000), y[:20000], 0.2, 0.05)
        scores = F[20000:] @ res.w
        claimed = np.abs(scores) >= res.threshold
        err = np.mean(sign_pm1(scores[claimed]) != y[20000:][claimed])
        assert err <= 0.2 + 0.05 + 0.02
        assert claimed.mean() >= 1e-3

    def test_single_line_full_coverage(self):
        F = np.array([[1.0], [-1.0], [1.0], [-1.0]] * 50)
        y = np.where(F[:, 0] > 0, 1, -1)
        flip = np.zeros(len(y), dtype=bool)
        flip[::10] = True  # 10% flips
        y = np.where(flip, -y, y)
        res = weak_partial_learner(F, np.arange(len(y)), y, 0.15, 0.2)
        assert res.threshold == pytest.approx(0.0)
        assert res.val_coverage == pytest.approx(1.0)

    def test_compressed_sample_matches_expanded(self):
        # 40 support rows drawn 30,000 times: the (distinct rows, index,
        # labels) form and the same draws written out row by row give the
        # same stage up to float summation order.
        model = general_position_model(4, 40, 0.2, seed=13)
        ds = massart_draw(model, 30_000, seed=14)
        X = primitive_rows(ds.base.points)[0]
        piece = forster_transform(PointSet(4, X), 0.25)
        distinct, rows = np.unique(X, axis=0, return_inverse=True)
        rows = rows.reshape(-1)
        F = mapped_unit_rows(piece.transform,
                             distinct.astype(float) @ piece.subspace.basis)
        assert F.shape[0] == 40
        packed = weak_partial_learner(F, rows, ds.labels, 0.2, 0.05)
        expanded = weak_partial_learner(F[rows], np.arange(rows.size), ds.labels,
                                        0.2, 0.05)
        assert packed.val_coverage == expanded.val_coverage
        assert packed.val_error == expanded.val_error
        assert packed.threshold == pytest.approx(expanded.threshold, rel=0, abs=1e-12)
        np.testing.assert_allclose(packed.w, expanded.w, rtol=0, atol=1e-12)
        assert packed.gamma_empirical == pytest.approx(expanded.gamma_empirical, rel=1e-12)

    def test_coverage_failure_on_random_labels(self):
        rng = np.random.RandomState(0)
        F = rng.randn(4000, 3)
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        y = rng.choice([-1, 1], size=4000)
        with pytest.raises(CoverageFailure):
            weak_partial_learner(F, np.arange(len(y)), y, 0.05, 0.02)


def _per_draw_band_select(scores, y, eta, eps_prime, min_claim):
    """The per-draw band selection that ``_band_select`` replaced, verbatim:
    one stable argsort of every validation draw by descending |score|."""
    m = scores.shape[0]
    target = eta + eps_prime - eps_prime / 8.0
    absval = np.abs(scores)
    order = np.argsort(-absval, kind="stable")
    pred = sign_pm1(scores[order])
    wrong = (pred != y[order]).astype(np.float64)
    cum_err = np.cumsum(wrong) / np.arange(1, m + 1)
    js = np.arange(1, m + 1)
    admissible = (cum_err < target) & (js >= min_claim)
    if not admissible.any():
        return None
    j = int(np.nonzero(admissible)[0][-1]) + 1  # widest admissible prefix
    if j >= m:
        t = 0.0
    else:
        t = 0.5 * (absval[order][j - 1] + absval[order][j])
        if t >= absval[order][j - 1]:
            t = absval[order][j - 1]
    claimed = absval >= t
    err = float(np.mean(sign_pm1(scores[claimed]) != y[claimed]))
    cov = float(np.mean(claimed))
    if err >= target and j > min_claim:
        # ties dragged extra points in; fall back to the exact prefix value
        t = float(absval[order][j - 1])
        claimed = absval >= t
        err = float(np.mean(sign_pm1(scores[claimed]) != y[claimed]))
        cov = float(np.mean(claimed))
    return float(t), cov, err


def _band_case(seed):
    """Per-row scores s with many ties, zeros and +-s pairs, per-draw rows
    and noisy labels, eta, eps' and min_claim, the latter often at the end
    of a tie group."""
    g = np.random.default_rng(seed)
    u, m = int(g.integers(1, 40)), int(g.integers(1, 300))
    s = np.round(g.normal(size=u) * g.choice([1, 2, 4, 16]), 0) / 4
    s[g.random(u) < 0.15] = 0.0
    pairs = int(g.integers(0, u // 2 + 1))
    s[:pairs] = -s[u - pairs:]
    rows = g.integers(0, u, m)
    clean = sign_pm1(s[rows])
    noise = g.uniform(0.0, 0.6)
    y = np.where(g.random(m) < noise, -clean, clean)
    eta, eps_prime = g.uniform(0.0, 0.45), g.uniform(0.01, 0.4)
    if g.random() < 0.4:  # the end of a tie group in the sorted draw order
        sizes = np.unique(np.abs(s[rows]), return_counts=True)[1][::-1]
        min_claim = int(np.cumsum(sizes)[g.integers(0, sizes.size)]) + int(g.integers(0, 2))
    else:
        min_claim = int(g.integers(1, m + 2))
    return s, rows, y, eta, eps_prime, min_claim


def _branches(scores, y, eta, eps_prime, min_claim):
    """Which cases of the per-draw rule a case reaches: the widest prefix
    ends inside a tie group, min_claim is admissible only at a group end,
    the fallback to the exact prefix value runs."""
    m = scores.shape[0]
    target = eta + eps_prime - eps_prime / 8.0
    a = np.sort(np.abs(scores))[::-1]
    order = np.argsort(-np.abs(scores), kind="stable")
    wrong = sign_pm1(scores[order]) != y[order]
    js = np.arange(1, m + 1)
    ok = (np.cumsum(wrong) / js < target) & (js >= min_claim)
    if not ok.any():
        return set()
    j = int(np.flatnonzero(ok)[-1]) + 1
    hit = set()
    if j < m and a[j - 1] == a[j]:
        hit.add("interior")
    if min_claim < m and a[min_claim - 1] != a[min_claim] and ok[min_claim - 1]:
        hit.add("min_claim_at_group_end")
    t = 0.0 if j >= m else min(0.5 * (a[j - 1] + a[j]), a[j - 1])
    claimed = np.abs(scores) >= t
    if np.mean(sign_pm1(scores[claimed]) != y[claimed]) >= target and j > min_claim:
        hit.add("fallback")
    return hit


class TestBandSelect:
    def test_matches_per_draw_rule(self):
        # Exact tuples (or None) on 2,400 seeded cases, and every case of the
        # per-draw rule reached many times.
        seen = {"none": 0, "interior": 0, "min_claim_at_group_end": 0, "fallback": 0}
        for seed in range(2400):
            s, rows, y, eta, eps_prime, min_claim = _band_case(seed)
            want = _per_draw_band_select(s[rows], y, eta, eps_prime, min_claim)
            got = _band_select(s, rows, y, eta, eps_prime, min_claim)
            assert got == want, (seed, got, want)
            if want is None:
                seen["none"] += 1
            for b in _branches(s[rows], y, eta, eps_prime, min_claim):
                seen[b] += 1
        assert min(seen.values()) >= 20, seen

    def test_unhit_rows_are_not_groups(self):
        # Rows no validation draw hit must not split the sorted draw order:
        # the midpoint is taken between the values the draws carry.
        s = np.array([0.9, 0.7, 0.5, 0.3])
        rows = np.array([0, 0, 2, 2, 3, 3])
        y = np.array([1, 1, -1, -1, -1, -1])
        want = _per_draw_band_select(s[rows], y, 0.2, 0.1, 1)
        assert want == (0.5 * (0.9 + 0.5), 2 / 6, 0.0)
        assert _band_select(s, rows, y, 0.2, 0.1, 1) == want


class TestModelOracleLabels:
    """Every route to a Massart draw's label equals the per-draw formula:
    y = sign(w*.x), flipped when the draw's TAG_FLIP uniform is below
    eta(x)."""

    KINDS = ["constant", "margin_inverse"]

    @staticmethod
    def _model(kind):
        return general_position_model(6, 300, 0.3, seed=41, eta_kind=kind)

    @staticmethod
    def _labels(model, seed, X, indices):
        clean = sign_pm1(X.astype(np.float64) @ model.w_star)
        flips = rng.uniform01(seed, TAG_FLIP, indices) < eta_values(model, X)
        return np.where(flips, -clean, clean), clean

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_support_row_labels_match_per_draw_formula(self, kind):
        model = self._model(kind)
        oracle = ModelOracle(model, seed=9)
        rows, gidx = oracle.draw_indexed(100_000)
        want, clean = self._labels(model, 9, oracle.support[rows], gidx)
        np.testing.assert_array_equal(oracle.labels_for(rows, gidx), want)
        assert 0 < np.mean(want != clean) < 0.3

    @pytest.mark.parametrize("kind", KINDS)
    def test_point_draws_match_per_draw_formula(self, kind):
        # massart_draw and ModelOracle.draw are built on the per-row labels,
        # so check their (x, y) stream draw by draw from a nonzero start.
        model = self._model(kind)
        start, n = 70_001, 50_000
        idx = np.arange(start, start + n, dtype=np.uint64)
        X = model.support.points[rng.integers(9, TAG_MARGINAL, idx, model.support.n)]
        want, _ = self._labels(model, 9, X, idx)
        ds = massart_draw(model, n, 9, start_index=start)
        np.testing.assert_array_equal(ds.base.points, X)
        np.testing.assert_array_equal(ds.labels, want)
        oracle = ModelOracle(model, seed=9)
        oracle.draw_indexed(start)
        points, labels = oracle.draw(n)
        assert oracle.count == start + n
        np.testing.assert_array_equal(points, X)
        np.testing.assert_array_equal(labels, want)


class TestLearnHalfspace:
    def test_noiseless_low_dim(self):
        model = general_position_model(2, 120, 0.0, seed=21)
        config = LearnerConfig(eta=0.0, eps=0.1, delta=0.2, C=8)
        oracle = ModelOracle(model, seed=77)
        clf, telemetry = learn_halfspace(oracle, config, dim=2)
        test = massart_draw(model, 100_000, seed=12345)
        report = evaluate_classifier(clf, test)
        assert report.total_error <= 0.1

    def test_degenerate_line_marginal_single_iteration(self):
        support = PointSet(3, np.array([[1, 2, 3], [2, 4, 6], [-1, -2, -3], [3, 6, 9]]))
        w = np.array([1.0, 0.0, 0.0])
        model = MassartModel(w, 0.0, EtaSpec("constant", value=0.0), support)
        config = LearnerConfig(eta=0.0, eps=0.2, delta=0.2, C=4)
        clf, telemetry = learn_halfspace(ModelOracle(model, seed=5), config, dim=3)
        stage_iters = [t for t in telemetry if "stage" in t]
        assert len(stage_iters) == 1
        assert clf.stages[0].subspace.dim == 1
        test = massart_draw(model, 5000, seed=99)
        report = evaluate_classifier(clf, test)
        assert report.coverage == 1.0
        assert report.total_error == 0.0

    def test_noisy_moderate_dim(self):
        model = general_position_model(4, 200, 0.15, seed=31)
        config = LearnerConfig(eta=0.15, eps=0.1, delta=0.2, C=16)
        clf, _ = learn_halfspace(ModelOracle(model, seed=8), config, dim=4)
        test = massart_draw(model, 50_000, seed=54321)
        report = evaluate_classifier(clf, test)
        assert report.total_error <= 0.15 + 0.1 + 0.02

    def test_uncovered_mass_nonincreasing(self):
        # across iterations the fresh-sample uncovered estimate never rises
        # beyond the 2*(eps/6) sampling slack
        model = general_position_model(6, 250, 0.2, seed=61)
        config = LearnerConfig(eta=0.2, eps=0.1, delta=0.2, C=16)
        _, telemetry = learn_halfspace(ModelOracle(model, seed=17), config, dim=6)
        uncovered = [t["uncovered"] for t in telemetry]
        for prev, cur in zip(uncovered, uncovered[1:]):
            assert cur <= prev + 2 * (config.eps / 6.0)

    def test_weak_learner_contract_audit(self):
        # >= 20 seeded trials: conditional error <= eta + eps' + 0.02 in >= 90%,
        # coverage >= 1e-3 in all
        eta, eps_prime = 0.2, 0.05
        hits, trials = 0, 20
        for i in range(trials):
            model = general_position_model(5, 150, eta, seed=1000 + i)
            ds = massart_draw(model, 24_000, seed=2000 + i)
            piece = forster_transform(PointSet(5, primitive_rows(ds.base.points)[0]), 0.25)
            coords = primitive_rows(ds.base.points)[0].astype(float) @ piece.subspace.basis
            F = mapped_unit_rows(piece.transform, coords)
            res = weak_partial_learner(F[:16_000], np.arange(16_000), ds.labels[:16_000],
                                       eta, eps_prime)
            assert res.val_coverage >= 1e-3
            scores = F[16_000:] @ res.w
            claimed = np.abs(scores) >= res.threshold
            err = float(np.mean(sign_pm1(scores[claimed]) != ds.labels[16_000:][claimed]))
            if err <= eta + eps_prime + 0.02:
                hits += 1
        assert hits >= 18


def _masked_rejection_draw(oracle, keep, need, budget_draws):
    """_rejection_draw as it was before it compacted by index: a boolean mask
    applied to every array of every batch, a counter range of draw indices
    first made an array."""
    accepted = []
    got = 0
    used = 0
    while got < need and used < budget_draws:
        batch = int(min(max(65536, need), budget_draws - used))
        arrays = oracle.draw_indexed(batch)
        used += batch
        m = keep(arrays[0])
        accepted.append([np.asarray(a)[m] for a in arrays])
        got += int(m.sum())
    if got < need:
        return None
    return tuple(np.concatenate(col)[:need] for col in zip(*accepted))


def _cycling_keep(modes, mixed):
    """A keep function whose k-th call keeps every draw ("all"), the draws
    ``mixed`` passes ("mixed") or none ("none"), by modes[k % len(modes)]."""
    calls = []

    def keep(first):
        mode = modes[len(calls) % len(modes)]
        calls.append(mode)
        if mode == "all":
            return np.ones(len(first), dtype=bool)
        if mode == "none":
            return np.zeros(len(first), dtype=bool)
        return mixed(first)

    return keep


class TestRejectionDraw:
    # (modes, need, budget): single and multiple batches, pass-through,
    # compacted and empty batches mixed in one call, and exhausted budgets.
    CASES = [
        (["all"], 1_000, 10 ** 6),
        (["all"], 70_000, 200_000),
        (["mixed"], 70_000, 10 ** 6),
        (["none"], 100, 200_000),
        (["none", "all", "mixed"], 70_000, 10 ** 6),
        (["mixed", "all"], 70_000, 10 ** 6),
        (["mixed", "none", "all"], 100_000, 10 ** 6),
        (["mixed"], 70_000, 100_000),
    ]

    def _compare(self, make_oracle, mixed, modes, need, budget):
        old_oracle, new_oracle = make_oracle(), make_oracle()
        want = _masked_rejection_draw(old_oracle, _cycling_keep(modes, mixed), need, budget)
        got = _rejection_draw(new_oracle, _cycling_keep(modes, mixed), need, budget)
        assert new_oracle.count == old_oracle.count
        if want is None:
            assert got is None
            return
        assert got is not None and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("modes, need, budget", CASES)
    def test_indexed_path_matches_masking(self, modes, need, budget):
        X = np.arange(1, 151).reshape(50, 3)
        data = LabeledDataset(PointSet(3, X), np.where(np.arange(50) % 2 == 0, 1, -1))
        self._compare(lambda: DatasetOracle(data, seed=4), lambda rows: rows % 3 == 0,
                      modes, need, budget)

    @pytest.mark.parametrize("modes, need, budget", CASES)
    def test_counter_range_path_matches_masking(self, modes, need, budget):
        # ModelOracle's draw_indexed adds a counter range, which becomes the
        # accepted draws' indices; DatasetOracle's returns its rows alone.
        model = general_position_model(3, 50, 0.1, seed=1)
        self._compare(lambda: ModelOracle(model, seed=4), lambda rows: rows % 3 == 0,
                      modes, need, budget)

    @pytest.mark.parametrize("mode, need, budget", [
        ("all", 1_000, 10 ** 6), ("all", 70_000, 200_000), ("mixed", 70_000, 10 ** 6),
        ("mixed", 100_000, 10 ** 6), ("none", 100, 200_000), ("mixed", 70_000, 100_000),
    ])
    def test_hits_match_masking(self, mode, need, budget):
        # The Forster sample's per-support-row tally equals the bincount of
        # the accepted rows, with the same draws consumed.
        X = np.arange(1, 151).reshape(50, 3)
        data = LabeledDataset(PointSet(3, X), np.where(np.arange(50) % 2 == 0, 1, -1))
        accept = {"all": np.ones(50, dtype=bool), "none": np.zeros(50, dtype=bool),
                  "mixed": np.arange(50) % 3 == 0}[mode]
        old_oracle, new_oracle = DatasetOracle(data, seed=4), DatasetOracle(data, seed=4)
        want = _masked_rejection_draw(old_oracle, lambda rows: accept[rows], need, budget)
        got = _rejection_hits(new_oracle, accept, need, budget)
        assert new_oracle.count == old_oracle.count
        if want is None:
            assert got is None
            return
        np.testing.assert_array_equal(got, np.bincount(want[0], minlength=50))


class TestForsterInputPerLine:
    @pytest.mark.parametrize("planted", [False, True])
    def test_per_line_input_matches_per_row_input(self, planted):
        # Support rows repeat their directions scaled by 2 and 8 and negated
        # (times -1 and -3); some rows are never hit.
        g = np.random.default_rng(5)
        base = g.integers(-6, 7, size=(40, 4))
        if planted:
            base[:28, 2:] = 0  # a heavy plane
        base[~base.any(axis=1), 0] = 1
        scale = g.choice([1, 2, 8, -1, -3], size=160)
        support = base[g.integers(0, 40, size=160)] * scale[:, None]
        hits = g.integers(0, 50, size=160)
        hits[::7] = 0
        canonical = primitive_rows(support)[0]
        present = np.flatnonzero(hits)
        per_row = forster_transform(np.repeat(canonical[present], hits[present], axis=0),
                                    0.25)

        dirs, direction_of = distinct_rows(canonical)
        lines, _, line_of = directions(dirs)
        sample, counts = _line_sample(lines, line_of[direction_of], hits)
        _, V, A, _, certificate = _forster_transform_once(sample, counts, 0.25)

        assert sample.shape[0] < dirs.shape[0] < present.size
        assert counts.sum() == hits.sum()
        assert (per_row.subspace.dim < 4) == planted
        assert V.basis.tobytes() == per_row.subspace.basis.tobytes()
        assert V.int_rows == per_row.subspace.int_rows
        assert A.tobytes() == per_row.transform.tobytes()
        assert np.array(certificate).tobytes() == np.array(per_row.certificate).tobytes()


class TestPinnedDatasetRun:
    def test_hard_file_run(self):
        # An fdc gen --marginal hard file, plus negated copies of its first
        # 700 rows so that lines carry both signs.  Draw count, stages, w
        # bytes and thresholds are those of the per-support-row learner with
        # A = R^{-T} from the weighted rows' QR factor.
        model, _ = gen_hard_instance(5, 80, 24, 0.1, 11)
        data = massart_draw(model, 4000, 11)
        X = np.concatenate([data.base.points, -data.base.points[:700]])
        y = np.concatenate([data.labels, -data.labels[:700]])
        oracle = DatasetOracle(LabeledDataset(PointSet(5, X), y), seed=7)
        config = LearnerConfig(eta=0.1, eps=0.15, delta=0.2, C=8.0)
        clf, telemetry = learn_halfspace(oracle, config, dim=5)
        assert oracle.count == 6_162_264
        assert [s.subspace.dim for s in clf.stages] == [5, 1, 1]
        assert [s.w.tobytes().hex() for s in clf.stages] == [
            "178d29d8b770ea3f04b56ef0e249cb3f7207d4e0b12d93bf"
            "285d2d8421cbc1bf42d96a57bb11e03f",
            "000000000000f03f",
            "000000000000f03f",
        ]
        assert [s.threshold for s in clf.stages] == [0.05317070541627173, 0.0, 0.0]
        assert [t["piece"]["lambda_min"] for t in telemetry if "piece" in t] == [
            0.19950124675556527, 1.0, 1.0]
        # A is a rotation of the symmetric inverse square root of Sigma_c and
        # w rotates with it, so the rule x -> w . A coords(x) is the one the
        # symmetric root gave.
        symmetric_root_rule = [0.025883000052434282, -0.0041487527922250585,
                               0.04207462566969528, -0.023893234817547952,
                               0.0770006664631398]
        rule = clf.stages[0].ambient_map.T @ clf.stages[0].w
        assert (np.linalg.norm(rule - symmetric_root_rule)
                <= 1e-12 * np.linalg.norm(symmetric_root_rule))


class TestIterationCap:
    def test_cap_exceeded_raises(self):
        from fdc.errors import IterationCapExceeded

        class ZeroCapConfig(LearnerConfig):
            def iteration_cap(self, d):
                return 0

            def delta_prime(self, d):
                return self.delta / (d * 100.0)

        model = general_position_model(2, 50, 0.1, seed=2)
        config = ZeroCapConfig(eta=0.1, eps=0.2, delta=0.2, C=4)
        with pytest.raises(IterationCapExceeded):
            learn_halfspace(ModelOracle(model, seed=1), config, dim=2)


class TestEvaluate:
    def test_always_plus_one(self):
        full = full_space(2)
        h = PartialClassifier([_stage(full, np.eye(2), [0.0, 1.0], 0.0)])
        pts = PointSet(2, np.array([[1, 1], [2, 3], [5, 1]]))
        ds = LabeledDataset(pts, np.array([1, 1, 1]))
        rep = evaluate_classifier(h, ds)
        assert rep.error_claimed == 0.0 and rep.coverage == 1.0

    def test_always_star(self):
        h = PartialClassifier([])
        pts = PointSet(2, np.array([[1, 1], [2, 3], [5, 1], [-1, 2]]))
        ds = LabeledDataset(pts, np.array([1, -1, -1, 1]))
        rep = evaluate_classifier(h, ds)
        assert rep.coverage == 0.0
        assert rep.total_error == pytest.approx(0.5)  # -1 labels vs default +1


def test_classifier_json_roundtrip():
    model = general_position_model(2, 100, 0.1, seed=3)
    config = LearnerConfig(eta=0.1, eps=0.15, delta=0.2, C=8)
    clf, telemetry = learn_halfspace(ModelOracle(model, seed=11), config, dim=2)
    doc = classifier_to_dict(clf, config=config, telemetry=telemetry)
    back = classifier_from_dict(doc)
    X = massart_draw(model, 3000, seed=77).base.points
    np.testing.assert_array_equal(clf.evaluate(X), back.evaluate(X))


class TestLearnerMemory:
    def test_traced_peak_scales_with_the_support_not_the_draws(self):
        # The learn-cli setting on a file of fdc gen --marginal hard --dim 10
        # --n 100000 --bits 48 --eta 0.2 --seed 5: about 19M draws, each stage
        # tallying 1,473,666 accepted ones.  Kept as int64 rows and draw
        # indices, those take 96 MB of traced peak; tallied per batch, 28 MB.
        model, _ = gen_hard_instance(10, 400, 48, 0.2, 5)
        oracle = DatasetOracle(massart_draw(model, 100_000, 5), seed=7)
        config = LearnerConfig(eta=0.2, eps=0.05, delta=0.1)
        tracemalloc.start()
        try:
            learn_halfspace(oracle, config, dim=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle.count > 10 * config.forster_sample_size(10)
        assert peak < 64e6, f"traced peak {peak / 1e6:.1f} MB"
