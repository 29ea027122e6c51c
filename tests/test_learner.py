import numpy as np
import pytest

from fdc.dataset import (
    EtaSpec,
    LabeledDataset,
    MarginalSpec,
    MassartModel,
    PointSet,
    massart_draw,
    sign_pm1,
)
from fdc.errors import CoverageFailure, DegenerateSecondMoment
from fdc.exact import primitive_rows
from fdc.harness import general_position_model
from fdc.learner import (
    LearnerConfig,
    ModelOracle,
    PartialClassifier,
    Stage,
    classifier_from_dict,
    classifier_to_dict,
    evaluate_classifier,
    learn_halfspace,
    outlier_bound,
    weak_partial_learner,
)
from fdc.linalg import full_space
from fdc.transform import forster_transform, mapped_unit_rows


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
        model = MassartModel(w, 0.0, EtaSpec("constant", value=0.0),
                             MarginalSpec("uniform", support=support))
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

    @pytest.mark.parametrize("scale, w_ref, cond_err", [
        # the weak pool's 64,302 draws hold 1,461 distinct points at scale 2
        # and 63,891 at scale 64
        (2.0, [-0.9740369944487425, 0.0999904112527513, 0.20311044065425643],
         0.060837921059998135),
        (64.0, [-0.9856670365853533, 0.10594122785560628, 0.13128956253066934],
         0.05085378370812727),
    ])
    def test_gaussian_marginal_unindexed_path(self, scale, w_ref, cond_err):
        # No finite support, so the learner draws points and compresses the
        # weak pool itself.  Draw count, stage count and stage statistics are
        # those the uncompressed learner gave; w agrees with its w up to float
        # summation order.
        w = np.array([1.0, 2.0, 3.0])
        w /= np.linalg.norm(w)
        model = MassartModel(w, 0.2, EtaSpec("margin_inverse"),
                             MarginalSpec("gaussian", support=PointSet(3, np.eye(3, dtype=int)),
                                          scale=scale))
        oracle = ModelOracle(model, seed=3)
        assert oracle.support is None
        config = LearnerConfig(eta=0.2, eps=0.1, delta=0.2, C=4)
        clf, telemetry = learn_halfspace(oracle, config, dim=3)
        assert oracle.count == 128_732
        assert len(clf.stages) == 1
        assert clf.stages[0].threshold == 0.0
        assert telemetry[0]["stage"]["coverage"] == 1.0
        assert telemetry[0]["stage"]["conditional_error"] == cond_err
        np.testing.assert_allclose(clf.stages[0].w, w_ref, rtol=0, atol=1e-12)

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
