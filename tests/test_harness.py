import numpy as np
import pytest

from fdc import harness, rng
from fdc.dataset import (
    EtaSpec,
    MarginalSpec,
    MassartModel,
    PointSet,
    gen_hard_instance,
    massart_draw,
)
from fdc.errors import SizeLimit
from fdc.harness import (
    CountingOracle,
    bit_independence_study,
    brute_force_heavy_subspace,
    general_position_model,
    random_point_set,
    run_learning_trial,
    write_study_csv,
    STUDY_COLUMNS,
)
from fdc.learner import (
    LearnerConfig,
    ModelOracle,
    PartialClassifier,
    Stage,
    learn_halfspace,
)
from fdc.linalg import full_space


class TestBruteForce:
    def test_two_one_line(self):
        r = brute_force_heavy_subspace(np.array([[1, 0], [1, 0], [0, 1]]))
        assert r.found and sorted(r.member_indices) == [0, 1]

    def test_general_position_not_found(self):
        assert not brute_force_heavy_subspace(np.array([[1, 0], [0, 1], [1, 1]])).found

    def test_single_point_in_plane(self):
        r = brute_force_heavy_subspace(np.array([[3, 4]]), V=full_space(2))
        assert r.found and r.member_indices == [0] and r.subspace.dim == 1

    def test_size_limit(self):
        pts = np.ones((13, 2), dtype=np.int64)
        with pytest.raises(SizeLimit):
            brute_force_heavy_subspace(pts)
        with pytest.raises(SizeLimit):
            brute_force_heavy_subspace(np.ones((3, 5), dtype=np.int64))


class TestCountingOracle:
    def test_draw_accounting_matches_report(self):
        model = general_position_model(2, 80, 0.1, seed=13)
        config = LearnerConfig(eta=0.1, eps=0.15, delta=0.2, C=8)
        _, report = run_learning_trial(model, config, seed=4, test_n=2000)
        oracle = CountingOracle(ModelOracle(model, seed=0))
        oracle.draw(10)
        oracle.draw(7)
        assert oracle.count == 17
        assert report.sample_count > 0  # audited: equals the wrapper's count


def _gaussian_model(dim, eta, seed):
    w = rng.normals(seed, 5, np.arange(1, dtype=np.uint64), cols=dim)[0]
    template = PointSet(dim, np.eye(dim, dtype=np.int64))
    return MassartModel(w / np.linalg.norm(w), eta, EtaSpec("constant", value=eta),
                        MarginalSpec("gaussian", support=template, scale=16.0, bits=8))


# name -> (model, learner config): criterion 6's setting on a finite
# support; the gaussian marginal's draws are all distinct points, so it
# learns in d = 3 with a smaller sample.
CRITERION_6 = LearnerConfig(eta=0.2, eps=0.05, delta=0.1)
HELD_OUT_MODELS = {
    "general_position": lambda: (general_position_model(10, 400, 0.2, seed=17),
                                 CRITERION_6),
    "hard_b48": lambda: (gen_hard_instance(10, 400, 48, 0.2, seed=23)[0], CRITERION_6),
    "margin_inverse": lambda: (general_position_model(10, 400, 0.2, seed=29,
                                                      eta_kind="margin_inverse"),
                               CRITERION_6),
    "gaussian": lambda: (_gaussian_model(3, 0.2, seed=31),
                         LearnerConfig(eta=0.2, eps=0.15, delta=0.2, C=8)),
}


def _reference_trial(model, config, seed, test_n):
    """(final_error, coverage, sample_count) as the trial was scored before
    scoring per support row: every held-out point drawn by massart_draw,
    evaluated one by one and scored here."""
    inner = ModelOracle(model, rng.derive_seed(seed, 1))
    oracle = CountingOracle(inner)
    clf, _ = harness.learn_halfspace(oracle, config, dim=model.dim)
    assert inner.count == oracle.count
    test = massart_draw(model, test_n, rng.derive_seed(seed, 2))
    partial = clf.evaluate(test.base.points)
    resolved = np.where(partial == 0, clf.default_label, partial)
    return (float(np.mean(resolved != test.labels)), float(np.mean(partial != 0)),
            oracle.count)


class TestHeldOutScoring:
    """run_learning_trial scores a finite support's held-out draws per
    support row, with the report point-by-point scoring gives."""

    @pytest.fixture
    def tallied(self, monkeypatch):
        """Draw requests through harness.ModelOracle, tallied as the bench's
        draw audit does, and the massart_draw calls made from harness."""
        tally, held_out = [], []

        class Tallying(ModelOracle):
            def draw(self, n):
                tally.append(n)
                return super().draw(n)

            def draw_indexed(self, n):
                tally.append(n)
                return super().draw_indexed(n)

        def recorded(model, n, seed, start_index=0):
            held_out.append(n)
            return massart_draw(model, n, seed, start_index=start_index)

        monkeypatch.setattr(harness, "ModelOracle", Tallying)
        monkeypatch.setattr(harness, "massart_draw", recorded)
        return tally, held_out

    @pytest.mark.parametrize("name", sorted(HELD_OUT_MODELS))
    def test_report_equals_point_by_point_scoring(self, name, tallied):
        model, config = HELD_OUT_MODELS[name]()
        if name == "hard_b48":
            assert model.marginal.support.bit_complexity == 48
        _, report = run_learning_trial(model, config, seed=6, test_n=100_000)
        tally, held_out = tallied
        assert sum(tally) == report.sample_count
        # The held-out draws bypass the learning oracle; only the gaussian
        # marginal still draws them as points.
        assert held_out == ([100_000] if name == "gaussian" else [])
        want = _reference_trial(model, config, 6, 100_000)
        assert (report.final_error, report.coverage, report.sample_count) == want

    def test_abstentions_resolve_to_the_default_label(self, tallied, monkeypatch):
        # Raise every learned threshold to its score's median on the support,
        # so about half the draws are abstained on and resolve to -1.
        model, config = HELD_OUT_MODELS["hard_b48"]()
        S = model.marginal.support.points

        def abstaining(oracle, config, dim):
            clf, telemetry = learn_halfspace(oracle, config, dim)
            stages = []
            for st in clf.stages:
                imgs = S.astype(np.float64) @ st.ambient_map.T
                ratio = np.abs(imgs @ st.w) / np.linalg.norm(imgs, axis=1)
                stages.append(Stage(st.subspace, st.transform, st.w,
                                    float(np.median(ratio))))
            return PartialClassifier(stages, default_label=-1), telemetry

        monkeypatch.setattr(harness, "learn_halfspace", abstaining)
        _, report = run_learning_trial(model, config, seed=8, test_n=100_000)
        assert 0.3 < report.coverage < 0.9
        assert sum(tallied[0]) == report.sample_count and tallied[1] == []
        want = _reference_trial(model, config, 8, 100_000)
        assert (report.final_error, report.coverage, report.sample_count) == want


class TestStudy:
    def test_zero_trials_empty(self):
        rows = bit_independence_study(2, [8, 16], 0.1, 0.2, trials=0, seed=1)
        assert rows == []

    def test_single_cell_and_csv(self, tmp_path):
        rows = bit_independence_study(
            2, [8], 0.1, 0.2, trials=1, seed=3, n_support=60, test_n=4000,
            config_kwargs={"C": 8},
        )
        assert len(rows) == 1
        assert set(rows[0]) == set(STUDY_COLUMNS)
        out = tmp_path / "study.csv"
        write_study_csv(out, rows)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(STUDY_COLUMNS)

    def test_paired_bits_draws_identical(self):
        rows = bit_independence_study(
            3, [8, 20], 0.1, 0.2, trials=2, seed=5, n_support=80, test_n=4000,
            config_kwargs={"C": 8},
        )
        by_b = {}
        for r in rows:
            by_b.setdefault(r["b"], []).append(r)
        draws8 = [r["draws"] for r in by_b[8]]
        draws20 = [r["draws"] for r in by_b[20]]
        assert draws8 == draws20
        err8 = [r["error"] for r in by_b[8]]
        err20 = [r["error"] for r in by_b[20]]
        assert err8 == err20  # canonicalization makes the runs bit-identical


def test_random_point_set_no_zero_rows():
    ps = random_point_set(3, 50, 4, seed=9)
    assert ps.n == 50
    assert np.all(ps.points.any(axis=1))
