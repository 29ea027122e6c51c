import json

import numpy as np
import pytest

from fdc.dataset import (
    EtaSpec,
    LabeledDataset,
    MarginalSpec,
    MassartModel,
    PointSet,
    eta_values,
    gen_hard_instance,
    load_labeled,
    load_points,
    massart_draw,
    save_labeled_csv,
    sign_pm1,
)
from fdc.errors import NonInteger, ParseError, ZeroPoint
from fdc.exact import primitive_rows


class TestPointSet:
    def test_bit_complexity(self):
        ps = PointSet(2, np.array([[1, 0], [0, 1]]))
        assert ps.bit_complexity == 1
        ps = PointSet(3, np.array([[2 ** 40, 1, 1]]))
        assert ps.bit_complexity == 41

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroPoint):
            PointSet(2, np.array([[1, 0], [0, 0]]))

    def test_labeled_validation(self):
        base = PointSet(2, np.array([[1, 0], [0, 1]]))
        with pytest.raises(ParseError):
            LabeledDataset(base, np.array([1, 2]))


class TestLoaders:
    def test_csv_trivial(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,0\n0,1\n")
        ps = load_points(p)
        assert ps.dim == 2 and ps.n == 2 and ps.bit_complexity == 1

    def test_csv_header_detected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x0,x1\n3,4\n")
        ps = load_points(p)
        assert ps.n == 1 and ps.points[0, 0] == 3

    def test_csv_zero_point_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,0\n0,0\n")
        with pytest.raises(ZeroPoint) as ei:
            load_points(p)
        assert ei.value.line == 2

    def test_csv_non_integer(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,0\n1.5,2\n")
        with pytest.raises(NonInteger):
            load_points(p)

    def test_json_big_entry(self, tmp_path):
        p = tmp_path / "pts.json"
        p.write_text(json.dumps({"dim": 3, "points": [[2 ** 40, 1, 0], [1, 1, 1], [0, 2, 5]]}))
        ps = load_points(p)
        assert ps.bit_complexity == 41

    def test_labeled_roundtrip(self, tmp_path):
        base = PointSet(2, np.array([[1, 2], [3, -4], [5, 6]]))
        ds = LabeledDataset(base, np.array([1, -1, 1]))
        p = tmp_path / "data.csv"
        save_labeled_csv(p, ds)
        back = load_labeled(p)
        np.testing.assert_array_equal(back.base.points, base.points)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("big", [2 ** 63, -(2 ** 63) - 1, 2 ** 100])
    @pytest.mark.parametrize("kind", ["csv", "csv-labeled", "json", "json-labeled"])
    def test_coordinate_outside_int64(self, tmp_path, kind, big):
        rows = [[1, 2], [3, big], [5, 6]]
        labeled = kind.endswith("labeled")
        if kind.startswith("csv"):
            p = tmp_path / "pts.csv"
            lines = ["x0,x1" + (",y" if labeled else "")]
            lines += [",".join(map(str, r + ([1] if labeled else []))) for r in rows]
            p.write_text("\n".join(lines) + "\n")
            line = 3  # the header is line 1
        else:
            p = tmp_path / "pts.json"
            doc = {"dim": 2, "points": rows}
            if labeled:
                doc["labels"] = [1, -1, 1]
            p.write_text(json.dumps(doc))
            line = 2  # the record's 1-based position
        with pytest.raises(ParseError, match="int64") as ei:
            (load_labeled if labeled else load_points)(p)
        assert ei.value.line == line

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("points, error, line", [
        ([[1.5, 2], [3, 4.9]], NonInteger, 1),
        ([[1, 2], [3, 4.0]], NonInteger, 2),
        ([[1, 2], [0, 0]], ZeroPoint, 2),
        ([[1, 2], [3]], ParseError, 2),
        ([], ParseError, None),
    ])
    def test_json_points_validated(self, tmp_path, labeled, points, error, line):
        p = tmp_path / "pts.json"
        doc = {"points": points}
        if labeled:
            doc["labels"] = [1, -1]
        p.write_text(json.dumps(doc))
        with pytest.raises(error) as ei:
            (load_labeled if labeled else load_points)(p)
        assert ei.value.line == line

    @pytest.mark.parametrize("labels, line", [
        ([1.0, -1.7], 1), ([1, 2], 2), ([1, 2 ** 70], 2), ([1, True], 2),
    ])
    def test_json_label_must_be_plus_or_minus_one(self, tmp_path, labels, line):
        p = tmp_path / "data.json"
        p.write_text(json.dumps({"points": [[1, 2], [3, 4]], "labels": labels}))
        with pytest.raises(ParseError, match="label") as ei:
            load_labeled(p)
        assert ei.value.line == line

    def test_csv_ragged_row(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,0\n1,2,3\n")
        with pytest.raises(ParseError) as ei:
            load_points(p)
        assert ei.value.line == 2


def _uniform_model(points, w_star, eta, eta_spec=None):
    support = PointSet(points.shape[1], points)
    return MassartModel(
        w_star / np.linalg.norm(w_star),
        eta,
        eta_spec or EtaSpec("constant", value=eta),
        MarginalSpec("uniform", support=support),
    )


class TestMassartDraw:
    def test_noiseless_labels_match_sign(self):
        pts = np.array([[1, 1], [2, -1], [-3, 1], [0, 5]])
        model = _uniform_model(pts, np.array([1.0, 0.0]), 0.0)
        ds = massart_draw(model, 500, seed=3)
        expect = sign_pm1(ds.base.points.astype(float) @ model.w_star)
        np.testing.assert_array_equal(ds.labels, expect)

    def test_boundary_label_is_plus_one(self):
        # w* = e1; the point (0, 5) sits on the separator
        pts = np.array([[0, 5]])
        model = _uniform_model(pts, np.array([1.0, 0.0]), 0.0)
        ds = massart_draw(model, 64, seed=1)
        assert np.all(ds.labels == 1)

    def test_flip_fraction(self):
        pts = np.array([[1, 1], [2, -1], [-3, 1], [5, 2], [1, -4]])
        model = _uniform_model(pts, np.array([3.0, 1.0]), 0.2)
        ds = massart_draw(model, 100_000, seed=9)
        clean = sign_pm1(ds.base.points.astype(float) @ model.w_star)
        flip = np.mean(clean != ds.labels)
        assert abs(flip - 0.2) <= 0.01

    def test_per_point_flip_frequency(self):
        pts = np.array([[1, 0], [0, 1]])
        table = {(1, 0): 0.3, (0, 1): 0.05}
        model = _uniform_model(
            pts, np.array([1.0, 1.0]), 0.3, EtaSpec("table", table=table, default=0.0)
        )
        ds = massart_draw(model, 200_000, seed=4)
        clean = sign_pm1(ds.base.points.astype(float) @ model.w_star)
        for key, eta in table.items():
            sel = np.all(ds.base.points == np.array(key), axis=1)
            m = sel.sum()
            freq = np.mean(clean[sel] != ds.labels[sel])
            assert abs(freq - eta) <= 3.0 * np.sqrt(eta * (1 - eta) / m)

    def test_reproducible_and_batch_invariant(self):
        pts = np.array([[1, 1], [2, -1], [-3, 1]])
        model = _uniform_model(pts, np.array([1.0, 2.0]), 0.1)
        a = massart_draw(model, 1000, seed=5)
        b = massart_draw(model, 1000, seed=5)
        np.testing.assert_array_equal(a.base.points, b.base.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        head = massart_draw(model, 300, seed=5)
        tail = massart_draw(model, 700, seed=5, start_index=300)
        np.testing.assert_array_equal(
            a.base.points, np.vstack([head.base.points, tail.base.points])
        )
        np.testing.assert_array_equal(a.labels, np.concatenate([head.labels, tail.labels]))

    def test_margin_inverse_eta_bounded(self):
        pts = np.array([[1, 1], [5, -3], [-2, 7]])
        model = _uniform_model(pts, np.array([1.0, 1.0]), 0.25, EtaSpec("margin_inverse"))
        vals = eta_values(model, pts)
        assert np.all(vals <= 0.25 + 1e-12) and np.all(vals >= 0)


class TestHardInstance:
    def test_range_contract(self):
        _, ds = gen_hard_instance(2, 4, 4, 0.1, seed=2)
        assert ds.base.n == 4
        assert np.abs(ds.base.points).max() <= 16

    def test_determinism(self):
        _, a = gen_hard_instance(6, 50, 24, 0.2, seed=8)
        _, b = gen_hard_instance(6, 50, 24, 0.2, seed=8)
        np.testing.assert_array_equal(a.base.points, b.base.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_scale_invariance_across_bits(self):
        m16, d16 = gen_hard_instance(10, 80, 16, 0.2, seed=3)
        m48, d48 = gen_hard_instance(10, 80, 48, 0.2, seed=3)
        np.testing.assert_array_equal(
            primitive_rows(d16.base.points)[0], primitive_rows(d48.base.points)[0]
        )
        np.testing.assert_array_equal(d16.labels, d48.labels)
        np.testing.assert_array_equal(m16.w_star, m48.w_star)
        assert d48.base.bit_complexity > d16.base.bit_complexity
