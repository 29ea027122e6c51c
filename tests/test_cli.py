import json

import numpy as np
import pytest

from fdc.cli import run
from fdc.dataset import load_labeled, save_points_csv, PointSet


def _strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


class TestGen:
    def test_gen_writes_labeled_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run(["gen", "--dim", "4", "--n", "500", "--bits", "16", "--eta", "0.2",
                    "--seed", "3", "--out", str(out), "--support", "60"])
        assert code == 0
        ds = load_labeled(out)
        assert ds.base.dim == 4 and ds.n == 500
        assert set(np.unique(ds.labels)) <= {-1, 1}

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--dim", "3", "--n", "100", "--bits", "8", "--eta", "0.1",
                "--seed", "9", "--support", "40"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_requires_seed(self, tmp_path):
        code = run(["gen", "--dim", "3", "--n", "10", "--bits", "8", "--eta", "0.1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestTransformDecompose:
    def _write_points(self, tmp_path):
        p = tmp_path / "pts.csv"
        save_points_csv(p, PointSet(2, np.array([[1, 0], [0, 1], [1, 1], [1, -1]])))
        return p

    def test_transform_and_verification(self, tmp_path):
        pts = self._write_points(tmp_path)
        out = tmp_path / "piece.json"
        assert run(["transform", "--input", str(pts), "--delta", "1e-3",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verification"]["passed"] is True
        assert len(doc["members"]) == 4

    def test_decompose_roundtrip_verify(self, tmp_path):
        pts = self._write_points(tmp_path)
        out = tmp_path / "dec.json"
        assert run(["decompose", "--input", str(pts), "--delta", "1e-3",
                    "--out", str(out)]) == 0
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(pts)]) == 0

    def test_decompose_deterministic_output(self, tmp_path):
        pts = self._write_points(tmp_path)
        o1, o2 = tmp_path / "d1.json", tmp_path / "d2.json"
        run(["decompose", "--input", str(pts), "--delta", "1e-3", "--out", str(o1)])
        run(["decompose", "--input", str(pts), "--delta", "1e-3", "--out", str(o2)])
        assert _strip_timestamp(o1) == _strip_timestamp(o2)

    def test_verify_rejects_tampered_decomposition(self, tmp_path):
        pts = self._write_points(tmp_path)
        out = tmp_path / "dec.json"
        run(["decompose", "--input", str(pts), "--delta", "1e-3", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["pieces"][0]["transform"] = [[1.0, 0.9], [0.0, 0.3]]
        out.write_text(json.dumps(doc))
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(pts)]) == 2

    def test_missing_input_usage_error(self, tmp_path):
        assert run(["transform", "--out", str(tmp_path / "x.json")]) == 1
        assert run(["transform", "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("verb", ["decompose", "learn"])
def test_coordinate_outside_int64_exits_2(tmp_path, capsys, verb):
    data = tmp_path / "pts.csv"
    rows = ["3,9223372036854775808", "1,2"]
    if verb == "learn":
        rows = [r + ",1" for r in rows]  # trailing label column
    data.write_text("\n".join(rows) + "\n")
    args = {
        "decompose": ["decompose", "--input", str(data), "--delta", "1e-3"],
        "learn": ["learn", "--train-oracle", str(data), "--eta", "0.1",
                  "--eps", "0.2", "--delta", "0.2", "--seed", "1"],
    }[verb]
    assert run(args + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "int64" in err and "line 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["decompose", "learn"])
def test_direction_past_binary64_exits_2(tmp_path, capsys, verb):
    # Rows (2^62 - i, 2^61 + 3i, i + 1): valid int64 points whose primitive
    # directions binary64 cannot hold; ten for decompose, fifty labeled ones
    # for learn.
    data = tmp_path / "pts.csv"
    n = {"decompose": 10, "learn": 50}[verb]
    rows = [f"{2 ** 62 - i},{2 ** 61 + 3 * i},{i + 1}" for i in range(n)]
    if verb == "learn":
        rows = [r + f",{1 - 2 * (i % 2)}" for i, r in enumerate(rows)]
    data.write_text("\n".join(rows) + "\n")
    args = {
        "decompose": ["decompose", "--input", str(data), "--delta", "1e-3"],
        "learn": ["learn", "--train-oracle", str(data), "--eta", "0.1",
                  "--eps", "0.2", "--delta", "0.2", "--seed", "1"],
    }[verb]
    assert run(args + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "2^53" in err and "binary64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["decompose", "learn"])
def test_non_utf8_csv_exits_2(tmp_path, capsys, verb):
    data = tmp_path / "pts.csv"
    rows = [b"1,2", b"\xff\xfe,3"]
    if verb == "learn":
        rows = [r + b",1" for r in rows]  # trailing label column
    data.write_bytes(b"\n".join(rows) + b"\n")
    args = {
        "decompose": ["decompose", "--input", str(data), "--delta", "1e-3"],
        "learn": ["learn", "--train-oracle", str(data), "--eta", "0.1",
                  "--eps", "0.2", "--delta", "0.2", "--seed", "1"],
    }[verb]
    assert run(args + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "line 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb, doc, line", [
    ("decompose", {"points": [[1.5, 2], [3, 4.9]]}, 1),
    ("learn", {"points": [[1.5, 2], [3, 4.9]], "labels": [1, -1]}, 1),
    ("learn", {"points": [[1, 2], [3, 4]], "labels": [1.0, -1.7]}, 1),
    ("learn", {"points": [[1, 2], [3, 4]], "labels": [1, 2 ** 70]}, 2),
    # Structurally broken documents; a str is written as it stands.
    ("decompose", {"pts": [[1, 2]]}, None),
    ("decompose", '{"points": [[1, 2],\n [3, 4', 2),
    ("decompose", {"points": [5, [1, 2]]}, 1),
    ("decompose", [[1, 2]], None),
    ("decompose", {"points": [[1, 2]], "dim": "2"}, None),
    ("learn", {"points": [[1, 2], [3, 4]]}, None),
    ("learn", {"points": [[1, 2], [3, 4]], "labels": 1}, None),
])
def test_malformed_json_exits_2(tmp_path, capsys, verb, doc, line):
    data = tmp_path / "data.json"
    data.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = {
        "decompose": ["decompose", "--input", str(data), "--delta", "1e-3"],
        "learn": ["learn", "--train-oracle", str(data), "--eta", "0.1",
                  "--eps", "0.2", "--delta", "0.2", "--seed", "1"],
    }[verb]
    assert run(args + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert line is None or f"line {line}" in err
    assert "error" in err and "Traceback" not in err


class TestLearnEval:
    def test_learn_then_eval(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        run(["gen", "--dim", "3", "--n", "40000", "--bits", "12", "--eta", "0.1",
             "--seed", "3", "--out", str(train), "--support", "150"])
        run(["gen", "--dim", "3", "--n", "20000", "--bits", "12", "--eta", "0.1",
             "--seed", "4", "--out", str(test), "--support", "150"])
        model_out = tmp_path / "h.json"
        code = run(["learn", "--train-oracle", str(train), "--eta", "0.1",
                    "--eps", "0.15", "--delta", "0.2", "--seed", "7",
                    "--out", str(model_out), "--c-const", "8"])
        assert code == 0
        result = tmp_path / "eval.json"
        code = run(["eval", "--model", str(model_out), "--test", str(test),
                    "--out", str(result)])
        assert code == 0
        doc = json.loads(result.read_text())
        # same support + same w*: error should beat the noise budget comfortably
        assert doc["total_error"] <= 0.1 + 0.15

    def test_held_out_file_of_the_same_halfspace(self, tmp_path):
        # --draw-seed changes only the draws: a held-out file shares the
        # training file's support and halfspace, and --draw-seed equal to
        # --seed writes the file --seed alone writes.
        train, same, test = (tmp_path / f"{n}.csv" for n in ("train", "same", "test"))
        gen = ["gen", "--dim", "3", "--n", "40000", "--bits", "12", "--eta", "0.1",
               "--seed", "3", "--support", "150"]
        assert run(gen + ["--out", str(train)]) == 0
        assert run(gen + ["--draw-seed", "3", "--out", str(same)]) == 0
        assert run(gen + ["--draw-seed", "5", "--out", str(test)]) == 0
        assert same.read_bytes() == train.read_bytes()
        tr, te = load_labeled(train), load_labeled(test)
        assert not np.array_equal(tr.base.points, te.base.points)
        assert {*map(tuple, te.base.points.tolist())} <= {*map(tuple, tr.base.points.tolist())}
        model_out, result = tmp_path / "h.json", tmp_path / "eval.json"
        assert run(["learn", "--train-oracle", str(train), "--eta", "0.1",
                    "--eps", "0.15", "--delta", "0.2", "--seed", "7",
                    "--out", str(model_out), "--c-const", "8"]) == 0
        assert run(["eval", "--model", str(model_out), "--test", str(test),
                    "--out", str(result)]) == 0
        assert json.loads(result.read_text())["total_error"] <= 0.1 + 0.15

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("delta = 1e-3\n# comment\n")
        pts = tmp_path / "pts.csv"
        save_points_csv(pts, PointSet(2, np.array([[1, 0], [0, 1], [1, 1], [1, -1]])))
        out = tmp_path / "piece.json"
        assert run(["transform", "--input", str(pts), "--config", str(cfg),
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["delta"] == pytest.approx(1e-3)

    def test_config_value_cast_by_verb_option_type(self, tmp_path):
        # --seed has no default, so only the verb's own option type can
        # turn the file's text into an int.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 5\n")
        gen = ["gen", "--dim", "3", "--n", "10", "--bits", "8", "--eta", "0.1"]
        by_file, by_flag = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(gen + ["--config", str(cfg), "--out", str(by_file)]) == 0
        assert run(gen + ["--seed", "5", "--out", str(by_flag)]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("line", ["seed = abc", "marginal = nope"])
    def test_config_value_that_does_not_parse(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert run(["gen", "--dim", "3", "--n", "10", "--bits", "8", "--eta", "0.1",
                    "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err
        assert not out.exists()


def _plane_model(**stage):
    """A one-stage model on all of R^2 that claims x1 > 0 as +1."""
    doc = {"default_label": 1, "stages": [{
        "subspace_basis": [[1.0, 0.0], [0.0, 1.0]], "subspace_int_rows": [],
        "transform": [[1.0, 0.0], [0.0, 1.0]], "w": [1.0, 0.0], "threshold": 0.1}]}
    doc["stages"][0].update(stage)
    for key in [k for k, v in stage.items() if v is None]:
        del doc["stages"][0][key]
    return doc


class TestEvalRejectsBadModels:
    """``fdc eval`` ends a model it cannot score in a typed error, exit 2."""

    @staticmethod
    def _eval(tmp_path, capsys, doc, rows=("3,1,1", "-2,5,-1", "4,-1,1")):
        model, test = tmp_path / "model.json", tmp_path / "test.csv"
        model.write_text(json.dumps(doc))
        test.write_text("\n".join(rows) + "\n")
        code = run(["eval", "--model", str(model), "--test", str(test)])
        return code, capsys.readouterr()

    def test_well_formed_model_is_scored(self, tmp_path, capsys):
        code, out = self._eval(tmp_path, capsys, _plane_model())
        assert code == 0
        assert json.loads(out.out)["total_error"] == 0.0

    @pytest.mark.parametrize("doc, message", [
        (_plane_model(threshold="x"), "threshold"),
        (_plane_model(w=None), "'w'"),
        (_plane_model(w=[1.0]), "'w'"),
        (_plane_model(transform=[[0.0, 0.0], [0.0, 0.0]]), "not invertible"),
        (_plane_model(transform=[[1.0, float("nan")], [0.0, 1.0]]), "transform"),
        (_plane_model(subspace_basis=[[1.0, 0.0]]), "subspace"),
        (_plane_model(subspace_basis=[[1.0], [0.0]]), "subspace"),
        ({"default_label": 1, "stages": 5}, "malformed model"),
        ({**_plane_model(), "default_label": 0}, "default_label"),
    ])
    def test_malformed_model_exits_2(self, tmp_path, capsys, doc, message):
        code, out = self._eval(tmp_path, capsys, doc)
        assert code == 2
        assert message in out.err and "Traceback" not in out.err

    def test_test_file_of_another_dimension_exits_2(self, tmp_path, capsys):
        code, out = self._eval(tmp_path, capsys, _plane_model(),
                               rows=("3,1,2,1", "-2,5,0,-1"))
        assert code == 2
        assert "dimension 2" in out.err and "Traceback" not in out.err


def test_json_floats_roundtrip_17g(tmp_path):
    from fdc.cli import dump_json

    value = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "x.json"
    dump_json({"v": value, "arr": [1.0 / 3.0]}, path)
    doc = json.loads(path.read_text())
    assert doc["v"] == value
    assert doc["arr"][0] == 1.0 / 3.0


def test_no_verb_usage():
    assert run([]) == 1
