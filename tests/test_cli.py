import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fdc
from fdc.cli import run
from fdc.dataset import (
    LabeledDataset,
    PointSet,
    gen_hard_instance,
    load_labeled,
    massart_draw,
)
from fdc.harness import general_position_model
from fdc.learner import (
    PartialClassifier,
    classifier_from_dict,
    evaluate_classifier,
    score_partial,
)
from tests.conftest import save_points_csv


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

    def test_gen_file_of_three_write_blocks_is_pinned(self, tmp_path):
        # 10,000 rows span three CSV_WRITE_ROWS blocks; the digest is that of
        # the file the row-by-row str.join writer wrote.
        out = tmp_path / "pin.csv"
        assert run(["gen", "--dim", "10", "--n", "10000", "--bits", "48", "--eta", "0.2",
                    "--seed", "3", "--support", "400", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "bed22bb254d429f472059cb3945fc26d1bc0ddaa10e16a629a98d983355a80cf")

    @pytest.mark.parametrize("marginal", ["hard", "general"])
    @pytest.mark.parametrize("support", [60, 2000])
    def test_gen_file_reads_back_as_massart_draw(self, tmp_path, marginal, support):
        # 60 support points give at most 120 distinct lines of 1,500, so the
        # reader keeps an index; 2,000 give more than 750, so the file is
        # its own support.
        out = tmp_path / "data.csv"
        assert run(["gen", "--marginal", marginal, "--dim", "4", "--n", "1500",
                    "--bits", "16", "--eta", "0.2", "--seed", "3",
                    "--support", str(support), "--out", str(out)]) == 0
        if marginal == "hard":
            model, _ = gen_hard_instance(4, support, 16, 0.2, 3)
        else:
            model = general_position_model(4, support, 0.2, 3, bits=16)
        want, got = massart_draw(model, 1500, 3), load_labeled(out)
        assert (want.support is want.base) == (got.support is got.base) == (support > 1500)
        np.testing.assert_array_equal(got.support.points, want.support.points)
        np.testing.assert_array_equal(got.support_labels, want.support_labels)
        np.testing.assert_array_equal(got.index, want.index)

    def test_gen_traced_peak_stays_below_its_rows(self, tmp_path):
        # 100,000 rows of 400 support points: their int64 points and labels
        # alone take 8.8 MB, so a writer that expands them to rows exceeds
        # the bound.  Written from its distinct lines, the peak is about 4 MB.
        tracemalloc.start()
        try:
            assert run(["gen", "--dim", "10", "--n", "100000", "--bits", "48",
                        "--eta", "0.2", "--seed", "5",
                        "--out", str(tmp_path / "big.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_gen_learn_eval_never_ask_for_every_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(LabeledDataset, "base",
                            property(lambda self: pytest.fail("base asked for")))
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        assert run(["gen", "--dim", "3", "--n", "3000", "--bits", "12", "--eta", "0.1",
                    "--seed", "3", "--support", "150", "--out", str(data)]) == 0
        assert run(["learn", "--train-oracle", str(data), "--eta", "0.1", "--eps", "0.15",
                    "--delta", "0.2", "--seed", "7", "--c-const", "8",
                    "--out", str(model)]) == 0
        assert run(["eval", "--model", str(model), "--test", str(data)]) == 0

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

    def test_verify_rejects_another_point_file(self, tmp_path, capsys):
        pts = self._write_points(tmp_path)
        out = tmp_path / "dec.json"
        assert run(["decompose", "--input", str(pts), "--delta", "1e-3",
                    "--out", str(out)]) == 0
        # The same four points in another order: same shape, other digest.
        other = tmp_path / "other.csv"
        save_points_csv(other, PointSet(2, np.array([[1, 0], [1, 1], [0, 1], [1, -1]])))
        capsys.readouterr()
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(other)]) == 2
        assert "source digest mismatch" in capsys.readouterr().err

    # Six rows in the plane z = 0 and three rows off it: the first piece is
    # that plane, and the other three are lines.
    NINE = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0), (1, -1, 0),
            (1, 1, 1), (2, -1, 3), (-1, 2, 5)]

    def _decompose_nine(self, tmp_path):
        pts, out = tmp_path / "pts.csv", tmp_path / "dec.json"
        save_points_csv(pts, PointSet(3, np.array(self.NINE)))
        assert run(["decompose", "--input", str(pts), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pieces"][0]["members"] == [0, 1, 2, 3, 4, 5]
        doc.pop("source_digest")
        return pts, out, doc

    def test_verify_rejects_a_member_outside_its_subspace(self, tmp_path, capsys):
        # Row 0 moves off the plane of its piece; without the digest only
        # the membership test can notice, since the projection onto the
        # plane is unchanged.
        pts, out, doc = self._decompose_nine(tmp_path)
        out.write_text(json.dumps(doc))
        save_points_csv(pts, PointSet(3, np.array([(1, 0, 7)] + self.NINE[1:])))
        capsys.readouterr()
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(pts)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("members outside its subspace: 1, FAIL")
        assert all(line.endswith("pass") for line in lines[1:])

    def test_verify_rejects_swapped_pieces_of_41_bit_points(self, tmp_path, capsys):
        # The plane of the first six rows has 41-bit coordinates, so its
        # membership test runs modulo exact.PRIME.  With the first two
        # pieces' members and weights swapped, the plane's one member
        # (1, 1, 1) has a nonzero residue, and no row is left to recheck.
        t = 2 ** 39
        rows = [(t + 1, 3, 7), (5, t + 7, 11), (t + 6, t + 10, 18), (t - 4, -t - 4, -4),
                (2 * t + 7, t + 13, 25), (t + 11, 2 * t + 17, 29),
                (1, 1, 1), (2, -1, 3), (-1, 2, 5)]
        pts, out = tmp_path / "points41.csv", tmp_path / "dec.json"
        save_points_csv(pts, PointSet(3, np.array(rows)))
        assert run(["decompose", "--input", str(pts), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        first, second = doc["pieces"][:2]
        assert [first["members"], second["members"]] == [[0, 1, 2, 3, 4, 5], [6]]
        for key in ("members", "weights"):
            first[key], second[key] = second[key], first[key]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(pts)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("members outside its subspace: 1, FAIL")
        assert lines[1].endswith("members outside its subspace: 6, FAIL")

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      [[1, 0, 0], [2, 0, 0]],
                                      [[1, 0, 0], [0, 0, 1]],
                                      []],
                             ids=["three-rows", "rank-one", "off-the-plane", "empty"])
    def test_verify_rejects_int_rows_that_are_not_the_subspace(self, tmp_path, capsys,
                                                               rows):
        # With row 0 moved to (1, 0, 7), the identity rows and e1, e3 would
        # each pass the membership test, so only a check of the rows against
        # the piece's basis can notice.  A proper subspace with no rows has
        # no exact membership test at all.
        pts, out, doc = self._decompose_nine(tmp_path)
        doc["pieces"][0]["subspace_int_rows"] = rows
        out.write_text(json.dumps(doc))
        save_points_csv(pts, PointSet(3, np.array([(1, 0, 7)] + self.NINE[1:])))
        capsys.readouterr()
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(pts)]) == 2
        err = capsys.readouterr().err
        assert "'subspace_int_rows'" in err and "Traceback" not in err

    def test_verify_names_the_faulty_piece(self, tmp_path, capsys):
        pts, out, doc = self._decompose_nine(tmp_path)
        doc["pieces"][1]["subspace_int_rows"] = []
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["eval", "--verify-decomposition", str(out),
                    "--input", str(pts)]) == 2
        err = capsys.readouterr().err
        assert "error: piece 1 field 'subspace_int_rows' does not hold 1 independent" in err

    def test_missing_input_usage_error(self, tmp_path):
        assert run(["transform", "--out", str(tmp_path / "x.json")]) == 1
        assert run(["transform", "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "x.json")]) == 1


_GEN = ["gen", "--dim", "3", "--n", "10", "--bits", "8", "--eta", "0.1", "--seed", "1"]
_LEARN = ["learn", "--eta", "0.1", "--eps", "0.2", "--delta", "0.2", "--seed", "1"]


@pytest.mark.parametrize("argv, flag", [
    (_GEN + ["--n", "0"], "--n"),
    (_GEN + ["--dim", "0"], "--dim"),
    (_GEN + ["--bits", "0"], "--bits"),
    (_GEN + ["--bits", "70"], "--bits"),
    (_GEN + ["--eta", "0.7"], "--eta"),
    (_GEN + ["--support", "0"], "--support"),
    (_LEARN + ["--eta", "0.7"], "--eta"),
    (_LEARN + ["--eps", "0"], "--eps"),
    (_LEARN + ["--c-const", "-1"], "--c-const"),
    (["transform", "--delta", "-1"], "--delta"),
    (["decompose", "--delta", "nan"], "--delta"),
], ids=["gen-n-0", "gen-dim-0", "gen-bits-0", "gen-bits-70", "gen-eta-0.7",
        "gen-support-0", "learn-eta-0.7", "learn-eps-0", "learn-c-const-neg",
        "transform-delta-neg", "decompose-delta-nan"])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv, flag):
    """A flag outside its range exits 1 with a usage error that names it,
    before any work runs or any file is written."""
    data = tmp_path / "data.csv"
    if argv[0] == "learn":
        data.write_text("1,0,1\n0,1,-1\n1,1,1\n")
        argv = argv + ["--train-oracle", str(data)]
    elif argv[0] != "gen":
        save_points_csv(data, PointSet(2, np.array([[1, 0], [0, 1], [1, 1]])))
        argv = argv + ["--input", str(data)]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_coordinate_minus_2_63_exits_2(tmp_path, capsys):
    # Its negation, +2^63, is not an int64, so the point's direction cannot
    # be found; the reader refuses the line.
    data = tmp_path / "pts.csv"
    data.write_text("1,2,0\n-9223372036854775808,1,0\n0,1,1\n")
    out = tmp_path / "out.json"
    assert run(["decompose", "--input", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "-9223372036854775808 has no int64 negation" in err and "line 2" in err
    assert "Traceback" not in err and not out.exists()


def test_learn_with_one_line_past_binary64_exits_2(tmp_path, capsys):
    # 60 labeled rows and one (2^53 + 1, 1, 0), whose line binary64 cannot
    # hold; the first stage's Forster sample hits it.
    X = np.random.default_rng(4).integers(-9, 10, size=(60, 3))
    X[~X.any(axis=1), 0] = 1
    rows = [f"{a},{b},{c},{1 if a >= 0 else -1}" for a, b, c in X.tolist()]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows + ["9007199254740993,1,0,1"]) + "\n")
    assert run(["learn", "--train-oracle", str(data), "--eta", "0.1", "--eps", "0.2",
                "--delta", "0.2", "--seed", "1", "--out", str(tmp_path / "m.json")]) == 2
    captured = capsys.readouterr()
    assert "past 2^53" in captured.out + captured.err
    assert "Traceback" not in captured.err


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


def _without_timestamp(path):
    return [line for line in path.read_text().splitlines() if '"timestamp"' not in line]


class TestWeightedSupport:
    """A CSV file of repeated lines is read as its distinct lines and an
    index; fdc learn and fdc eval give the files they give on the same rows
    read one by one."""

    def test_indexed_csv_and_json_give_the_same_files(self, tmp_path):
        csv_path, json_path = tmp_path / "train.csv", tmp_path / "train.json"
        assert run(["gen", "--dim", "3", "--n", "30000", "--bits", "12", "--eta", "0.1",
                    "--seed", "3", "--support", "150", "--out", str(csv_path)]) == 0
        data = load_labeled(csv_path)
        assert data.support is not data.base and data.support.n <= 300  # indexed
        json_path.write_text(json.dumps({"dim": 3, "points": data.base.points.tolist(),
                                         "labels": data.labels.tolist()}))
        assert load_labeled(json_path).support.n == data.n  # its own support
        files = {}
        for src in (csv_path, json_path):
            model, scores = (tmp_path / f"{src.stem}-{src.suffix[1:]}-{name}.json"
                             for name in ("model", "eval"))
            assert run(["learn", "--train-oracle", str(src), "--eta", "0.1", "--eps", "0.15",
                        "--delta", "0.2", "--seed", "7", "--c-const", "8",
                        "--out", str(model)]) == 0
            assert run(["eval", "--model", str(model), "--test", str(src),
                        "--out", str(scores)]) == 0
            files[src.suffix] = [_without_timestamp(model), _without_timestamp(scores)]
        assert files[".csv"] == files[".json"]

        doc = json.loads((tmp_path / "train-csv-model.json").read_text())
        assert doc["stages"]
        classifier = classifier_from_dict(doc)
        want = score_partial(classifier.evaluate(data.base.points), data.labels,
                             classifier.default_label)
        assert evaluate_classifier(classifier, data) == want

    def test_eval_scores_each_distinct_line_once(self, tmp_path, monkeypatch):
        model, test = tmp_path / "model.json", tmp_path / "test.csv"
        model.write_text(json.dumps(_plane_model()))
        rows = ("3,1,1", "-2,5,-1", "4,-1,1")
        test.write_text("".join(rows[i % 3] + "\n" for i in range(10_000)))
        seen = []
        evaluate = PartialClassifier.evaluate

        def spy(self, X):
            seen.append(len(X))
            return evaluate(self, X)

        monkeypatch.setattr(PartialClassifier, "evaluate", spy)
        assert run(["eval", "--model", str(model), "--test", str(test),
                    "--out", str(tmp_path / "eval.json")]) == 0
        assert seen and max(seen) <= 3
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["n_test"] == 10_000 and doc["total_error"] == 0.0


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
        ({**_plane_model(), "default_label": True}, "default_label"),
        ({**_plane_model(), "default_label": 1.0}, "default_label"),
        ({**_plane_model(), "default_label": -1.0}, "default_label"),
    ])
    def test_malformed_model_exits_2(self, tmp_path, capsys, doc, message):
        code, out = self._eval(tmp_path, capsys, doc)
        assert code == 2
        assert message in out.err and "Traceback" not in out.err

    @staticmethod
    def _plane_stage_model(rows):
        """A one-stage model on the plane x3 = 0 of R^3 with the given
        integer rows."""
        return {"default_label": 1, "stages": [{
            "subspace_basis": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            "subspace_int_rows": rows, "transform": [[1.0, 0.0], [0.0, 1.0]],
            "w": [1.0, 0.0], "threshold": 0.1}]}

    PLANE_ROWS = ("3,1,0,1", "-2,5,0,-1", "4,-1,7,1")

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[2, 1, 0], [1, -1, 0]]])
    def test_plane_stage_model_is_scored(self, tmp_path, capsys, rows):
        code, out = self._eval(tmp_path, capsys, self._plane_stage_model(rows),
                               rows=self.PLANE_ROWS)
        assert code == 0
        assert json.loads(out.out)["coverage"] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      [[1, 0, 0], [2, 0, 0]],
                                      [[1, 0, 0], [0, 0, 1]],
                                      []],
                             ids=["three-rows", "rank-one", "off-the-plane", "empty"])
    def test_int_rows_that_are_not_the_stage_subspace_exit_2(self, tmp_path, capsys,
                                                             rows):
        code, out = self._eval(tmp_path, capsys, self._plane_stage_model(rows),
                               rows=self.PLANE_ROWS)
        assert code == 2
        assert "'subspace_int_rows'" in out.err and "Traceback" not in out.err

    def test_malformed_stage_is_named(self, tmp_path, capsys):
        doc = _plane_model()
        doc["stages"].append({**doc["stages"][0], "w": [1.0, float("inf")]})
        code, out = self._eval(tmp_path, capsys, doc)
        assert code == 2
        assert "error: model stage 1 field 'w' is not finite numbers" in out.err

    def test_test_file_of_another_dimension_exits_2(self, tmp_path, capsys):
        code, out = self._eval(tmp_path, capsys, _plane_model(),
                               rows=("3,1,2,1", "-2,5,0,-1"))
        assert code == 2
        assert "dimension 2" in out.err and "Traceback" not in out.err


def _nan_transform(doc):
    doc["pieces"][0]["transform"][0][0] = float("nan")


def _member_999(doc):
    doc["pieces"][0]["members"][0] = 999


def _basis_of_another_dimension(doc):
    # The same subspace, embedded in one more dimension.
    piece = doc["pieces"][0]
    piece["subspace_basis"].append([0.0] * len(piece["subspace_basis"][0]))
    piece["subspace_int_rows"] = [row + [0] for row in piece["subspace_int_rows"]]


@pytest.mark.parametrize("message, tamper", [
    ("'transform'", lambda doc: doc["pieces"][0].pop("transform")),
    ("'weights'", lambda doc: doc["pieces"][0].update(weights="x")),
    ("'transform'", _nan_transform),
    ("'pieces'", lambda doc: doc.update(pieces=3)),
    ("'members'", _member_999),
    ("'pieces'", dict.clear),
    ("invalid JSON", None),
    ("'subspace_basis'", _basis_of_another_dimension),
], ids=["dropped-transform", "string-weights", "nan-transform", "int-pieces",
        "member-999", "empty-document", "model-not-json", "basis-dimension"])
def test_malformed_eval_document_exits_2(tmp_path, capsys, message, tamper):
    """A decomposition or model that ``fdc eval`` cannot read ends in a
    typed error naming the field, exit 2."""
    gen = np.random.default_rng(0)
    X = gen.integers(-9, 10, size=(30, 3))
    X[~X.any(axis=1), 0] = 1
    pts, doc_path = tmp_path / "pts.csv", tmp_path / "doc.json"
    save_points_csv(pts, PointSet(3, X))
    if tamper is None:
        doc_path.write_text("not json {")
        test = tmp_path / "test.csv"
        test.write_text("1,2,3,1\n")
        argv = ["eval", "--model", str(doc_path), "--test", str(test)]
    else:
        assert run(["decompose", "--input", str(pts), "--out", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        tamper(doc)
        doc_path.write_text(json.dumps(doc))
        argv = ["eval", "--verify-decomposition", str(doc_path), "--input", str(pts)]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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


@pytest.mark.parametrize("case", ["config-not-utf8", "config-dir", "out-dir"])
def test_unreadable_file_is_usage_error(tmp_path, capsys, case):
    """A file that cannot be read or written exits 1 with a usage error, not
    a traceback."""
    pts = tmp_path / "p.csv"
    save_points_csv(pts, PointSet(2, np.array([[1, 0], [0, 1], [1, 1]])))
    cfg, out = tmp_path / "F", tmp_path / "dec.json"
    if case == "config-not-utf8":
        cfg.write_bytes(b"delta = 1e-3\n\xff\n")
    elif case == "config-dir":
        cfg.mkdir()
    else:
        cfg.write_text("delta = 1e-3\n")
        out.mkdir()
    assert run(["decompose", "--input", str(pts), "--config", str(cfg),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert str(out if case == "out-dir" else cfg) in err


def _python_m_cli(*argv, cwd):
    src = os.path.dirname(os.path.dirname(fdc.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "fdc.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, encoding="utf-8")


def test_python_m_cli_runs_the_verb(tmp_path):
    proc = _python_m_cli("gen", "--dim", "2", "--n", "5", "--bits", "8", "--eta", "0.1",
                         "--seed", "1", "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(load_labeled(tmp_path / "x.csv").labels) == 5


def test_python_m_cli_without_a_verb_exits_1(tmp_path):
    proc = _python_m_cli(cwd=tmp_path)
    assert proc.returncode == 1 and "usage" in proc.stderr


def test_non_ascii_text_files_under_an_ascii_locale(tmp_path):
    """JSON point files and --config files are UTF-8 whatever the locale."""
    pts = tmp_path / "pts.json"
    pts.write_text('{"dim": 2, "points": [[1,2],[3,4],[5,7]], "note": "caf\u00e9"}',
                   encoding="utf-8")
    cfg = tmp_path / "fdc.cfg"
    cfg.write_text("# pr\u00e9cision\ndelta = 1e-3\n", encoding="utf-8")
    out = tmp_path / "dec.json"
    src = os.path.dirname(os.path.dirname(fdc.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c",
         "import sys; from fdc.cli import run; sys.exit(run(sys.argv[1:]))",
         "decompose", "--input", str(pts), "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["n"] == 3
