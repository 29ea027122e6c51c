"""Tests for the benchmark's own checks and tracer.

    python3 -m pytest bench -q

Each check must pass fdc's real outputs and reject a tampered one.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fdc import harness, learner, linalg, transform  # noqa: E402
from fdc.dataset import PointSet  # noqa: E402

DELTA = workloads.DELTA


@pytest.fixture(scope="module")
def nested():
    X = workloads.nested_set(np.random.default_rng([5, 0]), 6, 40)
    S = PointSet(6, X)
    return X, transform.forster_decompose(S, DELTA)


@pytest.fixture(scope="module")
def trained():
    model = harness.general_position_model(10, 400, 0.2, seed=11)
    config = learner.LearnerConfig(eta=0.2, eps=0.05, delta=0.1)
    clf, _ = harness.run_learning_trial(model, config, seed=12, test_n=1000)
    held = harness.massart_draw(model, 20_000, 13)
    return clf, held.base.points, held.labels


# -- exact helpers -----------------------------------------------------------

def test_rank_and_membership_are_exact_beyond_binary64():
    big = 2 ** 60
    rows = [(big + 1, big, 0)]
    assert checks.rank(rows, 3) == 1
    X = np.array([[3 * (big + 1), 3 * big, 0],      # on the line
                  [big + 2, big + 1, 0],            # a float cannot tell it apart
                  [0, 0, 1]], dtype=np.int64)
    assert checks.span_member_mask(rows, X).tolist() == [True, False, False]
    assert checks.rank([(1, 2, 3), (2, 4, 6), (0, 1, 1)], 3) == 2


def test_null_basis_is_orthogonal_to_the_rows():
    rows = [(1, 2, 3, 4), (0, 1, 5, 2)]
    N = checks.null_basis(rows, 4)
    assert len(N) == 2
    assert all(sum(a * b for a, b in zip(r, z)) == 0 for r in rows for z in N)


# -- decompositions ------------------------------------------------------------

def test_real_decomposition_passes(nested):
    X, dec = nested
    assert len(dec.pieces) >= 3
    assert checks.check_decomposition(X, dec.pieces, DELTA) == []


def _low_dim_piece(dec, d):
    return next(j for j, p in enumerate(dec.pieces)
                if p.subspace.dim < d and len(p.member_indices) >= 2)


def test_member_outside_its_subspace_is_rejected(nested):
    X, dec = nested
    j = _low_dim_piece(dec, X.shape[1])
    piece = dec.pieces[j]
    i = piece.member_indices[0]
    z = checks.null_basis(piece.subspace.int_rows, X.shape[1])[0]
    moved = X.copy()
    moved[i] = X[i] + np.array(z)    # same projection onto V, no longer in V
    # verify_piece projects members onto V, so it does not notice.
    assert transform.verify_piece(piece, PointSet(X.shape[1], moved)).passed
    problems = checks.check_decomposition(moved, dec.pieces, DELTA)
    assert any(f"member {i} lies outside V" in p for p in problems)


def test_dropped_member_is_rejected(nested):
    X, dec = nested
    pieces = list(dec.pieces)
    pieces[0] = dataclasses.replace(pieces[0],
                                    member_indices=pieces[0].member_indices[1:])
    problems = checks.check_decomposition(X, pieces, DELTA)
    assert "member indices do not partition the input" in problems


def test_piece_past_the_fraction_bound_is_rejected(nested):
    X, dec = nested
    first = dec.pieces[0]
    keep = first.member_indices[: max(1, len(first.member_indices) // 4)]
    rest = [i for i in first.member_indices if i not in keep]
    pieces = [dataclasses.replace(first, member_indices=keep)] + list(dec.pieces[1:])
    pieces.append(dataclasses.replace(dec.pieces[-1], member_indices=rest))
    problems = checks.check_decomposition(X, pieces, DELTA)
    assert any("rank(residual)" in p for p in problems)


# -- classifiers -----------------------------------------------------------------

def test_real_classifier_passes_and_agrees_with_fdc(trained):
    clf, X, y = trained
    stages = checks.stages_from_classifier(clf)
    err, problems = checks.check_error(stages, X, y, workloads.ERROR_BOUND)
    assert problems == []
    assert np.mean(checks.predict(stages, X) == clf.predict(X)) > 0.999
    doc = json.loads(json.dumps(learner.classifier_to_dict(clf)))
    assert np.array_equal(checks.predict(checks.stages_from_model(doc), X),
                          checks.predict(stages, X))


def test_negated_classifier_is_rejected(trained):
    clf, X, y = trained
    flipped = [(b, r, A, -w, t) for b, r, A, w, t in checks.stages_from_classifier(clf)]
    err, problems = checks.check_error(flipped, X, y, workloads.ERROR_BOUND)
    assert err > 0.5 and problems


# -- tracer and metric names -------------------------------------------------------

def test_tracer_restores_the_program_and_counts_repeat(nested):
    X, _ = nested
    original = linalg.jacobi_eigh
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            transform.forster_decompose(PointSet(X.shape[1], X), DELTA)
        finally:
            tracer.uninstall()
        m = tracing.metrics(tracer)
        counts.append({k: v for k, v in m.items() if tracing.METRICS[k][0] != "s"})
    assert linalg.jacobi_eigh is original
    assert counts[0] == counts[1]
    assert counts[0]["linalg.jacobi_calls"] > 0
    assert counts[0]["transform.pieces"] >= 3


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    per_layer.update({"trace.overhead_s": "s", "src.lines": "lines"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
