"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from fdc import rng, scaling
from fdc.dataset import PointSet
from fdc.errors import Infeasible
from fdc.harness import general_position_model, run_learning_trial
from fdc.heavy import find_heavy_subspace
from fdc.learner import LearnerConfig
from fdc.linalg import span_of
from fdc.scaling import recheck_certificate, solve_scaling_sdp
from fdc.transform import forster_decompose, forster_transform, mapped_unit_rows, verify_piece
from tests.conftest import bit_independence_study, seeded_points
from tests.reference import brute_force_heavy_subspace, lp_heavy_subspace

pytestmark = pytest.mark.acceptance

DELTA = 1e-3


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def _no_heavy_instance(i):
    """Random integer set (d <= 8, n <= 200, b <= 20) with no heavy subspace."""
    for attempt in range(40):
        seed = rng.derive_seed(1001, i, attempt)
        d = 2 + i % 7
        n = min(200, d + 2 + (seed % 199))
        b = 2 + i % 19
        pts = seeded_points(d, n, max(2, 2 ** (b - 1) - 1), seed)
        if span_of(pts).dim < d:
            continue
        if not find_heavy_subspace(pts).found:
            return PointSet(d, pts)
    raise AssertionError("could not generate a heavy-free instance")


def _criterion2_instances():
    insts = []
    for i in range(500):
        seed = rng.derive_seed(2002, i)
        d = 2 + i % 3
        n = 1 + seed % 12
        bound = 1 + i % 3
        insts.append(seeded_points(d, n, bound, seed))
    # 50 handcrafted exact-threshold cases
    for i in range(50):
        seed = rng.derive_seed(2003, i)
        k = 2 + i % 3                       # ambient dim 2..4
        kappa = 1 + i % max(1, k - 1)       # heavy flat dimension
        reps = 1 + i % 3
        n = k * reps                        # so the threshold is exact
        cnt = kappa * reps                  # points inside the flat
        pts = np.zeros((n, k), dtype=np.int64)
        fill = seeded_points(k, n, 3, seed)
        pts[:] = fill
        for j in range(cnt):                # flat = span(e_1..e_kappa)
            pts[j, kappa:] = 0
            if not pts[j, :kappa].any():
                pts[j, j % kappa] = 1
        insts.append(pts)
    return insts


def _criterion4_point_set(i):
    seed = rng.derive_seed(4004, i)
    d = 2 + i % 9
    n = 10 + seed % 491
    kind = i % 3
    pts = seeded_points(d, n, 40, seed)
    if kind == 1 and d >= 2:
        # plant a strictly heavy flat spanned by the first kappa coordinates
        kappa = 1 + seed % max(1, d - 1)
        q = min(n, (kappa * n) // d + 1 + seed % 5)
        pts[:q, kappa:] = 0
        zero = ~pts[:q, :kappa].any(axis=1)
        pts[:q][zero, 0] = 1
    elif kind == 2:
        # proportional clusters: rescale some rows to repeat directions
        m = max(2, n // 8)
        pts[:m] = pts[0] * (1 + np.arange(m, dtype=np.int64))[:, None]
    if span_of(pts).dim < 1:
        pts[0, 0] = 1
    return PointSet(d, pts)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_forster_certificate():
    worst_dist, worst_time = 0.0, 0.0
    for i in range(200):
        S = _no_heavy_instance(i)
        t0 = time.perf_counter()
        piece = forster_transform(S, DELTA)
        elapsed = time.perf_counter() - t0
        report = verify_piece(piece, S)
        assert elapsed < 10.0, f"instance {i} took {elapsed:.1f}s"
        assert report.distance <= DELTA, f"instance {i}: distance {report.distance}"
        assert abs(report.trace - 1.0) <= 1e-10
        worst_dist = max(worst_dist, report.distance)
        worst_time = max(worst_time, elapsed)
    _report(
        "criterion 1 (Forster certificate, 200 instances)",
        True,
        f"max spectral distance {worst_dist:.2e} <= {DELTA}, max time {worst_time:.2f}s < 10s",
    )


def test_criterion_2_heavy_subspace_exactness():
    disagreements = 0
    checked = 0
    lp_checked = 0
    for idx, pts in enumerate(_criterion2_instances()):
        auto = find_heavy_subspace(pts)
        brute = brute_force_heavy_subspace(pts)
        checked += 1
        if auto.found != brute.found:
            disagreements += 1
            continue
        if auto.found:
            k = span_of(pts).dim
            assert auto.subspace.dim < k
            assert len(auto.member_indices) * k >= auto.subspace.dim * len(pts)
        # cutting-plane engine coherence on a bounded subsample
        if idx % 25 == 0 and len(pts) <= 8 and span_of(pts).dim == pts.shape[1]:
            lp = lp_heavy_subspace(pts)
            assert lp.found == auto.found, f"LP engine disagrees on instance {idx}"
            lp_checked += 1
    _report(
        "criterion 2 (heavy-subspace exactness, 550 instances)",
        disagreements == 0,
        f"{checked} instances, {disagreements} disagreements, "
        f"{lp_checked} cutting-plane cross-checks",
    )


def test_criterion_3_scaling_certificates():
    four = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    emitted = []
    w = solve_scaling_sdp(four, DELTA)
    emitted.append((four, w))
    normalized = w.c_sq / w.c_sq.min()
    hand_ok = np.allclose(normalized, [2.0, 2.0, 1.0, 1.0], rtol=0.01)
    w_ell = scaling._newton_scaling(four, 0.05, np.ones(4))  # Newton path
    emitted.append((four, w_ell))
    solved = 0
    for i in range(60):
        pts = seeded_points(2 + i % 3, 4 + i % 7, 8, rng.derive_seed(3003, i)).astype(float)
        try:
            ws = solve_scaling_sdp(pts, DELTA)
        except Infeasible:
            continue
        emitted.append((pts, ws))
        solved += 1
        if solved >= 30:
            break
    for i in range(20):
        S = _no_heavy_instance(3 * i)
        piece = forster_transform(S, DELTA)
        member_pts = S.points[piece.member_indices].astype(float)
        emitted.append((member_pts, piece.weights))
    failures = [
        (i, worst, thr)
        for i, (pts, ws) in enumerate(emitted)
        for ok, worst, thr in [recheck_certificate(pts, ws)]
        if not ok
    ]
    _report(
        "criterion 3 (scaling-weight certificates)",
        hand_ok and not failures,
        f"hand solution {normalized.round(4).tolist()} (target [2,2,1,1] +-1%), "
        f"{len(emitted)} emitted weight sets recheck clean, failures={failures[:3]}",
    )


def test_criterion_4_decomposition_structure():
    worst_pieces = 0
    for i in range(100):
        S = _criterion4_point_set(i)
        dec = forster_decompose(S, DELTA)
        covered = sorted(j for p in dec.pieces for j in p.member_indices)
        assert covered == list(range(S.n)), f"instance {i}: not a partition"
        bound = S.dim * (math.ceil(math.log(S.n)) + 1)
        assert len(dec.pieces) <= bound, f"instance {i}: {len(dec.pieces)} > {bound}"
        for piece in dec.pieces:
            rep = verify_piece(piece, S)
            assert rep.passed, f"instance {i}: piece failed ({rep})"
        worst_pieces = max(worst_pieces, len(dec.pieces))
    _report(
        "criterion 4 (decomposition structure, 100 instances)",
        True,
        f"partitions exact, certificates pass, max pieces {worst_pieces}",
    )


def test_criterion_5_anti_concentration():
    rnd = np.random.RandomState(55)
    violations = 0
    pieces = 0
    for i in range(25):
        S = _criterion4_point_set(4 * i)
        dec = forster_decompose(S, DELTA)
        for piece in dec.pieces:
            k = piece.subspace.dim
            coords = S.points[piece.member_indices].astype(float) @ piece.subspace.basis
            f = mapped_unit_rows(piece.transform, coords)
            pieces += 1
            for _ in range(100):
                v = rnd.randn(k)
                v /= np.linalg.norm(v)
                frac = float(np.mean((f @ v) ** 2 >= 1.0 / (2 * k)))
                if frac < 1.0 / (2 * k) - 2 * DELTA:
                    violations += 1
    _report(
        "criterion 5 (anti-concentration)",
        violations == 0,
        f"{pieces} pieces x 100 directions, {violations} violations",
    )


def test_criterion_6_learning_guarantee():
    eta, eps = 0.2, 0.05
    config = LearnerConfig(eta=eta, eps=eps, delta=0.1)
    target = eta + eps + 0.02
    successes = 0
    errors = []
    for i in range(20):
        model = general_position_model(10, 400, eta, seed=rng.derive_seed(6006, i))
        t0 = time.perf_counter()
        _, report = run_learning_trial(model, config, seed=rng.derive_seed(6007, i),
                                       test_n=100_000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"run {i} took {elapsed:.0f}s"
        errors.append(report.final_error)
        if report.final_error <= target:
            successes += 1
    _report(
        "criterion 6 (learning guarantee, 20 seeds)",
        successes >= 18,
        f"{successes}/20 runs with error <= {target}; "
        f"errors min/med/max = {min(errors):.3f}/{sorted(errors)[10]:.3f}/{max(errors):.3f}",
    )


def test_criterion_7_bit_complexity_independence():
    rows = bit_independence_study(10, [16, 32, 48], 0.2, 0.05, trials=10,
                                  seed=7007, n_support=400, test_n=100_000)
    by_b = {}
    for r in rows:
        by_b.setdefault(r["b"], []).append(r)
    means = {b: float(np.mean([r["error"] for r in rs])) for b, rs in by_b.items()}
    spread = max(means.values()) - min(means.values())
    draws = {b: [r["draws"] for r in sorted(rs, key=lambda x: x["trial"])]
             for b, rs in by_b.items()}
    draws_equal = draws[16] == draws[32] == draws[48]
    _report(
        "criterion 7 (bit-complexity independence)",
        spread <= 0.02 and draws_equal,
        f"mean errors {({b: round(m, 4) for b, m in means.items()})}, "
        f"spread {spread:.2e} <= 0.02, draws identical across b: {draws_equal}",
    )


def test_criterion_8_equivariance_suite():
    checked = 0
    for i in range(50):
        seed = rng.derive_seed(8008, i)
        if i < 35:
            d = 2 + i % 3
            pts = seeded_points(d, 3 + seed % 10, 2, seed)
        else:
            d = 3 + i % 4
            pts = seeded_points(d, 20 + seed % 40, 30, seed)
        T = np.eye(d, dtype=np.int64)
        for r in range(d - 1):          # unimodular upper-triangular
            T[r, r + 1] = 1 + (seed + r) % 3
        scales = (seeded_points(1, pts.shape[0], 2, seed + 1)[:, 0] % 3 + 1)
        variants = [pts * scales[:, None].astype(np.int64), pts @ T.T]

        base = find_heavy_subspace(pts)
        for var in variants:
            other = find_heavy_subspace(var)
            assert other.found == base.found, f"instance {i}: decision changed"
            if base.found:
                assert other.member_indices == base.member_indices, f"instance {i}"
        base_dec = [p.member_indices for p in forster_decompose(PointSet(d, pts), DELTA).pieces]
        for var in variants:
            dec = [p.member_indices for p in forster_decompose(PointSet(d, var), DELTA).pieces]
            assert dec == base_dec, f"instance {i}: decomposition changed"
        checked += 1
    _report(
        "criterion 8 (equivariance suite, 50 instances)",
        checked == 50,
        f"{checked} instances invariant under per-point rescaling and unimodular maps",
    )
