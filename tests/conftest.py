import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fdc import rng
from fdc.dataset import PointSet, _write_csv, gen_hard_instance
from fdc.harness import run_learning_trial
from fdc.learner import LearnerConfig
from fdc.linalg import Subspace


def seeded_points(dim, n, coord_bound, seed, tag=77):
    """Random integer points, no zero rows, deterministic in seed."""
    flat = np.arange(n * dim, dtype=np.uint64)
    X = (rng.integers(seed, tag, flat, 2 * coord_bound + 1) - coord_bound)
    X = X.reshape(n, dim).astype(np.int64)
    zero = ~X.any(axis=1)
    X[zero, 0] = 1
    return X


def seeded_point_set(dim, n, coord_bound, seed):
    return PointSet(dim, seeded_points(dim, n, coord_bound, seed))


def full_space(d):
    return Subspace(d, np.eye(d), int_rows=[tuple(row) for row in np.eye(d, dtype=int).tolist()])


def save_points_csv(path, point_set):
    _write_csv(path, point_set.points)


def bit_independence_study(dim, bits_list, eta, eps, trials, seed, delta=0.1,
                           n_support=400, test_n=100_000, config_kwargs=None):
    """Learning error under a fixed (b-independent) sample budget as the bit
    complexity of paired hard instances grows.

    For each b the instance shares its direction seed across the b column, so
    only per-point scales differ; the learner's budget comes from
    LearnerConfig alone.  Returns one row per (b, trial), b-major, with keys
    b, trial, error, coverage, draws and seconds; trials run on one worker
    per core (per-trial seeds, merged deterministically).
    """

    def one_cell(b, trial):
        model, _ = gen_hard_instance(dim, n_support, b, eta,
                                     rng.derive_seed(seed, trial))
        config = LearnerConfig(eta=eta, eps=eps, delta=delta,
                               **(config_kwargs or {}))
        t0 = time.perf_counter()
        _, report = run_learning_trial(model, config,
                                       rng.derive_seed(seed, trial, 7),
                                       test_n=test_n)
        return {
            "b": b,
            "trial": trial,
            "error": report.final_error,
            "coverage": report.coverage,
            "draws": report.sample_count,
            "seconds": time.perf_counter() - t0,
        }

    cells = [(b, trial) for b in bits_list for trial in range(trials)]
    workers = min(os.cpu_count() or 1, max(1, len(cells)))
    if workers == 1:
        return [one_cell(b, t) for b, t in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bt: one_cell(*bt), cells))


@pytest.fixture
def rng_np():
    return np.random.RandomState(0)
