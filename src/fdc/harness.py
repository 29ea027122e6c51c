"""Experiment harness: the Massart model's example oracle and its counting
wrapper, general-position models, and seeded learning trials.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .dataset import (
    EtaSpec,
    MassartModel,
    PointSet,
    _draw_gaussian_grid,
    massart_draw,
    massart_draw_rows,
)
from .learner import learn_halfspace, score_partial


def general_position_model(dim, n_support, eta, seed, bits=10, eta_kind="constant"):
    """Massart model whose marginal is uniform over a random general-position
    integer support (discretized gaussian grid)."""
    idx = np.arange(n_support, dtype=np.uint64)
    X = _draw_gaussian_grid(seed, idx, dim, scale=float(2 ** (bits - 2)), bits=bits)
    support = PointSet(dim, X)
    w = rng.normals(seed, 99, np.arange(1, dtype=np.uint64), cols=dim)[0]
    w /= np.linalg.norm(w)
    spec = EtaSpec(eta_kind, value=eta) if eta_kind == "constant" else EtaSpec(eta_kind)
    return MassartModel(w, eta, spec, support)


class ModelOracle:
    """Sequential example oracle over a MassartModel; single consumer.

    Draw i is a pure function of (seed, i), so the draw sequence is
    reproducible and independent of batching.  ``draw_indexed(n)`` returns
    the support rows of the next n draws and their counter range of draw
    indices, and ``labels_for`` takes the accepted draws' share of that
    tuple, so the learner evaluates classifiers once per support row instead
    of once per draw.  ``draw(n)`` returns the next n draws' points and
    labels, the same (x, y) stream.
    """

    def __init__(self, model, seed):
        self.model = model
        self.seed = seed
        self.count = 0
        self.index = np.arange(model.support.n)  # draws are support rows

    @property
    def support(self):
        return self.model.support.points

    def draw(self, n):
        ds = massart_draw(self.model, n, self.seed, start_index=self.count)
        self.count += n
        return ds.base.points, ds.labels

    def draw_indexed(self, n):
        gidx = range(self.count, self.count + n)
        self.count += n
        rows, _ = massart_draw_rows(self.model, self.seed, gidx, labeled=False)
        return rows, gidx

    def labels_for(self, rows, gidx):
        """Labels of the draws ``gidx`` that hit support rows ``rows``."""
        return massart_draw_rows(self.model, self.seed, gidx, rows=rows)[1]


class CountingOracle:
    """Wraps an oracle and audits the number of examples drawn."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    @property
    def support(self):
        return self.inner.support

    @property
    def index(self):
        return self.inner.index

    def draw_indexed(self, n):
        self.count += n
        return self.inner.draw_indexed(n)

    def labels_for(self, *drawn):
        return self.inner.labels_for(*drawn)


@dataclass
class TrialReport:
    telemetry: list
    final_error: float
    coverage: float
    sample_count: int


def run_learning_trial(model, config, seed, test_n=100_000):
    """One seeded learning run with draw accounting and held-out evaluation.

    The draw count is double-entry audited: the inner oracle advances its own
    counter per example and the wrapper counts independently; the two must
    agree exactly.  The test_n held-out draws are not learning draws and are
    not counted.  They are scored per support row: the classifier evaluates
    each support row once, and each draw takes its row's label, the same
    (x, y) stream and report as scoring ``massart_draw``'s points one by one.
    """
    if test_n < 1:
        raise ValueError("test_n must be >= 1")
    inner = ModelOracle(model, rng.derive_seed(seed, 1))
    oracle = CountingOracle(inner)
    classifier, telemetry = learn_halfspace(oracle, config, dim=model.dim)
    if inner.count != oracle.count:
        raise AssertionError(
            f"draw audit mismatch: oracle consumed {inner.count}, wrapper saw {oracle.count}"
        )
    rows, y = massart_draw_rows(model, rng.derive_seed(seed, 2), range(test_n))
    partial = classifier.evaluate(model.support.points)[rows]
    report = score_partial(partial, y, classifier.default_label)
    return classifier, TrialReport(
        telemetry=telemetry,
        final_error=report.total_error,
        coverage=report.coverage,
        sample_count=oracle.count,
    )
