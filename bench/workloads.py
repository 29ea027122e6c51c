"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload builds its inputs from the seed (``build``, the timed set-up),
lists its operations (``operations``: zero-argument callables, run in order
once per pass), checks one operation's output with the independent checks in
``checks`` (``check``, on the first pass), and reduces an output to a value
that must repeat exactly on every later pass (``fingerprint``).

fdc is called through module attributes (``transform.forster_decompose``),
so the wrappers a traced pass installs see every call.
"""

import contextlib
import functools
import io
import json
import os
import re

import numpy as np

import checks
from fdc import cli, dataset, harness, learner, transform

DELTA = 1e-3                  # decomposition relaxation, as in criteria 1-5
ETA, EPS, CONF = 0.2, 0.05, 0.1
ERROR_BOUND = ETA + EPS + 0.02  # the learning guarantee as criterion 6 pins it


def derived_seed(seed, *parts):
    """A 63-bit seed for one purpose, a pure function of (seed, parts)."""
    ss = np.random.SeedSequence([seed & (2 ** 64 - 1), *parts])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _coords(g, n, d, bound):
    X = g.integers(-bound, bound + 1, size=(n, d))
    X[~X.any(axis=1), 0] = 1
    return X


def general_set(g, d, n):
    """Uniform integer points in [-40, 40]^d."""
    return _coords(g, n, d, 40)


def planted_set(g, d, n, kappa):
    """A strictly heavy flat: the first kappa*n/d + 2 points lie in the span
    of the first kappa coordinate axes."""
    X = _coords(g, n, d, 40)
    q = (kappa * n) // d + 2
    X[:q, kappa:] = 0
    X[np.nonzero(~X[:q].any(axis=1))[0], 0] = 1
    return X


def clusters_set(g, d, n):
    """Proportional clusters: the first n/8 points are multiples of one."""
    X = _coords(g, n, d, 40)
    m = max(2, n // 8)
    X[:m] = X[0] * (1 + np.arange(m))[:, None]
    return X


def nested_set(g, d, n):
    """Nested flats: half the points on a line, half of the rest on a plane
    containing it, and so on up a random integer frame."""
    frame = _coords(g, d, d, 3)
    while np.linalg.matrix_rank(frame) < d:
        frame = _coords(g, d, d, 3)
    X = np.empty((n, d), dtype=np.int64)
    start, level = 0, 1
    while start < n:
        cnt = (n - start) // 2 if level < d else n - start
        cnt = max(cnt, 1)
        X[start:start + cnt] = _coords(g, cnt, level, 40) @ frame[:level]
        start += cnt
        level += 1
    return X


FAMILIES = {"general": general_set, "planted": planted_set,
            "clusters": clusters_set, "nested": nested_set}

# (family, d, n[, kappa]); each is drawn COPIES times with its own stream.
# Small sets keep every decomposition near a third of a second, so a pass
# holds many of them and its time varies little from seed to seed.
DECOMPOSE_SPECS = [
    ("general", 10, 150), ("general", 6, 400),
    ("planted", 7, 30, 3), ("planted", 5, 60, 2), ("planted", 8, 30, 4),
    ("clusters", 8, 40), ("clusters", 10, 30),
    ("nested", 6, 40), ("nested", 8, 36), ("nested", 10, 24),
]
COPIES = 2


class Decompose:
    """forster_decompose at delta = 1e-3, then verify_piece on every piece."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def build(self):
        self.sets = []
        for j, (family, *shape) in enumerate(DECOMPOSE_SPECS):
            for r in range(COPIES):
                g = np.random.default_rng([self.seed & (2 ** 64 - 1), j, r])
                X = FAMILIES[family](g, *shape)
                self.sets.append(dataset.PointSet(X.shape[1], X))

    def operations(self):
        return [functools.partial(self._op, S) for S in self.sets]

    @staticmethod
    def _op(S):
        dec = transform.forster_decompose(S, DELTA)
        return dec, [transform.verify_piece(p, S).passed for p in dec.pieces]

    def check(self, i, out):
        dec, verified = out
        problems = checks.check_decomposition(self.sets[i].points, dec.pieces, DELTA)
        if not all(verified):
            problems.append("verify_piece rejected a piece")
        return problems

    @staticmethod
    def fingerprint(out):
        dec, verified = out
        return [(p.member_indices, p.certificate) for p in dec.pieces], verified


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

class Learn:
    """harness.run_learning_trial in the criterion-6 setting (d = 10,
    eta = 0.2, eps = 0.05, delta = 0.1, 400-row general-position support)."""

    TRIALS = 3
    HOLDOUT = 100_000

    def __init__(self, seed, workdir):
        self.seed = seed

    def build(self):
        self.config = learner.LearnerConfig(eta=ETA, eps=EPS, delta=CONF)
        self.models = [
            harness.general_position_model(10, 400, ETA,
                                           seed=derived_seed(self.seed, 1, j))
            for j in range(self.TRIALS)
        ]

    def operations(self):
        return [functools.partial(self._op, j) for j in range(self.TRIALS)]

    def _op(self, j):
        with audited_draws(harness, "ModelOracle", ("draw", "draw_indexed")) as tally:
            clf, report = harness.run_learning_trial(
                self.models[j], self.config, seed=derived_seed(self.seed, 2, j))
        return j, clf, report, sum(tally)

    def check(self, i, out):
        j, clf, report, tallied = out
        problems = []
        if tallied != report.sample_count:
            problems.append(f"draw audit: oracle saw {tallied}, "
                            f"trial reported {report.sample_count}")
        held = dataset.massart_draw(self.models[j], self.HOLDOUT,
                                    derived_seed(self.seed, 3, j))
        _, errs = checks.check_error(checks.stages_from_classifier(clf),
                                     held.base.points, held.labels, ERROR_BOUND,
                                     clf.default_label)
        return problems + errs

    @staticmethod
    def fingerprint(out):
        j, clf, report, tallied = out
        stages = [(s.w.tobytes(), float(s.threshold)) for s in clf.stages]
        return j, report.sample_count, tallied, report.final_error, stages


# ---------------------------------------------------------------------------
# learn-cli
# ---------------------------------------------------------------------------

class LearnCli:
    """``fdc learn`` then ``fdc eval`` on a file written by ``fdc gen``, all
    through ``fdc.cli.run`` in this process.  Each operation is one learn +
    eval pair on its own file.  How many stages learning builds, and so its
    time, depends mostly on the file, so a pass covers two files."""

    ROWS = 100_000
    FILES = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._rows = {}

    def _paths(self, j):
        return tuple(os.path.join(self.workdir, f"{stem}-{j}.{ext}")
                     for stem, ext in (("train", "csv"), ("model", "json"),
                                       ("eval", "json")))

    def build(self):
        for j in range(self.FILES):
            _cli(["gen", "--marginal", "hard", "--dim", "10", "--n", str(self.ROWS),
                  "--bits", "48", "--eta", str(ETA),
                  "--seed", str(derived_seed(self.seed, 1, j)),
                  "--out", self._paths(j)[0]])

    def operations(self):
        return [functools.partial(self._op, j) for j in range(self.FILES)]

    def _op(self, j):
        data, model, scores = self._paths(j)
        with audited_draws(cli, "DatasetOracle", ("draw_indexed",)) as tally:
            learned = _cli(["learn", "--train-oracle", data, "--eta", str(ETA),
                            "--eps", str(EPS), "--delta", str(CONF),
                            "--seed", str(derived_seed(self.seed, 2, j)),
                            "--out", model])
        _cli(["eval", "--model", model, "--test", data, "--out", scores])
        return j, learned, sum(tally)

    def _outputs(self, j):
        docs = []
        for path in self._paths(j)[1:]:
            with open(path) as fh:
                doc = json.load(fh)
            doc.pop("timestamp")
            docs.append(doc)
        return docs

    def check(self, i, out):
        j, learned, tallied = out
        problems = []
        printed = int(re.search(r"\((\d+) oracle draws\)", learned).group(1))
        if printed != tallied:
            problems.append(f"draw audit: fdc learn reported {printed}, "
                            f"the oracle saw {tallied}")
        model, scores = self._outputs(j)
        if scores["total_error"] > ERROR_BOUND:
            problems.append(f"fdc eval error {scores['total_error']:.4f} "
                            f"exceeds {ERROR_BOUND:.4f}")
        if j not in self._rows:
            self._rows[j] = np.loadtxt(self._paths(j)[0], delimiter=",",
                                       dtype=np.int64)
        rows = self._rows[j]
        _, errs = checks.check_error(checks.stages_from_model(model),
                                     rows[:, :-1], rows[:, -1],
                                     ERROR_BOUND, model["default_label"])
        return problems + errs

    def fingerprint(self, out):
        j, learned, tallied = out
        model, scores = self._outputs(j)
        return j, learned, tallied, json.dumps(model, sort_keys=True), scores


WORKLOADS = {"decompose": Decompose, "learn": Learn, "learn-cli": LearnCli}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

class CliFailed(RuntimeError):
    pass


def _cli(argv):
    """Run one fdc verb in-process; return its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code != 0:
        raise CliFailed(f"fdc {argv[0]} exited with {code}: {buf.getvalue()!r}")
    return buf.getvalue()


@contextlib.contextmanager
def audited_draws(module, name, methods):
    """Swap ``module.name`` for a subclass that tallies, apart from the
    oracle's own counter, the examples requested through ``methods``.

    Yields the list of request sizes.
    """
    base = getattr(module, name)
    tally = []

    def tallying(meth):
        def draw(self, n):
            tally.append(n)
            return meth(self, n)
        return draw

    audited = type(name, (base,), {m: tallying(getattr(base, m)) for m in methods})
    setattr(module, name, audited)
    try:
        yield tally
    finally:
        setattr(module, name, base)
