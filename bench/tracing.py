"""Per-layer tracing for the benchmark's traced runs.

``Tracer.install`` replaces every module-level function of each fdc layer
with a timing wrapper, in every fdc module namespace that holds it (so
``jacobi_eigh`` is wrapped in ``linalg`` and in ``scaling``, ``heavy`` and
``transform``, which imported it), plus the few methods named in
``METHODS``.  ``Tracer.uninstall`` puts the originals back, so untraced
passes run the program untouched.

Spans are aggregated in memory per (caller span, callee) edge: calls, total
seconds and self seconds, where self time is a span's duration minus the
durations of the spans opened inside it.  ``metrics`` turns the aggregate
into the per-layer figures the benchmark reports.
"""

import functools
import sys
import time
import types

LAYERS = ("rng", "dataset", "exact", "linalg", "scaling", "heavy", "transform",
          "learner", "cli", "harness")

# Helpers that run once per row, per token or per JSON value; a span around
# each call would cost more than the work it measures.  Their time stays in
# the calling span, which belongs to the same layer.
UNWRAPPED = {"exact.row_gcd", "exact.primitive_row", "dataset._parse_int",
             "cli._fmt_json"}

# Methods traced in addition to module-level functions: name -> mode.
# "count" only counts calls (``IntSpan.contains`` runs once per row tested,
# inside heavy and exact spans that carry its time).
METHODS = {
    "exact.IntSpan.contains": "count",
    "learner.PartialClassifier.evaluate": "span",
}


def _add(counts, key, amount):
    counts[key] = counts.get(key, 0) + amount


def _oracle_count(args, kwargs):
    return args[0].count


def _hook_jacobi(c, args, kwargs, result, before):
    w = result[0]
    _add(c, "linalg.jacobi_matrices", w.size // max(w.shape[-1], 1))


def _hook_oracle(c, args, kwargs, result, before):
    _add(c, "scaling.oracle_rows", len(args[0]))


def _hook_fixed_point(c, args, kwargs, result, before):
    _add(c, "scaling.fixed_point_certified", result is not None)


def _hook_certify(c, args, kwargs, result, before):
    _add(c, "heavy.certify_proven", bool(result[0]))


def _hook_membership(c, args, kwargs, result, before):
    _add(c, "exact.membership_rows", len(result))


def _hook_piece(c, args, kwargs, result, before):
    _add(c, "transform.pieces", 1)


def _hook_learn(c, args, kwargs, result, before):
    _add(c, "learner.draws", args[0].count - before)
    _add(c, "learner.stages", len(result[0].stages))


def _hook_rejection(c, args, kwargs, result, before):
    _add(c, "learner.rejection_draws", args[0].count - before)
    if result is not None:
        _add(c, "learner.rejection_accepted", len(result[0]))


def _hook_evaluate(c, args, kwargs, result, before):
    _add(c, "learner.evaluate_rows", len(result))


def _hook_raw(c, args, kwargs, result, before):
    _add(c, "rng.values", len(result))


def _hook_ingest(c, args, kwargs, result, before):
    _add(c, "dataset.ingest_rows", result.n)


def _hook_write(c, args, kwargs, result, before):
    # The timestamp line's width varies from run to run; leave it out so the
    # count repeats exactly.
    with open(args[1], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    _add(c, "cli.write_bytes", sum(len(x) for x in lines if b'"timestamp"' not in x))


# name -> (before(args, kwargs) or None, after(counts, args, kwargs, result, before))
HOOKS = {
    "linalg.jacobi_eigh": (None, _hook_jacobi),
    "scaling.separation_oracle": (None, _hook_oracle),
    "scaling.fixed_point_scaling": (None, _hook_fixed_point),
    "heavy._certify_no_strict": (None, _hook_certify),
    "exact.membership_mask": (None, _hook_membership),
    "transform._forster_transform_once": (None, _hook_piece),
    "learner.learn_halfspace": (_oracle_count, _hook_learn),
    "learner._rejection_draw": (_oracle_count, _hook_rejection),
    "learner._rejection_draw_indexed": (_oracle_count, _hook_rejection),
    "learner.PartialClassifier.evaluate": (None, _hook_evaluate),
    "rng.raw_u64": (None, _hook_raw),
    "dataset.load_labeled": (None, _hook_ingest),
    "dataset.load_points": (None, _hook_ingest),
    "cli.dump_json": (None, _hook_write),
}


class Tracer:
    """Aggregating span recorder; one per traced pass."""

    def __init__(self):
        self.stack = [["<bench>", 0.0]]      # open spans: [name, child seconds]
        self.edges = {}                      # (caller, callee) -> [calls, total_s, self_s]
        self.counts = {}
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name):
        stack, edges, counts = self.stack, self.edges, self.counts
        before, after = HOOKS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (parent[0], name)
                e = edges.get(key)
                if e is None:
                    e = edges[key] = [0, 0.0, 0.0]
                e[0] += 1
                e[1] += dt
                e[2] += dt - frame[1]
            if after:
                after(counts, args, kwargs, result, state)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _add(counts, key, 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: sys.modules["fdc." + layer] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    wrapped[obj] = self._span(obj, f"{layer}.{attr}")
        for mod in list(modules.values()) + [sys.modules["fdc"]]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for qual, mode in METHODS.items():
            layer, cls_name, meth = qual.split(".")
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            make = self._span if mode == "span" else self._counter
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, make(fn, qual))

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # -- results -----------------------------------------------------------

    def per_name(self):
        """name -> [calls, total_s, self_s], summed over callers."""
        out = {}
        for (_, name), (calls, total, self_s) in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def spans(self):
        """The aggregated span edges as JSON-ready records."""
        return [
            {"caller": caller, "name": name, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (caller, name), (calls, total, self_s) in sorted(self.edges.items())
        ]


# Per-layer metrics: name -> (unit, better, how to read it from a traced pass).
def _calls(*names):
    return lambda by, c: sum(by.get(n, (0,))[0] for n in names)


def _self_s(*names):
    return lambda by, c: sum(by.get(n, (0, 0.0, 0.0))[2] for n in names)


def _count(key):
    return lambda by, c: c.get(key, 0)


def _ratio(num, den):
    def f(by, c):
        d = den(by, c)
        return num(by, c) / d if d else 0.0
    return f


def _layer_self(layer):
    prefix = layer + "."
    return lambda by, c: sum(v[2] for n, v in by.items() if n.startswith(prefix))


METRICS = {
    "linalg.jacobi_calls": ("count", "lower", _calls("linalg.jacobi_eigh")),
    "linalg.jacobi_matrices": ("count", "lower", _count("linalg.jacobi_matrices")),
    "linalg.jacobi_s": ("s", "lower", _self_s("linalg.jacobi_eigh")),
    "scaling.oracle_calls": ("count", "lower", _calls("scaling.separation_oracle")),
    "scaling.oracle_rows": ("count", "lower", _count("scaling.oracle_rows")),
    "scaling.oracle_s": ("s", "lower", _self_s("scaling.separation_oracle")),
    "scaling.fixed_point_calls": ("count", "lower", _calls("scaling.fixed_point_scaling")),
    "scaling.fixed_point_s": ("s", "lower", _self_s("scaling.fixed_point_scaling")),
    "scaling.fixed_point_certify_ratio": (
        "ratio", "higher",
        _ratio(_count("scaling.fixed_point_certified"),
               _calls("scaling.fixed_point_scaling"))),
    "heavy.find_calls": ("count", "lower", _calls("heavy.find_heavy_subspace")),
    "heavy.find_s": ("s", "lower", _self_s("heavy.find_heavy_subspace")),
    "heavy.enumerate_calls": ("count", "lower", _calls("heavy._enumerate_flats")),
    "heavy.enumerate_s": ("s", "lower", _self_s("heavy._enumerate_flats")),
    "heavy.certify_calls": ("count", "lower", _calls("heavy._certify_no_strict")),
    "heavy.certify_s": ("s", "lower", _self_s("heavy._certify_no_strict")),
    "heavy.certify_proven_ratio": (
        "ratio", "higher",
        _ratio(_count("heavy.certify_proven"), _calls("heavy._certify_no_strict"))),
    "heavy.hunt_calls": ("count", "lower", _calls("heavy._verified_candidates")),
    "heavy.hunt_s": ("s", "lower", _self_s("heavy._verified_candidates")),
    "exact.membership_calls": ("count", "lower", _calls("exact.membership_mask")),
    "exact.membership_rows": ("count", "lower", _count("exact.membership_rows")),
    "exact.membership_s": ("s", "lower", _self_s("exact.membership_mask")),
    "exact.contains_calls": ("count", "lower", _count("exact.IntSpan.contains.calls")),
    "transform.transform_calls": ("count", "lower", _calls("transform.forster_transform")),
    "transform.transform_s": (
        "s", "lower",
        _self_s("transform.forster_transform", "transform._forster_transform_once")),
    "transform.retries": (
        "count", "lower",
        lambda by, c: _calls("transform._forster_transform_once")(by, c)
        - _calls("transform.forster_transform")(by, c)),
    "transform.scale_first_s": ("s", "lower", _self_s("transform._scale_first_step")),
    "transform.pieces": ("count", "lower", _count("transform.pieces")),
    "transform.verify_s": ("s", "lower", _self_s("transform.verify_piece")),
    "learner.weak_calls": ("count", "lower", _calls("learner.weak_partial_learner")),
    "learner.weak_s": (
        "s", "lower",
        _self_s("learner.weak_partial_learner", "learner._band_select",
                "learner.outlier_bound")),
    "learner.rejection_s": (
        "s", "lower",
        _self_s("learner._rejection_draw", "learner._rejection_draw_indexed")),
    "learner.draws": ("count", "lower", _count("learner.draws")),
    "learner.accept_ratio": (
        "ratio", "higher",
        _ratio(_count("learner.rejection_accepted"), _count("learner.rejection_draws"))),
    "learner.evaluate_rows": ("count", "lower", _count("learner.evaluate_rows")),
    "learner.evaluate_s": ("s", "lower", _self_s("learner.PartialClassifier.evaluate")),
    "learner.stages": ("count", "lower", _count("learner.stages")),
    "rng.values": ("count", "lower", _count("rng.values")),
    "dataset.ingest_rows": ("count", "lower", _count("dataset.ingest_rows")),
    "dataset.ingest_s": (
        "s", "lower",
        _self_s("dataset.load_labeled", "dataset.load_points",
                "dataset._read_csv_rows", "dataset._rows_to_array")),
    "dataset.draw_s": (
        "s", "lower",
        _self_s("dataset.massart_draw", "dataset.draw_marginal",
                "dataset._draw_gaussian_grid", "dataset.eta_values")),
    "cli.write_bytes": ("bytes", "lower", _count("cli.write_bytes")),
    "cli.write_s": ("s", "lower", _self_s("cli.dump_json")),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.s"] = ("s", "lower", _layer_self(_layer))


def metrics(tracer):
    """Every per-layer metric of one traced pass, by name."""
    by = tracer.per_name()
    return {name: spec[2](by, tracer.counts) for name, spec in METRICS.items()}
