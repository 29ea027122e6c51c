"""fdc benchmark: one workload, measured for a fixed time, checked, reported.

    python3 bench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run repeats whole passes over the workload's
operations until ``--seconds`` of passes have run, and reports the
end-to-end metrics.  With ``--trace 1`` it alternates an untraced pass and a
traced pass (see ``tracing.py``) for the same time, and reports the per-layer
metrics of the traced passes plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details and reference figures are in README.md.
"""

import os
import time

T0 = time.perf_counter()  # set-up time starts before numpy and fdc are imported

# One BLAS thread: fdc's matrices are at most 10 x 10 or thin, and pool
# threads only add scheduling noise on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import fdc from this checkout's src/; on failure exit 1, no result."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import fdc
        import tracing
        import workloads  # imports every fdc layer the tracer wraps
    except ImportError as exc:
        sys.exit(f"bench: cannot import fdc from {SRC}: {exc}")
    if not os.path.abspath(fdc.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported fdc from {fdc.__file__}, not from {SRC}")
    return workloads, tracing


def peak_rss_mb():
    """High-water resident set size of this process.

    ``ru_maxrss`` also counts the parent's resident set at fork time, so a
    large launcher would leak into it; Linux's VmHWM covers this process's
    own memory map only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def src_lines():
    pkg = os.path.join(SRC, "fdc")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


class Runner:
    """Runs passes of one workload and keeps what the report needs."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.operations()
        self.reference = {}   # operation index -> fingerprint of its first output
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self):
        """One pass over every operation; returns its wall time in seconds."""
        total = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # a failed operation is counted, not fatal
                total += time.perf_counter() - t0
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            total += dt
            self.op_times.append(dt)
            self._check(i, out)
        return total

    def _check(self, i, out):
        fp = self.workload.fingerprint(out)
        if i not in self.reference:
            self.reference[i] = fp
            for p in self.workload.check(i, out):
                self.problems.append(f"operation {i}: {p}")
        elif fp != self.reference[i]:
            self.problems.append(f"operation {i}: output changed between passes")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, tracing = import_program()
    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - t0)
        runner = Runner(workload)
        if args.trace:
            metrics = traced_run(runner, args, tracing, out_dir)
        else:
            passes = []
            while sum(passes) < args.seconds:
                passes.append(runner.run_pass())
            values = {
                "setup_s": import_s + statistics.median(builds),
                "run_s": statistics.median(passes),
                "op_p50_s": statistics.median(runner.op_times),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    for p in runner.problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


def traced_run(runner, args, tracing, out_dir):
    """After one warm-up pass, alternate untraced and traced passes; return
    the per-layer metrics of the traced ones.  Counts must repeat exactly
    between traced passes."""
    plain, traced, per_pass = [], [], []
    first_spans = None
    runner.run_pass()  # warm-up, so that one-time costs do not land on either side
    while sum(plain) + sum(traced) < args.seconds:
        plain.append(runner.run_pass())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        per_pass.append(tracing.metrics(tracer))
        if first_spans is None:
            first_spans = tracer.spans()

    values = {}
    for name, (unit, _, _) in tracing.METRICS.items():
        series = [m[name] for m in per_pass]
        if unit == "s":
            values[name] = statistics.median(series)
        else:
            if any(v != series[0] for v in series):
                runner.problems.append(f"{name} differs between traced passes: {series}")
            values[name] = series[0]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["src.lines"] = src_lines()
    units = {name: spec[0] for name, spec in tracing.METRICS.items()}
    units.update({"trace.overhead_s": "s", "src.lines": "lines"})

    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "traced_pass_s": traced, "untraced_pass_s": plain,
                   "spans": first_spans, "metrics": values}, fh, indent=1)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


if __name__ == "__main__":
    main()
