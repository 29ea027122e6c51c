"""Regenerate the reference figures in README.md.

    python3 bench/reference.py [--seeds 1-10] [--seconds 20]

Runs ``run.py`` untraced on every workload once per seed, then traced once
per workload on the first seed, one process at a time.  Prints, per workload
and end-to-end metric, the median and the spread (distance between the first
and third quartile over the median, from ``statistics.quantiles(n=4)``),
then the per-layer metrics, and writes every run's result to
``bench/out/reference.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]

    results = {}
    for w in names:
        runs = [run_once(w, s, args.seconds, 0) for s in seeds]
        traced = run_once(w, seeds[0], args.seconds, 1)
        results[w] = {"untraced": runs, "traced": traced}
        ok = all(r["correct"] for r in runs + [traced])
        print(f"{w}: {len(runs)} runs, correct={ok}, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            print(f"  {m:12s} median {statistics.median(vals):10.4f} "
                  f"{runs[0]['metrics'][m]['unit']:3s} spread {spread(vals):.3f}")
        for m, v in traced["metrics"].items():
            if v["value"]:
                print(f"  {m:36s} {v['value']:.6g} {v['unit']}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
