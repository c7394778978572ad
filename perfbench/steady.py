"""Run workloads repeatedly and print how steady each metric is.

    python3 perfbench/steady.py --workload flow --runs 5
    python3 perfbench/steady.py --workload flow kmedian --runs 10 --sets 2

Each run is one untraced ``perfbench/run.py`` process of ``run_seconds``
from ``BENCHMARK.json``, with its own ``--seed`` (consecutive from
``--seed``; a second set continues where the first ended). For every
end-to-end metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound from ``BENCHMARK.json``; with two
sets it also prints how far the second median lies from the first. Every
run's metrics are kept in ``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTDIR = os.path.join(ROOT, ".perfbench_out")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return dict(json.loads(out.stdout.strip().splitlines()[-1]), wall_s=time.perf_counter() - t0)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(OUTDIR, exist_ok=True)

    for workload in args.workload:
        sets = []
        for s in range(args.sets):
            seeds = range(args.seed + s * args.runs, args.seed + (s + 1) * args.runs)
            sets.append([dict(one_run(workload, seed, seconds), seed=seed) for seed in seeds])
        with open(os.path.join(OUTDIR, f"steady-{workload}.json"), "w") as fh:
            json.dump(sets, fh, indent=1)
        print(f"== {workload}: {args.sets} set(s) of {args.runs} runs, {seconds} s each")
        for s, runs in enumerate(sets):
            share = {(r["failed"], r["attempted"]) for r in runs}
            print(f"set {s + 1}: seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
                  f"all correct: {all(r['correct'] for r in runs)}, failed/attempted: {sorted(share)}, "
                  f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        print(f"{'metric':30s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name in sets[0][0]["metrics"]:
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, rel = spread(values)
                medians.append(med)
                print(f"{name:30s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
                      f"{bounds[name]:>6}")
            if len(medians) > 1:
                print(f"{'':30s} drift of set 2 from set 1: {medians[1] / medians[0] - 1:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
