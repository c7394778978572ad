"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The run builds its inputs from ``--seed``, sets up (imports the
program and builds the instances through ``make_instance``), runs one
untimed warm-up operation, then repeats whole rounds of the workload's
operations for ``--seconds``, checking every output. With ``--trace 1``
untraced and traced rounds alternate; the traced ones give the per-layer
metrics and the pair gives the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
IMPORT_REPEATS = 3  # timed imports before the rounds, and again after
BUILD_REPEATS = 3
PROGRAM_MODULES = ("zeus_cluster", "zeus_cluster.graph", "zeus_cluster.zeus", "zeus_cluster.bench")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    + "; ".join(f"import {m}" for m in PROGRAM_MODULES)
    + "; print(time.perf_counter() - t)"
)


def import_program() -> None:
    """Import the program from the checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "zeus_cluster", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/zeus_cluster")
    sys.path.insert(0, SRC)
    for m in PROGRAM_MODULES:
        __import__(m)
    import zeus_cluster

    if not os.path.abspath(zeus_cluster.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: zeus_cluster imported from {zeus_cluster.__file__}")


def child_import_time() -> float:
    """Import time of the program in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True, env=env, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def load_program():
    import networkx
    import zeus_cluster.bench as bench
    import zeus_cluster.zeus as zeus
    from zeus_cluster.graph import make_instance
    from zeus_cluster.objectives import ObjectiveSpec, SlackVector

    from perfbench.workloads import Program

    return Program(zeus, bench, networkx, make_instance, ObjectiveSpec, SlackVector)


class Tally:
    """Per-operation outcomes of the measured rounds."""

    def __init__(self, first_costs: dict):
        self.times: dict[int, list[float]] = {}  # operation -> its timed repeats
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.costs: list[float] = []
        self.moves = 0
        self.violated = 0
        self.first_costs = first_costs  # operation -> costs of its first run
        self.errors: list[str] = []

    def run(self, ops, tracer=None, op_base=0) -> None:
        """One round: every operation once, timed alone, then checked."""
        from perfbench.checks import CheckFailed

        for i, (call, check) in enumerate(ops):
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.op = op_base + i
            try:
                t0 = time.perf_counter()
                out = call()
                took = time.perf_counter() - t0
            except Exception:  # the operation failed: count it and go on
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                continue
            try:
                res = check(out)
                seen = self.first_costs.setdefault(i, res.costs)
                if seen != res.costs:
                    raise CheckFailed(f"operation {i} gave {res.costs} after {seen}")
            except CheckFailed as exc:
                self.failed += 1
                self.wrong += 1
                self.errors.append(f"operation {i}: {exc}")
                continue
            self.times.setdefault(i, []).append(took)
            self.costs.extend(res.costs)
            self.moves += res.moves
            self.violated += res.violated

    def typical(self) -> list[float]:
        """Each operation's time as the fastest of its repeats. Other work
        on a shared machine only ever slows an operation down, so the
        fastest repeat is the one closest to the operation's own cost and
        the steadiest from run to run."""
        return [min(t) for t in self.times.values()]

    def all_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


def measure(workload, seconds: float, trace: bool, program):
    """Whole rounds for about ``seconds``: another round starts while at
    least half of one still fits, so the measured span ends within half a
    round of ``seconds``."""
    from perfbench import tracing

    ops = workload.operations()
    first_costs: dict[int, list[float]] = {}
    plain, traced = Tally(first_costs), Tally(first_costs)
    tracer = tracing.Tracer() if trace else None
    rounds = 0
    start = time.perf_counter()
    while True:
        plain.run(ops)
        if tracer is not None:
            with tracer.installed(tracing.targets(program)):
                traced.run(ops, tracer, op_base=rounds * len(ops))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            break
    return plain, traced, tracer


def percentile_line(times: list[float]) -> str:
    """Median over all timed operations, and the highest percentile with
    ten samples beyond it."""
    n = len(times)
    line = f"all {n} timed operations: p50 {statistics.median(times):.4f} s"
    if n >= 40:
        p = math.floor(100 * (n - 10) / n)
        line += f", p{p} {sorted(times)[math.ceil(p * n / 100) - 1]:.4f} s"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("flow", "kmedian", "compare"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    from perfbench import inputs, tracing, workloads

    program = load_program()
    os.makedirs(OUTDIR, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.size, OUTDIR)
    builds = []
    for _ in range(BUILD_REPEATS):
        instances = None
        gc.collect()
        t0 = time.perf_counter()
        instances = [inputs.build(program.make_instance, raw) for raw in wl.raws]
        builds.append(time.perf_counter() - t0)
    # One untimed import writes the bytecode cache, so every timed import
    # reads a warm cache whether or not an earlier run or test left one.
    child_import_time()
    imports = [child_import_time() for _ in range(IMPORT_REPEATS)]
    wl.prepare(program, instances)

    call, check = wl.warmup()
    check(call())
    plain, traced, tracer = measure(wl, args.seconds, bool(args.trace), program)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Imports timed on both sides of the rounds: the fastest is the one least
    # slowed by other work on the machine, which comes and goes in spells.
    imports += [child_import_time() for _ in range(IMPORT_REPEATS)]
    setup_s = min(imports) + min(builds)

    tallies = [plain, traced] if tracer is not None else [plain]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = not any(t.wrong for t in tallies)
    for err in (plain.errors + traced.errors)[:3]:
        print(f"FAILED: {err.strip()}", file=sys.stderr)
    if not plain.times or (tracer is not None and not traced.times):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    typical = plain.typical()
    base = len(typical) / sum(typical)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    print(percentile_line(plain.all_times()))
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s_p50": (statistics.median(typical), "s"),
            "ops_per_s": (base, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cost_gmean": (math.exp(statistics.fmean(math.log(c) for c in plain.costs)), "distance"),
        }
    else:
        ops = len(traced.all_times())
        rate = len(traced.times) / sum(traced.typical())
        layers = tracer.layer_metrics(ops)
        layers.update(
            {
                "graph.make_instance_s": min(builds),
                "zeus.local_search_moves": traced.moves / ops,
                "zeus.slack_violated_final": traced.violated / ops,
                "trace.ops_per_s": rate,
                "trace.overhead_ratio": base / rate,
            }
        )
        print(f"tracing overhead: untraced {base:.4f} ops/s / traced {rate:.4f} ops/s = {base / rate:.4f}")
        own = tracer.self_times()
        total = sum(own.values())
        print(f"self time per traced operation ({ops} operations, {total / ops:.4f} s each):")
        for name, t in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {t / ops:10.5f} s  {100 * t / total:5.1f} %")
        tracer.dump(os.path.join(OUTDIR, f"spans-{args.workload}-{args.seed}.json"))
        metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # BLAS on one thread; numpy is not loaded yet
    sys.path.insert(0, ROOT)
    sys.exit(main())
