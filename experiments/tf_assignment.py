"""Check and time the makeshifts and the MOC baseline behind the benchmark's workloads.

Four reports, each printed as one JSON object:

``grid``
    ``balanced_kcenter`` and the ``tf,kc`` (slack 1, 3) and ``tf,km``
    (slack 1, 5) pipelines on ``generate_instance("tf", n, seed)`` for
    n in 20, 200 and 850, seeds 0-4, k = 1..20, the lowest-id and the
    seeded first center, and balance radius multipliers 1, 1.5 and 4:
    one record per call, 5400 in all, with the centers, assignment and
    radius, or the clustering and the trace without ``elapsed_ms``, or
    the error's class name. Prints their count and sha256.
``flow``
    The cells of the benchmark's ``flow`` workload at the given seeds,
    built as ``perfbench/workloads.py`` builds them, each run once through
    ``zeus_run``. Prints the sha256 of every cell's clustering and trace
    without ``elapsed_ms``, and for every ``tf`` cell the time of its
    ``_balanced_assignment`` calls, each the best of ``--repeats``.
``kmedian``
    The same for the cells of the ``kmedian`` workload (``rs,km`` and
    ``f,km``): the sha256 of their clusterings and traces, and the
    time of every ``_kmedian_swap_centers`` and ``makeshift_rs`` call,
    each the best of ``--repeats``, as a count, total, median and slowest
    call per function.
``compare``
    The ``compare`` workload's ``run_experiment`` at the given seeds,
    built as ``perfbench/workloads.py`` builds it: the sha256 of every
    record without ``wall_ms`` and trace ``elapsed_ms``, and the time of
    every ``baseline_moc_path`` call, each the best of ``--repeats``. Then
    one ``rs,kc`` MOC pass for k = 2..6 on ``generate_instance("rs", 1000,
    0)``, its clusterings' sha256 and its best-of-``--repeats`` time.

Two trees give the same outputs on a grid when their digests agree. Run
from the root of a checkout; ``--src`` takes the program from another
tree (say, a copy of the parent commit), while the workload definitions
always come from this checkout's ``perfbench``:

    python experiments/tf_assignment.py grid
    python experiments/tf_assignment.py flow --seeds 1-40 --repeats 5
    python experiments/tf_assignment.py flow --src ../parent/src
    python experiments/tf_assignment.py kmedian --seeds 1-40 --repeats 7
    python experiments/tf_assignment.py compare --seeds 1-20 --repeats 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    """``1-40`` or ``4,8,15`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _trace_lines(C, state, clustering_to_json, H) -> list[str]:
    lines = [clustering_to_json(H, C)]
    for entry in state.trace:
        entry = dict(entry)
        entry.pop("elapsed_ms", None)
        lines.append(json.dumps(entry, sort_keys=True))
    return lines


def grid() -> dict:
    from zeus_cluster.errors import ZeusError
    from zeus_cluster.makeshifts import MakeshiftOptions, balanced_kcenter
    from zeus_cluster.objectives import ObjectiveSpec, SlackVector, clustering_to_json
    from zeus_cluster.synth import generate_instance
    from zeus_cluster.zeus import ProblemSpec, zeus_run

    pipelines = (("tf,kc", (1, 3)), ("tf,km", (1, 5)))
    digest, count = hashlib.sha256(), 0
    for n in (20, 200, 850):
        for seed in range(5):
            H = generate_instance("tf", n, seed)
            X = {u for u in range(n) if H.experts[u]}
            for k in range(1, 21):
                for first_seed in (None, seed):
                    for mult in (1, 1.5, 4):
                        opts = MakeshiftOptions(seed=first_seed, balance_radius_multiplier=mult)
                        records = []
                        try:
                            centers, assign, r = balanced_kcenter(H, X, k, opts)
                            records.append(["kc", [centers, sorted(assign.items()), r]])
                        except ZeusError as exc:
                            records.append(["kc", type(exc).__name__])
                        for name, slacks in pipelines:
                            objectives = tuple(ObjectiveSpec(o) for o in name.split(","))
                            spec = ProblemSpec(objectives, SlackVector(slacks), k, opts)
                            try:
                                got = _trace_lines(*zeus_run(H, spec), clustering_to_json, H)
                            except ZeusError as exc:
                                got = type(exc).__name__
                            records.append([name, got])
                        for name, got in records:
                            line = json.dumps([name, n, seed, k, first_seed, mult, got])
                            digest.update((line + "\n").encode())
                            count += 1
    return {"report": "grid", "records": count, "sha256": digest.hexdigest()}


def _best_ms(fn, args, kwargs, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _workload_cells(name: str, seeds: list[int], repeats: int, callees: dict) -> tuple[str, list]:
    """Run every cell of the benchmark workload ``name`` at ``seeds`` once
    through ``zeus_run``, built as ``perfbench/workloads.py`` builds them.

    ``callees`` maps a label to the module and name of a function the run
    calls; each of its calls is recorded and then timed again, best of
    ``repeats``. Returns the sha256 of every cell's clustering and trace
    without ``elapsed_ms``, and one record per cell: its seed, kind, n, k
    and, per label, the time of each call in ms.
    """
    sys.path.insert(0, ROOT)
    from perfbench.inputs import build
    from perfbench.workloads import ZeusWorkload
    from zeus_cluster.graph import make_instance
    from zeus_cluster.objectives import ObjectiveSpec, SlackVector, clustering_to_json
    from zeus_cluster.zeus import ProblemSpec, zeus_run

    digest = hashlib.sha256()
    cells = []
    with _recording(callees) as (originals, calls):
        for seed in seeds:
            workload = ZeusWorkload(name, seed)
            instances = [build(make_instance, raw) for raw in workload.raws]
            for cell in workload.cells:
                H = instances[cell.instance]
                objectives = tuple(ObjectiveSpec(o) for o in cell.objectives)
                for made in calls.values():
                    made.clear()
                C, state = zeus_run(H, ProblemSpec(objectives, SlackVector(cell.slack), cell.k))
                for line in _trace_lines(C, state, clustering_to_json, H):
                    digest.update((line + "\n").encode())
                record = {"seed": seed, "kind": cell.objectives[0], "n": H.n, "k": cell.k}
                for label, made in calls.items():
                    record[label] = [_best_ms(originals[label], *call, repeats) for call in made]
                cells.append(record)
    return digest.hexdigest(), cells


@contextlib.contextmanager
def _recording(callees: dict):
    """Record every call of each function in ``callees`` (a label to its
    module and name) while the block runs. Yields the original functions
    and the calls, each as its args and kwargs, by label."""
    owners = {label: (importlib.import_module(module), attr) for label, (module, attr) in callees.items()}
    originals = {label: getattr(owner, attr) for label, (owner, attr) in owners.items()}
    calls = {label: [] for label in callees}

    def recorder(label):
        def recorded(*args, **kwargs):
            calls[label].append((args, kwargs))
            return originals[label](*args, **kwargs)

        return recorded

    for label, (owner, attr) in owners.items():
        setattr(owner, attr, recorder(label))
    try:
        yield originals, calls
    finally:
        for label, (owner, attr) in owners.items():
            setattr(owner, attr, originals[label])


def flow(seeds: list[int], repeats: int) -> dict:
    sha256, records = _workload_cells(
        "flow", seeds, repeats, {"ms": ("zeus_cluster.makeshifts", "_balanced_assignment")}
    )
    cells = [
        {"seed": c["seed"], "n": c["n"], "k": c["k"], "ms": sum(c["ms"])}
        for c in records
        if c["kind"] == "tf"
    ]
    times = [c["ms"] for c in cells]
    return {
        "report": "flow",
        "seeds": seeds,
        "sha256": sha256,
        "tf_cells": len(cells),
        "assignment_ms": {
            "total": sum(times),
            "median": statistics.median(times) if times else None,
            "worst": max(cells, key=lambda c: c["ms"]) if cells else None,
        },
        "cells": cells,
    }


def kmedian(seeds: list[int], repeats: int) -> dict:
    callees = {
        "_kmedian_swap_centers": ("zeus_cluster.makeshifts", "_kmedian_swap_centers"),
        "makeshift_rs": ("zeus_cluster.zeus", "makeshift_rs"),
    }
    sha256, records = _workload_cells("kmedian", seeds, repeats, callees)
    per_call = {}
    for label in callees:
        times = [(ms, c) for c in records for ms in c[label]]
        worst_ms, worst = max(times, key=lambda t: t[0]) if times else (None, None)
        per_call[label] = {
            "calls": len(times),
            "total": sum(ms for ms, _ in times),
            "median": statistics.median(ms for ms, _ in times) if times else None,
            "worst": None if worst is None else {
                "seed": worst["seed"], "kind": worst["kind"], "n": worst["n"], "k": worst["k"], "ms": worst_ms
            },
        }
    return {"report": "kmedian", "seeds": seeds, "sha256": sha256, "cells": len(records), "per_call_ms": per_call}


def compare(seeds: list[int], repeats: int) -> dict:
    sys.path.insert(0, ROOT)
    import networkx
    import zeus_cluster.bench as bench
    import zeus_cluster.zeus as zeus
    from perfbench.inputs import build
    from perfbench.workloads import CompareWorkload, Program
    from zeus_cluster.graph import make_instance
    from zeus_cluster.objectives import ObjectiveSpec, SlackVector, clustering_to_json
    from zeus_cluster.synth import generate_instance

    program = Program(zeus, bench, networkx, make_instance, ObjectiveSpec, SlackVector)
    digest = hashlib.sha256()
    records = 0
    callees = {"moc": ("zeus_cluster.bench", "baseline_moc_path")}
    with _recording(callees) as (originals, calls):
        for seed in seeds:
            workload = CompareWorkload(seed)
            instances = [build(make_instance, raw) for raw in workload.raws]
            workload.prepare(program, instances)
            for rec in bench.run_experiment(workload.config, workload.instance):
                trace = [{key: v for key, v in e.items() if key != "elapsed_ms"} for e in rec.trace or ()]
                line = json.dumps(
                    [rec.algorithm, rec.k, rec.slack, rec.seed, rec.values,
                     rec.error, rec.clustering_json, trace],
                    sort_keys=True,
                )
                digest.update((line + "\n").encode())
                records += 1
    moc_ms = [_best_ms(originals["moc"], *call, repeats) for call in calls["moc"]]
    H = generate_instance("rs", 1000, 0)
    args = (H, (ObjectiveSpec("rs"), ObjectiveSpec("kc")), range(2, 7))
    path = originals["moc"](*args)
    large = hashlib.sha256("".join(clustering_to_json(H, C) + "\n" for C in path.values()).encode())
    return {
        "report": "compare",
        "seeds": seeds,
        "sha256": digest.hexdigest(),
        "records": records,
        "moc_ms": {
            "calls": len(moc_ms),
            "total": sum(moc_ms),
            "median": statistics.median(moc_ms) if moc_ms else None,
        },
        "moc_rs_kc_n1000": {"sha256": large.hexdigest(), "ms": _best_ms(originals["moc"], args, {}, repeats)},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", choices=("grid", "flow", "kmedian", "compare"))
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="tree to import the program from"
    )
    parser.add_argument("--seeds", default="1-40", help="workload seeds, such as 1-40 or 4,8,15")
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed repeats of each recorded call; the best counts"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.report == "grid":
        out = grid()
    else:
        out = {"flow": flow, "kmedian": kmedian, "compare": compare}[args.report](_seeds(args.seeds), args.repeats)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
