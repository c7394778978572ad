"""The three workloads: their inputs, their operations and the checks on them.

An operation is one timed call into the program. Two workloads run one
``zeus_run`` per cell (an instance with an objective list, a slack and a
k); ``compare`` runs the experiment grid behind ``zeus-cluster bench``,
``run_experiment`` followed by ``emit_report``. Why each workload exists
is in the README next to this file.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import checks
from .inputs import RawInstance, build, generate, instance_rng

FULL = "full"
TINY = "tiny"  # small sizes for the benchmark's own tests


@dataclass(frozen=True)
class Cell:
    instance: int
    objectives: tuple[str, ...]
    slack: tuple[float, ...]
    k: int


# Each workload: the sizes of its instances per kind (one instance per
# entry), the objective list per kind, one slack and the k values; a cell
# is one instance with one k. ``stream`` keeps the workloads' random
# streams apart for one seed. How much work a cell takes depends on its
# instance (swap steps, flow augmentations), so a round spreads over several
# instances: the seed then moves the round's total little.
ZEUS_WORKLOADS = {
    "flow": dict(
        stream=1,
        # a ladder of sizes: the cell times fill a range without gaps for
        # the median to fall into
        sizes={
            FULL: {"f": (400, 500, 600), "tf": (550, 700, 850)},
            TINY: {"f": (60,), "tf": (80,)},
        },
        objectives={"f": ("f", "kc"), "tf": ("tf", "kc")},
        slack=(1.0, 3.0),
        ks=(5, 10),
    ),
    "kmedian": dict(
        stream=2,
        # not a ladder: each cell's swap count follows the seed, so cells of
        # different sizes and k swap order and the median cell jumps between
        # neighbours of unlike time; among cells of one size and k it cannot.
        # More rs cells than f cells keep the median inside the rs group.
        sizes={
            FULL: {"rs": (300,) * 20, "f": (220,) * 8},
            TINY: {"rs": (60,), "f": (40,)},
        },
        objectives={"rs": ("rs", "km"), "f": ("f", "km")},
        slack=(1.0, 5.0),
        ks=(6,),
    ),
}

COMPARE = dict(
    stream=4,
    n={FULL: 100, TINY: 24},
    warmup_n=24,
    objectives=("rs", "kc"),
    slacks=((1.0, 3.0), (0.5, 2.0)),
    ks=(2, 3, 4, 5, 6),
    algorithms=("zeus", "b1", "b2", "moc"),
    formats=("csv", "json"),
)

NAMES = ("flow", "kmedian", "compare")


@dataclass
class Result:
    """What one operation produced, as plain data, plus its layer counts."""

    costs: list[float]  # last-objective values the cost metric averages
    moves: int = 0  # local-search moves the program's trace reports
    violated: int = 0  # runs whose trace ends with a violated slack


class Program:
    """The program's modules and the entry points the benchmark calls.

    Operations call ``zeus_run``, ``run_experiment`` and ``emit_report``
    through this object, so that the traced run can wrap them here.
    """

    def __init__(self, zeus, bench, networkx, make_instance, ObjectiveSpec, SlackVector):
        self.zeus, self.bench, self.networkx = zeus, bench, networkx
        self.make_instance = make_instance
        self.ObjectiveSpec, self.SlackVector = ObjectiveSpec, SlackVector
        self.zeus_run = zeus.zeus_run
        self.run_experiment = bench.run_experiment
        self.emit_report = bench.emit_report


class ZeusWorkload:
    """One ``zeus_run`` per cell; every cell's output is checked."""

    def __init__(self, name: str, seed: int, size: str = FULL):
        spec = ZEUS_WORKLOADS[name]
        self.name = name
        self.raws: list[RawInstance] = []
        self.cells: list[Cell] = []
        for kind, ladder in spec["sizes"][size].items():
            for n in ladder:
                i = len(self.raws)
                self.raws.append(generate(kind, n, instance_rng(seed, spec["stream"], i)))
                for k in spec["ks"]:
                    self.cells.append(Cell(i, spec["objectives"][kind], spec["slack"], k))
        self.refs = [checks.Reference(raw) for raw in self.raws]

    def prepare(self, program: Program, instances: list) -> None:
        self.program = program
        self.instances = instances
        self.specs = [
            program.zeus.ProblemSpec(
                objectives=tuple(program.ObjectiveSpec(o) for o in c.objectives),
                slacks=program.SlackVector(c.slack),
                k=c.k,
            )
            for c in self.cells
        ]

    def operations(self) -> list:
        return [self._op(i) for i in range(len(self.cells))]

    def warmup(self):
        return self._op(0)

    def _op(self, i: int):
        H, spec, program = self.instances[self.cells[i].instance], self.specs[i], self.program

        def call():
            return program.zeus_run(H, spec)

        return call, lambda out: self.check(i, out)

    def check(self, i: int, out) -> Result:
        C, state = out
        cell = self.cells[i]
        ref = self.refs[cell.instance]
        n = ref.n
        assign = np.array([C.assignment.get(u, -1) for u in range(n)], dtype=np.int64)
        checks.require(len(C.assignment) == n, "assignment has nodes outside 0..n-1")
        centers = [C.centers[b] for b in range(C.k)] if C.centers else []
        checks.partition(assign, centers, cell.k, n)
        checks.atoms_whole(assign, C.atoms)
        first, last = cell.objectives[0], cell.objectives[-1]
        if first in ("rs", "f"):
            pairs = state.pair_structures[0]
            if first == "rs":
                checks.edge_cover(ref, pairs.pairs, pairs.realized_radius, assign)
            else:
                checks.matching(
                    ref, pairs.pairs, pairs.realized_radius, assign, "km" in cell.objectives
                )
            checks.same_atoms(C.atoms, checks.components(n, pairs.pairs))
        else:
            checks.balanced_teams(ref, assign, cell.k)
        if last == "kc":
            value = checks.kcenter_value(ref, assign, centers)
        else:
            value = checks.kmedian_value(ref, assign, centers)
            weight = {root: len(atom) for atom, root in zip(C.atoms, C.roots)}
            reps = sorted(weight)
            checks.require(sum(weight.values()) == n, "atoms do not cover the nodes")
            checks.swap_optimal(ref, reps, [weight[r] for r in reps], centers)
        stages = [e for e in state.trace if "objective" in e]
        checks.require(
            [e["objective"] for e in stages] == list(cell.objectives),
            "trace does not list every objective in order",
        )
        checks.require(
            checks.close(value, stages[-1]["value"]),
            f"{last} value {value} != traced {stages[-1]['value']}",
        )
        return Result(
            costs=[value],
            moves=sum(e["local_search_moves"] for e in stages),
            violated=int(stages[-1]["violated"]),
        )


class CompareWorkload:
    """The bench grid: Zeus against b1, b2 and MOC on one rs instance."""

    name = "compare"

    def __init__(self, seed: int, size: str = FULL, outdir: str = ".perfbench_out"):
        self.raws = [generate("rs", COMPARE["n"][size], instance_rng(seed, COMPARE["stream"], 0))]
        self.refs = [checks.Reference(self.raws[0])]
        self.warm_raw = generate("rs", COMPARE["warmup_n"], instance_rng(seed, COMPARE["stream"], 1))
        self.warm_ref = checks.Reference(self.warm_raw)
        self.outdir = os.path.join(outdir, f"compare-{seed}")

    def prepare(self, program: Program, instances: list) -> None:
        self.program = program
        self.instance = instances[0]
        self.warm_instance = build(program.make_instance, self.warm_raw)
        self.config = program.bench.ExperimentConfig(
            instance_path="",
            objectives=tuple(program.ObjectiveSpec(o) for o in COMPARE["objectives"]),
            slacks=COMPARE["slacks"],
            ks=COMPARE["ks"],
            seeds=(0,),
            algorithms=COMPARE["algorithms"],
            output_dir=self.outdir,
            formats=COMPARE["formats"],
        )

    def operations(self) -> list:
        return [self._op(self.instance, self.refs[0])]

    def warmup(self):
        return self._op(self.warm_instance, self.warm_ref)

    def _op(self, H, ref):
        program, config = self.program, self.config

        def call():
            records = program.run_experiment(config, H)
            written = program.emit_report(records, config.formats, config.output_dir)
            return records, written

        return call, lambda out: self.check(ref, out)

    def check(self, ref: checks.Reference, out) -> Result:
        records, written = out
        want = {
            (a, k, s)
            for s in COMPARE["slacks"]
            for k in COMPARE["ks"]
            for a in COMPARE["algorithms"]
        }
        got = [(r.algorithm, r.k, tuple(r.slack)) for r in records]
        checks.require(sorted(got) == sorted(want), "grid records do not match the grid")
        moc: dict[tuple, np.ndarray] = {}
        costs = []
        for r in records:
            checks.require(r.error is None, f"{r.algorithm} k={r.k}: {r.error}")
            assign, centers, k = checks.parse_clustering(r.clustering_json, ref.n)
            checks.require(k == r.k, f"{r.algorithm} returned k={k} for k={r.k}")
            checks.partition(assign, centers, r.k, ref.n)
            rs = checks.rs_value(ref, assign)
            kc = checks.kcenter_value(ref, assign, centers)
            for name, value in (("o1_rs", rs), ("o2_kc", kc)):
                checks.require(
                    checks.close(r.values[name], value),
                    f"{r.algorithm} k={r.k} records {name}={r.values[name]}, recomputed {value}",
                )
            if r.algorithm == "moc":
                moc[(tuple(r.slack), r.k)] = assign
            if r.algorithm == "zeus":
                costs.append(kc)
        for (slack, k), assign in moc.items():
            finer = moc.get((slack, k + 1))
            if finer is not None:
                checks.require(
                    checks.coarsens(assign, finer),
                    f"MOC at k={k} is not a coarsening of MOC at k={k + 1}",
                )
        self._check_report(records, written)
        return Result(
            costs=costs,
            moves=sum(
                e.get("local_search_moves", 0) for r in records if r.trace for e in r.trace
            ),
            violated=sum(
                1
                for r in records
                if r.trace and [e for e in r.trace if "objective" in e][-1]["violated"]
            ),
        )

    def _check_report(self, records, written) -> None:
        paths = {os.path.basename(p): p for p in written}
        checks.require(set(paths) == {"results.csv", "results.json"}, f"report wrote {sorted(paths)}")
        with open(paths["results.json"]) as fh:
            doc = json.load(fh)
        checks.require(len(doc) == len(records), "results.json misses records")
        for entry, r in zip(doc, records):
            checks.require(
                (entry["algorithm"], entry["k"], entry["values"]) == (r.algorithm, r.k, r.values),
                f"results.json entry differs from record {r.algorithm} k={r.k}",
            )
        with open(paths["results.csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks.require(len(rows) == len(records), "results.csv misses records")
        for row, r in zip(rows, records):
            checks.require(
                float(row["o2_kc"]) == r.values["o2_kc"],
                f"results.csv o2_kc differs from record {r.algorithm} k={r.k}",
            )


def make(name: str, seed: int, size: str = FULL, outdir: str = ".perfbench_out"):
    if name == "compare":
        return CompareWorkload(seed, size, outdir)
    return ZeusWorkload(name, seed, size)
