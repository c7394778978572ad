"""Benchmark harness: run Zeus and the baselines over k/slack/seed grids.

Every recorded objective value is recomputed independently from the
returned clustering rather than trusted from the algorithm.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

from .baselines import baseline_b1, baseline_b2, baseline_moc_path
from .errors import ConfigError, ZeusError
from .graph import GraphInstance, load_instance
from .makeshifts import MakeshiftOptions
from .objectives import (
    F,
    Clustering,
    ObjectiveSpec,
    PairStructure,
    SlackVector,
    clustering_to_json,
    evaluate,
    is_integer,
)
from .oracle import oracle_lmoc
from .zeus import ProblemSpec, fairness_matching, zeus_run

ALGORITHMS = ("zeus", "b1", "b2", "moc", "oracle")
FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class ExperimentConfig:
    instance_path: str
    objectives: tuple[ObjectiveSpec, ...]
    slacks: tuple[tuple[float, ...], ...]
    ks: tuple[int, ...]
    seeds: tuple[int, ...]
    algorithms: tuple[str, ...]
    output_dir: str
    formats: tuple[str, ...] = ("csv", "json")
    instance_format: str = "json"
    fill: float | None = None
    allow_infeasible_slack: bool = False

    def validate(self) -> None:
        if not self.objectives:
            raise ConfigError("at least one objective is required")
        if not self.ks:
            raise ConfigError("k range must be non-empty")
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if not self.slacks:
            raise ConfigError("slack list must be non-empty")
        if not all(is_integer(k) for k in self.ks):
            raise ConfigError(f"k values must be integers, got {self.ks}")
        if min(self.ks) < 1:
            raise ConfigError("k values must be at least 1")
        if not all(is_integer(s) for s in self.seeds):
            raise ConfigError(f"seeds must be integers, got {self.seeds}")
        if not self.algorithms:
            raise ConfigError("algorithm list must be non-empty")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
        for f in self.formats:
            if f not in FORMATS:
                raise ConfigError(f"unknown report format {f!r}")
        for s in self.slacks:
            if len(s) != len(self.objectives):
                raise ConfigError("each slack setting must match the objective count")
            if any(math.isnan(x) for x in s):
                raise ConfigError("slack is not a number")


def config_from_data(data: dict) -> ExperimentConfig:
    try:
        objectives = tuple(ObjectiveSpec(kind) for kind in data["objectives"])
        ks = data["k"]
        if isinstance(ks, dict):
            ks = list(range(ks["min"], ks["max"] + 1))
        return ExperimentConfig(
            instance_path=data["instance"],
            objectives=objectives,
            slacks=tuple(tuple(float(x) for x in s) for s in data["slacks"]),
            ks=tuple(ks),
            seeds=tuple(data.get("seeds", [0])),
            algorithms=tuple(data.get("algorithms", ["zeus", "b1", "b2"])),
            output_dir=data.get("output", "bench-out"),
            formats=tuple(data.get("formats", ["csv", "json"])),
            instance_format=data.get("instance_format", "json"),
            fill=data.get("fill"),
            allow_infeasible_slack=bool(data.get("allow_infeasible_slack", False)),
        )
    except KeyError as exc:
        raise ConfigError(f"experiment config missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment config has a malformed value: {exc}") from exc


@dataclass
class RunRecord:
    algorithm: str
    k: int
    slack: tuple[float, ...]
    seed: int
    values: dict[str, float] = field(default_factory=dict)
    wall_ms: float = 0.0
    trace: list | None = None
    error: str | None = None
    clustering_json: str | None = None


def _run_algorithm(
    H: GraphInstance,
    algorithm: str,
    spec: ProblemSpec,
    pairs: PairStructure | None,
    memo: dict,
) -> tuple[Clustering, list | None]:
    if algorithm == "zeus":
        C, state = zeus_run(H, spec, memo)
        return C, state.trace
    if algorithm == "b1":
        return baseline_b1(H, spec, memo), None
    if algorithm == "b2":
        return baseline_b2(H, spec.k, spec.options), None
    if algorithm == "oracle":
        return oracle_lmoc(H, spec.k, list(spec.objectives), pairs).best_clustering, None
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def _moc_by_k(
    H: GraphInstance, config: ExperimentConfig, pairs: PairStructure | None
) -> dict[int, Clustering | ZeusError]:
    """MOC's clustering for every k of the config from one pass, or its error.

    A k outside 1..n gets the error ``baseline_moc_path`` raises for it
    alone, so only its own cells fail.
    """
    in_range = [k for k in config.ks if k <= H.n]
    try:
        moc = baseline_moc_path(H, config.objectives, in_range, pairs)
    except ZeusError as exc:
        return dict.fromkeys(config.ks, exc)
    for k in config.ks:
        if k not in moc:
            try:
                baseline_moc_path(H, config.objectives, [k], pairs)
            except ZeusError as exc:
                moc[k] = exc
    return moc


def run_experiment(
    config: ExperimentConfig, H: GraphInstance | None = None
) -> list[RunRecord]:
    """Execute each (algorithm, k, slack, seed) cell and collect records.

    Only ``zeus`` reads the slack. ``b1``, ``b2`` and ``oracle`` run once
    per (k, seed), and MOC depends on none of slack, k and seed, so one
    pass over the in-range ks serves every ``moc`` cell. A reused record
    carries the ``wall_ms`` of the one call behind it.

    No makeshift reads a slack either, so ``zeus`` and ``b1`` share one
    memo of makeshift results for the call (see ``run_makeshift`` for its
    exact key): ``rs`` and the matching that defines ``f`` run once per
    experiment, the matching also giving the pairs every cell scores ``f``
    with, and ``kc`` once per (k, seed), while local search, the slack
    checks and evaluation run in every cell. ``b1`` also keeps its merge
    order there, so its fragments' root pairs are sorted once per
    experiment and each (k, seed) only replays its merges and centers
    its blocks. The ``wall_ms`` and trace ``elapsed_ms`` of a cell that
    reused a stage cover only the work done in that cell.
    """
    config.validate()
    if H is None:
        H = load_instance(config.instance_path, config.instance_format, config.fill)
    # makeshift results shared by the zeus and b1 cells of this call
    memo: dict = {}
    pairs = None
    if any(o.kind == F for o in config.objectives):
        pairs = fairness_matching(H, config.objectives, memo)[1]
    moc: dict[int, Clustering | ZeusError] = {}
    moc_ms = 0.0
    if "moc" in config.algorithms:
        t0 = time.perf_counter()
        moc = _moc_by_k(H, config, pairs)
        moc_ms = (time.perf_counter() - t0) * 1000.0

    # (algorithm, k, seed) -> the record of a slack-free algorithm's one call
    reused: dict[tuple[str, int, int], RunRecord] = {}
    records: list[RunRecord] = []
    for slack in config.slacks:
        for k in map(int, config.ks):
            for seed in map(int, config.seeds):
                spec = ProblemSpec(
                    objectives=config.objectives,
                    slacks=SlackVector(slack),
                    k=k,
                    options=MakeshiftOptions(seed=seed),
                    allow_infeasible_slack=config.allow_infeasible_slack,
                )
                for algorithm in config.algorithms:
                    first = reused.get((algorithm, k, seed))
                    if first is not None:
                        records.append(
                            replace(first, slack=slack, values=dict(first.values))
                        )
                        continue
                    rec = RunRecord(algorithm=algorithm, k=k, slack=slack, seed=seed)
                    t0 = time.perf_counter()
                    try:
                        if algorithm == "moc":
                            C, trace = moc[k], None
                            if isinstance(C, ZeusError):
                                raise C
                        else:
                            C, trace = _run_algorithm(H, algorithm, spec, pairs, memo)
                        rec.wall_ms = (time.perf_counter() - t0) * 1000.0
                        rec.trace = trace
                        for i, o in enumerate(config.objectives):
                            rec.values[f"o{i + 1}_{o.kind}"] = evaluate(H, C, o, pairs=pairs)
                        rec.clustering_json = clustering_to_json(H, C)
                    except ZeusError as exc:
                        rec.wall_ms = (time.perf_counter() - t0) * 1000.0
                        rec.error = f"{type(exc).__name__}: {exc}"
                    if algorithm == "moc":
                        rec.wall_ms = moc_ms
                    if algorithm != "zeus":
                        reused[algorithm, k, seed] = rec
                    records.append(rec)
    return records


def _value_columns(records: list[RunRecord]) -> list[str]:
    cols: list[str] = []
    for rec in records:
        for name in rec.values:
            if name not in cols:
                cols.append(name)
    return cols


def emit_report(records: list[RunRecord], formats, outdir: str) -> list[str]:
    """Write results.csv / results.json / per-objective SVG charts."""
    if not records:
        raise ConfigError("no records to report")
    os.makedirs(outdir, exist_ok=True)
    written = []
    value_cols = _value_columns(records)
    if "csv" in formats:
        path = os.path.join(outdir, "results.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["algorithm", "k", "slack", "seed"] + value_cols + ["wall_ms", "error"]
            )
            for rec in records:
                writer.writerow(
                    [
                        rec.algorithm,
                        rec.k,
                        ";".join(repr(x) for x in rec.slack),
                        rec.seed,
                    ]
                    + [
                        repr(rec.values[c]) if c in rec.values else ""
                        for c in value_cols
                    ]
                    + [repr(rec.wall_ms), rec.error or ""]
                )
        written.append(path)
    if "json" in formats:
        path = os.path.join(outdir, "results.json")
        doc = [
            {
                "algorithm": rec.algorithm,
                "k": rec.k,
                "slack": list(rec.slack),
                "seed": rec.seed,
                "values": rec.values,
                "wall_ms": rec.wall_ms,
                "error": rec.error,
            }
            for rec in records
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if "svg" in formats:
        slacks = []
        for rec in records:
            if rec.slack not in slacks:
                slacks.append(rec.slack)
        for si, slack in enumerate(slacks):
            subset = [r for r in records if r.slack == slack and r.error is None]
            for col in value_cols:
                path = os.path.join(outdir, f"slack{si}_{col}.svg")
                _write_line_chart(path, subset, col, slack)
                written.append(path)
    return written


def _median(xs: list[float]) -> float:
    ys = sorted(xs)
    m = len(ys)
    return ys[m // 2] if m % 2 else 0.5 * (ys[m // 2 - 1] + ys[m // 2])


def _write_line_chart(path: str, records: list[RunRecord], col: str, slack) -> None:
    """Minimal deterministic SVG line chart: x = k, one series per algorithm."""
    width, height, pad = 480, 320, 48
    series: dict[str, dict[int, list[float]]] = {}
    for rec in records:
        if col not in rec.values:
            continue
        series.setdefault(rec.algorithm, {}).setdefault(rec.k, []).append(
            rec.values[col]
        )
    points = {
        alg: sorted((k, _median(vs)) for k, vs in by_k.items())
        for alg, by_k in series.items()
    }
    xs = sorted({k for pts in points.values() for k, _ in pts})
    ys = [v for pts in points.values() for _, v in pts if v != float("inf")]
    if not xs or not ys:
        xs, ys = [0, 1], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(k):
        return pad + (k - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="16" text-anchor="middle" font-size="12">'
        f"{col} (slack {list(slack)})</text>",
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
        'font-size="11">k</text>',
    ]
    for i, alg in enumerate(sorted(points)):
        color = palette[i % len(palette)]
        pts = [(k, v) for k, v in points[alg] if v != float("inf")]
        if pts:
            coords = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in pts)
            lines.append(
                f'<polyline fill="none" stroke="{color}" points="{coords}"/>'
            )
        lines.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="11" '
            f'fill="{color}">{alg}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
