"""Spans around the program's layer boundaries, for the traced run only.

The wrappers replace names the program looks up at call time (see
:func:`targets`): the makeshifts, ``estimate_optimal``, ``evaluate`` and
``local_search`` in ``zeus_cluster.zeus``; the baselines and ``zeus_run``
in ``zeus_cluster.bench``; ``maximum_flow`` and ``max_flow_min_cost`` in
networkx. Nothing under ``src/`` changes. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# per-layer metric -> prefix of the span names whose inclusive time it sums
LAYER_TIMES = {
    "makeshifts.maxflow_s": "networkx.maximum_flow",
    "makeshifts.mincost_s": "networkx.max_flow_min_cost",
    "makeshifts.fairness_s": "zeus.makeshift_fairness",
    "makeshifts.tf_s": "zeus.makeshift_tf",
    "makeshifts.kmedian_s": "zeus.makeshift_kmedian",
    "makeshifts.rs_s": "zeus.makeshift_rs",
    "makeshifts.kcenter_s": "zeus.makeshift_kcenter",
    "objectives.evaluate_s": "zeus.evaluate",
    "objectives.estimate_s": "zeus.estimate_optimal",
    "zeus.local_search_s": "zeus.local_search",
    "baselines.moc_s": "bench.baseline_moc",
    "baselines.b1_s": "bench.baseline_b1",
    "baselines.b2_s": "bench.baseline_b2",
    "bench.emit_report_s": "bench.emit_report",
}
# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "makeshifts.maxflow_calls": "networkx.maximum_flow",
    "makeshifts.mincost_calls": "networkx.max_flow_min_cost",
    "objectives.evaluate_calls": "zeus.evaluate",
    "baselines.moc_calls": "bench.baseline_moc",
}
# per-layer metric -> span name whose self time it sums
LAYER_SELF = {
    "zeus.self_s": "zeus.zeus_run",
    "bench.run_experiment_self_s": "bench.run_experiment",
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (owner, attribute, span name) of ``targets`` meanwhile."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        for owner, attr, name in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive time and call count per span name."""
        time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, _, _ in self.spans:
            time[name] = time.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        return time, calls

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics per traced operation."""
        time, calls = self.totals()
        own = self.self_times()
        out = {}
        for metric, prefix in LAYER_TIMES.items():
            out[metric] = sum(t for n, t in time.items() if n.startswith(prefix)) / ops
        for metric, name in LAYER_CALLS.items():
            out[metric] = calls.get(name, 0) / ops
        for metric, name in LAYER_SELF.items():
            out[metric] = own.get(name, 0.0) / ops
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
            fh.write("\n")


def targets(program) -> list[tuple]:
    """Where the traced run puts its wrappers, and the span names they record."""
    zeus, bench, nx = program.zeus, program.bench, program.networkx
    out = [(zeus, n, f"zeus.{n}") for n in vars(zeus) if n.startswith("makeshift_")]
    out += [(zeus, n, f"zeus.{n}") for n in ("estimate_optimal", "evaluate", "local_search")]
    out += [(bench, n, f"bench.{n}") for n in vars(bench) if n.startswith("baseline_")]
    out += [(bench, "zeus_run", "zeus.zeus_run")]
    out += [(nx, n, f"networkx.{n}") for n in ("maximum_flow", "max_flow_min_cost")]
    # the benchmark's own calls into the program
    out += [
        (program, "zeus_run", "zeus.zeus_run"),
        (program, "run_experiment", "bench.run_experiment"),
        (program, "emit_report", "bench.emit_report"),
    ]
    return [t for t in out if callable(getattr(t[0], t[1]))]


def unit(metric: str) -> str:
    if metric == "trace.ops_per_s":
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
