"""Seeded synthetic inputs for the benchmark workloads.

The recipe follows the program's synthetic generator, written out here so
that a change to the program cannot change a workload: uniform points in
the unit square; a sparse relation E drawn from the pairs within the
connectivity radius sqrt(2 ln n / n), about average degree four, with
every isolated node joined to its nearest neighbour; for ``f`` a third of
the nodes Blue, each given a distinct nearest unused Purple partner
through an E-edge, so that a Blue-saturating matching exists; for ``tf``
30 % of the nodes flagged as experts.

Only plain data comes out of here (:class:`RawInstance`); the program's
``make_instance`` turns it into an instance, and that call is what the
benchmark times as set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

BLUE = "B"
PURPLE = "P"


@dataclass(frozen=True)
class RawInstance:
    kind: str
    points: np.ndarray  # (n, 2) floats in the unit square
    edges: list[tuple[int, int]]  # sorted, u < v
    colors: list[str] | None
    experts: list[bool] | None
    threshold: float

    @property
    def n(self) -> int:
        return len(self.points)


def instance_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one instance of one workload and seed."""
    return np.random.default_rng([seed, *stream])


def generate(kind: str, n: int, rng: np.random.Generator) -> RawInstance:
    if kind not in ("rs", "f", "tf"):
        raise ValueError(f"unknown instance kind {kind!r}")
    pts = rng.random((n, 2))
    tree = cKDTree(pts)
    r = math.sqrt(2.0 * math.log(n) / n)
    cand = sorted(tree.query_pairs(r))  # the pairs within r, u < v, in order
    keep = rng.permutation(len(cand))[: min(len(cand), 2 * n)]
    edges = {cand[i] for i in keep}
    degree = np.zeros(n, dtype=int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    isolated = np.flatnonzero(degree == 0)
    if len(isolated):
        _, nearest = tree.query(pts[isolated], k=2)
        for u, v in zip(isolated.tolist(), nearest[:, 1].tolist()):
            edges.add((min(u, v), max(u, v)))

    colors = experts = None
    if kind == "f":
        ids = rng.permutation(n)
        blue = np.sort(ids[: max(1, n // 3)])
        purple = np.sort(ids[max(1, n // 3) :])
        colors = [PURPLE] * n
        used = np.zeros(len(purple), dtype=bool)
        for u in blue.tolist():
            colors[u] = BLUE
            d = np.hypot(*(pts[purple] - pts[u]).T)
            d[used] = np.inf
            j = int(np.argmin(d))  # first minimum: lowest Purple id on ties
            used[j] = True
            v = int(purple[j])
            edges.add((min(u, v), max(u, v)))
    elif kind == "tf":
        ids = rng.permutation(n)
        experts = [False] * n
        for x in ids[: max(2, round(0.3 * n))]:
            experts[int(x)] = True

    return RawInstance(kind, pts, sorted(edges), colors, experts, r)


def build(make_instance, raw: RawInstance):
    """The program's instance for ``raw``, through its public constructor."""
    return make_instance(
        raw.n,
        "euclidean",
        embeddings=raw.points.tolist(),
        edges=raw.edges,
        colors=raw.colors,
        experts=raw.experts,
        edge_threshold=raw.threshold,
    )
