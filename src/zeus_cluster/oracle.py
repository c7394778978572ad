"""Exhaustive solvers on tiny instances, used as ground truth in tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, DegenerateInputError, InfeasibleError
from .graph import BLUE, PURPLE, GraphInstance
from .makeshifts import _block_one_center
from .objectives import (
    F,
    KC,
    KM,
    RS,
    Clustering,
    ObjectiveSpec,
    PairStructure,
    lex_better,
)

# the largest instances each oracle enumerates
PARTITION_CAP = 12
EDGE_COVER_CAP = 10
MATCHING_CAP = 6


@dataclass(frozen=True)
class OracleResult:
    best_clustering: Clustering
    best_values: tuple[float, ...]
    enumerated: int


def enumerate_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All partitions of 0..n-1 into exactly k non-empty blocks.

    Yielded as restricted-growth strings (node -> block index) in
    canonical lexicographic order.
    """
    if n > PARTITION_CAP:
        raise ConfigError(f"n={n} exceeds enumeration cap {PARTITION_CAP}")
    if k < 1 or n < 1:
        raise ConfigError("n and k must be positive")
    if k > n:
        return

    a = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if used == k:
                yield tuple(a)
            return
        # cannot reach k blocks if too few positions remain
        if used + (n - i) < k:
            return
        top = min(used, k - 1)
        for b in range(top + 1):
            a[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


def _partition_clustering(H: GraphInstance, rgs: tuple[int, ...], objectives) -> Clustering:
    """The partition, its blocks centered for the first kc/km objective.

    A kc block takes its 1-center and a km block its 1-median, ties to
    the lowest id.
    """
    k = max(rgs) + 1
    assign = dict(enumerate(rgs))
    kind = next((o.kind for o in objectives if o.kind in (KC, KM)), None)
    if kind is None:
        return Clustering(assignment=assign, k=k)
    centers = {}
    for b in range(k):
        members = [u for u in range(H.n) if rgs[u] == b]
        if kind == KC:
            centers[b] = _block_one_center(H, members)
        else:
            costs = H.dist[np.ix_(members, members)].sum(axis=1)
            centers[b] = members[int(np.argmin(costs))]
    return Clustering(assignment=assign, k=k, centers=centers)


def _score_partition(
    H: GraphInstance,
    rgs: tuple[int, ...],
    objectives,
    pairs: PairStructure | None,
) -> tuple[float, ...]:
    """Objective tuple for a fixed partition, with per-block best centers."""
    k = max(rgs) + 1
    blocks: dict[int, list[int]] = {}
    for u, b in enumerate(rgs):
        blocks.setdefault(b, []).append(u)
    values = []
    for o in objectives:
        if o.kind == KC:
            worst = 0.0
            for members in blocks.values():
                radius = min(
                    max(H.dist[c, m] for m in members) for c in members
                )
                worst = max(worst, radius)
            values.append(float(worst))
        elif o.kind == KM:
            total = 0.0
            for members in blocks.values():
                total += min(
                    sum(H.dist[c, m] for m in members) for c in members
                )
            values.append(float(total))
        elif o.kind == RS:
            covered = {
                x for u, v in H.edges.tolist() if rgs[u] == rgs[v] for x in (u, v)
            }
            values.append(len(covered) / H.n)
        elif o.kind == F:
            if pairs is None:
                raise ConfigError("fairness oracle scoring needs a pair structure")
            blue = [u for u in range(H.n) if H.colors[u] == BLUE]
            if not blue:
                raise DegenerateInputError("no Blue nodes")
            partner = {}  # each Blue node's lowest-id partner
            for u, v in pairs.pairs:
                if H.colors[v] == BLUE:
                    u, v = v, u
                if H.colors[u] == BLUE and H.colors[v] == PURPLE:
                    partner[u] = min(v, partner.get(u, v))
            happy = sum(
                1 for u in blue if u in partner and rgs[partner[u]] == rgs[u]
            )
            values.append(happy / len(blue))
        else:  # tf
            experts = [u for u in range(H.n) if H.experts[u]]
            if not experts:
                raise DegenerateInputError("no experts")
            counts = [0] * k
            for u in experts:
                counts[rgs[u]] += 1
            values.append(
                math.inf if min(counts) == 0 else max(counts) / min(counts)
            )
    return tuple(values)


def oracle_lmoc(
    H: GraphInstance,
    k: int,
    objectives,
    pairs: PairStructure | None = None,
) -> OracleResult:
    """Lexicographically optimal clustering by full enumeration."""
    best_rgs = None
    best_values: tuple[float, ...] | None = None
    count = 0
    for rgs in enumerate_partitions(H.n, k):
        count += 1
        values = _score_partition(H, rgs, objectives, pairs)
        if best_values is None or lex_better(values, best_values, objectives):
            best_values = values
            best_rgs = rgs
    if best_rgs is None:
        raise ConfigError(f"no partition of n={H.n} into k={k} blocks")
    return OracleResult(
        best_clustering=_partition_clustering(H, best_rgs, objectives),
        best_values=best_values,
        enumerated=count,
    )


def oracle_single_objective(
    H: GraphInstance,
    k: int,
    o: ObjectiveSpec,
    pairs: PairStructure | None = None,
) -> float:
    """Optimal value of one objective alone over all k-partitions."""
    return oracle_lmoc(H, k, [o], pairs).best_values[0]


def _neighbour_lists(H: GraphInstance) -> list[list[int]]:
    """Every node's E-neighbours, read from the edge pairs one by one."""
    nbrs: list[list[int]] = [[] for _ in range(H.n)]
    for u, v in H.edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def oracle_edge_cover(H: GraphInstance) -> PairStructure:
    """Minimum achievable max edge weight over all valid edge covers.

    The optimum equals the smallest threshold r at which the subgraph of
    E-edges with weight <= r leaves no node isolated.
    """
    if H.n > EDGE_COVER_CAP:
        raise ConfigError(f"n={H.n} exceeds edge-cover oracle cap {EDGE_COVER_CAP}")
    nbrs = _neighbour_lists(H)
    for u in range(H.n):
        if not nbrs[u]:
            raise InfeasibleError(f"node {H.labels[u]} is isolated: no edge cover")
    weights = sorted({float(H.dist[u, v]) for u, v in H.edges.tolist()})
    lo, hi = 0, len(weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        ok = all(
            any(H.dist[u, v] <= weights[mid] for v in nbrs[u])
            for u in range(H.n)
        )
        if ok:
            hi = mid
        else:
            lo = mid + 1
    r = weights[hi]
    cover = set()
    for u in range(H.n):
        v = min(
            (v for v in nbrs[u] if H.dist[u, v] <= r),
            key=lambda w: (H.dist[u, w], w),
        )
        cover.add((min(u, v), max(u, v)))
    return PairStructure(pairs=frozenset(cover), realized_radius=r)


def oracle_matching_radius(H: GraphInstance) -> float:
    """Min over Blue-saturating matchings of the max matched edge weight."""
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    purple = {u for u in range(H.n) if H.colors[u] == PURPLE}
    if not blue:
        raise DegenerateInputError("no Blue nodes: matching radius undefined")
    if len(blue) > MATCHING_CAP or len(purple) > MATCHING_CAP:
        raise ConfigError(f"|B| or |P| exceeds matching oracle cap {MATCHING_CAP}")
    nbrs = _neighbour_lists(H)
    options = [
        sorted(v for v in nbrs[u] if v in purple) for u in blue
    ]

    best = math.inf

    def rec(i: int, used: set[int], worst: float) -> None:
        nonlocal best
        if worst >= best:
            return
        if i == len(blue):
            best = worst
            return
        for v in options[i]:
            if v in used:
                continue
            used.add(v)
            rec(i + 1, used, max(worst, float(H.dist[blue[i], v])))
            used.discard(v)

    rec(0, set(), 0.0)
    if math.isinf(best):
        raise InfeasibleError("no Blue-saturating matching exists")
    return best
