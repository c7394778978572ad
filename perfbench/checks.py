"""Checks of every operation's output against computations made here.

Nothing below calls the program: distances come from the raw points,
E from the raw edge list, and the optima the makeshifts claim are
recomputed with scipy. A check raises :class:`CheckFailed` naming what
is wrong; the runner counts such an operation as failed.

Outputs are taken as plain data: ``assign`` is an int array giving each
node's block, ``centers`` a list giving each block's center node.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    connected_components,
    maximum_bipartite_matching,
    min_weight_full_bipartite_matching,
)

from .inputs import BLUE, PURPLE, RawInstance

REL_TOL = 1e-9
SWAP_TOL = 1e-6  # relative improvement below which a swap does not count


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Reference:
    """Independent facts about one instance, computed once on first use."""

    def __init__(self, raw: RawInstance):
        self.raw = raw
        self.n = raw.n
        e = np.asarray(raw.edges, dtype=np.int64)
        self.eu, self.ev = e[:, 0], e[:, 1]
        self.edge_set = set(raw.edges)
        self._cover_radius = None
        self._bottleneck = None
        self._mincost = None

    def dist(self, us, vs) -> np.ndarray:
        """Euclidean distances between the points of ``us`` and ``vs``."""
        p = self.raw.points
        diff = p[np.asarray(us)] - p[np.asarray(vs)]
        return np.sqrt((diff * diff).sum(axis=-1))

    def in_e(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    @property
    def cover_radius(self) -> float:
        """Optimal min-max edge cover: max over u of its nearest E-neighbour."""
        if self._cover_radius is None:
            w = self.dist(self.eu, self.ev)
            nearest = np.full(self.n, np.inf)
            np.minimum.at(nearest, self.eu, w)
            np.minimum.at(nearest, self.ev, w)
            self._cover_radius = float(nearest.max())
        return self._cover_radius

    def _biadjacency(self):
        """Blue x Purple matrix of the E-edges between them, by length."""
        colors = self.raw.colors
        blue = [u for u in range(self.n) if colors[u] == BLUE]
        purple = [u for u in range(self.n) if colors[u] == PURPLE]
        row = {u: i for i, u in enumerate(blue)}
        col = {v: j for j, v in enumerate(purple)}
        rows, cols, vals = [], [], []
        for u, v in self.raw.edges:
            if u in row and v in col:
                b, q = u, v
            elif v in row and u in col:
                b, q = v, u
            else:
                continue
            rows.append(row[b])
            cols.append(col[q])
            vals.append(float(self.dist(b, q)))
        return csr_matrix((vals, (rows, cols)), shape=(len(blue), len(purple)))

    @property
    def bottleneck_radius(self) -> float:
        """Smallest radius admitting a Blue-saturating matching within E."""
        if self._bottleneck is None:
            full = self._biadjacency()
            weights = np.unique(full.data)
            lo, hi = 0, len(weights) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                sub = full.copy()
                sub.data[sub.data > weights[mid]] = 0.0
                sub.eliminate_zeros()
                match = maximum_bipartite_matching(sub, perm_type="column")
                if (match >= 0).all():
                    hi = mid
                else:
                    lo = mid + 1
            self._bottleneck = float(weights[hi])
        return self._bottleneck

    @property
    def mincost_matching(self) -> float:
        """Least total length of a Blue-saturating matching within E."""
        if self._mincost is None:
            full = self._biadjacency()
            r, c = min_weight_full_bipartite_matching(full)
            self._mincost = float(np.asarray(full[r, c]).sum())
        return self._mincost


def partition(assign: np.ndarray, centers: list[int], k: int, n: int) -> None:
    """Exactly k non-empty blocks over all n nodes, each center inside."""
    require(assign.shape == (n,), f"assignment covers {assign.shape} nodes, not {n}")
    require(len(centers) == k, f"{len(centers)} centers for k={k}")
    require(assign.min() >= 0 and assign.max() < k, "block index out of range")
    sizes = np.bincount(assign, minlength=k)
    require((sizes > 0).all(), f"empty block(s) {np.flatnonzero(sizes == 0).tolist()}")
    for b, c in enumerate(centers):
        require(assign[c] == b, f"center {c} of block {b} lies in block {assign[c]}")


def atoms_whole(assign: np.ndarray, atoms) -> None:
    for atom in atoms:
        require(
            len({int(assign[u]) for u in atom}) == 1, f"atom {tuple(atom)} is split"
        )


def components(n: int, pairs) -> list[list[int]]:
    """Connected components of the graph the pairs span over n nodes."""
    pairs = list(pairs)
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    g = csr_matrix((np.ones(len(pairs)), (u, v)), shape=(n, n))
    _, label = connected_components(g, directed=False)
    groups: dict[int, list[int]] = {}
    for x, lab in enumerate(label.tolist()):
        groups.setdefault(lab, []).append(x)
    return list(groups.values())


def same_atoms(atoms, expected: list[list[int]]) -> None:
    got = sorted(tuple(sorted(a)) for a in atoms)
    want = sorted(tuple(sorted(a)) for a in expected)
    require(got == want, "atoms differ from the components of the first stage")


def rs_value(ref: Reference, assign: np.ndarray) -> float:
    """Share of nodes with an E-neighbour in their own block."""
    same = assign[ref.eu] == assign[ref.ev]
    covered = np.zeros(ref.n, dtype=bool)
    covered[ref.eu[same]] = True
    covered[ref.ev[same]] = True
    return float(covered.mean())


def edge_cover(ref: Reference, pairs, radius: float, assign: np.ndarray) -> None:
    """The rs stage: an optimal min-max edge cover whose pairs stay together."""
    pairs = list(pairs)
    require(all(ref.in_e(u, v) for u, v in pairs), "cover pair outside E")
    hit = np.zeros(ref.n, dtype=bool)
    for u, v in pairs:
        hit[u] = hit[v] = True
        require(assign[u] == assign[v], f"cover pair ({u},{v}) is split")
    require(hit.all(), "edge cover misses a node")
    longest = float(ref.dist([u for u, _ in pairs], [v for _, v in pairs]).max())
    require(close(longest, radius), f"cover radius {radius} != longest pair {longest}")
    require(
        close(radius, ref.cover_radius),
        f"cover radius {radius} != optimum {ref.cover_radius}",
    )
    require(rs_value(ref, assign) == 1.0, "a node has no E-neighbour in its block")


def matching(
    ref: Reference, pairs, radius: float, assign: np.ndarray, min_cost: bool
) -> None:
    """The f stage: a Blue-saturating matching whose pairs stay together.

    The bottleneck makeshift must reach the least possible radius; the
    min-cost variant used with k-median must reach the least total length.
    """
    colors = ref.raw.colors
    partner: dict[int, int] = {}
    used: set[int] = set()
    total = 0.0
    for u, v in pairs:
        b, p = (u, v) if colors[u] == BLUE else (v, u)
        require(colors[b] == BLUE and colors[p] == PURPLE, f"pair ({u},{v}) not Blue-Purple")
        require(ref.in_e(b, p), f"pair ({u},{v}) outside E")
        require(b not in partner and p not in used, f"node of ({u},{v}) matched twice")
        partner[b] = p
        used.add(p)
        total += float(ref.dist(b, p))
    blue = [u for u in range(ref.n) if colors[u] == BLUE]
    require(len(partner) == len(blue), "matching does not saturate Blue")
    for b in blue:
        require(
            assign[b] == assign[partner[b]],
            f"Blue {b} and its partner {partner[b]} are in different blocks",
        )
    longest = float(ref.dist(list(partner), list(partner.values())).max())
    require(close(longest, radius), f"matching radius {radius} != longest pair {longest}")
    if min_cost:
        require(
            close(total, ref.mincost_matching, 1e-7),
            f"matching length {total} != least {ref.mincost_matching}",
        )
        require(radius >= ref.bottleneck_radius * (1 - REL_TOL), "radius below bottleneck")
    else:
        require(
            close(radius, ref.bottleneck_radius),
            f"matching radius {radius} != bottleneck {ref.bottleneck_radius}",
        )


def balanced_teams(ref: Reference, assign: np.ndarray, k: int) -> None:
    experts = np.asarray(ref.raw.experts, dtype=bool)
    counts = np.bincount(assign[experts], minlength=k)
    require(
        counts.max() - counts.min() <= 1, f"expert counts {counts.tolist()} unbalanced"
    )


def kcenter_value(ref: Reference, assign: np.ndarray, centers: list[int]) -> float:
    return float(ref.dist(np.arange(ref.n), np.asarray(centers)[assign]).max())


def kmedian_value(ref: Reference, assign: np.ndarray, centers: list[int]) -> float:
    return float(ref.dist(np.arange(ref.n), np.asarray(centers)[assign]).sum())


def swap_optimal(ref: Reference, reps, weights, centers: list[int]) -> None:
    """No single swap of a center for a representative lowers the weighted
    representative cost by more than SWAP_TOL relative."""
    reps = np.asarray(reps)
    w = np.asarray(weights, dtype=float)
    pos = {int(r): i for i, r in enumerate(reps)}
    require(all(int(c) in pos for c in centers), "a center is not a representative")
    d = ref.dist(reps[:, None], reps[None, :])
    cidx = [pos[int(c)] for c in centers]
    current = float((d[:, cidx].min(axis=1) * w).sum())
    limit = current - SWAP_TOL * max(1.0, current)
    others = np.setdiff1d(np.arange(len(reps)), cidx)
    for i in range(len(cidx)):
        rest = cidx[:i] + cidx[i + 1 :]
        base = d[:, rest].min(axis=1) if rest else np.full(len(reps), np.inf)
        trial = (np.minimum(base[:, None], d[:, others]) * w[:, None]).sum(axis=0)
        best = int(np.argmin(trial))
        require(
            trial[best] >= limit,
            f"swapping center {centers[i]} for {int(reps[others[best]])} "
            f"lowers the cost {current} to {float(trial[best])}",
        )


def coarsens(coarse: np.ndarray, fine: np.ndarray) -> bool:
    """Whether every block of ``fine`` lies inside one block of ``coarse``."""
    seen: dict[int, int] = {}
    for f, c in zip(fine.tolist(), coarse.tolist()):
        if seen.setdefault(f, c) != c:
            return False
    return True


def parse_clustering(text: str, n: int) -> tuple[np.ndarray, list[int], int]:
    """(assign, centers, k) from the program's clustering JSON."""
    doc = json.loads(text)
    k = int(doc["k"])
    assign = np.full(n, -1, dtype=np.int64)
    for b, block in enumerate(doc["blocks"]):
        for label in block:
            u = int(label)
            require(assign[u] == -1, f"node {u} in two blocks")
            assign[u] = b
    require((assign >= 0).all(), "clustering misses a node")
    centers = [int(doc["centers"][str(b)]) for b in range(len(doc["blocks"]))]
    return assign, centers, k
