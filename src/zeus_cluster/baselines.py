"""The three comparison baselines: B1 (o1 only), B2 (k-center only), MOC."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InfeasibleError
from .graph import BLUE, PURPLE, GraphInstance
from .makeshifts import (
    MakeshiftOptions,
    _block_one_center,
    makeshift_fairness_for,
    makeshift_kcenter,
    makeshift_rs,
    makeshift_rs_gamma,
    makeshift_tf,
)
from .objectives import (
    F,
    KC,
    KM,
    RS,
    TF,
    Clustering,
    PairStructure,
    singleton_clustering,
)


def baseline_b2(H: GraphInstance, k: int, opts: MakeshiftOptions) -> Clustering:
    """Plain greedy k-center: no atoms, no cohesion repair."""
    return makeshift_kcenter(H, singleton_clustering(H.n), k, opts)


def baseline_b1(H: GraphInstance, spec) -> Clustering:
    """Optimize the first objective only, ignoring everything after it.

    RS/F fragments are consolidated to exactly k blocks by repeatedly
    merging the two blocks whose fragment roots are closest.
    """
    o1 = spec.objectives[0]
    if o1.kind not in (RS, F, TF):
        raise ConfigError(f"B1 requires an RS, F, or TF first objective, got {o1.kind}")
    if o1.kind == TF:
        experts = {u for u in range(H.n) if H.experts[u]}
        return makeshift_tf(H, experts, spec.k, spec.options)
    if o1.kind == RS:
        if o1.gamma > 1:
            C, _ = makeshift_rs_gamma(H, o1.gamma)
        else:
            C, _ = makeshift_rs(H, singleton_clustering(H.n))
    else:
        C, _ = makeshift_fairness_for(H, spec.objectives)
    return consolidate_fragments(H, C, spec.k)


def consolidate_fragments(H: GraphInstance, C: Clustering, k: int) -> Clustering:
    """Merge fragments nearest-roots-first until k blocks remain."""
    if C.k < k:
        raise InfeasibleError(f"cannot split {C.k} fragments into k={k} blocks")
    groups = [list(b) for b in C.blocks()]
    roots = list(C.roots) if C.roots else [min(b) for b in groups]
    while len(groups) > k:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                d = float(H.dist[roots[i], roots[j]])
                key = (d, roots[i], roots[j])
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        groups[i] = groups[i] + groups[j]
        roots[i] = min(roots[i], roots[j])
        del groups[j]
        del roots[j]
    order = sorted(range(k), key=lambda i: min(groups[i]))
    assign = {}
    centers = {}
    atoms = C.atoms
    for b, gi in enumerate(order):
        for u in groups[gi]:
            assign[u] = b
        centers[b] = _block_one_center(H, groups[gi])
    out = Clustering(
        assignment=assign, k=k, centers=centers, atoms=atoms, roots=C.roots
    )
    out.validate(H.n)
    return out


class _MocState:
    """Agglomerative state with per-pair value caching."""

    def __init__(self, H: GraphInstance, objectives, pairs: PairStructure | None):
        self.H = H
        self.objectives = objectives
        self.next_id = H.n
        # block id -> sorted member list; ids are renewed on merge so
        # cached pair evaluations stay valid
        self.blocks: dict[int, list[int]] = {u: [u] for u in range(H.n)}
        self.radius: dict[int, float] = {u: 0.0 for u in range(H.n)}
        self.kmcost: dict[int, float] = {u: 0.0 for u in range(H.n)}
        self.block_of: dict[int, int] = {u: u for u in range(H.n)}
        self.covered: set[int] = set()
        self.partner: dict[int, int] = {}
        if pairs is not None:
            for u, v in pairs.pairs:
                if H.colors[u] == BLUE and H.colors[v] == PURPLE:
                    self.partner[u] = v
                elif H.colors[v] == BLUE and H.colors[u] == PURPLE:
                    self.partner[v] = u
        self.blue = [u for u in range(H.n) if H.colors[u] == BLUE]
        self.matched_home = 0
        self.expert_count: dict[int, int] = {
            u: 1 if H.experts[u] else 0 for u in range(H.n)
        }
        self.cache: dict[tuple[int, int, str], float] = {}

    def _merged_radius(self, a: int, b: int) -> float:
        key = (a, b, "rad")
        if key not in self.cache:
            members = self.blocks[a] + self.blocks[b]
            sub = self.H.dist[np.ix_(members, members)]
            self.cache[key] = float(sub.max(axis=1).min())
        return self.cache[key]

    def _merged_kmcost(self, a: int, b: int) -> float:
        key = (a, b, "km")
        if key not in self.cache:
            members = self.blocks[a] + self.blocks[b]
            sub = self.H.dist[np.ix_(members, members)]
            self.cache[key] = float(sub.sum(axis=1).min())
        return self.cache[key]

    def _rs_gain(self, a: int, b: int) -> int:
        key = (a, b, "rs")
        if key not in self.cache:
            gain = 0
            other = set(self.blocks[b])
            for u in self.blocks[a]:
                if u not in self.covered and any(
                    v in other for v in self.H.adjacency[u]
                ):
                    gain += 1
            mine = set(self.blocks[a])
            for u in self.blocks[b]:
                if u not in self.covered and any(
                    v in mine for v in self.H.adjacency[u]
                ):
                    gain += 1
            self.cache[key] = gain
        return self.cache[key]

    def _f_gain(self, a: int, b: int) -> int:
        key = (a, b, "f")
        if key not in self.cache:
            gain = 0
            for x, y in ((a, b), (b, a)):
                other = set(self.blocks[y])
                for u in self.blocks[x]:
                    if (
                        self.H.colors[u] == BLUE
                        and u in self.partner
                        and self.partner[u] in other
                    ):
                        gain += 1
            self.cache[key] = gain
        return self.cache[key]

    def candidate_values(self, a: int, b: int, top_radii, total_km) -> list[float]:
        """Full-clustering objective values if blocks a and b were merged."""
        out = []
        for o in self.objectives:
            if o.kind == KC:
                rest = 0.0
                for bid, r in top_radii:
                    if bid != a and bid != b:
                        rest = r
                        break
                out.append(max(rest, self._merged_radius(a, b)))
            elif o.kind == KM:
                out.append(
                    total_km
                    - self.kmcost[a]
                    - self.kmcost[b]
                    + self._merged_kmcost(a, b)
                )
            elif o.kind == RS:
                out.append((len(self.covered) + self._rs_gain(a, b)) / self.H.n)
            elif o.kind == F:
                out.append(
                    (self.matched_home + self._f_gain(a, b)) / max(1, len(self.blue))
                )
            else:  # tf
                counts = [
                    self.expert_count[x]
                    for x in self.blocks
                    if x != a and x != b
                ]
                counts.append(self.expert_count[a] + self.expert_count[b])
                out.append(
                    float("inf")
                    if min(counts) == 0
                    else max(counts) / min(counts)
                )
        return out

    def merge(self, a: int, b: int) -> None:
        members = sorted(self.blocks[a] + self.blocks[b])
        new_id = self.next_id
        self.next_id += 1
        self.radius[new_id] = self._merged_radius(a, b)
        self.kmcost[new_id] = self._merged_kmcost(a, b)
        self.covered.update(
            u
            for u in members
            if u not in self.covered
            and any(self.block_of.get(v) in (a, b) for v in self.H.adjacency[u])
        )
        self.matched_home += self._f_gain(a, b)
        self.expert_count[new_id] = self.expert_count[a] + self.expert_count[b]
        for key in (a, b):
            del self.blocks[key]
            del self.radius[key]
            del self.kmcost[key]
            del self.expert_count[key]
        self.blocks[new_id] = members
        for u in members:
            self.block_of[u] = new_id


def baseline_moc(
    H: GraphInstance, spec, pairs: PairStructure | None = None
) -> Clustering:
    """Equal-weight two-objective agglomerative clustering.

    Starts from singletons and repeatedly applies the merge minimizing the
    sum of both objectives' values, each min-max normalized over the
    candidate merges of the round (maximization objectives negated).
    """
    return baseline_moc_path(H, spec, (spec.k,), pairs)[spec.k]


def baseline_moc_path(
    H: GraphInstance, spec, ks, pairs: PairStructure | None = None
) -> dict[int, Clustering]:
    """Agglomerative MOC clusterings for every requested k, in one pass.

    The merge sequence is nested, so the clustering at each k along the
    way is exactly what ``baseline_moc`` would produce for that k.
    """
    if len(spec.objectives) != 2:
        raise ConfigError("the MOC baseline requires exactly two objectives")
    if any(o.kind == F for o in spec.objectives) and pairs is None:
        pairs = makeshift_fairness_for(H, spec.objectives)[1]
    wanted = sorted(set(ks), reverse=True)
    if not wanted or wanted[-1] < 1 or wanted[0] > H.n:
        raise ConfigError(f"k values must lie in 1..{H.n}")
    state = _MocState(H, spec.objectives, pairs)
    out: dict[int, Clustering] = {}
    k = wanted[-1]
    if len(state.blocks) in wanted:
        out[len(state.blocks)] = _moc_snapshot(H, state)
    while len(state.blocks) > k:
        ids = sorted(state.blocks)
        top_radii = sorted(state.radius.items(), key=lambda kv: -kv[1])[:3]
        total_km = sum(state.kmcost.values())
        raw: list[tuple[int, int, list[float]]] = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                raw.append(
                    (
                        ids[i],
                        ids[j],
                        state.candidate_values(ids[i], ids[j], top_radii, total_km),
                    )
                )
        scores = []
        for dim, o in enumerate(spec.objectives):
            vals = [r[2][dim] for r in raw]
            finite = [v for v in vals if v != float("inf")]
            lo = min(finite) if finite else 0.0
            hi = max(finite) if finite else 0.0
            span = hi - lo
            col = []
            for v in vals:
                if v == float("inf"):
                    norm = 2.0  # off-scale penalty for degenerate ratios
                elif span == 0:
                    norm = 0.0  # degenerate normalization
                else:
                    norm = (v - lo) / span
                if o.maximize:
                    norm = -norm
                col.append(norm)
            scores.append(col)
        best = min(
            range(len(raw)),
            key=lambda t: (scores[0][t] + scores[1][t], raw[t][0], raw[t][1]),
        )
        state.merge(raw[best][0], raw[best][1])
        if len(state.blocks) in wanted:
            out[len(state.blocks)] = _moc_snapshot(H, state)
    return out


def _moc_snapshot(H: GraphInstance, state: _MocState) -> Clustering:
    groups = sorted(state.blocks.values(), key=min)
    assign = {}
    centers = {}
    for b, members in enumerate(groups):
        for u in members:
            assign[u] = b
        centers[b] = _block_one_center(H, members)
    out = Clustering(assignment=assign, k=len(groups), centers=centers)
    out.validate(H.n)
    return out
