"""The three comparison baselines: B1 (o1 only), B2 (k-center only), MOC."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InfeasibleError
from .graph import BLUE, GraphInstance
from .makeshifts import (
    MakeshiftOptions,
    _block_one_center,
    fairness_pairs,
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
    atom_arrays,
    blue_partners,
    left_sum,
    singleton_clustering,
)


def baseline_b2(H: GraphInstance, k: int, opts: MakeshiftOptions) -> Clustering:
    """Plain greedy k-center: no atoms, no cohesion repair."""
    return makeshift_kcenter(H, singleton_clustering(H.n), k, opts)[0]


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
            C, _ = makeshift_rs_gamma(H, singleton_clustering(H.n), o1.gamma)
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
    roots = np.array(C.roots if C.roots else [min(b) for b in groups])
    g = len(groups)
    # [i, j] for live positions i < j: the distance between their roots
    live = np.triu(np.ones((g, g), dtype=bool), 1)
    gap = H.dist[np.ix_(roots, roots)]
    for _ in range(g - k):
        close = live & (gap == gap[live].min())
        # ties go to the least (roots[i], roots[j])
        pi, pj = np.nonzero(close)
        t = np.lexsort((roots[pj], roots[pi]))[0]
        i, j = int(pi[t]), int(pj[t])
        groups[i] += groups[j]
        groups[j] = []
        live[j, :] = live[:, j] = False
        if roots[j] < roots[i]:
            roots[i] = roots[j]
            gap[i, :] = gap[:, i] = H.dist[roots[i], roots]
    groups = [members for members in groups if members]
    return _centered_blocks(H, groups, C.atoms, C.roots)


def _centered_blocks(
    H: GraphInstance, groups: list[list[int]], atoms=(), roots=()
) -> Clustering:
    """The groups as blocks, ordered by their lowest member, each centered
    at its best 1-center."""
    groups = sorted(groups, key=min)
    members, block = atom_arrays(groups)
    assignment = dict(zip(members.tolist(), block.tolist()))
    centers = {b: _block_one_center(H, g) for b, g in enumerate(groups)}
    out = Clustering(assignment, len(groups), centers, atoms, roots)
    out.validate(H.n)
    return out


def baseline_moc_path(
    H: GraphInstance, objectives, ks, pairs: PairStructure | None = None
) -> dict[int, Clustering]:
    """Equal-weight two-objective agglomerative clustering, for every k in ks.

    Starts from singletons and repeatedly applies the merge minimizing the
    sum of both objectives' full-clustering values, each min-max normalized
    over the candidate merges of the round (maximization objectives
    negated); ties go to the first pair in creation order. The merge
    sequence is nested, so one pass yields the clustering at every
    requested k.
    """
    if len(objectives) != 2:
        raise ConfigError("the MOC baseline requires exactly two objectives")
    if pairs is None:
        pairs = fairness_pairs(H, objectives)
    wanted = sorted(set(ks))
    if not wanted or wanted[0] < 1 or wanted[-1] > H.n:
        raise ConfigError(f"k values must lie in 1..{H.n}")
    n = H.n
    kinds = {o.kind for o in objectives}
    # live blocks in creation order, each with its sorted members, 1-center
    # radius, 1-median cost, expert count and node-membership column
    blocks = [[u] for u in range(n)]
    experts = np.array(H.experts, dtype=float)
    member = np.eye(n)
    if KC in kinds:
        radius = np.zeros(n)
        # [i, j] for i < j: 1-center radius of i and j merged
        merged_radius = H.dist.copy()
        # [c, i]: the distance from node c to the farthest member of block i
        ecc = H.dist.copy()
    if KM in kinds:
        kmcost = np.zeros(n)
        merged_kmcost = H.dist.copy()
    # [u, i]: E-neighbours of node u in block i
    near = np.zeros((n, n))
    u, v = H.edges.T
    near[u, v] = near[v, u] = 1.0
    partner = blue_partners(H, pairs) if pairs is not None else {}
    blue, purple = list(partner), list(partner.values())
    n_blue = max(1, sum(1 for c in H.colors if c == BLUE))
    out: dict[int, Clustering] = {}
    while True:
        if len(blocks) in wanted:
            out[len(blocks)] = _centered_blocks(H, blocks)
        if len(blocks) == wanted[0]:
            return out
        upper = np.triu_indices(len(blocks), 1)
        score = None
        # [i, j]: the objective's value for the whole clustering after
        # merging i and j
        for o in objectives:
            if o.kind == KC:
                value = np.maximum(_others(radius, 0.0, True), merged_radius)
            elif o.kind == KM:
                total = left_sum(kmcost)
                value = total - kmcost[:, None] - kmcost[None, :] + merged_kmcost
            elif o.kind == RS:
                covered = (near * member).sum(axis=1) > 0
                # [i, j]: uncovered nodes of block i with an E-neighbour in j
                gain = member[~covered].T @ (near[~covered] > 0)
                value = (covered.sum() + gain + gain.T) / n
            elif o.kind == F:
                home = member[blue].T @ member[purple]
                value = (np.trace(home) + home + home.T) / n_blue
            else:  # tf
                pair = experts[:, None] + experts[None, :]
                hi = np.maximum(_others(experts, -np.inf, True), pair)
                lo = np.minimum(_others(experts, np.inf, False), pair)
                value = np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo > 0)
            norm = _normalized(value[upper], o.maximize)
            score = norm if score is None else score + norm
        best = int(np.argmin(score))
        i, j = int(upper[0][best]), int(upper[1][best])
        keep = [x for x in range(len(blocks)) if x != i and x != j]
        merged = sorted(blocks[i] + blocks[j])
        blocks = [blocks[x] for x in keep] + [merged]
        experts = np.append(experts[keep], experts[i] + experts[j])
        member = np.column_stack((member[:, keep], member[:, i] + member[:, j]))
        near = np.column_stack((near[:, keep], near[:, i] + near[:, j]))
        if KC in kinds:
            radius = np.append(radius[keep], merged_radius[i, j])
            ecc = np.column_stack((ecc[:, keep], np.maximum(ecc[:, i], ecc[:, j])))
            # the merged block with each older one: the least eccentricity
            # over the nodes of both
            inside = (member[:, :-1] + member[:, -1:]) > 0
            reach = np.maximum(ecc[:, :-1], ecc[:, -1:])
            new_radius = np.where(inside, reach, np.inf).min(axis=0)
            merged_radius = _bordered(merged_radius[np.ix_(keep, keep)], new_radius)
        if KM in kinds:
            kmcost = np.append(kmcost[keep], merged_kmcost[i, j])
            new_kmcost = _merged_one_median(H, blocks)
            merged_kmcost = _bordered(merged_kmcost[np.ix_(keep, keep)], new_kmcost)


def _merged_one_median(H: GraphInstance, blocks: list[list[int]]) -> np.ndarray:
    """[x]: the 1-median cost of block x merged with the last block.

    Each cost is the least row sum of the distances among ``older +
    merged``, summed in that order; blocks of one size share one gather.
    """
    merged = blocks[-1]
    out = np.empty(len(blocks) - 1)
    by_size: dict[int, list[int]] = {}
    for x, older in enumerate(blocks[:-1]):
        by_size.setdefault(len(older), []).append(x)
    for xs in by_size.values():
        both = np.array([blocks[x] + merged for x in xs])
        out[xs] = H.dist[both[:, :, None], both[:, None, :]].sum(axis=2).min(axis=1)
    return out


def _others(v: np.ndarray, empty: float, largest: bool) -> np.ndarray:
    """[i, j]: the largest (or smallest) entry of v other than v[i] and v[j]."""
    order = np.argsort(-v if largest else v, kind="stable")
    top = [v[t] for t in order[:3]] + [empty] * 2
    a, b = order[0], order[1]
    out = np.full((len(v), len(v)), top[0])
    out[a, :] = out[:, a] = top[1]
    out[a, b] = out[b, a] = top[2]
    return out


def _normalized(value: np.ndarray, maximize: bool) -> np.ndarray:
    """Min-max scale over the finite values; +inf becomes an off-scale 2."""
    infinite = value == np.inf
    finite = value[~infinite]
    lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    norm = (value - lo) / (hi - lo) if hi != lo else np.zeros(len(value))
    norm[infinite] = 2.0
    return -norm if maximize else norm


def _bordered(square: np.ndarray, column: np.ndarray) -> np.ndarray:
    """square with column appended as a last column and row."""
    out = np.zeros((len(column) + 1, len(column) + 1))
    out[:-1, :-1] = square
    out[:-1, -1] = out[-1, :-1] = column
    return out

