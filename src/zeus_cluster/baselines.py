"""The three comparison baselines: B1 (o1 only), B2 (k-center only), MOC."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InfeasibleError
from .graph import GraphInstance
from .makeshifts import MakeshiftOptions, _block_one_center, fairness_pairs, makeshift_kcenter
from .objectives import (
    F,
    KC,
    KM,
    RS,
    TF,
    Clustering,
    PairStructure,
    blue_partners,
    check_positive_int,
    group_by_block,
    singleton_clustering,
)
from .zeus import run_makeshift


def baseline_b2(H: GraphInstance, k: int, opts: MakeshiftOptions) -> Clustering:
    """Plain greedy k-center: no atoms, no cohesion repair."""
    return makeshift_kcenter(H, singleton_clustering(H.n), k, opts)[0]


def baseline_b1(H: GraphInstance, spec, memo: dict | None = None) -> Clustering:
    """Optimize the first objective only, ignoring everything after it.

    The first stage's makeshift sees the list ``(o1,)``, so ``tf`` always
    picks its centers by balanced k-center; an ``f`` first objective keeps
    the matching that the whole list defines. RS/F fragments are
    consolidated to exactly k blocks as ``consolidate_fragments`` does.
    ``memo`` is handed to ``run_makeshift``, and keeps
    the fragments' merge order, which depends on neither k nor the seed:
    with one memo the root pairs of a fragment clustering are sorted once,
    and each call replays its k's prefix of the merges and centers them.
    """
    check_positive_int("k", spec.k)
    o1 = spec.objectives[0]
    if o1.kind not in (RS, F, TF):
        raise ConfigError(f"B1 requires an RS, F, or TF first objective, got {o1.kind}")
    objectives = spec.objectives if o1.kind == F else (o1,)
    C = run_makeshift(H, singleton_clustering(H.n), o1, objectives, spec.k, spec.options, memo)[0]
    return C if o1.kind == TF else _consolidated(H, C, spec.k, memo)


def consolidate_fragments(H: GraphInstance, C: Clustering, k: int) -> Clustering:
    """Merge fragments nearest-roots-first until k blocks remain.

    Each merge joins the two live fragments whose roots are closest, ties
    to the least (root at the lower position, root at the higher position)
    in block order. The merged fragment keeps the lower position and the
    smaller root. That root is one of the two old ones, so the distances
    between live roots never change and only roots die: one scan of the
    root pairs, sorted by distance, makes every merge (``_merge_order``).
    """
    return _consolidated(H, C, k, None)


def _consolidated(H: GraphInstance, C: Clustering, k: int, memo: dict | None) -> Clustering:
    """``consolidate_fragments(H, C, k)``. With ``memo``, which serves one
    instance, the merge order down to one block is stored there under the
    roots it was made from, all that the scan reads of ``C``, and later
    calls for any k replay a prefix of it."""
    check_positive_int("k", k)
    if C.k < k:
        raise InfeasibleError(f"cannot split {C.k} fragments into k={k} blocks")
    roots = C.atom.roots if len(C.atom.roots) else np.unique(C.label, return_index=True)[1]
    if memo is None:
        merges = _merge_order(H, roots, C.k - k)
    else:
        key = ("merge order", roots.tobytes())
        if key not in memo:
            memo[key] = _merge_order(H, roots, C.k - 1)
        merges = memo[key]
    # each block's final position: a merge moves the block at the higher
    # position into the one at the lower, so chains only run downward
    to = np.arange(C.k)
    to[merges[: C.k - k, 1]] = merges[: C.k - k, 0]
    while (to[to] != to).any():
        to = to[to]
    groups = group_by_block(np.arange(len(C.label)), to[C.label], C.k)
    return _centered_blocks(H, [g for g in groups if g], C.atom)


def _merge_order(H: GraphInstance, roots: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` merges of ``consolidate_fragments``, each as the
    (lower, higher) block positions it joins.

    The root pairs are sorted once by distance and walked in order. Pairs
    with a dead root are skipped in chunks, which double while none of
    their pairs is live. A run of equal distances is settled one merge at
    a time by the tie rule, since a merge can move a surviving root to a
    lower position.
    """
    g = len(roots)
    # the pairs i < j of root indices, row by row, and their root distances;
    # int32 indices and one row at a time keep the g(g - 1)/2 tables small
    first = np.repeat(np.arange(g, dtype=np.int32), np.arange(g - 1, -1, -1))
    second = np.empty_like(first)
    gap = np.empty(len(first))
    start = 0
    for i in range(g - 1):
        second[start : start + g - 1 - i] = np.arange(i + 1, g)
        gap[start : start + g - 1 - i] = H.dist[roots[i], roots[i + 1 :]]
        start += g - 1 - i
    # ties are settled below, so the sort need not be stable
    order = np.argsort(gap)
    gap.sort()
    first = first[order]
    second = second[order]
    del order
    alive = np.ones(g, dtype=bool)
    # at[r]: the position of the block rooted at roots[r]
    at = np.arange(g)
    merges: list[tuple[int, int]] = []

    def live(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.flatnonzero(alive[x] & alive[y])

    def merge(u: int, v: int) -> None:
        lower, higher = sorted((int(at[u]), int(at[v])))
        merges.append((lower, higher))
        keep, die = (u, v) if roots[u] < roots[v] else (v, u)
        alive[die] = False
        at[keep] = lower

    t = 0
    while len(merges) < count:
        # the next pair with both roots live
        step = 64
        while not (hit := live(first[t : t + step], second[t : t + step])).size:
            t += step
            step *= 2
        t += int(hit[0])
        end = t + 1
        if end < len(gap) and gap[end] == gap[t]:
            end = int(np.searchsorted(gap, gap[t], side="right"))
        if end == t + 1:
            merge(int(first[t]), int(second[t]))
        else:
            x, y = first[t:end], second[t:end]
            while len(merges) < count and (both := live(x, y)).size:
                u, v = x[both], y[both]
                # u at the lower position of each pair
                lower = at[u] < at[v]
                u, v = np.where(lower, u, v), np.where(lower, v, u)
                p = np.lexsort((roots[v], roots[u]))[0]
                merge(int(u[p]), int(v[p]))
        t = end
    return np.array(merges, dtype=np.int64).reshape(-1, 2)


def _centered_blocks(H: GraphInstance, groups: list[list[int]], atoms=()) -> Clustering:
    """The groups as blocks, ordered by their lowest member, each centered
    at its best 1-center, with the given ``Atoms`` (by default none)."""
    groups = sorted(groups, key=min)
    label = np.full(H.n, -1, dtype=np.int64)
    label[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    centers = [_block_one_center(H, g) for g in groups]
    return Clustering.from_labels(label, centers, atoms)


def baseline_moc_path(
    H: GraphInstance, objectives, ks, pairs: PairStructure | None = None
) -> dict[int, Clustering]:
    """Equal-weight two-objective agglomerative clustering, for every k in ks.

    Starts from singletons and repeatedly applies the merge minimizing the
    sum of both objectives' full-clustering values, each min-max normalized
    over the candidate merges of the round (maximization objectives
    negated); ties go to the least pair (x, y) of block positions. The
    merge sequence is nested, so one pass yields the clustering at every
    requested k.

    The live blocks sit at positions 0..B-1 in creation order. Each
    objective keeps what its candidate values are made of and updates it
    on each merge instead of rebuilding it: ``kc`` the merged 1-center
    radii, from each node's distance to the farthest member of each block;
    ``km`` the merged 1-median costs; ``rs`` the covered nodes and, per
    pair of blocks, the uncovered nodes their merge would cover; ``f`` the
    matched pairs split between two blocks; ``tf`` the expert counts and
    their pair sums. Each pair table is condensed, one entry per pair x < y
    column by column (``_pair_position``), so a round reads it whole. A
    merge of i and j keeps the pairs without i and j, still in column
    order, and appends the merged block's column, the only one computed
    anew. A round does O(B^2) array work, plus O(n) and the merged block's
    rows of the eccentricity and E tables.
    """
    if len(objectives) != 2:
        raise ConfigError("the MOC baseline requires exactly two objectives")
    ks = list(ks)
    for k in ks:
        check_positive_int("k", k)
    if pairs is None:
        pairs = fairness_pairs(H, objectives)
    wanted = sorted(set(ks))
    if not wanted or wanted[-1] > H.n:
        raise ConfigError(f"k values must lie in 1..{H.n}")
    n = H.n
    kinds = {o.kind for o in objectives}
    # live blocks in creation order, each with its sorted members, and the
    # slot that labels it in node_slot and the eccentricity columns
    blocks = [[u] for u in range(n)]
    slot = np.arange(n)
    node_slot = np.arange(n)
    # the blocks low < high of each pair at the start, and [y]: where
    # column y, the pairs (0, y) .. (y - 1, y), starts
    high, low = np.tril_indices(n, -1)
    start = _pair_position(0, np.arange(n + 1))
    if KC in kinds:
        radius = np.zeros(n)
        # [t]: 1-center radius of pair t's blocks merged
        merged_radius = H.dist[low, high]
        # [c, s]: the distance from node c to the farthest member of the
        # block in slot s, and [c]: that of c's own block
        ecc = H.dist.copy()
        own = np.zeros(n)
    if KM in kinds:
        kmcost = np.zeros(n)
        merged_kmcost = H.dist[low, high]
    if RS in kinds:
        # covered: the nodes with an E-neighbour in their own block;
        # [t]: uncovered nodes of one block of pair t with an E-neighbour
        # in the other, both ways; near[c, s]: whether node c has an
        # E-neighbour in the block in slot s
        covered = np.zeros(n, dtype=bool)
        gain = np.zeros(len(low))
        near = np.zeros((n, n), dtype=bool)
        u, v = H.edges.T
        gain[_pair_position(u, v)] = 2.0
        near[u, v] = near[v, u] = True
    if F in kinds:
        # [t]: matched Blue-Purple pairs split between pair t's blocks, and
        # the pairs inside one block
        blue, purple = blue_partners(H, pairs)
        split = np.zeros(len(low))
        split[_pairs_with(blue, purple)] = 1.0
        together = 0.0
        n_blue = max(1, int(H.is_blue.sum()))
    if TF in kinds:
        experts = H.is_expert.astype(float)
        pair = experts[low] + experts[high]
    out: dict[int, Clustering] = {}
    while True:
        B = len(blocks)
        if B in wanted:
            out[B] = _centered_blocks(H, blocks)
        if B == wanted[0]:
            return out
        score = None
        # [t]: the objective's value for the whole clustering after merging
        # pair t's blocks
        for o in objectives:
            if o.kind == KC:
                value = _with_others(merged_radius, radius, np.maximum, 0.0, start)
            elif o.kind == KM:
                total = math.fsum(kmcost.tolist())
                P = len(merged_kmcost)
                value = total - kmcost[low[:P]] - kmcost[high[:P]] + merged_kmcost
            elif o.kind == RS:
                value = (covered.sum() + gain) / n
            elif o.kind == F:
                value = (together + split) / n_blue
            else:  # tf
                hi = _with_others(pair, experts, np.maximum, -np.inf, start)
                lo = _with_others(pair, experts, np.minimum, np.inf, start)
                value = np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo > 0)
            norm = _normalized(value, o.maximize)
            score = norm if score is None else score + norm
        # equal least scores go to the least x and, of its pairs, to the
        # first, with the least y; column order may list other pairs first
        best = (score == score.min()).nonzero()[0]
        x, y = _pair_at(best, start)
        first = x.argmin()
        i, j, t = int(x[first]), int(y[first]), int(best[first])
        # the pairs without i and j: all but their columns and rows
        keep = np.ones(len(score), dtype=bool)
        keep[start[i] : start[i + 1]] = keep[start[j] : start[j + 1]] = False
        keep[start[i + 1 : B] + i] = keep[start[j + 1 : B] + j] = False
        merged = sorted(blocks[i] + blocks[j])
        del blocks[j], blocks[i]
        blocks.append(merged)
        members = np.array(merged)
        si, sj = slot[i], slot[j]
        slot = _without(slot, i, j, si)
        node_slot[members] = si
        older = slot[:-1]
        if KC in kinds:
            radius = _without(radius, i, j, merged_radius[t])
            np.maximum(ecc[:, si], ecc[:, sj], out=ecc[:, si])
            own[members] = ecc[members, si]
            # the merged block with each older one: the least, over the
            # nodes of both, of the larger eccentricity to either
            reach = np.full(n, np.inf)
            np.minimum.at(reach, node_slot, np.maximum(ecc[:, si], own))
            inside = np.maximum(ecc[members[:, None], older], own[members][:, None])
            inside = inside.min(axis=0)
            merged_radius = np.concatenate((merged_radius[keep], np.minimum(reach[older], inside)))
        if KM in kinds:
            kmcost = _without(kmcost, i, j, merged_kmcost[t])
            merged_kmcost = np.concatenate((merged_kmcost[keep], _merged_one_median(H, blocks)))
        if RS in kinds:
            near[:, si] |= near[:, sj]
            covered[members] = near[members, si]
            # uncovered members by the older blocks they reach, and
            # uncovered older nodes by their blocks, if they reach the merged one
            counts = near[members[~covered[members]][:, None], older].sum(axis=0)
            outside = near[:, si] & ~covered & (node_slot != si)
            counts += np.bincount(node_slot[outside], minlength=n)[older]
            gain = np.concatenate((gain[keep], counts))
        if F in kinds:
            together += split[t]
            rest = np.delete(np.arange(B), (i, j))
            tail = split[_pairs_with(i, rest)] + split[_pairs_with(j, rest)]
            split = np.concatenate((split[keep], tail))
        if TF in kinds:
            experts = _without(experts, i, j, experts[i] + experts[j])
            pair = np.concatenate((pair[keep], experts[:-1] + experts[-1]))


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


def _with_others(pair: np.ndarray, v: np.ndarray, op, empty: float, start) -> np.ndarray:
    """[t]: op (np.maximum or np.minimum) of pair[t] and the largest (or
    smallest) entry of v other than those of pair t's two blocks.

    Only the top three entries of v matter. With a and b the positions of
    the first two, pairs without a take the first, a's column and row (see
    ``baseline_moc_path``) the second, and the pair of a and b the third.
    """
    order = np.argsort(-v if op is np.maximum else v, kind="stable")[:3].tolist()
    top = v[order].tolist() + [empty] * 2
    a, b = order[:2]
    out = op(pair, top[0])
    column, row = slice(start[a], start[a + 1]), start[a + 1 : len(v)] + a
    op(pair[column], top[1], out=out[column])
    out[row] = op(pair[row], top[1])
    ab = _pair_position(min(a, b), max(a, b))
    out[ab] = op(pair[ab], top[2])
    return out


def _normalized(value: np.ndarray, maximize: bool) -> np.ndarray:
    """Min-max scale value in place over its finite entries; +inf scores an off-scale 2."""
    lo, hi = value.min(), value.max()
    infinite = None
    if hi == np.inf:
        infinite = value == np.inf
        finite = value[~infinite]
        lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    value -= lo  # every finite entry is lo when hi == lo
    if hi != lo:
        value /= hi - lo
    if infinite is not None:
        value[infinite] = 2.0
    return np.negative(value, out=value) if maximize else value


def _pair_position(x, y):
    """The condensed position of the pair of blocks x < y: the pairs are
    listed column by column, and column y starts at y(y - 1)/2."""
    return y * (y - 1) // 2 + x


def _pair_at(t: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (x, y) at condensed positions t, given each column's start."""
    y = start.searchsorted(t, "right") - 1
    return t - start[y], y


def _pairs_with(i, others):
    """The condensed positions of the pairs of block i with each of others."""
    return _pair_position(np.minimum(others, i), np.maximum(others, i))


def _without(v: np.ndarray, i: int, j: int, *last) -> np.ndarray:
    """v without entries i < j, followed by the values last."""
    return np.concatenate((v[:i], v[i + 1 : j], v[j + 1 :], last))
