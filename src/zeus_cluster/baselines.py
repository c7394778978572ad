"""The three comparison baselines: B1 (o1 only), B2 (k-center only), MOC."""

from __future__ import annotations

import math
from bisect import bisect_right

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
    calls for any k replay a prefix of it. The blocks' 1-centers are kept
    there too: the merges are nested from one k to the next, so most
    blocks of one k are blocks of another."""
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
    known = None if memo is None else memo.setdefault("block centers", {})
    return _centered_blocks(H, [g for g in groups if g], C.atom, known)


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


def _centered_blocks(
    H: GraphInstance, groups: list[list[int]], atoms=(), known: dict | None = None
) -> Clustering:
    """The groups as blocks, ordered by their lowest member, each centered
    at its best 1-center, with the given ``Atoms`` (by default none).

    ``known`` maps a group's members, ascending, to its 1-center: groups
    found there are not centered again, and the others are added.
    """
    groups = sorted(groups, key=min)
    label = np.full(H.n, -1, dtype=np.int64)
    label[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    known = {} if known is None else known
    for g in groups:
        if tuple(g) not in known:
            known[tuple(g)] = _block_one_center(H, g)
    centers = [known[tuple(g)] for g in groups]
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
    anew. The E table is slot-major, one row per block, so a merge ORs
    one row into another and reads the new cover from it. A round does
    O(B^2) array work, plus O(n) and the merged block's rows of the
    eccentricity table.

    A maximized objective's normalized value is subtracted, which gives
    the floats of adding its negation. A single least score is decoded
    from the list of column starts. The merges are nested, so a block at
    one requested k is often a block at the next: each block's 1-center
    is computed once per pass.
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
    # slot that labels it in node_slot and the eccentricity and E tables
    blocks = [[u] for u in range(n)]
    slot = np.arange(n)
    node_slot = np.arange(n)
    # the blocks low < high of each pair at the start, and [y]: where
    # column y, the pairs (0, y) .. (y - 1, y), starts
    high, low = np.tril_indices(n, -1)
    start = _pair_position(0, np.arange(n + 1))
    starts = start.tolist()
    # sorted members -> 1-center, of every block centered in this pass
    centers: dict = {}
    # a score adds the normalized values and subtracts a maximized one, so
    # a minimized one goes first: (-a) + b is b - a in IEEE arithmetic
    order = sorted(objectives, key=lambda o: o.maximize)
    if KC in kinds:
        radius = np.zeros(n)
        # [t]: 1-center radius of pair t's blocks merged
        merged_radius = H.dist[low, high]
        # [c, s]: the distance from node c to the farthest member of the
        # block in slot s, and [c]: that of c's own block
        ecc = H.dist.copy()
        own = np.zeros(n)
        reach = np.empty(n)
    if KM in kinds:
        kmcost = np.zeros(n)
        merged_kmcost = H.dist[low, high]
    if RS in kinds:
        # covered: the nodes with an E-neighbour in their own block;
        # [t]: uncovered nodes of one block of pair t with an E-neighbour
        # in the other, both ways; near[s, c]: whether node c has an
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
    keep_buffer = np.empty(len(low), dtype=bool)
    out: dict[int, Clustering] = {}
    while True:
        B = len(blocks)
        if B in wanted:
            out[B] = _centered_blocks(H, blocks, known=centers)
        if B == wanted[0]:
            return out
        score = None
        # [t]: the objective's value for the whole clustering after merging
        # pair t's blocks
        for o in order:
            if o.kind == KC:
                value = _with_others(merged_radius, radius, True, 0.0, start)
            elif o.kind == KM:
                total = math.fsum(kmcost.tolist())
                P = len(merged_kmcost)
                value = total - kmcost[low[:P]] - kmcost[high[:P]] + merged_kmcost
            elif o.kind == RS:
                value = (np.count_nonzero(covered) + gain) / n
            elif o.kind == F:
                value = (together + split) / n_blue
            else:  # tf
                hi = _with_others(pair, experts, True, -np.inf, start)
                lo = _with_others(pair, experts, False, np.inf, start)
                value = np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo > 0)
            norm = _normalized(value)
            if score is not None:
                (np.subtract if o.maximize else np.add)(score, norm, out=score)
            else:
                score = np.negative(norm, out=norm) if o.maximize else norm
        # equal least scores go to the least x and, of its pairs, to the
        # least y; column order may list other pairs first
        best = (score == np.minimum.reduce(score)).nonzero()[0]
        if len(best) == 1:
            t = int(best[0])
            j = bisect_right(starts, t) - 1
            i = t - starts[j]
        else:
            x, y = _pair_at(best, start)
            f = int(x.argmin())
            i, j, t = int(x[f]), int(y[f]), int(best[f])
        # the pairs without i and j: all but their columns and rows
        keep = keep_buffer[: len(score)]
        keep.fill(True)
        keep[starts[i] : starts[i + 1]] = keep[starts[j] : starts[j + 1]] = False
        keep[start[i + 1 : B] + i] = keep[start[j + 1 : B] + j] = False
        merged = sorted(blocks[i] + blocks[j])
        del blocks[j], blocks[i]
        blocks.append(merged)
        members = np.array(merged)
        si, sj = int(slot[i]), int(slot[j])
        slot = _without(slot, i, j, slot[i : i + 1])
        node_slot[members] = si
        older = slot[:-1]
        if KC in kinds:
            radius = _without(radius, i, j, merged_radius[t : t + 1])
            far = np.maximum(ecc[:, si], ecc[:, sj], out=ecc[:, si])
            own[members] = far[members]
            # the merged block with each older one: the least, over the
            # nodes of both, of the larger eccentricity to either
            reach.fill(np.inf)
            np.minimum.at(reach, node_slot, np.maximum(far, own))
            inside = ecc.take(members, 0).take(older, 1)
            np.maximum(inside, own[members][:, None], out=inside)
            merged_radius = np.concatenate(
                (merged_radius[keep], np.minimum(reach[older], np.minimum.reduce(inside)))
            )
        if KM in kinds:
            kmcost = _without(kmcost, i, j, merged_kmcost[t : t + 1])
            merged_kmcost = np.concatenate((merged_kmcost[keep], _merged_one_median(H, blocks)))
        if RS in kinds:
            near[si] |= near[sj]
            reached = near[si]
            now = reached[members]
            covered[members] = now
            # uncovered members by the older blocks they reach, and
            # uncovered older nodes by their blocks, if they reach the merged one
            counts = np.add.reduce(near.take(members[~now], 1).take(older, 0), axis=1)
            outside = reached & ~covered
            outside[members] = False
            counts += np.bincount(node_slot[outside], minlength=n)[older]
            gain = np.concatenate((gain[keep], counts))
        if F in kinds:
            together += split[t]
            rest = np.delete(np.arange(B), (i, j))
            tail = split[_pairs_with(i, rest)] + split[_pairs_with(j, rest)]
            split = np.concatenate((split[keep], tail))
        if TF in kinds:
            experts = _without(experts, i, j, experts[i : i + 1] + experts[j : j + 1])
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


def _with_others(pair: np.ndarray, v: np.ndarray, largest: bool, empty: float, start) -> np.ndarray:
    """[t]: the larger (or smaller) of pair[t] and the largest (or
    smallest) entry of v other than those of pair t's two blocks.

    Only the top three entries of v matter, each the first of its value,
    as a stable sort lists them. With a and b the positions of the first
    two, pairs without a take the first, a's column and row (see
    ``baseline_moc_path``) the second, and the pair of a and b the third.
    """
    op, pick = (np.maximum, max) if largest else (np.minimum, min)
    w = v.copy() if largest else -v
    top = []
    for _ in range(min(3, len(v))):
        top.append(int(w.argmax()))
        w[top[-1]] = -np.inf
    a, b = top[:2]
    out = op(pair, float(v[a]))
    column, row = slice(start[a], start[a + 1]), start[a + 1 : len(v)] + a
    op(pair[column], float(v[b]), out=out[column])
    out[row] = op(pair[row], float(v[b]))
    ab = _pair_position(min(a, b), max(a, b))
    out[ab] = pick(float(pair[ab]), float(v[top[2]]) if len(v) > 2 else empty)
    return out


def _normalized(value: np.ndarray) -> np.ndarray:
    """Min-max scale value in place over its finite entries; +inf scores an off-scale 2."""
    lo, hi = np.minimum.reduce(value), np.maximum.reduce(value)
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
    return value


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


def _without(v: np.ndarray, i: int, j: int, last: np.ndarray) -> np.ndarray:
    """v without entries i < j, followed by the entries of last."""
    return np.concatenate((v[:i], v[i + 1 : j], v[j + 1 :], last))
