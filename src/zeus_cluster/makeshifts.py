"""Per-objective makeshift subroutines.

Each makeshift reshapes the clusters formed by previously processed
objectives to serve the current one: greedy k-center with atom cohesion,
min-max edge cover for resource sharing, bottleneck bipartite matching
for fairness, a balanced k-center pipeline for team formation, plus the
gamma-cover, alpha:beta b-matching, and k-median variants.

The cover makeshifts read E from the instance's sorted edge array: each
edge end maps to its atom's root, and one sort of an exact integer key
puts a root's nearest neighbours first. Every makeshift passes its pairs
E' on as node-id arrays, and ``objectives.pair_structure`` turns them
into sorted rows and the one frozenset record. The ``rs`` drop loop leaves every kept pair with an end
of degree one, so its components are stars, labelled by their hubs; a 1:1
matching's blocks are its pairs, and the gamma-cover and alpha:beta blocks
are the components of their rows
(``csgraph.connected_components``), each rooted at its lowest node.

Every flow problem among them runs on ``scipy.sparse.csgraph``:
``maximum_flow`` for the alpha:beta matching, and
``min_weight_full_bipartite_matching`` for each least-total-distance
assignment. The fairness and balanced team searches use the threshold
technique of Gabow and Tarjan, "Algorithms for two bottleneck
optimization problems" (1988): a search over the candidate radii whose
steps only ask whether a matching exists. Each search first tests a proven
lower bound and binary-searches the radii above it only if that fails.
For fairness the bound is the largest, over Blue nodes, of the shortest
Blue-Purple E-edge; for balanced team formation it is the larger of the
farthest expert's distance to its nearest center and the largest distance
from a center to its floor(m/k)-th nearest expert. The fairness test is
``maximum_bipartite_matching`` (Hopcroft and Karp, SIAM J. Comput. 1973),
or the max-flow value for an alpha:beta b-matching other than 1:1. The
balanced test checks Hall's condition on both sides of the m x k
expert-to-center graph by counting experts over center subsets, or for
many centers takes one max-flow on that graph. The max-flow or min-cost
call that builds the answer runs once per search, at the radius found. The
balanced one first places every expert with a single center within the
radius (such experts sit there in every balanced assignment), again after
each center those fill to ceil(m/k), and matches the rest on a slot graph
with per-center bounds, its rows fewest reachable centers first.
Every graph is built as CSR straight from entries emitted in row-major
order (``_csr``).

The k-median swap search splits each swap's cost as FastPAM1 does
(Schubert and Rousseeuw, "Faster k-Medoids Clustering", 2019): from every
representative's distances to its nearest and second-nearest center, one
pass over the representatives approximates the cost of every (center
position, representative) swap. The approximations sum non-negative terms,
so each lies within a proven rounding bound of the exact cost. Only the
swaps whose approximation could make them the round's first record get an
exact, whole-row cost, all in one batch, so a round takes the swap that
exact costs for every swap would pick.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InfeasibleError
from .graph import GraphInstance, pair_rows, sorted_unique
from .objectives import F, KM, Atoms, Clustering, ObjectiveSpec, PairStructure, pair_structure
from .objectives import check_positive_int, group_by_block, is_integer, singleton_clustering

CLOSEST_EXPERT = "closest_expert"
CLOSEST_CENTER = "closest_center"

# a swap must cut the k-median cost by this fraction to count as a gain
_SWAP_REL_STOP = 1e-6


@dataclass(frozen=True)
class MakeshiftOptions:
    # Gonzalez's first center: the lowest id, or a seeded random candidate
    seed: int | None = None
    nonexpert_rule: str = CLOSEST_CENTER
    balance_radius_multiplier: float = 4.0

    def __post_init__(self):
        if self.seed is not None:
            if not is_integer(self.seed):
                raise ConfigError(f"seed must be an integer or None, got {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))
        if self.nonexpert_rule not in (CLOSEST_EXPERT, CLOSEST_CENTER):
            raise ConfigError(f"unknown nonexpert_rule {self.nonexpert_rule!r}")
        mult = self.balance_radius_multiplier
        if not (math.isfinite(mult) and mult >= 1):
            raise ConfigError(
                f"balance_radius_multiplier must be a finite number >= 1, got {mult}"
            )


def _atoms_of(C_in: Clustering, n: int) -> Atoms:
    """The atoms of ``C_in``, or singletons if it has none."""
    return C_in.atom if len(C_in.atom.starts) else singleton_clustering(n).atom


def _atoms_for_k(C_in: Clustering, n: int, k: int) -> Atoms:
    """The atoms of ``C_in``, after checking that k blocks fit them."""
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")
    atoms = _atoms_of(C_in, n)
    if k > len(atoms.starts):
        raise InfeasibleError(
            f"k={k} exceeds the {len(atoms.starts)} cohesion groups; "
            "relax k or the preceding objective"
        )
    return atoms


def greedy_centers(
    H: GraphInstance,
    k: int,
    opts: MakeshiftOptions,
    candidates: list[int] | None = None,
) -> list[int]:
    """Farthest-first (Gonzalez) center selection, ties by lowest node id.

    The first center is the lowest candidate id, or with ``opts.seed`` the
    candidate at ``random.Random(opts.seed).randrange`` of their count.
    A chosen center is never chosen again, even when every remaining
    candidate is at distance 0 from the centers.
    """
    check_positive_int("k", k)
    cand = sorted(candidates) if candidates is not None else list(range(H.n))
    if k > len(cand):
        raise ConfigError(f"k={k} exceeds candidate count {len(cand)}")
    far = 0 if opts.seed is None else random.Random(opts.seed).randrange(len(cand))
    idx = np.asarray(cand)
    centers = [cand[far]]
    # H.dist is symmetric: a center's row holds its distances, contiguous
    nearest = H.dist[cand[far], idx]
    nearest[far] = -1.0
    while len(centers) < k:
        far = int(nearest.argmax())
        c = cand[far]
        centers.append(c)
        np.minimum(nearest, H.dist[c, idx], out=nearest)
        nearest[far] = -1.0
    return centers


def greedy_kcenter_value(H: GraphInstance, centers: list[int]) -> float:
    """Objective value of the plain greedy k-center around ``centers``, the
    Gonzalez centers, on all of V."""
    return float(H.dist[centers].min(axis=0).max())


def _nearest_assignment(H: GraphInstance, centers) -> np.ndarray:
    """Position in ``centers`` of every node's nearest center; ties go to
    the lowest center id, then to its first position."""
    order = np.argsort(centers, kind="stable")
    # first occurrence = lowest center id; the centers' rows are their columns
    return order[H.dist[np.asarray(centers)[order]].argmin(axis=0)]


def _square(H: GraphInstance, nodes) -> np.ndarray:
    """The distances among ``nodes``, taken from ``H.dist`` in one gather."""
    nodes = np.asarray(nodes)
    return H.dist.take(nodes[:, None] * H.n + nodes)


def _one_center(members: list[int], square: np.ndarray) -> int:
    """The member of least max distance, first in ``members`` on ties,
    from the ``square`` of distances among them."""
    return members[int(square.max(axis=1).argmin())]


def _block_one_center(H: GraphInstance, members: list[int]) -> int:
    """Best in-block center: minimizes max distance, ties by lowest id."""
    members = sorted(members)
    return _one_center(members, _square(H, members))


def _settle_centers(H: GraphInstance, label: np.ndarray, centers: list[int]) -> list[int]:
    """Final centers of the blocks ``0..len(centers)-1``.

    A Gonzalez center still inside its own block is kept; a block whose
    center was moved away gets its best 1-center.
    """
    final = list(centers)
    for b in np.flatnonzero(label[final] != np.arange(len(final))).tolist():
        final[b] = _block_one_center(H, np.flatnonzero(label == b))
    return final


def makeshift_kcenter(
    H: GraphInstance, C_in: Clustering, k: int, opts: MakeshiftOptions
) -> tuple[Clustering, list[int]]:
    """Greedy k-center that keeps previously formed groups (atoms) whole.

    Gonzalez selection and nearest-center assignment first; then each
    multi-node atom is pulled into one block (its anchor's block) so that
    nodes clustered together by earlier objectives stay together. Returns
    the clustering and the Gonzalez centers, which the ``kc`` estimate
    reads (``greedy_kcenter_value``).
    """
    n = H.n
    members, atom_of, starts, roots = atoms = _atoms_for_k(C_in, n, k)
    centers = greedy_centers(H, k, opts)
    label = _nearest_assignment(H, centers)

    # Cohesion repair. Pair atoms anchor at the member closest to its own
    # assigned center; larger atoms (stars) anchor at their root, which is
    # what keeps the moved leaves within one cover-edge of a center.
    sizes = np.diff(np.append(starts, n))
    pair = members[sizes[atom_of] == 2]
    d = np.zeros(n)
    d[pair] = H.dist[pair, np.asarray(centers)[label[pair]]]
    closest = members[np.lexsort((members, d[members], atom_of))[starts]]
    anchor = np.where(sizes >= 3, roots, closest)
    label[members] = label[anchor][atom_of]

    # Empty-block repair: re-seed each empty block farthest-first with a
    # whole atom drawn from the largest-diameter block.
    atom_at = np.empty(n, dtype=np.int64)
    atom_at[members] = atom_of
    atom_block = label[members[starts]]
    empty = np.flatnonzero(np.bincount(label, minlength=k) == 0).tolist()
    while empty:
        members_of = group_by_block(np.arange(n), label, k)
        donors = np.flatnonzero(np.bincount(atom_block, minlength=k) >= 2).tolist()
        square = {b: _square(H, members_of[b]) for b in donors}
        donor = max(donors, key=lambda b: (square[b].max(), -b))
        ref = _one_center(members_of[donor], square[donor])
        movable = np.flatnonzero((atom_block == donor) & (np.arange(len(starts)) != atom_at[ref]))
        # the root farthest from ref, ties to the lowest root
        r = roots[movable]
        pick = movable[np.lexsort((r, -H.dist[r, ref]))[0]]
        target = empty.pop(0)
        label[members[atom_of == pick]] = target
        atom_block[pick] = target

    final = _settle_centers(H, label, centers)
    return Clustering.from_labels(label, final, atoms), centers


def _fragment_clustering(H: GraphInstance, top: np.ndarray) -> Clustering:
    """The clustering whose blocks, and atoms, gather the nodes of each
    value of ``top``: node u joins the block rooted at node ``top[u]``.

    Blocks are ordered by their lowest member for determinism.
    """
    nodes = np.arange(H.n)
    lowest = np.full(H.n, H.n)
    np.minimum.at(lowest, top, nodes)
    roots = top[lowest[top] == nodes]
    rank = np.empty(H.n, dtype=np.int64)
    rank[roots] = np.arange(len(roots))
    return Clustering.from_labels(rank[top], roots)


def _rep_pairs(H: GraphInstance, C_in: Clustering, gamma: int):
    """Representatives (atom roots) of the atoms of ``C_in``.

    Returns every node's representative, the sorted representatives, the
    number of other representatives each is joined to through E, and the
    pairs that join each to its ``gamma`` nearest of them, ties to the
    lowest id, as ``pair_rows``.
    """
    members, atom_of, _, roots = _atoms_of(C_in, H.n)
    rep_of = np.empty(H.n, dtype=np.int64)
    rep_of[members] = roots[atom_of]
    u, v = rep_of[H.edges].T
    u, v = u[u != v], v[u != v]
    # both directions of each pair as one exact int64 key: rep, then the
    # distance's rank (the count of smaller ones, so equal distances share
    # it), then nbr; the key stays below n*n*|E|, far inside int64 for
    # any n x n matrix that fits in memory
    d = H.dist[u, v]
    rank = np.searchsorted(np.sort(d), d)
    rep, nbr = np.concatenate([u, v]), np.concatenate([v, u])
    key = sorted_unique((rep * len(d) + np.tile(rank, 2)) * H.n + nbr)  # each pair once
    rep, nbr = np.divmod(key, H.n)
    rep //= len(d)
    # each rep's rows run from its nearest neighbour out, after the rows
    # of every lower rep
    count = np.bincount(rep, minlength=H.n)
    near = np.arange(len(rep)) - (np.cumsum(count) - count)[rep] < gamma
    reps = np.sort(roots)
    return rep_of, reps, count[reps], pair_rows(rep[near], nbr[near])


def makeshift_rs(
    H: GraphInstance, C_in: Clustering
) -> tuple[Clustering, PairStructure]:
    """Min-max-weight edge cover; connected components become star clusters.

    Every node contributes its minimum-weight incident edge; redundant
    edges are then dropped in decreasing weight order while the cover
    stays valid. The result is a family of stars (max path length two).
    """
    rep_of, reps, nbr_count, rows = _rep_pairs(H, C_in, 1)
    if not nbr_count.all():
        u = int(reps[np.argmin(nbr_count)])
        raise InfeasibleError(
            f"node {H.labels[u]} has no E-neighbor; no edge cover exists"
        )
    u, v = rows.T
    # longest first; the rows come sorted, so equal lengths go by (u, v)
    order = np.argsort(-H.dist[u, v], kind="stable")
    degree = np.bincount(rows.ravel(), minlength=H.n)
    # degrees only fall, so a pair with an end of degree one always stays
    order = order[(degree[u[order]] > 1) & (degree[v[order]] > 1)]
    degree = degree.tolist()
    dropped = []
    for i, a, b in zip(order.tolist(), u[order].tolist(), v[order].tolist()):
        if degree[a] > 1 and degree[b] > 1:
            dropped.append(i)
            degree[a] -= 1
            degree[b] -= 1
    u, v = np.delete(rows, dropped, axis=0).T

    # an edge is kept only while one of its ends has no other, so every
    # component is a star: a hub of degree >= 2 and its leaves, or a lone
    # edge, centered at its lower end u
    center = np.where(np.asarray(degree)[v] >= 2, v, u)
    star = np.empty(H.n, dtype=np.int64)
    star[u] = star[v] = center
    return _fragment_clustering(H, star[rep_of]), pair_structure(H, u, v)[1]


def makeshift_rs_gamma(
    H: GraphInstance, C_in: Clustering, gamma: int
) -> tuple[Clustering, PairStructure]:
    """Gamma-neighbor cover over the atoms of ``C_in``: smallest radius at
    which every representative has at least gamma E-neighbours.

    That radius is the largest over representatives of each one's gamma-th
    shortest E-edge, so every representative's gamma shortest E-edges form
    the cover, and the longest of them is the radius. Each component of
    the cover becomes one block, its atoms kept whole.
    """
    check_positive_int("gamma", gamma)
    rep_of, reps, nbr_count, rows = _rep_pairs(H, C_in, gamma)
    if (nbr_count < gamma).any():
        i = int(np.argmax(nbr_count < gamma))
        raise InfeasibleError(
            f"node {H.labels[reps[i]]} has E-degree {nbr_count[i]} < gamma={gamma}"
        )
    return _pair_fragments(H, *rows.T, rep_of)


def _pair_fragments(H: GraphInstance, u, v, rep_of=None) -> tuple[Clustering, PairStructure]:
    """The clustering whose blocks are the connected components of the
    pairs ``(u[i], v[i])``, each rooted at its lowest node, and their E'
    record; with ``rep_of``, every node joins the block of its rep.

    When no node is in two pairs (a 1:1 matching) each pair is a
    component, rooted at its lower end, and every other node is alone.
    """
    rows, pairs = pair_structure(H, u, v)
    lower, higher = rows.T
    if np.bincount(rows.ravel(), minlength=H.n).max(initial=0) <= 1:
        top = np.arange(H.n)
        top[higher] = lower
    else:
        graph = _csr(np.ones(len(lower), dtype=np.int8), lower, higher, (H.n, H.n))
        _, label = _sparse().csgraph.connected_components(graph, directed=False)
        top = np.unique(label, return_index=True)[1][label]
    return _fragment_clustering(H, top if rep_of is None else top[rep_of]), pairs


def _sparse():
    """``scipy.sparse`` with ``csgraph`` loaded, imported at first use.

    Loading csgraph takes longer than importing this whole package, so
    runs that need no matching never pay for it.
    """
    import scipy.sparse
    import scipy.sparse.csgraph  # noqa: F401  (makes scipy.sparse.csgraph available)

    return scipy.sparse


def _min_weight_matching(rows, cols, weights, shape) -> np.ndarray | None:
    """Column matched to each row by a least-total-weight matching that
    covers every row, or None if no such matching exists.

    ``min_weight_full_bipartite_matching`` drops explicit zero weights, so
    every weight is first raised by the smallest positive one (1 if there
    is none). Every matching that covers the rows has the same number of
    edges, so a constant shift does not move the optimum.
    """
    n_rows, n_cols = shape
    if n_rows > n_cols:
        return None
    positive = weights[weights > 0]
    shift = positive.min() if positive.size else 1.0
    graph = _csr(weights + shift, rows, cols, shape)
    try:
        matched_rows, matched_cols = _sparse().csgraph.min_weight_full_bipartite_matching(graph)
    except ValueError:  # no matching covers every row
        return None
    col_of = np.empty(n_rows, dtype=np.int64)
    col_of[matched_rows] = matched_cols
    return col_of


def _csr(data, rows, cols, shape):
    """The CSR matrix with the given entries, which must come in row-major
    order: rows ascending, and columns ascending and distinct within a row.

    It equals ``csr_matrix((data, (rows, cols)), shape)``, but ``indptr``
    comes from one ``searchsorted`` on the rows instead of a COO-to-CSR
    conversion, which costs several times a Hopcroft-Karp matching on
    these graphs. The indices are handed over as int32, scipy's own index
    type, so ``csr_matrix`` neither scans nor copies them.
    """
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(np.int32)
    return _sparse().csr_matrix((data, np.asarray(cols, dtype=np.int32), indptr), shape=shape)


def _covers_rows(rows, cols, shape) -> bool:
    """Whether some matching of the bipartite graph with the given edges,
    in row-major order, covers every row (Hopcroft-Karp maximum matching)."""
    graph = _csr(np.ones(len(rows), dtype=np.int8), rows, cols, shape)
    matched = _sparse().csgraph.maximum_bipartite_matching(graph, perm_type="column")
    return bool((matched >= 0).all())


def _blue_purple(H: GraphInstance):
    """Blue and Purple node arrays, and the E-edges between them as Blue
    positions, Purple positions and lengths, in row-major order."""
    blue, purple = np.flatnonzero(H.is_blue), np.flatnonzero(H.is_purple)
    if not blue.size:
        raise DegenerateInputError("fairness requires at least one Blue node")
    position = np.empty(H.n, dtype=np.int64)
    position[blue] = np.arange(len(blue))
    position[purple] = np.arange(len(purple))
    # both orientations of every edge; positions rise with node ids
    ends = np.concatenate([H.edges, H.edges[:, ::-1]])
    b, p = ends[H.is_blue[ends[:, 0]] & H.is_purple[ends[:, 1]]].T
    order = np.lexsort((p, b))
    b, p = b[order], p[order]
    return blue, purple, position[b], position[p], H.dist[b, p]


def _bp_flow(bp, keep: np.ndarray, alpha: int, beta: int):
    """Max-flow from a source that feeds each Blue node alpha units, over
    unit arcs Blue -> Purple for the kept E-edges, into a sink that each
    Purple node drains at most beta into; the result and the arc ends.
    The arcs are listed by tail: source, Blue nodes, Purple nodes."""
    blue, purple, rows, cols, _ = bp
    nb, npu = len(blue), len(purple)
    tails, heads = 1 + rows[keep], 1 + nb + cols[keep]
    sink = 1 + nb + npu
    caps = np.concatenate([np.full(nb, alpha), np.ones(len(tails)), np.full(npu, beta)])
    arcs = (
        np.concatenate([np.zeros(nb, dtype=np.int64), tails, 1 + nb + np.arange(npu)]),
        np.concatenate([1 + np.arange(nb), heads, np.full(npu, sink)]),
    )
    graph = _csr(caps.astype(np.int32), *arcs, (sink + 1, sink + 1))
    return _sparse().csgraph.maximum_flow(graph, 0, sink), tails, heads


def _bp_feasible(bp, radius: float, alpha: int, beta: int) -> bool:
    """Whether a Blue-saturating alpha:beta b-matching exists within the radius.

    For 1:1 this is a Hopcroft-Karp maximum matching; otherwise copies of
    one Blue node could share a Purple node, so it takes the max-flow value.
    """
    blue, purple, rows, cols, weights = bp
    keep = weights <= radius
    if (alpha, beta) != (1, 1):
        return _bp_flow(bp, keep, alpha, beta)[0].flow_value >= alpha * len(blue)
    return _covers_rows(rows[keep], cols[keep], (len(blue), len(purple)))


def _bp_matching(bp, radius: float, alpha: int, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """The Blue and Purple ends of the max-flow b-matching's pairs within a feasible radius."""
    blue, purple, rows, cols, weights = bp
    keep = weights <= radius
    result, tails, heads = _bp_flow(bp, keep, alpha, beta)
    used = np.asarray(result.flow[tails, heads]).ravel() > 0
    return blue[rows[keep][used]], purple[cols[keep][used]]


def _first_feasible(values, feasible, lower: float = -np.inf) -> int:
    """Index of the first of the sorted ``values`` that the monotone
    ``feasible`` accepts; ``len(values)`` if none.

    ``lower`` must be a proven lower bound: no value below it is feasible.
    The first value at or above it is tested first, and the search ends
    there if it is feasible; otherwise it binary-searches the values above.
    """
    lo, hi = int(np.searchsorted(values, lower)), len(values)
    if lo == hi or feasible(values[lo]):
        return lo
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


def makeshift_fairness_ab(
    H: GraphInstance, alpha: int, beta: int
) -> tuple[Clustering, PairStructure]:
    """Bottleneck alpha:beta Blue-saturating b-matching, by a search on the
    radius from its lower bound; alpha = beta = 1 is the plain fairness
    matching."""
    check_positive_int("alpha", alpha)
    check_positive_int("beta", beta)
    bp = _blue_purple(H)
    blue, _, rows, _, weights = bp
    radii = sorted_unique(weights)
    # every Blue node needs an edge within the radius, whatever alpha:beta
    nearest = np.full(len(blue), np.inf)
    np.minimum.at(nearest, rows, weights)
    lower = nearest.max()
    i = _first_feasible(radii, lambda r: _bp_feasible(bp, r, alpha, beta), lower)
    if i == len(radii):
        raise InfeasibleError(
            "no Blue-saturating matching exists at any radius"
        )
    return _pair_fragments(H, *_bp_matching(bp, radii[i], alpha, beta))


def makeshift_fairness_mincost(
    H: GraphInstance,
) -> tuple[Clustering, PairStructure]:
    """Min-total-cost Blue-saturating matching (k-median companion variant)."""
    blue, purple, rows, cols, weights = _blue_purple(H)
    col_of = _min_weight_matching(rows, cols, weights, (len(blue), len(purple)))
    if col_of is None:
        raise InfeasibleError("no Blue-saturating matching exists")
    return _pair_fragments(H, blue, purple[col_of])


def makeshift_fairness_for(
    H: GraphInstance, objectives: tuple[ObjectiveSpec, ...]
) -> tuple[Clustering, PairStructure]:
    """The matching that defines ``f`` for this objective list.

    With a ``km`` objective it is the min-cost matching; otherwise the
    bottleneck alpha:beta matching of the first ``f`` objective. Every
    algorithm and the oracle score ``f`` against this one matching.
    """
    if any(o.kind == KM for o in objectives):
        return makeshift_fairness_mincost(H)
    o = next(o for o in objectives if o.kind == F)
    return makeshift_fairness_ab(H, o.alpha, o.beta)


def fairness_pairs(
    H: GraphInstance, objectives: tuple[ObjectiveSpec, ...]
) -> PairStructure | None:
    """The pairs that define ``f`` for this objective list, or None
    without an ``f`` objective."""
    if not any(o.kind == F for o in objectives):
        return None
    return makeshift_fairness_for(H, objectives)[1]


def _slot_graph(d: np.ndarray, within: np.ndarray, low: np.ndarray, high: np.ndarray):
    """Rows, columns and weights of the slot graph of the expert-to-center
    distances ``d``, with the edges that ``within`` marks, for a load of
    each center i in [low[i], high[i]].

    Center i owns high[i] consecutive slots: low[i] that every perfect
    matching fills, then high[i] - low[i] optional ones. One dummy row
    per slot beyond the experts, joined to the optional slots only, takes
    up an optional slot no expert fills. A perfect matching is an
    assignment with every center's load in its bounds.
    """
    m = len(d)
    starts = np.cumsum(high) - high
    rows, center_of = np.nonzero(within)
    # an expert's edge to center i becomes one edge to each of i's slots
    count = high[center_of]
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    cols = np.repeat(starts[center_of], count) + offset
    weights = np.repeat(d[rows, center_of], count)
    rows = np.repeat(rows, count)
    slots = high.sum()
    optional = np.flatnonzero(np.arange(slots) - np.repeat(starts, high) >= np.repeat(low, high))
    dummies = np.arange(m, slots)
    rows = np.concatenate([rows, np.repeat(dummies, len(optional))])
    cols = np.concatenate([cols, np.tile(optional, len(dummies))])
    weights = np.concatenate([weights, np.zeros(len(dummies) * len(optional))])
    return rows, cols, weights


# above this many centers a balanced-assignment test takes one maximum flow
# instead of counting experts over every one of the 2**k center subsets
_HALL_MAX_K = 14


def _has_balanced_assignment(d: np.ndarray, threshold: float) -> bool:
    """Whether the m x k expert-to-center distances at most ``threshold``
    admit an assignment of every expert with every center's load in
    [floor(m/k), ceil(m/k)].

    By Hall's theorem on each side, with Mendelsohn and Dulmage's
    union of the two matchings, one exists exactly when, for every set S
    of centers, the experts with every allowed center in S number at most
    ceil(m/k)*|S|, and those with some allowed center in S at least
    floor(m/k)*|S|. Each expert's allowed centers are a k-bit mask; a
    subset-sum (zeta) transform of the mask counts gives, for every S, the
    experts whose mask lies inside S. Above ``_HALL_MAX_K`` centers the
    test is one maximum flow (``_balanced_flow``).
    """
    m, k = d.shape
    low, high = m // k, -(-m // k)
    within = d <= threshold
    if k > _HALL_MAX_K:
        return _balanced_flow(within, low, high)
    inside = np.bincount(within @ (1 << np.arange(k)), minlength=1 << k)
    size = np.zeros(1 << k, dtype=np.int64)
    for j in range(k):
        # each set holding center j adds the count of the set without it
        halves = inside.reshape(-1, 2, 1 << j)
        halves[:, 1] += halves[:, 0]
        size[1 << j : 2 << j] = size[: 1 << j] + 1
    # inside[::-1][S] counts the experts whose mask misses S
    return bool((inside <= high * size).all() and (m - inside[::-1] >= low * size).all())


def _balanced_flow(within: np.ndarray, low: int, high: int) -> bool:
    """Whether the expert-to-center edges of ``within`` carry an assignment
    with every center's load in [low, high]: one maximum flow for the
    circulation with lower bounds.

    The network s -> expert (exactly 1), expert -> center (1), center ->
    t (between low and high), t -> s has a feasible flow exactly when a
    super source S' and sink T' carry every lower bound: S' feeds each
    expert 1 and t k*low, s drains m and each center low into T', and
    center -> t keeps high - low. Nodes: S', the m experts, the k
    centers, s, t, T'.
    """
    m, k = within.shape
    s, t, sink = m + k + 1, m + k + 2, m + k + 3
    experts, centers = 1 + np.arange(m), 1 + m + np.arange(k)
    rows, cols = np.nonzero(within)
    tails = np.concatenate([[0] * (m + 1), experts[rows], np.repeat(centers, 2), [s, t]])
    heads = np.concatenate([experts, [t], centers[cols], np.tile([t, sink], k), [sink, s]])
    caps = np.concatenate(
        [np.ones(m), [k * low], np.ones(len(rows)), np.tile([high - low, low], k), [m, m + k * high]]
    )
    graph = _csr(caps.astype(np.int32), tails, heads, (sink + 1, sink + 1))
    return _sparse().csgraph.maximum_flow(graph, 0, sink).flow_value == m + k * low


def _balanced_assignment(
    H: GraphInstance, experts: list[int], centers: list[int], limit: float = np.inf
) -> dict[int, int] | None:
    """Least-total-distance assignment of experts to centers within
    ``limit``, with every center's load in [floor(m/k), ceil(m/k)]; None
    if there is none.

    An expert with a single center within the limit sits there in every
    such assignment, and so does one left with a single center once
    placed experts fill its others to ceil(m/k); these are placed first.
    The least-total matching (LAPJV) then runs on the slot graph of the
    other experts, fewest reachable centers first.
    """
    m, k = len(experts), len(centers)
    low, high = m // k, -(-m // k)
    d = H.dist[np.ix_(experts, centers)]
    reach = d <= limit + 1e-12
    block, load = np.full(m, -1), np.zeros(k, dtype=np.int64)
    while True:
        options = reach.sum(axis=1)
        single = options == 1
        if not single.any():
            break
        block[single] = reach[single].argmax(axis=1)
        reach[single] = False
        load = np.bincount(block[block >= 0], minlength=k)
        if load.max() > high:
            return None
        reach[:, load == high] = False
    rest = np.flatnonzero(block < 0)
    rest = rest[np.argsort(options[rest], kind="stable")]
    slots = high - load
    rows, cols, weights = _slot_graph(d[rest], reach[rest], np.maximum(low - load, 0), slots)
    col_of = _min_weight_matching(rows, cols, weights, (slots.sum(), slots.sum()))
    if col_of is None:
        return None
    block[rest] = np.repeat(np.arange(k), slots)[col_of[: len(rest)]]
    return dict(zip(experts, block.tolist()))


def balanced_kcenter(
    H: GraphInstance, X: set[int], k: int, opts: MakeshiftOptions
) -> tuple[list[int], dict[int, int], float]:
    """Balanced k-center over the expert set.

    Farthest-first centers, then the smallest realized distance r within X
    at which they admit an assignment with block sizes in
    {floor(|X|/k), ceil(|X|/k)} and every expert within
    ``balance_radius_multiplier * r`` of its center. Returns (centers,
    expert -> block index, r); the assignment is the one of least total
    distance at that radius.

    The search runs over the m*k expert-to-center distances instead: the
    smallest one, c, at which a balanced assignment exists. Whether one
    exists within a limit depends only on which of those distances lie at
    or below it, so r is the smallest distance within X whose limit
    reaches c.
    """
    experts = sorted(X)
    m = len(experts)
    if k > m:
        raise ConfigError(f"k={k} exceeds expert count {m}")
    centers = greedy_centers(H, k, opts, candidates=experts)
    d = H.dist[np.ix_(experts, centers)]
    thresholds = sorted_unique(d)
    # every expert needs a center within the threshold, and every center
    # its floor(m/k) nearest experts
    low = m // k
    lower = max(d.min(axis=1).max(), np.partition(d, low - 1, axis=0)[low - 1].max())
    i = _first_feasible(thresholds, lambda t: _has_balanced_assignment(d, t), lower)
    if i == len(thresholds):
        raise InfeasibleError("balanced assignment infeasible even at max radius")
    mult = opts.balance_radius_multiplier
    sub = _square(H, experts)
    limit = sub * mult
    limit += 1e-12
    r = float(sub[limit >= thresholds[i]].min())
    return centers, _balanced_assignment(H, experts, centers, mult * r), r


def makeshift_tf(
    H: GraphInstance, X: set[int], k: int, opts: MakeshiftOptions
) -> Clustering:
    """Team formation: balanced k-center on the experts, then fill in.

    Non-experts join the block of their nearest expert or nearest chosen
    center depending on ``opts.nonexpert_rule`` (nearest center is the
    default; it improves k-center quality without touching the balance).
    """
    if not X:
        raise DegenerateInputError("team formation requires a non-empty expert set")
    centers, assign, _ = balanced_kcenter(H, X, k, opts)
    return _extend_tf(H, centers, assign, opts)


def _extend_tf(
    H: GraphInstance, centers: list[int], assign: dict[int, int], opts: MakeshiftOptions
) -> Clustering:
    """The experts in their blocks of ``assign``, and every other node in
    the block of its nearest expert or nearest center; each block is one
    atom rooted at its center."""
    experts = np.fromiter(assign.keys(), np.int64, len(assign))
    expert_block = np.fromiter(assign.values(), np.int64, len(assign))
    if opts.nonexpert_rule == CLOSEST_EXPERT:
        label = expert_block[_nearest_assignment(H, experts)]
    else:
        label = _nearest_assignment(H, centers)
    label[experts] = expert_block
    return Clustering.from_labels(label, _settle_centers(H, label, centers))


def _approx_swap_costs(D, w, d1, d2, nearest, W, buf) -> np.ndarray:
    """Approximate cost of every swap, ``[p, j]`` for rep j put at center
    position p, from one pass over the reps (FastPAM1's split).

    A rep served at distance ``d1`` by its nearest center, at position
    ``nearest``, and at ``d2`` by its second nearest costs ``min(D[j], d1)``
    after the swap, plus ``min(D[j], d2) - min(D[j], d1)`` when the swap
    takes its nearest center away. Every term is non-negative, so each
    approximation is within 2 * gamma_{R+2} * cost of the exact sum, where
    gamma_m = m * eps / (2 - m * eps) bounds the rounding of m-term sums.
    ``W`` (R x k, all zero, and left so) and ``buf`` (R x R) are scratch.
    """
    np.minimum(D, d1, out=buf)
    base = buf @ w
    # min(D, d2) - min(D, d1) = min(D - min(D, d1), d2 - d1), in place;
    # each term is rounded once, as the subtraction on the left would be
    np.subtract(D, buf, out=buf)
    np.minimum(buf, d2 - d1, out=buf)
    at = np.arange(len(w)), nearest
    W[at] = w
    loss = buf @ W
    W[at] = 0.0
    return (base[:, None] + loss).T


def _swap_candidates(approx, cols, current: float, stop: float):
    """Center positions and reps of the swaps that could be a round's
    records, in position then rep order, from the approximate costs
    ``approx[p, j]`` of rep j put at center position p; the columns
    ``cols`` of ``approx`` are overwritten.

    A record is a swap whose exact cost beats the best so far by ``stop``;
    the first beats ``current``. Each approximation is within half of
    ``tol`` of its exact cost, for every swap that costs at most
    max(1, current), so a record's approximation is below
    ``current - stop + tol``; and as a record's exact cost is below every
    earlier swap's, its approximation is below theirs plus ``2 * tol``.
    Swaps to the centers in ``cols`` are never candidates.
    """
    R = approx.shape[1]
    tol = 4 * (R + 2) * np.finfo(float).eps * max(1.0, current)
    approx[:, cols] = np.inf
    flat = approx.ravel()
    # below the minimum of the earlier swaps plus 2 tol, or below all of
    # them, so below the minimum up to itself plus 2 tol
    could_win = (flat < current - stop + tol) & (flat < np.minimum.accumulate(flat) + 2 * tol)
    return np.nonzero(could_win.reshape(approx.shape))


def _swap_costs(D, w, excl, rows) -> np.ndarray:
    """Exact cost of bringing in each rep of ``rows``, with row i of
    ``excl`` every rep's distance to its nearest center that stays when
    ``rows[i]`` comes in: each summed whole, along its contiguous row, so
    it is the same float as a from-scratch sum and ties break alike."""
    return (np.minimum(D[rows], excl) * w).sum(axis=1)


def _kmedian_swap_centers(
    H: GraphInstance,
    reps: list[int],
    weights: dict[int, float],
    k: int,
    opts: MakeshiftOptions,
) -> list[int]:
    """Single-swap local search for weighted k-median over ``reps``.

    Each round takes the first (center position, rep) swap, in position
    then rep order, whose exact cost beats the best so far by the stop
    margin. One pass approximates every swap's cost; the swaps that could
    be such a record, by those approximations, get their exact costs in
    one batch, and the search ends when there are none.
    """
    centers = greedy_centers(H, k, opts, candidates=reps)
    idx = np.asarray(reps)
    D = H.dist[idx][:, idx]  # symmetric: row j holds d(., reps[j])
    w = np.asarray([weights[r] for r in reps])
    buf, W = np.empty_like(D), np.zeros((len(reps), k))
    cols = np.array([reps.index(c) for c in centers])
    current = float((D[:, cols].min(axis=1) * w).sum())
    every = np.arange(len(reps))
    while True:
        # nearest and second-nearest center distance of every rep: the
        # nearest masked, the least left; with k = 1 that is inf
        dc = D[cols]
        nearest = dc.argmin(axis=0)
        d1 = dc[nearest, every]
        dc[nearest, every] = np.inf
        d2 = dc.min(axis=0)
        stop = _SWAP_REL_STOP * max(1.0, current)
        approx = _approx_swap_costs(D, w, d1, d2, nearest, W, buf)
        positions, rows = _swap_candidates(approx, cols, current, stop)
        if not len(rows):
            return centers
        excl = np.where(nearest == positions[:, None], d2, d1)
        best_cost, best_swap = current, None
        for p, j, c in zip(positions.tolist(), rows.tolist(), _swap_costs(D, w, excl, rows).tolist()):
            if c < best_cost - stop:
                best_cost, best_swap = c, (p, j)
        if best_swap is None:
            return centers
        p, j = best_swap
        centers[p], cols[p] = reps[j], j
        current = best_cost


def makeshift_kmedian(
    H: GraphInstance, C_in: Clustering, k: int, opts: MakeshiftOptions
) -> Clustering:
    """Swap-heuristic k-median over atom representatives, atoms kept whole."""
    members, atom_of, starts, roots = atoms = _atoms_for_k(C_in, H.n, k)
    weights = dict(zip(roots.tolist(), np.diff(starts, append=len(members)).astype(float).tolist()))
    centers = _kmedian_swap_centers(H, sorted(weights), weights, k, opts)

    # a center's own atom stays in its block, even when a lower-id center
    # lies at distance 0
    nearest = _nearest_assignment(H, centers)
    nearest[centers] = np.arange(k)
    nearest[members] = nearest[roots[atom_of]]
    return Clustering.from_labels(nearest, centers, atoms)


def makeshift_tf_kmedian(
    H: GraphInstance, X: set[int], k: int, opts: MakeshiftOptions
) -> Clustering:
    """Team formation with the swap k-median choosing the expert centers."""
    if not X:
        raise DegenerateInputError("team formation requires a non-empty expert set")
    experts = sorted(X)
    m = len(experts)
    if k > m:
        raise ConfigError(f"k={k} exceeds expert count {m}")
    weights = {u: 1.0 for u in experts}
    centers = _kmedian_swap_centers(H, experts, weights, k, opts)
    assign = _balanced_assignment(H, experts, centers)
    if assign is None:
        raise InfeasibleError("balanced k-median assignment infeasible")
    return _extend_tf(H, centers, assign, opts)
