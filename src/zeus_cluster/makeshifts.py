"""Per-objective makeshift subroutines.

Each makeshift reshapes the clusters formed by previously processed
objectives to serve the current one: greedy k-center with atom cohesion,
min-max edge cover for resource sharing, bottleneck bipartite matching
for fairness, a balanced k-center pipeline for team formation, plus the
gamma-cover, alpha:beta b-matching, and k-median variants.

The cover makeshifts read E from the instance's sorted edge array. Each
edge end maps to its atom's root, and one ``lexsort`` orders the pairs of
distinct roots by root, distance and neighbour, so a root's nearest
neighbours are its first rows. The ``rs`` cover's drop loop leaves every
kept edge with an end of degree one, so each of its components is a star,
labelled directly by its hub, or a lone edge by its lower end. The
gamma-cover and fairness blocks are the components of their pairs, from
``csgraph.connected_components``, each rooted at its lowest node.

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
from a center to its floor(m/k)-th nearest expert. The test is
``maximum_bipartite_matching`` (Hopcroft and Karp, SIAM J. Comput. 1973),
or the max-flow value for an alpha:beta b-matching other than 1:1; the
max-flow or min-cost call that builds the answer runs once per search,
at the radius found. Every graph is built as CSR straight from entries
emitted in row-major order (``_csr``).

The k-median swap search splits each swap's cost as FastPAM1 does
(Schubert and Rousseeuw, "Faster k-Medoids Clustering", 2019): from every
representative's distances to its nearest and second-nearest center, one
pass over the representatives approximates the cost of every (center
position, representative) swap. The approximations sum non-negative terms,
so each lies within a proven rounding bound of the exact cost. Only the
swaps whose approximation could make them the round's first record get an
exact, whole-row cost, so a round takes the swap that exact costs for
every swap would pick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InfeasibleError
from .graph import BLUE, PURPLE, GraphInstance
from .objectives import F, KM, Clustering, ObjectiveSpec, PairStructure
from .objectives import atom_arrays, group_by_block

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
        if self.nonexpert_rule not in (CLOSEST_EXPERT, CLOSEST_CENTER):
            raise ConfigError(f"unknown nonexpert_rule {self.nonexpert_rule!r}")
        if not self.balance_radius_multiplier >= 1:  # also rejects NaN
            raise ConfigError("balance_radius_multiplier must be a number >= 1")


def _atoms_of(C_in: Clustering, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    if C_in.atoms:
        return C_in.atoms, C_in.roots
    return tuple((u,) for u in range(n)), tuple(range(n))


def _atoms_for_k(C_in: Clustering, n: int, k: int):
    """The atoms and roots of ``C_in``, after checking that k blocks fit them."""
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")
    atoms, roots = _atoms_of(C_in, n)
    if k > len(atoms):
        raise InfeasibleError(
            f"k={k} exceeds the {len(atoms)} cohesion groups; "
            "relax k or the preceding objective"
        )
    return atoms, roots


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
    cand = sorted(candidates) if candidates is not None else list(range(H.n))
    if k > len(cand):
        raise ConfigError(f"k={k} exceeds candidate count {len(cand)}")
    far = 0 if opts.seed is None else random.Random(opts.seed).randrange(len(cand))
    idx = np.asarray(cand)
    centers = [cand[far]]
    nearest = H.dist[idx, cand[far]].copy()
    nearest[far] = -1.0
    while len(centers) < k:
        far = int(np.flatnonzero(nearest == nearest.max())[0])
        c = cand[far]
        centers.append(c)
        np.minimum(nearest, H.dist[idx, c], out=nearest)
        nearest[far] = -1.0
    return centers


def greedy_kcenter_value(H: GraphInstance, centers: list[int]) -> float:
    """Objective value of the plain greedy k-center around ``centers``, the
    Gonzalez centers, on all of V."""
    return float(H.dist[:, centers].min(axis=1).max())


def _nearest_assignment(H: GraphInstance, centers) -> np.ndarray:
    """Position in ``centers`` of every node's nearest center; ties go to
    the lowest center id, then to its first position."""
    order = np.argsort(centers, kind="stable")
    # first occurrence = lowest center id
    return order[H.dist[:, np.asarray(centers)[order]].argmin(axis=1)]


def _block_one_center(H: GraphInstance, members: list[int]) -> int:
    """Best in-block center: minimizes max distance, ties by lowest id."""
    members = sorted(members)
    sub = H.dist[np.ix_(members, members)]
    radii = sub.max(axis=1)
    return members[int(np.flatnonzero(radii == radii.min())[0])]


def _settle_centers(
    H: GraphInstance, label: np.ndarray, centers: list[int]
) -> tuple[dict[int, int], list[list[int]]]:
    """Final centers and member lists of the blocks ``0..len(centers)-1``.

    A Gonzalez center still inside its own block is kept; a block whose
    center was moved away gets its best 1-center.
    """
    members_of = group_by_block(np.arange(len(label)), label, len(centers))
    final = {
        b: c if label[c] == b else _block_one_center(H, members_of[b])
        for b, c in enumerate(centers)
    }
    return final, members_of


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
    atoms, roots = _atoms_for_k(C_in, n, k)
    centers = greedy_centers(H, k, opts)
    label = _nearest_assignment(H, centers)

    # Cohesion repair. Pair atoms anchor at the member closest to its own
    # assigned center; larger atoms (stars) anchor at their root, which is
    # what keeps the moved leaves within one cover-edge of a center.
    members, atom_of = atom_arrays(atoms)
    starts = np.searchsorted(atom_of, np.arange(len(atoms)))
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
        diameter = {b: H.dist[np.ix_(members_of[b], members_of[b])].max() for b in donors}
        donor = max(donors, key=lambda b: (diameter[b], -b))
        ref = _block_one_center(H, members_of[donor])
        movable = np.flatnonzero((atom_block == donor) & (np.arange(len(atoms)) != atom_at[ref]))
        # the root farthest from ref, ties to the lowest root
        r = np.asarray(roots)[movable]
        pick = movable[np.lexsort((r, -H.dist[r, ref]))[0]]
        target = empty.pop(0)
        label[members[atom_of == pick]] = target
        atom_block[pick] = target

    final_centers, _ = _settle_centers(H, label, centers)
    C = Clustering(dict(enumerate(label.tolist())), k, final_centers, atoms, roots)
    C.validate(n)
    return C, centers


def _fragment_clustering(H: GraphInstance, top: np.ndarray) -> Clustering:
    """The clustering whose blocks, and atoms, gather the nodes of each
    value of ``top``: node u joins the block rooted at node ``top[u]``.

    Blocks are ordered by their lowest member for determinism, and each
    block's members are assigned in ascending order.
    """
    lowest = np.sort(np.unique(top, return_index=True)[1])
    roots = top[lowest]
    rank = np.empty(H.n, dtype=np.int64)
    rank[roots] = np.arange(len(roots))
    block = rank[top]
    order = np.argsort(block, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(block))[:-1])
    C = Clustering(
        assignment=dict(zip(order.tolist(), block[order].tolist())),
        k=len(roots),
        centers=dict(enumerate(roots.tolist())),
        atoms=tuple(tuple(g.tolist()) for g in groups),
        roots=tuple(roots.tolist()),
    )
    C.validate(H.n)
    return C


def _rep_pairs(H: GraphInstance, C_in: Clustering):
    """Representatives (atom roots) of the atoms of ``C_in``.

    Returns every node's representative, the sorted representatives, the
    number of other representatives each is joined to through E, and each
    such ordered pair (rep, neighbour) once, by rep, then distance between
    the two, then neighbour.
    """
    atoms, roots = _atoms_of(C_in, H.n)
    members, atom_of = atom_arrays(atoms)
    rep_of = np.empty(H.n, dtype=np.int64)
    rep_of[members] = np.asarray(roots)[atom_of]
    u, v = rep_of[H.edges].T
    u, v = u[u != v], v[u != v]
    rep, nbr = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((nbr, H.dist[rep, nbr], rep))
    rep, nbr = rep[order], nbr[order]
    new = np.ones(len(rep), dtype=bool)
    new[1:] = (rep[1:] != rep[:-1]) | (nbr[1:] != nbr[:-1])
    rep, nbr = rep[new], nbr[new]
    reps = np.array(sorted(roots), dtype=np.int64)
    return rep_of, reps, np.bincount(rep, minlength=H.n)[reps], rep, nbr


def _nearest_pairs(rep, nbr, gamma: int) -> set[tuple[int, int]]:
    """The pairs of each rep and its ``gamma`` nearest neighbours, from the
    rows of ``_rep_pairs``, as (lower, higher) node ids."""
    first = np.searchsorted(rep, rep)  # each row's rep's first row
    keep = np.arange(len(rep)) - first < gamma
    u, v = rep[keep], nbr[keep]
    return set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def makeshift_rs(
    H: GraphInstance, C_in: Clustering
) -> tuple[Clustering, PairStructure]:
    """Min-max-weight edge cover; connected components become star clusters.

    Every node contributes its minimum-weight incident edge; redundant
    edges are then dropped in decreasing weight order while the cover
    stays valid. The result is a family of stars (max path length two).
    """
    rep_of, reps, nbr_count, rep, nbr = _rep_pairs(H, C_in)
    if not nbr_count.all():
        u = int(reps[np.argmin(nbr_count)])
        raise InfeasibleError(
            f"node {H.labels[u]} has no E-neighbor; no edge cover exists"
        )
    cover = _nearest_pairs(rep, nbr, 1)

    degree = [0] * H.n
    for u, v in cover:
        degree[u] += 1
        degree[v] += 1
    for u, v in sorted(cover, key=lambda e: (-H.dist[e[0], e[1]], e)):
        if degree[u] > 1 and degree[v] > 1:
            cover.discard((u, v))
            degree[u] -= 1
            degree[v] -= 1

    # an edge is kept only while one of its ends has no other, so every
    # component is a star: a hub of degree >= 2 and its leaves, or a lone
    # edge, centered at its lower end
    u, v = np.array(sorted(cover), dtype=np.int64).T
    degree = np.asarray(degree)
    center = np.where(degree[u] >= 2, u, np.where(degree[v] >= 2, v, u))
    star = np.empty(H.n, dtype=np.int64)
    star[u] = star[v] = center
    radius = max(float(H.dist[u, v]) for u, v in cover)
    pairs = PairStructure(pairs=frozenset(cover), realized_radius=radius)
    return _fragment_clustering(H, star[rep_of]), pairs


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
    if gamma < 1:
        raise ConfigError("gamma must be a positive integer")
    rep_of, reps, nbr_count, rep, nbr = _rep_pairs(H, C_in)
    if (nbr_count < gamma).any():
        i = int(np.argmax(nbr_count < gamma))
        raise InfeasibleError(
            f"node {H.labels[reps[i]]} has E-degree {nbr_count[i]} < gamma={gamma}"
        )
    cover = _nearest_pairs(rep, nbr, gamma)
    radius = max(float(H.dist[u, v]) for u, v in cover)
    pairs = PairStructure(pairs=frozenset(cover), realized_radius=radius)
    return _fragment_clustering(H, _lowest_in_component(H.n, cover)[rep_of]), pairs


def _lowest_in_component(n: int, pairs) -> np.ndarray:
    """The lowest node of each node's connected component in the graph of
    ``pairs`` over nodes 0..n-1."""
    u, v = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    graph = _csr(np.ones(len(u), dtype=np.int8), u, v, (n, n))
    _, label = _sparse().csgraph.connected_components(graph, directed=False)
    return np.unique(label, return_index=True)[1][label]


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
    these graphs.
    """
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
    return _sparse().csr_matrix((data, cols, indptr), shape=shape)


def _covers_rows(rows, cols, shape) -> bool:
    """Whether some matching of the bipartite graph with the given edges,
    in row-major order, covers every row (Hopcroft-Karp maximum matching)."""
    graph = _csr(np.ones(len(rows), dtype=np.int8), rows, cols, shape)
    matched = _sparse().csgraph.maximum_bipartite_matching(graph, perm_type="column")
    return bool((matched >= 0).all())


def _blue_purple(H: GraphInstance):
    """Blue and Purple node arrays, and the E-edges between them as Blue
    positions, Purple positions and lengths, in row-major order."""
    is_blue = np.array([c == BLUE for c in H.colors], dtype=bool)
    is_purple = np.array([c == PURPLE for c in H.colors], dtype=bool)
    blue, purple = np.flatnonzero(is_blue), np.flatnonzero(is_purple)
    if not blue.size:
        raise DegenerateInputError("fairness requires at least one Blue node")
    position = np.empty(H.n, dtype=np.int64)
    position[blue] = np.arange(len(blue))
    position[purple] = np.arange(len(purple))
    # both orientations of every edge; positions rise with node ids
    ends = np.concatenate([H.edges, H.edges[:, ::-1]])
    b, p = ends[is_blue[ends[:, 0]] & is_purple[ends[:, 1]]].T
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


def _bp_matching(bp, radius: float, alpha: int, beta: int) -> set[tuple[int, int]]:
    """The pairs of the max-flow b-matching within a feasible radius."""
    blue, purple, rows, cols, weights = bp
    keep = weights <= radius
    result, tails, heads = _bp_flow(bp, keep, alpha, beta)
    used = np.asarray(result.flow[tails, heads]).ravel() > 0
    us, vs = blue[rows[keep][used]], purple[cols[keep][used]]
    return {(min(u, v), max(u, v)) for u, v in zip(us.tolist(), vs.tolist())}


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
    if alpha < 1 or beta < 1:
        raise ConfigError("alpha and beta must be positive integers")
    bp = _blue_purple(H)
    blue, _, rows, _, weights = bp
    radii = np.unique(weights)
    # every Blue node needs an edge within the radius, whatever alpha:beta
    nearest = np.full(len(blue), np.inf)
    np.minimum.at(nearest, rows, weights)
    lower = nearest.max()
    i = _first_feasible(radii, lambda r: _bp_feasible(bp, r, alpha, beta), lower)
    if i == len(radii):
        raise InfeasibleError(
            "no Blue-saturating matching exists at any radius"
        )
    return _pair_fragments(H, _bp_matching(bp, radii[i], alpha, beta))


def _pair_fragments(
    H: GraphInstance, matched: set[tuple[int, int]]
) -> tuple[Clustering, PairStructure]:
    """Blocks are the connected components of the pairs; the radius is the
    longest pair."""
    radius = max((float(H.dist[u, v]) for u, v in matched), default=0.0)
    pairs = PairStructure(pairs=frozenset(matched), realized_radius=radius)
    return _fragment_clustering(H, _lowest_in_component(H.n, matched)), pairs


def makeshift_fairness_mincost(
    H: GraphInstance,
) -> tuple[Clustering, PairStructure]:
    """Min-total-cost Blue-saturating matching (k-median companion variant)."""
    blue, purple, rows, cols, weights = _blue_purple(H)
    col_of = _min_weight_matching(rows, cols, weights, (len(blue), len(purple)))
    if col_of is None:
        raise InfeasibleError("no Blue-saturating matching exists")
    matched = {
        (min(u, v), max(u, v)) for u, v in zip(blue.tolist(), purple[col_of].tolist())
    }
    return _pair_fragments(H, matched)


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


def makeshift_tf_for(
    H: GraphInstance,
    objectives: tuple[ObjectiveSpec, ...],
    k: int,
    opts: MakeshiftOptions,
) -> Clustering:
    """The ``tf`` makeshift for this objective list.

    With a ``km`` objective the swap k-median chooses the expert centers;
    otherwise balanced k-center does.
    """
    experts = {u for u in range(H.n) if H.experts[u]}
    if any(o.kind == KM for o in objectives):
        return makeshift_tf_kmedian(H, experts, k, opts)
    return makeshift_tf(H, experts, k, opts)


def _slot_graph(d: np.ndarray, within: np.ndarray):
    """Rows, columns and weights of the balanced slot graph of the m x k
    expert-to-center distances ``d``, with the edges that ``within`` marks.

    Center i owns ceil(m/k) consecutive slots: floor(m/k) that every
    perfect matching fills and, when k does not divide m, one optional
    slot. k*ceil(m/k) - m dummy rows, joined to the optional slots only,
    take up the optional slots no expert fills. A perfect matching is an
    assignment with every center's load in [floor(m/k), ceil(m/k)].
    """
    m, k = d.shape
    low, high = m // k, -(-m // k)
    rows, center_of = np.nonzero(within)
    # an expert's edge to center i becomes one edge to each of i's slots
    weights = np.repeat(d[rows, center_of], high)
    cols = (center_of[:, None] * high + np.arange(high)).ravel()
    rows = np.repeat(rows, high)
    if high > low:
        dummies = np.arange(m, k * high)
        optional = np.arange(k) * high + low
        rows = np.concatenate([rows, np.repeat(dummies, k)])
        cols = np.concatenate([cols, np.tile(optional, len(dummies))])
        weights = np.concatenate([weights, np.zeros(len(dummies) * k)])
    return rows, cols, weights


def _has_balanced_assignment(d: np.ndarray, threshold: float) -> bool:
    """Whether the slot graph of the distances at most ``threshold`` has a
    perfect matching."""
    m, k = d.shape
    size = k * -(-m // k)
    rows, cols, _ = _slot_graph(d, d <= threshold)
    return _covers_rows(rows, cols, (size, size))


def _balanced_assignment(
    H: GraphInstance, experts: list[int], centers: list[int], limit: float = np.inf
) -> dict[int, int] | None:
    """Least-total-distance assignment of experts to centers within
    ``limit``, with every center's load in [floor(m/k), ceil(m/k)]; None
    if there is none."""
    m, k = len(experts), len(centers)
    high = -(-m // k)
    d = H.dist[np.ix_(experts, centers)]
    rows, cols, weights = _slot_graph(d, d <= limit + 1e-12)
    col_of = _min_weight_matching(rows, cols, weights, (k * high, k * high))
    if col_of is None:
        return None
    return dict(zip(experts, (col_of[:m] // high).tolist()))


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
    thresholds = np.unique(d)
    # every expert needs a center within the threshold, and every center
    # its floor(m/k) nearest experts
    low = m // k
    lower = max(d.min(axis=1).max(), np.partition(d, low - 1, axis=0)[low - 1].max())
    i = _first_feasible(thresholds, lambda t: _has_balanced_assignment(d, t), lower)
    if i == len(thresholds):
        raise InfeasibleError("balanced assignment infeasible even at max radius")
    mult = opts.balance_radius_multiplier
    sub = H.dist[np.ix_(experts, experts)]
    r = float(sub[mult * sub + 1e-12 >= thresholds[i]].min())
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
    return _extend_tf(H, k, centers, assign, opts)


def _extend_tf(
    H: GraphInstance,
    k: int,
    centers: list[int],
    assign: dict[int, int],
    opts: MakeshiftOptions,
) -> Clustering:
    """The experts in their blocks of ``assign``, and every other node in
    the block of its nearest expert or nearest center."""
    experts = np.fromiter(assign.keys(), np.int64, len(assign))
    expert_block = np.fromiter(assign.values(), np.int64, len(assign))
    if opts.nonexpert_rule == CLOSEST_EXPERT:
        label = expert_block[_nearest_assignment(H, experts)]
    else:
        label = _nearest_assignment(H, centers)
    label[experts] = expert_block
    # the experts in the order of assign, then the others ascending
    order = np.concatenate([experts, np.setdiff1d(np.arange(H.n), experts)])

    final_centers, members_of = _settle_centers(H, label, centers)
    assignment = dict(zip(order.tolist(), label[order].tolist()))
    roots = tuple(final_centers[b] for b in range(k))
    C = Clustering(assignment, k, final_centers, tuple(map(tuple, members_of)), roots)
    C.validate(H.n)
    return C


def _approx_swap_costs(D, w, d1, d2, nearest, k, buf) -> np.ndarray:
    """Approximate cost of every swap, ``[p, j]`` for rep j put at center
    position p, from one pass over the reps (FastPAM1's split).

    A rep served at distance ``d1`` by its nearest center, at position
    ``nearest``, and at ``d2`` by its second nearest costs ``min(D[j], d1)``
    after the swap, plus ``min(D[j], d2) - min(D[j], d1)`` when the swap
    takes its nearest center away. Every term is non-negative, so each
    approximation is within 2 * gamma_{R+2} * cost of the exact sum, where
    gamma_m = m * eps / (2 - m * eps) bounds the rounding of m-term sums.
    """
    np.minimum(D, d1, out=buf)
    base = buf @ w
    # min(D, d2) - min(D, d1) = min(D - min(D, d1), d2 - d1), in place;
    # each term is rounded once, as the subtraction on the left would be
    np.subtract(D, buf, out=buf)
    np.minimum(buf, d2 - d1, out=buf)
    W = np.zeros((len(w), k))
    W[np.arange(len(w)), nearest] = w
    return (base[:, None] + buf @ W).T


def _swap_candidates(approx, cols, current: float, stop: float):
    """Center positions and reps of the swaps that could be a round's
    records, in position then rep order, from the approximate costs
    ``approx[p, j]`` of rep j put at center position p.

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
    masked = approx.copy()
    masked[:, cols] = np.inf
    flat = masked.ravel()
    # below the minimum of the earlier swaps plus 2 tol, or below all of
    # them, so below the minimum up to itself plus 2 tol
    could_win = (flat < current - stop + tol) & (flat < np.minimum.accumulate(flat) + 2 * tol)
    return np.divmod(np.flatnonzero(could_win), R)


def _swap_costs(D, w, excl, rows) -> np.ndarray:
    """Exact cost of bringing in each rep of ``rows``, with ``excl`` every
    rep's distance to its nearest center that stays: summed whole, so each
    is the same float as a from-scratch sum and ties break alike."""
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
    margin. One pass approximates every swap's cost; only the swaps that
    could be such a record, by those approximations, get an exact cost.
    """
    centers = greedy_centers(H, k, opts, candidates=reps)
    D = H.dist[np.ix_(reps, reps)]  # symmetric: row j holds d(., reps[j])
    w = np.asarray([weights[r] for r in reps])
    buf = np.empty_like(D)
    cols = [reps.index(c) for c in centers]
    current = float((D[:, cols].min(axis=1) * w).sum())
    while True:
        # nearest and second-nearest center distance of every rep; the
        # inf row stands in for the missing second center when k = 1
        dc = np.vstack([D[cols], np.full(len(reps), np.inf)])
        d1, d2 = np.partition(dc, 1, axis=0)[:2]
        nearest = dc.argmin(axis=0)
        stop = _SWAP_REL_STOP * max(1.0, current)
        approx = _approx_swap_costs(D, w, d1, d2, nearest, k, buf)
        positions, rows = _swap_candidates(approx, cols, current, stop)
        best_cost, best_swap = current, None
        for p in sorted(set(positions.tolist())):
            js = rows[positions == p]
            excl = np.where(nearest == p, d2, d1)
            for j, c in zip(js.tolist(), _swap_costs(D, w, excl, js).tolist()):
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
    n = H.n
    atoms, roots = _atoms_for_k(C_in, n, k)
    reps = sorted(roots)
    weights = {root: float(len(atom)) for atom, root in zip(atoms, roots)}
    centers = _kmedian_swap_centers(H, reps, weights, k, opts)

    # a center's own atom stays in its block, even when a lower-id center
    # lies at distance 0
    nearest = _nearest_assignment(H, centers)
    nearest[centers] = np.arange(k)
    members, atom_of = atom_arrays(atoms)
    assignment = dict(zip(members.tolist(), nearest[np.asarray(roots)[atom_of]].tolist()))
    C = Clustering(assignment, k, dict(enumerate(centers)), atoms, roots)
    C.validate(n)
    return C


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
    return _extend_tf(H, k, centers, assign, opts)
