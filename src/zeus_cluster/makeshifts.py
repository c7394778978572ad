"""Per-objective makeshift subroutines.

Each makeshift reshapes the clusters formed by previously processed
objectives to serve the current one: greedy k-center with atom cohesion,
min-max edge cover for resource sharing, bottleneck bipartite matching
for fairness, a balanced k-center pipeline for team formation, plus the
gamma-cover, alpha:beta b-matching, and k-median variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx
import numpy as np
from networkx.algorithms.flow import edmonds_karp

from .errors import ConfigError, DegenerateInputError, InfeasibleError
from .graph import BLUE, PURPLE, GraphInstance
from .objectives import F, KM, Clustering, ObjectiveSpec, PairStructure

LOWEST_INDEX = "lowest_index"
SEEDED_RANDOM = "seeded_random"
CLOSEST_EXPERT = "closest_expert"
CLOSEST_CENTER = "closest_center"

# a swap must cut the k-median cost by this fraction to count as a gain
_SWAP_REL_STOP = 1e-6


@dataclass(frozen=True)
class MakeshiftOptions:
    first_center_rule: str = LOWEST_INDEX
    seed: int = 0
    nonexpert_rule: str = CLOSEST_CENTER
    balance_radius_multiplier: float = 4.0

    def __post_init__(self):
        if self.first_center_rule not in (LOWEST_INDEX, SEEDED_RANDOM):
            raise ConfigError(f"unknown first_center_rule {self.first_center_rule!r}")
        if self.nonexpert_rule not in (CLOSEST_EXPERT, CLOSEST_CENTER):
            raise ConfigError(f"unknown nonexpert_rule {self.nonexpert_rule!r}")
        if self.balance_radius_multiplier < 1:
            raise ConfigError("balance_radius_multiplier must be >= 1")


def _atoms_of(C_in: Clustering, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    if C_in.atoms:
        return C_in.atoms, C_in.roots
    return tuple((u,) for u in range(n)), tuple(range(n))


def greedy_centers(
    H: GraphInstance,
    k: int,
    opts: MakeshiftOptions,
    candidates: list[int] | None = None,
) -> list[int]:
    """Farthest-first (Gonzalez) center selection, ties by lowest node id."""
    cand = sorted(candidates) if candidates is not None else list(range(H.n))
    if k > len(cand):
        raise ConfigError(f"k={k} exceeds candidate count {len(cand)}")
    if opts.first_center_rule == SEEDED_RANDOM:
        rng = random.Random(opts.seed)
        first = cand[rng.randrange(len(cand))]
    else:
        first = cand[0]
    idx = np.asarray(cand)
    centers = [first]
    nearest = H.dist[idx, first].copy()
    while len(centers) < k:
        far = int(np.flatnonzero(nearest == nearest.max())[0])
        c = cand[far]
        centers.append(c)
        np.minimum(nearest, H.dist[idx, c], out=nearest)
    return centers


def greedy_kcenter_value(
    H: GraphInstance, k: int, opts: MakeshiftOptions | None = None
) -> float:
    """Objective value of the plain greedy k-center on all of V."""
    opts = opts or MakeshiftOptions()
    centers = greedy_centers(H, k, opts)
    return float(H.dist[:, centers].min(axis=1).max())


def _nearest_assignment(H: GraphInstance, centers: list[int]) -> dict[int, int]:
    """Assign every node to its nearest center, ties by lowest center id."""
    order = sorted(range(len(centers)), key=lambda i: centers[i])
    sorted_ids = [centers[i] for i in order]
    cols = H.dist[:, sorted_ids]
    picks = cols.argmin(axis=1)  # first occurrence = lowest center id
    return {u: order[int(picks[u])] for u in range(H.n)}


def _block_one_center(H: GraphInstance, members: list[int]) -> int:
    """Best in-block center: minimizes max distance, ties by lowest id."""
    members = sorted(members)
    sub = H.dist[np.ix_(members, members)]
    radii = sub.max(axis=1)
    return members[int(np.flatnonzero(radii == radii.min())[0])]


def _settle_centers(
    H: GraphInstance, assign: dict[int, int], centers: list[int]
) -> tuple[dict[int, int], list[list[int]]]:
    """Final centers and member lists of the blocks ``0..len(centers)-1``.

    A Gonzalez center still inside its own block is kept; a block whose
    center was moved away gets its best 1-center.
    """
    members_of: list[list[int]] = [[] for _ in centers]
    for u, b in assign.items():
        members_of[b].append(u)
    final = {
        b: c if assign[c] == b else _block_one_center(H, members_of[b])
        for b, c in enumerate(centers)
    }
    return final, members_of


def _components(nodes, edges) -> list[list[int]]:
    """Connected components of ``edges`` over ``nodes``, in DFS visiting order."""
    graph: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in sorted(edges):
        graph[u].append(v)
        graph[v].append(u)
    comps = []
    seen: set[int] = set()
    for start in nodes:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def _block_diameter(H: GraphInstance, members: list[int]) -> float:
    if len(members) < 2:
        return 0.0
    return float(H.dist[np.ix_(members, members)].max())


def makeshift_kcenter(
    H: GraphInstance, C_in: Clustering, k: int, opts: MakeshiftOptions
) -> Clustering:
    """Greedy k-center that keeps previously formed groups (atoms) whole.

    Gonzalez selection and nearest-center assignment first; then each
    multi-node atom is pulled into one block (its anchor's block) so that
    nodes clustered together by earlier objectives stay together.
    """
    n = H.n
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")
    atoms, roots = _atoms_of(C_in, n)
    if k > len(atoms):
        raise InfeasibleError(
            f"k={k} exceeds the {len(atoms)} cohesion groups; "
            "relax k or the preceding objective"
        )
    centers = greedy_centers(H, k, opts)
    assign = _nearest_assignment(H, centers)

    # Cohesion repair. Pair atoms anchor at the member closest to its own
    # assigned center; larger atoms (stars) anchor at their root, which is
    # what keeps the moved leaves within one cover-edge of a center.
    for atom, root in zip(atoms, roots):
        if len(atom) == 1:
            continue
        if len(atom) >= 3:
            anchor = root
        else:
            anchor = min(
                atom, key=lambda u: (H.dist[u, centers[assign[u]]], u)
            )
        target = assign[anchor]
        for u in atom:
            assign[u] = target

    # Empty-block repair: re-seed each empty block farthest-first with a
    # whole atom drawn from the largest-diameter block.
    atom_block = {atom: assign[atom[0]] for atom in atoms}
    occupied = {b for b in assign.values()}
    empty = sorted(set(range(k)) - occupied)
    while empty:
        members_of: dict[int, list[int]] = {}
        for u, b in assign.items():
            members_of.setdefault(b, []).append(u)
        donors = [
            b
            for b in sorted(members_of)
            if sum(1 for a in atoms if atom_block[a] == b) >= 2
        ]
        donor = max(donors, key=lambda b: (_block_diameter(H, members_of[b]), -b))
        ref = _block_one_center(H, members_of[donor])
        movable = [
            (a, r)
            for a, r in zip(atoms, roots)
            if atom_block[a] == donor and ref not in a
        ]
        atom, root = max(movable, key=lambda ar: (H.dist[ar[1], ref], -ar[1]))
        target = empty.pop(0)
        for u in atom:
            assign[u] = target
        atom_block[atom] = target

    final_centers, _ = _settle_centers(H, assign, centers)
    C = Clustering(
        assignment=assign, k=k, centers=final_centers, atoms=atoms, roots=roots
    )
    C.validate(n)
    return C


def _fragment_clustering(
    H: GraphInstance, fragments: list[tuple[list[int], int]]
) -> Clustering:
    """Build a clustering whose blocks (and atoms) are the given fragments.

    Each fragment is (members, root); blocks are ordered by their lowest
    member id for determinism.
    """
    fragments = sorted(fragments, key=lambda fr: min(fr[0]))
    assign: dict[int, int] = {}
    atoms = []
    roots = []
    centers = {}
    for b, (members, root) in enumerate(fragments):
        for u in members:
            assign[u] = b
        atoms.append(tuple(sorted(members)))
        roots.append(root)
        centers[b] = root
    C = Clustering(
        assignment=assign,
        k=len(fragments),
        centers=centers,
        atoms=tuple(atoms),
        roots=tuple(roots),
    )
    C.validate(H.n)
    return C


def _rep_view(H: GraphInstance, C_in: Clustering):
    """Representative nodes (atom roots) and their induced E-relation.

    With all-singleton atoms this is just the node set and E itself.
    """
    atoms, roots = _atoms_of(C_in, H.n)
    if all(len(a) == 1 for a in atoms):
        reps = list(range(H.n))
        adjacency = {u: list(H.adjacency[u]) for u in reps}
        atom_of = {u: (u,) for u in reps}
        return reps, adjacency, atom_of
    atom_of = {}
    rep_of_node = {}
    for atom, root in zip(atoms, roots):
        atom_of[root] = atom
        for u in atom:
            rep_of_node[u] = root
    rep_pairs = set()
    for u, v in H.edges:
        ru, rv = rep_of_node[u], rep_of_node[v]
        if ru != rv:
            rep_pairs.add((min(ru, rv), max(ru, rv)))
    adjacency: dict[int, list[int]] = {r: [] for r in atom_of}
    for u, v in sorted(rep_pairs):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return sorted(atom_of), adjacency, atom_of


def makeshift_rs(
    H: GraphInstance, C_in: Clustering
) -> tuple[Clustering, PairStructure]:
    """Min-max-weight edge cover; connected components become star clusters.

    Every node contributes its minimum-weight incident edge; redundant
    edges are then dropped in decreasing weight order while the cover
    stays valid. The result is a family of stars (max path length two).
    """
    reps, adjacency, atom_of = _rep_view(H, C_in)
    cover: set[tuple[int, int]] = set()
    for u in reps:
        nbrs = adjacency[u]
        if not nbrs:
            raise InfeasibleError(
                f"node {H.labels[u]} has no E-neighbor; no edge cover exists"
            )
        v = min(nbrs, key=lambda w: (H.dist[u, w], w))
        cover.add((min(u, v), max(u, v)))

    degree: dict[int, int] = {u: 0 for u in reps}
    for u, v in cover:
        degree[u] += 1
        degree[v] += 1
    for u, v in sorted(cover, key=lambda e: (-H.dist[e[0], e[1]], e)):
        if degree[u] > 1 and degree[v] > 1:
            cover.discard((u, v))
            degree[u] -= 1
            degree[v] -= 1

    fragments = []
    for comp in _components(reps, cover):
        hubs = [u for u in comp if degree[u] >= 2]
        star_center = hubs[0] if hubs else min(comp)
        members = [x for u in comp for x in atom_of[u]]
        fragments.append((members, star_center))

    radius = max(float(H.dist[u, v]) for u, v in cover)
    pairs = PairStructure(
        pairs=frozenset(cover), realized_radius=radius, kind="edge_cover"
    )
    return _fragment_clustering(H, fragments), pairs


def makeshift_rs_gamma(
    H: GraphInstance, gamma: int
) -> tuple[Clustering, PairStructure]:
    """Gamma-neighbor cover: smallest radius with min E-degree >= gamma."""
    if gamma < 1:
        raise ConfigError("gamma must be a positive integer")
    for u in range(H.n):
        if len(H.adjacency[u]) < gamma:
            raise InfeasibleError(
                f"node {H.labels[u]} has E-degree {len(H.adjacency[u])} < gamma={gamma}"
            )
    weights = sorted({float(H.dist[u, v]) for u, v in H.edges})

    def feasible(r: float) -> bool:
        return all(
            sum(1 for v in H.adjacency[u] if H.dist[u, v] <= r) >= gamma
            for u in range(H.n)
        )

    lo, hi = 0, len(weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(weights[mid]):
            hi = mid
        else:
            lo = mid + 1
    r_star = weights[hi]

    cover: set[tuple[int, int]] = set()
    for u in range(H.n):
        within = sorted(
            (v for v in H.adjacency[u] if H.dist[u, v] <= r_star),
            key=lambda v: (H.dist[u, v], v),
        )
        for v in within[:gamma]:
            cover.add((min(u, v), max(u, v)))

    fragments = [(comp, min(comp)) for comp in _components(range(H.n), cover)]
    pairs = PairStructure(
        pairs=frozenset(cover), realized_radius=r_star, kind="gamma_cover"
    )
    return _fragment_clustering(H, fragments), pairs


def _bp_matching(
    H: GraphInstance,
    blue: list[int],
    purple: list[int],
    radius: float,
    alpha: int,
    beta: int,
) -> set[tuple[int, int]] | None:
    """Blue-saturating b-matching within the radius, or None if infeasible.

    Unit-capacity arcs blue->purple for E-edges within the radius; the
    source feeds each blue node alpha units and each purple node drains
    at most beta into the sink.
    """
    G = nx.DiGraph()
    G.add_node("s")
    G.add_node("t")
    for u in blue:
        G.add_edge("s", ("b", u), capacity=alpha)
    for v in purple:
        G.add_edge(("p", v), "t", capacity=beta)
    purple_set = set(purple)
    for u in blue:
        for v in sorted(H.adjacency[u]):
            if v in purple_set and H.dist[u, v] <= radius:
                G.add_edge(("b", u), ("p", v), capacity=1)
    need = alpha * len(blue)
    value, flow = nx.maximum_flow(G, "s", "t", flow_func=edmonds_karp)
    if value < need:
        return None
    matched = set()
    for u in blue:
        for tgt, amount in flow[("b", u)].items():
            if amount > 0:
                matched.add((min(u, tgt[1]), max(u, tgt[1])))
    return matched


def _fairness_core(
    H: GraphInstance, alpha: int, beta: int, kind: str
) -> tuple[Clustering, PairStructure]:
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    purple = [u for u in range(H.n) if H.colors[u] == PURPLE]
    if not blue:
        raise DegenerateInputError("fairness requires at least one Blue node")
    purple_set = set(purple)
    bp_weights = sorted(
        {
            float(H.dist[u, v])
            for u, v in H.edges
            if (H.colors[u] == BLUE and v in purple_set)
            or (H.colors[v] == BLUE and u in purple_set)
        }
    )
    if not bp_weights or _bp_matching(H, blue, purple, bp_weights[-1], alpha, beta) is None:
        raise InfeasibleError(
            "no Blue-saturating matching exists at any radius"
        )
    lo, hi = 0, len(bp_weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _bp_matching(H, blue, purple, bp_weights[mid], alpha, beta) is not None:
            hi = mid
        else:
            lo = mid + 1
    r_star = bp_weights[hi]
    matched = _bp_matching(H, blue, purple, r_star, alpha, beta)
    assert matched is not None
    return _matching_fragments(H, matched, kind)


def _matching_fragments(
    H: GraphInstance, matched: set[tuple[int, int]], kind: str
) -> tuple[Clustering, PairStructure]:
    fragments = [(comp, min(comp)) for comp in _components(range(H.n), matched)]
    radius = max((float(H.dist[u, v]) for u, v in matched), default=0.0)
    pairs = PairStructure(
        pairs=frozenset(matched), realized_radius=radius, kind=kind
    )
    return _fragment_clustering(H, fragments), pairs


def makeshift_fairness(H: GraphInstance) -> tuple[Clustering, PairStructure]:
    """Bottleneck Blue-saturating matching via binary search on the radius."""
    return _fairness_core(H, 1, 1, "matching")


def makeshift_fairness_ab(
    H: GraphInstance, alpha: int, beta: int
) -> tuple[Clustering, PairStructure]:
    """alpha:beta b-matching variant of the fairness makeshift."""
    if alpha < 1 or beta < 1:
        raise ConfigError("alpha and beta must be positive integers")
    return _fairness_core(H, alpha, beta, "b_matching" if (alpha, beta) != (1, 1) else "matching")


def makeshift_fairness_mincost(
    H: GraphInstance,
) -> tuple[Clustering, PairStructure]:
    """Min-total-cost Blue-saturating matching (k-median companion variant)."""
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    purple = set(u for u in range(H.n) if H.colors[u] == PURPLE)
    if not blue:
        raise DegenerateInputError("fairness requires at least one Blue node")
    scale = 10**9
    G = nx.DiGraph()
    for u in blue:
        G.add_edge("s", ("b", u), capacity=1, weight=0)
    for v in sorted(purple):
        G.add_edge(("p", v), "t", capacity=1, weight=0)
    for u in blue:
        for v in sorted(H.adjacency[u]):
            if v in purple:
                G.add_edge(
                    ("b", u), ("p", v), capacity=1, weight=int(round(H.dist[u, v] * scale))
                )
    G.add_node("s")
    G.add_node("t")
    flow = nx.max_flow_min_cost(G, "s", "t")
    matched = set()
    for u in blue:
        hit = [tgt for tgt, amt in flow.get(("b", u), {}).items() if amt > 0]
        if not hit:
            raise InfeasibleError("no Blue-saturating matching exists")
        matched.add((min(u, hit[0][1]), max(u, hit[0][1])))
    return _matching_fragments(H, matched, "matching")


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


def _feasible_balanced_assignment(
    H: GraphInstance,
    experts: list[int],
    centers: list[int],
    limit: float,
    low: int,
    high: int,
) -> dict[int, int] | None:
    """Assign experts to centers within ``limit`` with loads in [low, high].

    Circulation with lower bounds, reduced to plain max-flow: an arc with
    lower bound l is replaced by super-source/super-sink arcs carrying l.
    """
    G = nx.DiGraph()
    total_lb = 0
    for u in experts:
        # s -> expert has lower bound 1 and capacity 1: reduced cap is 0.
        _bump(G, "SS", ("e", u), 1)
        _bump(G, "s", "TT", 1)
        total_lb += 1
    for i in range(len(centers)):
        # center -> t has lower bound `low` and capacity `high`.
        G.add_edge(("c", i), "t", capacity=high - low)
        _bump(G, "SS", "t", low)
        _bump(G, ("c", i), "TT", low)
        total_lb += low
    for u in experts:
        for i, c in enumerate(centers):
            if H.dist[u, c] <= limit + 1e-12:
                G.add_edge(("e", u), ("c", i), capacity=1)
    G.add_edge("t", "s", capacity=len(experts))
    value, flow = nx.maximum_flow(G, "SS", "TT", flow_func=edmonds_karp)
    if value < total_lb:
        return None
    assign = {}
    for u in experts:
        for tgt, amt in flow[("e", u)].items():
            if amt > 0 and isinstance(tgt, tuple) and tgt[0] == "c":
                assign[u] = tgt[1]
    if len(assign) != len(experts):
        return None
    return assign


def _bump(G: nx.DiGraph, u, v, amount: int) -> None:
    if G.has_edge(u, v):
        G[u][v]["capacity"] += amount
    else:
        G.add_edge(u, v, capacity=amount)


def balanced_kcenter(
    H: GraphInstance, X: set[int], k: int, opts: MakeshiftOptions
) -> tuple[list[int], dict[int, int], float]:
    """Balanced k-center over the expert set.

    Binary search over realized distances within X for the smallest radius
    at which farthest-first centers admit a capacitated assignment with
    block sizes in {floor(|X|/k), ceil(|X|/k)}. Returns (centers,
    expert -> block index, radius).
    """
    experts = sorted(X)
    m = len(experts)
    if k > m:
        raise ConfigError(f"k={k} exceeds expert count {m}")
    low, high = m // k, -(-m // k)
    sub = H.dist[np.ix_(experts, experts)]
    radii = sorted({0.0} | {float(x) for x in sub.ravel()})

    centers = greedy_centers(H, k, opts, candidates=experts)

    def attempt(r: float) -> dict[int, int] | None:
        return _feasible_balanced_assignment(
            H, experts, centers, opts.balance_radius_multiplier * r, low, high
        )

    lo, hi = 0, len(radii) - 1
    best = attempt(radii[hi])
    if best is None:
        raise InfeasibleError("balanced assignment infeasible even at max radius")
    while lo < hi:
        mid = (lo + hi) // 2
        got = attempt(radii[mid])
        if got is not None:
            hi = mid
            best = got
        else:
            lo = mid + 1
    return centers, best, radii[hi]


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
    return _extend_tf(H, X, k, centers, assign, opts)


def _extend_tf(
    H: GraphInstance,
    X: set[int],
    k: int,
    centers: list[int],
    assign: dict[int, int],
    opts: MakeshiftOptions,
) -> Clustering:
    experts = sorted(X)
    full = dict(assign)
    for u in range(H.n):
        if u in X:
            continue
        if opts.nonexpert_rule == CLOSEST_EXPERT:
            v = min(experts, key=lambda e: (H.dist[u, e], e))
            full[u] = assign[v]
        else:
            best = min(
                range(k), key=lambda i: (H.dist[u, centers[i]], centers[i])
            )
            full[u] = best

    final_centers, members_of = _settle_centers(H, full, centers)
    atoms = tuple(tuple(sorted(members_of[b])) for b in range(k))
    roots = tuple(final_centers[b] for b in range(k))
    C = Clustering(
        assignment=full, k=k, centers=final_centers, atoms=atoms, roots=roots
    )
    C.validate(H.n)
    return C


def _kmedian_swap_centers(
    H: GraphInstance,
    reps: list[int],
    weights: dict[int, float],
    k: int,
    opts: MakeshiftOptions,
) -> list[int]:
    """Single-swap local search for weighted k-median over ``reps``."""
    centers = greedy_centers(H, k, opts, candidates=reps)
    idx = np.asarray(reps)
    w = np.asarray([weights[r] for r in reps])

    def cost(cs: list[int]) -> float:
        return float((H.dist[np.ix_(idx, cs)].min(axis=1) * w).sum())

    current = cost(centers)
    improved = True
    while improved:
        improved = False
        best_swap = None
        best_cost = current
        center_set = set(centers)
        for pos in range(k):
            for r in reps:
                if r in center_set:
                    continue
                trial = centers[:pos] + [r] + centers[pos + 1 :]
                c = cost(trial)
                if c < best_cost - _SWAP_REL_STOP * max(1.0, current):
                    best_cost = c
                    best_swap = (pos, r)
        if best_swap is not None:
            pos, r = best_swap
            centers[pos] = r
            current = best_cost
            improved = True
    return centers


def makeshift_kmedian(
    H: GraphInstance, C_in: Clustering, k: int, opts: MakeshiftOptions
) -> Clustering:
    """Swap-heuristic k-median over atom representatives, atoms kept whole."""
    n = H.n
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")
    atoms, roots = _atoms_of(C_in, n)
    if k > len(atoms):
        raise InfeasibleError(
            f"k={k} exceeds the {len(atoms)} cohesion groups; "
            "relax k or the preceding objective"
        )
    reps = sorted(roots)
    weights = {root: float(len(atom)) for atom, root in zip(atoms, roots)}
    centers = _kmedian_swap_centers(H, reps, weights, k, opts)

    order = sorted(range(k), key=lambda i: centers[i])
    sorted_ids = [centers[i] for i in order]
    assign: dict[int, int] = {}
    for atom, root in zip(atoms, roots):
        cols = H.dist[root, sorted_ids]
        pick = order[int(np.argmin(cols))]
        for u in atom:
            assign[u] = pick
    final_centers = {b: centers[b] for b in range(k)}
    C = Clustering(
        assignment=assign, k=k, centers=final_centers, atoms=atoms, roots=roots
    )
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
    low, high = m // k, -(-m // k)
    scale = 10**9
    G = nx.DiGraph()
    for u in experts:
        G.add_edge("s", ("e", u), capacity=1, weight=0)
        for i, c in enumerate(centers):
            G.add_edge(
                ("e", u), ("c", i), capacity=1, weight=int(round(H.dist[u, c] * scale))
            )
    for i in range(k):
        G.add_edge(("c", i), "t_low", capacity=low, weight=0)
        G.add_edge(("c", i), "t_high", capacity=high - low, weight=0)
    G.add_edge("t_low", "t", capacity=low * k, weight=0)
    G.add_edge("t_high", "t", capacity=m - low * k, weight=0)
    flow = nx.max_flow_min_cost(G, "s", "t")
    assign = {}
    for u in experts:
        for tgt, amt in flow[("e", u)].items():
            if amt > 0:
                assign[u] = tgt[1]
    if len(assign) != m:
        raise InfeasibleError("balanced k-median assignment infeasible")
    return _extend_tf(H, X, k, centers, assign, opts)
