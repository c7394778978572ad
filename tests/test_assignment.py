"""The matching and assignment makeshifts against exhaustive search.

Mostly tiny explicit instances with small integer distances, so that ties
and zero distances (which a sparse matching solver would read as missing
edges) both occur.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neighbours
from zeus_cluster import makeshifts
from zeus_cluster.errors import InfeasibleError
from zeus_cluster.graph import make_instance
from zeus_cluster.makeshifts import (
    MakeshiftOptions,
    _balanced_assignment,
    _kmedian_swap_centers,
    balanced_kcenter,
    makeshift_fairness_mincost,
    makeshift_tf_kmedian,
)

SEEDS = range(40)


def random_instance(seed):
    """Explicit instance of 4..8 nodes with distances in 0..4."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    m = np.zeros((n, n))
    for u, v in itertools.combinations(range(n), 2):
        m[u, v] = m[v, u] = rng.randint(0, 4)
    colors = [rng.choice("BP") for _ in range(n)]
    experts = [rng.random() < 0.7 for _ in range(n)]
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
    return make_instance(
        n, "explicit", matrix=m, colors=colors, experts=experts, edges=edges
    )


def random_points(seed):
    """Euclidean instance of 4..8 random points in the unit square, about
    70 % of them experts: a metric without ties."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    return make_instance(
        n, "euclidean",
        embeddings=[(rng.random(), rng.random()) for _ in range(n)],
        experts=[rng.random() < 0.7 for _ in range(n)],
    )


def balanced_assignments(m, k):
    """Every map of m experts onto k blocks with loads in [m//k, ceil(m/k)]."""
    low, high = m // k, -(-m // k)
    for blocks in itertools.product(range(k), repeat=m):
        loads = np.bincount(blocks, minlength=k)
        if loads.min() >= low and loads.max() <= high:
            yield blocks


def least_matching_total(H):
    """Least total length of a Blue-saturating matching within E, or None."""
    blue = [u for u in range(H.n) if H.colors[u] == "B"]
    purple = [u for u in range(H.n) if H.colors[u] == "P"]
    best = None
    for image in itertools.permutations(purple, len(blue)):
        if all(p in neighbours(H, b) for b, p in zip(blue, image)):
            total = sum(H.dist[b, p] for b, p in zip(blue, image))
            best = total if best is None else min(best, total)
    return best


def matching_total(H, pairs):
    return sum(H.dist[u, v] for u, v in pairs.pairs)


class TestMinCostMatching:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_exhaustive_minimum(self, seed):
        H = random_instance(seed)
        if "B" not in H.colors:
            return
        want = least_matching_total(H)
        if want is None:
            with pytest.raises(InfeasibleError):
                makeshift_fairness_mincost(H)
            return
        _, pairs = makeshift_fairness_mincost(H)
        blue = {u for u in range(H.n) if H.colors[u] == "B"}
        assert len(pairs.pairs) == len(blue)
        assert blue <= {u for e in pairs.pairs for u in e}
        assert matching_total(H, pairs) == want

    def test_blue_whose_only_neighbour_is_at_distance_zero(self):
        # Blue 0's one Purple E-neighbour is node 2, at distance 0; Blue 1
        # may take node 2 (distance 1) or node 3 (distance 3).
        m = np.array(
            [[0, 4, 0, 2], [4, 0, 1, 3], [0, 1, 0, 2], [2, 3, 2, 0]], dtype=float
        )
        H = make_instance(
            4, "explicit", matrix=m, colors=["B", "B", "P", "P"],
            edges=[(0, 2), (1, 2), (1, 3)],
        )
        _, pairs = makeshift_fairness_mincost(H)
        assert pairs.pairs == {(0, 2), (1, 3)}
        assert matching_total(H, pairs) == least_matching_total(H) == 3.0

    def test_all_distances_zero(self):
        H = make_instance(
            4, "explicit", matrix=np.zeros((4, 4)), colors=["B", "P", "B", "P"],
            edges=[(0, 1), (1, 2), (2, 3)],
        )
        _, pairs = makeshift_fairness_mincost(H)
        assert pairs.pairs == {(0, 1), (2, 3)}


def smallest_feasible_radius(H, experts, centers, multiplier):
    """Exhaustive smallest candidate radius with a balanced assignment."""
    d = H.dist[np.ix_(experts, centers)]
    sub = H.dist[np.ix_(experts, experts)]
    radii = sorted({0.0} | {float(x) for x in sub.ravel()})
    for r in radii:
        for blocks in balanced_assignments(len(experts), len(centers)):
            if all(d[i, b] <= multiplier * r + 1e-12 for i, b in enumerate(blocks)):
                return r
    return None


class TestBalancedKCenter:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("multiplier", [1.0, 1.5, 2.5, 4.0])
    def test_radius_equals_exhaustive(self, seed, multiplier):
        H = random_instance(seed)
        experts = [u for u in range(H.n) if H.experts[u]]
        opts = MakeshiftOptions(balance_radius_multiplier=multiplier)
        for k in (1, 2, 3):
            if k > len(experts):
                continue
            centers, assign, r = balanced_kcenter(H, set(experts), k, opts)
            assert r == smallest_feasible_radius(H, experts, centers, multiplier)
            loads = np.bincount([assign[u] for u in experts], minlength=k)
            assert loads.min() >= len(experts) // k
            assert loads.max() <= -(-len(experts) // k)
            assert all(
                H.dist[u, centers[assign[u]]] <= multiplier * r + 1e-12 for u in experts
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_assignment_has_least_total_within_radius(self, seed):
        H = random_instance(seed)
        experts = [u for u in range(H.n) if H.experts[u]]
        opts = MakeshiftOptions(balance_radius_multiplier=1.0)
        for k in (2, 3):
            if k > len(experts):
                continue
            centers, assign, r = balanced_kcenter(H, set(experts), k, opts)
            d = H.dist[np.ix_(experts, centers)]
            want = min(
                sum(d[i, b] for i, b in enumerate(blocks))
                for blocks in balanced_assignments(len(experts), k)
                if all(d[i, b] <= r + 1e-12 for i, b in enumerate(blocks))
            )
            assert sum(H.dist[u, centers[assign[u]]] for u in experts) == want


def bipartite_instance(d):
    """Explicit instance whose experts 0..m-1 lie at the distances ``d``
    from the centers m..m+k-1, and 9 apart among themselves."""
    m, k = d.shape
    matrix = np.full((m + k, m + k), 9.0)
    matrix[:m, m:] = d
    matrix[m:, :m] = d.T
    np.fill_diagonal(matrix, 0.0)
    return make_instance(m + k, "explicit", matrix=matrix, experts=[True] * m + [False] * k)


def is_least_balanced(d, limit, got) -> bool:
    """Whether ``got`` (expert -> block) is a balanced assignment within
    ``limit`` of the exhaustive least total, or None where none exists."""
    within = [
        blocks for blocks in balanced_assignments(*d.shape)
        if all(d[i, b] <= limit for i, b in enumerate(blocks))
    ]
    if not within or got is None:
        return not within and got is None
    blocks = tuple(got[i] for i in range(len(d)))
    total = min(sum(d[i, b] for i, b in enumerate(other)) for other in within)
    return blocks in within and sum(d[i, b] for i, b in enumerate(blocks)) == total


# m x k distances with limit 2: an entry of 5 is out of reach. Each case
# comes with k dividing m (6 experts) and not (7), and the experts the
# matching should not see, as positions in d.
_X = 5
ASSIGNMENT_CASES = {
    # experts 0 and 2 reach a single center
    "single-center": (
        [[1, _X, _X], [2, 1, 2], [_X, _X, 1], [1, 2, 2], [2, 2, 1], [2, 1, 2], [1, 1, 2]],
        [0, 2],
    ),
    # 0 and 1 fill center 0 (with ceil(m/k) = 2), which leaves 2 only
    # center 1; at m = 7 center 0 takes a third, so 2 keeps two options
    "placed-fill-a-center": (
        [[1, _X, _X], [2, _X, _X], [2, 1, _X], [2, 2, 1], [1, 2, 2], [2, 1, 1], [2, 2, _X]],
        {6: [0, 1, 2], 7: [0, 1]},
    ),
    # more experts reach only center 0 than ceil(m/k)
    "placed-above-ceiling": (
        [[1, _X, _X], [2, _X, _X], [1, _X, _X], [2, _X, _X], [1, 2, 2], [2, 1, 1], [1, 1, 2]],
        None,
    ),
    # only expert 5 reaches center 2, which needs floor(m/k) = 2
    "center-below-floor": (
        [[1, 2, _X], [2, 1, _X], [1, 1, _X], [2, 1, _X], [1, 2, _X], [2, 1, 1], [1, 2, _X]],
        None,
    ),
}


class TestBalancedAssignment:
    """``_balanced_assignment`` against the exhaustive least total, on the
    cases that place experts before the matching runs."""

    @pytest.mark.parametrize("case", sorted(ASSIGNMENT_CASES))
    @pytest.mark.parametrize("m", [6, 7])
    def test_equals_exhaustive(self, case, m, monkeypatch):
        d = np.array(ASSIGNMENT_CASES[case][0][:m], dtype=float)
        placed = ASSIGNMENT_CASES[case][1]
        if isinstance(placed, dict):
            placed = placed[m]
        graphs = []
        slot_graph = makeshifts._slot_graph
        monkeypatch.setattr(
            makeshifts, "_slot_graph", lambda *a: graphs.append(a) or slot_graph(*a)
        )
        H = bipartite_instance(d)
        got = _balanced_assignment(H, list(range(m)), list(range(m, m + 3)), 2.0)
        assert is_least_balanced(d, 2.0, got)
        if got is None:
            return
        # the matching gets a row for every other expert, fewest centers first
        [(sub, within, _, _)] = graphs
        rest = [i for i in range(m) if i not in placed]
        options = (d[rest] <= 2).sum(axis=1)
        assert np.array_equal(sub, d[[rest[j] for j in np.argsort(options, kind="stable")]])
        assert (np.diff(within.sum(axis=1)) >= 0).all()

    @pytest.mark.parametrize("seed", range(200))
    def test_random_limits(self, seed):
        # few reachable centers per expert, so experts get placed, and
        # sometimes too many on one center or too few on another
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        m = int(rng.integers(k, 8))
        d = rng.integers(0, 5, size=(m, k)).astype(float)
        limit = float(rng.integers(0, 5))
        H = bipartite_instance(d)
        got = _balanced_assignment(H, list(range(m)), list(range(m, m + k)), limit)
        assert is_least_balanced(d, limit, got)


@st.composite
def tiny_teams(draw):
    """Explicit instance of 2..9 nodes with distances in 0..4, 1..7 of
    them experts, a k of 1..3 and a multiplier in [1, 5]."""
    n = draw(st.integers(2, 9))
    m = np.zeros((n, n))
    for u, v in itertools.combinations(range(n), 2):
        m[u, v] = m[v, u] = draw(st.integers(0, 4))
    experts = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=7)))
    k = draw(st.integers(1, min(3, len(experts))))
    multiplier = draw(st.floats(1, 5))
    H = make_instance(
        n, "explicit", matrix=m, experts=[u in experts for u in range(n)]
    )
    return H, experts, k, multiplier


class TestBalancedKCenterProperty:
    @settings(max_examples=150, deadline=None)
    @given(tiny_teams())
    def test_radius_and_total_equal_exhaustive(self, team):
        H, experts, k, multiplier = team
        opts = MakeshiftOptions(balance_radius_multiplier=multiplier)
        centers, assign, r = balanced_kcenter(H, set(experts), k, opts)
        assert r == smallest_feasible_radius(H, experts, centers, multiplier)
        d = H.dist[np.ix_(experts, centers)]
        within = [
            blocks for blocks in balanced_assignments(len(experts), k)
            if all(d[i, b] <= multiplier * r + 1e-12 for i, b in enumerate(blocks))
        ]
        got = tuple(assign[u] for u in experts)
        assert got in within  # balanced, and every expert within the limit
        assert sum(d[i, b] for i, b in enumerate(got)) == min(
            sum(d[i, b] for i, b in enumerate(blocks)) for blocks in within
        )


class TestTeamKMedian:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_total_equals_exhaustive_and_centers_in_own_block(self, seed):
        H = random_points(seed)
        experts = [u for u in range(H.n) if H.experts[u]]
        opts = MakeshiftOptions()
        for k in (1, 2, 3):
            if k > len(experts):
                continue
            C = makeshift_tf_kmedian(H, set(experts), k, opts)
            chosen = _kmedian_swap_centers(H, experts, {u: 1.0 for u in experts}, k, opts)
            # a chosen center outside its own block would have been replaced
            assert [C.centers[b] for b in range(k)] == chosen
            assert all(C.assignment[c] == b for b, c in enumerate(chosen))
            d = H.dist[np.ix_(experts, chosen)]
            want = min(
                sum(d[i, b] for i, b in enumerate(blocks))
                for blocks in balanced_assignments(len(experts), k)
            )
            got = sum(H.dist[u, chosen[C.assignment[u]]] for u in experts)
            assert got == pytest.approx(want, rel=1e-12)
