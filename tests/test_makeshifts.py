import contextlib
import functools
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit, line_points, neighbours
from zeus_cluster import makeshifts
from zeus_cluster.errors import ConfigError, DegenerateInputError, InfeasibleError, ZeusError
from zeus_cluster.graph import make_instance
from zeus_cluster.makeshifts import (
    _SWAP_REL_STOP,
    MakeshiftOptions,
    _balanced_assignment,
    _blue_purple,
    _bp_feasible,
    _csr,
    _first_feasible,
    _has_balanced_assignment,
    _kmedian_swap_centers,
    _swap_candidates,
    _swap_costs,
    balanced_kcenter,
    greedy_centers,
    greedy_kcenter_value,
    makeshift_fairness_ab,
    makeshift_fairness_for,
    makeshift_fairness_mincost,
    makeshift_kcenter,
    makeshift_kmedian,
    makeshift_rs,
    makeshift_rs_gamma,
    makeshift_tf,
    makeshift_tf_kmedian,
)
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    PairStructure,
    SlackVector,
    clustering_to_json,
    eval_kcenter,
    eval_kmedian,
    eval_resource_sharing,
    eval_team_formation,
    singleton_clustering,
)
from zeus_cluster.oracle import (
    oracle_edge_cover,
    oracle_matching_radius,
    oracle_single_objective,
)
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import KMEDIAN_FACTOR, ProblemSpec, zeus_run

OPTS = MakeshiftOptions()


def blocks_as_sets(C):
    out = {}
    for u, b in C.assignment.items():
        out.setdefault(b, set()).add(u)
    return set(frozenset(s) for s in out.values())


class TestKCenterMakeshift:
    def test_line_three_points(self):
        H = line_points([0, 4, 5])
        C, _ = makeshift_kcenter(H, singleton_clustering(3), 2, OPTS)
        assert blocks_as_sets(C) == {frozenset({0}), frozenset({1, 2})}
        assert set(C.centers.values()) == {0, 2}
        assert eval_kcenter(H, C) == 1.0

    def test_k_equals_n_zero_radius(self):
        H = line_points([3, 1, 4, 1.5, 9])
        C, _ = makeshift_kcenter(H, singleton_clustering(5), 5, OPTS)
        assert eval_kcenter(H, C) == 0.0

    def test_pair_atom_moves_whole(self):
        # Nodes 1 and 2 were previously clustered together; they must land
        # in a single block even though nearest-center assignment splits them.
        H = line_points([0, 4.4, 5.6, 10])
        prior = Clustering(
            {0: 0, 1: 1, 2: 1, 3: 2},
            3,
            atoms=((0,), (1, 2), (3,)),
            roots=(0, 1, 3),
        )
        C, _ = makeshift_kcenter(H, prior, 2, OPTS)
        assert C.assignment[1] == C.assignment[2]

    def test_pair_anchor_is_member_closest_to_its_center(self):
        # With centers at 0 and 10, the pair (4.4, 5.6) anchors at 5.6
        # (distance 4.4 to center 10 beats 4.4's distance 4.4 to center 0
        # only via the lowest-id tie-break on equal distance).
        H = line_points([0, 4.0, 5.5, 10])
        prior = Clustering(
            {0: 0, 1: 1, 2: 1, 3: 2},
            3,
            atoms=((0,), (1, 2), (3,)),
            roots=(0, 1, 3),
        )
        C, _ = makeshift_kcenter(H, prior, 2, OPTS)
        # anchor 1 sits 4.0 from center 0; anchor 2 sits 4.5 from center 3
        assert C.assignment[1] == C.assignment[2] == C.assignment[0]

    def test_k_exceeds_atom_count_infeasible(self):
        H = line_points([0, 1, 2])
        prior = Clustering(
            {0: 0, 1: 0, 2: 1}, 2, atoms=((0, 1), (2,)), roots=(0, 2)
        )
        with pytest.raises(InfeasibleError):
            makeshift_kcenter(H, prior, 3, OPTS)

    def test_k_exceeds_n_config_error(self):
        H = line_points([0, 1])
        with pytest.raises(ConfigError):
            makeshift_kcenter(H, singleton_clustering(2), 3, OPTS)

    def test_every_block_nonempty(self):
        for seed in range(5):
            H = generate_instance("rs", 20, seed)
            C, _ = makeshift_kcenter(H, singleton_clustering(20), 4, OPTS)
            C.validate(20)
            assert len(blocks_as_sets(C)) == 4

    def test_first_center_is_lowest_id_without_seed(self):
        H = generate_instance("rs", 30, 4)
        assert greedy_centers(H, 3, MakeshiftOptions())[0] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_picks_the_first_center(self, seed):
        H = generate_instance("rs", 30, 4)
        first = random.Random(seed).randrange(30)
        assert greedy_centers(H, 3, MakeshiftOptions(seed=seed))[0] == first

    def test_two_approximation_property(self):
        for seed in range(10):
            H = generate_instance("rs", 14, seed)
            for k in (2, 3, 4):
                val = greedy_kcenter_value(H, greedy_centers(H, k, OPTS))
                # greedy radius is at most twice the farthest-first spread,
                # itself a lower bound certificate on the optimum
                assert val <= 2 * (val / 2) + 1e-12


class TestResourceSharing:
    def test_path_becomes_star(self, triangle):
        C, pairs = makeshift_rs(triangle, singleton_clustering(3))
        assert pairs.pairs == {(0, 1), (1, 2)}
        assert pairs.realized_radius == 2.0
        assert blocks_as_sets(C) == {frozenset({0, 1, 2})}
        assert C.centers[0] == 1  # hub of the star
        assert eval_resource_sharing(triangle, C) == 1.0

    def test_matching_shape(self):
        # Two tight pairs far apart: the cover is a perfect matching.
        H = line_points([0, 1, 10, 11], edge_threshold=2.0)
        C, pairs = makeshift_rs(H, singleton_clustering(4))
        assert pairs.pairs == {(0, 1), (2, 3)}
        assert pairs.realized_radius == 1.0
        assert blocks_as_sets(C) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_two_nodes(self):
        H = line_points([0, 5])
        C, pairs = makeshift_rs(H, singleton_clustering(2))
        assert pairs.pairs == {(0, 1)}
        assert C.k == 1

    def test_isolated_node_infeasible(self):
        H = line_points([0, 1, 10], edge_threshold=2.0)
        with pytest.raises(InfeasibleError):
            makeshift_rs(H, singleton_clustering(3))

    def test_matches_edge_cover_oracle(self):
        for seed in range(8):
            H = generate_instance("rs", 8, seed)
            _, pairs = makeshift_rs(H, singleton_clustering(8))
            assert pairs.realized_radius == pytest.approx(
                oracle_edge_cover(H).realized_radius
            )

    def test_no_three_edge_path(self):
        for seed in range(8):
            H = generate_instance("rs", 30, seed)
            _, pairs = makeshift_rs(H, singleton_clustering(30))
            deg = {}
            for u, v in pairs.pairs:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            # every cover edge touches at least one degree-1 endpoint, so
            # components are stars and paths never exceed two edges
            for u, v in pairs.pairs:
                assert deg[u] == 1 or deg[v] == 1


class TestGammaCover:
    def test_gamma_one_equals_edge_cover_radius(self, triangle):
        _, g = makeshift_rs_gamma(triangle, singleton_clustering(3), 1)
        _, ec = makeshift_rs(triangle, singleton_clustering(3))
        assert g.realized_radius == ec.realized_radius

    def test_gamma_two_needs_second_neighbor(self, triangle):
        _, pairs = makeshift_rs_gamma(triangle, singleton_clustering(3), 2)
        assert pairs.realized_radius == 3.0
        deg = {u: 0 for u in range(3)}
        for u, v in pairs.pairs:
            deg[u] += 1
            deg[v] += 1
        assert min(deg.values()) >= 2

    def test_gamma_exceeds_degree_infeasible(self):
        H = line_points([0, 1, 2], edge_threshold=1.0)
        with pytest.raises(InfeasibleError):
            makeshift_rs_gamma(H, singleton_clustering(3), 2)

    def test_earlier_atoms_stay_whole(self):
        H = generate_instance("f", 40, 1)
        prior, _ = makeshift_fairness_ab(H, 1, 1)
        C, pairs = makeshift_rs_gamma(H, prior, 2)
        for atom in prior.atoms:
            assert len({C.assignment[u] for u in atom}) == 1
        assert set(u for pair in pairs.pairs for u in pair) <= set(prior.roots)

    def test_min_degree_property(self):
        for seed in range(5):
            H = generate_instance("rs", 20, seed)
            min_deg = min(len(neighbours(H, u)) for u in range(20))
            if min_deg < 2:
                continue
            _, pairs = makeshift_rs_gamma(H, singleton_clustering(20), 2)
            deg = {u: 0 for u in range(20)}
            for u, v in pairs.pairs:
                deg[u] += 1
                deg[v] += 1
            assert min(deg.values()) >= 2
            assert all(H.dist[u, v] <= pairs.realized_radius for u, v in pairs.pairs)

    @pytest.mark.parametrize("seed", range(40))
    def test_radius_is_smallest_feasible_edge_weight(self, seed):
        # integer distances 1..4 and a random E, so weights tie often
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        m = np.zeros((n, n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                m[u, v] = m[v, u] = rng.randint(1, 4)
                if rng.random() < 0.7:
                    edges.append((u, v))
        H = explicit(m, edges=edges)
        for gamma in (1, 2, 3):
            if min(len(neighbours(H, u)) for u in range(n)) < gamma:
                with pytest.raises(InfeasibleError):
                    makeshift_rs_gamma(H, singleton_clustering(n), gamma)
                continue
            _, pairs = makeshift_rs_gamma(H, singleton_clustering(n), gamma)
            assert pairs.realized_radius == _gamma_radius_by_search(H, gamma)
            assert max(H.dist[u, v] for u, v in pairs.pairs) == pairs.realized_radius


def _gamma_radius_by_search(H, gamma):
    """Binary search over the E-weights for the smallest radius at which
    every node has gamma E-neighbours."""
    weights = sorted({float(H.dist[u, v]) for u, v in H.edges.tolist()})

    def feasible(r):
        return all(
            sum(1 for v in neighbours(H, u) if H.dist[u, v] <= r) >= gamma
            for u in range(H.n)
        )

    lo, hi = 0, len(weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(weights[mid]):
            hi = mid
        else:
            lo = mid + 1
    return weights[hi]


def bp_instance(weights, n_blue, n_purple, fill=100.0):
    """Bipartite Blue/Purple instance; weights maps (b_i, p_j) -> distance."""
    n = n_blue + n_purple
    m = np.full((n, n), fill)
    np.fill_diagonal(m, 0.0)
    edges = []
    for (i, j), w in weights.items():
        u, v = i, n_blue + j
        m[u, v] = m[v, u] = w
        edges.append((u, v))
    colors = ["B"] * n_blue + ["P"] * n_purple
    return make_instance(n, "explicit", matrix=m, colors=colors, edges=edges)


class TestFairness:
    def test_single_blue_picks_cheaper_purple(self):
        H = bp_instance({(0, 0): 3, (0, 1): 5}, 1, 2)
        C, pairs = makeshift_fairness_ab(H, 1, 1)
        assert pairs.pairs == {(0, 1)}
        assert pairs.realized_radius == 3.0

    def test_contention_forces_larger_radius(self):
        # Both blues prefer p0, but saturation forces one onto the
        # weight-9 edge.
        H = bp_instance({(0, 0): 1, (1, 0): 2, (1, 1): 9}, 2, 2)
        C, pairs = makeshift_fairness_ab(H, 1, 1)
        assert pairs.realized_radius == 9.0
        assert pairs.pairs == {(0, 2), (1, 3)}

    def test_no_matching_infeasible(self):
        H = bp_instance({(0, 0): 1, (1, 0): 1}, 2, 1)
        with pytest.raises(InfeasibleError):
            makeshift_fairness_ab(H, 1, 1)

    def test_no_blue_degenerate(self):
        H = make_instance(
            2, "explicit", matrix=[[0, 1], [1, 0]], colors=["P", "P"]
        )
        with pytest.raises(DegenerateInputError):
            makeshift_fairness_ab(H, 1, 1)

    def test_matches_matching_oracle(self):
        for seed in range(8):
            H = generate_instance("f", 9, seed)
            _, pairs = makeshift_fairness_ab(H, 1, 1)
            assert pairs.realized_radius == pytest.approx(oracle_matching_radius(H))

    def test_unmatched_purples_stay_singletons(self):
        H = bp_instance({(0, 0): 3, (0, 1): 5}, 1, 2)
        C, _ = makeshift_fairness_ab(H, 1, 1)
        assert blocks_as_sets(C) == {frozenset({0, 1}), frozenset({2})}

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 1), (1, 2)])
    def test_every_edge_one_length(self, alpha, beta):
        # one candidate radius: the search ends on it at once
        edges = {(i, j): 2.5 for i in range(2) for j in range(4)}
        H = bp_instance(edges, 2, 4)
        _, pairs = makeshift_fairness_ab(H, alpha, beta)
        assert pairs.realized_radius == 2.5
        assert len(pairs.pairs) == 2 * alpha
        degree = {u: sum(u in e for e in pairs.pairs) for u in range(6)}
        assert all(degree[b] == alpha for b in range(2))
        assert all(degree[p] <= beta for p in range(2, 6))


class TestBMatching:
    def test_one_one_equals_fairness(self):
        for seed in range(5):
            H = generate_instance("f", 9, seed)
            _, p1 = makeshift_fairness_for(H, (ObjectiveSpec("f"),))
            _, p2 = makeshift_fairness_ab(H, 1, 1)
            assert p1.realized_radius == p2.realized_radius
            assert p1.pairs == p2.pairs

    def test_alpha_two_each_blue_gets_two(self):
        H = bp_instance({(0, 0): 1, (0, 1): 2, (0, 2): 4}, 1, 3)
        _, pairs = makeshift_fairness_ab(H, 2, 1)
        assert pairs.pairs == {(0, 1), (0, 2)}
        assert pairs.realized_radius == 2.0

    def test_beta_two_lets_purple_serve_two(self):
        H = bp_instance({(0, 0): 1, (1, 0): 2, (1, 1): 9}, 2, 2)
        _, pairs = makeshift_fairness_ab(H, 1, 2)
        assert pairs.pairs == {(0, 2), (1, 2)}
        assert pairs.realized_radius == 2.0

    def test_infeasible_at_every_radius(self):
        # alpha = 2 asks two Purple partners of each Blue; two Blues share
        # three Purples, so even the largest radius falls one short
        H = bp_instance({(0, 0): 1, (0, 1): 2, (1, 1): 3, (1, 2): 4}, 2, 3)
        with pytest.raises(InfeasibleError, match="no Blue-saturating matching exists at any radius"):
            makeshift_fairness_ab(H, 2, 1)
        assert makeshift_fairness_ab(H, 2, 2)[1].realized_radius == 4.0

    def test_invalid_parameters(self):
        H = bp_instance({(0, 0): 1}, 1, 1)
        with pytest.raises(ConfigError):
            makeshift_fairness_ab(H, 0, 1)

    def test_mincost_matching_saturates_blue(self):
        for seed in range(5):
            H = generate_instance("f", 12, seed)
            _, pairs = makeshift_fairness_mincost(H)
            blue = [u for u in range(H.n) if H.colors[u] == "B"]
            matched = {u for e in pairs.pairs for u in e}
            assert set(blue) <= matched

    def test_mincost_minimizes_total(self):
        # bottleneck matching would accept {1+9}=10; min-cost finds {2+2}=4
        H = bp_instance({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 9}, 2, 2)
        _, pairs = makeshift_fairness_mincost(H)
        total = sum(H.dist[u, v] for u, v in pairs.pairs)
        assert total == pytest.approx(4.0)


@pytest.mark.parametrize("bad", [0, 1.5, True, "2"])
def test_multiplicities_must_be_positive_integers(bad):
    H = generate_instance("f", 12, 0)
    with pytest.raises(ConfigError, match="gamma must be a positive integer"):
        makeshift_rs_gamma(H, singleton_clustering(H.n), bad)
    with pytest.raises(ConfigError, match="alpha must be a positive integer"):
        makeshift_fairness_ab(H, bad, 1)
    with pytest.raises(ConfigError, match="beta must be a positive integer"):
        makeshift_fairness_ab(H, 1, bad)


def test_numpy_integer_multiplicities_accepted():
    H = generate_instance("f", 12, 0)
    assert makeshift_fairness_ab(H, np.int32(1), np.int64(2)) == makeshift_fairness_ab(H, 1, 2)
    C = singleton_clustering(H.n)
    assert makeshift_rs_gamma(H, C, np.int64(2)) == makeshift_rs_gamma(H, C, 2)


class TestBalancedKCenter:
    @pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), 0.5])
    def test_multiplier_must_be_finite_and_at_least_one(self, multiplier):
        with pytest.raises(ConfigError, match="balance_radius_multiplier"):
            MakeshiftOptions(balance_radius_multiplier=multiplier)

    def test_experts_equal_k_zero_radius(self):
        # every expert is a center: every expert-to-center threshold is 0
        H = line_points([0, 5, 9])
        centers, assign, r = balanced_kcenter(H, {0, 1, 2}, 3, OPTS)
        assert r == 0.0
        assert sorted(centers) == [0, 1, 2]
        assert all(centers[b] == u for u, b in assign.items())

    @pytest.mark.parametrize("multiplier, radius", [(1.0, 7.0), (1.5, 6.0), (4.0, 2.0)])
    def test_k_one_radius_reaches_farthest_expert(self, multiplier, radius):
        # the one center is node 0; the farthest expert is 7 away, and the
        # radius is the least distance between experts whose multiple reaches 7
        H = line_points([0, 1, 3, 7])
        opts = MakeshiftOptions(balance_radius_multiplier=multiplier)
        centers, assign, r = balanced_kcenter(H, {0, 1, 2, 3}, 1, opts)
        assert centers == [0]
        assert assign == {0: 0, 1: 0, 2: 0, 3: 0}
        assert r == radius

    def test_all_experts_coincident(self):
        H = make_instance(7, "euclidean", embeddings=[(1.0, 2.0)] * 7)
        centers, assign, r = balanced_kcenter(H, set(range(7)), 3, OPTS)
        assert r == 0.0
        assert len(set(centers)) == 3
        assert sorted(np.bincount(list(assign.values()))) == [2, 2, 3]

    def test_largest_threshold_always_feasible(self):
        # every expert-center edge lies within the largest threshold, and
        # the complete slot graph has a perfect matching, so the search's
        # InfeasibleError cannot arise from a valid instance; the search
        # itself reports "none feasible" as the length of its values
        assert _first_feasible([1, 2, 3], lambda v: False) == 3
        assert _first_feasible([1, 2, 3], lambda v: v >= 2) == 1
        assert _first_feasible([], lambda v: True) == 0
        for seed in range(3):
            H = generate_instance("tf", 40, seed)
            X = {u for u in range(40) if H.experts[u]}
            for k in range(1, len(X) + 1):
                balanced_kcenter(H, X, k, MakeshiftOptions(balance_radius_multiplier=1.0))

    def test_collinear_pairs(self):
        H = line_points([0, 1, 10, 11])
        centers, assign, r = balanced_kcenter(H, {0, 1, 2, 3}, 2, OPTS)
        groups = {}
        for u, b in assign.items():
            groups.setdefault(b, set()).add(u)
        assert set(frozenset(g) for g in groups.values()) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }
        assert r == 1.0

    def test_loads_within_floor_ceil(self):
        for seed in range(5):
            H = generate_instance("tf", 20, seed)
            X = {u for u in range(20) if H.experts[u]}
            for k in (2, 3):
                if k > len(X):
                    continue
                _, assign, _ = balanced_kcenter(H, X, k, OPTS)
                loads = [0] * k
                for b in assign.values():
                    loads[b] += 1
                m = len(X)
                assert min(loads) >= m // k
                assert max(loads) <= -(-m // k)

    def test_k_exceeds_experts(self):
        H = line_points([0, 1, 2])
        with pytest.raises(ConfigError):
            balanced_kcenter(H, {0}, 2, OPTS)


class TestTeamFormation:
    def test_all_experts_balanced(self):
        H = line_points([0, 1, 10, 11], experts=[True] * 4)
        C = makeshift_tf(H, {0, 1, 2, 3}, 2, OPTS)
        assert eval_team_formation(H, C) == 1.0
        assert blocks_as_sets(C) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_nonexperts_join_nearest_expert(self):
        H = line_points(
            [0, 1, 10, 11, 0.2, 10.3],
            experts=[True, True, True, True, False, False],
        )
        opts = MakeshiftOptions(nonexpert_rule="closest_expert")
        C = makeshift_tf(H, {0, 1, 2, 3}, 2, opts)
        assert C.assignment[4] == C.assignment[0]
        assert C.assignment[5] == C.assignment[2]
        assert eval_team_formation(H, C) == 1.0

    def test_both_rules_preserve_balance(self):
        for rule in ("closest_expert", "closest_center"):
            for seed in range(4):
                H = generate_instance("tf", 18, seed)
                X = {u for u in range(18) if H.experts[u]}
                opts = MakeshiftOptions(nonexpert_rule=rule)
                C = makeshift_tf(H, X, 2, opts)
                val = eval_team_formation(H, C)
                m = len(X)
                assert val <= (-(-m // 2)) / (m // 2) + 1e-12

    def test_blocks_become_atoms(self):
        H = generate_instance("tf", 12, 1)
        X = {u for u in range(12) if H.experts[u]}
        C = makeshift_tf(H, X, 3, OPTS)
        assert len(C.atoms) == 3
        assert blocks_as_sets(C) == set(frozenset(a) for a in C.atoms)

    def test_empty_expert_set(self):
        H = line_points([0, 1])
        with pytest.raises(DegenerateInputError):
            makeshift_tf(H, set(), 1, OPTS)


class TestKMedian:
    def test_k_equals_n_zero_cost(self):
        H = line_points([0, 2, 7])
        C = makeshift_kmedian(H, singleton_clustering(3), 3, OPTS)
        assert eval_kmedian(H, C) == 0.0

    def test_outlier_isolated(self):
        H = line_points([0, 1, 10])
        C = makeshift_kmedian(H, singleton_clustering(3), 2, OPTS)
        assert eval_kmedian(H, C) == 1.0
        assert C.assignment[0] == C.assignment[1]
        assert C.assignment[2] != C.assignment[0]

    def test_atoms_kept_whole(self):
        H = line_points([0, 4.4, 5.6, 10])
        prior = Clustering(
            {0: 0, 1: 1, 2: 1, 3: 2},
            3,
            atoms=((0,), (1, 2), (3,)),
            roots=(0, 1, 3),
        )
        C = makeshift_kmedian(H, prior, 2, OPTS)
        assert C.assignment[1] == C.assignment[2]

    def test_tf_variant_balanced(self):
        for seed in range(4):
            H = generate_instance("tf", 15, seed)
            X = {u for u in range(15) if H.experts[u]}
            C = makeshift_tf_kmedian(H, X, 2, OPTS)
            val = eval_team_formation(H, C)
            m = len(X)
            assert val <= (-(-m // 2)) / (m // 2) + 1e-12


def _weighted_cost(H, reps, weights, centers):
    return sum(weights[r] * min(H.dist[r, c] for c in centers) for r in reps)


@st.composite
def _swap_problems(draw, unit=False):
    """A metric on 2..9 nodes, shortest paths over integer edge lengths
    0..5, with a rep set, integer weights and a k; with ``unit`` every
    node is a rep of weight 1."""
    n = draw(st.integers(2, 9))
    m = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            m[u, v] = m[v, u] = draw(st.integers(0, 5))
    for via in range(n):
        m = np.minimum(m, m[:, [via]] + m[[via], :])
    H = make_instance(n, "explicit", matrix=m)
    if unit:
        reps = list(range(n))
        weights = {u: 1.0 for u in reps}
    else:
        reps = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        weights = {u: float(draw(st.integers(1, 5))) for u in reps}
    k = draw(st.integers(1, len(reps)))
    return H, reps, weights, k


def _swap_centers_by_recomputation(H, reps, weights, k, opts):
    """Reference swap search: every trial's cost recomputed from scratch."""
    centers = greedy_centers(H, k, opts, candidates=reps)
    w = np.asarray([weights[r] for r in reps])

    def cost(cs):
        return float((H.dist[np.ix_(reps, cs)].min(axis=1) * w).sum())

    current = cost(centers)
    while True:
        best_cost, best_swap = current, None
        for p in range(k):
            for r in reps:
                if r not in centers:
                    c = cost(centers[:p] + [r] + centers[p + 1 :])
                    if c < best_cost - _SWAP_REL_STOP * max(1.0, current):
                        best_cost, best_swap = c, (p, r)
        if best_swap is None:
            return centers
        centers[best_swap[0]] = best_swap[1]
        current = best_cost


class TestKmedianSwap:
    def test_k_equals_reps_keeps_greedy_centers(self):
        H = generate_instance("rs", 20, 0)
        reps = [1, 4, 6, 11, 17]
        weights = {r: 1.0 for r in reps}
        greedy = greedy_centers(H, 5, OPTS, candidates=reps)
        assert _kmedian_swap_centers(H, reps, weights, 5, OPTS) == greedy

    def test_k_one_finds_weighted_median(self):
        H = line_points([0, 1, 2, 10])
        unit = {u: 1.0 for u in range(4)}
        # nodes 1 and 2 tie at cost 11; the first record-breaker wins
        assert _kmedian_swap_centers(H, [0, 1, 2, 3], unit, 1, OPTS) == [1]
        heavy = {**unit, 3: 5.0}
        assert _kmedian_swap_centers(H, [0, 1, 2, 3], heavy, 1, OPTS) == [3]

    def test_all_coincident_takes_no_swap(self):
        H = make_instance(6, "euclidean", embeddings=[(0, 0)] * 6)
        weights = {u: 1.0 for u in range(6)}
        assert _kmedian_swap_centers(H, list(range(6)), weights, 3, OPTS) == [0, 1, 2]
        C = makeshift_kmedian(H, singleton_clustering(6), 3, OPTS)
        assert [len(C.blocks()[b]) for b in range(3)] == [4, 1, 1]
        assert eval_kmedian(H, C) == 0.0

    def test_zero_weight_rep_is_not_served(self):
        H = line_points([0, 1, 100])
        weights = {0: 1.0, 1: 1.0, 2: 0.0}
        # greedy takes the far node 2; serving it is worth nothing
        assert greedy_centers(H, 2, OPTS) == [0, 2]
        assert _kmedian_swap_centers(H, [0, 1, 2], weights, 2, OPTS) == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(_swap_problems())
    def test_matches_recomputed_swaps(self, problem):
        H, reps, weights, k = problem
        for opts in (OPTS, MakeshiftOptions(seed=k)):
            got = _kmedian_swap_centers(H, reps, weights, k, opts)
            assert got == _swap_centers_by_recomputation(H, reps, weights, k, opts)

    @settings(max_examples=200, deadline=None)
    @given(_swap_problems())
    def test_no_single_swap_improves(self, problem):
        H, reps, weights, k = problem
        centers = _kmedian_swap_centers(H, reps, weights, k, OPTS)
        assert len(set(centers)) == k and set(centers) <= set(reps)
        cost = _weighted_cost(H, reps, weights, centers)
        margin = _SWAP_REL_STOP * max(1.0, cost)
        for p in range(k):
            for r in set(reps) - set(centers):
                trial = centers[:p] + [r] + centers[p + 1 :]
                assert _weighted_cost(H, reps, weights, trial) >= cost - margin

    @settings(max_examples=100, deadline=None)
    @given(_swap_problems(unit=True))
    def test_within_kmedian_factor_of_optimum(self, problem):
        H, reps, weights, k = problem
        centers = _kmedian_swap_centers(H, reps, weights, k, OPTS)
        best = oracle_single_objective(H, k, ObjectiveSpec("km"))
        assert _weighted_cost(H, reps, weights, centers) <= KMEDIAN_FACTOR * best


class TestDeterminism:
    def test_kcenter_repeatable(self):
        H = generate_instance("rs", 25, 3)
        a, _ = makeshift_kcenter(H, singleton_clustering(25), 4, OPTS)
        b, _ = makeshift_kcenter(H, singleton_clustering(25), 4, OPTS)
        assert a.assignment == b.assignment
        assert a.centers == b.centers

    def test_numpy_integer_seed_is_an_int(self):
        H = generate_instance("rs", 25, 3)
        opts = MakeshiftOptions(seed=np.int64(7))
        assert type(opts.seed) is int and opts.seed == 7
        a, _ = makeshift_kcenter(H, singleton_clustering(25), 4, opts)
        b, _ = makeshift_kcenter(H, singleton_clustering(25), 4, MakeshiftOptions(seed=7))
        assert (a.assignment, a.centers) == (b.assignment, b.centers)

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            MakeshiftOptions(seed=seed)

    def test_seeded_random_start_repeatable(self):
        H = generate_instance("rs", 25, 3)
        opts = MakeshiftOptions(seed=11)
        a, _ = makeshift_kcenter(H, singleton_clustering(25), 4, opts)
        b, _ = makeshift_kcenter(H, singleton_clustering(25), 4, opts)
        assert a.assignment == b.assignment

    def test_rs_repeatable(self):
        H = generate_instance("rs", 25, 5)
        a = makeshift_rs(H, singleton_clustering(25))[1]
        b = makeshift_rs(H, singleton_clustering(25))[1]
        assert a.pairs == b.pairs


class TestCoincidentPoints:
    """Points at one location: every block stays non-empty."""

    CHAIN = [(0, 1), (1, 2), (2, 3), (3, 4)]

    def _run(self, H, kinds, slacks, k):
        spec = ProblemSpec(
            tuple(ObjectiveSpec(kind) for kind in kinds), SlackVector(slacks), k
        )
        C, _ = zeus_run(H, spec)
        assert all(C.blocks())
        return C

    def test_greedy_centers_are_distinct(self):
        H = make_instance(5, "euclidean", embeddings=[(0, 0)] * 5)
        for k in range(1, 6):
            assert greedy_centers(H, k, OPTS) == list(range(k))

    def test_kmedian_all_coincident(self):
        H = make_instance(5, "euclidean", embeddings=[(0, 0)] * 5, edges=self.CHAIN)
        C = self._run(H, ["km"], (5,), 3)
        assert C.k == 3
        assert eval_kmedian(H, C) == 0.0

    def test_rs_then_kmedian_all_coincident(self):
        H = make_instance(5, "euclidean", embeddings=[(0, 0)] * 5, edges=self.CHAIN)
        self._run(H, ["rs", "km"], (1, 5), 2)

    def test_kmedian_two_locations(self):
        H = make_instance(4, "euclidean", embeddings=[(0, 0), (0, 0), (1, 0), (1, 0)])
        C = self._run(H, ["km"], (5,), 3)
        assert eval_kmedian(H, C) == 0.0

    def test_kcenter_all_coincident(self):
        H = make_instance(5, "euclidean", embeddings=[(0, 0)] * 5, edges=self.CHAIN)
        self._run(H, ["kc"], (2,), 3)


def _kmedian_swap_lines():
    """One line per swap k-median center list over a grid of instances,
    rep sets, weights, k and first-center rules, plus one line per
    ``zeus_run`` clustering of two k-median pipelines."""
    lines = []
    for kind in ("rs", "f", "tf"):
        for n in (40, 90):
            for seed in range(3):
                H = generate_instance(kind, n, seed)
                rng = random.Random(seed)
                half = sorted(rng.sample(range(n), n // 2))
                rep_sets = {
                    "unit": (list(range(n)), {u: 1.0 for u in range(n)}),
                    "half": (half, {u: float(rng.randint(1, 5)) for u in half}),
                }
                rules = {
                    "lowest": MakeshiftOptions(),
                    "seeded": MakeshiftOptions(seed=seed),
                }
                for name, (reps, weights) in rep_sets.items():
                    for rule, opts in rules.items():
                        for k in range(1, 9):
                            centers = _kmedian_swap_centers(H, reps, weights, k, opts)
                            lines.append(json.dumps([kind, n, seed, name, rule, k, centers]))
    # integer points on a 4x4 grid: many equal distances, many ties
    for seed in range(5):
        rng = random.Random(seed)
        pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(30)]
        H = make_instance(30, "euclidean", embeddings=pts)
        weights = {u: 1.0 for u in range(30)}
        for k in range(1, 8):
            centers = _kmedian_swap_centers(H, list(range(30)), weights, k, OPTS)
            lines.append(json.dumps(["grid", seed, k, centers]))
    for kind, kinds, slacks in (("rs", ("kc", "km"), (2, 5)), ("tf", ("tf", "km"), (1, 5))):
        H = generate_instance(kind, 90, 0)
        for k in range(2, 9):
            spec = ProblemSpec(
                tuple(ObjectiveSpec(o) for o in kinds), SlackVector(slacks), k,
                allow_infeasible_slack=True,
            )
            lines.append(clustering_to_json(H, zeus_run(H, spec)[0]))
    return lines


class TestKmedianSwapPinned:
    """The swap k-median's centers on a grid full of ties, and the
    clusterings of two k-median pipelines, pinned by digest."""

    def test_swap_grid(self):
        lines = _kmedian_swap_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "0669778cb413964b69bb17cf7748733d009bfe8b078f6e301b57ed67ff72e59a",
            625,
        )


def _kmedian_workload_lines():
    """At the sizes of the benchmark's ``kmedian`` cells: one line per swap
    k-median center list over the ``rs`` or ``f`` makeshift's atom reps,
    and one per ``zeus_run`` of ``rs,km`` or ``f,km`` at slack (1, 5), its
    clustering and its trace without ``elapsed_ms``; an error is recorded
    by its class name."""
    lines = []
    for kind, n in (("rs", 300), ("f", 220)):
        objectives = (ObjectiveSpec(kind), ObjectiveSpec("km"))
        for seed in range(5):
            H = generate_instance(kind, n, seed)
            reps, weights = _atom_reps(H, kind)
            for k in (2, 6, 10):
                for rule, opts in (("lowest", OPTS), ("seeded", MakeshiftOptions(seed=seed))):
                    centers = _kmedian_swap_centers(H, reps, weights, k, opts)
                    lines.append(json.dumps([kind, seed, k, rule, centers]))
                    spec = ProblemSpec(objectives, SlackVector((1, 5)), k, opts)
                    try:
                        C, state = zeus_run(H, spec)
                    except ZeusError as exc:
                        lines.append(json.dumps([kind, seed, k, rule, type(exc).__name__]))
                        continue
                    lines.append(clustering_to_json(H, C))
                    for entry in state.trace:
                        entry = {key: v for key, v in entry.items() if key != "elapsed_ms"}
                        lines.append(json.dumps(entry, sort_keys=True))
    return lines


class TestKmedianWorkloadPinned:
    """The swap k-median's centers and the ``rs,km`` and ``f,km`` runs at
    the benchmark's ``kmedian`` sizes, where a round weighs 120-150 reps,
    pinned by digest."""

    def test_workload_grid(self):
        lines = _kmedian_workload_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "b95d7284a9b2d8402da139c91fc334e43fe293645f5d0e5d19945e070b905d15",
            240,
        )


def _swap_centers_by_position(H, reps, weights, k, opts):
    """Reference: the swap search that scored all swaps of one center
    position per whole R x R array pass, k passes a round."""
    centers = greedy_centers(H, k, opts, candidates=reps)
    D = H.dist[np.ix_(reps, reps)]
    w = np.asarray([weights[r] for r in reps])
    buf = np.empty_like(D)
    cols = [reps.index(c) for c in centers]
    current = float((D[:, cols].min(axis=1) * w).sum())
    while True:
        dc = np.vstack([D[cols], np.full(len(reps), np.inf)])
        two = np.partition(dc, 1, axis=0)
        nearest = dc.argmin(axis=0)
        stop = _SWAP_REL_STOP * max(1.0, current)
        best_cost, best_swap = current, None
        for p in range(k):
            excl = np.where(nearest == p, two[1], two[0])
            np.minimum(D, excl, out=buf)
            buf *= w
            trial = buf.sum(axis=1)
            trial[cols] = np.inf
            for j in np.flatnonzero(trial < current - stop):
                c = float(trial[j])
                if c < best_cost - stop:
                    best_cost, best_swap = c, (p, int(j))
        if best_swap is None:
            return centers
        p, j = best_swap
        centers[p], cols[p] = reps[j], j
        current = best_cost


def _atom_reps(H, kind):
    """The atom roots of the ``rs`` or ``f`` makeshift, each weighted by
    its atom's size, as ``makeshift_kmedian`` weighs them; for ``tf`` the
    experts, each of weight 1."""
    if kind == "tf":
        experts = sorted(_experts(H))
        return experts, {u: 1.0 for u in experts}
    if kind == "rs":
        C, _ = makeshift_rs(H, singleton_clustering(H.n))
    else:
        C, _ = makeshift_fairness_mincost(H)
    return sorted(C.roots), {r: float(len(a)) for a, r in zip(C.atoms, C.roots)}


def _lattice(side, count=None, seed=0):
    """Manhattan distances on the side x side integer lattice: every
    point of it, or ``count`` points drawn from it with repeats."""
    points = [(x, y) for x in range(side) for y in range(side)]
    if count is not None:
        rng = random.Random(seed)
        points = [rng.choice(points) for _ in range(count)]
    m = [[abs(x - a) + abs(y - b) for a, b in points] for x, y in points]
    return explicit(m)


class TestKmedianSwapReference:
    """The one-pass swap search ends on the centers of the per-position
    search it replaced, at workload scale and on lattices full of ties."""

    RULES = (MakeshiftOptions(), MakeshiftOptions(seed=3))

    def _check(self, H, reps, weights, ks):
        for k in ks:
            for opts in self.RULES:
                want = _swap_centers_by_position(H, reps, weights, k, opts)
                assert _kmedian_swap_centers(H, reps, weights, k, opts) == want

    @pytest.mark.parametrize("kind", ["rs", "f", "tf"])
    @pytest.mark.parametrize("n", [90, 300])
    @pytest.mark.parametrize("seed", range(2))
    def test_makeshift_reps(self, kind, n, seed):
        H = _large_instance(kind, n, seed)
        self._check(H, *_atom_reps(H, kind), (1, 2, 6, 10))

    @pytest.mark.parametrize("count", [None, 30, 60])
    @pytest.mark.parametrize("seed", range(3))
    def test_lattices(self, count, seed):
        H = _lattice(4, count, seed)
        unit = {u: 1.0 for u in range(H.n)}
        rng = random.Random(seed)
        heavy = {u: float(rng.randint(1, 3)) for u in range(H.n)}
        for weights in (unit, heavy):
            self._check(H, list(range(H.n)), weights, (1, 2, 6, 10))


@st.composite
def _candidate_problems(draw):
    """Exact swap costs, k x R, bunched within a few ulps of the stop
    margin's steps below ``current``, where rounding decides; the
    positions of the current centers; ``current``."""
    k = draw(st.integers(1, 4))
    R = draw(st.integers(k + 1, 10))
    current = draw(st.sampled_from([0.5, 1.0, 37.0, 2.0**40]))
    stop = _SWAP_REL_STOP * max(1.0, current)
    ulp = np.finfo(float).eps * max(1.0, current)
    steps = st.tuples(st.integers(-3, 1), st.integers(-20, 20))
    exact = np.array(
        [current + a * stop + m * ulp for a, m in draw(st.lists(steps, min_size=k * R, max_size=k * R))]
    ).reshape(k, R)
    cols = draw(st.lists(st.integers(0, R - 1), min_size=k, max_size=k, unique=True))
    return exact, cols, current, stop


def _records(exact, cols, current, stop):
    """The swaps the first-record-breaker scan updates its best on."""
    best, found = current, []
    for p, j in np.ndindex(exact.shape):
        if j not in cols and exact[p, j] < best - stop:
            best = exact[p, j]
            found.append((p, j))
    return found


class TestSwapCandidates:
    """Fed approximations off their exact costs by the proven bound, in the
    worst direction, the filter still keeps every record."""

    @settings(max_examples=500, deadline=None)
    @given(_candidate_problems())
    def test_keeps_every_record(self, problem):
        exact, cols, current, stop = problem
        records = _records(exact, cols, current, stop)
        # records (R + 1) eps high and all others as low: within the
        # 2 gamma_{R+2} bound, rounding of the product included
        slack = (exact.shape[1] + 1) * np.finfo(float).eps
        sign = -np.ones_like(exact)
        for p, j in records:
            sign[p, j] = 1
        approx = exact * (1 + sign * slack)
        positions, rows = _swap_candidates(approx, cols, current, stop)
        kept = list(zip(positions.tolist(), rows.tolist()))
        assert kept == sorted(kept)
        assert set(records) <= set(kept)
        assert not set(rows.tolist()) & set(cols)


@st.composite
def _swap_cost_blocks(draw):
    """A rep distance square of R rows, weights, and a block of candidate
    rows, each with its own distances to the nearest staying center; R
    runs past numpy's pairwise-summation block of 128 terms, on and off
    its multiples, and the values span six decades so that the order of
    the sum shows in its last bits."""
    R = draw(st.one_of(st.integers(1, 300), st.sampled_from([127, 128, 129, 255, 256, 257])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.random((R, R)) * 10.0 ** rng.uniform(-3, 3, (R, R))
    w = rng.integers(1, 6, R).astype(float)
    rows = rng.integers(0, R, draw(st.integers(1, 12)))
    excl = rng.random((len(rows), R)) * 10.0 ** rng.uniform(-3, 3, (len(rows), R))
    return D, w, excl, rows


class TestSwapCostsBatch:
    """A round's exact costs come from one ``_swap_costs`` call over all
    its candidates, each row with its own ``excl``: every cost is the
    float of the call for that row alone, and of a plain row sum."""

    @settings(max_examples=300, deadline=None)
    @given(_swap_cost_blocks())
    def test_block_equals_rows(self, block):
        D, w, excl, rows = block
        together = _swap_costs(D, w, excl, rows)
        alone = [_swap_costs(D, w, e, [j])[0] for e, j in zip(excl, rows.tolist())]
        plain = [(np.minimum(D[j], e) * w).sum() for e, j in zip(excl, rows.tolist())]
        assert together.tobytes() == np.array(alone).tobytes() == np.array(plain).tobytes()


class TestSwapWorkPinned:
    """Swaps that get an exact cost per swap k-median run, counted: the
    one-pass approximation leaves a few dozen, where the per-position
    passes scored every swap, k * (R - k) a round."""

    def test_exact_swap_costs(self, monkeypatch):
        exact, rounds = [], []
        swap_costs, approx_swap_costs = makeshifts._swap_costs, makeshifts._approx_swap_costs

        def counted_exact(D, w, excl, rows):
            exact.append(len(rows))
            return swap_costs(D, w, excl, rows)

        def counted_rounds(*args):
            rounds.append(1)
            return approx_swap_costs(*args)

        monkeypatch.setattr(makeshifts, "_swap_costs", counted_exact)
        monkeypatch.setattr(makeshifts, "_approx_swap_costs", counted_rounds)
        per_run, every_swap = [], []
        for kind in ("rs", "f"):
            for seed in range(3):
                H = _large_instance(kind, 300, seed)
                reps, weights = _atom_reps(H, kind)
                for k in (2, 6):
                    exact.clear()
                    rounds.clear()
                    _kmedian_swap_centers(H, reps, weights, k, OPTS)
                    per_run.append(sum(exact))
                    every_swap.append(len(rounds) * k * (len(reps) - k))
        assert per_run == [6, 27, 9, 37, 19, 32, 4, 26, 17, 40, 13, 47]
        assert every_swap == [
            484, 7020, 732, 7080, 1180, 6840, 792, 9312, 2376, 12804, 1980, 13968
        ]


def _threshold_search_lines():
    """One line per result of the two bottleneck searches: balanced
    k-center centers, assignment and radius; team-formation clusterings;
    alpha:beta matchings with their pairs and radius. An error is recorded
    by its class name."""

    def line(*key, run):
        try:
            got = run()
        except ZeusError as exc:
            got = type(exc).__name__
        return json.dumps([*key, got])

    lines = []
    for n in (20, 60, 200):
        for seed in range(4):
            H = generate_instance("tf", n, seed)
            X = {u for u in range(n) if H.experts[u]}
            for k in (1, 2, 3, 5, 7, 10):
                for rule, first_seed in (("lowest", None), ("seeded", seed)):
                    for mult in (1, 1.5, 4):
                        opts = MakeshiftOptions(
                            seed=first_seed, balance_radius_multiplier=mult
                        )

                        def run_kcenter(opts=opts, k=k):
                            centers, assign, r = balanced_kcenter(H, X, k, opts)
                            return [centers, sorted(assign.items()), r]

                        lines.append(line("kc", n, seed, k, rule, mult, run=run_kcenter))
                for nonexpert_rule in ("closest_center", "closest_expert"):
                    opts = MakeshiftOptions(nonexpert_rule=nonexpert_rule)
                    lines.append(line(
                        "tf", n, seed, k, nonexpert_rule,
                        run=lambda opts=opts, k=k: clustering_to_json(H, makeshift_tf(H, X, k, opts)),
                    ))
    for n in (10, 30, 100, 400):
        for seed in range(5):
            H = generate_instance("f", n, seed)
            for alpha, beta in ((1, 1), (2, 1), (1, 2), (2, 3)):

                def run_fairness(alpha=alpha, beta=beta):
                    C, pairs = makeshift_fairness_ab(H, alpha, beta)
                    return [clustering_to_json(H, C), sorted(pairs.pairs), pairs.realized_radius]

                lines.append(line("f", n, seed, alpha, beta, run=run_fairness))
    return lines


class TestThresholdSearchPinned:
    """The balanced k-center and alpha:beta matching searches, and the
    team-formation clusterings built on the first, pinned by digest."""

    def test_search_grid(self):
        lines = _threshold_search_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "fccece684483b51491cbf0f9716e0b1046fef385336b6b5bf4075727371d5e0b",
            656,
        )

    def test_large_k(self):
        # k of 15 to 20, beyond every k of the grid above
        lines = []
        for seed in range(3):
            H = _large_instance("tf", 550, seed)
            X = _experts(H)
            for k in (15, 16, 20):
                for first_seed in (None, seed):
                    for mult in (1, 4):
                        opts = MakeshiftOptions(seed=first_seed, balance_radius_multiplier=mult)
                        centers, assign, r = balanced_kcenter(H, X, k, opts)
                        lines.append(json.dumps(
                            [seed, k, first_seed, mult, centers, sorted(assign.items()), r]
                        ))
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "6e61f6466e358d582267e618f18b4b4c2f28ede49656694ecdd044a299570ff3",
            36,
        )

    def test_flow_sizes(self):
        # the sizes and k of the benchmark's flow tf cells, where the least
        # total assignment places experts with a single center first
        lines = []
        for n in (550, 700, 850):
            for seed in range(5):
                H = _large_instance("tf", n, seed)
                X = _experts(H)
                for k in (5, 10):
                    for first_seed in (None, seed):
                        opts = MakeshiftOptions(seed=first_seed)
                        centers, assign, r = balanced_kcenter(H, X, k, opts)
                        lines.append(json.dumps(
                            [n, seed, k, first_seed, centers, sorted(assign.items()), r]
                        ))
                        objectives = (ObjectiveSpec("tf"), ObjectiveSpec("kc"))
                        spec = ProblemSpec(objectives, SlackVector((1, 3)), k, opts)
                        C, state = zeus_run(H, spec)
                        lines.append(clustering_to_json(H, C))
                        for entry in state.trace:
                            entry = dict(entry)
                            entry.pop("elapsed_ms", None)
                            lines.append(json.dumps(entry, sort_keys=True))
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "4bc43db6376587ef6e8c1ba9fbf6b8bd72efa518faacda076bd36d4d289f831b",
            240,
        )


def _first_feasible_from_zero(values, feasible):
    """Reference: the binary search over all of ``values`` that the
    bottleneck searches ran before they started at a lower bound."""
    lo, hi = 0, len(values)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


@st.composite
def _threshold_problems(draw):
    """Sorted distinct values, the index of the first feasible one (the
    length if none is) and a lower bound at or below that value."""
    values = sorted(set(draw(st.lists(st.integers(0, 40), max_size=20))))
    answer = draw(st.integers(0, len(values)))
    top = values[answer] if answer < len(values) else np.inf
    lower = draw(st.one_of(
        st.sampled_from([-np.inf, *values[: answer + 1]]),
        st.floats(min_value=-5, max_value=top, allow_nan=False),
    ))
    return values, answer, lower


class TestFirstFeasible:
    @settings(max_examples=300, deadline=None)
    @given(_threshold_problems())
    def test_starts_at_the_lower_bound(self, problem):
        values, answer, lower = problem
        threshold = values[answer] if answer < len(values) else np.inf
        asked = []

        def feasible(v):
            asked.append(v)
            return v >= threshold

        linear = next((i for i, v in enumerate(values) if v >= threshold), len(values))
        assert _first_feasible(values, feasible, lower) == linear == answer
        assert all(v >= lower for v in asked)
        if int(np.searchsorted(values, lower)) == answer < len(values):
            assert len(asked) == 1
        asked.clear()
        above = values[-1] + 1 if values else 0
        assert _first_feasible(values, feasible, above) == len(values)
        assert asked == []


def _recorded_searches(monkeypatch):
    """Replace ``_first_feasible`` with a recorder; the list it returns
    fills with (values, feasible, lower, index) per search."""
    searches = []
    search = makeshifts._first_feasible

    def recorder(values, feasible, lower=-np.inf):
        i = search(values, feasible, lower)
        searches.append((values, feasible, lower, i))
        return i

    monkeypatch.setattr(makeshifts, "_first_feasible", recorder)
    return searches


@functools.lru_cache(maxsize=None)
def _large_instance(kind, n, seed):
    return generate_instance(kind, n, seed)


def _experts(H):
    return {u for u in range(H.n) if H.experts[u]}


class TestThresholdSearchReference:
    """Each bottleneck search, started at its lower bound, ends on the
    index of the from-zero search, and the value below each bound fails."""

    @staticmethod
    def _check(searches):
        assert searches
        for values, feasible, lower, i in searches:
            assert lower > -np.inf
            assert i == _first_feasible_from_zero(values, feasible)
            below = int(np.searchsorted(values, lower))
            if below:
                assert not feasible(values[below - 1])

    def test_pinned_grid(self, monkeypatch):
        searches = _recorded_searches(monkeypatch)
        _threshold_search_lines()
        self._check(searches)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_instances(self, seed, monkeypatch):
        searches = _recorded_searches(monkeypatch)
        H = _large_instance("f", 400, seed)
        for alpha, beta in ((1, 1), (2, 1), (1, 2)):
            # 2:1 asks more Purple partners than these instances have
            with contextlib.suppress(InfeasibleError):
                makeshift_fairness_ab(H, alpha, beta)
        H = _large_instance("tf", 550, seed)
        for k in (5, 10):
            balanced_kcenter(H, _experts(H), k, OPTS)
        self._check(searches)
        assert len(searches) == 5

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize(
        "weights",
        [{(0, 0): 1, (0, 1): 2}, {}],
        ids=["blue-without-edge", "no-blue-purple-edge"],
    )
    def test_blue_without_edge(self, weights, alpha, beta, monkeypatch):
        searches = _recorded_searches(monkeypatch)
        H = bp_instance(weights, 2, 2)
        with pytest.raises(InfeasibleError, match="^no Blue-saturating matching exists at any radius$"):
            makeshift_fairness_ab(H, alpha, beta)
        [(values, _, lower, i)] = searches
        assert lower == np.inf
        assert i == len(values)
        self._check(searches)


class TestCsr:
    """``_csr`` equals scipy's COO-to-CSR build on every caller's entries,
    which is what holds them to row-major order."""

    @staticmethod
    def _matches_coo(data, rows, cols, shape):
        import scipy.sparse

        got = _csr(data, rows, cols, shape)
        want = scipy.sparse.csr_matrix((data, (rows, cols)), shape=shape)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
        return got

    @pytest.fixture
    def checked(self, monkeypatch):
        """Check every ``_csr`` call against COO; lists each call's entry count."""
        counts = []

        def checked_csr(data, rows, cols, shape):
            counts.append(len(rows))
            return self._matches_coo(data, rows, cols, shape)

        monkeypatch.setattr(makeshifts, "_csr", checked_csr)
        return counts

    @pytest.mark.parametrize("m, k", [(12, 3), (13, 3), (10, 4)])
    def test_slot_graph(self, m, k, checked, monkeypatch):
        # k dividing m, then dummy rows; every limit from -1, where no
        # expert has a center, up through the largest distance
        H = _large_instance("tf", 60, 0)
        experts = sorted(_experts(H))[:m]
        d = H.dist[np.ix_(experts, experts[:k])]
        graphs = []
        slot_graph = makeshifts._slot_graph

        def recorded(*args):
            graphs.append((args, slot_graph(*args)))
            return graphs[-1][1]

        monkeypatch.setattr(makeshifts, "_slot_graph", recorded)
        for t in [-1.0, *np.unique(d)]:
            _has_balanced_assignment(d, t)
        # the search's test builds no slot graph, and no CSR graph below
        # _HALL_MAX_K centers
        assert graphs == checked == []
        for t in [-1.0, *np.unique(d)]:
            _balanced_assignment(H, experts, experts[:k], limit=t)
        # one CSR graph per slot graph, and each slot graph is the one the
        # loops build from its rows and per-center bounds
        assert checked == [len(rows) for _, (rows, _, _) in graphs]
        for args, graph in graphs:
            assert list(zip(*(a.tolist() for a in graph))) == _slot_graph_by_loops(*args)
            # rows come fewest reachable centers first
            assert (np.diff(args[1].sum(axis=1)) >= 0).all()
        # some limits place experts first and leave centers unequal bounds;
        # unlimited, no expert is placed and the bounds are uniform
        assert any(len(args[0]) < m and len(set(args[3])) > 1 for args, _ in graphs)
        graphs.clear()
        assert _balanced_assignment(H, experts, experts[:k]) is not None
        [((sub, within, low, high), _)] = graphs
        assert np.array_equal(sub, d) and within.all()
        assert low.tolist() == [m // k] * k and high.tolist() == [-(-m // k)] * k

    @pytest.mark.parametrize("m, k", [(30, 15), (37, 16), (45, 20)])
    def test_balanced_flow(self, m, k, checked):
        # every threshold from -1, where only the lower-bound arcs are
        # left, up through the largest distance
        H = _large_instance("tf", 200, 0)
        experts = sorted(_experts(H))[:m]
        d = H.dist[np.ix_(experts, experts[:k])]
        for t in [-1.0, *np.unique(d)]:
            _has_balanced_assignment(d, t)
        assert min(checked) == m + 1 + 2 * k + 2
        assert max(checked) == m + 1 + m * k + 2 * k + 2

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 1), (1, 2)])
    def test_blue_purple(self, alpha, beta, checked):
        # every radius from below the shortest edge, where no edge is kept
        # and Blue rows are left without one, to the longest; 2:1 and 1:2
        # build the max-flow arcs
        H = _large_instance("f", 60, 0)
        bp = _blue_purple(H)
        for r in [-1.0, *np.unique(bp[-1])]:
            _bp_feasible(bp, r, alpha, beta)
        # at r = -1 Hopcroft-Karp gets no edge, and the flow graph only the
        # source and sink arcs
        flow_only = 0 if (alpha, beta) == (1, 1) else len(bp[0]) + len(bp[1])
        assert min(checked) == flow_only
        # the min-cost matching, and the component graph of its pairs
        makeshift_fairness_mincost(H)


def _slot_graph_covers(d, threshold):
    """Reference: the balanced test the search ran before it counted
    experts over center subsets, a Hopcroft-Karp perfect matching on the
    slot graph of the distances at most ``threshold``."""
    m, k = d.shape
    low, high = np.full(k, m // k), np.full(k, -(-m // k))
    rows, cols, _ = makeshifts._slot_graph(d, d <= threshold, low, high)
    return makeshifts._covers_rows(rows, cols, (high.sum(), high.sum()))


def _slot_graph_by_loops(d, within, low, high):
    """Reference: the slot graph's (row, column, weight) entries, built
    slot by slot."""
    m, k = d.shape
    slots, start = [], 0
    for c in range(k):
        slots.append(range(start, start + high[c]))
        start += high[c]
    entries = [
        (i, s, d[i, c]) for i in range(m) for c in range(k) if within[i, c] for s in slots[c]
    ]
    optional = [s for c in range(k) for s in slots[c][low[c]:]]
    return entries + [(r, s, 0.0) for r in range(m, start) for s in optional]


@st.composite
def _balanced_problems(draw):
    """An m x k matrix of integer distances, so with ties, where k is
    small, up to ``_HALL_MAX_K`` or above it, and m is k times 1..3 plus
    0..k-1 (m = k and k dividing m among them). Each distance is 0..top
    plus a shift of 0..2 for its center and one for its expert, so at
    some thresholds a center reaches fewer experts than the floor(m/k) it
    needs, or some experts reach too few centers to hold them."""
    k = draw(st.one_of(
        st.integers(1, 6), st.integers(7, makeshifts._HALL_MAX_K), st.integers(15, 20)
    ))
    m = k * draw(st.integers(1, 3)) + draw(st.one_of(st.just(0), st.integers(0, k - 1)))
    top = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shifts = rng.integers(0, 3, size=k) + rng.integers(0, 3, size=(m, 1))
    return (rng.integers(0, top + 1, size=(m, k)) + shifts).astype(float)


class TestBalancedTestReference:
    @settings(max_examples=150, deadline=None)
    @given(_balanced_problems())
    def test_equals_slot_graph_matching(self, d):
        # from below every distance, where nothing is allowed, to the largest
        for t in [-1.0, *np.unique(d)]:
            assert _has_balanced_assignment(d, t) == _slot_graph_covers(d, t)


class TestSearchWorkPinned:
    """Feasibility tests per bottleneck search, counted: Hopcroft-Karp
    calls for fairness, balanced-assignment tests for team formation.
    With the lower bound most searches need one."""

    def test_covers_rows_calls(self, monkeypatch):
        calls = []
        for name in ("_covers_rows", "_has_balanced_assignment"):
            test = getattr(makeshifts, name)

            def counted(*args, test=test):
                calls.append(1)
                return test(*args)

            monkeypatch.setattr(makeshifts, name, counted)
        per_cell = []
        for kind in ("f", "tf"):
            for seed in range(3):
                for k in (5, 10):
                    calls.clear()
                    if kind == "f":
                        makeshift_fairness_ab(_large_instance("f", 400, seed), 1, 1)
                    else:
                        H = _large_instance("tf", 550, seed)
                        balanced_kcenter(H, _experts(H), k, OPTS)
                    per_cell.append(len(calls))
        assert per_cell == [1, 1, 1, 1, 1, 1, 1, 11, 1, 1, 10, 1]


def _components_by_dfs(nodes, edges):
    """Reference: connected components of ``edges`` over ``nodes``, in DFS
    visiting order."""
    graph = {u: [] for u in nodes}
    for u, v in sorted(edges):
        graph[u].append(v)
        graph[v].append(u)
    comps, seen = [], set()
    for start in nodes:
        if start in seen:
            continue
        comp, stack = [], [start]
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


def _fragments_by_members(H, fragments):
    """Reference: the clustering of (members, root) fragments, blocks by
    lowest member, members assigned in the order given."""
    fragments = sorted(fragments, key=lambda fr: min(fr[0]))
    assign = {u: b for b, (members, _) in enumerate(fragments) for u in members}
    roots = tuple(root for _, root in fragments)
    return Clustering(
        assignment=assign,
        k=len(fragments),
        centers=dict(enumerate(roots)),
        atoms=tuple(tuple(sorted(members)) for members, _ in fragments),
        roots=roots,
    )


def _atom_tuples(C_in, n):
    """Reference: the atoms and roots of ``C_in`` as tuples, or singletons
    if it has none."""
    if C_in.atoms:
        return C_in.atoms, C_in.roots
    return tuple((u,) for u in range(n)), tuple(range(n))


def _rep_view_by_sets(H, C_in):
    """Reference: the reps, the reps each is joined to through E, and each
    one's atom, from per-node neighbour sets."""
    atoms, roots = _atom_tuples(C_in, H.n)
    rep_of = {u: root for atom, root in zip(atoms, roots) for u in atom}
    atom_of = dict(zip(roots, atoms))
    nbrs = {r: {rep_of[v] for u in atom for v in neighbours(H, u)} - {r} for r, atom in atom_of.items()}
    return sorted(atom_of), nbrs, atom_of


def _rs_by_dfs(H, C_in):
    """Reference: the edge cover of each rep's nearest neighbour rep, with
    redundant edges dropped, and stars found by a DFS."""
    reps, adjacency, atom_of = _rep_view_by_sets(H, C_in)
    cover = set()
    for u in reps:
        if not adjacency[u]:
            raise InfeasibleError(f"node {H.labels[u]} has no E-neighbor; no edge cover exists")
        v = min(adjacency[u], key=lambda w: (H.dist[u, w], w))
        cover.add((min(u, v), max(u, v)))
    degree = {u: 0 for u in reps}
    for u, v in cover:
        degree[u] += 1
        degree[v] += 1
    for u, v in sorted(cover, key=lambda e: (-H.dist[e[0], e[1]], e)):
        if degree[u] > 1 and degree[v] > 1:
            cover.discard((u, v))
            degree[u] -= 1
            degree[v] -= 1
    fragments = []
    for comp in _components_by_dfs(reps, cover):
        hubs = [u for u in comp if degree[u] >= 2]
        fragments.append(([x for u in comp for x in atom_of[u]], hubs[0] if hubs else min(comp)))
    radius = max(float(H.dist[u, v]) for u, v in cover)
    return _fragments_by_members(H, fragments), PairStructure(frozenset(cover), radius)


def _rs_gamma_by_dfs(H, C_in, gamma):
    """Reference: each rep's gamma nearest neighbour reps by a keyed sort,
    and the blocks by a DFS."""
    reps, adjacency, atom_of = _rep_view_by_sets(H, C_in)
    for u in reps:
        if len(adjacency[u]) < gamma:
            raise InfeasibleError(f"node {H.labels[u]} has E-degree {len(adjacency[u])} < gamma={gamma}")
    cover = {
        (min(u, v), max(u, v))
        for u in reps
        for v in sorted(adjacency[u], key=lambda w: (H.dist[u, w], w))[:gamma]
    }
    fragments = [([x for u in comp for x in atom_of[u]], min(comp)) for comp in _components_by_dfs(reps, cover)]
    radius = max(float(H.dist[u, v]) for u, v in cover)
    return _fragments_by_members(H, fragments), PairStructure(frozenset(cover), radius)


def _blue_purple_by_mask(H):
    """Reference: the Blue-Purple E-edges from a dense Blue x Purple mask
    filled per Blue node."""
    blue = np.flatnonzero([c == "B" for c in H.colors])
    purple = np.flatnonzero([c == "P" for c in H.colors])
    if not blue.size:
        raise DegenerateInputError("fairness requires at least one Blue node")
    position = np.full(H.n, -1)
    position[purple] = np.arange(len(purple))
    in_e = np.zeros((len(blue), len(purple)), dtype=bool)
    for i, u in enumerate(blue.tolist()):
        cols = position[sorted(neighbours(H, u))]
        in_e[i, cols[cols >= 0]] = True
    rows, cols = np.nonzero(in_e)
    return blue, purple, rows, cols, H.dist[blue[rows], purple[cols]]


def _pair_fragments_by_dfs(H, blue, purple):
    """Reference: the blocks of the matched pairs (blue[i], purple[i]) by a
    DFS over all nodes."""
    matched = {(min(u, v), max(u, v)) for u, v in zip(blue.tolist(), purple.tolist())}
    fragments = [(comp, min(comp)) for comp in _components_by_dfs(range(H.n), matched)]
    radius = max((float(H.dist[u, v]) for u, v in matched), default=0.0)
    return _fragments_by_members(H, fragments), PairStructure(frozenset(matched), radius)


def _outcome(make, *args):
    """A makeshift's clustering and pairs, or the class and text of its error."""
    try:
        return make(*args)
    except ZeusError as exc:
        return type(exc), str(exc)


class TestEdgeWalkReference:
    """The ``rs``, gamma-cover and fairness makeshifts on the edge array
    give the clusterings, pairs and errors of the per-node walks and DFS
    they replaced."""

    @staticmethod
    def _same(H, got, want):
        if isinstance(want[0], type):  # an error
            assert got == want
            return
        (C, pairs), (R, ref_pairs) = got, want
        assert clustering_to_json(H, C) == clustering_to_json(H, R)
        assert (C.assignment, C.atoms, C.roots, C.centers) == (R.assignment, R.atoms, R.roots, R.centers)
        assert pairs == ref_pairs

    @staticmethod
    def _priors(H, kind):
        """Singletons, and the atoms of the kind's own makeshift as a kc, km
        or f stage passes them on."""
        none = singleton_clustering(H.n)
        base = makeshift_rs(H, none)[0] if kind == "rs" else makeshift_fairness_ab(H, 1, 1)[0]
        k = min(3, len(base.atoms))
        priors = [none, makeshift_kcenter(H, base, k, OPTS)[0], makeshift_kmedian(H, base, k, OPTS)]
        return priors + ([base] if kind == "f" else [])

    @pytest.mark.parametrize("kind", ["rs", "f"])
    @pytest.mark.parametrize("n", [12, 60, 300])
    @pytest.mark.parametrize("seed", range(3))
    def test_rs_and_gamma(self, kind, n, seed):
        H = generate_instance(kind, n, seed)
        for C_in in self._priors(H, kind):
            self._same(H, _outcome(makeshift_rs, H, C_in), _outcome(_rs_by_dfs, H, C_in))
            for gamma in (1, 2, 3):
                want = _outcome(_rs_gamma_by_dfs, H, C_in, gamma)
                self._same(H, _outcome(makeshift_rs_gamma, H, C_in, gamma), want)

    @pytest.mark.parametrize("seed", range(3))
    def test_rs_and_gamma_on_ties(self, seed):
        # lattice points with repeats, so many neighbours tie on distance
        rng = random.Random(seed)
        m = _lattice(4, 30, seed).dist
        edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.3]
        H = explicit(m, edges=edges)
        for C_in in self._priors(H, "rs"):
            self._same(H, _outcome(makeshift_rs, H, C_in), _outcome(_rs_by_dfs, H, C_in))
            for gamma in (1, 2, 3):
                want = _outcome(_rs_gamma_by_dfs, H, C_in, gamma)
                self._same(H, _outcome(makeshift_rs_gamma, H, C_in, gamma), want)

    @pytest.mark.parametrize("kind", ["rs", "f"])
    @pytest.mark.parametrize("n", [12, 60, 300])
    @pytest.mark.parametrize("seed", range(3))
    def test_fairness(self, kind, n, seed, monkeypatch):
        H = generate_instance(kind, n, seed)
        got_bp, want_bp = _outcome(_blue_purple, H), _outcome(_blue_purple_by_mask, H)
        if isinstance(want_bp[0], type):
            assert got_bp == want_bp
        else:
            for got, want in zip(got_bp, want_bp):
                assert np.array_equal(got, want)
        cells = [(makeshift_fairness_ab, H, a, b) for a, b in ((1, 1), (2, 1), (1, 2), (2, 3))]
        cells.append((makeshift_fairness_mincost, H))
        got = [_outcome(*cell) for cell in cells]
        with monkeypatch.context() as m:
            m.setattr(makeshifts, "_blue_purple", _blue_purple_by_mask)
            m.setattr(makeshifts, "_pair_fragments", _pair_fragments_by_dfs)
            want = [_outcome(*cell) for cell in cells]
        for g, w in zip(got, want):
            self._same(H, g, w)
        if kind == "f":
            assert not isinstance(want[0][0], type)  # the 1:1 matching exists

    def test_errors_at_the_first_rep(self):
        # node 3 has no edge, and nodes 1 and 3 one edge each
        H = line_points([0, 1, 2, 3], edges=[(0, 1), (0, 2)])
        none = singleton_clustering(4)
        self._same(H, _outcome(makeshift_rs, H, none), _outcome(_rs_by_dfs, H, none))
        for gamma in (1, 2, 3):
            want = _outcome(_rs_gamma_by_dfs, H, none, gamma)
            assert isinstance(want[0], type)
            self._same(H, _outcome(makeshift_rs_gamma, H, none, gamma), want)


def _nearest_pairs_by_sets(H, C_in, gamma):
    """Reference: each rep's gamma nearest neighbour reps, by distance then
    id, as a set of (lower, higher) tuples."""
    atoms, roots = _atom_tuples(C_in, H.n)
    rep_of = np.empty(H.n, dtype=np.int64)
    for atom, root in zip(atoms, roots):
        rep_of[list(atom)] = root
    u, v = rep_of[H.edges].T
    u, v = u[u != v], v[u != v]
    rep, nbr = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((nbr, H.dist[rep, nbr], rep))
    rep, nbr = rep[order], nbr[order]
    new = np.ones(len(rep), dtype=bool)
    new[1:] = (rep[1:] != rep[:-1]) | (nbr[1:] != nbr[:-1])
    rep, nbr = rep[new], nbr[new]
    first = np.searchsorted(rep, rep)
    keep = np.arange(len(rep)) - first < gamma
    u, v = rep[keep], nbr[keep]
    return set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def _set_pairs(H, pairs):
    """Reference: the E' record of a set of pairs, its radius by a
    generator over them."""
    return PairStructure(frozenset(pairs), max((float(H.dist[u, v]) for u, v in pairs), default=0.0))


def _rs_pairs_by_sets(H, C_in):
    """Reference: the rs cover as a set, its drop loop over a keyed sort."""
    cover = _nearest_pairs_by_sets(H, C_in, 1)
    degree = [0] * H.n
    for u, v in cover:
        degree[u] += 1
        degree[v] += 1
    for u, v in sorted(cover, key=lambda e: (-H.dist[e[0], e[1]], e)):
        if degree[u] > 1 and degree[v] > 1:
            cover.discard((u, v))
            degree[u] -= 1
            degree[v] -= 1
    return _set_pairs(H, cover)


def _fairness_pairs_by_sets(H, alpha, beta):
    """Reference: the bottleneck alpha:beta b-matching as a set of pairs."""
    bp = makeshifts._blue_purple(H)
    blue, purple, rows, cols, weights = bp
    radii = np.unique(weights)
    i = _first_feasible(radii, lambda r: _bp_feasible(bp, r, alpha, beta))
    keep = weights <= radii[i]
    result, tails, heads = makeshifts._bp_flow(bp, keep, alpha, beta)
    used = np.asarray(result.flow[tails, heads]).ravel() > 0
    us, vs = blue[rows[keep][used]], purple[cols[keep][used]]
    return _set_pairs(H, {(min(u, v), max(u, v)) for u, v in zip(us.tolist(), vs.tolist())})


def _mincost_pairs_by_sets(H):
    """Reference: the min-cost matching as a set of pairs."""
    blue, purple, rows, cols, weights = makeshifts._blue_purple(H)
    col_of = makeshifts._min_weight_matching(rows, cols, weights, (len(blue), len(purple)))
    return _set_pairs(
        H, {(min(u, v), max(u, v)) for u, v in zip(blue.tolist(), purple[col_of].tolist())}
    )


def _tie_lattice(seed):
    """Lattice points with repeats, a random E and random colors, so that
    many pairs tie on distance."""
    rng = random.Random(seed)
    m = _lattice(4, 30, seed).dist
    edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.3]
    colors = [rng.choice("BPP") for _ in range(30)]
    return explicit(m, edges=edges, colors=colors)


def _pairs_or_none(make, *args):
    """A makeshift's pairs, or None if it raises."""
    try:
        return make(*args)[1]
    except ZeusError:
        return None


class TestPairArraysReference:
    """Every E' producer gives the pairs and radius, bit for bit, of the
    set-of-tuples code it replaced."""

    @staticmethod
    def _cases(H):
        """(producer, its pairs or None, the reference's pairs) for each producer."""
        for C_in in TestEdgeWalkReference._priors(H, "rs"):
            yield "rs", _pairs_or_none(makeshift_rs, H, C_in), lambda: _rs_pairs_by_sets(H, C_in)
            yield "rs2", _pairs_or_none(makeshift_rs_gamma, H, C_in, 2), lambda: _set_pairs(
                H, _nearest_pairs_by_sets(H, C_in, 2)
            )
        for alpha, beta in ((1, 1), (2, 1)):
            got = _pairs_or_none(makeshift_fairness_ab, H, alpha, beta)
            yield f"f{alpha}{beta}", got, lambda: _fairness_pairs_by_sets(H, alpha, beta)
        yield "fmin", _pairs_or_none(makeshift_fairness_mincost, H), lambda: _mincost_pairs_by_sets(H)

    def test_instances_and_tie_lattices(self):
        instances = [generate_instance(kind, n, seed) for kind in ("rs", "f") for n in (12, 60, 300) for seed in range(3)]
        checked = {}
        for H in instances + [_tie_lattice(seed) for seed in range(12)]:
            for name, got, reference in self._cases(H):
                if got is None:
                    continue
                want = reference()
                assert got == want and repr(got.realized_radius) == repr(want.realized_radius)
                checked[name] = checked.get(name, 0) + 1
        assert sorted(checked) == ["f11", "f21", "fmin", "rs", "rs2"]
        assert min(checked.values()) >= 3
