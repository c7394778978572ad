import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import explicit, line_points, neighbours
from zeus_cluster.errors import ConfigError, DegenerateInputError, ZeusError
from zeus_cluster.graph import BLUE, make_instance
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    OptimalEstimate,
    PairStructure,
    SlackVector,
    blue_partners,
    eval_fairness,
    eval_kcenter,
    eval_kmedian,
    eval_resource_sharing,
    eval_team_formation,
    evaluate,
    lex_better,
    singleton_clustering,
    slack_violated,
)
from zeus_cluster.zeus import KMEDIAN_FACTOR, estimate_optimal


def pairs(*ps):
    return PairStructure(
        pairs=frozenset((min(a, b), max(a, b)) for a, b in ps),
        realized_radius=0.0,
    )


class TestKCenter:
    def test_coincident_centers_zero(self):
        H = explicit([[0, 0], [0, 0]])
        C = Clustering({0: 0, 1: 1}, 2, centers={0: 0, 1: 1})
        assert eval_kcenter(H, C) == 0.0

    def test_line_two_blocks(self):
        H = line_points([0, 4, 5])
        C = Clustering({0: 0, 1: 1, 2: 1}, 2, centers={0: 0, 1: 2})
        assert eval_kcenter(H, C) == 1.0

    def test_single_block_farthest(self):
        H = line_points([0, 3, 67])
        C = Clustering({0: 0, 1: 0, 2: 0}, 1, centers={0: 0})
        assert eval_kcenter(H, C) == 67.0

    def test_missing_centers_raises(self):
        H = line_points([0, 1])
        with pytest.raises(Exception):
            eval_kcenter(H, Clustering({0: 0, 1: 0}, 1))


def _kc_by_dict_loop(H, C):
    worst = 0.0
    for u, b in C.assignment.items():
        worst = max(worst, H.dist[u, C.centers[b]])
    return float(worst)


def _km_by_dict_loop(H, C):
    # np.float64 terms, added left to right in key order on every Python
    return float(sum(H.dist[u, C.centers[b]] for u, b in C.assignment.items()))


def _rs_by_dict_loop(H, C):
    covered = 0
    for u in C.assignment:
        b = C.assignment[u]
        if any(C.assignment.get(v) == b for v in neighbours(H, u)):
            covered += 1
    return covered / max(1, len(C.assignment))


def _f_by_dict_loop(H, C, matched):
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    partner = blue_partners(H, matched)
    happy = sum(
        1
        for u in blue
        if u in partner
        and u in C.assignment
        and C.assignment.get(partner[u]) == C.assignment[u]
    )
    return happy / len(blue)


def _tf_by_dict_loop(H, C):
    counts = [0] * C.k
    for u in range(H.n):
        if H.experts[u] and u in C.assignment:
            counts[C.assignment[u]] += 1
    if min(counts) == 0:
        return math.inf
    return max(counts) / min(counts)


def _blocks_by_dict_loop(C):
    out = [[] for _ in range(C.k)]
    for u in sorted(C.assignment):
        out[C.assignment[u]].append(u)
    return out


@st.composite
def _problems(draw):
    """An instance on 1..12 nodes at integer points of the plane, so that
    its distances are square roots whose sums depend on their order, with
    any edge set, colors and experts; an assignment of any subset of its
    nodes, the empty one included, in any key order, to k blocks, each
    centered at any node; and any set of matched pairs."""
    n = draw(st.integers(1, 12))
    points = st.tuples(st.integers(0, 9), st.integers(0, 9))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    some_pairs = st.lists(st.sampled_from(all_pairs), unique=True) if all_pairs else st.just([])
    H = make_instance(
        n,
        "euclidean",
        embeddings=draw(st.lists(points, min_size=n, max_size=n)),
        edges=draw(some_pairs),
        colors=draw(st.lists(st.sampled_from(["B", "P", None]), min_size=n, max_size=n)),
        experts=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )
    k = draw(st.integers(1, 4))
    nodes = draw(st.permutations(sorted(draw(st.sets(st.integers(0, n - 1))))))
    C = Clustering(
        {u: draw(st.integers(0, k - 1)) for u in nodes},
        k,
        centers={b: draw(st.integers(0, n - 1)) for b in range(k)},
    )
    return H, C, pairs(*draw(some_pairs))


# Blue node 0 is matched to node 1; neither is assigned
_UNASSIGNED_PAIR = explicit(np.ones((3, 3)) - np.eye(3), colors=["B", "P", "B"])


class TestResourceSharing:
    def test_complete_graph_one_cluster(self):
        H = line_points([0, 1, 2])
        C = Clustering({0: 0, 1: 0, 2: 0}, 1)
        assert eval_resource_sharing(H, C) == 1.0

    def test_singletons_zero(self):
        H = line_points([0, 1, 2])
        assert eval_resource_sharing(H, singleton_clustering(3)) == 0.0

    def test_triangle_partial(self, triangle):
        C = Clustering({0: 0, 1: 0, 2: 1}, 2)
        assert eval_resource_sharing(triangle, C) == pytest.approx(2 / 3)

    @settings(max_examples=300, deadline=None)
    @given(_problems())
    @example((_UNASSIGNED_PAIR, Clustering({}, 1, centers={0: 0}), pairs((0, 1))))
    @example((_UNASSIGNED_PAIR, Clustering({2: 0}, 1, centers={0: 0}), pairs((0, 1))))
    def test_matches_dict_loop(self, problem):
        """All five evaluators and ``blocks`` equal the per-node dict loops
        they replaced, with fairness never counting an unassigned Blue node."""
        H, C, matched = problem
        assert eval_kcenter(H, C) == _kc_by_dict_loop(H, C)
        assert eval_kmedian(H, C) == _km_by_dict_loop(H, C)
        assert eval_resource_sharing(H, C) == _rs_by_dict_loop(H, C)
        if BLUE in H.colors:
            assert eval_fairness(H, C, matched) == _f_by_dict_loop(H, C, matched)
        else:
            with pytest.raises(DegenerateInputError):
                eval_fairness(H, C, matched)
        if any(H.experts):
            assert eval_team_formation(H, C) == _tf_by_dict_loop(H, C)
        else:
            with pytest.raises(DegenerateInputError):
                eval_team_formation(H, C)
        assert C.blocks() == _blocks_by_dict_loop(C)


class TestFairness:
    def make(self):
        return make_instance(
            4,
            "explicit",
            matrix=[[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
            colors=["B", "B", "P", "P"],
        )

    def test_all_pairs_home(self):
        H = self.make()
        C = Clustering({0: 0, 2: 0, 1: 1, 3: 1}, 2)
        assert eval_fairness(H, C, pairs((0, 2), (1, 3))) == 1.0

    def test_no_pair_home(self):
        H = self.make()
        C = Clustering({0: 0, 1: 0, 2: 1, 3: 1}, 2)
        assert eval_fairness(H, C, pairs((0, 2), (1, 3))) == 0.0

    def test_half(self):
        H = self.make()
        C = Clustering({0: 0, 2: 0, 1: 1, 3: 0}, 2)
        assert eval_fairness(H, C, pairs((0, 2), (1, 3))) == 0.5

    @pytest.mark.parametrize("assignment", [{}, {2: 0}])
    def test_unassigned_blue_never_happy(self, assignment):
        C = Clustering(assignment, 1)
        assert eval_fairness(_UNASSIGNED_PAIR, C, pairs((0, 1))) == 0.0

    def test_no_blue_raises(self):
        H = make_instance(
            2, "explicit", matrix=[[0, 1], [1, 0]], colors=["P", "P"]
        )
        with pytest.raises(DegenerateInputError):
            eval_fairness(H, Clustering({0: 0, 1: 0}, 1), pairs())


class TestTeamFormation:
    def test_balanced(self):
        H = line_points([0, 1, 2, 3], experts=[True] * 4)
        C = Clustering({0: 0, 1: 0, 2: 1, 3: 1}, 2)
        assert eval_team_formation(H, C) == 1.0

    def test_ratio_three(self):
        H = line_points([0, 1, 2, 3], experts=[True] * 4)
        C = Clustering({0: 0, 1: 0, 2: 0, 3: 1}, 2)
        assert eval_team_formation(H, C) == 3.0

    def test_zero_expert_block_infinite(self):
        H = line_points([0, 1, 2], experts=[True, True, False])
        C = Clustering({0: 0, 1: 0, 2: 1}, 2)
        assert math.isinf(eval_team_formation(H, C))

    def test_empty_expert_set_raises(self):
        H = line_points([0, 1])
        with pytest.raises(DegenerateInputError):
            eval_team_formation(H, Clustering({0: 0, 1: 0}, 1))


class TestLexCompare:
    def test_second_objective_decides(self):
        O = [ObjectiveSpec("rs"), ObjectiveSpec("f")]
        assert lex_better((5, 4), (5, 3), O)
        assert not lex_better((5, 3), (5, 4), O)

    def test_equal(self):
        O = [ObjectiveSpec("rs"), ObjectiveSpec("kc")]
        assert not lex_better((0.5, 2.0), (0.5, 2.0), O)

    def test_first_objective_dominates(self):
        O = [ObjectiveSpec("rs"), ObjectiveSpec("kc")]
        assert lex_better((0.9, 10.0), (0.8, 2.0), O)
        assert not lex_better((0.8, 2.0), (0.9, 10.0), O)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 10, allow_nan=False)
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_strict_weak_order(self, tuples):
        O = [ObjectiveSpec("rs"), ObjectiveSpec("kc")]
        a, b, c = tuples
        # asymmetry
        for x, y in [(a, b), (b, c), (a, c)]:
            assert not (lex_better(x, y, O) and lex_better(y, x, O))
        # transitivity of superiority
        if lex_better(a, b, O) and lex_better(b, c, O):
            assert lex_better(a, c, O)


class TestSlack:
    KC, RS = ObjectiveSpec("kc"), ObjectiveSpec("rs")

    def test_minimize_boundary_not_violated(self):
        est = OptimalEstimate("lower_bound", 2.0)
        assert not slack_violated(6.0, self.KC, 3.0, est)

    def test_minimize_violated(self):
        est = OptimalEstimate("lower_bound", 2.0)
        assert slack_violated(6.1, self.KC, 3.0, est)

    def test_maximize_boundary_not_violated(self):
        est = OptimalEstimate("exact", 1.0)
        assert not slack_violated(0.5, self.RS, 0.5, est)

    def test_maximize_violated(self):
        est = OptimalEstimate("exact", 1.0)
        assert slack_violated(0.4, self.RS, 0.5, est)

    def test_mismatched_bound_kind(self):
        with pytest.raises(ConfigError):
            slack_violated(1.0, self.RS, 1.0, OptimalEstimate("lower_bound", 1.0))

    def test_slack_vector_feasibility(self):
        O = (ObjectiveSpec("rs"), ObjectiveSpec("kc"))
        SlackVector((1.0, 3.0)).validate(O)
        with pytest.raises(ConfigError):
            SlackVector((1.5, 3.0)).validate(O)
        with pytest.raises(ConfigError):
            SlackVector((1.0, 1.5)).validate(O)
        # override admits the infeasible configuration
        SlackVector((1.5, 1.5)).validate(O, allow_infeasible=True)

    def test_nan_slack_rejected(self):
        O = (ObjectiveSpec("rs"), ObjectiveSpec("kc"))
        for allow in (False, True):
            with pytest.raises(ConfigError):
                SlackVector((1.0, math.nan)).validate(O, allow_infeasible=allow)

    def test_slack_length_mismatch(self):
        with pytest.raises(ConfigError):
            SlackVector((1.0,)).validate((ObjectiveSpec("rs"), ObjectiveSpec("kc")))


class TestEstimateOptimal:
    def test_kcenter_halves_greedy(self):
        H = line_points([0, 8])
        est = estimate_optimal(H, ObjectiveSpec("kc"), 8.0, 1, [0])
        assert est.kind == "lower_bound"
        assert est.value == pytest.approx(4.0)

    def test_rs_exact_from_makeshift(self):
        H = line_points([0, 1])
        est = estimate_optimal(H, ObjectiveSpec("rs"), 0.95, 1, None)
        assert est == OptimalEstimate("exact", 0.95)

    def test_kmedian_divides_swap_value(self):
        H = line_points([0, 1])
        est = estimate_optimal(H, ObjectiveSpec("km"), 10.0, 1, None)
        assert est == OptimalEstimate("lower_bound", 10.0 / KMEDIAN_FACTOR)

    def test_tf_pigeonhole(self):
        H = line_points(range(12), experts=[True] * 10 + [False, False])
        est = estimate_optimal(H, ObjectiveSpec("tf"), 1.0, 3, None)
        assert est.value == pytest.approx(4 / 3)

    def test_tf_degenerate_raises(self):
        H = line_points([0, 1, 2], experts=[True, False, False])
        with pytest.raises(DegenerateInputError):
            estimate_optimal(H, ObjectiveSpec("tf"), 1.0, 2, None)


@pytest.mark.parametrize(
    "kind, field", [("rs", "gamma"), ("f", "alpha"), ("f", "beta")]
)
@pytest.mark.parametrize("bad", [0, -3])
def test_multiplicity_below_one_rejected(kind, field, bad):
    with pytest.raises(ConfigError, match=field):
        ObjectiveSpec(kind, **{field: bad})


def test_evaluation_is_pure(triangle):
    C = Clustering({0: 0, 1: 0, 2: 1}, 2)
    o = ObjectiveSpec("rs")
    assert evaluate(triangle, C, o) == evaluate(triangle, C, o)


def test_clustering_invariants_enforced():
    with pytest.raises(Exception):
        Clustering({0: 0, 1: 1}, 2, centers={0: 1}).validate(2)
    with pytest.raises(Exception):
        Clustering({0: 0, 1: 1}, 3).validate(2)  # empty block
    Clustering({0: 0, 1: 1}, 2, centers={0: 0, 1: 1}).validate(2)


def _validate_by_loop(C, n):
    """Reference: ``Clustering.validate`` as a walk over the assignment
    dict and the atoms."""
    if sorted(C.assignment) != list(range(n)):
        raise ZeusError("assignment does not cover all nodes exactly once")
    if any(not b for b in _blocks_by_dict_loop(C)):
        raise ZeusError("finalized clustering has an empty block")
    if C.centers is not None:
        for b, c in C.centers.items():
            if C.assignment.get(c) != b:
                raise ZeusError(f"center {c} not inside its block {b}")
    if len(C.atoms) != len(C.roots):
        raise ZeusError("atoms/roots length mismatch")
    for atom, root in zip(C.atoms, C.roots):
        if root not in atom:
            raise ZeusError(f"root {root} outside its atom {atom}")
        blocks_hit = {C.assignment[u] for u in atom}
        if len(blocks_hit) > 1:
            raise ZeusError(f"atom {atom} spans blocks {sorted(blocks_hit)}")


def _failure(check):
    try:
        check()
    except ZeusError as exc:
        return str(exc)
    return None


@st.composite
def _clusterings(draw):
    """A node count, and a clustering of at most that many nodes into
    blocks 0..k-1, with any centers and any atoms and roots."""
    n = draw(st.integers(1, 8))
    nodes = st.integers(0, n - 1)
    k = draw(st.integers(1, 3))
    covered = draw(st.one_of(st.just(set(range(n))), st.sets(nodes)))
    assignment = {u: draw(st.integers(0, k - 1)) for u in draw(st.permutations(sorted(covered)))}
    centers = draw(st.none() | st.dictionaries(st.integers(0, k - 1), nodes))
    atoms = draw(st.lists(st.lists(nodes, min_size=1, max_size=3, unique=True).map(tuple), max_size=4))
    # a root for each atom, mostly one of its members, and rarely one too many
    roots = [draw(st.sampled_from(a) | nodes) for a in atoms]
    roots += [0] * (draw(st.integers(0, 5)) == 0)
    return n, Clustering(assignment, k, centers, tuple(atoms), tuple(roots))


@settings(max_examples=400, deadline=None)
@given(_clusterings())
def test_validate_matches_loop(problem):
    n, C = problem
    assert _failure(lambda: C.validate(n)) == _failure(lambda: _validate_by_loop(C, n))
