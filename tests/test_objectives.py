import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit, line_points, neighbours
from zeus_cluster.errors import ConfigError, DegenerateInputError
from zeus_cluster.graph import make_instance
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    OptimalEstimate,
    PairStructure,
    SlackVector,
    eval_fairness,
    eval_kcenter,
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


def _rs_by_dict_loop(H, C):
    """Reference: the per-node loop over E-neighbours that
    ``eval_resource_sharing`` ran before it worked on the edge array."""
    covered = 0
    for u in C.assignment:
        b = C.assignment[u]
        if any(C.assignment.get(v) == b for v in neighbours(H, u)):
            covered += 1
    return covered / max(1, len(C.assignment))


@st.composite
def _rs_problems(draw):
    """An instance on 1..12 nodes with any edge set, and an assignment of
    any subset of its nodes, the empty one included, to k blocks."""
    n = draw(st.integers(1, 12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    k = draw(st.integers(1, 4))
    nodes = draw(st.sets(st.integers(0, n - 1)))
    assignment = {u: draw(st.integers(0, k - 1)) for u in sorted(nodes)}
    return line_points(range(n), edges=edges), assignment, k


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
    @given(_rs_problems())
    def test_matches_dict_loop(self, problem):
        H, assignment, k = problem
        C = Clustering(assignment, k)
        assert eval_resource_sharing(H, C) == _rs_by_dict_loop(H, C)


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
