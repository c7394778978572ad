import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import explicit, line_points, neighbours
from zeus_cluster.baselines import baseline_b1, baseline_b2, baseline_moc_path
from zeus_cluster.errors import ConfigError, DegenerateInputError, InfeasibleError, ZeusError
from zeus_cluster.graph import BLUE, PURPLE, make_instance
from zeus_cluster.makeshifts import (
    MakeshiftOptions,
    makeshift_fairness_ab,
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
    pair_structure,
    singleton_clustering,
    slack_violated,
)
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import KMEDIAN_FACTOR, ProblemSpec, estimate_optimal


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
    return math.fsum(float(H.dist[u, C.centers[b]]) for u, b in C.assignment.items())


def _rs_by_dict_loop(H, C):
    covered = 0
    for u in C.assignment:
        b = C.assignment[u]
        if any(C.assignment.get(v) == b for v in neighbours(H, u)):
            covered += 1
    return covered / max(1, len(C.assignment))


def _lowest_partners(H, matched):
    """Each Blue node's lowest-id Purple partner among the pairs, by a loop."""
    partner = {}
    for u, v in matched.pairs:
        for b, p in ((u, v), (v, u)):
            if H.colors[b] == BLUE and H.colors[p] == PURPLE:
                partner[b] = min(p, partner.get(b, p))
    return partner


def _f_by_dict_loop(H, C, matched):
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    partner = _lowest_partners(H, matched)
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
def _problems(draw, coordinate=st.integers(0, 9)):
    """An instance on 1..12 nodes at points of the plane, by default
    integer points, so that its distances are square roots whose sums
    depend on their order, with any edge set, colors and experts; an
    assignment of any subset of its nodes, the empty one included, in any
    key order, to k blocks, each centered at any node; and any set of
    matched pairs."""
    n = draw(st.integers(1, 12))
    points = st.tuples(coordinate, coordinate)
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


def _evaluations(H, C, matched):
    """Each evaluator's value as exact hex digits, or its error's name."""
    out = []
    for evaluator in (
        eval_kcenter,
        eval_kmedian,
        eval_resource_sharing,
        lambda H, C: eval_fairness(H, C, matched),
        eval_team_formation,
    ):
        try:
            out.append(float.hex(evaluator(H, C)))
        except DegenerateInputError as exc:
            out.append(type(exc).__name__)
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_problems(), _problems(st.floats(0, 1, allow_subnormal=False))),
    st.data(),
)
def test_key_order_does_not_change_values(problem, data):
    """Every evaluator gives bit-identical values however the assignment's
    keys are ordered, on lattice points and on random points."""
    H, C, matched = problem
    items = data.draw(st.permutations(list(C.assignment.items())))
    shuffled = Clustering(dict(items), C.k, C.centers)
    assert _evaluations(H, shuffled, matched) == _evaluations(H, C, matched)


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


    def test_lowest_partner_counts(self):
        # Blue node 0 is matched to Purple nodes 3 and 2: only 2 counts
        H = self.make()
        matched = pairs((0, 3), (2, 0), (1, 3))
        assert [a.tolist() for a in blue_partners(H, matched)] == [[0, 1], [2, 3]]
        assert eval_fairness(H, Clustering({0: 0, 3: 0, 1: 0, 2: 1}, 2), matched) == 0.5
        assert eval_fairness(H, Clustering({0: 0, 2: 0, 1: 1, 3: 1}, 2), matched) == 1.0

    def test_replaced_pairs_give_their_own_partners(self):
        H = self.make()
        matched = pairs((0, 3), (1, 2))
        assert [a.tolist() for a in blue_partners(H, matched)] == [[0, 1], [3, 2]]
        swapped = dataclasses.replace(matched, pairs=frozenset({(0, 2), (1, 3)}))
        assert [a.tolist() for a in blue_partners(H, swapped)] == [[0, 1], [2, 3]]
        assert matched.rows.tolist() == [[0, 3], [1, 2]]

    def test_pair_structure_record_starts_with_its_rows(self):
        # the record reads the rows pair_structure built, read-only; one
        # replaced from it builds its own from its pairs
        H = self.make()
        rows, matched = pair_structure(H, np.array([3, 1]), np.array([0, 2]))
        assert matched.rows is rows and not rows.flags.writeable
        assert rows.tolist() == PairStructure(matched.pairs, 0.0).rows.tolist() == [[0, 3], [1, 2]]
        swapped = dataclasses.replace(matched, pairs=frozenset({(0, 2), (1, 3)}))
        assert swapped.rows.tolist() == [[0, 2], [1, 3]]
        assert [a.tolist() for a in blue_partners(H, swapped)] == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_baselines_match_lowest_partner_loop(self, alpha):
        """On B2 and MOC clusterings, with alpha:(alpha + 1) b-matchings,
        eval_fairness equals the per-Blue loop with the lowest-partner rule."""
        cases = split = 0
        for n in (12, 20, 40):
            for seed in range(10):
                H = generate_instance("f", n, seed)
                try:
                    matched = makeshift_fairness_ab(H, alpha, alpha + 1)[1]
                except InfeasibleError:
                    continue
                objectives = (ObjectiveSpec("f", alpha=alpha, beta=alpha + 1), ObjectiveSpec("kc"))
                ks = range(2, 6)
                found = list(baseline_moc_path(H, objectives, ks, matched).values())
                found += [baseline_b2(H, k, MakeshiftOptions()) for k in ks]
                for C in found:
                    assert eval_fairness(H, C, matched) == _f_by_dict_loop(H, C, matched)
                    # a Blue node whose partners lie in different blocks,
                    # where the rule decides
                    blocks = {}
                    for u, v in matched.pairs:
                        b = u if H.colors[u] == BLUE else v
                        blocks.setdefault(b, set()).add(C.assignment[u + v - b])
                    split += any(len(x) > 1 for x in blocks.values())
                cases += 1
        assert cases >= 5
        assert (split > 0) == (alpha > 1)


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
@pytest.mark.parametrize("bad", [0, -3, 1.5, True, "2"])
def test_multiplicity_below_one_rejected(kind, field, bad):
    """Only integers of at least 1 pass, not floats, bools or strings."""
    with pytest.raises(ConfigError, match=field):
        ObjectiveSpec(kind, **{field: bad})


def test_numpy_integer_multiplicity_accepted():
    assert ObjectiveSpec("rs", gamma=np.int64(2)).gamma == 2


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


@pytest.mark.parametrize("centers", [{0: 0}, {0: 0, 1: 2, 2: 2}, {0: 0, 2: 2}])
def test_centers_must_name_every_block(centers):
    C = Clustering({0: 0, 1: 0, 2: 1}, 2, centers)
    with pytest.raises(ZeusError, match="centers must name exactly the blocks 0..1"):
        C.validate(3)


@pytest.mark.parametrize("member", [5, -1])
def test_atom_member_outside_the_nodes_rejected(member):
    # 5 once indexed past the label array; -1 wrapped round to node 1
    C = Clustering({0: 0, 1: 0}, 1, {0: 0}, ((member,),), (member,))
    with pytest.raises(ZeusError, match=rf"atom \({member},\) has a member outside 0..1"):
        C.validate(2)


def test_from_labels_makes_each_block_one_atom_rooted_at_its_center():
    C = Clustering.from_labels(np.array([1, 0, 1, 0]), [1, 2])
    assert list(C.assignment.items()) == [(0, 1), (1, 0), (2, 1), (3, 0)]
    assert (C.k, C.centers, C.atoms, C.roots) == (2, {0: 1, 1: 2}, ((1, 3), (0, 2)), (1, 2))
    kept = Clustering.from_labels(np.array([1, 0, 1, 0]), [1, 2], ((0, 2), (1, 3)), (0, 3))
    assert (kept.atoms, kept.roots) == (((0, 2), (1, 3)), (0, 3))


@pytest.mark.parametrize(
    "label, centers, message",
    [
        ([0, 0, 2], [0, 1, 2], "finalized clustering has an empty block"),
        ([0, 0, 1], [2, 0], "center 2 not inside its block 0"),
        ([0, -1, 3], [0], "a block index lies outside 0..0"),
    ],
    ids=["empty_block", "center_outside", "label_outside"],
)
def test_from_labels_validates(label, centers, message):
    with pytest.raises(ZeusError, match=message):
        Clustering.from_labels(np.array(label), centers)


def _rs_fragments(H):
    return makeshift_rs(H, singleton_clustering(H.n))[0]


def _experts(H):
    return {u for u, x in enumerate(H.experts) if x}


def _instance(kind):
    return lambda: generate_instance(kind, 20, 3)


_OPTS = MakeshiftOptions()
_RS_KC = (ObjectiveSpec("rs"), ObjectiveSpec("kc"))
_RS, _F, _TF = _instance("rs"), _instance("f"), _instance("tf")
# each producer of a clustering, and the instance it runs on
PRODUCERS = {
    "rs": (_RS, _rs_fragments),
    "rs_gamma2": (
        lambda: line_points([10, 0, 11, 1, 12, 2], edge_threshold=2.0),
        lambda H: makeshift_rs_gamma(H, singleton_clustering(H.n), 2)[0],
    ),
    "f_1to1": (_F, lambda H: makeshift_fairness_ab(H, 1, 1)[0]),
    "f_2to1": (_F, lambda H: makeshift_fairness_ab(H, 2, 1)[0]),
    "f_mincost": (_F, lambda H: makeshift_fairness_mincost(H)[0]),
    "tf": (_TF, lambda H: makeshift_tf(H, _experts(H), 3, _OPTS)),
    "tf_km": (_TF, lambda H: makeshift_tf_kmedian(H, _experts(H), 3, _OPTS)),
    "kc": (_RS, lambda H: makeshift_kcenter(H, _rs_fragments(H), 3, _OPTS)[0]),
    "km": (_RS, lambda H: makeshift_kmedian(H, _rs_fragments(H), 3, _OPTS)),
    "b1": (_RS, lambda H: baseline_b1(H, ProblemSpec(_RS_KC, SlackVector((1.0, 2.0)), 3))),
    "b2": (_RS, lambda H: baseline_b2(H, 3, _OPTS)),
    "moc": (_RS, lambda H: baseline_moc_path(H, _RS_KC, (3,))[3]),
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_producers_list_nodes_in_order(name):
    instance, produce = PRODUCERS[name]
    H = instance()
    C = produce(H)
    assert list(C.assignment) == list(range(H.n))
    C.validate(H.n)


def _validate_by_loop(C, n):
    """Reference: ``Clustering.validate`` as a walk over the assignment
    dict and the atoms."""
    if sorted(C.assignment) != list(range(n)):
        raise ZeusError("assignment does not cover all nodes exactly once")
    if any(not b for b in _blocks_by_dict_loop(C)):
        raise ZeusError("finalized clustering has an empty block")
    if C.centers is not None:
        if sorted(C.centers) != list(range(C.k)):
            raise ZeusError(f"centers must name exactly the blocks 0..{C.k - 1}")
        for b, c in C.centers.items():
            if C.assignment.get(c) != b:
                raise ZeusError(f"center {c} not inside its block {b}")
    if len(C.atoms) != len(C.roots):
        raise ZeusError("atoms/roots length mismatch")
    for atom in C.atoms:
        if any(not 0 <= u < n for u in atom):
            raise ZeusError(f"atom {atom} has a member outside 0..{n - 1}")
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
    centers = draw(
        st.none()
        | st.dictionaries(st.integers(0, k - 1), nodes)
        | st.lists(nodes, min_size=k, max_size=k).map(lambda cs: dict(enumerate(cs)))
    )
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


def _both_forms(label, centers, atoms, roots):
    """``Clustering.from_labels`` on the arrays, or its error message, and
    the same clustering from the dict constructor."""
    as_dicts = Clustering(dict(enumerate(label)), len(centers), dict(enumerate(centers)), atoms, roots)
    try:
        return Clustering.from_labels(np.array(label), centers, atoms, roots), as_dicts
    except ZeusError as exc:
        return str(exc), as_dicts


@st.composite
def _labelled(draw):
    """Labels of n nodes into k blocks, a center per block, and atoms that
    partition the nodes in random order; members, centers and roots may lie
    anywhere, so every check of ``validate`` can fail."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 3))
    anywhere = st.integers(-1, n)
    label = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    centers = draw(st.lists(st.integers(0, n - 1) | anywhere, min_size=k, max_size=k))
    order = draw(st.permutations(range(n)))
    order[draw(st.integers(0, n - 1))] = draw(st.sampled_from(order) | anywhere)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    atoms = tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n]))
    roots = tuple(draw(st.sampled_from(a) | anywhere) for a in atoms)
    return n, label, centers, atoms, roots


@settings(max_examples=400, deadline=None)
@given(_labelled())
def test_from_labels_and_dict_constructor_agree(problem):
    """Both constructors store the same clustering: every view and array
    reader agrees, and ``validate`` fails with the same message, also when
    asked for one node more or fewer."""
    n, label, centers, atoms, roots = problem
    C, D = _both_forms(label, centers, atoms, roots)
    message = _failure(lambda: D.validate(n))
    assert message == _failure(lambda: _validate_by_loop(D, n))
    if isinstance(C, str):
        assert C == message
        return
    assert message is None
    for m in (n - 1, n + 1):
        assert _failure(lambda: C.validate(m)) == _failure(lambda: D.validate(m)) is not None
    assert (C.assignment, C.centers, C.atoms, C.roots) == (D.assignment, D.centers, D.atoms, D.roots)
    assert list(C.assignment.items()) == list(D.assignment.items())
    assert all(np.array_equal(a, b) for a, b in zip(C.arrays(), D.arrays()))
    assert C.blocks() == D.blocks() == _blocks_by_dict_loop(D)


@pytest.mark.parametrize(
    "label, centers, atoms, roots, n, message",
    [
        ([0, 0, 0], [0, 1], ((0,), (1,), (2,)), (0, 1, 2), 3, "finalized clustering has an empty block"),
        ([0, 1, 1], [0, 1], ((0,), (1,), (2,)), (0, 1, 2), 4, "assignment does not cover all nodes exactly once"),
        ([0, 1, 1], [0, 1], ((0,), (1,), (2,)), (0, 1, 2), 2, "assignment does not cover all nodes exactly once"),
        ([0, 1, 1], [0, 2], ((0, 3), (1, 2)), (0, 1), 3, r"atom \(0, 3\) has a member outside 0..2"),
        ([0, 1, 1], [1, 2], ((0,), (1, 2)), (0, 1), 3, "center 1 not inside its block 0"),
        ([0, 1, 1], [0, 1], ((0,), (1, 2)), (0, 0), 3, r"root 0 outside its atom \(1, 2\)"),
        ([0, 1, 1], [0, 2], ((0, 1), (2,)), (0, 2), 3, r"atom \(0, 1\) spans blocks \[0, 1\]"),
    ],
    ids=["empty_block", "node_missing", "node_outside", "member_outside", "center_outside",
         "root_outside", "split_atom"],
)
def test_validate_messages_of_both_constructors(label, centers, atoms, roots, n, message):
    """Each check fails with its message on the arrays and on the dicts; a
    clustering of other than n nodes is built for len(label) and checked for n."""
    as_dicts = Clustering(dict(enumerate(label)), len(centers), dict(enumerate(centers)), atoms, roots)
    for check in (
        lambda: Clustering.from_labels(np.array(label), centers, atoms, roots).validate(n),
        lambda: as_dicts.validate(n),
    ):
        with pytest.raises(ZeusError, match=message):
            check()
    partial = {u: b for u, b in enumerate(label) if u != 1}
    with pytest.raises(ZeusError, match="assignment does not cover all nodes exactly once"):
        Clustering(partial, len(centers), dict(enumerate(centers)), atoms, roots).validate(len(label))


def test_negative_keys_fail_validation():
    """A mapping's negative key names no node or block, so ``validate``
    rejects it however the other keys cover the nodes and blocks."""
    with pytest.raises(ZeusError, match="assignment does not cover all nodes exactly once"):
        Clustering({-1: 0, 0: 0, 1: 0}, 1).validate(2)
    with pytest.raises(ZeusError, match="centers must name exactly the blocks 0..0"):
        Clustering({0: 0, 1: 0}, 1, {-1: 1, 0: 0}).validate(2)


def test_replace_with_a_dict_rebuilds_the_views():
    """``dataclasses.replace`` with a new assignment dict gives readers that
    see it, and keeps the centers and atoms."""
    H = line_points([0, 1, 10, 11])
    C = Clustering.from_labels(np.array([0, 0, 1, 1]), [0, 2], ((0,), (1,), (2,), (3,)), (0, 1, 2, 3))
    assert dict(C.assignment) == {0: 0, 1: 0, 2: 1, 3: 1}
    moved = dataclasses.replace(C, assignment={0: 0, 1: 0, 2: 1, 3: 0})
    assert dict(moved.assignment) == {0: 0, 1: 0, 2: 1, 3: 0}
    assert moved.label.tolist() == [0, 0, 1, 0] and moved.blocks() == [[0, 1, 3], [2]]
    assert (moved.k, moved.centers, moved.atoms, moved.roots) == (C.k, C.centers, C.atoms, C.roots)
    assert (eval_kcenter(H, C), eval_kcenter(H, moved)) == (1.0, 11.0)
    moved.validate(4)
    assert C.blocks() == [[0, 1], [2, 3]]
