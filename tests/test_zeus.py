import pytest

from conftest import line_points
from zeus_cluster.baselines import baseline_b1, consolidate_fragments
from zeus_cluster.errors import ConfigError
from zeus_cluster.makeshifts import (
    MakeshiftOptions,
    makeshift_fairness_ab,
    makeshift_rs_gamma,
    makeshift_tf,
    makeshift_tf_kmedian,
)
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    OptimalEstimate,
    SlackVector,
    eval_kcenter,
    evaluate,
)
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import PipelineState, ProblemSpec, local_search, zeus_run


def spec_of(kinds, slacks, k, **kw):
    return ProblemSpec(
        objectives=tuple(ObjectiveSpec(kind) for kind in kinds),
        slacks=SlackVector(tuple(slacks)),
        k=k,
        **kw,
    )


class TestSpecValidation:
    def test_empty_objectives(self):
        with pytest.raises(ConfigError):
            spec_of([], [], 2).validate()

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            spec_of(["kc"], [3.0], 0).validate()

    def test_infeasible_slack_rejected_by_default(self):
        with pytest.raises(ConfigError):
            spec_of(["kc"], [1.5], 2).validate()

    def test_infeasible_slack_override(self):
        spec_of(["kc"], [1.5], 2, allow_infeasible_slack=True).validate()


class TestPipeline:
    def test_kcenter_k_equals_n(self):
        H = line_points([0, 3, 8])
        C, state = zeus_run(H, spec_of(["kc"], [2.0], 3))
        assert eval_kcenter(H, C).value == 0.0
        assert state.trace[0]["violated"] is False

    def test_rs_then_kc(self):
        H = generate_instance("rs", 30, 2)
        spec = spec_of(["rs", "kc"], [1.0, 3.0], 4)
        C, state = zeus_run(H, spec)
        assert C.k == 4
        assert state.trace[0]["objective"] == "rs"
        assert state.trace[0]["value"] == 1.0  # edge cover touches every node
        assert state.trace[0]["estimate"]["kind"] == "exact"
        kc = state.trace[1]
        assert kc["value"] <= 3.0 * kc["estimate"]["value"] + 1e-9

    def test_f_then_kc(self):
        H = generate_instance("f", 24, 1)
        C, state = zeus_run(H, spec_of(["f", "kc"], [1.0, 3.0], 3))
        assert C.k == 3
        assert state.trace[0]["value"] == 1.0
        # matched pairs survive the k-center stage
        pairs = state.fairness_pairs
        assert pairs is not None
        for u, v in pairs.pairs:
            assert C.assignment[u] == C.assignment[v]

    def test_tf_then_kc(self):
        H = generate_instance("tf", 20, 4)
        C, state = zeus_run(H, spec_of(["tf", "kc"], [1.0, 3.0], 3))
        assert C.k == 3
        tf = state.trace[0]
        assert tf["value"] <= tf["estimate"]["value"] + 1e-9

    def test_rs_only_leaves_fragments(self):
        H = generate_instance("rs", 20, 0)
        C, state = zeus_run(H, spec_of(["rs"], [1.0], 4))
        warnings = [t for t in state.trace if "warning" in t]
        if C.k != 4:
            assert warnings and "fragments" in warnings[0]["warning"]

    def test_rs_value_survives_consolidation(self):
        H = generate_instance("rs", 24, 6)
        spec = spec_of(["rs", "kc"], [1.0, 3.0], 3)
        C, state = zeus_run(H, spec)
        o_rs = ObjectiveSpec("rs")
        assert evaluate(H, C, o_rs).value == 1.0

    def test_km_mode_switches_companions(self):
        H = generate_instance("f", 18, 2)
        C, state = zeus_run(H, spec_of(["f", "km"], [1.0, 6.0], 3))
        assert C.k == 3
        assert state.trace[0]["value"] == 1.0

    def test_slack_rechecked_after_last_stage(self):
        # the k-median stage moves the centers, which breaks the k-center
        # slack that held when its own stage ended
        H = generate_instance("rs", 300, 0)
        C, state = zeus_run(H, spec_of(["kc", "km"], [2.0, 5.0], 5))
        kc, km = state.trace
        assert kc["violated"] is False
        assert kc["violated_at_end"] is True
        radius = eval_kcenter(H, C).value
        assert radius == pytest.approx(0.4330, abs=1e-4)
        assert 2.0 * kc["estimate"]["value"] == pytest.approx(0.4198, abs=1e-4)
        assert km["violated_at_end"] is km["violated"]

    def test_determinism(self):
        H = generate_instance("f", 24, 9)
        spec = spec_of(["f", "kc"], [1.0, 3.0], 4)
        C1, s1 = zeus_run(H, spec)
        C2, s2 = zeus_run(H, spec)
        assert C1.assignment == C2.assignment
        for a, b in zip(s1.trace, s2.trace):
            a = {k: v for k, v in a.items() if k != "elapsed_ms"}
            b = {k: v for k, v in b.items() if k != "elapsed_ms"}
            assert a == b

    def test_seeded_random_determinism(self):
        H = generate_instance("rs", 24, 9)
        opts = MakeshiftOptions(first_center_rule="seeded_random", seed=5)
        spec = spec_of(["rs", "kc"], [1.0, 3.0], 4, options=opts)
        assert zeus_run(H, spec)[0].assignment == zeus_run(H, spec)[0].assignment

    def test_order_sensitivity(self):
        # consolidating objective last leaves fragments; first it gets
        # dissolved by the trailing cover stage
        H = generate_instance("rs", 20, 3)
        C_a, _ = zeus_run(H, spec_of(["rs", "kc"], [1.0, 3.0], 4))
        C_b, state_b = zeus_run(H, spec_of(["kc", "rs"], [3.0, 1.0], 4))
        assert C_a.k == 4
        assert C_b.k != 4 or C_a.assignment != C_b.assignment


class TestLocalSearch:
    def make_bad_clustering(self):
        H = line_points([0, 1, 10, 11])
        C = Clustering(
            assignment={0: 0, 1: 1, 2: 1, 3: 1},
            k=2,
            centers={0: 0, 1: 2},
            atoms=((0,), (1,), (2,), (3,)),
            roots=(0, 1, 2, 3),
        )
        return H, C

    def test_single_move_repairs_slack(self):
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        est = OptimalEstimate("lower_bound", 1.0)
        state = PipelineState(clustering=C)
        spec = spec_of(["kc"], [2.0], 2)
        fixed, moves = local_search(H, C, state, o, 2.0, est, spec)
        assert moves == 1
        assert eval_kcenter(H, fixed).value == 1.0

    def test_moves_never_worsen(self):
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        before = eval_kcenter(H, C).value
        est = OptimalEstimate("lower_bound", 1.0)
        state = PipelineState(clustering=C)
        spec = spec_of(["kc"], [2.0], 2)
        fixed, _ = local_search(H, C, state, o, 2.0, est, spec)
        assert eval_kcenter(H, fixed).value <= before

    def test_respects_move_cap(self):
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        est = OptimalEstimate("lower_bound", 0.01)
        state = PipelineState(clustering=C)
        spec = spec_of(["kc"], [2.0], 2, local_search_cap=0)
        fixed, moves = local_search(H, C, state, o, 2.0, est, spec)
        assert moves == 0
        assert fixed.assignment == C.assignment

    def test_never_empties_a_block(self):
        H = line_points([0, 1, 10])
        C = Clustering(
            assignment={0: 0, 1: 1, 2: 1},
            k=2,
            centers={0: 0, 1: 2},
            atoms=((0,), (1,), (2,)),
            roots=(0, 1, 2),
        )
        o = ObjectiveSpec("kc")
        est = OptimalEstimate("lower_bound", 0.1)
        state = PipelineState(clustering=C)
        spec = spec_of(["kc"], [2.0], 2)
        fixed, _ = local_search(H, C, state, o, 2.0, est, spec)
        assert set(fixed.assignment.values()) == {0, 1}

    def test_trace_reports_moves(self):
        # force a violation via an artificially tight slack on k-center
        H = line_points([0, 1, 2, 30])
        spec = spec_of(["kc"], [2.0], 2)
        C, state = zeus_run(H, spec)
        assert "local_search_moves" in state.trace[0]


def _block_sets(C):
    return sorted(tuple(b) for b in C.blocks())


class TestDispatchRoutes:
    """Each objective variant reaches its own makeshift in Zeus and in B1."""

    def test_rs_gamma_cover(self):
        # two 4-cycles: the 2-neighbor cover keeps each whole, while the
        # plain edge cover splits each into two pairs
        H = line_points(
            [0, 1, 60, 61, 100, 101, 160, 161],
            edges=[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)],
        )
        spec = ProblemSpec(
            objectives=(ObjectiveSpec("rs", gamma=2), ObjectiveSpec("kc")),
            slacks=SlackVector((1.0, 3.0)),
            k=2,
        )
        _, state = zeus_run(H, spec)
        assert state.pair_structures[0].kind == "gamma_cover"
        assert state.pair_structures[0].pairs == makeshift_rs_gamma(H, 2)[1].pairs
        assert _block_sets(baseline_b1(H, spec)) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_f_b_matching(self):
        H = generate_instance("f", 30, 1)
        spec = ProblemSpec(
            objectives=(ObjectiveSpec("f", alpha=1, beta=2), ObjectiveSpec("kc")),
            slacks=SlackVector((1.0, 3.0)),
            k=3,
        )
        C_ref, pairs = makeshift_fairness_ab(H, 1, 2)
        _, state = zeus_run(H, spec)
        assert state.pair_structures[0].kind == "b_matching"
        assert state.pair_structures[0].pairs == pairs.pairs
        B1 = baseline_b1(H, spec)
        assert B1.assignment == consolidate_fragments(H, C_ref, 3).assignment

    def test_tf_kmedian_companion(self):
        H = generate_instance("tf", 40, 2)
        spec = spec_of(["tf", "km"], [1.0, 5.0], 3)
        X = {u for u in range(H.n) if H.experts[u]}
        C, _ = zeus_run(H, spec)
        assert _block_sets(C) == _block_sets(
            makeshift_tf_kmedian(H, X, 3, spec.options)
        )
        # B1 ignores the later km objective: plain balanced k-center teams
        B1 = baseline_b1(H, spec)
        assert B1.assignment == makeshift_tf(H, X, 3, spec.options).assignment
        for out in (C, B1):
            counts = [sum(1 for u in b if u in X) for b in out.blocks()]
            assert max(counts) - min(counts) <= 1
