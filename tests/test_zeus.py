import hashlib
import json

import pytest

from conftest import line_points
from zeus_cluster.baselines import baseline_b1, baseline_b2, consolidate_fragments
from zeus_cluster.errors import ConfigError, ZeusError
from zeus_cluster.graph import make_instance
from zeus_cluster.makeshifts import (
    CLOSEST_EXPERT,
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
    clustering_to_json,
    eval_kcenter,
    evaluate,
    singleton_clustering,
)
from zeus_cluster import zeus
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
        assert eval_kcenter(H, C) == 0.0
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
        assert evaluate(H, C, o_rs) == 1.0

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
        radius = eval_kcenter(H, C)
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
        opts = MakeshiftOptions(seed=5)
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
        fixed, moves = local_search(H, C, state, o, 2.0, est)
        assert moves == 1
        assert eval_kcenter(H, fixed) == 1.0

    def test_moves_never_worsen(self):
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        before = eval_kcenter(H, C)
        est = OptimalEstimate("lower_bound", 1.0)
        state = PipelineState(clustering=C)
        fixed, _ = local_search(H, C, state, o, 2.0, est)
        assert eval_kcenter(H, fixed) <= before

    def test_respects_move_cap(self, monkeypatch):
        monkeypatch.setattr(zeus, "MOVES_PER_NODE", 0)
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        est = OptimalEstimate("lower_bound", 0.01)
        state = PipelineState(clustering=C)
        fixed, moves = local_search(H, C, state, o, 2.0, est)
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
        fixed, _ = local_search(H, C, state, o, 2.0, est)
        assert set(fixed.assignment.values()) == {0, 1}

    def test_rejects_move_that_breaks_earlier_slack(self):
        # moving atom (2, 3) to center 1 cuts the radius from d(0, 2) to
        # d(1, 3) but raises the k-median sum
        H = make_instance(4, "euclidean", embeddings=[(0, 0), (10, 0), (6, 4), (4, 0)])
        C = Clustering(
            assignment={0: 0, 1: 1, 2: 0, 3: 0},
            k=2,
            centers={0: 0, 1: 1},
            atoms=((0,), (1,), (2, 3)),
            roots=(0, 1, 2),
        )
        kc, km = ObjectiveSpec("kc"), ObjectiveSpec("km")
        est = OptimalEstimate("lower_bound", 1.0)
        free = PipelineState(clustering=C)
        moved, moves = local_search(H, C, free, kc, 2.0, est)
        assert moves == 1 and moved.assignment[2] == moved.assignment[3] == 1
        km_before = evaluate(H, C, km)
        assert evaluate(H, moved, km) > km_before

        # with km processed at exactly its slack, the one move is refused
        km_est = OptimalEstimate("lower_bound", km_before)
        bound = PipelineState(clustering=C, processed=[(km, km_est, 1.0)])
        kept, moves = local_search(H, C, bound, kc, 2.0, est)
        assert moves == 0 and kept.assignment == C.assignment

    @pytest.mark.parametrize("kind", ["rs", "f", "tf"])
    def test_serves_kc_and_km_only(self, kind):
        H, C = self.make_bad_clustering()
        state = PipelineState(clustering=C)
        est = OptimalEstimate("exact", 1.0)
        with pytest.raises(ConfigError, match="kc and km only"):
            local_search(H, C, state, ObjectiveSpec(kind), 1.0, est)

    def test_violated_rs_stage_makes_no_move(self):
        H = generate_instance("rs", 30, 0)
        spec = spec_of(["rs", "kc"], [2.0, 3.0], 3, allow_infeasible_slack=True)
        _, state = zeus_run(H, spec)
        assert state.trace[0]["violated"] is True
        assert state.trace[0]["local_search_moves"] == 0

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
        gamma_pairs = makeshift_rs_gamma(H, singleton_clustering(8), 2)[1].pairs
        assert state.pair_structures[0].pairs == gamma_pairs
        assert _block_sets(baseline_b1(H, spec)) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_rs_gamma_keeps_the_fairness_pairs(self):
        # the 2-neighbor cover after f joins whole matched pairs, so every
        # Blue node stays with its partner
        base = generate_instance("f", 40, 1)
        H = make_instance(
            40, "euclidean", embeddings=base.embeddings, colors=base.colors,
            edge_threshold=0.35,
        )
        spec = ProblemSpec(
            objectives=(ObjectiveSpec("f"), ObjectiveSpec("rs", gamma=2)),
            slacks=SlackVector((1.0, 0.5)),
            k=3,
        )
        C, state = zeus_run(H, spec)
        assert state.trace[0]["violated_at_end"] is False
        assert evaluate(H, C, ObjectiveSpec("f"), pairs=state.fairness_pairs) == 1.0

    def test_f_b_matching(self):
        H = generate_instance("f", 30, 1)
        spec = ProblemSpec(
            objectives=(ObjectiveSpec("f", alpha=1, beta=2), ObjectiveSpec("kc")),
            slacks=SlackVector((1.0, 3.0)),
            k=3,
        )
        C_ref, pairs = makeshift_fairness_ab(H, 1, 2)
        _, state = zeus_run(H, spec)
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


_O = ObjectiveSpec
# objective lists and slacks per instance kind
_PINNED_LISTS = {
    "rs": [
        ((_O("rs"), _O("kc")), (1, 3)),
        ((_O("rs"), _O("km")), (1, 5)),
        ((_O("kc"), _O("km")), (2, 5)),
        ((_O("rs"), _O("kc")), (0.5, 2)),
        ((_O("rs", gamma=2), _O("kc")), (1, 3)),
        ((_O("kc"), _O("rs")), (2, 0.5)),
        ((_O("km"), _O("rs")), (5, 0.5)),
    ],
    "f": [
        ((_O("f"), _O("kc")), (1, 3)),
        ((_O("f"), _O("km")), (1, 5)),
        ((_O("f"), _O("kc")), (0.5, 2)),
        ((_O("f"), _O("rs")), (1, 0.5)),
    ],
    "tf": [
        ((_O("tf"), _O("kc")), (1, 3)),
        ((_O("tf"), _O("km")), (1, 5)),
        ((_O("tf"), _O("rs")), (1, 0.5)),
    ],
}


def _pinned_lines():
    """One line per Zeus, B1 and B2 clustering (or error class name) and
    per Zeus trace entry without its timing, over a fixed grid."""
    lines = []

    def record(fn):
        try:
            lines.append(clustering_to_json(H, fn()))
        except ZeusError as exc:
            lines.append(type(exc).__name__)

    for kind, lists in _PINNED_LISTS.items():
        for n in (12, 30):
            for seed in (0, 1):
                H = generate_instance(kind, n, seed)
                rules = [
                    MakeshiftOptions(),
                    MakeshiftOptions(seed=seed),
                ]
                if kind == "tf":
                    rules.append(MakeshiftOptions(nonexpert_rule=CLOSEST_EXPERT))
                for k in range(2, 7):
                    for opts in rules:
                        record(lambda: baseline_b2(H, k, opts))
                        for objectives, slacks in lists:
                            spec = ProblemSpec(
                                objectives, SlackVector(slacks), k, opts,
                                allow_infeasible_slack=True,
                            )
                            try:
                                C, state = zeus_run(H, spec)
                            except ZeusError as exc:
                                lines.append(type(exc).__name__)
                            else:
                                lines.append(clustering_to_json(H, C))
                                for entry in state.trace:
                                    entry = dict(entry)
                                    entry.pop("elapsed_ms", None)
                                    lines.append(json.dumps(entry, sort_keys=True))
                            record(lambda: baseline_b1(H, spec))
    return lines


class TestPipelinePinned:
    """Every Zeus, B1 and B2 clustering and Zeus trace on a fixed grid,
    pinned by digest."""

    def test_objective_lists_grid(self):
        lines = _pinned_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "ef3b3ab5d3d05e03085d10c55e48443c1e0955a21bdd67cab4dbafd5dc05b6f1",
            2612,
        )


def _local_search_lines():
    """One line per Zeus clustering and per trace entry without its timing,
    over a grid whose k-center and k-median stages relocate atoms; also
    the number of local-search moves made."""
    lists = {
        "rs": [((_O("rs"), _O("kc")), (0.5, 2)), ((_O("rs"), _O("km")), (1, 2))],
        "f": [((_O("f"), _O("kc")), (0.5, 2)), ((_O("f"), _O("km")), (1, 2))],
    }
    lines, moves = [], 0
    for kind, kind_lists in lists.items():
        for seed in range(5):
            H = generate_instance(kind, 40, seed)
            for k in range(2, 9):
                for objectives, slacks in kind_lists:
                    spec = ProblemSpec(
                        objectives, SlackVector(slacks), k,
                        allow_infeasible_slack=True,
                    )
                    C, state = zeus_run(H, spec)
                    lines.append(clustering_to_json(H, C))
                    for entry in state.trace:
                        entry = dict(entry)
                        entry.pop("elapsed_ms", None)
                        moves += entry.get("local_search_moves", 0)
                        lines.append(json.dumps(entry, sort_keys=True))
    return lines, moves


class TestLocalSearchPinned:
    """Every clustering and trace entry of a grid rich in local-search
    moves, pinned by digest."""

    def test_kc_km_repair_grid(self):
        lines, moves = _local_search_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines), moves) == (
            "39c78eb6534823425ac854dfa991bc61a0d60a249d48d151f206f7176f3a9fa9",
            420,
            127,
        )
