import dataclasses
import functools
import hashlib
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_points
from zeus_cluster.baselines import baseline_b1, baseline_b2, consolidate_fragments
from zeus_cluster.errors import ConfigError, ZeusError
from zeus_cluster.graph import make_instance
from zeus_cluster.makeshifts import (
    CLOSEST_EXPERT,
    MakeshiftOptions,
    fairness_pairs,
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
    rel_close,
    singleton_clustering,
    slack_violated,
)
from zeus_cluster import zeus
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import ProblemSpec, Stage, local_search, zeus_run


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

    @pytest.mark.parametrize("k", [2.5, True, 2.0, "2"])
    def test_non_integer_k_rejected(self, k):
        H = generate_instance("rs", 12, 0)
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            zeus_run(H, spec_of(["rs", "kc"], [1.0, 3.0], k))

    def test_numpy_integer_k_accepted(self):
        H = generate_instance("rs", 12, 0)
        runs = [zeus_run(H, spec_of(["rs", "kc"], [1.0, 3.0], k))[0] for k in (3, np.int64(3))]
        assert clustering_to_json(H, runs[0]) == clustering_to_json(H, runs[1])

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
        pairs = state.stages[0].pairs
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


class TestViolatedAtEnd:
    """Every stage's ``violated_at_end`` is its slack recomputed on the
    returned clustering, from the traced estimate and the pairs that
    define ``f``, without the pipeline's own stage records."""

    def test_flags_match_a_recomputation(self):
        grid = [
            ("f", 60, ("rs", "f", "kc"), (1.0, 1.0, 3.0)),
            ("rs", 200, ("kc", "km"), (2.0, 5.0)),
        ]
        earlier_flags = []
        for kind, n, kinds, slacks in grid:
            objectives = tuple(ObjectiveSpec(x) for x in kinds)
            paired = [i for i, x in enumerate(kinds) if x in ("rs", "f")]
            for seed in range(5):
                H = generate_instance(kind, n, seed)
                pairs = fairness_pairs(H, objectives)
                for k in range(2, 11):
                    C, state = zeus_run(H, spec_of(kinds, slacks, k))
                    entries = [e for e in state.trace if "objective" in e]
                    for o, delta, entry in zip(objectives, slacks, entries):
                        est = OptimalEstimate(**entry["estimate"])
                        value = evaluate(H, C, o, pairs=pairs)
                        assert entry["violated_at_end"] is slack_violated(value, o, delta, est)
                    assert entries[-1]["violated_at_end"] is entries[-1]["violated"]
                    earlier_flags += [e["violated_at_end"] for e in entries[:-1]]
                    assert state.pair_structures is state.pair_structures
                    assert sorted(state.pair_structures) == paired
        assert len(earlier_flags) == 135
        assert True in earlier_flags and False in earlier_flags


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
        fixed, moves = local_search(H, C, [], Stage(o, 2.0, est))
        assert moves == 1
        assert eval_kcenter(H, fixed) == 1.0

    def test_moves_never_worsen(self):
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        before = eval_kcenter(H, C)
        est = OptimalEstimate("lower_bound", 1.0)
        fixed, _ = local_search(H, C, [], Stage(o, 2.0, est))
        assert eval_kcenter(H, fixed) <= before

    def test_respects_move_cap(self, monkeypatch):
        monkeypatch.setattr(zeus, "MOVES_PER_NODE", 0)
        H, C = self.make_bad_clustering()
        o = ObjectiveSpec("kc")
        est = OptimalEstimate("lower_bound", 0.01)
        fixed, moves = local_search(H, C, [], Stage(o, 2.0, est))
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
        fixed, _ = local_search(H, C, [], Stage(o, 2.0, est))
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
        moved, moves = local_search(H, C, [], Stage(kc, 2.0, est))
        assert moves == 1 and moved.assignment[2] == moved.assignment[3] == 1
        km_before = evaluate(H, C, km)
        assert evaluate(H, moved, km) > km_before

        # with km processed at exactly its slack, the one move is refused
        km_est = OptimalEstimate("lower_bound", km_before)
        bound = [Stage(km, 1.0, km_est)]
        kept, moves = local_search(H, C, bound, Stage(kc, 2.0, est))
        assert moves == 0 and kept.assignment == C.assignment

    @pytest.mark.parametrize("kind", ["rs", "f", "tf"])
    def test_serves_kc_and_km_only(self, kind):
        H, C = self.make_bad_clustering()
        est = OptimalEstimate("exact", 1.0)
        with pytest.raises(ConfigError, match="kc and km only"):
            local_search(H, C, [], Stage(ObjectiveSpec(kind), 1.0, est))

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
        assert evaluate(H, C, ObjectiveSpec("f"), pairs=state.stages[0].pairs) == 1.0

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

    @pytest.mark.parametrize(
        "kind, objectives, zeus_calls, b1_calls",
        [
            ("rs", ("rs", "kc"), ["rs", "kcenter"], ["rs"]),
            ("rs", (ObjectiveSpec("rs", gamma=2), "km"), ["rs_gamma", "kmedian"], ["rs_gamma"]),
            ("f", ("f", "km"), ["fairness_for", "kmedian"], ["fairness_for"]),
            ("tf", ("tf", "km"), ["tf_kmedian", "kmedian"], ["tf"]),
            ("tf", ("tf", "kc"), ["tf", "kcenter"], ["tf"]),
        ],
    )
    def test_stages_reach_makeshifts_through_zeus(
        self, monkeypatch, kind, objectives, zeus_calls, b1_calls
    ):
        """Zeus and B1 look every makeshift up in ``zeus`` at call time, so
        a tracer that wraps ``zeus.makeshift_*`` sees each one they run."""
        calls = []
        for name in ("rs", "rs_gamma", "fairness_for", "kcenter", "kmedian", "tf", "tf_kmedian"):
            def recorded(*args, _name=name, _real=getattr(zeus, f"makeshift_{name}"), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(zeus, f"makeshift_{name}", recorded)
        objectives = tuple(
            o if isinstance(o, ObjectiveSpec) else ObjectiveSpec(o) for o in objectives
        )
        spec = ProblemSpec(objectives, SlackVector((1.0, 5.0)), 1, allow_infeasible_slack=True)
        # seed 4 is the first whose 20 nodes all have two E-neighbours
        H = generate_instance(kind, 20, 4)
        zeus_run(H, spec)
        assert calls == zeus_calls
        calls.clear()
        baseline_b1(H, spec)
        assert calls == b1_calls

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
            "7695008114d6d4eb4019adf17f77825b06b57e28b6a2e9cb4cb10258a1b180a9",
            2612,
        )


def _atom_pair_lines():
    """Over ``_pinned_lines``' grid: one line per Zeus, B1 and B2
    clustering with its atoms and roots (or error class name), and one per
    pair structure of a Zeus run with its sorted pairs and radius."""
    lines = []

    def atoms_line(C):
        return json.dumps([[list(a) for a in C.atoms], list(C.roots)])

    for kind, lists in _PINNED_LISTS.items():
        for n in (12, 30):
            for seed in (0, 1):
                H = generate_instance(kind, n, seed)
                rules = [MakeshiftOptions(), MakeshiftOptions(seed=seed)]
                if kind == "tf":
                    rules.append(MakeshiftOptions(nonexpert_rule=CLOSEST_EXPERT))
                for k in range(2, 7):
                    for opts in rules:
                        lines.append(atoms_line(baseline_b2(H, k, opts)))
                        for objectives, slacks in lists:
                            spec = ProblemSpec(
                                objectives, SlackVector(slacks), k, opts,
                                allow_infeasible_slack=True,
                            )
                            for run in (lambda: zeus_run(H, spec), lambda: (baseline_b1(H, spec), None)):
                                try:
                                    C, state = run()
                                except ZeusError as exc:
                                    lines.append(type(exc).__name__)
                                    continue
                                lines.append(atoms_line(C))
                                for i, p in sorted((state.pair_structures if state else {}).items()):
                                    pairs = sorted(map(list, p.pairs))
                                    lines.append(json.dumps([i, pairs, float.hex(p.realized_radius)]))
    return lines


class TestAtomsAndPairsPinned:
    """The atoms, roots and pair structures that ``clustering_to_json``
    leaves out, over the pipeline grid, pinned by digest."""

    def test_objective_lists_grid(self):
        lines = _atom_pair_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "df066f8643839aec84175f5b7781d5aec90bfa3230990f855dc47e955939be2f",
            1822,
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
            "ab70d27d100605aaed426dfd174e413218e2ed44c9b1df95e2a9c096ea4c79b3",
            420,
            127,
        )


def _sum_left_to_right(values):
    # the order of the builtin sum of floats before Python 3.12
    return functools.reduce(operator.add, values, 0)


def _local_search_by_dict_loop(H, C, earlier, stage):
    """Reference: ``local_search`` as it walked the assignment dict and
    scored each (atom, target) move in turn."""
    violated_o, delta, est = stage.objective, stage.slack, stage.estimate
    moves = 0
    value = evaluate(H, C, violated_o)
    while moves < zeus.MOVES_PER_NODE * H.n and slack_violated(value, violated_o, delta, est):
        centers = C.centers
        cost = {u: float(H.dist[u, centers[b]]) for u, b in C.assignment.items()}
        total = _sum_left_to_right(cost.values())
        by_cost = sorted(cost.items(), key=lambda kv: -kv[1])
        block_size = [0] * C.k
        for b in C.assignment.values():
            block_size[b] += 1
        candidates = []
        for atom in C.atoms:
            src = C.assignment[atom[0]]
            if block_size[src] == len(atom):
                continue
            if centers[src] in atom:
                continue
            rest = next((c for u, c in by_cost if u not in atom), 0.0)
            for target in range(C.k):
                if target == src:
                    continue
                to_target = [float(H.dist[u, centers[target]]) for u in atom]
                if violated_o.kind == "km":
                    new_value = total + _sum_left_to_right(
                        d - cost[u] for u, d in zip(atom, to_target)
                    )
                else:
                    new_value = max(rest, max(to_target))
                if new_value < value and not rel_close(new_value, value):
                    candidates.append((new_value, min(atom), target, atom))
        candidates.sort()
        for new_value, _, target, atom in candidates:
            assign = dict(C.assignment)
            for u in atom:
                assign[u] = target
            moved = dataclasses.replace(C, assignment=assign)
            if not any(
                slack_violated(evaluate(H, moved, s.objective, pairs=s.pairs), s.objective, s.slack, s.estimate)
                for s in earlier
            ):
                C, value = moved, new_value
                moves += 1
                break
        else:
            break
    return C, moves


def _lattice(w, h):
    """A w x h integer lattice, E joining lattice neighbours, colored like
    a checkerboard: distances tie everywhere."""
    points = [(x, y) for y in range(h) for x in range(w)]
    return make_instance(
        len(points),
        "euclidean",
        embeddings=points,
        edge_threshold=1.0,
        colors=["B" if (x + y) % 2 else "P" for x, y in points],
    )


class TestLocalSearchReference:
    """``local_search`` makes the same moves, in the same order, as the
    per-move dict loop it replaced, on every call a Zeus run makes."""

    @pytest.fixture
    def moves_by_kind(self, monkeypatch):
        real = zeus.local_search
        moves = {"kc": 0, "km": 0}

        def checked(H, C, earlier, stage):
            got = real(H, C, earlier, stage)
            want = _local_search_by_dict_loop(H, C, earlier, stage)
            assert list(got[0].assignment.items()) == list(want[0].assignment.items())
            assert got[1] == want[1]
            moves[stage.objective.kind] += got[1]
            return got

        monkeypatch.setattr(zeus, "local_search", checked)
        return moves

    def test_pinned_grid(self, moves_by_kind):
        assert _local_search_lines()[1] == 127
        assert moves_by_kind["kc"] > 0 and moves_by_kind["km"] > 0

    def test_tie_heavy_lattices(self, moves_by_kind):
        lists = [
            ((_O("rs"), _O("kc")), (0.5, 2)),
            ((_O("rs"), _O("km")), (1, 2)),
            ((_O("f"), _O("kc")), (0.5, 2)),
            ((_O("f"), _O("km")), (1, 2)),
            ((_O("kc"), _O("km")), (2, 2)),
            ((_O("km"), _O("kc")), (2, 2)),
        ]
        for H in (_lattice(5, 5), _lattice(6, 4), _lattice(7, 7)):
            for k in range(2, 8):
                for opts in (MakeshiftOptions(), MakeshiftOptions(seed=1)):
                    for objectives, slacks in lists:
                        spec = ProblemSpec(
                            objectives, SlackVector(slacks), k, opts,
                            allow_infeasible_slack=True,
                        )
                        zeus_run(H, spec)
        assert moves_by_kind["kc"] > 0 and moves_by_kind["km"] > 0


@st.composite
def _local_search_problems(draw):
    """A clustering of 3..14 lattice points, so that distances and move
    scores tie often, into k blocks around distinct centers, its atoms
    each inside one block; the kind to repair, at an estimate no value
    meets; and possibly the other kind processed at a slack the clustering
    barely meets."""
    n = draw(st.integers(3, 14))
    points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n))
    H = make_instance(n, "euclidean", embeddings=points)
    k = draw(st.integers(2, min(n, 4)))
    order = draw(st.permutations(range(n)))
    centers = dict(enumerate(order[:k]))
    assignment = {u: b for b, u in centers.items()}
    assignment.update((u, draw(st.integers(0, k - 1))) for u in order[k:])
    atoms = []
    for b in range(k):
        members = [u for u in order if assignment[u] == b]
        while members:
            size = draw(st.integers(1, min(3, len(members))))
            atoms.append(tuple(members[:size]))
            members = members[size:]
    C = Clustering(assignment, k, centers, tuple(atoms), tuple(a[0] for a in atoms))
    kind, other = draw(st.sampled_from([("kc", "km"), ("km", "kc")]))
    earlier = []
    if draw(st.booleans()):
        bound = OptimalEstimate("lower_bound", evaluate(H, C, _O(other)))
        earlier.append(Stage(_O(other), draw(st.sampled_from([1.0, 1.1, 1.5])), bound))
    # at slack 2 the search stops below this share of the value, often
    # after one of several moves that tie
    share = draw(st.sampled_from([0.0, 0.6, 0.9, 0.97]))
    est = OptimalEstimate("lower_bound", share * evaluate(H, C, _O(kind)) / 2)
    return H, C, earlier, Stage(_O(kind), 2.0, est)


@settings(max_examples=300, deadline=None)
@given(_local_search_problems())
def test_local_search_matches_dict_loop(problem):
    H, C, earlier, stage = problem
    got = local_search(H, C, earlier, stage)
    want = _local_search_by_dict_loop(H, C, earlier, stage)
    assert list(got[0].assignment.items()) == list(want[0].assignment.items())
    assert got[1] == want[1]
