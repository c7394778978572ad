import csv
import dataclasses
import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

import zeus_cluster.baselines as baselines
import zeus_cluster.bench as bench
import zeus_cluster.makeshifts as makeshifts
import zeus_cluster.zeus as zeus
from zeus_cluster.baselines import baseline_b1, baseline_moc_path
from zeus_cluster.bench import (
    ExperimentConfig,
    config_from_data,
    emit_report,
    run_experiment,
)
from zeus_cluster.errors import ConfigError, ZeusError
from zeus_cluster.graph import make_instance, save_instance
from zeus_cluster.makeshifts import (
    MakeshiftOptions,
    fairness_pairs,
    makeshift_fairness_mincost,
)
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    SlackVector,
    clustering_to_json,
    evaluate,
    singleton_clustering,
)
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import ProblemSpec, zeus_run


@pytest.fixture
def instance_path(tmp_path):
    H = generate_instance("rs", 20, 0)
    path = tmp_path / "inst.json"
    save_instance(H, path)
    return str(path)


def small_config(instance_path, outdir, **overrides):
    base = dict(
        instance_path=instance_path,
        objectives=(ObjectiveSpec("rs"), ObjectiveSpec("kc")),
        slacks=((1.0, 3.0),),
        ks=(2, 3, 4),
        seeds=(0, 1, 2),
        algorithms=("zeus", "b1", "b2"),
        output_dir=outdir,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_data_with_k_range(self, instance_path, tmp_path):
        cfg = config_from_data(
            {
                "instance": instance_path,
                "objectives": ["rs", "kc"],
                "slacks": [[1, 3], [0.5, 2]],
                "k": {"min": 2, "max": 5},
                "seeds": [0, 1],
                "output": str(tmp_path / "out"),
            }
        )
        assert cfg.ks == (2, 3, 4, 5)
        assert cfg.slacks == ((1.0, 3.0), (0.5, 2.0))

    def test_no_objectives_rejected(self):
        cfg = config_from_data(
            {"instance": "x", "objectives": [], "slacks": [[]], "k": [2]}
        )
        with pytest.raises(ConfigError, match="at least one objective is required"):
            cfg.validate()
        with pytest.raises(ConfigError, match="at least one objective is required"):
            run_experiment(cfg, generate_instance("rs", 6, 0))

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            config_from_data({"objectives": ["kc"]})

    def test_unknown_algorithm(self, instance_path, tmp_path):
        cfg = small_config(instance_path, str(tmp_path), algorithms=("zeus", "nope"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_slack_length_mismatch(self, instance_path, tmp_path):
        cfg = small_config(instance_path, str(tmp_path), slacks=((1.0,),))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_k_below_one_rejected(self, instance_path, tmp_path):
        cfg = config_from_data(
            {
                "instance": instance_path,
                "objectives": ["rs", "kc"],
                "slacks": [[1, 3]],
                "k": {"min": 0, "max": 2},
                "output": str(tmp_path / "out"),
            }
        )
        with pytest.raises(ConfigError, match="at least 1"):
            cfg.validate()

    @pytest.mark.parametrize("ks", [(2.5,), (True,), (2, 3.0)])
    def test_non_integer_k_rejected(self, instance_path, tmp_path, ks):
        cfg = small_config(instance_path, str(tmp_path), ks=ks, algorithms=("moc",))
        with pytest.raises(ConfigError, match="k values must be integers"):
            run_experiment(cfg)

    @pytest.mark.parametrize("seeds", [(1.9,), (False,)])
    def test_non_integer_seed_rejected(self, instance_path, tmp_path, seeds):
        cfg = small_config(instance_path, str(tmp_path), seeds=seeds)
        with pytest.raises(ConfigError, match="seeds must be integers"):
            run_experiment(cfg)

    @pytest.mark.parametrize("field", ["seeds", "slacks"])
    def test_empty_grid_axis_rejected(self, instance_path, tmp_path, field, monkeypatch):
        monkeypatch.setattr(bench, "baseline_moc_path", None)  # fails if MOC runs
        cfg = small_config(instance_path, str(tmp_path), algorithms=("zeus", "moc"))
        cfg = dataclasses.replace(cfg, **{field: ()})
        with pytest.raises(ConfigError, match=f"{field[:-1]} list must be non-empty"):
            run_experiment(cfg)

    def test_numpy_integer_seeds_run_like_ints(self, instance_path, tmp_path):
        ints = small_config(instance_path, str(tmp_path / "a"), ks=(2, 3), seeds=(0, 1))
        numpy_ints = dataclasses.replace(
            ints, ks=(np.int64(2), np.int64(3)), seeds=(np.int64(0), np.int64(1)),
            output_dir=str(tmp_path / "b"),
        )
        reports = []
        for cfg in (ints, numpy_ints):
            records = run_experiment(cfg)
            emit_report(records, ("json",), cfg.output_dir)
            with open(os.path.join(cfg.output_dir, "results.json")) as fh:
                reports.append([{**r, "wall_ms": None} for r in json.load(fh)])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "field, value", [("k", [2.5, True]), ("seeds", [1.9]), ("seeds", [True])]
    )
    def test_from_data_does_not_truncate(self, instance_path, tmp_path, field, value):
        data = {
            "instance": instance_path,
            "objectives": ["rs", "kc"],
            "slacks": [[1, 3]],
            "k": [2],
            "output": str(tmp_path / "out"),
            field: value,
        }
        cfg = config_from_data(data)
        assert (cfg.ks if field == "k" else cfg.seeds) == tuple(value)
        with pytest.raises(ConfigError, match="must be integers"):
            cfg.validate()


class TestRun:
    def test_grid_size(self, instance_path, tmp_path):
        cfg = small_config(instance_path, str(tmp_path / "out"))
        records = run_experiment(cfg)
        # 1 slack x 3 k x 3 seeds x 3 algorithms
        assert len(records) == 27
        assert all(r.error is None for r in records)

    def test_values_recomputed_from_clustering(self, instance_path, tmp_path):
        cfg = small_config(instance_path, str(tmp_path / "out"))
        records = run_experiment(cfg)
        for rec in records:
            assert set(rec.values) == {"o1_rs", "o2_kc"}
            assert 0.0 <= rec.values["o1_rs"] <= 1.0
            assert rec.values["o2_kc"] >= 0.0
            assert rec.clustering_json is not None
            doc = json.loads(rec.clustering_json)
            assert len(doc["blocks"]) == rec.k

    def test_cell_errors_do_not_abort(self, tmp_path):
        # k larger than n makes every cell fail, but the run completes
        H = generate_instance("rs", 6, 0)
        path = tmp_path / "tiny.json"
        save_instance(H, path)
        cfg = small_config(str(path), str(tmp_path / "out"), ks=(50,), seeds=(0,))
        records = run_experiment(cfg)
        assert len(records) == 3
        assert all(r.error is not None for r in records)

    def test_oracle_beyond_its_cap_records_its_error(self, tmp_path):
        H = generate_instance("rs", 13, 0)
        path = tmp_path / "n13.json"
        save_instance(H, path)
        cfg = small_config(
            str(path), str(tmp_path / "out"), ks=(2,), seeds=(0,), algorithms=("oracle",)
        )
        [rec] = run_experiment(cfg)
        assert rec.error == "ConfigError: n=13 exceeds enumeration cap 12"


class TestMocOnePass:
    def config(self, tmp_path, ks):
        return ExperimentConfig(
            instance_path="",
            objectives=(ObjectiveSpec("rs"), ObjectiveSpec("kc")),
            slacks=((1.0, 3.0), (0.5, 2.0)),
            ks=ks,
            seeds=(0, 1),
            algorithms=("b2", "moc"),
            output_dir=str(tmp_path),
        )

    def test_one_agglomeration_per_experiment(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return baseline_moc_path(*args, **kwargs)

        monkeypatch.setattr(bench, "baseline_moc_path", counted)
        H = generate_instance("rs", 14, 3)
        records = run_experiment(self.config(tmp_path, (2, 3, 5)), H)
        assert len(records) == 2 * 3 * 2 * 2
        assert calls == [[2, 3, 5]]

    def test_k_beyond_n_fails_only_its_own_cells(self, tmp_path):
        H = generate_instance("rs", 14, 3)
        records = run_experiment(self.config(tmp_path, (2, 15, 4)), H)
        path = baseline_moc_path(H, (ObjectiveSpec("rs"), ObjectiveSpec("kc")), (2, 4))
        moc = [r for r in records if r.algorithm == "moc"]
        assert len(moc) == 2 * 3 * 2
        for r in moc:
            if r.k == 15:
                assert r.error == "ConfigError: k values must lie in 1..14"
                assert r.clustering_json is None
            else:
                assert r.error is None
                assert r.clustering_json == clustering_to_json(H, path[r.k])
        # every moc record carries the time of the one pass
        assert len({r.wall_ms for r in moc}) == 1

    def test_pass_error_on_every_moc_record(self, tmp_path):
        H = generate_instance("rs", 14, 3)
        cfg = dataclasses.replace(
            self.config(tmp_path, (2, 15)),
            objectives=(ObjectiveSpec("kc"),),
            slacks=((3.0,),),
        )
        moc = [r for r in run_experiment(cfg, H) if r.algorithm == "moc"]
        assert len(moc) == 4
        assert {r.error for r in moc} == {
            "ConfigError: the MOC baseline requires exactly two objectives"
        }


class TestReports:
    def test_csv_and_json(self, instance_path, tmp_path):
        outdir = str(tmp_path / "out")
        cfg = small_config(instance_path, outdir, seeds=(0,))
        records = run_experiment(cfg)
        written = emit_report(records, ("csv", "json"), outdir)
        assert sorted(os.path.basename(p) for p in written) == [
            "results.csv",
            "results.json",
        ]
        with open(os.path.join(outdir, "results.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "algorithm",
            "k",
            "slack",
            "seed",
            "o1_rs",
            "o2_kc",
            "wall_ms",
            "error",
        ]
        assert len(rows) == 1 + len(records)
        with open(os.path.join(outdir, "results.json")) as fh:
            doc = json.load(fh)
        assert len(doc) == len(records)

    def test_svg_per_slack_and_objective(self, instance_path, tmp_path):
        outdir = str(tmp_path / "out")
        cfg = small_config(
            instance_path, outdir, slacks=((1.0, 3.0), (0.5, 2.0)), seeds=(0,)
        )
        records = run_experiment(cfg)
        written = emit_report(records, ("svg",), outdir)
        # 2 slack settings x 2 value columns
        assert len(written) == 4
        for p in written:
            with open(p) as fh:
                text = fh.read()
            assert text.startswith("<svg")
            assert "polyline" in text

    def test_reports_byte_identical_across_reruns(self, instance_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cfg1 = small_config(instance_path, out1, seeds=(0, 1))
        cfg2 = small_config(instance_path, out2, seeds=(0, 1))
        emit_report(run_experiment(cfg1), ("csv", "svg"), out1)
        emit_report(run_experiment(cfg2), ("csv", "svg"), out2)
        for name in sorted(os.listdir(out1)):
            with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
                a, b = fa.read(), fb.read()
            if name == "results.csv":
                # wall_ms differs between runs; compare everything else
                strip = lambda blob: [
                    row.rsplit(b",", 2)[0] for row in blob.splitlines()
                ]
                assert strip(a) == strip(b)
            else:
                assert a == b

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], ("csv",), str(tmp_path))


class TestFairnessReference:
    def test_f_km_scored_against_the_pipelines_matching(self, tmp_path):
        # with a km objective the min-cost matching defines f for every
        # algorithm, not only for the Zeus pipeline
        H = generate_instance("f", 200, 0)
        cfg = ExperimentConfig(
            instance_path="",
            objectives=(ObjectiveSpec("f"), ObjectiveSpec("km")),
            slacks=((1.0, 5.0),),
            ks=(3,),
            seeds=(0,),
            algorithms=("zeus", "b1", "moc"),
            output_dir=str(tmp_path),
        )
        zeus, b1, moc = run_experiment(cfg, H)
        assert zeus.error is None and b1.error is None and moc.error is None
        assert zeus.values["o1_f"] == zeus.trace[0]["value"]
        assert b1.values["o1_f"] == 1.0
        blocks = json.loads(moc.clustering_json)["blocks"]
        C = Clustering(
            assignment={int(u): b for b, members in enumerate(blocks) for u in members},
            k=len(blocks),
        )
        pairs = makeshift_fairness_mincost(H)[1]
        assert moc.values["o1_f"] == evaluate(H, C, ObjectiveSpec("f"), pairs)


def _pinned_config(tmp_path):
    """All five algorithms and two slacks; k = 11 exceeds n, so every
    algorithm records an error there."""
    return ExperimentConfig(
        instance_path="",
        objectives=(ObjectiveSpec("rs"), ObjectiveSpec("kc")),
        slacks=((1.0, 3.0), (0.5, 2.0)),
        ks=(2, 3, 11),
        seeds=(0, 1),
        algorithms=("zeus", "b1", "b2", "moc", "oracle"),
        output_dir=str(tmp_path),
    )


class TestRunPinned:
    """Every run_experiment record, without its timings, pinned by digest."""

    def test_five_algorithms_two_slacks(self, tmp_path):
        H = generate_instance("rs", 10, 4)
        lines = []
        for rec in run_experiment(_pinned_config(tmp_path), H):
            trace = [
                {key: v for key, v in entry.items() if key != "elapsed_ms"}
                for entry in rec.trace or ()
            ]
            lines.append(
                json.dumps(
                    [rec.algorithm, rec.k, rec.slack, rec.seed, rec.values,
                     rec.error, rec.clustering_json, trace],
                    sort_keys=True,
                )
            )
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "ec0014cb950499e9ff863c699cd7345740405fef85601780f57a50e77b93fb59",
            60,
        )
    def test_slack_free_algorithms_run_once_per_k_and_seed(self, tmp_path, monkeypatch):
        calls = []
        for name in ("baseline_b1", "baseline_b2", "oracle_lmoc"):
            def counted(*args, _name=name, _fn=getattr(bench, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(bench, name, counted)
        H = generate_instance("rs", 10, 4)
        records = run_experiment(_pinned_config(tmp_path), H)
        assert len(records) == 2 * 3 * 2 * 5
        # 3 ks x 2 seeds, whatever the number of slacks
        assert sorted(calls) == ["baseline_b1"] * 6 + ["baseline_b2"] * 6 + ["oracle_lmoc"] * 6
        for algorithm in ("b1", "b2", "oracle"):
            by_cell = {}
            for r in records:
                if r.algorithm == algorithm:
                    by_cell.setdefault((r.k, r.seed), set()).add(r.wall_ms)
            # a reused record carries the time of its one call
            assert all(len(times) == 1 for times in by_cell.values())

    def test_each_makeshift_runs_once(self, tmp_path, monkeypatch):
        calls = []
        for label, module, name in (
            ("rs", zeus, "makeshift_rs"),
            ("kc", zeus, "makeshift_kcenter"),
            ("b2", baselines, "makeshift_kcenter"),
        ):
            def counted(H, C, *rest, _label=label, _fn=getattr(module, name)):
                calls.append((_label, *rest))
                return _fn(H, C, *rest)

            monkeypatch.setattr(module, name, counted)
        H = generate_instance("rs", 10, 4)
        run_experiment(_pinned_config(tmp_path), H)
        cells = [(k, MakeshiftOptions(seed=s)) for k in (2, 3, 11) for s in (0, 1)]
        # rs once per experiment, shared by zeus and b1 over both slacks;
        # zeus's kc once per (k, seed), except that k = 11 > n raises before
        # any work, stores nothing, and so is tried again for the second slack
        assert Counter(calls) == Counter(
            [("rs",)]
            + [("kc", *c) for c in cells + cells[4:]]
            # B2 calls its makeshift directly, once per (k, seed)
            + [("b2", *c) for c in cells]
        )

    def test_one_fairness_matching_per_experiment(self, tmp_path, monkeypatch):
        calls = []

        def counted(H, *rest, _fn=makeshifts.makeshift_fairness_ab):
            calls.append(rest)
            return _fn(H, *rest)

        monkeypatch.setattr(makeshifts, "makeshift_fairness_ab", counted)
        cfg = ExperimentConfig(
            instance_path="",
            objectives=(ObjectiveSpec("f"), ObjectiveSpec("kc")),
            slacks=((1.0, 2.0), (1.0, 3.0)),
            ks=(2, 3, 4),
            seeds=(0,),
            algorithms=("zeus", "b1"),
            output_dir=str(tmp_path),
        )
        records = run_experiment(cfg, generate_instance("f", 60, 0))
        assert len(records) == 2 * 3 * 2 and not any(r.error for r in records)
        # the scoring pairs and every f stage of zeus and b1 share one build
        assert calls == [(1, 1)]


def _b1_config(tmp_path, ks):
    return ExperimentConfig(
        instance_path="",
        objectives=(ObjectiveSpec("rs"), ObjectiveSpec("kc")),
        slacks=((1.0, 3.0), (0.5, 2.0)),
        ks=ks,
        seeds=(0, 1),
        algorithms=("zeus", "b1", "b2"),
        output_dir=str(tmp_path),
    )


class TestSharedMergeOrder:
    """B1's merges depend on neither k nor the seed, so one sort of the
    root pairs serves every b1 cell of an experiment."""

    def test_root_pairs_sorted_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(H, roots, count, _fn=baselines._merge_order):
            calls.append((len(roots), count))
            return _fn(H, roots, count)

        monkeypatch.setattr(baselines, "_merge_order", counted)
        H = generate_instance("rs", 40, 1)
        records = run_experiment(_b1_config(tmp_path, (2, 3, 4)), H)
        assert len(records) == 2 * 3 * 2 * 3 and not any(r.error for r in records)
        # one scan of every root pair, down to one block, for 3 ks x 2 seeds
        g = makeshifts.makeshift_rs(H, singleton_clustering(H.n))[0].k
        assert calls == [(g, g - 1)]

    def test_descending_ks_give_the_same_records(self, tmp_path):
        H = generate_instance("rs", 40, 1)

        def lines(ks):
            return sorted(
                json.dumps(
                    [r.algorithm, r.k, r.slack, r.seed, r.values, r.error,
                     r.clustering_json, _untimed(r.trace)],
                    sort_keys=True,
                )
                for r in run_experiment(_b1_config(tmp_path, ks), H)
            )

        assert lines((4, 3, 2)) == lines((2, 3, 4))


def _gamma_instance():
    """An rs point set with E at every pair within 0.35, so every node has
    two E-neighbours and the gamma = 2 cover exists."""
    base = generate_instance("rs", 40, 1)
    return make_instance(40, "euclidean", embeddings=base.embeddings, edge_threshold=0.35)


def _untimed(trace):
    """A trace without its ``elapsed_ms``; None stays None."""
    if trace is None:
        return None
    return [{key: v for key, v in e.items() if key != "elapsed_ms"} for e in trace]


class TestSharedStages:
    """Cells that share makeshift results within one run_experiment call
    record what separate, memo-free runs of the same cells give."""

    @pytest.mark.parametrize(
        "kind, objectives, slacks, moves_atoms",
        [
            ("rs", ("rs", "kc"), ((1, 2), (1, 3), (0.5, 4)), True),
            ("rs", ("rs", "km"), ((1, 1), (1, 3), (0.5, 5)), True),
            ("rs", (("rs", 2), "kc"), ((1, 2), (1, 3)), False),
            ("f", ("f", "kc"), ((1, 2), (1, 3)), False),
            ("f", ("f", "km"), ((1, 1), (1, 3)), False),
            ("tf", ("tf", "kc"), ((1, 2), (1.5, 3)), False),
            ("tf", ("tf", "km"), ((1, 1), (1.5, 3)), False),
        ],
        ids=["rs,kc", "rs,km", "rs2,kc", "f,kc", "f,km", "tf,kc", "tf,km"],
    )
    def test_records_match_memo_free_runs(self, tmp_path, kind, objectives, slacks, moves_atoms):
        objectives = tuple(
            ObjectiveSpec(*o) if isinstance(o, tuple) else ObjectiveSpec(o)
            for o in objectives
        )
        H = _gamma_instance() if objectives[0].gamma > 1 else generate_instance(kind, 40, 1)
        cfg = ExperimentConfig(
            instance_path="",
            objectives=objectives,
            slacks=tuple(tuple(map(float, s)) for s in slacks),
            ks=(2, 3, 4),
            seeds=(0, 1),
            algorithms=("zeus", "b1"),
            output_dir=str(tmp_path),
            allow_infeasible_slack=True,
        )
        records = run_experiment(cfg, H)
        assert len(records) == len(slacks) * 3 * 2 * 2
        pairs = fairness_pairs(H, objectives)
        for rec in records:
            spec = ProblemSpec(
                objectives, SlackVector(rec.slack), rec.k,
                MakeshiftOptions(seed=rec.seed), allow_infeasible_slack=True,
            )
            values, error, doc, trace = {}, None, None, None
            try:
                if rec.algorithm == "zeus":
                    C, state = zeus_run(H, spec)
                    trace = state.trace
                else:
                    C = baseline_b1(H, spec)
            except ZeusError as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                for i, o in enumerate(objectives):
                    values[f"o{i + 1}_{o.kind}"] = evaluate(H, C, o, pairs=pairs)
                doc = clustering_to_json(H, C)
            assert (values, error, doc, _untimed(trace)) == (
                rec.values, rec.error, rec.clustering_json, _untimed(rec.trace)
            )
        moves = sum(e["local_search_moves"] for r in records for e in r.trace or ())
        assert (moves > 0) == moves_atoms
