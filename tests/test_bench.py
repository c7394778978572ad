import csv
import dataclasses
import hashlib
import json
import os

import pytest

import zeus_cluster.bench as bench
from zeus_cluster.baselines import baseline_moc_path
from zeus_cluster.bench import (
    ExperimentConfig,
    config_from_data,
    emit_report,
    run_experiment,
)
from zeus_cluster.errors import ConfigError
from zeus_cluster.graph import save_instance
from zeus_cluster.makeshifts import makeshift_fairness_mincost
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    clustering_to_json,
    evaluate,
)
from zeus_cluster.synth import generate_instance


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
