import csv
import json
import os

import pytest

from zeus_cluster.bench import (
    ExperimentConfig,
    config_from_data,
    emit_report,
    run_experiment,
)
from zeus_cluster.errors import ConfigError
from zeus_cluster.graph import save_instance
from zeus_cluster.makeshifts import makeshift_fairness_mincost
from zeus_cluster.objectives import Clustering, ObjectiveSpec, evaluate
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
        doc = json.load(open(os.path.join(outdir, "results.json")))
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
            text = open(p).read()
            assert text.startswith("<svg")
            assert "polyline" in text

    def test_reports_byte_identical_across_reruns(self, instance_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cfg1 = small_config(instance_path, out1, seeds=(0, 1))
        cfg2 = small_config(instance_path, out2, seeds=(0, 1))
        emit_report(run_experiment(cfg1), ("csv", "svg"), out1)
        emit_report(run_experiment(cfg2), ("csv", "svg"), out2)
        for name in sorted(os.listdir(out1)):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
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
        assert moc.values["o1_f"] == evaluate(H, C, ObjectiveSpec("f"), pairs).value
