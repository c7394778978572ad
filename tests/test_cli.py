import json
import os

import pytest

from zeus_cluster.cli import main
from zeus_cluster.graph import save_instance
from zeus_cluster.makeshifts import makeshift_fairness_mincost
from zeus_cluster.objectives import ObjectiveSpec, clustering_to_json
from zeus_cluster.oracle import oracle_lmoc
from zeus_cluster.synth import generate_instance


@pytest.fixture
def rs_instance(tmp_path):
    H = generate_instance("rs", 15, 0)
    path = tmp_path / "rs.json"
    save_instance(H, path)
    return str(path)


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--kind", "f", "--n", "12", "--seed", "3", "--output", out]) == 0
        doc = json.load(open(out))
        assert len(doc["nodes"]) == 12
        assert capsys.readouterr().out.strip() == out

    def test_bad_kind(self, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--kind", "xx", "--n", "5", "--output", out]) == 1


class TestCluster:
    def test_runs_pipeline(self, rs_instance, capsys):
        rc = main(
            [
                "cluster",
                "--input",
                rs_instance,
                "--objectives",
                "rs,kc",
                "--slack",
                "1,3",
                "--k",
                "3",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["clustering"]["blocks"]) == 3
        assert doc["trace"][0]["objective"] == "rs"

    def test_output_file(self, rs_instance, tmp_path):
        out = str(tmp_path / "result.json")
        rc = main(
            [
                "cluster",
                "--input",
                rs_instance,
                "--objectives",
                "rs,kc",
                "--slack",
                "1,3",
                "--k",
                "2",
                "--output",
                out,
            ]
        )
        assert rc == 0
        assert os.path.exists(out)

    def test_unknown_objective_exit_1(self, rs_instance):
        rc = main(
            [
                "cluster",
                "--input",
                rs_instance,
                "--objectives",
                "zz",
                "--slack",
                "1",
                "--k",
                "2",
            ]
        )
        assert rc == 1

    def test_slack_mismatch_exit_1(self, rs_instance):
        rc = main(
            [
                "cluster",
                "--input",
                rs_instance,
                "--objectives",
                "rs,kc",
                "--slack",
                "1",
                "--k",
                "2",
            ]
        )
        assert rc == 1

    def test_infeasible_exit_2(self, tmp_path):
        # isolated node: no edge cover exists
        H = generate_instance("rs", 15, 0)
        doc = {
            "metric": "explicit",
            "fill": 9.0,
            "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "distances": [["a", "b", 1]],
            "edges": [["a", "b"]],
        }
        path = tmp_path / "iso.json"
        path.write_text(json.dumps(doc))
        rc = main(
            [
                "cluster",
                "--input",
                str(path),
                "--objectives",
                "rs",
                "--slack",
                "1",
                "--k",
                "1",
            ]
        )
        assert rc == 2

    def test_missing_file_exit_nonzero(self):
        rc = main(
            [
                "cluster",
                "--input",
                "/nonexistent.json",
                "--objectives",
                "rs",
                "--slack",
                "1",
                "--k",
                "2",
            ]
        )
        assert rc != 0

    def test_csv_edges_input(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("u,v,weight\na,b,1\nb,c,2\na,c,3\n")
        rc = main(
            [
                "cluster",
                "--input",
                str(path),
                "--format",
                "csv-edges",
                "--fill",
                "10",
                "--objectives",
                "rs",
                "--slack",
                "1",
                "--k",
                "1",
            ]
        )
        assert rc == 0


class TestOracle:
    def test_small_instance(self, tmp_path, capsys):
        H = generate_instance("rs", 7, 1)
        path = tmp_path / "s.json"
        save_instance(H, path)
        rc = main(
            ["oracle", "--input", str(path), "--objectives", "rs,kc", "--k", "2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["enumerated"] == 63  # S(7,2)
        assert "o1_rs" in doc["values"]

    def test_f_km_uses_min_cost_matching(self, tmp_path, capsys):
        # on this instance the min-cost and bottleneck matchings differ,
        # and so do the optimal clusterings against them
        H = generate_instance("f", 8, 0)
        path = tmp_path / "f.json"
        save_instance(H, path)
        rc = main(
            ["oracle", "--input", str(path), "--objectives", "f,km", "--k", "2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        objs = [ObjectiveSpec("f"), ObjectiveSpec("km")]
        ref = oracle_lmoc(H, 2, objs, makeshift_fairness_mincost(H)[1])
        assert doc["values"] == {"o1_f": ref.best_values[0], "o2_km": ref.best_values[1]}
        assert doc["clustering"] == json.loads(clustering_to_json(H, ref.best_clustering))

    def test_too_large_exit_1(self, rs_instance):
        rc = main(
            ["oracle", "--input", rs_instance, "--objectives", "kc", "--k", "2"]
        )
        assert rc == 1


class TestBench:
    def test_end_to_end(self, rs_instance, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        cfg = {
            "instance": rs_instance,
            "objectives": ["rs", "kc"],
            "slacks": [[1, 3]],
            "k": [2, 3],
            "seeds": [0],
            "algorithms": ["zeus", "b2"],
            "output": outdir,
            "formats": ["csv", "json", "svg"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["bench", "--config", str(path)])
        assert rc == 0
        names = sorted(os.listdir(outdir))
        assert "results.csv" in names
        assert "results.json" in names
        assert any(n.endswith(".svg") for n in names)

    def test_bad_config_exit_1(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objectives": ["kc"]}))
        assert main(["bench", "--config", str(path)]) == 1
