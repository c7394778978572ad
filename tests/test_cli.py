import contextlib
import csv
import hashlib
import io
import json
import os
import re

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
        with open(out) as fh:
            doc = json.load(fh)
        assert len(doc["nodes"]) == 12
        assert capsys.readouterr().out.strip() == out

    def test_bad_kind(self, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--kind", "xx", "--n", "5", "--output", out]) == 1

    def test_too_few_nodes_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--kind", "rs", "--n", "1", "--output", out]) == 1
        assert "n must be >= 2" in capsys.readouterr().err

    def test_interrupt_exit_1(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("zeus_cluster.cli.generate_instance", interrupted)
        out = str(tmp_path / "g.json")
        assert main(["gen", "--kind", "rs", "--n", "5", "--output", out]) == 1


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

    def test_malformed_instance_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metric": "explicit", "nodes": [{"color": "blue"}]}))
        rc = main(
            ["cluster", "--input", str(path), "--objectives", "rs", "--slack", "1", "--k", "1"]
        )
        assert rc == 1
        assert "{'color': 'blue'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("edges", 5), ("distances", 7), ("fill", "x"), ("edge_threshold", "z")],
    )
    def test_malformed_field_exit_1(self, tmp_path, field, value, capsys):
        doc = {"metric": "explicit", "fill": 1.0, "nodes": [{"id": "a"}, {"id": "b"}]}
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(
            ["cluster", "--input", str(path), "--objectives", "kc", "--slack", "2", "--k", "1"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert field in err and "internal error" not in err

    def test_missing_output_dir_exit_1(self, rs_instance, tmp_path, capsys):
        out = str(tmp_path / "no" / "result.json")
        rc = main(
            ["cluster", "--input", rs_instance, "--objectives", "rs,kc", "--slack", "1,3",
             "--k", "2", "--output", out]
        )
        assert rc == 1
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("objectives, slack", [("tf,kc", "2,3"), ("kc", "3")])
    def test_nan_balance_multiplier_exit_1(self, tmp_path, objectives, slack, capsys):
        path = tmp_path / "tf.json"
        save_instance(generate_instance("tf", 20, 0), path)
        rc = main(
            ["cluster", "--input", str(path), "--objectives", objectives, "--slack", slack,
             "--k", "2", "--balance-multiplier", "nan"]
        )
        assert rc == 1
        assert "balance_radius_multiplier" in capsys.readouterr().err

    @pytest.mark.parametrize("slack", ["1,x", "1,nan"])
    def test_bad_slack_exit_1(self, rs_instance, slack, capsys):
        rc = main(
            [
                "cluster",
                "--input",
                rs_instance,
                "--objectives",
                "rs,kc",
                "--slack",
                slack,
                "--k",
                "2",
            ]
        )
        assert rc == 1
        assert "internal error" not in capsys.readouterr().err

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
        assert rc == 1

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

    def test_unwritable_output_exit_1(self, rs_instance, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        cfg = {
            "instance": rs_instance,
            "objectives": ["rs", "kc"],
            "slacks": [[1, 3]],
            "k": [2],
            "algorithms": ["zeus"],
            "output": str(tmp_path / "afile"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 1
        assert "internal error" not in capsys.readouterr().err

    def test_unreadable_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        assert main(["bench", "--config", str(path)]) == 1
        path.write_text("{")
        assert main(["bench", "--config", str(path)]) == 1
        assert "internal error" not in capsys.readouterr().err

    def test_k_zero_exit_1(self, rs_instance, tmp_path, capsys):
        cfg = {
            "instance": rs_instance,
            "objectives": ["rs", "kc"],
            "slacks": [[1, 3]],
            "k": {"min": 0, "max": 2},
            "algorithms": ["zeus", "b1", "b2"],
            "output": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 1
        assert "k values must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("slack", ["a", float("nan")])
    def test_bad_slack_exit_1(self, rs_instance, tmp_path, slack, capsys):
        cfg = {
            "instance": rs_instance,
            "objectives": ["rs", "kc"],
            "slacks": [[1, slack]],
            "k": [2],
            "algorithms": ["zeus"],
            "output": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 1
        assert "internal error" not in capsys.readouterr().err


def _files_under(root: str) -> set[str]:
    return {os.path.join(d, name) for d, _, names in os.walk(root) for name in names}


def _untimed(text: str) -> str:
    return re.sub(r'"(elapsed_ms|wall_ms)": [-+.e0-9]+', r'"\1": 0', text)


def _pinned_cli_lines(root: str) -> list[str]:
    """Exit code, stdout and written files of a fixed list of CLI calls.

    The scratch directory reads ``<tmp>`` and timings read 0; help and
    error text on stderr are not recorded.
    """

    def at(name):
        return os.path.join(root, name)

    rs, f, tf, tiny = at("rs.json"), at("f.json"), at("tf.json"), at("tiny.json")
    iso, cfg, out = at("iso.json"), at("cfg.json"), at("out")
    with open(at("e.csv"), "w") as fh:
        fh.write("u,v,weight\na,b,1\nb,c,2\na,c,3\nc,d,1.5\n")
    with open(iso, "w") as fh:
        json.dump(
            {
                "metric": "explicit",
                "fill": 9.0,
                "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
                "distances": [["a", "b", 1]],
                "edges": [["a", "b"]],
            },
            fh,
        )
    with open(cfg, "w") as fh:
        json.dump(
            {
                "instance": tiny,
                "objectives": ["rs", "kc"],
                "slacks": [[1, 3], [1, 1.5]],
                "k": [2, 3],
                "seeds": [0, 1],
                "algorithms": ["zeus", "b1", "b2", "moc", "oracle"],
                "output": out,
                "formats": ["csv", "json", "svg"],
            },
            fh,
        )
    calls = [
        ["gen", "--kind", "rs", "--n", "40", "--seed", "1", "--output", rs],
        ["gen", "--kind", "f", "--n", "36", "--seed", "2", "--output", f],
        ["gen", "--kind", "tf", "--n", "45", "--seed", "3", "--output", tf],
        ["gen", "--kind", "rs", "--n", "8", "--output", tiny],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "1,3",
         "--k", "4", "--first-center", "random", "--seed", "3"],
        ["cluster", "--input", f, "--objectives", "f,km", "--slack", "1,2",
         "--k", "3", "--output", at("f_km.json")],
        ["cluster", "--input", tf, "--objectives", "tf,kc", "--slack", "2,3",
         "--k", "3", "--nonexpert-rule", "expert", "--balance-multiplier", "2"],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "2,1",
         "--k", "3", "--allow-infeasible-slack"],
        ["cluster", "--input", at("e.csv"), "--format", "csv-edges", "--fill", "10",
         "--objectives", "rs,km", "--slack", "1,2", "--k", "2"],
        ["oracle", "--input", tiny, "--objectives", "rs,kc", "--k", "3"],
        ["oracle", "--input", at("e.csv"), "--format", "csv-edges", "--fill", "10",
         "--objectives", "kc,rs", "--k", "2"],
        ["bench", "--config", cfg],
        # exit 1: usage and config errors
        [],
        ["nope"],
        ["gen", "--kind", "xx", "--n", "5", "--output", at("x.json")],
        ["gen", "--kind", "rs", "--n", "five", "--output", at("x.json")],
        ["gen", "--kind", "rs", "--n", "5"],
        ["gen", "--kind", "rs", "--n", "5", "--outp", at("x.json")],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "1,3",
         "--k", "2.5"],
        ["cluster", "--input", rs, "--format", "xml", "--objectives", "rs",
         "--slack", "1", "--k", "2"],
        ["cluster", "--input", rs, "--objectives", "rs,zz", "--slack", "1,3", "--k", "2"],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "1", "--k", "2"],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "1,x", "--k", "2"],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "2,1", "--k", "3"],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "1,3"],
        ["cluster", "--input", rs, "--objectives", "rs,kc", "--slack", "1,3",
         "--k", "2", "--first-center", "middle"],
        ["cluster", "--input", at("missing.json"), "--objectives", "rs",
         "--slack", "1", "--k", "2"],
        ["oracle", "--input", rs, "--objectives", "kc", "--k", "2"],
        ["bench", "--config", at("missing.json")],
        ["gen", "--kind", "rs", "--n", "5", "--output", at("no/dir/x.json")],
        # exit 2: infeasible instance
        ["cluster", "--input", iso, "--objectives", "rs", "--slack", "1", "--k", "1"],
    ]
    lines = []
    for argv in calls:
        before = _files_under(root)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        lines.append(f"{argv[:1]} rc={rc} out={_untimed(stdout.getvalue())!r}")
        for path in sorted(_files_under(root) - before):
            with open(path) as fh:
                text = fh.read()
            if path.endswith(".csv"):
                rows = list(csv.reader(io.StringIO(text)))
                col = rows[0].index("wall_ms")
                text = repr([row[:col] + row[col + 1:] for row in rows])
            lines.append(f"  {path}: {_untimed(text)!r}")
    return [line.replace(root, "<tmp>") for line in lines]


class TestCliPinned:
    """Exit code, stdout and files of every subcommand on fixed calls,
    pinned by digest."""

    def test_fixed_calls(self, tmp_path):
        lines = _pinned_cli_lines(str(tmp_path))
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "8fcb858f094e8ef68838707004dc2b17ee92de0d9e6060b2295803639360dea9",
            42,
        )
