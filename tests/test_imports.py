"""What importing and running the package pulls in.

Each check runs in a fresh interpreter, so modules that other tests have
already imported do not hide anything.
"""

import os
import subprocess
import sys
import textwrap

import zeus_cluster

SRC = os.path.dirname(os.path.dirname(os.path.abspath(zeus_cluster.__file__)))


def run_python(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_graph_library():
    # scipy.sparse.csgraph is imported where a matching first runs, not
    # at import: loading it takes longer than the package itself
    out = run_python(
        """
        import sys
        import zeus_cluster, zeus_cluster.graph, zeus_cluster.zeus, zeus_cluster.bench
        print(sorted(m for m in ("networkx", "scipy.sparse.csgraph") if m in sys.modules))
        """
    )
    assert out.strip() == "[]"


def test_resource_sharing_runs_load_no_graph_library():
    # the rs stars are labelled from their hubs, so the bench's rs,kc
    # shape never needs a component search
    out = run_python(
        """
        import sys
        from zeus_cluster import ObjectiveSpec, ProblemSpec, SlackVector, generate_instance, zeus_run
        from zeus_cluster.baselines import baseline_b1, baseline_b2, baseline_moc_path

        H = generate_instance("rs", 40, 0)
        objectives = (ObjectiveSpec("rs"), ObjectiveSpec("kc"))
        spec = ProblemSpec(objectives, SlackVector((1.0, 3.0)), 3)
        zeus_run(H, spec)
        baseline_b1(H, spec)
        baseline_b2(H, 3, spec.options)
        baseline_moc_path(H, objectives, (2, 3))
        print(sorted(m for m in ("networkx", "scipy.sparse.csgraph") if m in sys.modules))
        """
    )
    assert out.strip() == "[]"


def test_jaccard_instance_loads_no_graph_library():
    # the Jaccard intersections come from a scipy.sparse product, which
    # needs no csgraph
    out = run_python(
        """
        import sys
        from zeus_cluster.graph import make_instance

        H = make_instance(4, "jaccard", attr_sets=[{"a"}, {"a", "b"}, set(), {"c"}])
        print(H.dist[0, 1], sorted(m for m in ("networkx", "scipy.sparse.csgraph") if m in sys.modules))
        """
    )
    assert out.strip() == "0.5 []"


def test_fairness_and_team_runs_without_networkx():
    out = run_python(
        """
        import importlib.abc, sys

        class Refuse(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if name.split(".")[0] == "networkx":
                    raise ImportError(f"{name} is not available")
                return None

        sys.meta_path.insert(0, Refuse())
        from zeus_cluster import ObjectiveSpec, ProblemSpec, SlackVector, generate_instance, zeus_run

        for kind in ("f", "tf"):
            H = generate_instance(kind, 30, 0)
            spec = ProblemSpec(
                (ObjectiveSpec(kind), ObjectiveSpec("kc")), SlackVector((1.0, 3.0)), 3
            )
            C, _ = zeus_run(H, spec)
            print(kind, C.k)
        print("networkx" in sys.modules)
        """
    )
    assert out.split() == ["f", "3", "tf", "3", "False"]


def test_cli_runs_without_click(tmp_path):
    out = run_python(
        f"""
        import contextlib, importlib.abc, io, sys

        class Refuse(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if name.split(".")[0] == "click":
                    raise ImportError(f"{{name}} is not available")
                return None

        sys.meta_path.insert(0, Refuse())
        from zeus_cluster.cli import main

        path = {str(tmp_path / "g.json")!r}
        calls = [
            ["gen", "--kind", "rs", "--n", "12", "--output", path],
            ["cluster", "--input", path, "--objectives", "rs,kc", "--slack", "1,3", "--k", "2"],
            ["--help"],
            ["cluster", "--input", path, "--objectives", "rs", "--slack", "1", "--k", "two"],
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv in calls]
        print(*codes, "click" in sys.modules)
        """
    )
    assert out.split() == ["0", "0", "0", "1", "False"]
