"""The benchmark's own tests: its checks catch corrupted outputs, and a
tiny-size run of every workload completes with no failed operation.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, inputs, run, workloads  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def program():
    run.import_program()
    return run.load_program()


def prepared(program, name, seed=5):
    wl = workloads.make(name, seed, workloads.TINY, os.path.join(ROOT, ".perfbench_out"))
    wl.prepare(program, [inputs.build(program.make_instance, raw) for raw in wl.raws])
    return wl


def first_op(wl, objectives):
    i = next(i for i, c in enumerate(wl.cells) if c.objectives == objectives)
    call, check = wl.operations()[i]
    out = call()
    check(out)  # the untouched output passes
    return i, out


def with_assignment(C, moves):
    assign = dict(C.assignment)
    assign.update(moves)
    return replace(C, assignment=assign)


def test_split_atom_is_rejected(program):
    wl = prepared(program, "kmedian")
    i, (C, state) = first_op(wl, ("rs", "km"))
    atom = next(a for a in C.atoms if len(a) >= 2 and C.centers[C.assignment[a[0]]] not in a)
    other = (C.assignment[atom[0]] + 1) % C.k
    split = with_assignment(C, {atom[-1]: other})
    with pytest.raises(CheckFailed, match="split"):
        wl.check(i, (split, state))


def test_wrong_cover_radius_is_rejected(program):
    wl = prepared(program, "kmedian")
    i, (C, state) = first_op(wl, ("rs", "km"))
    pairs = state.pair_structures[0]
    state.pair_structures[0] = replace(pairs, realized_radius=pairs.realized_radius * 1.01)
    with pytest.raises(CheckFailed, match="cover radius"):
        wl.check(i, (C, state))


def test_wrong_matching_radius_is_rejected(program):
    wl = prepared(program, "flow")
    i, (C, state) = first_op(wl, ("f", "kc"))
    ref = wl.refs[wl.cells[i].instance]
    assign = np.array([C.assignment[u] for u in range(ref.n)])
    pairs = state.pair_structures[0]
    checks.matching(ref, pairs.pairs, pairs.realized_radius, assign, False)
    with pytest.raises(CheckFailed, match="matching radius"):
        checks.matching(ref, pairs.pairs, pairs.realized_radius * 1.01, assign, False)


def test_blue_away_from_partner_is_rejected(program):
    wl = prepared(program, "flow")
    i, (C, state) = first_op(wl, ("f", "kc"))
    ref = wl.refs[wl.cells[i].instance]
    pairs = state.pair_structures[0]
    blue, purple = next(
        (u, v) if ref.raw.colors[u] == inputs.BLUE else (v, u) for u, v in sorted(pairs.pairs)
    )
    assign = np.array([C.assignment[u] for u in range(ref.n)])
    assign[blue] = (assign[purple] + 1) % C.k
    with pytest.raises(CheckFailed, match="partner"):
        checks.matching(ref, pairs.pairs, pairs.realized_radius, assign, False)


def test_wrong_traced_value_is_rejected(program):
    wl = prepared(program, "kmedian")
    i, (C, state) = first_op(wl, ("rs", "km"))
    state.trace[-1]["value"] *= 1.01
    with pytest.raises(CheckFailed, match="traced"):
        wl.check(i, (C, state))


def test_unbalanced_teams_are_rejected(program):
    wl = prepared(program, "flow")
    i, (C, state) = first_op(wl, ("tf", "kc"))
    ref = wl.refs[wl.cells[i].instance]
    assign = np.array([C.assignment[u] for u in range(ref.n)])
    movers = [u for u in range(ref.n) if ref.raw.experts[u] and assign[u] != 0]
    assign[movers[:3]] = 0
    with pytest.raises(CheckFailed, match="unbalanced"):
        checks.balanced_teams(ref, assign, C.k)


def test_improvable_kmedian_centers_are_rejected():
    # two groups on a line; both centers in the left one
    pts = np.array([[0.0, 0], [0.01, 0], [0.02, 0], [0.9, 0], [0.91, 0], [0.92, 0]])
    raw = inputs.RawInstance("rs", pts, [(0, 1), (3, 4)], None, None, 0.1)
    ref = checks.Reference(raw)
    checks.swap_optimal(ref, range(6), [1.0] * 6, [1, 4])
    with pytest.raises(CheckFailed, match="swapping center"):
        checks.swap_optimal(ref, range(6), [1.0] * 6, [0, 1])


def test_non_nested_moc_is_rejected(program):
    wl = prepared(program, "compare")
    call, check = wl.operations()[0]
    records, written = call()
    check((records, written))
    ref = wl.refs[0]
    rec = next(r for r in records if r.algorithm == "moc" and r.k == 3)
    assign, centers, _ = checks.parse_clustering(rec.clustering_json, ref.n)
    # exchange two non-center nodes of different blocks: still a valid
    # 3-clustering, with its values recorded, but no longer nested
    u = next(x for x in range(ref.n) if assign[x] == 0 and x not in centers)
    v = next(x for x in range(ref.n) if assign[x] == 1 and x not in centers)
    assign[u], assign[v] = 1, 0
    blocks = [[str(x) for x in range(ref.n) if assign[x] == b] for b in range(3)]
    rec.clustering_json = json.dumps(
        {"k": 3, "blocks": blocks, "centers": {str(b): str(c) for b, c in enumerate(centers)}}
    )
    rec.values["o1_rs"] = checks.rs_value(ref, assign)
    rec.values["o2_kc"] = checks.kcenter_value(ref, assign, centers)
    with pytest.raises(CheckFailed, match="coarsening"):
        check((records, written))


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_has_no_failures(name, trace, capsys):
    code = run.main(
        ["--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
