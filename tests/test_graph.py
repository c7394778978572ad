import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit, line_points, neighbours
from zeus_cluster import graph
from zeus_cluster.errors import InstanceError
from zeus_cluster.graph import (
    instance_from_data,
    instance_to_data,
    load_instance,
    make_instance,
    save_instance,
    validate_metric,
)
from zeus_cluster.synth import generate_instance


def test_fill_distance_applies_to_unlisted_pairs(tmp_path):
    doc = {
        "metric": "explicit",
        "fill": 67,
        "nodes": [{"id": c} for c in "abcdef"],
        "distances": [["a", "b", 1], ["b", "c", 2]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    H = load_instance(str(path))
    assert H.n == 6
    assert H.dist[0, 1] == 1
    assert H.dist[1, 2] == 2
    assert H.dist[0, 5] == 67
    assert H.dist[3, 4] == 67


def test_single_node_instance(tmp_path):
    doc = {"metric": "explicit", "nodes": [{"id": "only"}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    H = load_instance(str(path))
    assert H.n == 1
    assert H.dist[0, 0] == 0.0


def test_euclidean_line_file(tmp_path):
    doc = {
        "metric": "euclidean",
        "nodes": [
            {"id": "a", "embedding": [0]},
            {"id": "b", "embedding": [3]},
            {"id": "c", "embedding": [4]},
        ],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    H = load_instance(str(path))
    assert H.dist[0, 1] == 3
    assert H.dist[1, 2] == 1
    assert H.dist[0, 2] == 4


def test_jaccard_distance():
    H = make_instance(
        2, "jaccard", attr_sets=[{"x", "y"}, {"y", "z"}]
    )
    assert H.dist[0, 1] == pytest.approx(2 / 3)


def test_jaccard_empty_sets_distance_zero():
    H = make_instance(2, "jaccard", attr_sets=[set(), set()])
    assert H.dist[0, 1] == 0.0


def test_euclidean_345():
    H = make_instance(2, "euclidean", embeddings=[(0, 0), (3, 4)])
    assert H.dist[0, 1] == pytest.approx(5.0)


def test_explicit_lookup():
    m = np.full((6, 6), 1.0)
    np.fill_diagonal(m, 0.0)
    m[2, 5] = m[5, 2] = 7.0
    H = explicit(m)
    assert H.dist[2, 5] == 7.0


def test_explicit_matrix_is_copied():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    before = m.copy()
    H1 = make_instance(3, "explicit", matrix=m)
    H2 = make_instance(3, "explicit", matrix=m)
    assert H1.dist is not m and H2.dist is not m
    assert m.flags.writeable
    assert np.array_equal(m, before)
    assert H1 == H2


def test_asymmetric_matrix_rejected():
    with pytest.raises(InstanceError, match="asymmetric"):
        explicit([[0, 1], [2, 0]])


def test_negative_distance_rejected():
    with pytest.raises(InstanceError):
        explicit([[0, -1], [-1, 0]])


def test_duplicate_node_id_rejected():
    doc = {"metric": "explicit", "fill": 1, "nodes": [{"id": "a"}, {"id": "a"}]}
    with pytest.raises(InstanceError, match="duplicate"):
        instance_from_data(doc)


def test_missing_pair_without_fill_rejected():
    doc = {
        "metric": "explicit",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "distances": [["a", "b", 1]],
    }
    with pytest.raises(InstanceError, match="fill"):
        instance_from_data(doc)


def test_unknown_metric_rejected():
    doc = {"metric": "hamming", "nodes": [{"id": "a"}]}
    with pytest.raises(InstanceError):
        instance_from_data(doc)


def test_neighbors_triangle(triangle):
    assert neighbours(triangle, 0) == {1, 2}


def test_neighbors_isolated_and_path():
    H = explicit(
        [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 2], [2, 2, 2, 0]],
        edges=[(0, 1), (1, 2)],
    )
    assert neighbours(H, 1) == {0, 2}
    assert neighbours(H, 3) == set()


def test_edge_threshold_default_relation():
    H = line_points([0, 1, 10], edge_threshold=2.0)
    assert neighbours(H, 0) == {1}
    assert neighbours(H, 2) == set()


def test_all_pairs_default_relation():
    H = line_points([0, 1, 10])
    assert neighbours(H, 0) == {1, 2}


def test_edges_are_canonical_rows():
    # reversed, duplicate and self-loop entries
    H = line_points([0, 1, 2, 3], edges=[(2, 1), (1, 2), (3, 0), (1, 1), (0, 3), (0, 2)])
    assert H.edges.tolist() == [[0, 2], [0, 3], [1, 2]]
    assert H.edges.dtype == np.int64 and not H.edges.flags.writeable
    assert line_points([0, 1], edges=[]).edges.shape == (0, 2)
    assert line_points([0, 1], edges=[(1, 1)]).edges.shape == (0, 2)
    assert line_points([0, 1, 2]).edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert line_points([0, 1, 5], edge_threshold=4).edges.tolist() == [[0, 1], [1, 2]]


def test_instance_is_unhashable_and_compares_by_value():
    H = generate_instance("rs", 10, 0)
    with pytest.raises(TypeError, match="unhashable type: 'GraphInstance'"):
        hash(H)
    assert H == generate_instance("rs", 10, 0)
    assert H != generate_instance("rs", 10, 1)
    assert H != line_points(range(10))


@pytest.mark.parametrize("entry", [(7, 7), (-1, 0), (0, 3), (0, 1, 2), (0,), (0.0, 1.0), ("0", "1")])
def test_bad_edge_entry_rejected(entry):
    with pytest.raises(InstanceError):
        line_points([0, 1, 2], edges=[(0, 1), entry])
    with pytest.raises(InstanceError):
        line_points([0, 1, 2], edges=[entry, entry])


def test_validate_metric_euclidean_clean():
    H = line_points([0, 1, 5, 9])
    report = validate_metric(H)
    assert report.is_metric
    assert report.violations == ()


def test_validate_metric_flags_violation():
    H = explicit([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    report = validate_metric(H)
    assert not report.is_metric
    assert (0, 1, 2) in report.violations
    assert report.max_violation_ratio == pytest.approx(5.0)


def test_validate_metric_single_node():
    H = explicit([[0]])
    assert validate_metric(H).is_metric


def _triangle_audit_by_loop(d, triples):
    violations, worst = [], 1.0
    for u, v, w in triples:
        lhs, rhs = d[u, w], d[u, v] + d[v, w]
        if lhs > rhs + 1e-12:
            violations.append((u, v, w))
            worst = max(worst, lhs / rhs) if rhs > 0 else float("inf")
    return tuple(violations), worst if violations else 1.0


@pytest.mark.parametrize("seed", range(12))
def test_validate_metric_matches_triple_loop(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = rng.choice([0.0, 0.5, 1.0, 2.5, 7.0], size=(n, n)) * rng.random((n, n))
    m = np.triu(m, 1)
    if seed % 3 == 0:
        m[0, 1] = 0.0  # a zero distance makes an infinite ratio
    H = explicit(m + m.T)
    d = H.dist
    triples = [
        (u, v, w)
        for u in range(n)
        for v in range(n)
        for w in range(n)
        if len({u, v, w}) == 3
    ]
    report = validate_metric(H)
    assert (report.violations, report.max_violation_ratio) == _triangle_audit_by_loop(d, triples)
    assert report.is_metric == (not report.violations)
    rng_s = random.Random(3)
    sampled = [tuple(rng_s.sample(range(n), 3)) for _ in range(50)]
    monkeypatch.setattr(graph, "AUDIT_ALL_TRIPLES_MAX_N", 2)
    monkeypatch.setattr(graph, "AUDIT_SAMPLES", 50)
    monkeypatch.setattr(graph, "AUDIT_SEED", 3)
    report = validate_metric(H)
    assert (report.violations, report.max_violation_ratio) == _triangle_audit_by_loop(d, sampled)


def test_round_trip(tmp_path):
    H = generate_instance("f", 12, 7)
    path = tmp_path / "rt.json"
    save_instance(H, path)
    H2 = load_instance(str(path))
    assert H2.labels == H.labels
    assert np.array_equal(H2.edges, H.edges)
    assert H2.colors == H.colors
    assert np.allclose(H2.dist, H.dist)
    # serialize again: stable
    assert instance_to_data(H2)["edges"] == instance_to_data(H)["edges"]


def test_csv_edges_format(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,weight\na,b,1\nb,c,2\n")
    H = load_instance(str(path), fmt="csv-edges", fill=9.0)
    assert H.n == 3
    assert H.dist[0, 1] == 1
    assert H.dist[0, 2] == 9.0
    with pytest.raises(InstanceError):
        load_instance(str(path), fmt="csv-edges")


@pytest.mark.parametrize("fmt", ["json", "csv-edges"])
def test_unreadable_file_is_instance_error(tmp_path, fmt):
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(str(tmp_path / "absent"), fmt=fmt, fill=1.0)
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(str(tmp_path), fmt=fmt, fill=1.0)  # a directory


def test_non_numeric_distance_rejected():
    doc = {
        "metric": "explicit",
        "nodes": [{"id": "a"}, {"id": "b"}],
        "distances": [["a", "b", "x"]],
    }
    with pytest.raises(InstanceError, match="not a number"):
        instance_from_data(doc)


@pytest.mark.parametrize(
    "field, entry",
    [
        # an entry of a list field
        ("nodes", {"color": "blue"}),
        ("nodes", "a"),
        ("edges", ["a"]),
        ("distances", ["a", "b"]),
        # a whole field
        ("edges", 5),
        ("distances", 7),
        ("fill", "x"),
        ("edge_threshold", "z"),
        # a field of every node
        ("embedding", [0, "q"]),
        ("attrs", 5),
    ],
)
def test_malformed_entry_is_named(field, entry):
    doc = {"metric": "explicit", "fill": 1.0, "nodes": [{"id": "a"}, {"id": "b"}]}
    if field in ("embedding", "attrs"):
        doc["metric"] = "euclidean" if field == "embedding" else "jaccard"
        doc["nodes"] = [{"id": x, field: entry} for x in "ab"]
    elif field in ("nodes", "edges", "distances") and not isinstance(entry, int):
        doc.setdefault(field, []).append(entry)
    else:
        doc[field] = entry
    with pytest.raises(InstanceError, match=re.escape(repr(entry))) as info:
        instance_from_data(doc)
    # list entries are named by their singular: "node", "edge", "distance"
    assert field.removesuffix("s") in str(info.value)


def test_csv_edges_non_numeric_weight(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,weight\na,b,x\n")
    with pytest.raises(InstanceError, match="cannot parse"):
        load_instance(str(path), fmt="csv-edges", fill=9.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10))
def test_distance_symmetry_and_identity(n, seed):
    H = generate_instance("rs", n, seed)
    for u in range(H.n):
        assert H.dist[u, u] == 0.0
        for v in range(u + 1, H.n):
            assert H.dist[u, v] == H.dist[v, u]
            assert H.dist[u, v] >= 0.0


def test_synthetic_metrics_pass_triangle_check():
    for seed in range(3):
        H = generate_instance("rs", 15, seed)
        assert validate_metric(H).is_metric
