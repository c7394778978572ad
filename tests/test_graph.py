import hashlib
import itertools
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


def _jaccard_sets(n: int, seed: int) -> list[set[str]]:
    """Random subsets of 12 tokens, of 0 to 6 draws each, so some are empty."""
    rng = random.Random(seed)
    tokens = [f"t{i}" for i in range(12)]
    return [{rng.choice(tokens) for _ in range(rng.randrange(7))} for _ in range(n)]


def test_jaccard_matrix_pinned():
    # pinned from the per-pair loop that built the matrix before
    sets = _jaccard_sets(80, 0)
    assert sum(not s for s in sets) >= 5
    H = make_instance(80, "jaccard", attr_sets=sets)
    digest = hashlib.sha256(H.dist.tobytes()).hexdigest()
    assert digest == "5f8b81c65c5ed467b734b17f93fa693a25cec50652d6f21cf11579969484a4cb"


@pytest.mark.parametrize("seed", range(5))
def test_jaccard_matrix_matches_pair_loop(seed):
    sets = _jaccard_sets(40, seed)
    want = np.zeros((40, 40))
    for u, v in itertools.combinations(range(40), 2):
        union = sets[u] | sets[v]
        want[u, v] = want[v, u] = 1.0 - len(sets[u] & sets[v]) / len(union) if union else 0.0
    got = make_instance(40, "jaccard", attr_sets=sets).dist
    assert got.tobytes() == want.tobytes()


def test_euclidean_345():
    H = make_instance(2, "euclidean", embeddings=[(0, 0), (3, 4)])
    assert H.dist[0, 1] == pytest.approx(5.0)


@pytest.mark.parametrize("d", [*range(1, 11), 16, 33])
def test_euclidean_matrix_matches_whole_broadcast(d, monkeypatch):
    # small blocks, so the matrix is built from many of them
    monkeypatch.setattr(graph, "EUCLIDEAN_BLOCK", 5000)
    n = 300
    pts = np.random.default_rng(d).normal(size=(n, d)) * 10.0 ** (np.arange(d) % 11)
    diff = pts[:, None, :] - pts[None, :, :]
    diff *= diff
    if d <= 7:
        # numpy sums a short axis in order
        want = np.sqrt(diff.sum(axis=2))
    else:
        # numpy sums a longer axis in pairwise lanes; the matrix keeps
        # coordinate order
        total = diff[:, :, 0].copy()
        for c in range(1, d):
            total += diff[:, :, c]
        want = np.sqrt(total)
    got = make_instance(n, "euclidean", embeddings=pts.tolist()).dist
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_euclidean_matrix_does_not_depend_on_block_size(n, monkeypatch):
    pts = np.random.default_rng(n).normal(size=(n, 3)).tolist()
    got = []
    for block in (1, n * n):  # one row per block, then a single block
        monkeypatch.setattr(graph, "EUCLIDEAN_BLOCK", block)
        got.append(make_instance(n, "euclidean", embeddings=pts).dist.tobytes())
    assert got[0] == got[1]


def test_euclidean_no_nodes():
    H = make_instance(0, "euclidean", embeddings=[])
    assert H.dist.shape == (0, 0)
    assert H.embeddings == ()


def test_euclidean_zero_length_embeddings():
    H = make_instance(4, "euclidean", embeddings=[()] * 4)
    assert H.dist.tobytes() == np.zeros((4, 4)).tobytes()
    assert H.embeddings == ((),) * 4


def test_euclidean_one_node():
    H = make_instance(1, "euclidean", embeddings=[(2.5, -1)])
    assert H.dist.tolist() == [[0.0]]
    assert H.embeddings == ((2.5, -1.0),)


def test_euclidean_integer_and_numeric_string_coordinates():
    H = make_instance(3, "euclidean", embeddings=[(0, 0), ("3", 4), (3, "0.5")])
    assert H.dist.tolist() == [[0.0, 5.0, 3.0413812651491097], [5.0, 0.0, 3.5], [3.0413812651491097, 3.5, 0.0]]
    assert H.embeddings == ((0.0, 0.0), (3.0, 4.0), (3.0, 0.5))
    assert all(type(x) is float for e in H.embeddings for x in e)


@pytest.mark.parametrize(
    "embeddings",
    [[(1e200, 0), (-1e200, 0)], [(float("inf"), 0), (0, 0)]],
    ids=["overflow", "infinite"],
)
def test_euclidean_out_of_range_coordinates_raise_only_instance_error(embeddings):
    # the suite turns warnings into errors, so a numpy RuntimeWarning fails here
    with pytest.raises(InstanceError, match="non-finite distance"):
        make_instance(2, "euclidean", embeddings=embeddings)


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


def test_missing_pairs_listed_from_one_array_pass(monkeypatch):
    n = 40
    m = np.full((n, n), np.nan)
    np.fill_diagonal(m, 0.0)
    m[0, :] = m[:, 0] = m[1, 3] = m[3, 1] = 1.0
    m[0, 0] = 0.0
    isnan = np.isnan
    calls = []
    monkeypatch.setattr(np, "isnan", lambda x: calls.append(1) or isnan(x))
    with pytest.raises(InstanceError) as exc:
        make_instance(n, "explicit", matrix=m)
    assert str(exc.value) == (
        "pairs neither listed nor covered by fill: "
        "[('1', '2'), ('1', '4'), ('1', '5'), ('1', '6'), ('1', '7')]"
    )
    # a fixed number of whole-matrix checks, not one per pair
    assert len(calls) <= 2


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


@pytest.mark.parametrize("threshold", [None, 0.5])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
def test_default_edges_match_the_bool_square(n, threshold):
    pts = np.random.default_rng(n).random((n, 2)).tolist()
    H = make_instance(n, "euclidean", embeddings=pts, edge_threshold=threshold)
    near = np.ones((n, n), dtype=bool) if threshold is None else H.dist <= threshold
    want = np.argwhere(np.triu(near, 1)).astype(np.int64)
    assert H.edges.shape == want.shape and np.array_equal(H.edges, want)
    assert H.edges.dtype == np.int64 and not H.edges.flags.writeable


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


def test_save_explicit_lists_every_pair_row_by_row(tmp_path):
    # node ids out of sorted order, and distances that need every digit
    rng = np.random.default_rng(5)
    pts = rng.random((30, 3))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    ids = [f"v{(7 * i) % 30}" for i in range(30)]
    H = instance_from_data(
        {
            "metric": "explicit",
            "nodes": [{"id": x, "expert": i % 4 == 0} for i, x in enumerate(ids)],
            "edges": [[ids[0], ids[1]], [ids[5], ids[2]]],
            "distances": [
                [ids[u], ids[v], float(d[u, v])] for u in range(30) for v in range(u + 1, 30)
            ],
        }
    )
    path = tmp_path / "explicit.json"
    save_instance(H, path)
    expected = {
        **instance_to_data(H),
        "distances": [
            [H.labels[u], H.labels[v], float(H.dist[u, v])]
            for u in range(H.n)
            for v in range(u + 1, H.n)
        ],
    }
    assert path.read_text() == json.dumps(expected, indent=1, sort_keys=True) + "\n"
    assert load_instance(str(path)) == H


@pytest.mark.parametrize("metric", ["explicit", "euclidean", "jaccard"])
@pytest.mark.parametrize("edges", ["some", "none"])
def test_save_writes_the_bytes_of_json_dump(tmp_path, metric, edges, monkeypatch):
    # a chunk smaller than the rows, so the rows span several chunks
    monkeypatch.setattr(graph, "_JSON_ROWS_CHUNK", 7)
    rng = np.random.default_rng(11)
    # ids with quotes, a backslash, control characters, and outside ASCII
    ids = ['a"b', "back\\slash", "tab\tnew\nline", "\x01", "é", "中文", "😀", "</p>", "9"]
    pts = rng.random((len(ids), 2)) * 10.0 ** rng.integers(-6, 6, size=(len(ids), 1))
    nodes = [{"id": x, "color": "BP"[i % 2], "expert": i % 3 == 0} for i, x in enumerate(ids)]
    doc = {"metric": metric, "nodes": nodes}
    if metric == "explicit":
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        doc["distances"] = [
            [ids[u], ids[v], float(d[u, v])] for u, v in itertools.combinations(range(len(ids)), 2)
        ]
    for nd, p in zip(nodes, pts):
        nd["embedding"] = p.tolist()
        nd["attrs"] = [nd["id"], "shared", "ü"]
    doc["edges"] = [[ids[u], ids[v]] for u, v in [(0, 3), (6, 2), (1, 8), (4, 5), (7, 0)]]
    if edges == "none":
        doc["edges"] = []
    H = instance_from_data(doc)
    path = tmp_path / "instance.json"
    save_instance(H, path)
    want = json.dumps(instance_to_data(H), indent=1, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()
    assert load_instance(str(path)) == H


def test_save_one_node_explicit(tmp_path):
    # no pair: the distance and edge lists are empty
    H = make_instance(1, "explicit", matrix=[[0.0]])
    path = tmp_path / "one.json"
    save_instance(H, path)
    assert path.read_text() == json.dumps(instance_to_data(H), indent=1, sort_keys=True) + "\n"
    assert '"distances": []' in path.read_text()


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


GENERATOR_GRID = list(
    itertools.product(
        ("rs", "f", "tf"), (2, 3, 4, 5, 7, 10, 20, 57, 100, 200, 333), range(8)
    )
)


class TestGeneratorPinned:
    """Every field of every instance that generate_instance makes on a
    fixed grid, pinned by digest."""

    def test_instances_grid(self):
        digest = hashlib.sha256()
        for kind, n, seed in GENERATOR_GRID:
            H = generate_instance(kind, n, seed)
            head = (
                kind, n, seed, H.labels, H.metric, H.colors, H.experts,
                H.embeddings, H.attr_sets,
                H.dist.shape, H.dist.dtype.str, H.dist.flags.writeable,
                H.edges.shape, H.edges.dtype.str, H.edges.flags.writeable,
            )
            digest.update(repr(head).encode())
            digest.update(H.dist.tobytes())
            digest.update(H.edges.tobytes())
        assert (digest.hexdigest(), len(GENERATOR_GRID)) == (
            "37808da212ae75a3652578dd1be310d8f37fbdca443d77198ebb51d340bc5c83",
            264,
        )
