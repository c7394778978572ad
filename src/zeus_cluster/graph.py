"""Immutable graph-instance model, distance metrics, and instance file I/O.

An instance is a set of nodes with a distance metric (explicit matrix,
Euclidean over embeddings, or Jaccard over attribute sets), an optional
relation ``E`` of node pairs, and optional per-node attributes (color,
expert flag).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass

import numpy as np

from .errors import InstanceError

EXPLICIT = "explicit"
EUCLIDEAN = "euclidean"
JACCARD = "jaccard"
METRICS = (EXPLICIT, EUCLIDEAN, JACCARD)

BLUE = "B"
PURPLE = "P"

# the metric audit checks every triple up to this many nodes, and beyond
# it this many triples drawn with this seed
AUDIT_ALL_TRIPLES_MAX_N = 500
AUDIT_SAMPLES = 20000
AUDIT_SEED = 0


@dataclass(frozen=True, eq=False)
class GraphInstance:
    """A clustering instance: nodes, metric, relation E, node attributes.

    Nodes are dense ids ``0..n-1``; ``labels`` maps them back to the
    original file ids. The full distance matrix is precomputed once.
    ``edges`` holds E once, as a read-only int64 array of shape (m, 2):
    each pair ``(u, v)`` with u < v, once, in sorted row order. Both
    arrays are frozen, so the instance is safe to share.
    """

    labels: tuple[str, ...]
    metric: str
    dist: np.ndarray
    edges: np.ndarray
    colors: tuple[str | None, ...]
    experts: tuple[bool, ...]
    embeddings: tuple[tuple[float, ...], ...] | None = None
    attr_sets: tuple[frozenset[str], ...] | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        self.dist.setflags(write=False)
        self.edges.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, GraphInstance):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.metric == other.metric
            and np.array_equal(self.dist, other.dist)
            and np.array_equal(self.edges, other.edges)
            and self.colors == other.colors
            and self.experts == other.experts
        )


@dataclass(frozen=True)
class MetricReport:
    """Result of a triangle-inequality audit of an instance."""

    is_metric: bool
    violations: tuple[tuple[int, int, int], ...]
    max_violation_ratio: float


def _edge_rows(edges, n: int) -> np.ndarray:
    """The canonical rows of a given E: each entry must be a pair of node
    ids in ``0..n-1``; self-loops are dropped, and every other pair is kept
    once, as ``(u, v)`` with u < v, in sorted row order."""
    edges = list(edges)
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    try:
        rows = np.array(edges)
    except ValueError:  # entries of different lengths
        rows = None
    if rows is None or rows.shape[1:] != (2,) or not np.issubdtype(rows.dtype, np.integer):
        raise InstanceError("every edge must be a pair of integer node ids")
    outside = ((rows < 0) | (rows >= n)).any(axis=1)
    if outside.any():
        u, v = rows[np.argmax(outside)].tolist()
        raise InstanceError(f"edge ({u},{v}) references unknown node")
    rows = rows[rows[:, 0] != rows[:, 1]]
    return np.unique(np.sort(rows, axis=1), axis=0).astype(np.int64)


def _build_instance(
    labels,
    metric,
    *,
    matrix=None,
    embeddings=None,
    attr_sets=None,
    edges=None,
    colors=None,
    experts=None,
    edge_threshold=None,
) -> GraphInstance:
    n = len(labels)
    if len(set(labels)) != n:
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise InstanceError(f"duplicate node id(s): {dupes}")
    if metric not in METRICS:
        raise InstanceError(f"unknown metric {metric!r}")

    if metric == EXPLICIT:
        if matrix is None:
            raise InstanceError("explicit metric requires a distance matrix")
        dist = np.array(matrix, dtype=float)  # a copy: the instance freezes it
        if dist.shape != (n, n):
            raise InstanceError(f"distance matrix must be {n}x{n}, got {dist.shape}")
        if np.isnan(dist).any():
            missing = [
                (labels[u], labels[v])
                for u in range(n)
                for v in range(u + 1, n)
                if np.isnan(dist[u, v])
            ]
            raise InstanceError(
                f"pairs neither listed nor covered by fill: {missing[:5]}"
            )
        if not np.allclose(dist, dist.T, rtol=0, atol=0):
            raise InstanceError("explicit distance matrix is asymmetric")
        if np.diag(dist).any():
            raise InstanceError("explicit distance matrix has non-zero diagonal")
    elif metric == EUCLIDEAN:
        if embeddings is None:
            raise InstanceError("euclidean metric requires embeddings")
        dims = {len(e) for e in embeddings}
        if len(embeddings) != n or len(dims) > 1:
            raise InstanceError("all nodes need embeddings of one dimension")
        pts = np.asarray(embeddings, dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
    else:  # jaccard
        if attr_sets is None or len(attr_sets) != n:
            raise InstanceError("jaccard metric requires an attr_set per node")
        dist = np.zeros((n, n))
        sets = [frozenset(s) for s in attr_sets]
        for u in range(n):
            for v in range(u + 1, n):
                union = sets[u] | sets[v]
                d = 0.0 if not union else 1.0 - len(sets[u] & sets[v]) / len(union)
                dist[u, v] = dist[v, u] = d

    if (dist < 0).any():
        raise InstanceError("negative distance")
    if not np.isfinite(dist).all():
        raise InstanceError("non-finite distance")
    np.fill_diagonal(dist, 0.0)

    if edges is None:
        # E defaults: all pairs within the declared threshold, or all pairs.
        near = np.ones((n, n), dtype=bool) if edge_threshold is None else dist <= edge_threshold
        edge_rows = np.argwhere(np.triu(near, 1)).astype(np.int64)
    else:
        edge_rows = _edge_rows(edges, n)

    colors = tuple(colors) if colors is not None else (None,) * n
    experts = tuple(bool(x) for x in experts) if experts is not None else (False,) * n
    for c in colors:
        if c not in (BLUE, PURPLE, None):
            raise InstanceError(f"invalid color {c!r}")
    if len(colors) != n or len(experts) != n:
        raise InstanceError("colors/experts length mismatch")

    return GraphInstance(
        labels=tuple(str(x) for x in labels),
        metric=metric,
        dist=dist,
        edges=edge_rows,
        colors=colors,
        experts=experts,
        embeddings=tuple(tuple(float(x) for x in e) for e in embeddings)
        if embeddings is not None
        else None,
        attr_sets=tuple(frozenset(str(t) for t in s) for s in attr_sets)
        if attr_sets is not None
        else None,
    )


def make_instance(
    n: int,
    metric: str = EXPLICIT,
    *,
    matrix=None,
    embeddings=None,
    attr_sets=None,
    edges=None,
    colors=None,
    experts=None,
    edge_threshold: float | None = None,
) -> GraphInstance:
    """Programmatic constructor with dense ids 0..n-1."""
    return _build_instance(
        [str(i) for i in range(n)],
        metric,
        matrix=matrix,
        embeddings=embeddings,
        attr_sets=attr_sets,
        edges=edges,
        colors=colors,
        experts=experts,
        edge_threshold=edge_threshold,
    )


def instance_from_data(data: dict) -> GraphInstance:
    """Build an instance from a parsed JSON document (see format docs)."""
    try:
        metric = data["metric"]
        node_specs = data["nodes"]
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"missing required field: {exc}") from exc
    if not isinstance(node_specs, list) or not node_specs:
        raise InstanceError("'nodes' must be a non-empty list")

    for nd in node_specs:
        if not isinstance(nd, dict) or "id" not in nd:
            raise InstanceError(f"node entry {nd!r} needs an 'id'")
    labels = [str(nd["id"]) for nd in node_specs]
    if len(set(labels)) != len(labels):
        raise InstanceError("duplicate node id in file")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    def number(x, what):
        try:
            return float(x)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"{what} {x!r} is not a number") from exc

    def node_list(nd, field, convert):
        x = nd.get(field)
        if isinstance(x, list):
            try:
                return [convert(v) for v in x]
            except (TypeError, ValueError):
                pass
        raise InstanceError(
            f"{metric} metric: node {nd['id']!r} needs a list '{field}', got {x!r}"
        )

    colors = [nd.get("color") for nd in node_specs]
    experts = [bool(nd.get("expert", False)) for nd in node_specs]
    embeddings = None
    attr_sets = None
    if metric == EUCLIDEAN:
        embeddings = [node_list(nd, "embedding", float) for nd in node_specs]
    if metric == JACCARD:
        attr_sets = [node_list(nd, "attrs", str) for nd in node_specs]

    def node_of(x):
        key = str(x)
        if key not in index:
            raise InstanceError(f"unknown node id {key!r}")
        return index[key]

    def pair_of(entry, what, size):
        if not isinstance(entry, (list, tuple)) or len(entry) < size:
            raise InstanceError(f"{what} entry {entry!r} needs {size} fields")
        return node_of(entry[0]), node_of(entry[1])

    def entries(field):
        raw = data.get(field)
        if raw is not None and not isinstance(raw, list):
            raise InstanceError(f"'{field}' must be a list, got {raw!r}")
        return raw

    edges = None
    raw_edges = entries("edges")
    if raw_edges is not None:
        edges = [pair_of(e, "edge", 2) for e in raw_edges]
    threshold = data.get("edge_threshold")
    if threshold is not None:
        threshold = number(threshold, "edge_threshold")

    matrix = None
    fill = data.get("fill")
    if metric == EXPLICIT:
        matrix = np.full((n, n), np.nan if fill is None else number(fill, "fill"))
        np.fill_diagonal(matrix, 0.0)

        def put(u, v, w):
            w = number(w, "distance")
            if w < 0:
                raise InstanceError(f"negative distance for pair ({u},{v})")
            matrix[u, v] = matrix[v, u] = w

        for entry in entries("distances") or []:
            put(*pair_of(entry, "distance", 3), entry[2])
        if raw_edges is not None:
            for e in raw_edges:
                if len(e) >= 3:
                    put(node_of(e[0]), node_of(e[1]), e[2])

    return _build_instance(
        labels,
        metric,
        matrix=matrix,
        embeddings=embeddings,
        attr_sets=attr_sets,
        edges=edges,
        colors=colors,
        experts=experts,
        edge_threshold=threshold,
    )


def load_instance(path: str, fmt: str = "json", fill: float | None = None) -> GraphInstance:
    """Load an instance file.

    Parameters
    ----------
    path : str
        File to read.
    fmt : {'json', 'csv-edges'}
        File format. CSV edge lists have a ``u,v,weight`` header and
        require a ``fill`` distance for unlisted pairs.
    fill : float, optional
        Fill distance for the csv-edges format.
    """
    if fmt not in ("json", "csv-edges"):
        raise InstanceError(f"unknown format {fmt!r}")
    if fmt == "csv-edges" and fill is None:
        raise InstanceError("csv-edges format requires a fill distance")
    try:
        with open(path, newline="" if fmt == "csv-edges" else None) as fh:
            if fmt == "json":
                data = json.load(fh)
            else:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or not {"u", "v", "weight"} <= set(
                    reader.fieldnames
                ):
                    raise InstanceError("csv-edges header must be u,v,weight")
                rows = [(row["u"], row["v"], float(row["weight"])) for row in reader]
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or a weight that is not a number
        raise InstanceError(f"cannot parse {path}: {exc}") from exc
    if fmt == "json":
        return instance_from_data(data)
    labels = dict.fromkeys(x for u, v, _ in rows for x in (u, v))
    data = {
        "metric": EXPLICIT,
        "fill": fill,
        "nodes": [{"id": x} for x in labels],
        "edges": [[u, v, w] for u, v, w in rows],
    }
    return instance_from_data(data)


def instance_to_data(H: GraphInstance) -> dict:
    """Serialize an instance back to the JSON document schema."""
    nodes = []
    for i, lab in enumerate(H.labels):
        nd: dict = {"id": lab}
        if H.colors[i] is not None:
            nd["color"] = H.colors[i]
        if H.experts[i]:
            nd["expert"] = True
        if H.embeddings is not None:
            nd["embedding"] = list(H.embeddings[i])
        if H.attr_sets is not None:
            nd["attrs"] = sorted(H.attr_sets[i])
        nodes.append(nd)
    data: dict = {
        "metric": H.metric,
        "nodes": nodes,
        "edges": [[H.labels[u], H.labels[v]] for u, v in H.edges.tolist()],
    }
    if H.metric == EXPLICIT:
        data["distances"] = [
            [H.labels[u], H.labels[v], float(H.dist[u, v])]
            for u in range(H.n)
            for v in range(u + 1, H.n)
        ]
    return data


def save_instance(H: GraphInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_data(H), fh, indent=1, sort_keys=True)
        fh.write("\n")


def validate_metric(H: GraphInstance) -> MetricReport:
    """Audit the triangle inequality.

    Checks all ordered triples when ``n <= AUDIT_ALL_TRIPLES_MAX_N``,
    otherwise a sample of ``AUDIT_SAMPLES`` triples seeded by ``AUDIT_SEED``.
    """
    n = H.n
    d = H.dist
    violations: list[tuple[int, int, int]] = []
    worst = 1.0
    if n <= AUDIT_ALL_TRIPLES_MAX_N:
        # one pivot u at a time: [v, w] is the triple (u, v, w), row-major
        for u in range(n):
            rhs = d[u][:, None] + d
            bad = d[u][None, :] > rhs + 1e-12
            bad[u, :] = bad[:, u] = False
            np.fill_diagonal(bad, False)
            vs, ws = np.nonzero(bad)
            if len(vs):
                violations += [(u, v, w) for v, w in zip(vs.tolist(), ws.tolist())]
                sums = rhs[vs, ws]
                worst = max(worst, np.inf if (sums == 0).any() else (d[u, ws] / sums).max())
    else:
        rng = random.Random(AUDIT_SEED)
        for _ in range(AUDIT_SAMPLES):
            u, v, w = rng.sample(range(n), 3)
            lhs = d[u, w]
            rhs = d[u, v] + d[v, w]
            if lhs > rhs + 1e-12:
                violations.append((u, v, w))
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
                else:
                    worst = float("inf")
    return MetricReport(
        is_metric=not violations,
        violations=tuple(violations),
        max_violation_ratio=worst if violations else 1.0,
    )
