"""Deterministic synthetic instance generators for tests and benchmarks.

Instances are uniform points in the unit square with the relation E drawn
randomly from the threshold-radius pairs, plus kind-specific attributes:
none for ``rs``,
random Blue/Purple colors with a guaranteed Blue-saturating matching for
``f``, random expert flags for ``tf``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .graph import BLUE, PURPLE, GraphInstance, _build_instance


def _threshold(n: int) -> float:
    # connectivity-scale radius for uniform points in the unit square
    return math.sqrt(2.0 * math.log(max(n, 2)) / max(n, 2))


def generate_instance(kind: str, n: int, seed: int) -> GraphInstance:
    """Generate an ``rs``, ``f``, or ``tf`` instance with n nodes."""
    if kind not in ("rs", "f", "tf"):
        raise ConfigError(f"unknown instance kind {kind!r}")
    if n < 2:
        raise ConfigError("n must be >= 2")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    r = _threshold(n)
    iu, iv = np.triu_indices(n, k=1)
    close = dist[iu, iv] <= r
    cand = [(int(u), int(v)) for u, v in zip(iu[close], iv[close])]
    # E is a sparse random subset of the threshold pairs (about average
    # degree four); keeping it well below the geometric density is what
    # makes the sharing relation informative rather than implied by
    # proximity
    keep = rng.permutation(len(cand))[: min(len(cand), 2 * n)]
    edges = {cand[int(i)] for i in keep}
    # no node may be isolated: RS needs an edge cover to exist
    degree = np.zeros(n, dtype=int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for u in np.flatnonzero(degree == 0):
        v = int(np.argsort(dist[u])[1])
        edges.add((min(int(u), v), max(int(u), v)))

    colors = None
    experts = None
    if kind == "f":
        blue_count = max(1, n // 3)
        ids = rng.permutation(n)
        blue = sorted(int(x) for x in ids[:blue_count])
        purple = sorted(int(x) for x in ids[blue_count:])
        colors = [None] * n
        for u in blue:
            colors[u] = BLUE
        for v in purple:
            colors[v] = PURPLE
        # guarantee a Blue-saturating matching: pair each Blue with a
        # distinct nearest unused Purple and put those pairs into E
        used: set[int] = set()
        for u in blue:
            candidates = sorted(purple, key=lambda v: (dist[u, v], v))
            v = next(x for x in candidates if x not in used)
            used.add(v)
            edges.add((min(u, v), max(u, v)))
    elif kind == "tf":
        expert_count = max(2, int(round(0.3 * n)))
        ids = rng.permutation(n)
        experts = [False] * n
        for x in ids[:expert_count]:
            experts[int(x)] = True

    return _build_instance(
        [str(i) for i in range(n)],
        "euclidean",
        embeddings=[tuple(float(x) for x in p) for p in pts],
        edges=sorted(edges),
        colors=colors,
        experts=experts,
    )

