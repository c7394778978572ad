"""Deterministic synthetic instance generators for tests and benchmarks.

Instances are uniform points in the unit square with the relation E drawn
randomly from the threshold-radius pairs, plus kind-specific attributes:
none for ``rs``,
random Blue/Purple colors with a guaranteed Blue-saturating matching for
``f``, random expert flags for ``tf``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError
from .graph import BLUE, EUCLIDEAN, PURPLE, GraphInstance, _edge_rows, make_instance


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
    H = make_instance(n, EUCLIDEAN, embeddings=rng.random((n, 2)).tolist(), edges=())
    # E is a sparse random subset of the threshold pairs (about average
    # degree four); keeping it well below the geometric density is what
    # makes the sharing relation informative rather than implied by
    # proximity
    close = np.argwhere(np.triu(H.dist <= _threshold(n), 1))
    edges = [close[rng.permutation(len(close))[: 2 * n]]]
    # no node may be isolated: RS needs an edge cover to exist, so each
    # isolated node gets an edge to its nearest other node
    isolated = np.flatnonzero(np.bincount(edges[0].ravel(), minlength=n) == 0)
    near = H.dist[isolated]
    near[np.arange(len(isolated)), isolated] = np.inf
    edges.append(np.column_stack((isolated, near.argmin(axis=1))))

    attrs = {}
    if kind == "f":
        is_blue = np.zeros(n, dtype=bool)
        is_blue[rng.permutation(n)[: max(1, n // 3)]] = True
        attrs["colors"] = tuple(np.where(is_blue, BLUE, PURPLE).tolist())
        # guarantee a Blue-saturating matching: pair each Blue, in id order,
        # with the nearest Purple no earlier Blue took (lowest id on ties)
        # and put those pairs into E
        blue, purple = np.flatnonzero(is_blue), np.flatnonzero(~is_blue)
        free = H.dist[np.ix_(blue, purple)]  # a copy: taken columns become inf
        partners = np.empty_like(blue)
        for i, row in enumerate(free):
            partners[i] = j = np.argmin(row)
            free[:, j] = np.inf
        edges.append(np.column_stack((blue, purple[partners])))
    elif kind == "tf":
        experts = np.zeros(n, dtype=bool)
        experts[rng.permutation(n)[: max(2, int(round(0.3 * n)))]] = True
        attrs["experts"] = tuple(experts.tolist())
    return dataclasses.replace(H, edges=_edge_rows(np.concatenate(edges), n), **attrs)
