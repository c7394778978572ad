"""Objective evaluation, lexicographic comparison, and slack validity.

Five objective kinds are supported: ``kc`` (k-center, minimize), ``km``
(k-median, minimize), ``rs`` (resource sharing, maximize), ``f``
(fairness, maximize), and ``tf`` (team formation, minimize toward 1).
An objective's value is a plain float; its direction comes from its kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, ZeusError
from .graph import BLUE, PURPLE, GraphInstance

KC = "kc"
KM = "km"
RS = "rs"
F = "f"
TF = "tf"
KINDS = (KC, KM, RS, F, TF)

REL_TOL = 1e-9


@dataclass(frozen=True)
class Clustering:
    """A partition of the nodes into blocks, with optional centers and atoms.

    ``assignment`` maps node id to block index. ``atoms`` are groups of
    nodes that must stay co-clustered through later pipeline stages;
    ``roots`` holds each atom's anchor node (star center, matched-pair
    representative, or the node itself for singletons).
    """

    assignment: dict[int, int]
    k: int
    centers: dict[int, int] | None = None
    atoms: tuple[tuple[int, ...], ...] = ()
    roots: tuple[int, ...] = ()

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for u in sorted(self.assignment):
            out[self.assignment[u]].append(u)
        return out

    def validate(self, n: int) -> None:
        if sorted(self.assignment) != list(range(n)):
            raise ZeusError("assignment does not cover all nodes exactly once")
        blocks = self.blocks()
        if any(not b for b in blocks):
            raise ZeusError("finalized clustering has an empty block")
        if self.centers is not None:
            for b, c in self.centers.items():
                if self.assignment.get(c) != b:
                    raise ZeusError(f"center {c} not inside its block {b}")
        if len(self.atoms) != len(self.roots):
            raise ZeusError("atoms/roots length mismatch")
        for atom, root in zip(self.atoms, self.roots):
            if root not in atom:
                raise ZeusError(f"root {root} outside its atom {atom}")
            blocks_hit = {self.assignment[u] for u in atom}
            if len(blocks_hit) > 1:
                raise ZeusError(f"atom {atom} spans blocks {sorted(blocks_hit)}")


def singleton_clustering(n: int) -> Clustering:
    """Each node in its own block and its own atom."""
    return Clustering(
        assignment={u: u for u in range(n)},
        k=n,
        centers={u: u for u in range(n)},
        atoms=tuple((u,) for u in range(n)),
        roots=tuple(range(n)),
    )


def clustering_to_json(H: GraphInstance, C: Clustering) -> str:
    """Canonical JSON form of a clustering (used for determinism checks)."""
    doc = {
        "k": C.k,
        "blocks": [[H.labels[u] for u in b] for b in C.blocks()],
        "centers": {str(b): H.labels[c] for b, c in sorted((C.centers or {}).items())},
    }
    return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class ObjectiveSpec:
    """One entry of the ordered objective list O."""

    kind: str
    gamma: int = 1
    alpha: int = 1
    beta: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        for name in ("gamma", "alpha", "beta"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def maximize(self) -> bool:
        return self.kind in (RS, F)


@dataclass(frozen=True)
class OptimalEstimate:
    """A proof-backed lower bound (or exact value) on the optimal objective value."""

    kind: str  # 'exact' | 'lower_bound'
    value: float


@dataclass(frozen=True)
class SlackVector:
    deltas: tuple[float, ...]

    def validate(self, objectives, allow_infeasible: bool = False) -> None:
        if len(self.deltas) != len(objectives):
            raise ConfigError("slack vector length must equal objective count")
        for d, o in zip(self.deltas, objectives):
            if math.isnan(d):
                raise ConfigError("slack is not a number")
            if d < 0:
                raise ConfigError(f"slack {d} is negative")
            if allow_infeasible:
                continue
            if o.maximize and d > 1:
                raise ConfigError(
                    f"slack {d} > 1 is infeasible for maximization objective {o.kind}"
                )
            if o.kind == KC and d < 2:
                raise ConfigError(f"slack {d} < 2 is infeasible for k-center")


@dataclass(frozen=True)
class PairStructure:
    """Auxiliary edge set E' produced by a makeshift, with its max weight."""

    pairs: frozenset[tuple[int, int]]
    realized_radius: float


def rel_close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def eval_kcenter(H: GraphInstance, C: Clustering) -> float:
    """Max distance of any node to its own block's center."""
    if C.centers is None:
        raise ZeusError("k-center evaluation requires centers")
    worst = 0.0
    for u, b in C.assignment.items():
        worst = max(worst, H.dist[u, C.centers[b]])
    return float(worst)


def eval_kmedian(H: GraphInstance, C: Clustering) -> float:
    """Sum of distances of nodes to their own block's center."""
    if C.centers is None:
        raise ZeusError("k-median evaluation requires centers")
    total = sum(H.dist[u, C.centers[b]] for u, b in C.assignment.items())
    return float(total)


def eval_resource_sharing(H: GraphInstance, C: Clustering) -> float:
    """Fraction of nodes with at least one E-neighbor in their own block."""
    nodes = list(C.assignment)
    # a node outside the assignment gets a label no block has, and is
    # not counted
    label = np.full(H.n, min(C.assignment.values(), default=0) - 1)
    label[nodes] = list(C.assignment.values())
    u, v = H.edges.T
    shared = label[u] == label[v]
    covered = np.zeros(H.n, dtype=bool)
    covered[u[shared]] = covered[v[shared]] = True
    return int(covered[nodes].sum()) / max(1, len(nodes))


def blue_partners(H: GraphInstance, matched: PairStructure) -> dict[int, int]:
    """Blue node -> matched Purple partner; of several pairs, the last seen wins."""
    partner: dict[int, int] = {}
    for u, v in matched.pairs:
        if H.colors[u] == BLUE and H.colors[v] == PURPLE:
            partner[u] = v
        elif H.colors[v] == BLUE and H.colors[u] == PURPLE:
            partner[v] = u
    return partner


def eval_fairness(H: GraphInstance, C: Clustering, matched: PairStructure) -> float:
    """Fraction of Blue nodes whose matched Purple partner shares their block."""
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    if not blue:
        raise DegenerateInputError("fairness objective undefined with no Blue nodes")
    partner = blue_partners(H, matched)
    happy = sum(
        1
        for u in blue
        if u in partner and C.assignment.get(partner[u]) == C.assignment.get(u)
    )
    return happy / len(blue)


def eval_team_formation(H: GraphInstance, C: Clustering) -> float:
    """Ratio of max to min per-block expert count; +inf if a block has none."""
    X = {u for u in range(H.n) if H.experts[u]}
    if not X:
        raise DegenerateInputError("team formation requires a non-empty expert set")
    counts = [0] * C.k
    for u in X:
        if u in C.assignment:
            counts[C.assignment[u]] += 1
    if min(counts) == 0:
        return math.inf
    return max(counts) / min(counts)


def evaluate(
    H: GraphInstance,
    C: Clustering,
    spec: ObjectiveSpec,
    pairs: PairStructure | None = None,
) -> float:
    """Dispatch evaluation of one objective on a clustering."""
    if spec.kind == KC:
        return eval_kcenter(H, C)
    if spec.kind == KM:
        return eval_kmedian(H, C)
    if spec.kind == RS:
        return eval_resource_sharing(H, C)
    if spec.kind == F:
        if pairs is None:
            raise ZeusError("fairness evaluation requires a matched pair structure")
        return eval_fairness(H, C, pairs)
    return eval_team_formation(H, C)


def lex_better(values1, values2, objectives) -> bool:
    """Whether ``values1`` is strictly better than ``values2`` at the first
    objective where they differ."""
    for v1, v2, o in zip(values1, values2, objectives):
        if not rel_close(v1, v2):
            return v1 > v2 if o.maximize else v1 < v2
    return False


def slack_violated(
    value: float, o: ObjectiveSpec, delta: float, est: OptimalEstimate
) -> bool:
    """Whether ``value`` of ``o`` falls outside ``delta`` times the estimated
    optimum."""
    threshold = delta * est.value
    if o.maximize:
        if est.kind != "exact":
            raise ConfigError("maximization slack check needs an exact estimate")
        worse = value < threshold
    else:
        worse = value > threshold
    return worse and not rel_close(value, threshold)


__all__ = [
    "Clustering",
    "ObjectiveSpec",
    "OptimalEstimate",
    "SlackVector",
    "PairStructure",
    "singleton_clustering",
    "clustering_to_json",
    "eval_kcenter",
    "eval_kmedian",
    "eval_resource_sharing",
    "eval_fairness",
    "eval_team_formation",
    "evaluate",
    "lex_better",
    "slack_violated",
    "rel_close",
    "KC",
    "KM",
    "RS",
    "F",
    "TF",
    "KINDS",
]
