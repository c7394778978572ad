"""Objective evaluation, lexicographic comparison, and slack validity.

Five objective kinds are supported: ``kc`` (k-center, minimize), ``km``
(k-median, minimize), ``rs`` (resource sharing, maximize), ``f``
(fairness, maximize), and ``tf`` (team formation, minimize toward 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError, DegenerateInputError, ZeusError
from .graph import BLUE, PURPLE, GraphInstance

KC = "kc"
KM = "km"
RS = "rs"
F = "f"
TF = "tf"
KINDS = (KC, KM, RS, F, TF)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
_DIRECTIONS = {KC: MINIMIZE, KM: MINIMIZE, RS: MAXIMIZE, F: MAXIMIZE, TF: MINIMIZE}

REL_TOL = 1e-9
# documented approximation factor of the single-swap k-median heuristic
KMEDIAN_FACTOR = 5.0


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

    def validate(self, n: int | None = None) -> None:
        if n is not None and sorted(self.assignment) != list(range(n)):
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

    @property
    def direction(self) -> str:
        return _DIRECTIONS[self.kind]

    @property
    def maximize(self) -> bool:
        return self.direction == MAXIMIZE


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    direction: str


@dataclass(frozen=True)
class OptimalEstimate:
    """A proof-backed bound (or exact value) on the optimal objective value."""

    kind: str  # 'exact' | 'lower_bound' | 'upper_bound'
    value: float


@dataclass(frozen=True)
class SlackVector:
    deltas: tuple[float, ...]

    def validate(self, objectives, allow_infeasible: bool = False) -> None:
        if len(self.deltas) != len(objectives):
            raise ConfigError("slack vector length must equal objective count")
        for d, o in zip(self.deltas, objectives):
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
    kind: str  # 'edge_cover' | 'matching' | 'b_matching' | 'gamma_cover'


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def eval_kcenter(H: GraphInstance, C: Clustering) -> ObjectiveValue:
    """Max distance of any node to its own block's center."""
    if C.centers is None:
        raise ZeusError("k-center evaluation requires centers")
    worst = 0.0
    for u, b in C.assignment.items():
        worst = max(worst, H.dist[u, C.centers[b]])
    return ObjectiveValue(float(worst), MINIMIZE)


def eval_kmedian(H: GraphInstance, C: Clustering) -> ObjectiveValue:
    """Sum of distances of nodes to their own block's center."""
    if C.centers is None:
        raise ZeusError("k-median evaluation requires centers")
    total = sum(H.dist[u, C.centers[b]] for u, b in C.assignment.items())
    return ObjectiveValue(float(total), MINIMIZE)


def eval_resource_sharing(H: GraphInstance, C: Clustering) -> ObjectiveValue:
    """Fraction of nodes with at least one E-neighbor in their own block."""
    covered = 0
    for u in C.assignment:
        b = C.assignment[u]
        if any(C.assignment.get(v) == b for v in H.adjacency[u]):
            covered += 1
    return ObjectiveValue(covered / max(1, len(C.assignment)), MAXIMIZE)


def eval_fairness(
    H: GraphInstance, C: Clustering, matched: PairStructure
) -> ObjectiveValue:
    """Fraction of Blue nodes whose matched Purple partner shares their block."""
    blue = [u for u in range(H.n) if H.colors[u] == BLUE]
    if not blue:
        raise DegenerateInputError("fairness objective undefined with no Blue nodes")
    partner: dict[int, int] = {}
    for u, v in matched.pairs:
        if H.colors[u] == BLUE and H.colors[v] == PURPLE:
            partner[u] = v
        elif H.colors[v] == BLUE and H.colors[u] == PURPLE:
            partner[v] = u
    happy = sum(
        1
        for u in blue
        if u in partner and C.assignment.get(partner[u]) == C.assignment.get(u)
    )
    return ObjectiveValue(happy / len(blue), MAXIMIZE)


def eval_team_formation(H: GraphInstance, C: Clustering) -> ObjectiveValue:
    """Ratio of max to min per-block expert count; +inf if a block has none."""
    X = {u for u in range(H.n) if H.experts[u]}
    if not X:
        raise DegenerateInputError("team formation requires a non-empty expert set")
    counts = [0] * C.k
    for u in X:
        if u in C.assignment:
            counts[C.assignment[u]] += 1
    if min(counts) == 0:
        return ObjectiveValue(math.inf, MINIMIZE)
    return ObjectiveValue(max(counts) / min(counts), MINIMIZE)


def evaluate(
    H: GraphInstance,
    C: Clustering,
    spec: ObjectiveSpec,
    pairs: PairStructure | None = None,
) -> ObjectiveValue:
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


C1_SUPERIOR = "C1_superior"
C2_SUPERIOR = "C2_superior"
EQUAL = "equal"


def compare_value_tuples(values1, values2, objectives) -> str:
    """First-difference lexicographic comparison of two value tuples."""
    for v1, v2, o in zip(values1, values2, objectives):
        if rel_close(v1, v2):
            continue
        better1 = v1 > v2 if o.maximize else v1 < v2
        return C1_SUPERIOR if better1 else C2_SUPERIOR
    return EQUAL


def lex_compare(
    H: GraphInstance,
    C1: Clustering,
    C2: Clustering,
    objectives,
    pairs: PairStructure | None = None,
) -> str:
    v1 = [evaluate(H, C1, o, pairs).value for o in objectives]
    v2 = [evaluate(H, C2, o, pairs).value for o in objectives]
    return compare_value_tuples(v1, v2, objectives)


def slack_violated(
    value: ObjectiveValue, delta: float, est: OptimalEstimate
) -> bool:
    """Whether ``value`` falls outside ``delta`` times the estimated optimum."""
    if value.direction == MAXIMIZE:
        if est.kind == "lower_bound":
            raise ConfigError("maximization slack check needs an upper bound or exact")
        threshold = delta * est.value
        return value.value < threshold and not rel_close(value.value, threshold)
    if est.kind == "upper_bound":
        raise ConfigError("minimization slack check needs a lower bound or exact")
    threshold = delta * est.value
    return value.value > threshold and not rel_close(value.value, threshold)


@dataclass
class EstimateContext:
    """What is known when an optimal value has to be estimated."""

    k: int
    makeshift_value: float | None = None
    options: object | None = None


def estimate_optimal(
    H: GraphInstance, o: ObjectiveSpec, ctx: EstimateContext
) -> OptimalEstimate:
    """Estimate the optimal value of ``o`` from theoretical guarantees.

    RS and F makeshifts are provably optimal, so the makeshift's own value
    is exact. k-center uses the greedy 2-approximation halved as a lower
    bound; k-median divides the swap-heuristic value by its documented
    factor; TF uses the pigeonhole ratio on expert counts.
    """
    from . import makeshifts  # deferred: avoids a circular import

    if o.kind in (RS, F):
        if ctx.makeshift_value is None:
            raise ConfigError(f"{o.kind} estimate needs the makeshift's own value")
        return OptimalEstimate("exact", ctx.makeshift_value)
    if o.kind == KC:
        opts = ctx.options or makeshifts.MakeshiftOptions()
        value = makeshifts.greedy_kcenter_value(H, ctx.k, opts)
        return OptimalEstimate("lower_bound", value / 2.0)
    if o.kind == KM:
        if ctx.makeshift_value is None:
            raise ConfigError("km estimate needs the swap heuristic's value")
        return OptimalEstimate("lower_bound", ctx.makeshift_value / KMEDIAN_FACTOR)
    # tf
    experts = sum(H.experts)
    if experts // ctx.k == 0:
        raise DegenerateInputError(
            f"team formation needs at least k={ctx.k} experts, got {experts}"
        )
    return OptimalEstimate(
        "lower_bound", math.ceil(experts / ctx.k) / (experts // ctx.k)
    )


__all__ = [
    "Clustering",
    "ObjectiveSpec",
    "ObjectiveValue",
    "OptimalEstimate",
    "SlackVector",
    "PairStructure",
    "EstimateContext",
    "singleton_clustering",
    "clustering_to_json",
    "eval_kcenter",
    "eval_kmedian",
    "eval_resource_sharing",
    "eval_fairness",
    "eval_team_formation",
    "evaluate",
    "lex_compare",
    "compare_value_tuples",
    "slack_violated",
    "estimate_optimal",
    "rel_close",
    "KC",
    "KM",
    "RS",
    "F",
    "TF",
    "KINDS",
    "MINIMIZE",
    "MAXIMIZE",
    "C1_SUPERIOR",
    "C2_SUPERIOR",
    "EQUAL",
]
