"""Sequential pipeline: per-objective makeshifts, slack checks, local search."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .errors import ConfigError, DegenerateInputError
from .graph import GraphInstance
from .makeshifts import (
    MakeshiftOptions,
    greedy_kcenter_value,
    makeshift_fairness_for,
    makeshift_kcenter,
    makeshift_kmedian,
    makeshift_rs,
    makeshift_rs_gamma,
    makeshift_tf,
    makeshift_tf_kmedian,
)
from .objectives import (
    F,
    KC,
    KM,
    MAXIMIZE,
    RS,
    TF,
    Clustering,
    ObjectiveSpec,
    ObjectiveValue,
    OptimalEstimate,
    PairStructure,
    SlackVector,
    evaluate,
    rel_close,
    singleton_clustering,
    slack_violated,
)

# documented approximation factor of the single-swap k-median heuristic
KMEDIAN_FACTOR = 5.0


@dataclass(frozen=True)
class ProblemSpec:
    """An RLMOC problem: ordered objectives, slack vector, k, options."""

    objectives: tuple[ObjectiveSpec, ...]
    slacks: SlackVector
    k: int
    options: MakeshiftOptions = MakeshiftOptions()
    local_search_cap: int | None = None
    allow_infeasible_slack: bool = False

    def validate(self) -> None:
        if not self.objectives:
            raise ConfigError("at least one objective is required")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        self.slacks.validate(self.objectives, self.allow_infeasible_slack)


@dataclass
class PipelineState:
    """Everything accumulated while the pipeline runs."""

    clustering: Clustering
    processed: list[tuple[ObjectiveSpec, float, OptimalEstimate, float]] = field(
        default_factory=list
    )
    pair_structures: dict[int, PairStructure] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)

    @property
    def fairness_pairs(self) -> PairStructure | None:
        for i in sorted(self.pair_structures, reverse=True):
            if self.pair_structures[i].kind in ("matching", "b_matching"):
                return self.pair_structures[i]
        return None


def zeus_run(H: GraphInstance, spec: ProblemSpec) -> tuple[Clustering, PipelineState]:
    """Run the full pipeline and return the final clustering plus its state.

    Starts from singleton clusters; each objective's makeshift reshapes
    the current clustering, the slack is checked against an estimated
    optimum, and a local search repairs violations.
    """
    spec.validate()
    C = singleton_clustering(H.n)
    state = PipelineState(clustering=C)
    km_mode = any(o.kind == KM for o in spec.objectives)
    experts = {u for u in range(H.n) if H.experts[u]}

    for i, (o, delta) in enumerate(zip(spec.objectives, spec.slacks.deltas)):
        t0 = time.perf_counter()
        if o.kind == RS:
            if o.gamma > 1:
                C, pairs = makeshift_rs_gamma(H, o.gamma)
            else:
                C, pairs = makeshift_rs(H, C)
            state.pair_structures[i] = pairs
        elif o.kind == F:
            C, pairs = makeshift_fairness_for(H, spec.objectives)
            state.pair_structures[i] = pairs
        elif o.kind == KC:
            C = makeshift_kcenter(H, C, spec.k, spec.options)
        elif o.kind == KM:
            C = makeshift_kmedian(H, C, spec.k, spec.options)
        else:  # tf
            if km_mode:
                C = makeshift_tf_kmedian(H, experts, spec.k, spec.options)
            else:
                C = makeshift_tf(H, experts, spec.k, spec.options)

        fp = state.fairness_pairs
        value = evaluate(H, C, o, pairs=fp)
        est = estimate_optimal(H, o, value.value, spec.k, spec.options)
        violated = slack_violated(value, delta, est)
        moves = 0
        if violated:
            C, moves = local_search(H, C, state, o, delta, est, spec)
            value = evaluate(H, C, o, pairs=state.fairness_pairs)
            violated = slack_violated(value, delta, est)
        state.clustering = C
        state.processed.append((o, value.value, est, delta))
        state.trace.append(
            {
                "objective": o.kind,
                "value": value.value,
                "estimate": {"kind": est.kind, "value": est.value},
                "slack": delta,
                "violated": violated,
                "local_search_moves": moves,
                "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
            }
        )

    # a later makeshift or repair can break an earlier slack; the last
    # stage was already checked on the returned clustering
    fp = state.fairness_pairs
    *earlier, last = state.trace
    for entry, (o, _, est, delta) in zip(earlier, state.processed):
        v = evaluate(H, C, o, pairs=fp)
        entry["violated_at_end"] = slack_violated(v, delta, est)
    last["violated_at_end"] = last["violated"]

    if C.k != spec.k:
        state.trace.append(
            {
                "warning": "no consolidating objective: returning "
                f"{C.k} fragments instead of k={spec.k} blocks"
            }
        )
    return C, state


def estimate_optimal(
    H: GraphInstance, o: ObjectiveSpec, value: float, k: int, opts: MakeshiftOptions
) -> OptimalEstimate:
    """Estimate the optimal value of ``o`` from theoretical guarantees,
    given the ``value`` its makeshift reached.

    RS and F makeshifts are provably optimal, so their value is exact.
    k-center uses the greedy 2-approximation halved as a lower bound;
    k-median divides the swap-heuristic value by its documented factor;
    TF uses the pigeonhole ratio on expert counts.
    """
    if o.kind in (RS, F):
        return OptimalEstimate("exact", value)
    if o.kind == KC:
        return OptimalEstimate("lower_bound", greedy_kcenter_value(H, k, opts) / 2.0)
    if o.kind == KM:
        return OptimalEstimate("lower_bound", value / KMEDIAN_FACTOR)
    # tf
    experts = sum(H.experts)
    if experts // k == 0:
        raise DegenerateInputError(
            f"team formation needs at least k={k} experts, got {experts}"
        )
    return OptimalEstimate("lower_bound", math.ceil(experts / k) / (experts // k))


def _apply_move(C: Clustering, atom: tuple[int, ...], target: int) -> Clustering:
    assign = dict(C.assignment)
    for u in atom:
        assign[u] = target
    return replace(C, assignment=assign)


def _better(new: float, old: float, maximize: bool) -> bool:
    if rel_close(new, old):
        return False
    return new > old if maximize else new < old


class _MoveScorer:
    """Incremental objective evaluation for single-atom relocations."""

    def __init__(self, H: GraphInstance, C: Clustering, o: ObjectiveSpec, pairs):
        self.H = H
        self.C = C
        self.o = o
        self.pairs = pairs
        if o.kind in (KC, KM):
            self.node_cost = {
                u: float(H.dist[u, C.centers[b]]) for u, b in C.assignment.items()
            }
        if o.kind == KM:
            self.total = sum(self.node_cost.values())
        if o.kind == KC:
            self.sorted_costs = sorted(
                self.node_cost.items(), key=lambda kv: -kv[1]
            )
        if o.kind == TF:
            self.counts = [0] * C.k
            for u, b in C.assignment.items():
                if H.experts[u]:
                    self.counts[b] += 1

    def score(self, atom: tuple[int, ...], target: int) -> float:
        H, C, o = self.H, self.C, self.o
        members = set(atom)
        if o.kind == KC:
            rest = 0.0
            for u, c in self.sorted_costs:
                if u not in members:
                    rest = c
                    break
            moved = max(float(H.dist[u, C.centers[target]]) for u in atom)
            return max(rest, moved)
        if o.kind == KM:
            delta = sum(
                float(H.dist[u, C.centers[target]]) - self.node_cost[u] for u in atom
            )
            return self.total + delta
        if o.kind == TF:
            counts = list(self.counts)
            src = C.assignment[atom[0]]
            ex = sum(1 for u in atom if H.experts[u])
            counts[src] -= ex
            counts[target] += ex
            if min(counts) == 0:
                return float("inf")
            return max(counts) / min(counts)
        # rs / f: exact evaluation on the moved clustering (cheap enough at
        # the scales where these objectives can be the violated one)
        moved = _apply_move(C, atom, target)
        return evaluate(H, moved, o, pairs=self.pairs).value


def local_search(
    H: GraphInstance,
    C: Clustering,
    state: PipelineState,
    violated_o: ObjectiveSpec,
    delta: float,
    est: OptimalEstimate,
    spec: ProblemSpec,
) -> tuple[Clustering, int]:
    """Best-improvement single-atom relocation until the slack holds.

    A move is admissible only if all previously processed objectives stay
    within their slack, atoms move whole, no block empties, and no block
    loses its center. Stops on slack satisfaction, no improving move, or
    the move cap.
    """
    cap = spec.local_search_cap if spec.local_search_cap is not None else 50 * H.n
    pairs = state.fairness_pairs
    moves = 0
    value = evaluate(H, C, violated_o, pairs=pairs).value
    maximize = violated_o.direction == MAXIMIZE

    def satisfied(v: float) -> bool:
        return not slack_violated(ObjectiveValue(v, violated_o.direction), delta, est)

    while moves < cap and not satisfied(value):
        scorer = _MoveScorer(H, C, violated_o, pairs)
        block_size = [0] * C.k
        for b in C.assignment.values():
            block_size[b] += 1
        centers = C.centers or {}
        candidates: list[tuple[float, int, int, tuple[int, ...]]] = []
        for atom in C.atoms:
            src = C.assignment[atom[0]]
            if block_size[src] == len(atom):
                continue  # would empty the source block
            if centers.get(src) in atom:
                continue  # would strip the source block's center
            for target in range(C.k):
                if target == src:
                    continue
                new_value = scorer.score(atom, target)
                if _better(new_value, value, maximize):
                    candidates.append((new_value, min(atom), target, atom))

        candidates.sort(
            key=lambda c: (-c[0] if maximize else c[0], c[1], c[2])
        )
        applied = False
        for new_value, _, target, atom in candidates:
            moved = _apply_move(C, atom, target)
            if _move_admissible(H, moved, state):
                C = moved
                value = new_value
                moves += 1
                applied = True
                break
        if not applied:
            break
    return C, moves


def _move_admissible(H: GraphInstance, moved: Clustering, state: PipelineState) -> bool:
    pairs = state.fairness_pairs
    for o, _, est, delta in state.processed:
        v = evaluate(H, moved, o, pairs=pairs)
        if slack_violated(v, delta, est):
            return False
    return True
