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
    makeshift_tf_for,
)
from .objectives import (
    F,
    KC,
    KM,
    RS,
    Clustering,
    ObjectiveSpec,
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
# local search applies at most this many moves per node
MOVES_PER_NODE = 50


@dataclass(frozen=True)
class ProblemSpec:
    """An RLMOC problem: ordered objectives, slack vector, k, options."""

    objectives: tuple[ObjectiveSpec, ...]
    slacks: SlackVector
    k: int
    options: MakeshiftOptions = MakeshiftOptions()
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
    # each processed objective with its estimated optimum and slack
    processed: list[tuple[ObjectiveSpec, OptimalEstimate, float]] = field(
        default_factory=list
    )
    pair_structures: dict[int, PairStructure] = field(default_factory=dict)
    # the matching that defines f, set by the latest f stage
    fairness_pairs: PairStructure | None = None
    trace: list[dict] = field(default_factory=list)


def zeus_run(H: GraphInstance, spec: ProblemSpec) -> tuple[Clustering, PipelineState]:
    """Run the full pipeline and return the final clustering plus its state.

    Starts from singleton clusters; each objective's makeshift reshapes
    the current clustering, the slack is checked against an estimated
    optimum, and a local search repairs a violated ``kc`` or ``km`` slack.
    """
    spec.validate()
    C = singleton_clustering(H.n)
    state = PipelineState(clustering=C)

    for i, (o, delta) in enumerate(zip(spec.objectives, spec.slacks.deltas)):
        t0 = time.perf_counter()
        centers = None
        if o.kind == RS:
            if o.gamma > 1:
                C, pairs = makeshift_rs_gamma(H, C, o.gamma)
            else:
                C, pairs = makeshift_rs(H, C)
            state.pair_structures[i] = pairs
        elif o.kind == F:
            C, pairs = makeshift_fairness_for(H, spec.objectives)
            state.pair_structures[i] = state.fairness_pairs = pairs
        elif o.kind == KC:
            C, centers = makeshift_kcenter(H, C, spec.k, spec.options)
        elif o.kind == KM:
            C = makeshift_kmedian(H, C, spec.k, spec.options)
        else:  # tf
            C = makeshift_tf_for(H, spec.objectives, spec.k, spec.options)

        value = evaluate(H, C, o, pairs=state.fairness_pairs)
        est = estimate_optimal(H, o, value, spec.k, centers)
        violated = slack_violated(value, o, delta, est)
        moves = 0
        if violated and o.kind in (KC, KM):
            C, moves = local_search(H, C, state, o, delta, est)
            value = evaluate(H, C, o)
            violated = slack_violated(value, o, delta, est)
        state.clustering = C
        state.processed.append((o, est, delta))
        state.trace.append(
            {
                "objective": o.kind,
                "value": value,
                "estimate": {"kind": est.kind, "value": est.value},
                "slack": delta,
                "violated": violated,
                "local_search_moves": moves,
                "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
            }
        )

    # a later makeshift or repair can break an earlier slack; the last
    # stage was already checked on the returned clustering
    *earlier, last = state.trace
    for entry, violated in zip(earlier, _slacks_violated(H, C, state)):
        entry["violated_at_end"] = violated
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
    H: GraphInstance,
    o: ObjectiveSpec,
    value: float,
    k: int,
    centers: list[int] | None,
) -> OptimalEstimate:
    """Estimate the optimal value of ``o`` from theoretical guarantees,
    given the ``value`` its makeshift reached.

    RS and F makeshifts are provably optimal, so their value is exact.
    k-center halves the greedy 2-approximation around ``centers``, the
    Gonzalez centers its makeshift chose, as a lower bound;
    k-median divides the swap-heuristic value by its documented factor;
    TF uses the pigeonhole ratio on expert counts.
    """
    if o.kind in (RS, F):
        return OptimalEstimate("exact", value)
    if o.kind == KC:
        return OptimalEstimate("lower_bound", greedy_kcenter_value(H, centers) / 2.0)
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


def local_search(
    H: GraphInstance,
    C: Clustering,
    state: PipelineState,
    violated_o: ObjectiveSpec,
    delta: float,
    est: OptimalEstimate,
) -> tuple[Clustering, int]:
    """Best-improvement single-atom relocation until a ``kc`` or ``km``
    slack holds.

    A move is admissible only if all previously processed objectives stay
    within their slack, atoms move whole, no block empties, and no block
    loses its center. Stops on slack satisfaction, no improving move, or
    ``MOVES_PER_NODE`` moves per node. Only ``kc`` and ``km`` makeshifts
    leave an atom that can move: the others make every atom a whole block.
    """
    if violated_o.kind not in (KC, KM):
        raise ConfigError(
            f"local search serves kc and km only, not {violated_o.kind!r}"
        )
    moves = 0
    value = evaluate(H, C, violated_o)
    while moves < MOVES_PER_NODE * H.n and slack_violated(value, violated_o, delta, est):
        centers = C.centers
        # each node's distance to its own block's center
        cost = {u: float(H.dist[u, centers[b]]) for u, b in C.assignment.items()}
        total = sum(cost.values())
        by_cost = sorted(cost.items(), key=lambda kv: -kv[1])
        block_size = [0] * C.k
        for b in C.assignment.values():
            block_size[b] += 1
        candidates: list[tuple[float, int, int, tuple[int, ...]]] = []
        for atom in C.atoms:
            src = C.assignment[atom[0]]
            if block_size[src] == len(atom):
                continue  # would empty the source block
            if centers[src] in atom:
                continue  # would strip the source block's center
            # the largest cost left outside the atom
            rest = next((c for u, c in by_cost if u not in atom), 0.0)
            for target in range(C.k):
                if target == src:
                    continue
                to_target = [float(H.dist[u, centers[target]]) for u in atom]
                if violated_o.kind == KM:
                    new_value = total + sum(d - cost[u] for u, d in zip(atom, to_target))
                else:
                    new_value = max(rest, max(to_target))
                if new_value < value and not rel_close(new_value, value):
                    candidates.append((new_value, min(atom), target, atom))

        # (min(atom), target) is unique, so atoms are never compared
        candidates.sort()
        for new_value, _, target, atom in candidates:
            moved = _apply_move(C, atom, target)
            if not any(_slacks_violated(H, moved, state)):
                C, value = moved, new_value
                moves += 1
                break
        else:
            break
    return C, moves


def _slacks_violated(H: GraphInstance, C: Clustering, state: PipelineState):
    """Whether each processed objective is outside its slack on ``C``, in order."""
    for o, est, delta in state.processed:
        value = evaluate(H, C, o, pairs=state.fairness_pairs)
        yield slack_violated(value, o, delta, est)
