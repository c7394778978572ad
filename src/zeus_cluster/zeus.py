"""Sequential pipeline: per-objective makeshifts, slack checks, local search."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

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
    REL_TOL,
    RS,
    TF,
    Clustering,
    ObjectiveSpec,
    OptimalEstimate,
    PairStructure,
    SlackVector,
    check_positive_int,
    evaluate,
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
        check_positive_int("k", self.k)
        self.slacks.validate(self.objectives, self.allow_infeasible_slack)


@dataclass
class PipelineState:
    """Everything accumulated while the pipeline runs."""

    # each processed objective with its estimated optimum and slack
    processed: list[tuple[ObjectiveSpec, OptimalEstimate, float]] = field(
        default_factory=list
    )
    pair_structures: dict[int, PairStructure] = field(default_factory=dict)
    # the matching that defines f, set by the latest f stage
    fairness_pairs: PairStructure | None = None
    trace: list[dict] = field(default_factory=list)


def zeus_run(
    H: GraphInstance, spec: ProblemSpec, memo: dict | None = None
) -> tuple[Clustering, PipelineState]:
    """Run the full pipeline and return the final clustering plus its state.

    Starts from singleton clusters; each objective's makeshift reshapes
    the current clustering, the slack is checked against an estimated
    optimum, and a local search repairs a violated ``kc`` or ``km`` slack.
    ``memo`` is handed to ``run_makeshift``.
    """
    spec.validate()
    C = singleton_clustering(H.n)
    state = PipelineState()

    for i, (o, delta) in enumerate(zip(spec.objectives, spec.slacks.deltas)):
        t0 = time.perf_counter()
        C, pairs, centers = run_makeshift(
            H, C, o, spec.objectives, spec.k, spec.options, memo
        )
        if pairs is not None:
            state.pair_structures[i] = pairs
        if o.kind == F:
            state.fairness_pairs = pairs

        value = evaluate(H, C, o, pairs=state.fairness_pairs)
        est = estimate_optimal(H, o, value, spec.k, centers)
        violated = slack_violated(value, o, delta, est)
        moves = 0
        if violated and o.kind in (KC, KM):
            C, moves = local_search(H, C, state, o, delta, est)
            value = evaluate(H, C, o)
            violated = slack_violated(value, o, delta, est)
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


def run_makeshift(
    H: GraphInstance,
    C: Clustering,
    o: ObjectiveSpec,
    objectives: tuple[ObjectiveSpec, ...],
    k: int,
    opts: MakeshiftOptions,
    memo: dict | None = None,
) -> tuple[Clustering, PairStructure | None, list[int] | None]:
    """Run stage ``o``'s makeshift on ``C`` for the objective list
    ``objectives``. Returns the clustering, the ``rs`` cover or ``f``
    matching, and the ``kc`` Gonzalez centers (None where a stage has none).

    ``rs`` builds the gamma-neighbour cover for ``gamma`` > 1; ``f`` uses the
    matching the whole list defines; ``tf`` picks its expert centers by swap
    k-median when the list holds ``km``, else by balanced k-center. ``f`` and
    ``tf`` never read ``C``, so they can split an earlier ``rs`` stage's
    stars; the others keep the atoms of ``C`` whole.

    With a ``memo`` dict, a stage whose inputs were seen before returns the
    stored result, which was validated when it was built. A makeshift reads
    nothing of ``C`` but its atoms and roots, never a slack, and otherwise
    only ``o`` and, by kind, the list (``tf``) and ``k`` and ``opts``
    (``kc``, ``km``, ``tf``); the key is exactly those, with the bytes of
    each ``C.atom`` array for the atoms and roots, so a hit returns what
    the call would have built. ``f`` reads only the list and is stored by
    ``fairness_matching``. A stored result is handed out as is, so no
    caller may change it in place. Nothing is stored for a makeshift that
    raises.

    The makeshifts are looked up in this module at call time, so a tracer
    that wraps ``zeus.makeshift_*`` sees every stage of ``zeus_run`` and
    ``baseline_b1`` that is not answered from the memo.
    """
    if o.kind == F:
        return *fairness_matching(H, objectives, memo), None
    if memo is not None:
        key = (o, *(a.tobytes() for a in C.atom))
        if o.kind == TF:
            key += (tuple(objectives),)
        if o.kind in (KC, KM, TF):
            key += (k, opts)
        if key in memo:
            return memo[key]
    pairs = centers = None
    if o.kind == RS:
        if o.gamma > 1:
            C, pairs = makeshift_rs_gamma(H, C, o.gamma)
        else:
            C, pairs = makeshift_rs(H, C)
    elif o.kind == KC:
        C, centers = makeshift_kcenter(H, C, k, opts)
    elif o.kind == KM:
        C = makeshift_kmedian(H, C, k, opts)
    else:  # tf
        experts = np.flatnonzero(H.is_expert).tolist()
        if any(x.kind == KM for x in objectives):
            C = makeshift_tf_kmedian(H, experts, k, opts)
        else:
            C = makeshift_tf(H, experts, k, opts)
    if memo is not None:
        memo[key] = C, pairs, centers
    return C, pairs, centers


def fairness_matching(
    H: GraphInstance, objectives: tuple[ObjectiveSpec, ...], memo: dict | None = None
) -> tuple[Clustering, PairStructure]:
    """``makeshift_fairness_for(H, objectives)``, stored in ``memo`` when
    given. The matching reads nothing but the instance and the list, so its
    key is the list alone: every ``f`` stage, whatever clustering it starts
    from, and a caller that scores ``f`` share one build."""
    if memo is None:
        return makeshift_fairness_for(H, objectives)
    key = (F, tuple(objectives))
    if key not in memo:
        memo[key] = makeshift_fairness_for(H, objectives)
    return memo[key]


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
    experts = int(H.is_expert.sum())
    if experts // k == 0:
        raise DegenerateInputError(
            f"team formation needs at least k={k} experts, got {experts}"
        )
    return OptimalEstimate("lower_bound", math.ceil(experts / k) / (experts // k))


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
    leave an atom that can move: the others make every atom a whole block,
    and these two leave atoms that partition the nodes.

    Each round scores every (atom, target) move at once. A ``km`` score is
    the exact total cost plus the atom's cost changes, summed in atom
    order. Moves are tried by score, then lowest atom member, then target.
    """
    if violated_o.kind not in (KC, KM):
        raise ConfigError(
            f"local search serves kc and km only, not {violated_o.kind!r}"
        )
    members, atom_of, starts, _ = C.atom
    n_atoms = len(starts)
    sizes = np.bincount(atom_of, minlength=n_atoms)
    lowest = np.minimum.reduceat(members, starts)
    atom_at = np.full(H.n, -1, dtype=np.int64)
    atom_at[members] = atom_of
    # [i, t]: the distance from the i-th member to block t's center
    to_center = H.dist[np.ix_(members, C.center)]
    farthest = np.maximum.reduceat(to_center, starts)
    moves = 0
    value = evaluate(H, C, violated_o)
    while moves < MOVES_PER_NODE * H.n and slack_violated(value, violated_o, delta, est):
        label = C.label
        cost = H.dist[np.arange(H.n), C.center[label]]
        src = label[members[starts]]
        # a move may neither empty its source block nor strip its center
        movable = (np.bincount(label, minlength=C.k)[src] != sizes) & (
            atom_at[C.center[src]] != np.arange(n_atoms)
        )
        if violated_o.kind == KM:
            change = np.zeros((n_atoms, C.k))
            np.add.at(change, atom_of, to_center - cost[members, None])
            score = math.fsum(cost.tolist()) + change
        else:
            top = np.maximum.reduceat(cost[members], starts)
            # the two largest atom costs; 0.0 stands in for a missing one
            second, first = np.sort(np.append(top, [0.0, 0.0]))[-2:]
            rest = np.where(top == first, second, first)
            score = np.maximum(rest[:, None], farthest)
        # better, and not rel_close to the value
        better = score < value
        if math.isfinite(value):
            tol = REL_TOL * np.maximum(max(1.0, abs(value)), np.abs(score))
            better &= np.abs(score - value) > tol
        a, t = np.nonzero(movable[:, None] & (np.arange(C.k) != src[:, None]) & better)
        for i in np.lexsort((t, lowest[a], score[a, t])):
            moved = C.of_arrays(np.where(atom_at == a[i], t[i], label), C.k, C.center, C.atom)
            if not any(_slacks_violated(H, moved, state)):
                C, value = moved, float(score[a[i], t[i]])
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
