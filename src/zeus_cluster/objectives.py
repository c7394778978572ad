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
from itertools import chain

import numpy as np

from .errors import ConfigError, DegenerateInputError, ZeusError
from .graph import BLUE, PURPLE, GraphInstance, pair_rows

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
    representative, or the node itself for singletons). Every producer
    builds its clustering through ``from_labels``, so its ``assignment``
    keys run in node order; no value depends on that order.
    """

    assignment: dict[int, int]
    k: int
    centers: dict[int, int] | None = None
    atoms: tuple[tuple[int, ...], ...] = ()
    roots: tuple[int, ...] = ()

    @classmethod
    def from_labels(cls, label, centers, atoms=None, roots=None) -> Clustering:
        """The validated clustering with node u in block ``label[u]`` and
        block b centered at ``centers[b]``; without ``atoms``, each block
        is one atom rooted at its center."""
        label = np.asarray(label, np.int64)
        centers = np.asarray(centers, np.int64).tolist()
        k = len(centers)
        if atoms is None:
            atoms = tuple(map(tuple, group_by_block(np.arange(len(label)), label, k)))
            roots = centers
        C = cls(dict(enumerate(label.tolist())), k, dict(enumerate(centers)), atoms, tuple(roots))
        C.validate(len(label))
        return C

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The assigned nodes and their blocks, as int64 arrays."""
        keys, values = self.assignment.keys(), self.assignment.values()
        return np.fromiter(keys, np.int64, len(keys)), np.fromiter(values, np.int64, len(keys))

    def blocks(self) -> list[list[int]]:
        """The members of each block 0..k-1, in ascending node order."""
        return group_by_block(*self.arrays(), self.k)

    def validate(self, n: int) -> None:
        nodes, blocks = self.arrays()
        if len(nodes) != n or not np.array_equal(np.sort(nodes), np.arange(n)):
            raise ZeusError("assignment does not cover all nodes exactly once")
        if ((blocks < 0) | (blocks >= self.k)).any():
            raise ZeusError(f"a block index lies outside 0..{self.k - 1}")
        if not np.bincount(blocks, minlength=self.k).all():
            raise ZeusError("finalized clustering has an empty block")
        if self.centers is not None:
            if self.centers.keys() != set(range(self.k)):
                raise ZeusError(f"centers must name exactly the blocks 0..{self.k - 1}")
            for b, c in self.centers.items():
                if self.assignment.get(c) != b:
                    raise ZeusError(f"center {c} not inside its block {b}")
        if len(self.atoms) != len(self.roots):
            raise ZeusError("atoms/roots length mismatch")
        members, atom_of = atom_arrays(self.atoms)
        outside = (members < 0) | (members >= n)
        if outside.any():
            atom = self.atoms[atom_of[np.argmax(outside)]]
            raise ZeusError(f"atom {atom} has a member outside 0..{n - 1}")
        label = _labels(n, nodes, blocks)[members]
        at_root = members == np.asarray(self.roots, np.int64)[atom_of]
        rooted = np.bincount(atom_of[at_root], minlength=len(self.atoms)) > 0
        # each atom's count of distinct (atom, block) pairs
        pairs = np.unique(atom_of * self.k + label) // self.k
        bad = np.flatnonzero(~rooted | (np.bincount(pairs, minlength=len(rooted)) > 1))
        if bad.size:
            i = bad[0]
            if not rooted[i]:
                raise ZeusError(f"root {self.roots[i]} outside its atom {self.atoms[i]}")
            spanned = np.unique(label[atom_of == i]).tolist()
            raise ZeusError(f"atom {self.atoms[i]} spans blocks {spanned}")


def atom_arrays(atoms) -> tuple[np.ndarray, np.ndarray]:
    """The members of ``atoms``, atom after atom, and each one's atom index,
    as int64 arrays."""
    sizes = [len(a) for a in atoms]
    members = np.fromiter(chain.from_iterable(atoms), np.int64, sum(sizes))
    return members, np.repeat(np.arange(len(atoms)), sizes)


def group_by_block(nodes: np.ndarray, blocks: np.ndarray, k: int) -> list[list[int]]:
    """The ``nodes`` in each block 0..k-1 of ``blocks``, ascending; nodes
    of any other block are left out."""
    order = np.lexsort((nodes, blocks))
    bounds = np.searchsorted(blocks[order], np.arange(k + 1)).tolist()
    members = nodes[order].tolist()
    return [members[a:b] for a, b in zip(bounds, bounds[1:])]


def _labels(n: int, nodes: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Each node's block, or -1 for a node outside the assignment."""
    label = np.full(n, -1, dtype=np.int64)
    label[nodes] = blocks
    return label


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_positive_int(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer (``is_integer``)
    of at least 1."""
    if not is_integer(value) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


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
        "k": int(C.k),
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
            check_positive_int(name, getattr(self, name))

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


def pair_structure(H: GraphInstance, u, v) -> tuple[np.ndarray, PairStructure]:
    """``pair_rows(u, v)`` and their E' record; its radius is the longest pair, or 0."""
    rows = pair_rows(u, v)
    radius = float(H.dist[rows[:, 0], rows[:, 1]].max(initial=0.0))
    return rows, PairStructure(frozenset(map(tuple, rows.tolist())), radius)


def rel_close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def center_distances(H: GraphInstance, C: Clustering, kind: str) -> np.ndarray:
    """Each assigned node's distance to its own block's center."""
    if C.centers is None:
        raise ZeusError(f"{kind} evaluation requires centers")
    nodes, blocks = C.arrays()
    center = np.array([C.centers[b] for b in range(C.k)], dtype=np.int64)
    return H.dist[nodes, center[blocks]]


def eval_kcenter(H: GraphInstance, C: Clustering) -> float:
    """Max distance of any node to its own block's center."""
    return float(center_distances(H, C, "k-center").max(initial=0.0))


def eval_kmedian(H: GraphInstance, C: Clustering) -> float:
    """Sum of distances of nodes to their own block's center, correctly
    rounded (``math.fsum``), so the order of the nodes does not matter."""
    return math.fsum(center_distances(H, C, "k-median").tolist())


def eval_resource_sharing(H: GraphInstance, C: Clustering) -> float:
    """Fraction of nodes with at least one E-neighbor in their own block."""
    nodes, blocks = C.arrays()
    label = _labels(H.n, nodes, blocks)
    u, v = H.edges.T
    shared = (label[u] == label[v]) & (label[u] >= 0)
    covered = np.zeros(H.n, dtype=bool)
    covered[u[shared]] = covered[v[shared]] = True
    return int(covered.sum()) / max(1, len(nodes))


def blue_partners(H: GraphInstance, matched: PairStructure) -> tuple[np.ndarray, np.ndarray]:
    """The Blue nodes of the Blue-Purple pairs, ascending, and each one's
    partner: of several (alpha > 1), the lowest-id one."""
    rows = np.array(list(matched.pairs), dtype=np.int64).reshape(-1, 2)
    color = np.asarray(H.colors)
    rows = np.where(color[rows[:, :1]] == BLUE, rows, rows[:, ::-1])  # the Blue end first
    blue, purple = rows[(color[rows] == [BLUE, PURPLE]).all(axis=1)].T
    blue, purple = np.divmod(np.unique(blue * H.n + purple), H.n)  # by Blue, then Purple
    first = np.unique(blue, return_index=True)[1]
    return blue[first], purple[first]


def eval_fairness(H: GraphInstance, C: Clustering, matched: PairStructure) -> float:
    """Fraction of Blue nodes whose partner (``blue_partners``) shares
    their block; an unassigned Blue node is never counted."""
    blue = H.colors.count(BLUE)
    if not blue:
        raise DegenerateInputError("fairness objective undefined with no Blue nodes")
    u, v = blue_partners(H, matched)
    label = _labels(H.n, *C.arrays())
    happy = (label[u] == label[v]) & (label[u] >= 0)
    return int(happy.sum()) / blue


def eval_team_formation(H: GraphInstance, C: Clustering) -> float:
    """Ratio of max to min per-block expert count; +inf if a block has none."""
    expert = np.asarray(H.experts, dtype=bool)
    if not expert.any():
        raise DegenerateInputError("team formation requires a non-empty expert set")
    nodes, blocks = C.arrays()
    counts = np.bincount(blocks[expert[nodes]], minlength=C.k)
    if counts.min() == 0:
        return math.inf
    return int(counts.max()) / int(counts.min())


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

