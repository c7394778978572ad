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
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateInputError, ZeusError
from .graph import GraphInstance, pair_rows, sorted_unique

KC = "kc"
KM = "km"
RS = "rs"
F = "f"
TF = "tf"
KINDS = (KC, KM, RS, F, TF)

REL_TOL = 1e-9


UNSET = np.iinfo(np.int64).min  # the entry of a node or block that a mapping leaves out


def _frozen(values) -> np.ndarray:
    """A read-only int64 copy of ``values``."""
    a = np.array(values, dtype=np.int64)
    a.setflags(write=False)
    return a


def _dense(mapping) -> np.ndarray:
    """``mapping`` as an array over 0 up to its largest key, ``UNSET`` where
    it has no key; negative keys leave one more ``UNSET`` entry instead."""
    keys = np.fromiter(mapping.keys(), np.int64, len(mapping))
    a = np.full(keys.max(initial=-1) + 1 + (keys < 0).any(), UNSET)
    a[keys[keys >= 0]] = np.fromiter(mapping.values(), np.int64, len(mapping))[keys >= 0]
    return _frozen(a)


class Atoms(NamedTuple):
    """Atoms as read-only int64 arrays: their ``members``, atom after atom,
    each member's atom, where each atom starts, and each atom's root."""

    members: np.ndarray
    atom_of: np.ndarray
    starts: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, atoms, roots) -> Atoms:
        """The arrays of ``atoms``, sequences of members, with their ``roots``."""
        sizes = [len(a) for a in atoms]
        members = np.fromiter(chain.from_iterable(atoms), np.int64, sum(sizes))
        atom_of = np.repeat(np.arange(len(sizes)), sizes)
        return cls(*map(_frozen, (members, atom_of, np.cumsum(sizes) - sizes, roots)))


@dataclass(frozen=True, init=False)
class Clustering:
    """A partition of the nodes into blocks, with optional centers and atoms.

    ``atoms`` are groups of nodes that must stay co-clustered through later
    pipeline stages; ``roots`` holds each atom's anchor node (star center,
    matched-pair representative, or the node itself for singletons).
    Stored as read-only int64 arrays: ``label`` (each node's block),
    ``center`` (each block's center, or None) and ``atom`` (``Atoms``).
    The fields are views of them, built at first read: read-only mappings
    in key order and tuples. The constructor turns fields given in those
    forms, partial mappings too (``UNSET`` fills the gaps), into the arrays.
    """

    assignment: MappingProxyType[int, int]
    k: int
    centers: MappingProxyType[int, int] | None
    atoms: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    def __init__(self, assignment, k, centers=None, atoms=(), roots=()):
        center = None if centers is None else _dense(centers)
        vars(self).update(label=_dense(assignment), k=k, center=center, atom=Atoms.of(atoms, roots))

    def __getattr__(self, name):
        # the views, built from the arrays at their first read
        if name in ("assignment", "centers"):
            view = self.label if name == "assignment" else self.center
            if view is not None:
                keys = np.flatnonzero(view != UNSET)
                view = MappingProxyType(dict(zip(keys.tolist(), view[keys].tolist())))
        elif name == "atoms":
            members, bounds = self.atom.members.tolist(), self.atom.starts.tolist()
            view = tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:] + [len(members)]))
        elif name == "roots":
            view = tuple(self.atom.roots.tolist())
        else:
            raise AttributeError(name)
        vars(self)[name] = view
        return view

    def __reduce__(self):  # the arrays alone: the views are rebuilt at first read
        return Clustering.of_arrays, (self.label, self.k, self.center, self.atom)

    @classmethod
    def from_labels(cls, label, centers, atoms=None, roots=()) -> Clustering:
        """The validated clustering with node u in block ``label[u]`` and
        block b centered at ``centers[b]``. ``atoms`` is an ``Atoms``, or
        sequences of members with their ``roots``; without it, each block
        is one atom rooted at its center."""
        label, center = _frozen(label), _frozen(centers)
        if atoms is None:
            members = np.argsort(label, kind="stable")
            starts = np.searchsorted(label[members], np.arange(len(center)))
            atoms = Atoms(*map(_frozen, (members, label[members], starts)), center)
        elif not isinstance(atoms, Atoms):
            atoms = Atoms.of(atoms, roots)
        C = cls.of_arrays(label, len(center), center, atoms)
        C.validate(len(label))
        return C

    @classmethod
    def of_arrays(cls, label: np.ndarray, k: int, center, atom: Atoms) -> Clustering:
        """The clustering of these arrays, unchecked; ``label`` is frozen in place."""
        label.setflags(write=False)
        C = cls.__new__(cls)
        vars(C).update(label=label, k=k, center=center, atom=atom)
        return C

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The assigned nodes and their blocks, as int64 arrays."""
        nodes = np.flatnonzero(self.label != UNSET)
        return nodes, self.label[nodes]

    def labels(self, n: int) -> np.ndarray:
        """Each node's block, over nodes 0..n-1, ``UNSET`` where none is assigned."""
        return np.concatenate((self.label, np.full(n - len(self.label), UNSET)))

    def blocks(self) -> list[list[int]]:
        """The members of each block 0..k-1, in ascending node order."""
        return group_by_block(*self.arrays(), self.k)

    def validate(self, n: int) -> None:
        label, k, center = self.label, self.k, self.center
        if len(label) != n or label.min(initial=0) == UNSET:  # the least int64
            raise ZeusError("assignment does not cover all nodes exactly once")
        if label.min(initial=0) < 0 or label.max(initial=0) >= k:
            raise ZeusError(f"a block index lies outside 0..{k - 1}")
        if not np.bincount(label, minlength=k).all():
            raise ZeusError("finalized clustering has an empty block")
        if center is not None:
            if len(center) != k or center.min(initial=0) == UNSET:
                raise ZeusError(f"centers must name exactly the blocks 0..{k - 1}")
            home = label.take(center, mode="clip") == np.arange(k)
            bad = np.flatnonzero(~home | (center < 0) | (center >= n))
            if bad.size:
                raise ZeusError(f"center {center[bad[0]]} not inside its block {bad[0]}")
        members, atom_of, starts, roots = self.atom
        if len(starts) != len(roots):
            raise ZeusError("atoms/roots length mismatch")
        if members.min(initial=0) < 0 or members.max(initial=0) >= n:
            atom = self.atoms[atom_of[np.argmax((members < 0) | (members >= n))]]
            raise ZeusError(f"atom {atom} has a member outside 0..{n - 1}")
        # an atom is bad without its root among its members, or with two
        # members next to each other in it that lie in different blocks
        bad = np.ones(len(roots), dtype=bool)
        bad[atom_of[members == roots[atom_of]]] = False
        label = label[members]
        bad[atom_of[1:][(label[1:] != label[:-1]) & (atom_of[1:] == atom_of[:-1])]] = True
        if bad.any():
            i = int(np.argmax(bad))
            if roots[i] not in members[atom_of == i]:
                raise ZeusError(f"root {self.roots[i]} outside its atom {self.atoms[i]}")
            spanned = np.unique(label[atom_of == i]).tolist()
            raise ZeusError(f"atom {self.atoms[i]} spans blocks {spanned}")


def group_by_block(nodes: np.ndarray, blocks: np.ndarray, k: int) -> list[list[int]]:
    """The ``nodes`` in each block 0..k-1 of ``blocks``, ascending; nodes
    of any other block are left out."""
    order = np.lexsort((nodes, blocks))
    bounds = np.searchsorted(blocks[order], np.arange(k + 1)).tolist()
    members = nodes[order].tolist()
    return [members[a:b] for a, b in zip(bounds, bounds[1:])]


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_positive_int(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer (``is_integer``)
    of at least 1."""
    if not is_integer(value) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def singleton_clustering(n: int) -> Clustering:
    """Each node in its own block and its own atom: every array one ``arange``."""
    nodes = _frozen(np.arange(n))
    return Clustering.of_arrays(nodes, n, nodes, Atoms(nodes, nodes, nodes, nodes))


def clustering_to_json(H: GraphInstance, C: Clustering) -> str:
    """Canonical JSON form of a clustering (used for determinism checks)."""
    centers = [] if C.center is None else enumerate(C.center.tolist())
    doc = {
        "k": int(C.k),
        "blocks": [[H.labels[u] for u in b] for b in C.blocks()],
        "centers": {str(b): H.labels[c] for b, c in centers if c != UNSET},
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

    @cached_property
    def rows(self) -> np.ndarray:
        """The pairs as sorted (lower, higher) int64 rows, read-only,
        built from ``pairs`` on first use."""
        ends = np.fromiter(chain.from_iterable(self.pairs), np.int64, 2 * len(self.pairs))
        rows = pair_rows(ends[0::2], ends[1::2])
        rows.setflags(write=False)
        return rows


def pair_structure(H: GraphInstance, u, v) -> tuple[np.ndarray, PairStructure]:
    """``pair_rows(u, v)``, read-only, and their E' record; its radius is
    the longest pair, or 0. The record's ``rows`` start as these rows."""
    rows = pair_rows(u, v)
    rows.setflags(write=False)
    radius = float(H.dist[rows[:, 0], rows[:, 1]].max(initial=0.0))
    record = PairStructure(frozenset(zip(*rows.T.tolist())), radius)
    record.__dict__["rows"] = rows  # the cached_property's slot
    return rows, record


def rel_close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def center_distances(H: GraphInstance, C: Clustering, kind: str) -> np.ndarray:
    """Each assigned node's distance to its own block's center."""
    if C.center is None:
        raise ZeusError(f"{kind} evaluation requires centers")
    nodes, blocks = C.arrays()
    return H.dist[nodes, C.center[blocks]]


def eval_kcenter(H: GraphInstance, C: Clustering) -> float:
    """Max distance of any node to its own block's center."""
    return float(center_distances(H, C, "k-center").max(initial=0.0))


def eval_kmedian(H: GraphInstance, C: Clustering) -> float:
    """Sum of distances of nodes to their own block's center, correctly
    rounded (``math.fsum``), so the order of the nodes does not matter."""
    return math.fsum(center_distances(H, C, "k-median").tolist())


def eval_resource_sharing(H: GraphInstance, C: Clustering) -> float:
    """Fraction of nodes with at least one E-neighbor in their own block."""
    label = C.labels(H.n)
    u, v = H.edges.T
    shared = (label[u] == label[v]) & (label[u] >= 0)
    covered = np.zeros(H.n, dtype=bool)
    covered[u[shared]] = covered[v[shared]] = True
    return int(covered.sum()) / max(1, int((label != UNSET).sum()))


def blue_partners(H: GraphInstance, matched: PairStructure) -> tuple[np.ndarray, np.ndarray]:
    """The Blue nodes of the Blue-Purple pairs, ascending, and each one's
    partner: of several (alpha > 1), the lowest-id one."""
    rows = matched.rows
    rows = np.where(H.is_blue[rows[:, :1]], rows, rows[:, ::-1])  # the Blue end first
    blue, purple = rows[H.is_blue[rows[:, 0]] & H.is_purple[rows[:, 1]]].T
    blue, purple = np.divmod(sorted_unique(blue * H.n + purple), H.n)  # by Blue, then Purple
    first = np.unique(blue, return_index=True)[1]
    return blue[first], purple[first]


def eval_fairness(H: GraphInstance, C: Clustering, matched: PairStructure) -> float:
    """Fraction of Blue nodes whose partner (``blue_partners``) shares
    their block; an unassigned Blue node is never counted."""
    blue = int(H.is_blue.sum())
    if not blue:
        raise DegenerateInputError("fairness objective undefined with no Blue nodes")
    u, v = blue_partners(H, matched)
    label = C.labels(H.n)
    happy = (label[u] == label[v]) & (label[u] >= 0)
    return int(happy.sum()) / blue


def eval_team_formation(H: GraphInstance, C: Clustering) -> float:
    """Ratio of max to min per-block expert count; +inf if a block has none."""
    if not H.is_expert.any():
        raise DegenerateInputError("team formation requires a non-empty expert set")
    nodes, blocks = C.arrays()
    counts = np.bincount(blocks[H.is_expert[nodes]], minlength=C.k)
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

