import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit, line_points
from zeus_cluster.baselines import (
    _centered_blocks,
    _merged_one_median,
    _pair_at,
    _pair_position,
    _pairs_with,
    baseline_b1,
    baseline_b2,
    baseline_moc_path,
    consolidate_fragments,
)
from zeus_cluster.errors import ConfigError, InfeasibleError, ZeusError
from zeus_cluster.graph import BLUE, PURPLE, make_instance
from zeus_cluster.makeshifts import (
    MakeshiftOptions,
    fairness_pairs,
    makeshift_fairness_ab,
    makeshift_rs,
)
from zeus_cluster.objectives import (
    Clustering,
    ObjectiveSpec,
    SlackVector,
    blue_partners,
    clustering_to_json,
    eval_kcenter,
    eval_resource_sharing,
    evaluate,
    singleton_clustering,
)
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import ProblemSpec

OPTS = MakeshiftOptions()


def spec_of(kinds, slacks, k):
    return ProblemSpec(
        objectives=tuple(ObjectiveSpec(kind) for kind in kinds),
        slacks=SlackVector(tuple(slacks)),
        k=k,
    )


def lattice(side):
    """rs instance on a side x side integer grid: Manhattan distances and
    an E-edge between lattice neighbours, so root distances tie often."""
    points = [(x, y) for x in range(side) for y in range(side)]
    matrix = [[abs(x - a) + abs(y - b) for a, b in points] for x, y in points]
    edges = [
        (u, v)
        for u in range(len(points))
        for v in range(u + 1, len(points))
        if matrix[u][v] == 1
    ]
    return explicit(matrix, edges=edges)


class TestB2:
    def test_is_plain_kcenter(self):
        H = line_points([0, 4, 5])
        C = baseline_b2(H, 2, OPTS)
        assert eval_kcenter(H, C) == 1.0
        assert C.k == 2

    def test_produces_k_blocks(self):
        for seed in range(4):
            H = generate_instance("rs", 20, seed)
            C = baseline_b2(H, 3, OPTS)
            C.validate(20)
            assert len(set(C.assignment.values())) == 3


BAD_KS = [0, -1, 2.5, True]


class TestInvalidK:
    """B1, B2 and consolidation reject a k that is not a positive integer
    before any work, as ``ProblemSpec.validate`` does."""

    @pytest.mark.parametrize("k", BAD_KS)
    def test_b2(self, k):
        H = generate_instance("rs", 30, 0)
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            baseline_b2(H, k, OPTS)

    @pytest.mark.parametrize("k", BAD_KS)
    @pytest.mark.parametrize("first", ["rs", "f", "tf"])
    def test_b1(self, first, k):
        H = generate_instance(first, 30, 0)
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            baseline_b1(H, spec_of([first, "kc"], [1.0, 3.0], k))

    @pytest.mark.parametrize("k", BAD_KS)
    def test_consolidate(self, k):
        H = generate_instance("rs", 30, 0)
        C, _ = makeshift_rs(H, singleton_clustering(30))
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            consolidate_fragments(H, C, k)


class TestB1:
    def test_rs_first_keeps_full_cover(self):
        H = generate_instance("rs", 20, 1)
        C = baseline_b1(H, spec_of(["rs", "kc"], [1.0, 3.0], 3))
        assert C.k == 3
        assert eval_resource_sharing(H, C) == 1.0

    def test_f_first_keeps_pairs_together(self):
        H = generate_instance("f", 18, 2)
        pairs = makeshift_fairness_ab(H, 1, 1)[1]
        C = baseline_b1(H, spec_of(["f", "kc"], [1.0, 3.0], 3))
        for u, v in pairs.pairs:
            assert C.assignment[u] == C.assignment[v]

    def test_tf_first(self):
        H = generate_instance("tf", 16, 3)
        C = baseline_b1(H, spec_of(["tf", "kc"], [1.0, 3.0], 2))
        assert C.k == 2

    def test_kc_first_rejected(self):
        H = line_points([0, 1, 2])
        with pytest.raises(ConfigError):
            baseline_b1(H, spec_of(["kc", "rs"], [3.0, 1.0], 2))


class TestConsolidate:
    def test_merges_to_k(self):
        H = generate_instance("rs", 20, 5)
        C, _ = makeshift_rs(H, singleton_clustering(20))
        if C.k < 3:
            pytest.skip("too few fragments for this seed")
        out = consolidate_fragments(H, C, 3)
        assert out.k == 3
        assert eval_resource_sharing(H, out) == 1.0

    def test_too_few_fragments(self):
        H = line_points([0, 1])
        C, _ = makeshift_rs(H, singleton_clustering(2))
        with pytest.raises(InfeasibleError):
            consolidate_fragments(H, C, 2)

    def test_nearest_roots_merge_order(self):
        # three fragments at 0-1, 10-11, 13-14: the two right ones merge
        H = line_points([0, 1, 10, 11, 13, 14], edge_threshold=2.0)
        C, _ = makeshift_rs(H, singleton_clustering(6))
        assert C.k == 3
        out = consolidate_fragments(H, C, 2)
        assert out.assignment[2] == out.assignment[4]
        assert out.assignment[0] != out.assignment[2]


def pair_scan_path(H, C):
    """The reference B1 merge loop: scan every pair of live fragments for
    the least (root distance, roots[i], roots[j]) over positions i < j.
    Yields the groups at every count from C.k blocks down to one."""
    groups = [list(b) for b in C.blocks()]
    roots = list(C.roots)
    yield [list(g) for g in groups]
    while len(groups) > 1:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                key = (float(H.dist[roots[i], roots[j]]), roots[i], roots[j])
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        groups[i] = groups[i] + groups[j]
        roots[i] = min(roots[i], roots[j])
        del groups[j]
        del roots[j]
        yield [list(g) for g in groups]


def pair_scan_consolidate(H, C, k):
    """The reference loop's groups at k blocks."""
    return next(groups for groups in pair_scan_path(H, C) if len(groups) == k)


def assert_every_k_matches_pair_scan(H, C):
    """consolidate_fragments agrees with the reference loop at every k."""
    for want in pair_scan_path(H, C):
        got = consolidate_fragments(H, C, len(want))
        assert sorted(got.blocks()) == sorted(sorted(g) for g in want)
        assert list(got.assignment) == list(range(H.n))


class TestConsolidateReference:
    def test_ties_go_to_the_least_root_pair(self):
        # every distance ties, and fragment {0, 3} has root 3: the least
        # root pair (1, 2) merges, not the first positions (0, 1)
        H = explicit([[int(u != v) for v in range(4)] for u in range(4)])
        C = Clustering(
            assignment={0: 0, 1: 1, 2: 2, 3: 0},
            k=3,
            atoms=((0, 3), (1,), (2,)),
            roots=(3, 1, 2),
        )
        assert pair_scan_consolidate(H, C, 2) == [[0, 3], [1, 2]]
        assert consolidate_fragments(H, C, 2).blocks() == [[0, 3], [1, 2]]

    def test_tie_keys_read_roots_in_block_order(self):
        # roots 3-1 and 2-4 tie at distance 1; in block order their keys are
        # (3, 1) and (2, 4), so 2-4 merges first, though {1, 3} < {2, 4}
        H = explicit([[1 if {u, v} in ({1, 3}, {2, 4}) else 2 * (u != v)
                       for v in range(5)] for u in range(5)])
        C = Clustering(
            assignment={0: 0, 1: 1, 2: 2, 3: 0, 4: 3},
            k=4,
            atoms=((0, 3), (1,), (2,), (4,)),
            roots=(3, 1, 2, 4),
        )
        assert pair_scan_consolidate(H, C, 3) == [[0, 3], [1], [2, 4]]
        assert consolidate_fragments(H, C, 3).blocks() == [[0, 3], [1], [2, 4]]

    def test_merged_root_distances_follow_the_new_root(self):
        # {0, 4} (root 4) and {1} merge first, and the merged root becomes
        # 1: it is then nearer {3} (25) than {2} (26), though root 4 was
        # nearer {2} (16)
        H = line_points([5, 10, -16, 35, 0])
        C = Clustering(
            assignment={0: 0, 1: 1, 2: 2, 3: 3, 4: 0},
            k=4,
            atoms=((0, 4), (1,), (2,), (3,)),
            roots=(4, 1, 2, 3),
        )
        assert pair_scan_consolidate(H, C, 2) == [[0, 4, 1, 3], [2]]
        assert consolidate_fragments(H, C, 2).blocks() == [[0, 1, 3, 4], [2]]

    @pytest.mark.parametrize("side", [3, 4, 5, 6, 7, 8])
    def test_matches_pair_scan_on_lattices(self, side):
        H = lattice(side)
        assert_every_k_matches_pair_scan(H, makeshift_rs(H, singleton_clustering(H.n))[0])

    @pytest.mark.parametrize("n", [12, 30, 100, 200])
    @pytest.mark.parametrize("family", ["rs", "f"])
    def test_matches_pair_scan_on_fragments(self, family, n):
        for seed in range(4):
            H = generate_instance(family, n, seed)
            if family == "rs":
                C, _ = makeshift_rs(H, singleton_clustering(n))
            else:
                C, _ = makeshift_fairness_ab(H, 1, 1)
            assert_every_k_matches_pair_scan(H, C)


def moc(H, kinds, k, pairs=None):
    objectives = tuple(ObjectiveSpec(kind) for kind in kinds)
    return baseline_moc_path(H, objectives, (k,), pairs)[k]


class TestMoc:
    def test_produces_k_blocks(self):
        for seed in range(3):
            H = generate_instance("rs", 16, seed)
            C = moc(H, ["rs", "kc"], 3)
            C.validate(16)
            assert C.k == 3

    def test_with_fairness_pairs(self):
        H = generate_instance("f", 15, 1)
        pairs = makeshift_fairness_ab(H, 1, 1)[1]
        C = moc(H, ["f", "kc"], 3, pairs)
        assert C.k == 3
        assert 0.0 <= evaluate(H, C, ObjectiveSpec("f"), pairs=pairs) <= 1.0

    def test_deterministic(self):
        H = generate_instance("rs", 16, 7)
        assert (
            moc(H, ["rs", "kc"], 4).assignment == moc(H, ["rs", "kc"], 4).assignment
        )

    def test_k_equals_n(self):
        H = line_points([0, 2, 5])
        C = moc(H, ["rs", "kc"], 3)
        assert C.k == 3
        assert eval_kcenter(H, C) == 0.0

    def test_requires_two_objectives(self):
        H = line_points([0, 2, 5])
        with pytest.raises(ConfigError):
            moc(H, ["kc"], 2)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0)])
    def test_non_integer_k_rejected(self, bad):
        H = line_points([0, 2, 5])
        objectives = (ObjectiveSpec("rs"), ObjectiveSpec("kc"))
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            baseline_moc_path(H, objectives, [2, bad])

    def test_numpy_integer_k(self):
        H = line_points([0, 2, 5])
        objectives = (ObjectiveSpec("rs"), ObjectiveSpec("kc"))
        path = baseline_moc_path(H, objectives, [np.int64(2)])
        assert path[2].k == 2

    def test_two_objective_check_before_k_range(self):
        H = line_points([0, 2, 5])
        with pytest.raises(ConfigError, match="exactly two objectives"):
            moc(H, ["kc"], 9)
        with pytest.raises(ConfigError, match=r"k values must lie in 1\.\.3"):
            moc(H, ["rs", "kc"], 9)


def rebuild_moc_path(H, objectives, ks, pairs=None):
    """The reference MOC loop: each round rebuilds every candidate table
    from n x B membership, neighbour and eccentricity columns, and takes
    the first least score over np.triu_indices."""
    if pairs is None:
        pairs = fairness_pairs(H, objectives)
    wanted = sorted(set(ks))
    n = H.n
    kinds = {o.kind for o in objectives}
    blocks = [[u] for u in range(n)]
    experts = np.array(H.experts, dtype=float)
    member = np.eye(n)
    radius, merged_radius, ecc = np.zeros(n), H.dist.copy(), H.dist.copy()
    kmcost, merged_kmcost = np.zeros(n), H.dist.copy()
    near = np.zeros((n, n))
    u, v = H.edges.T
    near[u, v] = near[v, u] = 1.0
    blue, purple = blue_partners(H, pairs) if pairs is not None else ([], [])
    n_blue = max(1, sum(1 for c in H.colors if c == BLUE))
    out = {}
    while True:
        if len(blocks) in wanted:
            out[len(blocks)] = _centered_blocks(H, blocks)
        if len(blocks) == wanted[0]:
            return out
        upper = np.triu_indices(len(blocks), 1)
        score = None
        for o in objectives:
            if o.kind == "kc":
                value = np.maximum(_ref_others(radius, 0.0, True), merged_radius)
            elif o.kind == "km":
                total = math.fsum(kmcost.tolist())
                value = total - kmcost[:, None] - kmcost[None, :] + merged_kmcost
            elif o.kind == "rs":
                covered = (near * member).sum(axis=1) > 0
                gain = member[~covered].T @ (near[~covered] > 0)
                value = (covered.sum() + gain + gain.T) / n
            elif o.kind == "f":
                home = member[blue].T @ member[purple]
                value = (np.trace(home) + home + home.T) / n_blue
            else:
                pair = experts[:, None] + experts[None, :]
                hi = np.maximum(_ref_others(experts, -np.inf, True), pair)
                lo = np.minimum(_ref_others(experts, np.inf, False), pair)
                value = np.divide(hi, lo, out=np.full(lo.shape, np.inf), where=lo > 0)
            norm = _ref_normalized(value[upper], o.maximize)
            score = norm if score is None else score + norm
        best = int(np.argmin(score))
        i, j = int(upper[0][best]), int(upper[1][best])
        keep = [x for x in range(len(blocks)) if x != i and x != j]
        blocks = [blocks[x] for x in keep] + [sorted(blocks[i] + blocks[j])]
        experts = np.append(experts[keep], experts[i] + experts[j])
        member = np.column_stack((member[:, keep], member[:, i] + member[:, j]))
        near = np.column_stack((near[:, keep], near[:, i] + near[:, j]))
        if "kc" in kinds:
            radius = np.append(radius[keep], merged_radius[i, j])
            ecc = np.column_stack((ecc[:, keep], np.maximum(ecc[:, i], ecc[:, j])))
            inside = (member[:, :-1] + member[:, -1:]) > 0
            reach = np.maximum(ecc[:, :-1], ecc[:, -1:])
            new_radius = np.where(inside, reach, np.inf).min(axis=0)
            merged_radius = _ref_bordered(merged_radius[np.ix_(keep, keep)], new_radius)
        if "km" in kinds:
            kmcost = np.append(kmcost[keep], merged_kmcost[i, j])
            new_kmcost = _merged_one_median(H, blocks)
            merged_kmcost = _ref_bordered(merged_kmcost[np.ix_(keep, keep)], new_kmcost)


def _ref_others(v, empty, largest):
    """[i, j]: the largest (or smallest) entry of v other than v[i] and v[j]."""
    order = np.argsort(-v if largest else v, kind="stable")
    top = [v[t] for t in order[:3]] + [empty] * 2
    a, b = order[0], order[1]
    out = np.full((len(v), len(v)), top[0])
    out[a, :] = out[:, a] = top[1]
    out[a, b] = out[b, a] = top[2]
    return out


def _ref_normalized(value, maximize):
    infinite = value == np.inf
    finite = value[~infinite]
    lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    norm = (value - lo) / (hi - lo) if hi != lo else np.zeros(len(value))
    norm[infinite] = 2.0
    return -norm if maximize else norm


def _ref_bordered(square, column):
    out = np.zeros((len(column) + 1, len(column) + 1))
    out[:-1, :-1] = square
    out[:-1, -1] = out[-1, :-1] = column
    return out


def _path_lines(path_fn, H, objectives):
    """Each clustering of the path at k = 1..n as JSON, or the error."""
    try:
        path = path_fn(H, objectives, range(1, H.n + 1))
    except ZeusError as exc:
        return [repr(exc)]
    return [clustering_to_json(H, path[k]) for k in range(1, H.n + 1)]


def duplicate_points(n, seed):
    """Instance of n points on a 3 x 3 integer grid, so that points
    coincide and distances tie exactly: random E, a third of the nodes Blue,
    each matched through E to its own Purple node, and random experts."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 3, size=(n, 2)).astype(float).tolist()
    is_blue = np.zeros(n, dtype=bool)
    is_blue[rng.permutation(n)[: n // 3]] = True
    partners = rng.permutation(np.flatnonzero(~is_blue))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 3 / n]
    edges += zip(np.flatnonzero(is_blue).tolist(), partners.tolist())
    edges += [(u, (u + 1) % n) for u in range(n)]  # no node without an edge
    return make_instance(
        n,
        "euclidean",
        embeddings=points,
        edges=edges,
        colors=[BLUE if b else PURPLE for b in is_blue],
        experts=(rng.random(n) < 0.3).tolist(),
    )


class TestMocReference:
    """The incremental MOC tables give the reference loop's clusterings."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["rs", "f", "tf"]),
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_rebuild_on_every_pair(self, family, n, seed):
        H = generate_instance(family, n, seed)
        for a, b in itertools.permutations(("rs", "kc", "km", "f", "tf"), 2):
            objectives = (ObjectiveSpec(a), ObjectiveSpec(b))
            assert _path_lines(baseline_moc_path, H, objectives) == _path_lines(
                rebuild_moc_path, H, objectives
            ), (a, b)

    @pytest.mark.parametrize("side", [3, 5])
    def test_matches_rebuild_on_lattices(self, side):
        H = lattice(side)
        for a, b in itertools.permutations(("rs", "kc", "km"), 2):
            objectives = (ObjectiveSpec(a), ObjectiveSpec(b))
            assert _path_lines(baseline_moc_path, H, objectives) == _path_lines(
                rebuild_moc_path, H, objectives
            ), (a, b)

    @pytest.mark.parametrize("n, seed", [(6, 0), (9, 1), (16, 2), (25, 3), (40, 4)])
    def test_matches_rebuild_on_duplicate_points(self, n, seed):
        # coinciding points make many candidate scores tie exactly, so the
        # tie rule settles most rounds
        H = duplicate_points(n, seed)
        assert len(set(H.embeddings)) < n
        for a, b in itertools.permutations(("rs", "kc", "km", "f", "tf"), 2):
            objectives = (ObjectiveSpec(a), ObjectiveSpec(b))
            lines = _path_lines(baseline_moc_path, H, objectives)
            assert len(lines) == n
            assert lines == _path_lines(rebuild_moc_path, H, objectives), (a, b)


class TestPairPositions:
    """The condensed pair tables list the pairs x < y column by column."""

    def test_round_trip(self):
        start = _pair_position(0, np.arange(61))
        for B in range(2, 61):
            x, y = np.array([(x, y) for y in range(B) for x in range(y)]).T
            t = _pair_position(x, y)
            assert t.tolist() == list(range(B * (B - 1) // 2))
            got_x, got_y = _pair_at(t, start)
            assert (got_x.tolist(), got_y.tolist()) == (x.tolist(), y.tolist())

    def test_pairs_with_either_order(self):
        others = np.array([0, 1, 3, 5])
        assert _pairs_with(2, others).tolist() == [
            _pair_position(0, 2), _pair_position(1, 2),
            _pair_position(2, 3), _pair_position(2, 5),
        ]


def _moc_digest(cases):
    """sha256 over each MOC path's clusterings for k = 1..min(n, 12).

    One line per k: the clustering's canonical JSON, or the error class
    name when the path raises.
    """
    lines = []
    for H, objectives, pairs in cases:
        ks = range(1, min(H.n, 12) + 1)
        try:
            path = baseline_moc_path(H, objectives, ks, pairs)
            lines += [clustering_to_json(H, path[k]) for k in ks]
        except ZeusError as exc:
            lines += [type(exc).__name__ for _ in ks]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    return digest.hexdigest(), len(lines)


def _pinned_cases():
    for family in ("rs", "f", "tf"):
        for n in (12, 30):
            for seed in (0, 1):
                H = generate_instance(family, n, seed)
                for a, b in itertools.permutations(("rs", "kc", "km", "f", "tf"), 2):
                    if "f" in (a, b) and family != "f":
                        continue
                    if "tf" in (a, b) and family != "tf":
                        continue
                    yield H, (ObjectiveSpec(a), ObjectiveSpec(b)), None


class TestMocPinned:
    """Every MOC clustering on a fixed grid, pinned by digest."""

    def test_objective_pairs_grid(self):
        assert _moc_digest(_pinned_cases()) == (
            "9b5347f6d8211a754cc4de657cc63ee9858149c5684ef63413e339f7ac37e924",
            1440,
        )

    def test_alpha_beta_fairness(self):
        cases = []
        for n in (12, 20):
            for seed in range(5):
                H = generate_instance("f", n, seed)
                try:
                    pairs = makeshift_fairness_ab(H, 2, 1)[1]
                except InfeasibleError:
                    continue
                cases.append((H, (ObjectiveSpec("f", alpha=2), ObjectiveSpec("kc")), pairs))
        assert len(cases) == 3
        # each Blue node's lowest-id partner counts
        assert _moc_digest(cases) == (
            "a42137057b346aa3d9bca69c2ec1861a0ed103ef739ec36e4e18cce007800ee1",
            36,
        )

    def test_n100_paths(self):
        assert _moc_digest(_moc_large_cases()) == (
            "ce6f9326b955a111d687c75c1e5c92c458bc5a74f56e596c023158aa410412a2",
            96,
        )

    def test_lattice_paths(self):
        # lattice distances tie often, so this pins the tie rule
        cases = [
            (lattice(side), (ObjectiveSpec(a), ObjectiveSpec(b)), None)
            for side in range(3, 9)
            for a, b in (("rs", "kc"), ("kc", "rs"), ("rs", "km"), ("km", "kc"))
        ]
        assert _moc_digest(cases) == (
            "eaedd433a1e3560ace2f82ba34013bea77c8d376a1949e7c5fb2baae70befb25",
            276,
        )


def _moc_large_cases():
    for family, kinds in (("rs", "rs,kc"), ("f", "f,kc"), ("rs", "rs,km"), ("tf", "tf,kc")):
        for seed in (0, 1):
            H = generate_instance(family, 100, seed)
            yield H, tuple(ObjectiveSpec(kind) for kind in kinds.split(",")), None


def _b1_lines():
    """One line per B1 clustering (or error class name) on a fixed grid."""
    cases = []
    for family in ("rs", "f", "tf"):
        lists = {"rs": ["rs,kc", "rs,km"], "f": ["f,kc", "f,km"], "tf": ["tf,kc"]}[family]
        for n in (12, 30, 100):
            for seed in (0, 1):
                cases += [(generate_instance(family, n, seed), kinds) for kinds in lists]
    cases += [(lattice(side), "rs,kc") for side in range(4, 9)]
    lines = []
    for H, kinds in cases:
        for k in range(1, 11):
            try:
                C = baseline_b1(H, spec_of(kinds.split(","), [1.0, 3.0], k))
                lines.append(clustering_to_json(H, C))
            except ZeusError as exc:
                lines.append(type(exc).__name__)
    return lines


class TestB1Pinned:
    """Every B1 clustering on a fixed grid, tie-heavy lattices included,
    pinned by digest."""

    def test_first_objective_grid(self):
        lines = _b1_lines()
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        assert (digest.hexdigest(), len(lines)) == (
            "c1129b160927c48092ba8f005ae33ee8652cd646f004c6e374c47683dfaba65c",
            350,
        )
