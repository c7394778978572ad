import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_points
from zeus_cluster.errors import ConfigError, InfeasibleError
from zeus_cluster.makeshifts import makeshift_fairness_ab, makeshift_rs
from zeus_cluster.objectives import (
    ObjectiveSpec,
    evaluate,
    rel_close,
    singleton_clustering,
)
from zeus_cluster.oracle import (
    _partition_clustering,
    _score_partition,
    enumerate_partitions,
    oracle_edge_cover,
    oracle_lmoc,
    oracle_matching_radius,
    oracle_single_objective,
)
from zeus_cluster.synth import generate_instance


class TestEnumeration:
    def test_stirling_counts(self):
        assert sum(1 for _ in enumerate_partitions(3, 2)) == 3
        assert sum(1 for _ in enumerate_partitions(4, 2)) == 7
        assert sum(1 for _ in enumerate_partitions(5, 3)) == 25

    def test_k_equals_n_single_partition(self):
        parts = list(enumerate_partitions(4, 4))
        assert parts == [(0, 1, 2, 3)]

    def test_k_greater_than_n_empty(self):
        assert list(enumerate_partitions(2, 3)) == []

    def test_canonical_form(self):
        for rgs in enumerate_partitions(5, 2):
            seen = -1
            for b in rgs:
                assert b <= seen + 1
                seen = max(seen, b)

    def test_cap_enforced(self):
        with pytest.raises(ConfigError):
            list(enumerate_partitions(13, 2))

    def test_no_duplicates(self):
        parts = list(enumerate_partitions(6, 3))
        assert len(parts) == len(set(parts)) == 90  # S(6,3)


class TestSingleObjective:
    def test_kcenter_line(self):
        H = line_points([0, 4, 5])
        assert oracle_single_objective(H, 2, ObjectiveSpec("kc")) == 1.0

    def test_kcenter_k_equals_n(self):
        H = line_points([0, 1, 2])
        assert oracle_single_objective(H, 3, ObjectiveSpec("kc")) == 0.0

    def test_kmedian_line(self):
        H = line_points([0, 1, 10])
        assert oracle_single_objective(H, 2, ObjectiveSpec("km")) == 1.0

    def test_rs_complete(self, triangle):
        assert oracle_single_objective(triangle, 1, ObjectiveSpec("rs")) == 1.0


class TestLmoc:
    def test_enumeration_count(self):
        H = generate_instance("rs", 8, 0)
        res = oracle_lmoc(H, 2, [ObjectiveSpec("kc")])
        assert res.enumerated == 127  # S(8,2)

    def test_lex_order_respected(self):
        # first objective fixed at its optimum, second optimal subject to it
        for seed in range(6):
            H = generate_instance("rs", 7, seed)
            O = [ObjectiveSpec("rs"), ObjectiveSpec("kc")]
            res = oracle_lmoc(H, 2, O)
            first_only = oracle_single_objective(H, 2, O[0])
            assert res.best_values[0] == pytest.approx(first_only)

    def test_second_is_conditional_optimum(self):
        H = generate_instance("rs", 7, 3)
        O = [ObjectiveSpec("rs"), ObjectiveSpec("kc")]
        res = oracle_lmoc(H, 2, O)
        # brute-force re-check: no partition ties on o1 with better o2
        from zeus_cluster.oracle import _score_partition, enumerate_partitions

        for rgs in enumerate_partitions(7, 2):
            v = _score_partition(H, rgs, O, None)
            if v[0] == res.best_values[0]:
                assert v[1] >= res.best_values[1] - 1e-12

    @pytest.mark.parametrize("kinds", [["km"], ["rs", "km"], ["kc"]])
    def test_clustering_scores_its_values(self, kinds):
        # the centers come from the first kc/km objective, so km blocks
        # are centered at their 1-median, not their 1-center
        O = [ObjectiveSpec(kind) for kind in kinds]
        for seed in range(10):
            H = generate_instance("rs", 9, seed)
            for k in (2, 3):
                res = oracle_lmoc(H, k, O)
                values = [evaluate(H, res.best_clustering, o) for o in O]
                assert values == pytest.approx(res.best_values), (seed, k)


@st.composite
def small_partitions(draw):
    """(n, restricted-growth string) with n <= 8 and at most 3 blocks."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 3))
    rgs = []
    for b in draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)):
        rgs.append(min(b, max(rgs, default=-1) + 1))
    return n, tuple(rgs)


class TestScoreAgreesWithEvaluate:
    # the oracle scores a partition on its own; evaluate scores the
    # clustering the oracle returns for it, with the same centers
    @pytest.mark.parametrize("kind", ["rs", "f", "tf", "kc", "km"])
    @settings(max_examples=60, deadline=None)
    @given(partition=small_partitions(), seed=st.integers(0, 50))
    def test_same_value(self, kind, partition, seed):
        n, rgs = partition
        H = generate_instance(kind if kind in ("rs", "f", "tf") else "rs", n, seed)
        o = ObjectiveSpec(kind)
        pairs = makeshift_fairness_ab(H, 1, 1)[1] if kind == "f" else None
        C = _partition_clustering(H, rgs, [o])
        value = evaluate(H, C, o, pairs=pairs)
        (expected,) = _score_partition(H, rgs, [o], pairs)
        if kind == "km":  # the two sum in different orders
            assert rel_close(value, expected)
        else:
            assert value == expected


class TestEdgeCoverOracle:
    def test_triangle(self, triangle):
        assert oracle_edge_cover(triangle).realized_radius == 2.0

    def test_agrees_with_makeshift(self):
        for seed in range(10):
            H = generate_instance("rs", 9, seed)
            _, pairs = makeshift_rs(H, singleton_clustering(9))
            assert oracle_edge_cover(H).realized_radius == pytest.approx(
                pairs.realized_radius
            )

    def test_isolated_node(self):
        H = line_points([0, 1, 10], edge_threshold=2.0)
        with pytest.raises(InfeasibleError):
            oracle_edge_cover(H)

    def test_cap(self):
        H = generate_instance("rs", 11, 0)
        with pytest.raises(ConfigError):
            oracle_edge_cover(H)


class TestMatchingOracle:
    def test_agrees_with_makeshift(self):
        for seed in range(8):
            H = generate_instance("f", 9, seed)
            _, pairs = makeshift_fairness_ab(H, 1, 1)
            assert oracle_matching_radius(H) == pytest.approx(pairs.realized_radius)

    def test_cap(self):
        H = generate_instance("f", 24, 0)
        with pytest.raises(ConfigError):
            oracle_matching_radius(H)
