"""End-to-end acceptance suite.

Each test certifies one advertised guarantee of the toolkit, prints a
single PASS/FAIL line on the real stdout, and fails the suite if the
guarantee does not hold at the stated tolerance.
"""

import dataclasses
import time

import numpy as np

from zeus_cluster.baselines import baseline_b2, baseline_moc_path
from zeus_cluster.errors import InfeasibleError
from zeus_cluster.makeshifts import (
    MakeshiftOptions,
    makeshift_fairness_ab,
    makeshift_fairness_for,
    makeshift_kmedian,
    makeshift_rs,
    makeshift_rs_gamma,
)
from zeus_cluster.objectives import (
    ObjectiveSpec,
    SlackVector,
    clustering_to_json,
    eval_kcenter,
    eval_kmedian,
    evaluate,
    singleton_clustering,
)
from zeus_cluster.oracle import (
    oracle_edge_cover,
    oracle_lmoc,
    oracle_matching_radius,
    oracle_single_objective,
)
from zeus_cluster.synth import generate_instance
from zeus_cluster.zeus import ProblemSpec, zeus_run

OPTS = MakeshiftOptions()
KC_TOL = 1e-9


# one line per certified guarantee; echoed in the terminal summary so the
# PASS/FAIL verdicts survive output capturing (see conftest)
CRITERION_LINES: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {name}: {status}{suffix}"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num:02d} {name} failed {suffix}"


def pipeline(kinds, slacks, k):
    return ProblemSpec(
        objectives=tuple(ObjectiveSpec(kind) for kind in kinds),
        slacks=SlackVector(tuple(slacks)),
        k=k,
    )


def expert_flagged(n: int, seed: int, n_experts: int):
    """Synthetic instance with a chosen number of expert flags."""
    H = generate_instance("rs", n, seed)
    rng = np.random.default_rng(seed + 10_000)
    chosen = set(rng.choice(n, size=n_experts, replace=False).tolist())
    return dataclasses.replace(H, experts=tuple(u in chosen for u in range(n)))


def fragment_count(H) -> int:
    return makeshift_rs(H, singleton_clustering(H.n))[0].k


def test_01_edge_cover_radius_is_optimal():
    ok = True
    for seed in range(200):
        n = 4 + seed % 7
        H = generate_instance("rs", n, seed)
        _, pairs = makeshift_rs(H, singleton_clustering(n))
        if pairs.realized_radius != oracle_edge_cover(H).realized_radius:
            ok = False
            break
    report(1, "min-max edge cover matches exhaustive optimum", ok)


def test_02_edge_cover_components_are_stars():
    ok = True
    for seed in range(500):
        n = 5 + (seed * 389) % 196
        H = generate_instance("rs", n, seed)
        _, pairs = makeshift_rs(H, singleton_clustering(n))
        deg: dict[int, int] = {}
        for u, v in pairs.pairs:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(deg[u] > 1 and deg[v] > 1 for u, v in pairs.pairs):
            ok = False
            break
    report(2, "edge-cover components contain no 3-edge path", ok)


def test_03_cover_first_pipeline_bounds():
    checked = 0
    ok = True
    seed = 0
    o_rs, o_kc = ObjectiveSpec("rs"), ObjectiveSpec("kc")
    while checked < 200 and seed < 2000:
        n = 6 + seed % 3
        k = 2 + seed % 2
        H = generate_instance("rs", n, seed)
        seed += 1
        if fragment_count(H) < k:
            continue
        C, _ = zeus_run(H, pipeline(["rs", "kc"], [1.0, 3.0], k))
        opt_rs = oracle_single_objective(H, k, o_rs)
        lex = oracle_lmoc(H, k, [o_rs, o_kc])
        if evaluate(H, C, o_rs) != opt_rs:
            ok = False
            break
        if eval_kcenter(H, C) > 3.0 * lex.best_values[1] + KC_TOL:
            ok = False
            break
        checked += 1
    ok = ok and checked == 200
    report(3, "cover-then-center: sharing optimal, radius within 3x", ok,
           f"{checked} instances")


def test_04_matching_first_pipeline_bounds():
    checked = 0
    ok = True
    seed = 0
    o_f, o_kc = ObjectiveSpec("f"), ObjectiveSpec("kc")
    while checked < 200 and seed < 2000:
        n = 6 + seed % 3
        k = 2 + seed % 2
        H = generate_instance("f", n, seed)
        seed += 1
        try:
            C_m, pairs = makeshift_fairness_ab(H, 1, 1)
        except InfeasibleError:
            continue
        if C_m.k < k:
            continue
        C, _ = zeus_run(H, pipeline(["f", "kc"], [1.0, 3.0], k))
        opt_f = oracle_single_objective(H, k, o_f, pairs)
        lex = oracle_lmoc(H, k, [o_f, o_kc], pairs)
        if evaluate(H, C, o_f, pairs=pairs) != opt_f:
            ok = False
            break
        if eval_kcenter(H, C) > 3.0 * lex.best_values[1] + KC_TOL:
            ok = False
            break
        checked += 1
    ok = ok and checked == 200
    report(4, "matching-then-center: fairness optimal, radius within 3x", ok,
           f"{checked} instances")


def test_05_balanced_teams_pipeline_bounds():
    checked = 0
    ok = True
    seed = 0
    o_tf, o_kc = ObjectiveSpec("tf"), ObjectiveSpec("kc")
    while checked < 200 and seed < 2000:
        n = 6 + seed % 3
        k = 2 + seed % 2
        n_experts = max(k + 1, n // 2)
        H = expert_flagged(n, seed, n_experts)
        seed += 1
        C, _ = zeus_run(H, pipeline(["tf", "kc"], [1.0, 3.0], k))
        counts = [0] * C.k
        for u in range(H.n):
            if H.experts[u]:
                counts[C.assignment[u]] += 1
        if max(counts) - min(counts) > 1:
            ok = False
            break
        lex = oracle_lmoc(H, k, [o_tf, o_kc])
        if eval_kcenter(H, C) > 10.0 * lex.best_values[1] + KC_TOL:
            ok = False
            break
        checked += 1
    ok = ok and checked == 200
    report(5, "balanced teams: expert counts within 1, radius within 10x", ok,
           f"{checked} instances")


def test_06_greedy_center_two_approximation():
    ok = True
    o_kc = ObjectiveSpec("kc")
    for seed in range(200):
        n = 5 + seed % 4
        k = 2 + seed % 2
        H = generate_instance("rs", n, seed)
        C = baseline_b2(H, k, OPTS)
        if eval_kcenter(H, C) > 2.0 * oracle_single_objective(H, k, o_kc) + KC_TOL:
            ok = False
            break
    report(6, "greedy k-center within twice the optimum", ok)


def test_07_matching_radius_is_minimal():
    ok = True
    for seed in range(200):
        n = 6 + seed % 4  # at most 3 Blue / 6 Purple
        H = generate_instance("f", n, seed)
        _, pairs = makeshift_fairness_ab(H, 1, 1)
        if pairs.realized_radius != oracle_matching_radius(H):
            ok = False
            break
    report(7, "bottleneck matching radius matches exhaustive optimum", ok)


def test_08_tighter_slack_improves_radius():
    loose_kc: list[float] = []
    tight_kc: list[float] = []
    fair_ok = True
    o_f, o_kc = ObjectiveSpec("f"), ObjectiveSpec("kc")
    for seed in range(20):
        H = generate_instance("f", 200, seed)
        pairs = makeshift_fairness_ab(H, 1, 1)[1]
        for k in range(2, 11):
            C_loose, _ = zeus_run(H, pipeline(["f", "kc"], [1.0, 3.0], k))
            C_tight, _ = zeus_run(H, pipeline(["f", "kc"], [0.5, 2.0], k))
            loose_kc.append(eval_kcenter(H, C_loose))
            tight_kc.append(eval_kcenter(H, C_tight))
            # the matching makeshift is optimal, so its own value is OPT
            if evaluate(H, C_tight, o_f, pairs=pairs) < 0.5 - 1e-12:
                fair_ok = False
    ok = fair_ok and float(np.median(tight_kc)) <= float(np.median(loose_kc))
    report(8, "tightening slack improves the median radius", ok,
           f"medians {np.median(tight_kc):.4f} <= {np.median(loose_kc):.4f}")


def test_09_baseline_dominance():
    o_first = {"rs": ObjectiveSpec("rs"), "f": ObjectiveSpec("f")}
    strictly_better = 0
    total = 0
    first_optimal = True
    moc_never_better = True
    for family in ("rs", "f"):
        o1 = o_first[family]
        for seed in range(10):
            H = generate_instance(family, 200, seed)
            pairs = makeshift_fairness_ab(H, 1, 1)[1] if family == "f" else None
            objectives = (o1, ObjectiveSpec("kc"))
            moc = baseline_moc_path(H, objectives, range(2, 11), pairs)
            for k in range(2, 11):
                spec = pipeline([family, "kc"], [1.0, 3.0], k)
                C_z, _ = zeus_run(H, spec)
                v_z = evaluate(H, C_z, o1, pairs=pairs)
                # the cover / matching makeshifts are exactly optimal
                if v_z != 1.0:
                    first_optimal = False
                C_b2 = baseline_b2(H, k, spec.options)
                v_b2 = evaluate(H, C_b2, o1, pairs=pairs)
                total += 1
                if v_z > v_b2:
                    strictly_better += 1
                v_moc = evaluate(H, moc[k], o1, pairs=pairs)
                if v_moc > v_z + 1e-12:
                    moc_never_better = False
    ratio = strictly_better / total
    ok = first_optimal and moc_never_better and ratio >= 0.9
    report(9, "first objective optimal, beats center-only baseline", ok,
           f"strictly better in {ratio:.0%} of {total} runs")


class CountedReads(np.ndarray):
    """A distance matrix that counts the entries its indexing returns."""

    reads = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        CountedReads.reads += np.size(out)
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out


def linear_r2(xs, ys) -> float:
    """R^2 of the least-squares line through the points."""
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return 1.0 - (resid**2).sum() / ((y - y.mean()) ** 2).sum()


def test_10_runtime_linear_in_k():
    # the work is counted in distance entries read, which no host load
    # moves; wall-clock time is printed alongside but not gated on
    H = generate_instance("rs", 1000, 0)
    H_counted = dataclasses.replace(H, dist=H.dist.view(CountedReads))
    ks = list(range(2, 21, 2))
    reads = []
    best_times = []
    same = True
    deadline_ok = True
    for k in ks:
        spec = pipeline(["kc"], [3.0], k)
        CountedReads.reads = 0
        C_counted, _ = zeus_run(H_counted, spec)
        reads.append(CountedReads.reads)
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            C, _ = zeus_run(H, spec)
            times.append(time.perf_counter() - t0)
        same = same and clustering_to_json(H, C) == clustering_to_json(H, C_counted)
        best_times.append(min(times))
        if min(times) > 1800.0:
            deadline_ok = False
    r2 = linear_r2(ks, reads)
    ok = deadline_ok and same and r2 >= 0.999
    report(10, "distance reads grow linearly in k", ok,
           f"R^2={r2:.4f}, reads at k={ks[0]}..{ks[-1]}: {reads[0]}..{reads[-1]}; "
           f"wall-clock R^2={linear_r2(ks, best_times):.3f}")


def test_11_determinism():
    ok = True
    H_rs = generate_instance("rs", 40, 0)
    H_f = generate_instance("f", 30, 0)
    H_tiny = generate_instance("rs", 8, 0)
    pairs = makeshift_fairness_ab(H_f, 1, 1)[1]

    def runs(fn):
        return {fn() for _ in range(3)}

    spec_rs = pipeline(["rs", "kc"], [1.0, 3.0], 4)
    spec_f = pipeline(["f", "kc"], [1.0, 3.0], 4)
    checks = [
        lambda: clustering_to_json(H_rs, zeus_run(H_rs, spec_rs)[0]),
        lambda: clustering_to_json(H_f, zeus_run(H_f, spec_f)[0]),
        lambda: clustering_to_json(H_rs, baseline_b2(H_rs, 4, OPTS)),
        lambda: clustering_to_json(
            H_f, baseline_moc_path(H_f, spec_f.objectives, (4,), pairs)[4]
        ),
        lambda: clustering_to_json(
            H_tiny, oracle_lmoc(H_tiny, 2, [ObjectiveSpec("kc")]).best_clustering
        ),
    ]
    from zeus_cluster.baselines import baseline_b1

    checks.append(lambda: clustering_to_json(H_rs, baseline_b1(H_rs, spec_rs)))
    for fn in checks:
        if len(runs(fn)) != 1:
            ok = False
            break
    report(11, "repeated runs produce byte-identical clusterings", ok)


def test_12_variant_algorithms():
    ok_ab = True
    for seed in range(100):
        H = generate_instance("f", 9, seed)
        _, p1 = makeshift_fairness_ab(H, 1, 1)
        _, p2 = makeshift_fairness_for(H, (ObjectiveSpec("f"),))
        if p1.pairs != p2.pairs or p1.realized_radius != p2.realized_radius:
            ok_ab = False
            break

    ok_gamma = True
    for seed in range(100):
        n = 5 + seed % 6
        H = generate_instance("rs", n, seed)
        _, gc = makeshift_rs_gamma(H, singleton_clustering(n), 1)
        _, ec = makeshift_rs(H, singleton_clustering(n))
        opt = oracle_edge_cover(H).realized_radius
        if not (opt <= gc.realized_radius <= ec.realized_radius):
            ok_gamma = False
            break

    ok_km = True
    o_km = ObjectiveSpec("km")
    for seed in range(200):
        n = 5 + seed % 4
        k = 2 + seed % 2
        H = generate_instance("rs", n, seed)
        C = makeshift_kmedian(H, singleton_clustering(n), k, OPTS)
        opt = oracle_single_objective(H, k, o_km)
        if eval_kmedian(H, C) > 5.0 * opt + 1e-9:
            ok_km = False
            break

    ok = ok_ab and ok_gamma and ok_km
    report(12, "degree-cover, b-matching, and k-median variants hold", ok,
           f"ab={ok_ab} gamma={ok_gamma} km={ok_km}")
