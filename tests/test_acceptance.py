"""Acceptance suite: one test per criterion, exact desk-scale oracles.

Each test prints a single PASS line on success (visible with -s); a failed
assertion marks the criterion red.  Corpora are seeded and shared across
criteria through module-scoped fixtures.
"""

import random
import time
from fractions import Fraction

import pytest

from slsn.approx import approx_const, approx_star, build_height_table, min_dist, opt_low
from slsn.classifier import (
    DemandClassKind,
    HardCase,
    classify,
    find_hard_pattern,
    hardness_threshold,
    verify_witness,
)
from slsn.core import (
    DemandGraph,
    SlsnInstance,
    WeightedGraph,
    adjacency,
    canonical_path_assignment,
    expand_to_unit,
    feasibility_check,
    shortest_length_in_subgraph,
)
from slsn.exact_const import solve_unit_length, solve_unit_cost
from slsn.gadgets import (
    MccInstance,
    apply_poly_cost,
    build_case1,
    build_case4,
    build_case5,
    g_value_of,
    verify_structure,
    witness_solution,
)
from slsn.generators import random_instance, random_unit_cost_instance
from slsn.oracle import brute_force_restricted_path, brute_force_slsn
from slsn.star_dst import build_layered_dst, dst_cost, solve_dst, solve_slst

SEED = 20240613


def _oracle_cost(sol):
    return None if sol is None else sol.total_cost


@pytest.fixture(scope="module")
def corpus_c1():
    """>= 200 unit-length instances with their oracle optima."""
    rng = random.Random(SEED)
    out = []
    for _ in range(200):
        inst = random_instance(rng)
        out.append((inst, brute_force_slsn(inst)))
    return out


@pytest.fixture(scope="module")
def corpus_c2():
    rng = random.Random(SEED + 1)
    out = []
    for _ in range(100):
        inst = random_unit_cost_instance(rng)
        out.append((inst, brute_force_slsn(inst)))
    return out


@pytest.fixture(scope="module")
def corpus_c3():
    rng = random.Random(SEED + 2)
    out = []
    for _ in range(200):
        inst = random_instance(rng, star=True)
        out.append((inst, brute_force_slsn(inst)))
    return out


@pytest.fixture(scope="module")
def corpus_rational(corpus_c1):
    """Criterion-1 corpus regenerated with random rational lengths."""
    rng = random.Random(SEED + 3)
    out = []
    for _ in range(200):
        inst = random_instance(rng, length_kind="rational")
        out.append((inst, brute_force_slsn(inst)))
    return out


@pytest.fixture(scope="module")
def corpus_star_rational():
    rng = random.Random(SEED + 4)
    out = []
    for _ in range(200):
        inst = random_instance(rng, star=True, length_kind="rational", L_range=(1, 4))
        out.append((inst, brute_force_slsn(inst)))
    return out


def test_criterion_01_exact_const_oracle_equivalence(corpus_c1):
    start = time.monotonic()
    for inst, ref in corpus_c1:
        got = solve_unit_length(inst)
        assert (_oracle_cost(got)) == _oracle_cost(ref)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 1 exceeded its 5 minute budget: {elapsed:.0f}s"
    print(
        f"\nCRITERION 1 PASS exact-const == oracle on {len(corpus_c1)} instances"
        f" in {elapsed:.1f}s"
    )


def test_criterion_02_unit_cost_equivalence(corpus_c2):
    for inst, ref in corpus_c2:
        got = solve_unit_cost(inst)
        assert _oracle_cost(got) == _oracle_cost(ref)
    print(f"\nCRITERION 2 PASS unit-cost corollary == oracle on {len(corpus_c2)} instances")


def test_criterion_03_star_solver_equivalence(corpus_c3):
    for inst, ref in corpus_c3:
        got = solve_slst(inst)
        assert _oracle_cost(got) == _oracle_cost(ref)
        root = inst.demands.star_root()
        dst, _ = build_layered_dst(inst, root)
        arcs = solve_dst(dst)
        assert (arcs is None) == (got is None)
        if got is not None:
            assert got.total_cost == dst_cost(dst, arcs)
    print(f"\nCRITERION 3 PASS star solver == oracle == layered DST on {len(corpus_c3)} instances")


def test_criterion_04_optlow_bracket(corpus_c1, corpus_c2, corpus_c3):
    checked = 0
    for corpus in (corpus_c1, corpus_c2, corpus_c3):
        for inst, ref in corpus:
            bounds = opt_low(inst)
            assert (bounds is None) == (ref is None)
            if ref is not None:
                n = inst.graph.vertex_count
                assert bounds.C <= ref.total_cost <= n * n * bounds.C
                checked += 1
    print(f"\nCRITERION 4 PASS C <= OPT <= n^2 C on {checked} feasible instances")


def test_criterion_05_min_dist_guarantee():
    rng = random.Random(SEED + 5)
    trials = 0
    certified = 0
    while trials < 500:
        inst = random_instance(rng, length_kind="rational")
        g = inst.graph
        s, t = rng.sample(range(g.vertex_count), 2)
        eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
        C = Fraction(rng.randint(1, 50))
        trials += 1
        best = _certified_best_length(g, s, t, eps, C)
        got = min_dist(g, s, t, eps, C)
        if best is not None:
            certified += 1
            assert got is not None, "certified path exists but min_dist returned none"
            assert got.cost <= C
            assert got.length <= best
    print(f"\nCRITERION 5 PASS min_dist guarantee over {trials} trials ({certified} certified)")


def _certified_best_length(graph, s, t, eps, C):
    cap = (1 - 2 * eps) * C
    adj = adjacency(graph, range(graph.edge_count), graph.edges)
    best = None
    stack = [(s, Fraction(0), Fraction(0), (s,))]
    while stack:
        v, ln, co, seq = stack.pop()
        if v == t:
            if co <= cap and (best is None or ln < best):
                best = ln
            continue
        for w, _, e in adj[v]:
            if w not in seq:
                stack.append((w, ln + e.length, co + e.cost, seq + (w,)))
    return best


def test_criterion_06_fptas_ratio(corpus_c1, corpus_rational):
    checked = 0
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        for corpus in (corpus_c1, corpus_rational):
            for inst, ref in corpus:
                got = approx_const(inst, eps)
                assert (got is None) == (ref is None)
                if ref is None:
                    continue
                assert got.total_cost <= (1 + eps) * ref.total_cost
                assert feasibility_check(inst, got.edge_subset).feasible
                for path in got.witness_paths:
                    assert path.length <= inst.L
                checked += 1
    print(f"\nCRITERION 6 PASS approx_const within (1+eps), exact feasibility ({checked} runs)")


def test_criterion_07_star_approximation(corpus_star_rational):
    eps = Fraction(1, 4)
    checked = 0
    for inst, ref in corpus_star_rational:
        got = approx_star(inst, eps)
        assert (got is None) == (ref is None)
        if ref is None:
            continue
        assert got.total_cost <= (1 + eps) * ref.total_cost
        _assert_tree_of_height(inst, got)
        checked += 1
    print(f"\nCRITERION 7 PASS approx_star ratio + tree shape on {checked} feasible instances")


def _assert_tree_of_height(inst, sol):
    edges = sorted(sol.edge_subset)
    verts = set()
    for idx in edges:
        e = inst.graph.edges[idx]
        verts.update((e.u, e.v))
    if verts:
        assert len(edges) == len(verts) - 1, "not acyclic+connected on its support"
    root = inst.demands.star_root()
    for v in verts:
        d = shortest_length_in_subgraph(inst.graph, edges, root, v)
        assert d is not None and d <= inst.L


MCC_YES_K2 = MccInstance.build(2, [(0, 1)], 2, {0: 1, 1: 2})
MCC_K3 = MccInstance.build(3, [(0, 1), (0, 2), (1, 2)], 3, {0: 1, 1: 2, 2: 3})


def test_criterion_08_gadget_yes_instances_unit():
    b1 = build_case1(MCC_YES_K2)
    w1 = witness_solution(b1, [0, 1])
    assert b1.g_value == 43 and w1.total_cost == 43
    assert feasibility_check(b1.instance, w1.edge_subset).feasible
    rep1 = verify_structure(b1, w1)
    assert rep1.all_ok, rep1.failures()
    for path, origin in zip(w1.witness_paths, b1.base.demand_origins):
        if origin[0] == "leaf":
            assert path.length == 16

    b13 = build_case1(MCC_K3)
    w13 = witness_solution(b13, [0, 1, 2])
    assert b13.g_value == 237 and w13.total_cost == 237
    assert verify_structure(b13, w13).all_ok
    for path, origin in zip(w13.witness_paths, b13.base.demand_origins):
        if origin[0] == "leaf":
            assert path.length == 36

    b4 = build_case4(MCC_YES_K2)
    w4 = witness_solution(b4, [0, 1])
    assert b4.g_value == 44 and w4.total_cost == 44
    assert verify_structure(b4, w4).all_ok

    H = DemandGraph([(0, 2), (0, 3), (1, 2), (1, 3)])
    b5 = build_case5(MCC_YES_K2, H)
    w5 = witness_solution(b5, [0, 1])
    assert b5.g_value == 18 and w5.total_cost == 18
    assert verify_structure(b5, w5).all_ok
    for path in w5.witness_paths:
        assert path.length == 7
    print("\nCRITERION 8 (unit flavors) PASS witness costs 43/237/44/18, structures verified")


def test_criterion_08_gadget_yes_instance_poly_cost_case1():
    """Poly-cost Case 1 at k=2: witness cost exactly g = 232.

    Within L = 4k^2 every r-l_{i,j} path is E1.E2.E3.E4.E5, so a feasible
    solution holds at least k(k-1) E4 edges (one per leaf) and C(k,2) E2
    edges (one per color pair).  The poly flavor re-costs only these two
    length-1 families from 1 to 4k^4, so any solution costs at least
    g_unit + (4k^4 - 1)(C(k,2) + k(k-1)) = 43 + 3 * 63 = 232, and the
    clique witness meets that bound with equality.
    """
    bundle = apply_poly_cost(build_case1(MCC_YES_K2), 1)
    assert bundle.g_value == 232
    assert g_value_of(HardCase.H_K0_STAR, 2, None, bundle.cost_flavor) == 232
    w = witness_solution(bundle, [0, 1])
    assert feasibility_check(bundle.instance, w.edge_subset).feasible
    assert verify_structure(bundle, w).all_ok
    assert w.total_cost == 232, (
        f"poly-cost case-1 witness costs {w.total_cost}, not the threshold 232"
    )
    print("\nCRITERION 8 (poly flavor) PASS witness cost 232 == g")


def test_criterion_09_gadget_no_instance():
    mcc = MccInstance.build(2, [], 2, {0: 1, 1: 2})
    bundle = build_case1(mcc)
    rep = feasibility_check(bundle.instance, range(bundle.instance.graph.edge_count))
    unsat = [d for d in rep.per_demand if not d.satisfied]
    assert unsat, "edgeless MCC must leave some r-l demand unsatisfiable"
    print(f"\nCRITERION 9 PASS no-instance leaves {len(unsat)} demands unsatisfiable")


def test_criterion_10_classifier_soundness():
    threshold = hardness_threshold(2)
    rng = random.Random(SEED + 6)
    done = 0
    while done < 50:
        n = rng.choice([60, 120, 400, 4000])
        limit = n * (n - 1) // 2
        target = min(threshold + rng.randint(0, 500), limit)
        edges = set()
        while len(edges) < target:
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        H = DemandGraph(sorted(edges))
        if H.star_root() is not None or H.size < threshold:
            continue
        w = find_hard_pattern(H, 2)
        assert verify_witness(H, w)
        done += 1

    matching = DemandGraph([(2 * i, 2 * i + 1) for i in range(threshold)])
    assert find_hard_pattern(matching, 2).case_tag is HardCase.H_KK
    bipart = DemandGraph([(a, 2 + i) for a in (0, 1) for i in range(threshold // 2)])
    assert find_hard_pattern(bipart, 2).case_tag is HardCase.H_2K
    star_edge = DemandGraph(
        [(0, i) for i in range(1, threshold + 2)] + [(threshold + 2, threshold + 3)]
    )
    assert find_hard_pattern(star_edge, 2).case_tag is HardCase.H_K0_STAR
    print("\nCRITERION 10 PASS classifier fuzz (50 graphs) + 3 constructed families")


def test_criterion_11_structural_invariants():
    rng = random.Random(SEED + 7)
    # canonical shared-subpath property
    for _ in range(60):
        inst = random_instance(rng, length_kind="integer", L_range=(2, 8))
        subset = set(range(inst.graph.edge_count))
        if not feasibility_check(inst, subset).feasible:
            continue
        paths = canonical_path_assignment(inst, subset)
        assert _pairwise_consistent(paths)
    # expand_to_unit preserves bounded min cost
    for _ in range(12):
        n = rng.randint(3, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = rng.randint(n - 1, min(7, len(pairs)))
        g = WeightedGraph(
            n, [(u, v, rng.randint(1, 3), rng.randint(1, 6)) for u, v in pairs[:m]]
        )
        res = expand_to_unit(g)
        for s in range(n):
            for t in range(s + 1, n):
                for D in range(1, 8):
                    a = brute_force_restricted_path(g, s, t, Fraction(D))
                    b = brute_force_restricted_path(res.graph, s, t, Fraction(D))
                    assert (a.cost if a else None) == (b.cost if b else None)
    # height table monotonicity on star instances
    for _ in range(10):
        inst = random_instance(rng, star=True, length_kind="rational", L_range=(2, 6))
        bounds = opt_low(inst)
        if bounds is None:
            continue
        table = build_height_table(inst, Fraction(1, 4), bounds.C)
        terms = table.terminals
        full = (1 << len(terms)) - 1
        for v in range(inst.graph.vertex_count):
            for mask in range(full + 1):
                R = [terms[i] for i in range(len(terms)) if mask >> i & 1]
                prev = None
                step = max(1, table.budget_cap // 9)
                for j in range(0, table.budget_cap + 1, step):
                    h = table.query(v, R, j)
                    if h is not None:
                        if prev is not None:
                            assert h <= prev
                        prev = h
                sub = mask
                while True:
                    Rsub = [terms[i] for i in range(len(terms)) if sub >> i & 1]
                    hs = table.query(v, Rsub, table.budget_cap)
                    hr = table.query(v, R, table.budget_cap)
                    if hr is not None:
                        assert hs is not None and hs <= hr
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
    print("\nCRITERION 11 PASS shared-subpath, expansion preservation, height-table monotonicity")


def _pairwise_consistent(paths):
    from itertools import combinations

    for pi, pj in combinations(paths, 2):
        common = set(pi.vertices) & set(pj.vertices)
        for u in common:
            for v in common:
                if u == v:
                    continue
                if _subpath(pi, u, v) != _subpath(pj, u, v):
                    return False
    return True


def _subpath(path, u, v):
    iu, iv = path.vertices.index(u), path.vertices.index(v)
    lo, hi = min(iu, iv), max(iu, iv)
    seg = path.vertices[lo : hi + 1]
    return seg if seg[0] == u else tuple(reversed(seg))
