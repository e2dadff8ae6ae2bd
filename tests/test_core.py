import random
from fractions import Fraction
from itertools import combinations

import pytest

from slsn.core import (
    CostMode,
    DemandGraph,
    Path,
    SlsnInstance,
    WeightedGraph,
    canonical_path_assignment,
    expand_to_unit,
    feasibility_check,
    restricted_min_cost_path,
)
from slsn.oracle import brute_force_restricted_path

from conftest import make_instance


def all_simple_paths(graph, s, t):
    out = []
    stack = [(s, Fraction(0), Fraction(0), (s,), ())]
    while stack:
        v, ln, co, vs, es = stack.pop()
        if v == t:
            out.append((vs, es, ln, co))
            continue
        for idx in graph.incident(v):
            e = graph.edges[idx]
            w = e.other(v)
            if w not in vs:
                stack.append((w, ln + e.length, co + e.cost, vs + (w,), es + (idx,)))
    return out


class TestGraphModel:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 0, 1, 1)])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, 0, 1)])

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, 1, -1)])

    def test_parallel_edges_kept(self):
        g = WeightedGraph(2, [(0, 1, 1, 3), (0, 1, 1, 1)])
        assert g.edge_count == 2
        p = restricted_min_cost_path(g, 0, 1, 1)
        assert p.cost == 1 and p.edges == (1,)

    def test_demand_graph_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DemandGraph([(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            DemandGraph([(2, 2)])

    def test_star_root(self):
        assert DemandGraph([(0, 1), (0, 2), (3, 0)]).star_root() == 0
        assert DemandGraph([(4, 7)]).star_root() == 4
        assert DemandGraph([(0, 1), (2, 3)]).star_root() is None


class TestFeasibility:
    def test_single_edge_satisfies(self, triangle_unit):
        inst = make_instance(triangle_unit, 1, [(0, 1)])
        rep = feasibility_check(inst, {0})
        assert rep.feasible and rep.per_demand[0].length == 1

    def test_bound_violated_by_one(self, triangle_unit):
        inst = make_instance(triangle_unit, 1, [(0, 2)])
        rep = feasibility_check(inst, {0, 1})
        assert not rep.feasible
        assert rep.per_demand[0].length == 2

    def test_disconnected_reports_none(self, triangle_unit):
        inst = make_instance(triangle_unit, 1, [(0, 2)])
        rep = feasibility_check(inst, {0})
        assert rep.per_demand[0].length is None

    def test_invalid_edge_index(self, triangle_unit):
        inst = make_instance(triangle_unit, 1, [(0, 1)])
        with pytest.raises(ValueError):
            feasibility_check(inst, {99})

    def test_matches_exhaustive_enumeration(self, rng):
        # full subset sweep against simple-path enumeration, m <= 8; odd
        # trials are multi-demand stars rooted at their largest vertex, so
        # the root is the larger endpoint of every pair
        for trial in range(50):
            n = rng.randint(3, 6)
            maxm = n * (n - 1) // 2
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = rng.randint(1, min(8, maxm))
            g = WeightedGraph(n, [(u, v, 1, 1) for u, v in pairs[:m]])
            if trial % 2:
                leaves = rng.sample(range(n - 1), rng.randint(2, n - 1))
                demands = [(v, n - 1) for v in leaves]
            else:
                demands = [tuple(rng.sample(range(n), 2))]
            L = rng.randint(1, 3)
            inst = make_instance(g, L, demands)
            for mask in range(1 << m):
                subset = {i for i in range(m) if mask >> i & 1}
                sub = WeightedGraph(
                    n, [(g.edges[i].u, g.edges[i].v, 1, 1) for i in sorted(subset)]
                )
                lengths = [
                    min((ln for _, _, ln, _ in all_simple_paths(sub, s, t)), default=None)
                    for s, t in inst.demands.pairs
                ]
                rep = feasibility_check(inst, subset)
                assert [d.length for d in rep.per_demand] == lengths
                assert rep.feasible == all(ln is not None and ln <= L for ln in lengths)


class TestRestrictedMinCostPath:
    def test_identity(self, two_route):
        p = restricted_min_cost_path(two_route, 1, 1, 0)
        assert p.vertices == (1,) and p.cost == 0

    def test_two_route_tradeoff(self, two_route):
        assert restricted_min_cost_path(two_route, 0, 2, 1).cost == 5
        assert restricted_min_cost_path(two_route, 0, 2, 2).cost == 2

    def test_disconnected(self):
        g = WeightedGraph(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
        assert restricted_min_cost_path(g, 0, 3, 3) is None

    def test_rejects_non_unit_lengths(self):
        g = WeightedGraph(2, [(0, 1, 2, 1)])
        with pytest.raises(ValueError):
            restricted_min_cost_path(g, 0, 1, 2)

    def test_full_bound_equals_unconstrained(self, rng):
        for _ in range(30):
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = rng.randint(n - 1, min(12, len(pairs)))
            g = WeightedGraph(n, [(u, v, 1, rng.randint(1, 9)) for u, v in pairs[:m]])
            s, t = rng.sample(range(n), 2)
            best = min(
                (co for _, _, _, co in all_simple_paths(g, s, t)), default=None
            )
            p = restricted_min_cost_path(g, s, t, n - 1)
            assert (p.cost if p else None) == best

    def test_monotone_in_hop_bound(self, rng):
        for _ in range(20):
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = rng.randint(n - 1, min(12, len(pairs)))
            g = WeightedGraph(n, [(u, v, 1, rng.randint(1, 9)) for u, v in pairs[:m]])
            s, t = rng.sample(range(n), 2)
            prev = None
            for h in range(n):
                p = restricted_min_cost_path(g, s, t, h)
                if p is not None:
                    assert len(p.edges) <= h
                    if prev is not None:
                        assert p.cost <= prev
                    prev = p.cost

    def test_agrees_with_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = rng.randint(1, min(12, len(pairs)))
            g = WeightedGraph(n, [(u, v, 1, rng.randint(1, 9)) for u, v in pairs[:m]])
            s, t = rng.sample(range(n), 2)
            for h in range(n):
                mine = restricted_min_cost_path(g, s, t, h)
                ref = brute_force_restricted_path(g, s, t, Fraction(h))
                assert (mine.cost if mine else None) == (ref.cost if ref else None)


class TestExpandToUnit:
    def test_length_one_identity_shape(self):
        g = WeightedGraph(2, [(0, 1, 1, 1)])
        res = expand_to_unit(g, CostMode.UNIT_PER_HOP)
        assert res.graph.vertex_count == 2 and res.graph.edge_count == 1
        assert res.graph.edges[0].cost == 1

    def test_length_three_unit_per_hop(self):
        g = WeightedGraph(2, [(0, 1, 3, 3)])
        res = expand_to_unit(g, CostMode.UNIT_PER_HOP)
        assert res.graph.edge_count == 3
        assert res.graph.vertex_count == 4
        assert res.graph.total_cost(range(3)) == 3

    def test_divide_equally(self):
        g = WeightedGraph(2, [(0, 1, 4, 8)])
        res = expand_to_unit(g, CostMode.DIVIDE_EQUALLY)
        assert [e.cost for e in res.graph.edges] == [Fraction(2)] * 4

    def test_rejects_fractional_length(self):
        g = WeightedGraph(2, [(0, 1, Fraction(3, 2), 1)])
        with pytest.raises(ValueError):
            expand_to_unit(g, CostMode.UNIT_PER_HOP)

    def test_labels_propagate(self):
        g = WeightedGraph(2, [(0, 1, 2, 2)], labels=["a", "b"])
        res = expand_to_unit(g, CostMode.UNIT_PER_HOP)
        assert res.graph.labels[:2] == ("a", "b")
        assert res.graph.labels[2] == "a~b#1"

    def test_preserves_bounded_min_cost(self, rng):
        # for every integer D, min cost among length<=D paths is preserved
        for _ in range(15):
            n = rng.randint(3, 5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = rng.randint(n - 1, min(7, len(pairs)))
            g = WeightedGraph(
                n, [(u, v, rng.randint(1, 3), rng.randint(1, 6)) for u, v in pairs[:m]]
            )
            res = expand_to_unit(g, CostMode.DIVIDE_EQUALLY)
            for s in range(n):
                for t in range(s + 1, n):
                    for D in range(1, 8):
                        a = brute_force_restricted_path(g, s, t, Fraction(D))
                        b = brute_force_restricted_path(res.graph, s, t, Fraction(D))
                        assert (a.cost if a else None) == (b.cost if b else None)


class TestCanonicalPathAssignment:
    def test_single_path_subset(self, detour_graph):
        inst = make_instance(detour_graph, 2, [(0, 2)])
        paths = canonical_path_assignment(inst, {0, 1})
        assert paths[0].vertices == (0, 1, 2)

    def test_star_subgraph_unique_paths(self):
        g = WeightedGraph(4, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1)])
        inst = make_instance(g, 1, [(0, 1), (0, 2), (0, 3)])
        paths = canonical_path_assignment(inst, {0, 1, 2})
        assert [p.vertices for p in paths] == [(0, 1), (0, 2), (0, 3)]

    def test_infeasible_subset_raises(self, triangle_unit):
        inst = make_instance(triangle_unit, 1, [(0, 2)])
        with pytest.raises(ValueError):
            canonical_path_assignment(inst, {0, 1})

    def test_shared_subpath_exhaustive(self, theta_graph):
        # exhaustive check: some consistent assignment exists, and ours is one
        inst = make_instance(theta_graph, 3, [(0, 1)])
        inst2 = SlsnInstance(theta_graph, 3, DemandGraph([(0, 1), (2, 3)]))
        paths = canonical_path_assignment(inst2, set(range(7)))
        shared_ok = _pairwise_consistent(paths)
        assert shared_ok
        spine = {(0, 2), (2, 3), (3, 1)}
        assert set(zip(paths[0].vertices, paths[0].vertices[1:])) <= {
            (a, b) for a, b in spine
        } | {(b, a) for a, b in spine}

    def test_shared_subpath_property_fuzz(self, rng):
        for _ in range(40):
            n = rng.randint(3, 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = rng.randint(n - 1, min(8, len(pairs)))
            g = WeightedGraph(
                n,
                [
                    (u, v, rng.randint(1, 2), rng.randint(1, 5))
                    for u, v in pairs[:m]
                ],
            )
            cand = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(cand)
            p = rng.randint(1, 3)
            inst = SlsnInstance(g, 10, DemandGraph(cand[:p]))
            subset = set(range(m))
            if not feasibility_check(inst, subset).feasible:
                continue
            paths = canonical_path_assignment(inst, subset)
            assert _pairwise_consistent(paths)
            for path in paths:
                assert len(set(path.vertices)) == len(path.vertices)
                assert path.length <= inst.L

    def test_matches_reference_order(self, rng):
        # each path is the minimum of (length, sum of 2^-(idx+1)) over all
        # simple s-t paths in the subset; parallel equal-length edges and
        # rational lengths make the tie-break decide, and half the trials
        # are stars rooted at their largest vertex
        for trial in range(80):
            n = rng.randint(2, 6)
            edges = []
            for _ in range(rng.randint(1, 9)):
                u, v = rng.sample(range(n), 2)
                length = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                edges.append((u, v, length, 1))
                if rng.random() < 0.4:
                    edges.append((u, v, length, 1))
            g = WeightedGraph(n, edges)
            if trial % 2 and n > 2:
                leaves = rng.sample(range(n - 1), rng.randint(2, n - 1))
                demands = [(v, n - 1) for v in leaves]
            else:
                pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
                demands = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
            inst = make_instance(g, 100, demands)
            subset = {i for i in range(g.edge_count) if rng.random() < 0.8}
            if not feasibility_check(inst, subset).feasible:
                continue
            paths = canonical_path_assignment(inst, subset)
            for (s, t), path in zip(inst.demands.pairs, paths):
                ref = min(
                    (ln, sum(Fraction(1, 2 ** (i + 1)) for i in es), es, vs)
                    for vs, es, ln, _ in all_simple_paths(g, s, t)
                    if set(es) <= subset
                )
                assert (path.edges, path.vertices) == (ref[2], ref[3])


def _pairwise_consistent(paths):
    """The u-v subpaths of any two paths through shared u, v coincide."""
    for pi, pj in combinations(paths, 2):
        common = set(pi.vertices) & set(pj.vertices)
        for u in common:
            for v in common:
                if u == v:
                    continue
                si = _subpath(pi, u, v)
                sj = _subpath(pj, u, v)
                if si != sj:
                    return False
    return True


def _subpath(path, u, v):
    iu, iv = path.vertices.index(u), path.vertices.index(v)
    lo, hi = min(iu, iv), max(iu, iv)
    seg = path.vertices[lo : hi + 1]
    return seg if seg[0] == u else tuple(reversed(seg))


class TestConcurrency:
    def test_shared_instance_across_threads(self, detour_graph):
        # all operations are pure; hammer a shared instance from threads
        from concurrent.futures import ThreadPoolExecutor

        from slsn.exact_const import solve_unit_length

        inst = make_instance(detour_graph, 2, [(0, 2)])

        def work(_):
            rep = feasibility_check(inst, {0, 1})
            sol = solve_unit_length(inst)
            return rep.feasible, sol.total_cost

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        assert all(r == (True, Fraction(2)) for r in results)
