import random
from fractions import Fraction
from itertools import combinations

import pytest

import slsn.core
from slsn.core import (
    DemandGraph,
    DemandStatus,
    Edge,
    FeasibilityReport,
    Path,
    SlsnInstance,
    WeightedGraph,
    _demand_searches,
    adjacency,
    as_fraction,
    canonical_path_assignment,
    dijkstra,
    expand_to_unit,
    feasibility_check,
    restricted_min_cost_path,
)
from slsn.exact_const import _hop_options
from slsn.gadgets import MccInstance, build_case1, build_case2, build_case3, build_case4, witness_solution
from slsn.oracle import brute_force_restricted_path
from slsn.star_dst import hop_bounded_path

from conftest import make_instance


def all_simple_paths(graph, s, t):
    adj = adjacency(graph, range(graph.edge_count), graph.edges)
    out = []
    stack = [(s, Fraction(0), Fraction(0), (s,), ())]
    while stack:
        v, ln, co, vs, es = stack.pop()
        if v == t:
            out.append((vs, es, ln, co))
            continue
        for w, idx, e in adj[v]:
            if w not in vs:
                stack.append((w, ln + e.length, co + e.cost, vs + (w,), es + (idx,)))
    return out


def fraction_feasibility_check(instance, edge_subset):
    """feasibility_check with Fraction lengths throughout, its reference."""
    adj = adjacency(instance.graph, edge_subset, [e.length for e in instance.graph.edges])
    statuses = []
    for _, dst, dist, _ in _demand_searches(instance, adj):
        length = dist.get(dst)
        statuses.append(DemandStatus(length is not None and length <= instance.L, length))
    return FeasibilityReport(tuple(statuses))


def unreduced_demand_searches(instance, adj):
    """_demand_searches without the series reduction, its reference: one
    Dijkstra per distinct source over every vertex of the subgraph."""
    root = instance.demands.star_root()
    ends = [(t, s) if t == root else (s, t) for s, t in instance.demands.pairs]
    targets = {}
    for src, dst in ends:
        targets.setdefault(src, []).append(dst)
    runs = {src: dijkstra(adj, {src: 0}, dsts) for src, dsts in targets.items()}
    return [(src, dst, *runs[src]) for src, dst in ends]


def unreduced_feasibility_check(instance, edge_subset):
    """feasibility_check on the unreduced subgraph, its reference."""
    graph = instance.graph
    adj = adjacency(graph, edge_subset, graph.int_lengths)
    statuses = []
    for _, dst, dist, _ in unreduced_demand_searches(instance, adj):
        d = dist.get(dst)
        length = None if d is None else Fraction(d, graph.length_denominator)
        statuses.append(DemandStatus(d is not None and d <= instance.length_cap, length))
    return FeasibilityReport(tuple(statuses))


def unreduced_canonical_paths(instance, edge_subset):
    """canonical_path_assignment on the unreduced subgraph with the same
    (length << b) + 2^(b-1-rank) keys, its reference."""
    graph = instance.graph
    ranked = sorted(set(edge_subset))
    if ranked and (ranked[0] < 0 or ranked[-1] >= graph.edge_count):
        raise ValueError("invalid edge index in edge_subset")
    b, lengths = len(ranked), graph.int_lengths
    weight = {idx: (lengths[idx] << b) + (1 << (b - 1 - rank)) for rank, idx in enumerate(ranked)}
    paths = []
    for src, dst, dist, parent in unreduced_demand_searches(instance, adjacency(graph, ranked, weight)):
        if dst not in dist or dist[dst] >> b > instance.length_cap:
            raise ValueError("canonical_path_assignment requires a feasible edge subset")
        vertices, edge_seq, w = [dst], [], dst
        while w != src:
            w, idx = parent[w]
            vertices.append(w)
            edge_seq.append(idx)
        if src < dst:
            vertices.reverse()
            edge_seq.reverse()
        paths.append(Path.from_edge_sequence(graph, vertices, edge_seq))
    return paths


def outcome(fn, instance, edge_subset):
    """fn's result, or ("ValueError", message) when it raises ValueError."""
    try:
        return fn(instance, edge_subset)
    except ValueError as exc:
        return "ValueError", str(exc)


def chain_heavy_instance(rng):
    """A seeded instance that is mostly chains of degree-2 vertices.

    A few branch vertices are joined by chains of 1 to 7 hops, some
    repeated hop for hop between the same ends (equal-length parallel
    chains, so the tie-break decides), some leaving a branch vertex and
    coming back to it; an isolated cycle and an isolated vertex are added.
    Demand endpoints are drawn from branch vertices, chain interiors and
    the isolated vertex, and half the demand sets are stars.  The subset
    drops each edge with probability 0, 1/10 or 1/4, so chains are whole
    or cut into dangling pieces.  Returns (instance, subset, features).
    """
    branches = rng.randint(2, 5)
    n = branches
    edges = []
    inner = []
    features = set()

    def chain(u, v, lengths):
        nonlocal n
        path = [u, *range(n, n + len(lengths) - 1), v]
        n += len(lengths) - 1
        inner.extend(path[1:-1])
        for a, c, length in zip(path, path[1:], lengths):
            edges.append((a, c, length, rng.randint(0, 5)))

    for _ in range(rng.randint(2, 7)):
        u = rng.randrange(branches)
        if rng.random() < 0.15:
            v, hops, kind = u, rng.randint(2, 5), "loop"
        else:
            v, hops, kind = rng.choice([w for w in range(branches) if w != u]), rng.randint(1, 7), "chain"
        lengths = [rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)]) for _ in range(hops)]
        copies = 2 if kind == "chain" and rng.random() < 0.3 else 1
        for _ in range(copies):
            chain(u, v, lengths)
        features.add("tie" if copies == 2 else kind)
    cycle = list(range(n, n + rng.randint(3, 5)))
    n += len(cycle)
    for a, c in zip(cycle, cycle[1:] + cycle[:1]):
        edges.append((a, c, Fraction(1), 1))
    lone = n
    n += 1
    g = WeightedGraph(n, edges)
    pool = list(range(branches)) + inner
    ends = rng.sample(pool, min(len(pool), rng.randint(2, 4)))
    if rng.random() < 0.2:
        ends[-1] = lone
        features.add("lone endpoint")
    if set(ends) & set(inner):
        features.add("endpoint inside a chain")
    if rng.random() < 0.5:
        demands = [(v, ends[0]) for v in ends[1:]]
    else:
        demands = list(dict.fromkeys((min(a, c), max(a, c)) for a, c in zip(ends, ends[1:])))
    L = Fraction(rng.randint(1, 24), 2)
    drop = rng.choice([0, Fraction(1, 10), Fraction(1, 4)])
    subset = {i for i in range(g.edge_count) if rng.random() >= drop}
    return make_instance(g, L, demands), subset, features


def tie_heavy_instance(rng, scale=1):
    """A seeded instance drawn so that the integer view is exercised.

    Lengths mix denominators 1, 2, 3 and 6 from a small set, so equal path
    lengths are common; a third of the edges get a parallel copy; costs are
    rational; L's denominator 5 or 7 never divides the lengths' lcm; half
    the demand sets are stars rooted at the largest vertex.  Every length
    and L are multiplied by scale.
    """
    n = rng.randint(2, 7)
    lengths = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(3, 2)]
    edges = []
    for _ in range(rng.randint(1, 12)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(lengths) * scale, Fraction(rng.randint(0, 9), rng.randint(1, 4))))
        if rng.random() < 0.3:
            edges.append((u, v, edges[-1][2], Fraction(rng.randint(0, 9), rng.randint(1, 4))))
    g = WeightedGraph(n, edges)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    if rng.random() < 0.5 and n > 2:
        demands = [(v, n - 1) for v in rng.sample(range(n - 1), rng.randint(2, n - 1))]
    else:
        demands = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
    L = Fraction(rng.randint(1, 15), rng.choice([5, 7])) * scale
    subset = {i for i in range(g.edge_count) if rng.random() < 0.8}
    return make_instance(g, L, demands), subset


class TestAsFraction:
    def test_integer_strings(self):
        assert as_fraction("12") == 12 and as_fraction("007") == 7
        assert isinstance(as_fraction("12"), Fraction)

    def test_other_strings_parse_as_fraction_does(self):
        # only strings of ASCII digits skip Fraction's own parser
        for text, value in ((" 7 ", 7), ("+3", 3), ("\u0663", 3), ("3/6", Fraction(1, 2))):
            assert as_fraction(text) == Fraction(text) == value
        try:  # Fraction accepts underscores from Python 3.11 on
            expected = Fraction("1_000")
        except ValueError:
            with pytest.raises(ValueError):
                as_fraction("1_000")
        else:
            assert as_fraction("1_000") == expected == 1000
        for text in ("\u00b2", "", "1/0", "x"):
            with pytest.raises(ValueError):
                as_fraction(text)


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


    def test_token_memo_keeps_every_check(self):
        # "1" and 1 are already converted when the later tokens arrive; a
        # bool is no number (JSON true), so it is refused like 1.0
        seen = [(0, 1, "1", "1"), (1, 2, 1, 1)]
        for bad, error in (((0, 2, 1.0, "1"), TypeError), ((0, 2, "1", 1.0), TypeError),
                           ((0, 2, True, "1"), TypeError), ((0, 2, "1", True), TypeError),
                           ((0, 2, "0", "1"), ValueError), ((0, 2, "1", "-1"), ValueError),
                           ((0, 2, "1/0", "1"), ValueError), ((0, 2, "1", "1/0"), ValueError)):
            with pytest.raises(error):
                WeightedGraph(3, seen + [bad])
        g = WeightedGraph(3, seen + [(0, 2, "1", "3/2")])
        assert [(e.length, e.cost) for e in g.edges] == [(1, 1), (1, 1), (1, Fraction(3, 2))]
        assert all(type(x) is Fraction for e in g.edges for x in (e.length, e.cost))

    def test_edge_is_an_immutable_hashable_value(self):
        e = WeightedGraph(3, [(2, 0, "5/3", 4)]).edges[0]
        assert e == Edge(2, 0, Fraction(5, 3), Fraction(4))
        assert hash(e) == hash(Edge(2, 0, Fraction(5, 3), Fraction(4)))
        assert e.other(2) == 0 and e.other(0) == 2
        for field in ("u", "v", "length", "cost"):
            with pytest.raises(AttributeError):
                setattr(e, field, 1)


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

    def test_matches_fraction_reference(self):
        # per-demand flags and exact lengths, on instances where ties,
        # disconnected demands and L off the lengths' denominator are common
        rng = random.Random(909)
        seen = {"feasible": 0, "too long": 0, "disconnected": 0}
        for _ in range(300):
            inst, subset = tie_heavy_instance(rng)
            rep = feasibility_check(inst, subset)
            assert rep == fraction_feasibility_check(inst, subset)
            for d in rep.per_demand:
                assert d.length is None or type(d.length) is Fraction
                seen["disconnected" if d.length is None else "feasible" if d.satisfied else "too long"] += 1
        assert min(seen.values()) >= 50

    def test_scaling_lengths_and_L(self):
        # lengths and L times c: every length times c, flags and canonical
        # paths unchanged
        for c in (Fraction(3), Fraction(5, 2), Fraction(1, 7)):
            rng, scaled_rng = random.Random(910), random.Random(910)
            for _ in range(100):
                inst, subset = tie_heavy_instance(rng)
                big, same = tie_heavy_instance(scaled_rng, c)
                assert same == subset
                rep, rep_c = feasibility_check(inst, subset), feasibility_check(big, subset)
                assert [d.satisfied for d in rep_c.per_demand] == [d.satisfied for d in rep.per_demand]
                assert [d.length for d in rep_c.per_demand] == [
                    None if d.length is None else d.length * c for d in rep.per_demand
                ]
                if rep.feasible:
                    paths = canonical_path_assignment(inst, subset)
                    paths_c = canonical_path_assignment(big, subset)
                    assert [(p.vertices, p.edges, p.cost) for p in paths_c] == [
                        (p.vertices, p.edges, p.cost) for p in paths
                    ]
                    assert [p.length for p in paths_c] == [p.length * c for p in paths]

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


class TestHopBoundedPath:
    def test_matches_fraction_reference(self):
        # integer weights over the graph's denominators pick the same path
        # as the label DP on Fraction weights, ties and zero costs
        # included, at every bound
        rng = random.Random(911)
        for _ in range(60):
            g = tie_heavy_instance(rng)[0].graph
            n = g.vertex_count
            for ints, fracs in (
                (g.int_costs, [e.cost for e in g.edges]),
                (g.int_lengths, [e.length for e in g.edges]),
            ):
                for u in range(n):
                    for v in range(n):
                        for h in range(n + 1):
                            path = hop_bounded_path(g, u, v, h, ints)
                            assert path == hop_bounded_path(g, u, v, h, fracs)
                            assert path is None or len(path.edges) <= h

    def test_one_table_per_source_matches_the_kernel(self):
        # the exact solvers' options, one label pass per source at a bound,
        # are the very paths hop_bounded_path returns: each option's path
        # at its key b, and at every budget h up to the bound the option of
        # the largest key within h (None below the first); parallel and
        # zero-cost edges included, under both integer views
        rng = random.Random(912)
        parallel = zero_cost = several = 0
        for _ in range(60):
            g = tie_heavy_instance(rng)[0].graph
            n = g.vertex_count
            parallel += len({frozenset((e.u, e.v)) for e in g.edges}) < g.edge_count
            zero_cost += 0 in g.int_costs
            bound = rng.randint(0, n + 1)
            for weight in (g.int_costs, g.int_lengths):
                options = _hop_options(g, bound, weight)
                for u in range(n):
                    for v in range(n):
                        if u == v:
                            continue
                        got = options(u, v)
                        several += len(got) > 1
                        for b, edges in got:
                            assert hop_bounded_path(g, u, v, b, weight).edges == edges
                        for h in range(bound + 1):
                            within = [edges for b, edges in got if b <= h]
                            path = hop_bounded_path(g, u, v, h, weight)
                            assert (path and path.edges) == (within[-1] if within else None)
        assert parallel >= 40 and zero_cost >= 20 and several >= 80


class TestExpandToUnit:
    def test_length_one_identity_shape(self):
        g = WeightedGraph(2, [(0, 1, 1, 1)])
        res = expand_to_unit(g)
        assert res.graph.vertex_count == 2 and res.graph.edge_count == 1
        assert res.graph.edges[0].cost == 1

    def test_length_three_unit_per_hop(self):
        g = WeightedGraph(2, [(0, 1, 3, 3)])
        res = expand_to_unit(g)
        assert res.graph.edge_count == 3
        assert res.graph.vertex_count == 4
        assert res.graph.total_cost(range(3)) == 3

    def test_divide_equally(self):
        g = WeightedGraph(2, [(0, 1, 4, 8)])
        res = expand_to_unit(g)
        assert [e.cost for e in res.graph.edges] == [Fraction(2)] * 4

    def test_rejects_fractional_length(self):
        g = WeightedGraph(2, [(0, 1, Fraction(3, 2), 1)])
        with pytest.raises(ValueError):
            expand_to_unit(g)

    def test_labels_propagate(self):
        g = WeightedGraph(2, [(0, 1, 2, 2)], labels=["a", "b"])
        res = expand_to_unit(g)
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
            res = expand_to_unit(g)
            for s in range(n):
                for t in range(s + 1, n):
                    for D in range(1, 8):
                        a = brute_force_restricted_path(g, s, t, Fraction(D))
                        b = brute_force_restricted_path(res.graph, s, t, Fraction(D))
                        assert (a.cost if a else None) == (b.cost if b else None)


    @staticmethod
    def public_expansion(graph):
        """expand_to_unit through the public, checking constructor: the
        reference for the unchecked build."""
        labels = list(graph.labels)
        edges, edge_map = [], []
        next_vertex = graph.vertex_count
        lab = [x if x is not None else str(v) for v, x in enumerate(graph.labels)]
        for e in graph.edges:
            k = int(e.length)
            chain = [e.u]
            for h in range(1, k):
                labels.append(f"{lab[e.u]}~{lab[e.v]}#{h}")
                chain.append(next_vertex)
                next_vertex += 1
            chain.append(e.v)
            edge_map.append(tuple(range(len(edges), len(edges) + k)))
            edges.extend((a, b, Fraction(1), e.cost / k) for a, b in zip(chain, chain[1:]))
        return WeightedGraph(next_vertex, edges, labels), tuple(edge_map)

    def test_checked_build_equals_public_constructor(self, rng):
        costs = [Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2), Fraction(7, 3),
                 Fraction(5, 6), Fraction(12)]
        for _ in range(400):
            n = rng.randint(2, 9)
            edges = []
            for _ in range(rng.randint(0, 14)):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v, rng.randint(1, 5), rng.choice(costs)))
            labels = rng.choice([None, "partial", "full"])
            if labels is not None:
                labels = [f"v{v}" if labels == "full" or rng.random() < 0.5 else None
                          for v in range(n)]
            graph = WeightedGraph(n, edges, labels)
            res = expand_to_unit(graph)
            want, want_map = self.public_expansion(graph)
            got = res.graph
            assert got.vertex_count == want.vertex_count
            assert got.edges == want.edges and got.labels == want.labels
            assert all(type(x) is Fraction for e in got.edges for x in (e.length, e.cost))
            assert (got.int_lengths, got.length_denominator) == (want.int_lengths, want.length_denominator)
            assert (got.int_costs, got.cost_denominator) == (want.int_costs, want.cost_denominator)
            assert res.edge_map == want_map


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

    def test_invalid_edge_index(self, triangle_unit):
        # edge -1 would wrap to edge 2, the 0-2 edge, and satisfy the demand
        inst = make_instance(triangle_unit, 1, [(0, 2)])
        for bad in (-1, triangle_unit.edge_count):
            with pytest.raises(ValueError):
                canonical_path_assignment(inst, {bad})

    def test_agrees_with_fraction_reference(self):
        # raises exactly on infeasible subsets; each path is a shortest one,
        # with its Fraction length and cost
        rng = random.Random(911)
        feasible = 0
        for _ in range(300):
            inst, subset = tie_heavy_instance(rng)
            ref = fraction_feasibility_check(inst, subset)
            if not ref.feasible:
                with pytest.raises(ValueError):
                    canonical_path_assignment(inst, subset)
                continue
            feasible += 1
            paths = canonical_path_assignment(inst, subset)
            g = inst.graph
            for path, d in zip(paths, ref.per_demand):
                assert set(path.edges) <= subset
                assert path.length == d.length == sum(g.edges[i].length for i in path.edges)
                assert path.cost == sum(g.edges[i].cost for i in path.edges)
        assert feasible >= 50

    def test_one_search_per_distinct_source(self, monkeypatch):
        calls = []
        search = slsn.core.dijkstra

        def counted(*args, **kwargs):
            calls.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(slsn.core, "dijkstra", counted)
        g = WeightedGraph(5, [(u, v, 1, 1) for u in range(5) for v in range(u + 1, 5)])
        subset = set(range(g.edge_count))
        for pairs, sources in (
            ([(0, 4), (1, 4), (2, 4)], 1),  # a star: searched once, from its root
            ([(0, 1), (0, 2), (3, 4)], 2),
            ([(0, 1), (2, 3), (1, 4)], 3),
        ):
            calls.clear()
            canonical_path_assignment(make_instance(g, 1, pairs), subset)
            assert len(calls) == sources

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


class TestSeriesReduction:
    def test_matches_unreduced_searches(self):
        # reports, canonical paths and raised errors equal the unreduced
        # searches' on chain-heavy subgraphs, which settle fewer vertices
        rng = random.Random(2026)
        seen = {"chain": 0, "loop": 0, "tie": 0, "lone endpoint": 0, "endpoint inside a chain": 0,
                "feasible": 0, "too long": 0, "disconnected": 0}
        fewer = 0
        for _ in range(400):
            inst, subset, features = chain_heavy_instance(rng)
            rep = feasibility_check(inst, subset)
            assert rep == unreduced_feasibility_check(inst, subset)
            assert outcome(canonical_path_assignment, inst, subset) == outcome(
                unreduced_canonical_paths, inst, subset
            )
            for feature in features:
                seen[feature] += 1
            for d in rep.per_demand:
                seen["disconnected" if d.length is None else "feasible" if d.satisfied else "too long"] += 1
            g = inst.graph
            reduced = _demand_searches(inst, adjacency(g, subset, g.int_lengths))
            full = unreduced_demand_searches(inst, adjacency(g, subset, g.int_lengths))
            fewer += sum(len(run[2]) for run in reduced) < sum(len(run[2]) for run in full)
        assert min(seen.values()) >= 30, seen
        assert fewer >= 100

    def test_chain_shapes(self):
        # 0 and 1 joined by two equal 3-hop chains (edges 0-2 and 3-5), a
        # loop chain at 0 (edges 6-8), an isolated triangle (edges 9-11) and
        # an isolated vertex 11; demand endpoint 3 is inside the first chain
        g = WeightedGraph(12, [
            (0, 2, 1, 1), (2, 3, 1, 1), (3, 1, 1, 1),
            (0, 4, 1, 1), (4, 5, 1, 1), (5, 1, 1, 1),
            (0, 6, 1, 1), (6, 7, 1, 1), (7, 0, 1, 1),
            (8, 9, 1, 1), (9, 10, 1, 1), (10, 8, 1, 1),
        ])
        subset = set(range(12))
        inst = make_instance(g, 3, [(0, 1), (1, 3)])
        paths = canonical_path_assignment(inst, subset)
        # the tie goes to the higher edge indices, whose tie-break bits are smaller
        assert [(p.vertices, p.edges) for p in paths] == [((0, 4, 5, 1), (3, 4, 5)), ((1, 3), (2,))]
        assert [d.length for d in feasibility_check(inst, subset).per_demand] == [3, 1]
        lone = make_instance(g, 3, [(0, 1), (0, 11)])
        assert feasibility_check(lone, subset) == unreduced_feasibility_check(lone, subset)
        assert feasibility_check(lone, subset).per_demand[1].length is None
        with pytest.raises(ValueError, match="feasible edge subset"):
            canonical_path_assignment(lone, subset)

    def test_errors_match_unreduced(self, triangle_unit):
        # infeasible, disconnected and invalid-index subsets raise the same
        # ValueError as the unreduced searches
        inst = make_instance(triangle_unit, 1, [(0, 2)])
        cases = [
            (canonical_path_assignment, unreduced_canonical_paths, {0, 1}),  # too long
            (canonical_path_assignment, unreduced_canonical_paths, {0}),  # disconnected
            (canonical_path_assignment, unreduced_canonical_paths, {-1}),
            (canonical_path_assignment, unreduced_canonical_paths, {0, 3}),
            (feasibility_check, unreduced_feasibility_check, {99}),
            (feasibility_check, unreduced_feasibility_check, {0, -1}),
        ]
        for fn, ref, subset in cases:
            got = outcome(fn, inst, subset)
            assert got[0] == "ValueError" and got == outcome(ref, inst, subset)

    @pytest.mark.parametrize(
        "build, k",
        [(build_case1, 3), (build_case2, 3), (build_case3, 3), (build_case4, 3), (build_case4, 4)],
    )
    def test_gadget_witnesses_match_unreduced(self, build, k):
        mcc = MccInstance.build(k, list(combinations(range(k), 2)), k, {v: v + 1 for v in range(k)})
        bundle = build(mcc)
        inst, subset = bundle.instance, witness_solution(bundle, range(k)).edge_subset
        rep = feasibility_check(inst, subset)
        assert rep.feasible and rep == unreduced_feasibility_check(inst, subset)
        assert canonical_path_assignment(inst, subset) == unreduced_canonical_paths(inst, subset)


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
