import heapq
import itertools
import random
from fractions import Fraction

import pytest

from slsn import star_dst
from slsn.approx import ScaledCosts, build_height_table
from slsn.core import (
    DemandGraph,
    SlsnInstance,
    WeightedGraph,
    adjacency,
    dijkstra,
    expand_to_unit,
    feasibility_check,
)
from slsn.generators import random_instance
from slsn.oracle import brute_force_slsn
from slsn.star_dst import (
    DstInstance,
    Label,
    _fill_dst_table,
    _split_pairs,
    build_layered_dst,
    dst_cost,
    solve_dst,
    solve_slst,
    star_frontiers,
    star_terminals,
    tree_edges,
)

from conftest import cost_of, make_instance, with_edges


class TestLayeredReduction:
    def test_single_edge_shape(self):
        g = WeightedGraph(2, [(0, 1, 1, 7)])
        inst = make_instance(g, 1, [(0, 1)])
        dst, layered = build_layered_dst(inst, 0)
        assert dst.vertex_count == 4
        # two directed copies of the edge plus two stay arcs
        assert len(dst.arcs) == 4
        assert dst.root == layered.to_layered(0, 0)
        assert dst.terminals == (layered.to_layered(1, 1),)

    def test_arc_count_formula(self):
        g = WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
        inst = make_instance(g, 2, [(0, 2)])
        dst, _ = build_layered_dst(inst, 0)
        assert dst.vertex_count == 9
        assert len(dst.arcs) == 2 * (2 * 2) + 3 * 2

    def test_layer_map_bijection(self):
        g = WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
        dst, layered = build_layered_dst(make_instance(g, 2, [(0, 2)]), 0)
        seen = set()
        for v in range(3):
            for i in range(3):
                lid = layered.to_layered(v, i)
                assert layered.to_original(lid) == (v, i)
                seen.add(lid)
        assert seen == set(range(9))

    def test_rejects_non_star(self):
        g = WeightedGraph(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
        inst = make_instance(g, 1, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            build_layered_dst(inst, 0)

    def test_large_L_clamped(self):
        g = WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
        dst, layered = build_layered_dst(make_instance(g, 99, [(0, 2)]), 0)
        assert layered.layers == 3  # n - 1 = 2 hops suffice


class TestSolveDst:
    def test_single_terminal_is_shortest_path(self, two_route):
        inst = make_instance(two_route, 2, [(0, 2)])
        dst, _ = build_layered_dst(inst, 0)
        arcs = solve_dst(dst)
        assert dst_cost(dst, arcs) == 2

    def test_terminal_equals_root(self):
        dst = DstInstance(2, ((0, 1, Fraction(3)),), 0, (0,))
        arcs = solve_dst(dst)
        assert arcs == frozenset() and dst_cost(dst, arcs) == 0

    def test_unreachable_terminal(self):
        dst = DstInstance(3, ((0, 1, Fraction(1)),), 0, (2,))
        assert solve_dst(dst) is None

    def test_shared_prefix_merges(self):
        # root 0 -> 1 (cost 5) then branches 1->2, 1->3 (cost 1 each);
        # direct arcs 0->2, 0->3 cost 5 each. Sharing the prefix wins.
        arcs = (
            (0, 1, Fraction(5)),
            (1, 2, Fraction(1)),
            (1, 3, Fraction(1)),
            (0, 2, Fraction(5)),
            (0, 3, Fraction(5)),
        )
        dst = DstInstance(4, arcs, 0, (2, 3))
        got = solve_dst(dst)
        assert dst_cost(dst, got) == 7
        assert got == {0, 1, 2}

    def test_subset_monotonicity(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n_max=6, m_max=9, star=True)
            root = inst.demands.star_root()
            dst, _ = build_layered_dst(inst, root)
            _, f, _ = _fill_dst_table(dst)
            full = len(f) - 1
            for mask in range(full + 1):
                sub = mask
                while True:
                    for v in range(dst.vertex_count):
                        if f[mask][v] is not None:
                            assert f[sub][v] is not None
                            assert f[sub][v] <= f[mask][v]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask


class TestSolveSlst:
    def test_p1_min_cost_bounded_path(self, detour_graph):
        assert solve_slst(make_instance(detour_graph, 1, [(0, 2)])).total_cost == 3
        assert solve_slst(make_instance(detour_graph, 2, [(0, 2)])).total_cost == 2

    def test_rejects_non_unit_lengths(self):
        g = WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 2, 1)])
        with pytest.raises(ValueError, match="unit edge lengths"):
            solve_slst(make_instance(g, 3, [(0, 2)]))

    def test_parallel_edges_against_oracle(self):
        # random_instance draws no parallel edges; add copies of equal and
        # of differing cost, some cheaper than the edge they copy
        rng = random.Random(3223)
        solved = 0
        for _ in range(40):
            inst = random_instance(rng, star=True, n_max=6, m_max=9)
            picked = rng.sample(inst.graph.edges, min(4, inst.graph.edge_count))
            extra = [(e.u, e.v, 1, e.cost) for e in picked[:2]]
            for e in picked[2:]:
                k = rng.randint(1, 5)
                extra.append((e.u, e.v, 1, rng.choice((max(e.cost - k, 0), e.cost + k))))
            multi = with_edges(inst, extra)
            mine = solve_slst(multi)
            assert cost_of(mine) == cost_of(brute_force_slsn(multi))
            if mine is not None:
                solved += 1
                assert feasibility_check(multi, mine.edge_subset).feasible
        assert solved >= 20

    def test_metamorphic_beyond_oracle(self):
        # m up to 24 is out of the oracle's reach: relate solve_slst runs
        rng = random.Random(3334)
        solved = 0
        for _ in range(30):
            inst = random_instance(rng, star=True, n_max=12, m_max=24)
            base = cost_of(solve_slst(inst))
            solved += base is not None
            g = inst.graph
            e = g.edges[rng.randrange(g.edge_count)]
            dominated = with_edges(inst, [(e.u, e.v, 1, e.cost + rng.randint(0, 3))])
            assert cost_of(solve_slst(dominated)) == base
            # a free edge longer than L, as a path of unit hops
            u, v = rng.sample(range(g.vertex_count), 2)
            long = with_edges(inst, [(u, v, int(inst.L) + 1, 0)]).graph
            expanded = expand_to_unit(long).graph
            assert cost_of(solve_slst(SlsnInstance(expanded, inst.L, inst.demands))) == base
            c = rng.choice((Fraction(3), Fraction(5, 2)))
            scaled = cost_of(solve_slst(with_edges(inst, scale=c)))
            assert scaled == (None if base is None else c * base)
        assert solved >= 15

    def test_round_trip_cost_identity(self, rng):
        for _ in range(30):
            inst = random_instance(rng, star=True)
            root = inst.demands.star_root()
            dst, _ = build_layered_dst(inst, root)
            arcs = solve_dst(dst)
            sol = solve_slst(inst)
            assert (arcs is None) == (sol is None)
            if sol is not None:
                assert sol.total_cost == dst_cost(dst, arcs)

    def test_oracle_equivalence_fuzz(self):
        rng = random.Random(3003)
        for _ in range(60):
            inst = random_instance(rng, star=True)
            mine = solve_slst(inst)
            ref = brute_force_slsn(inst)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine.total_cost == ref.total_cost
                rep = feasibility_check(inst, mine.edge_subset)
                assert rep.feasible
                for path in mine.witness_paths:
                    assert path.length <= inst.L

    def test_slack_bound_equals_steiner_tree(self):
        rng = random.Random(3113)
        for _ in range(20):
            inst = random_instance(rng, star=True, L_range=(1, 1))
            slack = SlsnInstance(inst.graph, Fraction(inst.graph.vertex_count), inst.demands)
            mine = solve_slst(slack)
            ref = brute_force_slsn(slack)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine.total_cost == ref.total_cost


def root_distances(graph, lengths, root):
    """d(root, v) for every reachable v, by Bellman-Ford over the edges."""
    dist = {root: 0}
    changed = True
    while changed:
        changed = False
        for idx, e in enumerate(graph.edges):
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if a in dist and (b not in dist or dist[a] + lengths[idx] < dist[b]):
                    dist[b] = dist[a] + lengths[idx]
                    changed = True
    return dist


def with_far_component(inst, terminal):
    """inst plus an edge between two new vertices the root cannot reach;
    with terminal, the far one of them is also demanded from the root."""
    g = inst.graph
    n = g.vertex_count
    edges = [(e.u, e.v, e.length, e.cost) for e in g.edges] + [(n, n + 1, 1, 0)]
    pairs = list(inst.demands.pairs)
    if terminal:
        pairs.append((inst.demands.star_root(), n + 1))
    return SlsnInstance(WeightedGraph(n + 2, edges), inst.L, DemandGraph(pairs))


def tie_heavy_stars(seed, trials, p_max=4):
    """Seeded stars on which ties are common: unit and rational lengths,
    costs 0..3 and tight L; on two trials in three a component the root
    cannot reach, once with a terminal in it.  Yields (graph, root,
    terminals, L, cap, dist) for cap None and half the total cost, dist
    the shortest lengths from the root."""
    rng = random.Random(seed)
    for trial in range(trials):
        kind = ("unit", "rational")[trial % 2]
        inst = random_instance(
            rng, star=True, length_kind=kind, cost_range=(0, 3), p_max_star=p_max
        )
        if trial % 3:
            inst = with_far_component(inst, terminal=trial % 3 == 2)
        g = inst.graph
        root, terminals = star_terminals(inst)
        dist = root_distances(g, g.int_lengths, root)
        for L in {rng.choice(sorted(dist.values())[1:] or [1]), max(dist.values()) + 1}:
            for cap in (None, sum(g.int_costs) // 2):
                yield g, root, terminals, L, cap, dist


class TestRootSlackPruning:
    """star_frontiers with a root against the unpruned DP (root=None)."""

    def test_cells_are_unpruned_cells_cut_at_slack(self):
        for g, root, terminals, L, cap, dist in tie_heavy_stars(1414, 48):
            lengths, costs = g.int_lengths, g.int_costs
            full = (1 << len(terminals)) - 1
            ref = star_frontiers(g, terminals, lengths, costs, L, cap)
            got = star_frontiers(g, terminals, lengths, costs, L, cap, root=root)
            assert got.keys() == ref.keys()
            assert got[(root, full)] == ref[(root, full)]
            if ref[(root, full)]:
                assert tree_edges(got[(root, full)][-1]) == tree_edges(ref[(root, full)][-1])
            for (v, mask), row in got.items():
                if mask == 0:
                    assert row == ref[(v, mask)]  # the leaf, at every vertex
                    continue
                slack = L - dist[v] if v in dist else -1
                assert row == tuple(x for x in ref[(v, mask)] if x.height <= slack)

    def test_height_table_cells_fall(self):
        # a rational star with labels far from the root that no root tree of
        # height <= L can use
        edges = [
            (0, 1, Fraction(1, 2), 1), (1, 2, Fraction(1, 2), 0), (2, 3, Fraction(3, 2), 2),
            (0, 4, 1, 3), (4, 3, Fraction(1, 2), 1), (1, 4, Fraction(1, 3), 0),
            (3, 5, 1, 1), (4, 5, Fraction(3, 2), 2), (5, 6, 2, 0), (2, 6, Fraction(5, 2), 1),
        ]
        inst = SlsnInstance(WeightedGraph(7, edges), 4, DemandGraph([(0, 3), (0, 5), (0, 6)]))
        eps, C = Fraction(1, 4), Fraction(1)
        table = build_height_table(inst, eps, C)
        g = inst.graph
        _, terminals = star_terminals(inst)
        scaled = ScaledCosts.compute(g, eps, C).values
        unpruned = star_frontiers(
            g, terminals, g.int_lengths, scaled, inst.length_cap, table.budget_cap
        )
        assert table.frontiers[(0, 7)] == unpruned[(0, 7)] != ()
        assert sum(len(row) for row in unpruned.values()) == 48
        assert sum(1 for _ in table.cells()) == 33


def all_pairs_star_frontiers(graph, terminals, lengths, costs, L, cap=None, root=None, pushed=None):
    """star_frontiers with every split pair pushed: each (vertex, sub)
    split at every vertex, empty parts included, and the whole product of
    its two frontiers.  pushed[0] counts the split pairs pushed."""
    n = graph.vertex_count
    if root is None:
        bound = [L] * n
    else:
        dist, _ = dijkstra(adjacency(graph, range(graph.edge_count), lengths), {root: 0})
        bound = [L - dist[v] if v in dist and dist[v] <= L else -1 for v in range(n)]
    tbit = {t: 1 << i for i, t in enumerate(terminals)}
    full = (1 << len(terminals)) - 1
    arcs = [[] for _ in range(n)]
    for idx, e in enumerate(graph.edges):
        arcs[e.v].append((e.u, lengths[idx], costs[idx], idx))
        arcs[e.u].append((e.v, lengths[idx], costs[idx], idx))
    frontiers = {(v, 0): (Label(0, 0, ("leaf",)),) for v in range(n)}
    order = itertools.count()
    for mask in range(1, full + 1):
        kept = {v: [] for v in range(n) if not tbit.get(v, 0) & mask}
        heap = []

        def relax(v, label):
            for a, ln, co, idx in arcs[v]:
                row = kept.get(a)
                h, c = label.height + ln, label.cost + co
                if row is None or h > bound[a] or (cap is not None and c > cap):
                    continue
                if not row or c < row[-1].cost:
                    heapq.heappush(heap, (h, c, next(order), a, ("edge", idx, label)))

        for v in kept:
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:
                    for a in frontiers[(v, sub)]:
                        for b in frontiers[(v, other)]:
                            c = a.cost + b.cost
                            if cap is None or c <= cap:
                                h = max(a.height, b.height)
                                heapq.heappush(heap, (h, c, next(order), v, ("split", a, b)))
                                if pushed is not None:
                                    pushed[0] += 1
                sub = (sub - 1) & mask
        for t, bit in tbit.items():
            if bit & mask:
                for label in frontiers[(t, mask ^ bit)]:
                    relax(t, label)
        while heap:
            h, c, _, v, prov = heapq.heappop(heap)
            row = kept[v]
            if not row or c < row[-1].cost:
                label = Label(h, c, prov)
                row.append(label)
                relax(v, label)
        for v, row in kept.items():
            frontiers[(v, mask)] = tuple(row)
    return frontiers


def star_dp_runs(seed=2207, trials=300):
    """star_frontiers argument lists over tie_heavy_stars with up to five
    terminals, each without and with the root."""
    for g, root, terminals, L, cap, _ in tie_heavy_stars(seed, trials, p_max=5):
        for r in (None, root):
            yield g, terminals, g.int_lengths, g.int_costs, L, cap, r


def random_frontier(rng):
    """1 to 5 labels with heights strictly rising and costs strictly
    falling, from small ranges so that heights tie across frontiers."""
    k = rng.randint(1, 5)
    heights = sorted(rng.sample(range(7), k))
    costs = sorted(rng.sample(range(12), k), reverse=True)
    return tuple(Label(h, c, ("leaf",)) for h, c in zip(heights, costs))


class TestSplitSeeding:
    """The pruned split seeding of star_frontiers against pushing every
    pair of every split at every vertex."""

    def test_frontiers_match_the_all_pairs_dp(self):
        # whole frontier dicts, provenance included: a dropped seed or a
        # reordered tie would change a label or the tree it records
        five = 0
        for args in star_dp_runs():
            assert star_frontiers(*args) == all_pairs_star_frontiers(*args)
            five += len(args[1]) == 5
        assert five >= 200

    def test_equal_seeds_pop_by_ascending_vertex(self):
        # Steiner vertices 3 and 4 each join terminals 1 and 2 at height 1
        # and cost 2, and reach the root 0 through 5 at equal cost; the tie
        # goes to the seed pushed first, the one at the lower vertex
        edges = [(3, 1, 1, 1), (3, 2, 1, 1), (4, 1, 1, 1), (4, 2, 1, 1),
                 (5, 3, 1, 1), (5, 4, 1, 1), (0, 5, 1, 1)]
        g = WeightedGraph(6, edges)
        args = (g, (1, 2), g.int_lengths, g.int_costs, 3, None, 0)
        got = star_frontiers(*args)
        assert got == all_pairs_star_frontiers(*args)
        (label,) = got[(0, 3)]
        assert (label.height, label.cost, tree_edges(label)) == (3, 4, {0, 1, 4, 6})

    def test_split_pairs_are_the_pareto_front_of_the_product(self, monkeypatch):
        def beats(y, x):  # pair y is no higher and no dearer than x, and not equal
            (ya, yb), (xa, xb) = y, x
            hy, cy = max(ya.height, yb.height), ya.cost + yb.cost
            hx, cx = max(xa.height, xb.height), xa.cost + xb.cost
            return hy <= hx and cy <= cx and (hy, cy) != (hx, cx)

        def check(A, B):
            product = [(a, b) for a in A for b in B]
            got = _split_pairs(A, B)
            # the undominated pairs, in (index in A, index in B) order
            assert got == [x for x in product if not any(beats(y, x) for y in product)]
            assert len(got) <= len(A) + len(B) - 1
            assert all(any(beats(y, x) for y in got) for x in product if x not in got)

        rng = random.Random(77)
        for _ in range(3000):
            check(random_frontier(rng), random_frontier(rng))
        seen = []

        def spy(A, B, real=star_dst._split_pairs):
            seen.append((A, B))
            return real(A, B)

        monkeypatch.setattr(star_dst, "_split_pairs", spy)
        for args in star_dp_runs(trials=60):
            star_frontiers(*args)
        assert len(seen) >= 100
        for A, B in seen:
            check(A, B)

    def test_seed_and_label_counts(self, monkeypatch):
        # split seeds that enter the heap and labels kept over the corpus,
        # with the split pairs the all-pairs DP pushes for scale
        seeds, labels, pushed = [0], 0, [0]

        def count(*args, real=star_dst._split_seeds):
            heap = real(*args)
            seeds[0] += len(heap)
            return heap

        monkeypatch.setattr(star_dst, "_split_seeds", count)
        for args in star_dp_runs():
            labels += sum(len(row) for row in star_frontiers(*args).values())
            all_pairs_star_frontiers(*args, pushed=pushed)
        assert (pushed[0], seeds[0], labels) == (41906, 19615, 55278)
