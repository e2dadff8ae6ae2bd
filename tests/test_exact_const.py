import functools
import gc
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from slsn.approx import approx_const, approx_star
from slsn.core import (
    DemandGraph,
    SlsnInstance,
    WeightedGraph,
    adjacency,
    canonical_path_assignment,
    dijkstra,
    expand_to_unit,
    feasibility_check,
)
from slsn.core import restricted_min_cost_path
from slsn import exact_const
from slsn.exact_const import (
    _Chain,
    _enumerate_chains,
    _fitting_chains,
    _hop_options,
    _option_guesses,
    _search_best_union,
    _solve_by_chains,
    length_distances,
    shortest_length_under_edge_budget,
    solve_unit_cost,
    solve_unit_length,
)
from slsn.generators import random_instance, random_unit_cost_instance
from slsn.oracle import brute_force_restricted_path, brute_force_slsn
from slsn.star_dst import hop_bounded_path, solve_slst

from conftest import cost_of, make_instance, scaled_instance, with_edges


class TestSolveUnitLength:
    def test_single_demand_direct_edge(self):
        g = WeightedGraph(2, [(0, 1, 1, 6)])
        sol = solve_unit_length(make_instance(g, 1, [(0, 1)]))
        assert sol.total_cost == 6 and sol.edge_subset == {0}

    def test_detour_examples(self, detour_graph):
        assert solve_unit_length(make_instance(detour_graph, 1, [(0, 2)])).total_cost == 3
        assert solve_unit_length(make_instance(detour_graph, 2, [(0, 2)])).total_cost == 2

    def test_theta_sharing_beats_independent(self, theta_graph):
        # expensive side arcs have non-unit lengths; build a unit-length twin
        edges = [
            (0, 2, 1, 1),
            (2, 3, 1, 1),
            (3, 1, 1, 1),
            (0, 4, 1, 2),
            (4, 5, 1, 2),
            (5, 1, 1, 2),
        ]
        g = WeightedGraph(6, edges)
        inst = make_instance(g, 3, [(0, 1), (2, 3)])
        sol = solve_unit_length(inst)
        ref = brute_force_slsn(inst)
        assert sol.total_cost == ref.total_cost == 3  # spine shared, counted once
        independent = 3 + 1  # spine for one demand + middle edge again
        assert sol.total_cost < independent

    def test_rejects_non_unit_lengths(self):
        g = WeightedGraph(2, [(0, 1, 2, 1)])
        with pytest.raises(ValueError):
            solve_unit_length(make_instance(g, 2, [(0, 1)]))

    def test_infeasible(self):
        g = WeightedGraph(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
        assert solve_unit_length(make_instance(g, 3, [(0, 2)])) is None

    def test_warns_above_four_demands(self):
        g = WeightedGraph(
            6, [(u, v, 1, 1) for u in range(6) for v in range(u + 1, 6)][:10]
        )
        pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        inst = make_instance(g, 4, pairs)
        with pytest.warns(RuntimeWarning):
            solve_unit_length(inst)

    def test_oracle_equivalence_fuzz(self):
        rng = random.Random(1001)
        for _ in range(60):
            inst = random_instance(rng)
            mine = solve_unit_length(inst)
            ref = brute_force_slsn(inst)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine.total_cost == ref.total_cost
                assert feasibility_check(inst, mine.edge_subset).feasible

    def test_output_relabel_invariant_cost(self, rng):
        inst = random_instance(rng, n_max=6, m_max=9)
        base = solve_unit_length(inst)
        n = inst.graph.vertex_count
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = WeightedGraph(
            n, [(perm[e.u], perm[e.v], e.length, e.cost) for e in inst.graph.edges]
        )
        d2 = DemandGraph([(perm[s], perm[t]) for s, t in inst.demands.pairs])
        other = solve_unit_length(SlsnInstance(g2, inst.L, d2))
        assert (base is None) == (other is None)
        if base is not None:
            assert base.total_cost == other.total_cost

    def test_metamorphic_cost_scaling(self):
        # costs times c: the same edge set at c times the cost
        rng = random.Random(1003)
        for c in (Fraction(3), Fraction(5, 2), Fraction(1, 7)):
            for _ in range(30):
                inst = random_instance(rng, cost_range=(0, 9))
                sol, sol_c = solve_unit_length(inst), solve_unit_length(scaled_instance(inst, c))
                assert (sol is None) == (sol_c is None)
                if sol is not None:
                    assert sol_c.edge_subset == sol.edge_subset
                    assert sol_c.total_cost == c * sol.total_cost

    def test_shared_segment_count_bound(self):
        # optimal canonical paths share at most one maximal segment per pair
        rng = random.Random(4242)
        for _ in range(30):
            inst = random_instance(rng, p_choices=(2, 3))
            sol = solve_unit_length(inst)
            if sol is None:
                continue
            paths = canonical_path_assignment(inst, sol.edge_subset)
            p = len(paths)
            segments = 0
            for i in range(p):
                for j in range(i + 1, p):
                    segments += _maximal_shared_segments(paths[i], paths[j])
            assert segments <= p * (p - 1) // 2


def _maximal_shared_segments(pa, pb):
    shared = set(pa.edges) & set(pb.edges)
    if not shared:
        return 0
    runs = 0
    in_run = False
    for e in pa.edges:
        if e in shared:
            if not in_run:
                runs += 1
                in_run = True
        else:
            in_run = False
    return runs


class TestSolveUnitCost:
    def test_single_demand_minimizes_edges(self):
        # 0-1-2 each length 1 (2 edges) vs direct 0-2 length 3 (1 edge)
        g = WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 3, 1)])
        sol = solve_unit_cost(make_instance(g, 3, [(0, 2)]))
        assert sol.total_cost == 1
        tight = solve_unit_cost(make_instance(g, 2, [(0, 2)]))
        assert tight.total_cost == 2

    def test_infeasible(self):
        g = WeightedGraph(2, [(0, 1, 5, 1)])
        assert solve_unit_cost(make_instance(g, 2, [(0, 1)])) is None

    def test_rejects_non_unit_costs(self):
        g = WeightedGraph(2, [(0, 1, 1, 2)])
        with pytest.raises(ValueError):
            solve_unit_cost(make_instance(g, 1, [(0, 1)]))

    def test_rejects_fractional_lengths(self):
        g = WeightedGraph(2, [(0, 1, Fraction(1, 2), 1)])
        with pytest.raises(ValueError):
            solve_unit_cost(make_instance(g, 1, [(0, 1)]))

    def test_joint_detour(self):
        # one demand alone would take the short route, but serving both
        # demands jointly reuses a longer shared corridor
        edges = [
            (0, 2, 2, 1),  # corridor
            (2, 1, 2, 1),
            (0, 3, 1, 1),  # short private route for demand (0,1)... too long jointly
            (3, 1, 4, 1),
        ]
        g = WeightedGraph(4, edges)
        inst = make_instance(g, 4, [(0, 1), (0, 2)])
        sol = solve_unit_cost(inst)
        ref = brute_force_slsn(inst)
        assert sol.total_cost == ref.total_cost == 2

    def test_oracle_equivalence_fuzz(self):
        rng = random.Random(2002)
        for _ in range(40):
            inst = random_unit_cost_instance(rng)
            mine = solve_unit_cost(inst)
            ref = brute_force_slsn(inst)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine.total_cost == ref.total_cost
                assert feasibility_check(inst, mine.edge_subset).feasible

    def test_metamorphic_length_scaling(self):
        # lengths and L times c: the optimum cost is unchanged
        rng = random.Random(2003)
        for c in (2, 3):
            for _ in range(30):
                inst = random_unit_cost_instance(rng)
                sol, sol_c = solve_unit_cost(inst), solve_unit_cost(scaled_instance(inst, 1, c))
                assert (sol is None) == (sol_c is None)
                if sol is not None:
                    assert sol_c.total_cost == sol.total_cost


class TestShortestLengthUnderEdgeBudget:
    def test_agrees_with_oracle_on_the_swapped_graph(self):
        # the swapped graph has unit lengths and each edge's length as its
        # cost, so the oracle's cheapest path within h there is the
        # shortest path within h edges here
        rng = random.Random(1321)
        several = 0
        for _ in range(80):
            graph = random_unit_cost_instance(rng, n_max=7, m_max=16, length_range=(1, 9)).graph
            n = graph.vertex_count
            swapped = WeightedGraph(n, [(e.u, e.v, 1, e.length) for e in graph.edges])
            for u, v in itertools.combinations(range(n), 2):
                lengths = set()
                for h in range(n + 1):
                    mine = shortest_length_under_edge_budget(graph, u, v, h)
                    ref = brute_force_restricted_path(swapped, u, v, Fraction(h))
                    assert (mine and mine.length) == (ref and ref.cost)
                    assert mine is None or len(mine.edges) <= h
                    lengths.add(mine and mine.length)
                several += len(lengths - {None}) > 1
        assert several >= 100


class TestCrossSolver:
    """Beyond the oracle's 16-edge cap, the exact solvers must agree.

    On unit lengths and unit costs both exact solvers apply: one guesses
    hop budgets, the other edge budgets, through the same chain search.
    Star demands add the star solver as a third opinion.
    """

    def test_unit_length_unit_cost_and_star_agree(self):
        rng = random.Random(4004)
        solved = 0
        for trial in range(36):
            # the last six are 3-leaf stars with n = 9, m = 17, L = 3
            fixed = trial >= 30
            n = 9 if fixed else rng.randint(7, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            m = 17 if fixed else rng.randint(17, min(24, len(pairs)))
            graph = WeightedGraph(n, [(u, v, 1, 1) for u, v in pairs[:m]])
            vertices = list(range(n))
            rng.shuffle(vertices)
            star = fixed or trial % 2 == 0
            if star:
                leaves = 3 if fixed else rng.randint(1, 3)
                demands = [(vertices[0], t) for t in vertices[1 : 1 + leaves]]
            else:
                demands = [tuple(vertices[:2]), tuple(vertices[2:4])]
            inst = make_instance(graph, 3 if fixed else rng.randint(1, 4), demands)
            by_length = solve_unit_length(inst)
            by_cost = solve_unit_cost(inst)
            assert (by_length is None) == (by_cost is None)
            if by_length is None:
                continue
            solved += 1
            assert by_length.total_cost == by_cost.total_cost
            assert feasibility_check(inst, by_cost.edge_subset).feasible
            if star:
                assert solve_slst(inst).total_cost == by_length.total_cost
        assert solved >= 20

    def test_unit_length_ignores_dominated_and_overlong_edges(self):
        # a parallel edge no shorter and no cheaper, or a free path of
        # floor(L) + 1 unit hops, leaves the optimum cost unchanged
        rng = random.Random(4005)
        solved = 0
        for _ in range(30):
            inst = _beyond_oracle_instance(rng, lambda: (1, rng.randint(1, 6)))
            base = cost_of(solve_unit_length(inst))
            solved += base is not None
            g = inst.graph
            e = g.edges[rng.randrange(g.edge_count)]
            dominated = with_edges(inst, [(e.u, e.v, 1, e.cost + rng.randint(0, 3))])
            assert cost_of(solve_unit_length(dominated)) == base
            u, v = rng.sample(range(g.vertex_count), 2)
            long = expand_to_unit(with_edges(inst, [(u, v, int(inst.L) + 1, 0)]).graph).graph
            assert cost_of(solve_unit_length(SlsnInstance(long, inst.L, inst.demands))) == base
        assert solved >= 20

    def test_unit_cost_ignores_longer_and_overlong_edges(self):
        # a longer parallel edge, or an edge of length floor(L) + 1, leaves
        # the optimum cost unchanged
        rng = random.Random(4006)
        solved = 0
        for _ in range(30):
            inst = _beyond_oracle_instance(rng, lambda: (rng.randint(1, 2), 1))
            base = cost_of(solve_unit_cost(inst))
            solved += base is not None
            g = inst.graph
            e = g.edges[rng.randrange(g.edge_count)]
            longer = with_edges(inst, [(e.u, e.v, e.length + rng.randint(1, 2), 1)])
            assert cost_of(solve_unit_cost(longer)) == base
            u, v = rng.sample(range(g.vertex_count), 2)
            overlong = with_edges(inst, [(u, v, int(inst.L) + 1, 1)])
            assert cost_of(solve_unit_cost(overlong)) == base
        assert solved >= 20


def _beyond_oracle_instance(rng, length_and_cost):
    """An instance in the TestCrossSolver range: n = 7..9, m = 17..24, a
    star of 1..3 leaves or two disjoint pairs, and L = 1..4; each edge's
    (length, cost) comes from length_and_cost()."""
    n = rng.randint(7, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(17, min(24, len(pairs)))
    graph = WeightedGraph(n, [(u, v, *length_and_cost()) for u, v in pairs[:m]])
    vertices = list(range(n))
    rng.shuffle(vertices)
    if rng.random() < 0.5:
        demands = [(vertices[0], t) for t in vertices[1 : 1 + rng.randint(1, 3)]]
    else:
        demands = [tuple(vertices[:2]), tuple(vertices[2:4])]
    return make_instance(graph, rng.randint(1, 4), demands)


def hop_distances(graph):
    """Hop counts, table[source][v] (None if unreachable)."""
    adj = adjacency(graph, range(graph.edge_count), [1] * graph.edge_count)
    table = []
    for source in range(graph.vertex_count):
        dist, _ = dijkstra(adj, {source: 0})
        table.append([dist.get(v) for v in range(graph.vertex_count)])
    return table


def _split_slack(hops, resolve, pairs, slack, done=()):
    """Every way to give each pair (u, v), u < v, a budget of its hop
    distance plus a share of slack, appended to the guesses done; a budget
    that resolve leaves without a path ends that branch."""
    if not pairs:
        yield done
        return
    (u, v), rest = pairs[0], pairs[1:]
    lo = hops[u][v]
    for budget in range(lo, lo + slack + 1):
        path = resolve(u, v, budget)
        if path is not None:
            guess = (((u, v), budget), path.edges)
            yield from _split_slack(hops, resolve, rest, slack - (budget - lo), (*done, guess))


def _budget_guesses(hops, total_budget, seg_path):
    """Reference guess space of the exact solvers, unfiltered: every budget
    per segment from its hop distance up, the budgets summing to at most
    total_budget, each resolved by seg_path(u, v, budget) (cached).  Most
    budgets resolve to the path of the budget below; the solvers keep one
    budget per distinct path (_hop_options)."""
    resolve = functools.cache(seg_path)

    def guesses(seq):
        pairs = tuple((min(a, b), max(a, b)) for a, b in zip(seq, seq[1:]))
        return _split_slack(hops, resolve, pairs, total_budget - sum(hops[u][v] for u, v in pairs))

    return guesses


def _unpruned_chains(instance, s, t, lengths, guesses):
    """Reference for _enumerate_chains: every sequence of up to 2(p-1)
    distinct intermediates, kept when its shortest lengths fit L."""
    graph = instance.graph
    pool = [w for w in range(graph.vertex_count) if w not in (s, t)]
    chains = []
    for k in range(2 * (instance.demands.size - 1) + 1):
        for mid in itertools.permutations(pool, k):
            seq = (s, *mid, t)
            steps = [lengths[a][b] for a, b in zip(seq, seq[1:])]
            if None in steps or sum(steps) > instance.length_cap:
                continue
            for guess in guesses(seq):
                edges = frozenset().union(*(path for _, path in guess))
                cost = sum(graph.int_costs[idx] for idx in edges)
                chains.append(_Chain(seq, tuple(item for item, _ in guess), edges, cost, frozenset(mid)))
    return sorted(chains, key=lambda c: (c.cost, c.sequence, c.items))


def _first_cheapest_union(instance, chain_lists):
    """Reference for _search_best_union: the first cheapest combination in
    itertools.product order whose budgets agree on every shared pair, whose
    non-terminal intermediates each lie on at least two chains, and whose
    union is feasible."""
    terminals = instance.demands.vertices()
    best_cost = best_union = None
    for combo in itertools.product(*chain_lists):
        budgets = {}
        if any(budgets.setdefault(pair, b) != b for chain in combo for pair, b in chain.items):
            continue
        counts = Counter(w for chain in combo for w in chain.intermediates)
        if any(k < 2 for w, k in counts.items() if w not in terminals):
            continue
        union = frozenset().union(*(chain.edges for chain in combo))
        cost = sum(instance.graph.int_costs[e] for e in union)
        if (best_cost is None or cost < best_cost) and feasibility_check(instance, union).feasible:
            best_cost, best_union = cost, union
    return best_union


def _shared_spine_instance(rng):
    """A p = 3 unit-length instance whose demands (a, b) and (c, d) can
    share the spine w1-w2, while (e, f) can either join that spine through
    e-w1 and w2-f or take the edge e-f, which costs exactly as much as those
    two: the two last chains then add the same cost to the union but lie in
    different junction groups ({w1, w2} and the empty set).  Up to three
    random extra edges and L = 3 or 4 vary the rest."""
    n = 8
    a, b, c, d, e, f, w1, w2 = rng.sample(range(n), n)
    edges = [(u, v, 1, rng.randint(1, 3)) for u, v in [(a, w1), (c, w1), (w1, w2), (w2, b), (w2, d)]]
    ew, wf = rng.randint(1, 2), rng.randint(1, 2)
    edges += [(e, w1, 1, ew), (w2, f, 1, wf), (e, f, 1, ew + wf)]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, 1, rng.randint(1, 3)))
    return make_instance(WeightedGraph(n, edges), rng.randint(3, 4), [(a, b), (c, d), (e, f)])


def _cheapest_combinations(instance, chain_lists):
    """Every combination that _first_cheapest_union admits at the least
    cost, in itertools.product order, each with its union."""
    terminals = instance.demands.vertices()
    best_cost, best = None, []
    for combo in itertools.product(*chain_lists):
        budgets = {}
        if any(budgets.setdefault(pair, b) != b for chain in combo for pair, b in chain.items):
            continue
        counts = Counter(w for chain in combo for w in chain.intermediates)
        if any(k < 2 for w, k in counts.items() if w not in terminals):
            continue
        union = frozenset().union(*(chain.edges for chain in combo))
        cost = sum(instance.graph.int_costs[e] for e in union)
        if best_cost is not None and cost > best_cost:
            continue
        if feasibility_check(instance, union).feasible:
            if best_cost is None or cost < best_cost:
                best_cost, best = cost, []
            best.append((combo, union))
    return best


class TestChainSearch:
    @pytest.mark.parametrize(
        "make, resolve",
        [
            (random_instance, restricted_min_cost_path),
            (random_unit_cost_instance, shortest_length_under_edge_budget),
        ],
    )
    def test_union_search_matches_product_reference(self, make, resolve):
        rng = random.Random(1312)
        compared = 0
        for _ in range(150):
            inst = make(rng, n_max=6, m_max=9)
            graph = inst.graph
            hops = hop_distances(graph)
            lengths = hops if graph.has_unit_lengths() else length_distances(graph)
            budget = min(inst.length_cap, graph.vertex_count - 1)
            guesses = _budget_guesses(hops, budget, lambda u, v, b: resolve(graph, u, v, b))
            chain_lists = [
                _enumerate_chains(inst, s, t, lengths, guesses) for s, t in inst.demands.pairs
            ]
            if not all(chain_lists) or math.prod(map(len, chain_lists)) > 20000:
                continue
            assert _search_best_union(inst, chain_lists) == _first_cheapest_union(inst, chain_lists)
            compared += 1
        assert compared >= 100

    def test_last_level_merges_junction_groups_in_list_order(self):
        # The last level walks only the chains whose junction group (their
        # non-terminal intermediates) fits the chosen chains, merging the
        # fitting groups back into list order.  On these p = 3 instances
        # the walk for every pair of leading chains is exactly the last
        # list filtered by the junction rule, and equally cheap feasible
        # unions follow the same two chains with last chains from
        # different groups, so the tie-break crosses groups.
        rng = random.Random(1316)
        merged = tied = 0
        for _ in range(40):
            inst = _shared_spine_instance(rng)
            graph = inst.graph
            hops = hop_distances(graph)
            budget = min(inst.length_cap, graph.vertex_count - 1)
            guesses = _budget_guesses(
                hops, budget, lambda u, v, b: restricted_min_cost_path(graph, u, v, b)
            )
            chain_lists = [
                _enumerate_chains(inst, s, t, hops, guesses) for s, t in inst.demands.pairs
            ]
            assert _search_best_union(inst, chain_lists) == _first_cheapest_union(inst, chain_lists)
            terminals = inst.demands.vertices()
            groups = {}
            for chain in chain_lists[2]:
                groups.setdefault(chain.intermediates - terminals, []).append(chain)
            for first, second in itertools.product(chain_lists[0][:12], chain_lists[1][:12]):
                lead = [chain.intermediates - terminals for chain in (first, second)]
                fits = [
                    chain
                    for chain in chain_lists[2]
                    if all(
                        k >= 2
                        for k in Counter(
                            w for ks in (*lead, chain.intermediates - terminals) for w in ks
                        ).values()
                    )
                ]
                assert list(_fitting_chains(groups, lead)) == fits
                merged += len({chain.intermediates - terminals for chain in fits}) > 1
            by_lead = {}
            for combo, union in _cheapest_combinations(inst, chain_lists):
                by_lead.setdefault(combo[:2], set()).add((combo[2].intermediates - terminals, union))
            tied += any(
                len({k for k, _ in last}) > 1 and len({u for _, u in last}) > 1
                for last in by_lead.values()
            )
        assert merged >= 1000 and tied >= 20

    def test_prefix_pruning_keeps_every_chain(self):
        rng = random.Random(1313)
        compared = 0
        for trial in range(8):
            unit = trial % 2 == 0
            n = rng.randint(5, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(n - 1, min(2 * n, len(pairs))))
            graph = WeightedGraph(
                n, [(u, v, 1 if unit else rng.randint(1, 3), rng.randint(1, 5)) for u, v in edges]
            )
            hops, lengths = hop_distances(graph), length_distances(graph)
            resolvers = [shortest_length_under_edge_budget]
            if unit:
                resolvers.append(restricted_min_cost_path)
            for p in (1, 2, 3):
                demands = rng.sample(pairs, p)
                for L in [Fraction(1, 2), *range(1, n + 2)]:
                    inst = make_instance(graph, L, demands)
                    budget = min(inst.length_cap, n - 1)
                    for resolve in resolvers:
                        guesses = _budget_guesses(
                            hops, budget, lambda u, v, b, f=resolve: f(graph, u, v, b)
                        )
                        for s, t in inst.demands.pairs:
                            mine = _enumerate_chains(inst, s, t, lengths, guesses)
                            assert mine == _unpruned_chains(inst, s, t, lengths, guesses)
                            compared += bool(mine)
        assert compared >= 100

    @pytest.mark.parametrize(
        "solve, make", [(solve_unit_length, random_instance), (solve_unit_cost, random_unit_cost_instance)]
    )
    def test_none_below_one_and_oracle_at_n_and_beyond(self, solve, make):
        rng = random.Random(1314)
        for _ in range(15):
            base = make(rng, n_max=6, m_max=10)
            n = base.graph.vertex_count
            assert solve(SlsnInstance(base.graph, Fraction(1, 2), base.demands)) is None
            for L in (n, n + 3):
                inst = SlsnInstance(base.graph, L, base.demands)
                assert cost_of(solve(inst)) == cost_of(brute_force_slsn(inst))


def _tie_heavy_instance(rng, unit_cost):
    """n = 4..7 with many tied least-weight paths: unit lengths and costs
    0..2, or unit costs and lengths 1..2, each edge doubled by a parallel
    copy with probability 0.3; p = 1..3 demands and L = 1..n+1."""
    n = rng.randint(4, 7)
    edges = []
    for _ in range(rng.randint(n, 2 * n + 2)):
        u, v = rng.sample(range(n), 2)
        edges += [(u, v, rng.randint(1, 2), 1) if unit_cost else (u, v, 1, rng.randint(0, 2))]
        if rng.random() < 0.3:
            edges.append(edges[-1])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_instance(WeightedGraph(n, edges), rng.randint(1, n + 1), rng.sample(pairs, rng.randint(1, 3)))


def _reference_guesses(instance, weight):
    """The unfiltered budget guesser at the solve's budget, each key
    resolved by star_dst.hop_bounded_path."""
    graph = instance.graph
    budget = min(instance.length_cap, graph.vertex_count - 1)
    return _budget_guesses(
        hop_distances(graph), budget, lambda u, v, b: hop_bounded_path(graph, u, v, b, weight)
    )


class TestHopOptions:
    """The exact solvers keep one guess per distinct hop-bounded path, at
    its edge count, out of the reference guesser's budgets."""

    def test_options_are_the_reference_guessers_distinct_paths(self):
        rng = random.Random(1318)
        compared = 0
        for trial in range(100):
            graph = _tie_heavy_instance(rng, unit_cost=trial % 2 == 1).graph
            n = graph.vertex_count
            hops = hop_distances(graph)
            for weight in (graph.int_costs, graph.int_lengths):
                for cap in (rng.randint(0, n - 2), n - 1):
                    options = _hop_options(graph, cap, weight)
                    resolve = lambda u, v, b: hop_bounded_path(graph, u, v, b, weight)
                    reference = _budget_guesses(hops, cap, resolve)
                    for u, v in itertools.combinations(range(n), 2):
                        if hops[u][v] is None:
                            continue
                        first = {}
                        for (((_, b), edges),) in reference((u, v)):
                            first.setdefault(edges, b)
                        got = options(u, v)
                        assert got == [(b, edges) for edges, b in first.items()]
                        assert all(len(edges) == b for b, edges in got)
                        compared += len(got) > 1
        assert compared >= 100

    @pytest.mark.parametrize("solve, unit_cost", [(solve_unit_length, False), (solve_unit_cost, True)])
    def test_solvers_match_the_reference_search(self, solve, unit_cost):
        rng = random.Random(1319)
        solved = Counter()
        for _ in range(440):
            inst = _tie_heavy_instance(rng, unit_cost)
            graph = inst.graph
            weight = graph.int_lengths if unit_cost else graph.int_costs
            ref = _solve_by_chains(inst, length_distances(graph), _reference_guesses(inst, weight))
            mine = solve(inst)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert (mine.total_cost, mine.edge_subset) == (ref.total_cost, ref.edge_subset)
                solved[inst.demands.size] += 1
        assert sum(solved.values()) >= 300 and min(solved[p] for p in (1, 2, 3)) >= 50

    def test_chain_count_on_a_seeded_corpus(self):
        rng = random.Random(1320)
        kept = reference = 0
        for trial in range(40):
            unit_cost = trial % 2 == 1
            inst = _tie_heavy_instance(rng, unit_cost)
            graph = inst.graph
            weight = graph.int_lengths if unit_cost else graph.int_costs
            budget = min(inst.length_cap, graph.vertex_count - 1)
            lengths = length_distances(graph)
            mine = _option_guesses(_hop_options(graph, budget, weight), budget)
            old = _reference_guesses(inst, weight)
            for s, t in inst.demands.pairs:
                kept += len(_enumerate_chains(inst, s, t, lengths, mine))
                reference += len(_enumerate_chains(inst, s, t, lengths, old))
        assert (kept, reference) == (474, 2292)

    def test_guesses_fit_the_budget_and_stop_at_a_pair_without_options(self):
        read = []

        def options(u, v):
            read.append((u, v))
            return [] if (u, v) == (1, 2) else [(1, (u,)), (2, (v,))]

        assert list(_option_guesses(options)((0, 2, 1, 3))) == []
        assert read == [(0, 2), (1, 2)]  # (1, 3) would build a table for nothing
        guesses = list(_option_guesses(options, 3)((0, 3, 4)))
        assert [tuple(key for (_, key), _ in guess) for guess in guesses] == [(1, 1), (1, 2), (2, 1)]
        assert guesses[1] == ((((0, 3), 1), (0,)), (((3, 4), 2), (4,)))


@pytest.mark.parametrize(
    "solve, make", [(solve_unit_length, random_instance), (solve_unit_cost, random_unit_cost_instance)]
)
def test_one_hop_table_per_segment_source(monkeypatch, solve, make):
    # A solve runs one label pass (star_pass) per segment source and walks
    # each label of a target's frontier once, where each (target, budget)
    # key used to run its own search.  A label's height is its path's
    # edge count.
    built, walked = [], []

    def label_pass(arcs, terminals, bound, cap, real=exact_const.star_pass):
        built.append(terminals)
        return real(arcs, terminals, bound, cap)

    def walk(graph, v, label, real=exact_const.label_path):
        vertices, edges = real(graph, v, label)
        walked.append((vertices[0], v, label.height))
        assert len(edges) == label.height == len(vertices) - 1
        return vertices, edges

    monkeypatch.setattr(exact_const, "star_pass", label_pass)
    monkeypatch.setattr(exact_const, "label_path", walk)
    rng = random.Random(1317)
    builds = keys = 0
    for _ in range(40):
        inst = make(rng, n_max=6, m_max=9)
        built.clear()
        walked.clear()
        solve(inst)
        assert all(len(terminals) == 1 for terminals in built)
        assert len(built) == len(set(built)) <= inst.graph.vertex_count
        assert {u for u, in built} == {u for u, _, _ in walked}
        assert len(walked) == len(set(walked))
        builds += len(built)
        keys += len(walked)
    assert (builds, keys) == {solve_unit_length: (97, 227), solve_unit_cost: (67, 122)}[solve]


def test_solvers_leave_no_reference_cycles():
    # A solve's intermediate state (chain lists, segment caches, min-dist
    # tables) must be freed by reference counting alone, without waiting
    # for a garbage collection.  The star solvers are a guard.
    rng = random.Random(2024)
    eps = Fraction(1, 4)
    runs = [
        (solve_unit_length, random_instance, {}),
        (solve_unit_cost, random_unit_cost_instance, {}),
        (lambda inst: approx_const(inst, eps), random_instance, dict(length_kind="rational")),
        (solve_slst, random_instance, dict(star=True)),
        (lambda inst: approx_star(inst, eps), random_instance, dict(star=True, length_kind="rational")),
    ]
    work = [
        (solve, [make(rng, n_max=6, m_max=9, **kw) for _ in range(20)]) for solve, make, kw in runs
    ]
    gc.collect()
    gc.disable()
    try:
        for solve, instances in work:
            for inst in instances:
                solve(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
