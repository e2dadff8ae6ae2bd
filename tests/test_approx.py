import random
from fractions import Fraction

import pytest

from slsn.approx import (
    CostBounds,
    HeightTable,
    ScaledCosts,
    _MinDistTable,
    approx_const,
    approx_star,
    build_height_table,
    min_dist,
    opt_low,
)
from slsn.core import (
    DemandGraph,
    SlsnInstance,
    WeightedGraph,
    as_integers,
    feasibility_check,
)
from slsn.exact_const import solve_unit_length
from slsn.generators import random_instance
from slsn.oracle import brute_force_restricted_path, brute_force_slsn

from conftest import make_instance


def certified_best_length(graph, s, t, eps, C):
    """Min length over simple paths of cost <= (1-2*eps)*C, else None."""
    cap = (1 - 2 * eps) * C
    best = None
    stack = [(s, Fraction(0), Fraction(0), (s,))]
    while stack:
        v, ln, co, seq = stack.pop()
        if v == t:
            if co <= cap and (best is None or ln < best):
                best = ln
            continue
        for idx in graph.incident(v):
            e = graph.edges[idx]
            w = e.other(v)
            if w not in seq:
                stack.append((w, ln + e.length, co + e.cost, seq + (w,)))
    return best


class TestOptLow:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1, 7)])
        assert opt_low(make_instance(g, 1, [(0, 1)])).C == 7

    def test_bridge_cost_dominates(self):
        # cheap edges cannot connect the demand; the expensive bridge is
        # required, so its cost is the threshold
        g = WeightedGraph(
            4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 9), (0, 2, 1, 1)]
        )
        inst = make_instance(g, 4, [(0, 3)])
        assert opt_low(inst).C == 9

    def test_all_equal_costs(self):
        g = WeightedGraph(3, [(0, 1, 1, 5), (1, 2, 1, 5)])
        assert opt_low(make_instance(g, 2, [(0, 2)])).C == 5

    def test_infeasible_none(self):
        g = WeightedGraph(3, [(0, 1, 1, 1)])
        assert opt_low(make_instance(g, 1, [(0, 2)])) is None

    def test_bracket_against_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = random_instance(rng, length_kind="rational", L_range=(2, 8))
            ref = brute_force_slsn(inst)
            bounds = opt_low(inst)
            assert (ref is None) == (bounds is None)
            if ref is not None:
                n = inst.graph.vertex_count
                assert bounds.C <= ref.total_cost <= n * n * bounds.C


class TestMinDist:
    def test_direct_edge_within_budget(self):
        g = WeightedGraph(2, [(0, 1, 3, 2)])
        p = min_dist(g, 0, 1, Fraction(1, 4), Fraction(10))
        assert p is not None and p.length == 3

    def test_hand_traced_example(self):
        # direct s-t (cost 10, len 5) vs s-a-t (costs 1+1, lengths 3+3)
        g = WeightedGraph(3, [(0, 2, 5, 10), (0, 1, 3, 1), (1, 2, 3, 1)])
        p = min_dist(g, 0, 2, Fraction(1, 4), Fraction(10))
        assert p.vertices == (0, 2)
        assert p.cost == 10 <= 10 and p.length == 5

    def test_budget_exhausted_none(self):
        g = WeightedGraph(2, [(0, 1, 1, 100)])
        assert min_dist(g, 0, 1, Fraction(1, 4), Fraction(1)) is None

    def test_eps_domain(self):
        g = WeightedGraph(2, [(0, 1, 1, 1)])
        with pytest.raises(ValueError):
            min_dist(g, 0, 1, Fraction(1, 2), Fraction(1))
        with pytest.raises(ValueError):
            min_dist(g, 0, 1, Fraction(1, 4), Fraction(0))

    def test_zero_cost_edges_handled(self):
        g = WeightedGraph(3, [(0, 1, 2, 0), (1, 2, 2, 0), (0, 2, 1, 8)])
        p = min_dist(g, 0, 2, Fraction(1, 4), Fraction(4))
        assert p is not None and p.cost <= 4
        assert p.vertices == (0, 1, 2)

    def test_certified_path_guarantee_fuzz(self):
        rng = random.Random(505)
        checked = 0
        for _ in range(150):
            inst = random_instance(rng, length_kind="rational")
            g = inst.graph
            s, t = rng.sample(range(g.vertex_count), 2)
            eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
            C = Fraction(rng.randint(1, 40))
            best = certified_best_length(g, s, t, eps, C)
            got = min_dist(g, s, t, eps, C)
            if best is not None:
                checked += 1
                assert got is not None
                assert got.cost <= C
                assert got.length <= best
        assert checked >= 40


    def test_clamped_costs_give_the_same_table(self):
        # approx_const shares one table among cost vectors that agree once
        # every value above the budget is replaced by budget + 1
        rng = random.Random(506)
        clamped_trials = 0
        for _ in range(60):
            inst = random_instance(rng, length_kind="rational", cost_range=(0, 10))
            g = inst.graph
            eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
            C = Fraction(rng.randint(1, 40), rng.randint(1, 3))
            raw = ScaledCosts.compute(g, eps, C).values
            budget = int(g.vertex_count / eps)
            clamped = tuple(min(c, budget + 1) for c in raw)
            clamped_trials += clamped != raw
            lengths = as_integers([e.length for e in g.edges])
            for s in range(g.vertex_count):
                full = _MinDistTable(g, s, raw, budget, lengths)
                cut = _MinDistTable(g, s, clamped, budget, lengths)
                for t in range(g.vertex_count):
                    assert cut.best(t) == full.best(t)
                    assert cut.path(t) == full.path(t)
        assert clamped_trials >= 20


class TestApproxConst:
    def test_forced_single_edge_exact(self):
        g = WeightedGraph(2, [(0, 1, 2, 9)])
        sol = approx_const(make_instance(g, 2, [(0, 1)]), Fraction(1, 2))
        assert sol.total_cost == 9

    def test_within_ratio_of_exact_on_unit_lengths(self):
        rng = random.Random(66)
        for _ in range(15):
            inst = random_instance(rng)
            exact = solve_unit_length(inst)
            approxed = approx_const(inst, Fraction(1, 4))
            assert (exact is None) == (approxed is None)
            if exact is not None:
                assert approxed.total_cost <= (1 + Fraction(1, 4)) * exact.total_cost
                assert feasibility_check(inst, approxed.edge_subset).feasible

    def test_p1_against_oracle_paths(self):
        rng = random.Random(67)
        for _ in range(15):
            inst = random_instance(rng, length_kind="rational", p_choices=(1,), L_range=(2, 8))
            s, t = inst.demands.pairs[0]
            ref = brute_force_restricted_path(inst.graph, s, t, inst.L)
            sol = approx_const(inst, Fraction(1, 4))
            assert (ref is None) == (sol is None)
            if ref is not None:
                assert sol.total_cost <= (1 + Fraction(1, 4)) * ref.cost

    def test_eps_domain(self):
        g = WeightedGraph(2, [(0, 1, 1, 1)])
        inst = make_instance(g, 1, [(0, 1)])
        with pytest.raises(ValueError):
            approx_const(inst, Fraction(2))


class TestApproxStar:
    def test_star_of_direct_edges(self):
        g = WeightedGraph(4, [(0, 1, 1, 2), (0, 2, 1, 3), (0, 3, 1, 4)])
        inst = make_instance(g, 1, [(0, 1), (0, 2), (0, 3)])
        sol = approx_star(inst, Fraction(1, 4))
        assert sol.total_cost == 9  # unique incident edges: exact forced star

    def test_trunk_reuse(self):
        g = WeightedGraph(
            5, [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1), (0, 2, 1, 5), (0, 3, 1, 5)]
        )
        inst = make_instance(g, 2, [(0, 2), (0, 3)])
        ref = brute_force_slsn(inst)
        sol = approx_star(inst, Fraction(1, 4))
        assert sol.total_cost <= (1 + Fraction(1, 4)) * ref.total_cost
        assert sol.total_cost == 3

    def test_output_is_tree_with_height_bound(self):
        rng = random.Random(68)
        for _ in range(25):
            inst = random_instance(rng, star=True, length_kind="rational", L_range=(2, 8))
            sol = approx_star(inst, Fraction(1, 4))
            ref = brute_force_slsn(inst)
            assert (sol is None) == (ref is None)
            if sol is None:
                continue
            assert sol.total_cost <= (1 + Fraction(1, 4)) * ref.total_cost
            _assert_tree_height(inst, sol)

    def test_infeasible_none(self):
        g = WeightedGraph(3, [(0, 1, 5, 1), (1, 2, 5, 1)])
        assert approx_star(make_instance(g, 2, [(0, 2)]), Fraction(1, 4)) is None


def _assert_tree_height(inst, sol):
    edges = sorted(sol.edge_subset)
    verts = set()
    for idx in edges:
        e = inst.graph.edges[idx]
        verts.update((e.u, e.v))
    # connected and acyclic on its support
    assert len(edges) == len(verts) - 1 if verts else not edges
    root = inst.demands.star_root()
    rep = feasibility_check(inst, edges)
    assert rep.feasible
    # height: every tree vertex within L of the root
    from slsn.core import shortest_length_in_subgraph

    for v in verts:
        d = shortest_length_in_subgraph(inst.graph, edges, root, v)
        assert d is not None and d <= inst.L


class TestHeightTable:
    def test_base_cases_and_query(self):
        g = WeightedGraph(3, [(0, 1, 1, 2), (1, 2, 1, 2)])
        inst = make_instance(g, 2, [(0, 1), (0, 2)])
        table = build_height_table(inst, Fraction(1, 4), opt_low(inst).C)
        assert table.query(1, (), 0) == 0
        assert table.query(1, (1,), 0) == 0  # covering yourself is free
        full = table.terminals
        h = table.query(0, full, table.budget_cap)
        assert h == 2

    def test_monotone_in_budget_and_subset(self):
        rng = random.Random(99)
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
                    for j in range(0, table.budget_cap + 1, max(1, table.budget_cap // 7)):
                        h = table.query(v, R, j)
                        if h is not None:
                            if prev is not None:
                                assert h <= prev  # non-increasing in budget
                            prev = h
                        else:
                            assert prev is None  # once achievable, stays achievable
                    # subset growth: d(v, R', j) <= d(v, R, j) for R' subset R
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

    def test_frontier_cells_pareto(self):
        g = WeightedGraph(3, [(0, 1, 1, 2), (1, 2, 1, 2), (0, 2, 3, 1)])
        inst = make_instance(g, 3, [(0, 2)])
        table = build_height_table(inst, Fraction(1, 4), opt_low(inst).C)
        for (v, mask), entries in table.frontiers.items():
            hs = [e.height for e in entries]
            cs = [e.cost for e in entries]
            assert hs == sorted(hs)
            assert cs == sorted(cs, reverse=True)


    def test_rational_heights_come_back_as_fractions(self):
        # heights are kept as ints over lcm(2, 3, 6) = 6; query converts back
        g = WeightedGraph(3, [(0, 1, Fraction(1, 2), 1), (1, 2, Fraction(1, 3), 1)])
        inst = make_instance(g, Fraction(5, 6), [(0, 1), (0, 2)])
        table = build_height_table(inst, Fraction(1, 4), opt_low(inst).C)
        assert table.denominator == 6
        for subset, want in (((1,), Fraction(1, 2)), ((2,), Fraction(5, 6)), ((1, 2), Fraction(5, 6))):
            h = table.query(0, subset, table.budget_cap)
            assert type(h) is Fraction and h == want
        assert type(table.query(0, (), 0)) is Fraction
        # height exactly L is feasible; just below L it is not
        assert approx_star(inst, Fraction(1, 4)).total_cost == 2
        tight = make_instance(g, Fraction(4, 5), [(0, 1), (0, 2)])
        assert approx_star(tight, Fraction(1, 4)) is None


class TestScaledCosts:
    def test_exact_ceiling(self):
        g = WeightedGraph(2, [(0, 1, 1, Fraction(7, 3))])
        sc = ScaledCosts.compute(g, Fraction(1, 4), Fraction(2))
        # ceil(n * c / (eps*C)) = ceil(2 * 7/3 / (1/2)) = ceil(28/3) = 10
        assert sc.values == (10,)
