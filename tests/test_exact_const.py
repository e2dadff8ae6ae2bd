import random
from fractions import Fraction

import pytest

from slsn.core import (
    DemandGraph,
    SlsnInstance,
    WeightedGraph,
    canonical_path_assignment,
    feasibility_check,
)
from slsn.exact_const import solve_unit_cost, solve_unit_length
from slsn.generators import random_instance, random_unit_cost_instance
from slsn.oracle import brute_force_slsn
from slsn.star_dst import solve_slst

from conftest import make_instance


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


class TestCrossSolver:
    """Beyond the oracle's 16-edge cap, the exact solvers must agree.

    On unit lengths and unit costs both exact solvers apply: one guesses
    hop budgets, the other edge budgets, through the same chain search.
    Star demands add the layered-DST solver as a third opinion.
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
