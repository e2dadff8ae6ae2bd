import functools
import inspect
import math
import random
from fractions import Fraction

import pytest

from slsn import approx
from slsn.approx import (
    CostBounds,
    HeightTable,
    ScaledCosts,
    approx_const,
    approx_star,
    build_height_table,
    min_dist,
    opt_low,
)
from slsn.core import (
    DemandGraph,
    Path,
    SlsnInstance,
    WeightedGraph,
    adjacency,
    feasibility_check,
)
from slsn.exact_const import length_distances, solve_unit_length
from slsn.generators import random_instance
from slsn.oracle import brute_force_restricted_path, brute_force_slsn
from slsn.star_dst import solve_slst, star_frontiers, star_terminals, tree_edges

from conftest import make_instance, scaled_instance, with_edges


def certified_best_length(graph, s, t, eps, C):
    """Min length over simple paths of cost <= (1-2*eps)*C, else None."""
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


def dense_min_dist_table(graph, source, scaled, budget, lengths):
    """The scaled-cost DP as a dense sweep, the reference for star_frontiers
    run from one terminal with its criteria swapped: {target: best} for
    every vertex.

    Row i holds d(v, i), the least length of a source-v walk of exact
    scaled cost i, for every level up to the budget (capped at
    (n-1)*max_c, since no simple path costs more).  Level i sweeps the arcs
    of scaled cost 1..i, then relaxes the zero-cost arcs to a fixpoint.
    best is (level, length) at the least length over all levels, ties to
    the lowest level, or None where no level reaches the target.
    """
    n = graph.vertex_count
    budget = min(budget, max(n - 1, 0) * max(scaled, default=0))
    arcs = []
    for idx, e in enumerate(graph.edges):
        arcs += [(e.u, e.v, idx), (e.v, e.u, idx)]
    zero_arcs = [(a, b, idx) for a, b, idx in arcs if scaled[idx] == 0]
    levels = []
    for i in range(budget + 1):
        row = [None] * n
        if i == 0:
            row[source] = 0
        for a, b, idx in arcs:
            c = scaled[idx]
            if 1 <= c <= i and levels[i - c][a] is not None:
                nl = levels[i - c][a] + lengths[idx]
                if row[b] is None or nl < row[b]:
                    row[b] = nl
        changed = True
        while changed:
            changed = False
            for a, b, idx in zero_arcs:
                if row[a] is not None:
                    nl = row[a] + lengths[idx]
                    if row[b] is None or nl < row[b]:
                        row[b] = nl
                        changed = True
        levels.append(row)

    out = {}
    for target in range(n):
        best = None
        for i, row in enumerate(levels):
            if row[target] is not None and (best is None or row[target] < best[1]):
                best = (i, row[target])
        out[target] = best
    return out


def chain_path(graph, target, label):
    """The path an edge-chain label describes, from its leaf to target."""
    vertices, edge_seq = [target], []
    while label.prov[0] == "edge":
        _, idx, label = label.prov
        e = graph.edges[idx]
        vertices.append(e.u if e.v == vertices[-1] else e.v)
        edge_seq.append(idx)
    return Path.from_edge_sequence(graph, vertices[::-1], edge_seq[::-1])


def fixpoint_frontiers(graph, terminals, lengths, costs, L, cap=None):
    """The star DP by edge relaxation to a fixpoint, the reference for
    star_frontiers: per (vertex, mask) the Pareto list of (height, cost).

    Each mask's split candidates are merged first; then every edge is
    relaxed, re-sorting the Pareto list at each merge, until no list
    changes.  Every edge has a positive length or cost, which forces
    termination.
    """

    def pareto(points):
        out = []
        for h, c in sorted(points):
            if not out or c < out[-1][1]:
                out.append((h, c))
        return out

    def fits(c):
        return cap is None or c <= cap

    tbit = {t: 1 << i for i, t in enumerate(terminals)}
    frontiers = {(v, 0): [(0, 0)] for v in range(graph.vertex_count)}

    def fr(v, mask):
        return frontiers.get((v, mask & ~tbit.get(v, 0)), [])

    for mask in range(1, 1 << len(terminals)):
        rows = {}
        for v in range(graph.vertex_count):
            if tbit.get(v, 0) & mask:
                continue
            cand = []
            sub = (mask - 1) & mask
            while sub:
                if sub < mask ^ sub:
                    cand += [
                        (max(ha, hb), ca + cb)
                        for ha, ca in fr(v, sub)
                        for hb, cb in fr(v, mask ^ sub)
                        if fits(ca + cb)
                    ]
                sub = (sub - 1) & mask
            rows[v] = pareto(cand)
        changed = True
        while changed:
            changed = False
            for idx, e in enumerate(graph.edges):
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a not in rows:
                        continue
                    grown = [
                        (h + lengths[idx], c + costs[idx])
                        for h, c in (rows[b] if b in rows else fr(b, mask))
                    ]
                    merged = pareto(rows[a] + [(h, c) for h, c in grown if h <= L and fits(c)])
                    if merged != rows[a]:
                        rows[a] = merged
                        changed = True
        for v, row in rows.items():
            frontiers[(v, mask)] = row
    return frontiers


def replay(label, lengths, costs):
    """(height, cost) recomputed from a label's provenance."""
    kind = label.prov[0]
    if kind == "leaf":
        return 0, 0
    if kind == "edge":
        h, c = replay(label.prov[2], lengths, costs)
        return h + lengths[label.prov[1]], c + costs[label.prov[1]]
    (ha, ca), (hb, cb) = (replay(x, lengths, costs) for x in label.prov[1:])
    return max(ha, hb), ca + cb


class TestStarFrontiers:
    @staticmethod
    def check(g, terminals, lengths, costs, L):
        """star_frontiers against the fixpoint reference, with and without a
        cap, each label replayed from its provenance; returns the labels
        compared outside the leaf cells."""
        cells = 0
        for cap in (None, sum(costs) // 2):
            got = star_frontiers(g, terminals, lengths, costs, L, cap)
            ref = fixpoint_frontiers(g, terminals, lengths, costs, L, cap)
            assert {k: [(x.height, x.cost) for x in row] for k, row in got.items()} == ref
            for (_, mask), row in got.items():
                for label in row:
                    assert replay(label, lengths, costs) == (label.height, label.cost)
                cells += len(row) if mask else 0
        return cells

    def test_matches_fixpoint_reference(self):
        # rational lengths, zero-cost edges and costs 0..3 make ties common
        rng = random.Random(808)
        for _ in range(40):
            inst = random_instance(rng, star=True, length_kind="rational", cost_range=(0, 3))
            g = inst.graph
            _, terminals = star_terminals(inst)
            D = math.lcm(inst.L.denominator, g.length_denominator)
            lengths = [x * (D // g.length_denominator) for x in g.int_lengths]
            self.check(g, terminals, lengths, [int(e.cost) for e in g.edges], int(inst.L * D))

    def test_zero_lengths_match_fixpoint_reference(self):
        # min_dist passes scaled costs as lengths, and a zero-cost edge
        # scales to 0: zero lengths are allowed where the cost is positive
        rng = random.Random(809)
        cells = 0
        for _ in range(300):
            n = rng.randint(2, 7)
            g = WeightedGraph(n, [(*rng.sample(range(n), 2), 1, 1) for _ in range(rng.randint(1, 2 * n))])
            lengths = [rng.choice((0, 0, 1, 2)) for _ in g.edges]
            costs = [rng.randint(1, 3) for _ in g.edges]
            terminals = tuple(rng.sample(range(n), rng.randint(1, min(3, n))))
            cells += self.check(g, terminals, lengths, costs, rng.randint(0, 4))
        assert cells >= 4000


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

    def test_edgeless_none(self):
        # no edge cost to try, so no threshold subgraph is feasible
        assert opt_low(make_instance(WeightedGraph(3, []), 2, [(0, 2)])) is None

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


    def test_endpoints_outside_the_graph_refused(self):
        g = WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
        for s, t in ((0, 5), (-1, 2), (3, 3)):
            with pytest.raises(ValueError):
                min_dist(g, s, t, Fraction(1, 4), Fraction(4))
        assert min_dist(g, 1, 1, Fraction(1, 4), Fraction(4)) == Path.trivial(1)

    def test_matches_dense_reference(self):
        # star_frontiers from the source alone, heights = scaled costs and
        # costs = lengths: its last label per target is the dense sweep's
        # best.  Small integer lengths, parallel edges and zero-cost arcs
        # make ties common; scaled values run past the budget
        rng = random.Random(507)
        tables = 0
        for _ in range(700):
            n = rng.randint(2, 9)
            edges = []
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.choice(edges)[:2] if edges and rng.random() < 0.2 else rng.sample(range(n), 2)
                edges.append((u, v, rng.randint(1, 3), 1))
            g = WeightedGraph(n, edges)
            lengths = [e.length.numerator for e in g.edges]
            for budget in (3, 8, 20):
                scaled = tuple(
                    0 if rng.random() < 0.2 else rng.randint(1, budget + 2) for _ in edges
                )
                s = rng.randrange(n)
                table = star_frontiers(g, (s,), scaled, lengths, budget)
                ref = dense_min_dist_table(g, s, scaled, budget, lengths)
                assert ref[s] == (0, 0)
                for t in range(n):
                    if t == s:
                        continue
                    frontier = table[(t, 1)]
                    if not frontier:
                        assert ref[t] is None
                        continue
                    label = frontier[-1]
                    assert (label.height, label.cost) == ref[t]
                    path = chain_path(g, t, label)
                    assert (path.vertices[0], path.vertices[-1]) == (s, t)
                    assert sum(scaled[idx] for idx in path.edges) == label.height
                    assert sum(lengths[idx] for idx in path.edges) == label.cost
                tables += 1
        assert tables >= 2000

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
            for s in range(g.vertex_count):
                full = star_frontiers(g, (s,), raw, g.int_lengths, budget)
                cut = star_frontiers(g, (s,), clamped, g.int_lengths, budget)
                assert cut == full
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

    def test_within_ratio_of_exact_beyond_oracle(self):
        # m = 17..24 is out of the oracle's reach; the exact unit-length
        # solver is the bar
        rng = random.Random(718)
        eps = Fraction(1, 4)
        solved = 0
        for _ in range(12):
            inst = _unit_length_pair(rng)
            exact = solve_unit_length(inst)
            got = approx_const(inst, eps)
            assert (got is None) == (exact is None)
            if exact is not None:
                solved += 1
                assert exact.total_cost <= got.total_cost <= (1 + eps) * exact.total_cost
        assert solved >= 10

    def test_metamorphic_scaling(self):
        rng = random.Random(3003)
        for _ in range(40):
            inst = random_instance(
                rng, n_max=6, m_max=9, p_choices=(1, 2), cost_range=(0, 9),
                length_kind="rational", L_range=(3, 8),
            )
            assert_scaling_metamorphic(approx_const, inst)

    def test_metamorphic_extra_edges(self):
        rng = random.Random(3005)
        solved = 0
        for _ in range(20):
            inst = random_instance(
                rng, n_max=6, m_max=9, p_choices=(1, 2), length_kind="rational", L_range=(3, 8)
            )
            solved += assert_extra_edges_metamorphic(approx_const, inst, rng)
        assert solved >= 15


    def test_matches_full_scan_on_tied_lengths(self, monkeypatch):
        # unit and 1..2 integer lengths, zero costs and parallel copies make
        # tied shortest paths common; each pair's options and the solution
        # must be those of the scan that reads every vector's table
        rng = random.Random(1907)
        compared = 0
        for _ in range(150):
            inst, eps = _tied_instance(rng)
            g = inst.graph
            bounds = opt_low(inst)
            if bounds is not None and bounds.C > 0:
                eps_i = eps / 4
                budget = g.vertex_count * eps_i.denominator // eps_i.numerator
                vectors = list(approx._clamped_vectors(g, eps_i, bounds.C, budget))
                lazy = approx._min_dist_options(g, vectors, budget)
                full = full_scan_options(g, vectors, budget)
                for u in range(g.vertex_count):
                    for v in range(u + 1, g.vertex_count):
                        assert lazy(u, v) == full(u, v)
                compared += 1
            got = approx_const(inst, eps)
            with monkeypatch.context() as m:
                m.setattr(approx, "_min_dist_options", full_scan_options)
                want = approx_const(inst, eps)
            assert _cost_and_edges(got) == _cost_and_edges(want)
        assert compared >= 90

    @pytest.mark.parametrize(
        "n, edges, cheapest",
        [
            # 4-cycle: 0-1-2 and 0-3-2 both have length 2, the latter cheaper
            (4, [(0, 1, 1, 3), (1, 2, 1, 3), (2, 3, 1, 1), (3, 0, 1, 1)], {2, 3}),
            # two parallel 0-1 edges of equal length, the second cheaper
            (3, [(0, 1, 1, 5), (0, 1, 1, 1), (1, 2, 1, 2)], {1, 2}),
        ],
    )
    def test_tied_shortest_paths_read_the_tables(self, monkeypatch, n, edges, cheapest):
        # Dijkstra's parents give the dearer path; every table gives the cheaper
        g = WeightedGraph(n, edges)
        inst = make_instance(g, 2, [(0, 2)])
        eps = Fraction(1, 4)
        budget = n * 16  # n / (eps / 4)
        vectors = list(approx._clamped_vectors(g, eps / 4, opt_low(inst).C, budget))
        got = approx._min_dist_options(g, vectors, budget)(0, 2)
        assert got == full_scan_options(g, vectors, budget)(0, 2) == [frozenset(cheapest)]
        with monkeypatch.context() as m:
            m.setattr(approx, "_min_dist_options", full_scan_options)
            want = approx_const(inst, eps)
        assert want.edge_subset == cheapest
        assert _cost_and_edges(approx_const(inst, eps)) == _cost_and_edges(want)

    def test_tables_built_only_below_the_shortest_path(self, monkeypatch):
        # lengths 2^i give every path its own length, so every shortest path
        # is unique and fewer tables are built than the full scan reads; on
        # tied lengths the count never exceeds it
        rng = random.Random(1908)
        below = 0
        for trial in range(60):
            if trial % 2:
                inst, eps = _tied_instance(rng)
            else:
                inst = random_instance(rng, n_max=8, m_max=12, cost_range=(1, 9))
                g = inst.graph
                edges = [(e.u, e.v, 2 ** i, e.cost) for i, e in enumerate(g.edges)]
                inst = make_instance(WeightedGraph(g.vertex_count, edges), 2 ** g.edge_count, inst.demands.pairs)
                eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
            built, scanned = count_tables(monkeypatch, inst, eps)
            assert built <= scanned
            if trial % 2 == 0 and scanned:
                assert built < scanned
                below += 1
        assert below >= 20

    def test_join_index_is_first_connecting_vector(self):
        # joined[u, v] is the first vector whose in-budget edges connect u
        # and v (None if none does), and no earlier vector's table has a
        # label at v
        rng = random.Random(1909)
        late = 0
        for _ in range(120):
            inst, eps = _tied_instance(rng)
            g = inst.graph
            bounds = opt_low(inst)
            if bounds is None or bounds.C == 0:
                continue
            eps_i = eps / 4
            budget = g.vertex_count * eps_i.denominator // eps_i.numerator
            vectors = list(approx._clamped_vectors(g, eps_i, bounds.C, budget))
            options = approx._min_dist_options(g, vectors, budget)
            joined = inspect.getclosurevars(options.__wrapped__).nonlocals["joined"]
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    options(u, v)
                    want = next(
                        (k for k, vec in enumerate(vectors) if v in _within_budget(g, vec, budget, u)),
                        None,
                    )
                    assert joined.get((u, v)) == want
                    for vec in vectors[: len(vectors) if want is None else want]:
                        assert not star_frontiers(g, (u,), vec, g.int_lengths, budget)[(v, 1)]
                    late += bool(want)
        assert late >= 600

    def test_late_join_counts(self, monkeypatch):
        # a cost-1 chain 0-1-2-3 and a direct 0-3 edge of length 2 and cost
        # 40: at L = 2 only the direct edge is feasible, so C = 40.  The
        # chain joins 0 and 3 at vector 1, so vector 0 runs no pass; the
        # direct edge, the unique shortest path, fits the budget at vector
        # 39, so passes run at vectors 1..38 and no vector past 39 is built
        g = WeightedGraph(4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (0, 3, 2, 40)])
        inst = make_instance(g, 2, [(0, 3)])
        eps = Fraction(1, 4)
        passes, scanned = count_tables(monkeypatch, inst, eps)
        drawn, real = [], approx._clamped_vectors

        def counted(*args):
            for vec in real(*args):
                drawn.append(vec)
                yield vec

        monkeypatch.setattr(approx, "_clamped_vectors", counted)
        sol = approx_const(inst, eps)
        total = len(list(real(g, eps / 4, Fraction(40), 4 * 16)))
        assert (passes, len(drawn), scanned, total) == (38, 40, 75, 75)
        assert _cost_and_edges(sol) == (40, {3})


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

    def test_within_ratio_of_exact_star_beyond_oracle(self):
        # m = 40..80 is out of the oracle's reach; the exact star solver is the bar
        rng = random.Random(717)
        eps = Fraction(1, 4)
        solved = 0
        for _ in range(12):
            inst = _unit_length_star(rng)
            exact = solve_slst(inst)
            got = approx_star(inst, eps)
            assert (got is None) == (exact is None)
            if exact is not None:
                solved += 1
                assert exact.total_cost <= got.total_cost <= (1 + eps) * exact.total_cost
        assert solved >= 8

    def test_metamorphic_scaling(self):
        rng = random.Random(3004)
        for _ in range(60):
            inst = random_instance(
                rng, star=True, cost_range=(0, 9), length_kind="rational", L_range=(3, 8)
            )
            assert_scaling_metamorphic(approx_star, inst)

    def test_metamorphic_extra_edges(self):
        rng = random.Random(3006)
        solved = 0
        for _ in range(30):
            inst = random_instance(rng, star=True, length_kind="rational", L_range=(3, 8))
            solved += assert_extra_edges_metamorphic(approx_star, inst, rng)
        assert solved >= 12


def assert_scaling_metamorphic(solver, inst, eps=Fraction(1, 4)):
    """Costs times c give the same edge set at c times the cost; lengths
    and L times c give the same edge set."""
    sol = solver(inst, eps)
    for c in (Fraction(3), Fraction(5, 2), Fraction(1, 7)):
        for other, factor in (
            (solver(scaled_instance(inst, c), eps), c),
            (solver(scaled_instance(inst, 1, c), eps), 1),
        ):
            assert (sol is None) == (other is None)
            if sol is not None:
                assert other.edge_subset == sol.edge_subset
                assert other.total_cost == factor * sol.total_cost


def assert_extra_edges_metamorphic(solver, inst, rng, eps=Fraction(1, 4)):
    """A parallel edge no shorter and no cheaper than an existing one, or an
    edge of length L + 1/2, leaves OPT unchanged: the solver's answer on
    either is feasible and costs between OPT and (1 + eps) OPT, with OPT
    the oracle's optimum of inst.  Returns whether inst is feasible."""
    ref = brute_force_slsn(inst)
    g = inst.graph
    e = g.edges[rng.randrange(g.edge_count)]
    u, v = rng.sample(range(g.vertex_count), 2)
    for extra in (
        (e.u, e.v, e.length + Fraction(rng.randint(0, 2), 2), e.cost + rng.randint(0, 3)),
        (u, v, inst.L + Fraction(1, 2), rng.randint(0, 3)),
    ):
        modified = with_edges(inst, [extra])
        got = solver(modified, eps)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert feasibility_check(modified, got.edge_subset).feasible
            assert ref.total_cost <= got.total_cost <= (1 + eps) * ref.total_cost
    return ref is not None


def full_scan_options(graph, vectors, budget):
    """The min-dist options read from every vector's table for every pair:
    the reference for approx._min_dist_options."""
    vectors = list(vectors)

    @functools.cache
    def tables(u):
        return [star_frontiers(graph, (u,), vec, graph.int_lengths, budget) for vec in vectors]

    def options(u, v):
        frontiers = (table[(v, 1)] for table in tables(u))
        return list(dict.fromkeys(frozenset(tree_edges(f[-1])) for f in frontiers if f))

    return options


def count_tables(monkeypatch, inst, eps):
    """(label passes of approx_const, sources its pairs read times the
    distinct cost vectors): the passes the full scan would run."""
    built, sources, sizes = [], set(), []
    real_pass, real_options = approx.star_pass, approx._min_dist_options

    def counted(*args, **kwargs):
        built.append(args[1])
        return real_pass(*args, **kwargs)

    def recorded(graph, vectors, budget):
        vectors = list(vectors)
        options = real_options(graph, vectors, budget)
        sizes.append(len(vectors))

        def read(u, v):
            sources.add(u)
            return options(u, v)

        return read

    with monkeypatch.context() as m:
        m.setattr(approx, "star_pass", counted)
        m.setattr(approx, "_min_dist_options", recorded)
        approx_const(inst, eps)
    return len(built), len(sources) * sum(sizes)


def _tied_instance(rng):
    """Unit or 1..2 integer lengths, costs 0..6 (zero-cost edges common),
    p = 1..3, sometimes a parallel copy of an edge with its length and
    another cost; and an eps among 1/10, 1/4, 1/2."""
    inst = random_instance(
        rng, n_max=7, m_max=11, cost_range=(0, 6), length_kind=rng.choice(["unit", "integer"]),
        length_range=(1, 2), L_range=(2, 6),
    )
    if rng.random() < 0.4:
        e = rng.choice(inst.graph.edges)
        inst = with_edges(inst, [(e.u, e.v, e.length, rng.randint(0, 6))])
    return inst, rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])


def _within_budget(graph, vec, budget, source):
    """The vertices that the edges e with vec[e] <= budget connect to source."""
    seen, stack = {source}, [source]
    while stack:
        x = stack.pop()
        for idx, e in enumerate(graph.edges):
            if vec[idx] <= budget and x in (e.u, e.v):
                y = e.v if x == e.u else e.u
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def _cost_and_edges(sol):
    return None if sol is None else (sol.total_cost, sol.edge_subset)


def _connected_unit_graph(rng, n, m):
    """A random spanning tree on n vertices plus random edges up to m,
    unit lengths and costs 1-10."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return WeightedGraph(n, [(u, v, 1, rng.randint(1, 10)) for u, v in sorted(pairs)])


def _unit_length_pair(rng):
    """A connected unit-length instance with n 10-12, m 17-2n and p = 2,
    both demands drawn among the pairs more than one edge and at most L
    apart."""
    n = rng.randint(10, 12)
    g = _connected_unit_graph(rng, n, rng.randint(17, 2 * n))
    L = rng.randint(3, 5)
    dist = length_distances(g)
    near = [(s, t) for s in range(n) for t in range(s + 1, n) if 1 < dist[s][t] <= L]
    return make_instance(g, L, rng.sample(near, 2))


def _unit_length_star(rng):
    """A connected unit-length star instance with n 20-40 and m = 2n."""
    n = rng.randint(20, 40)
    g = _connected_unit_graph(rng, n, 2 * n)
    root = rng.randrange(n)
    leaves = rng.sample([v for v in range(n) if v != root], rng.randint(2, 4))
    return make_instance(g, rng.randint(3, 6), [(root, t) for t in leaves])


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


class TestExponentRange:
    def test_integer_ceil_log_matches_fraction_loop(self):
        def fraction_ceil_log(base, x):
            c, power = 0, Fraction(1)
            while power < x:
                power *= base
                c += 1
            while power / base >= x:
                power /= base
                c -= 1
            return c

        for eps in (Fraction(1, 40), Fraction(1, 16), Fraction(1, 10), Fraction(1, 8), Fraction(2, 9)):
            base = 1 + eps
            for n in range(1, 41):
                xs = (Fraction(n * n), Fraction(n * n) / (1 - 2 * eps), (Fraction(n * n) / eps) ** 2)
                for x in (*xs, *(1 / x for x in xs), 1 / (1 - 2 * eps), base**-3, base**3):
                    assert approx._ceil_log(base, x) == fraction_ceil_log(base, x)
                lo = -fraction_ceil_log(base, xs[2])
                hi = max(fraction_ceil_log(base, xs[0]) + 3, fraction_ceil_log(base, xs[1]))
                assert approx._exponent_range(n, eps) == (lo, hi)
        assert approx._ceil_log(Fraction(3, 2), Fraction(1, 5)) == -3  # (2/3)^3 >= 1/5 > (2/3)^4
        with pytest.raises(ValueError):
            approx._ceil_log(Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            approx._ceil_log(Fraction(3, 2), Fraction(0))


    def test_galloping_ceil_log_matches_stepping(self):
        def stepped_ceil_log(base, x):
            # one int multiplication per exponent, up from 0 and then down
            a, b = base.numerator, base.denominator
            p, q = x.as_integer_ratio()
            c, num, den = 0, 1, 1
            while num * q < p * den:
                num, den, c = num * a, den * b, c + 1
            while num * b * q >= p * den * a:
                num, den, c = num * b, den * a, c - 1
            return c

        rng = random.Random(26)
        tiny = Fraction(1, 10**40)
        for eps in (Fraction(1, 40), Fraction(1, 16), Fraction(1, 4), Fraction(2, 9), Fraction(7, 3)):
            base = 1 + eps
            xs = [Fraction(1), Fraction(1, 3), Fraction(5, 2), tiny, 1 / tiny]
            for c in (*range(-40, 41), -300, -257, -256, -255, 255, 256, 257, 300):
                power = base**c
                xs += [y for y in (power, power + tiny, power - tiny, power * (1 + tiny), power / (1 + tiny)) if y > 0]
            xs += [Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)) for _ in range(200)]
            for x in xs:
                assert approx._ceil_log(base, x) == stepped_ceil_log(base, x), (base, x)


def stepped_clamped_vectors(graph, eps, C, budget):
    """_clamped_vectors stepping every exponent from lo, its reference."""
    n = graph.vertex_count
    lo, hi = approx._exponent_range(n, eps)
    a, b = eps.numerator, eps.denominator
    costs = graph.int_costs
    positive = [c for c in costs if c > 0]
    least, greatest = min(positive, default=0), max(positive, default=0)
    clamped = tuple(budget + 1 if c > 0 else 0 for c in costs)
    last = None
    num = n * b * C.denominator * (a + b) ** -lo
    den = a * C.numerator * graph.cost_denominator * b ** -lo
    for e in range(lo, hi + 1):
        if least * num > budget * den:
            vec = clamped
        else:
            vec = tuple(min(-(-c * num // den), budget + 1) for c in costs)
        if vec != last:
            yield vec
            last = vec
        if greatest * num <= den:
            break
        if e < 0:
            num //= a + b
            den //= b
        else:
            num *= b
            den *= a + b


class TestClampedVectors:
    def test_matches_the_stepped_grid(self):
        # the first exponent read off the signed ceil-log yields what stepping
        # every exponent from lo does, zero-cost edges and fractional C
        # included; C spans bounds that clamp every edge at lo, at none, and
        # at every exponent of the grid
        rng = random.Random(2611)
        led_clamped = unclamped = only_clamped = 0
        for _ in range(150):
            n = rng.randint(2, 9)
            edges = [
                (*rng.sample(range(n), 2), 1, Fraction(rng.randint(0, 30), rng.choice([1, 2, 3, 7])))
                for _ in range(rng.randint(1, 12))
            ]
            g = WeightedGraph(n, edges)
            eps = rng.choice([Fraction(1, 40), Fraction(1, 16), Fraction(1, 10), Fraction(2, 9)])
            budget = n * eps.denominator // eps.numerator
            C = Fraction(rng.randint(1, 10**6), rng.choice([1, 3, 10**3, 10**9]))
            got = list(approx._clamped_vectors(g, eps, C, budget))
            assert got == list(stepped_clamped_vectors(g, eps, C, budget))
            clamped = tuple(budget + 1 if c > 0 else 0 for c in g.int_costs)
            led_clamped += got[0] == clamped and len(got) > 1
            unclamped += got[0] != clamped
            only_clamped += got == [clamped] and any(g.int_costs)
        assert led_clamped >= 50 and unclamped >= 30 and only_clamped >= 20
