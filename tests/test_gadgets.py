from fractions import Fraction

import pytest

from slsn.classifier import HardCase, HardWitness, verify_witness
from slsn.core import DemandGraph, Path, Solution, feasibility_check, shortest_length_in_subgraph
from slsn.gadgets import (
    CostFlavor,
    GadgetError,
    MccInstance,
    apply_poly_cost,
    build_case1,
    build_case2,
    build_case3,
    build_case4,
    build_case5,
    build_general,
    detect_bipartite_sides,
    f_iter,
    f_next,
    g_value_of,
    verify_structure,
    witness_solution,
)
from slsn.oracle import densest_k_count


@pytest.fixture
def mcc_yes():
    """Two vertices, one edge, colors 1 and 2: has a multicolored 2-clique."""
    return MccInstance.build(2, [(0, 1)], 2, {0: 1, 1: 2})


@pytest.fixture
def mcc_no():
    """Two vertices, no edges: no clique."""
    return MccInstance.build(2, [], 2, {0: 1, 1: 2})


@pytest.fixture
def mcc_k3():
    """Multicolored K_3."""
    return MccInstance.build(3, [(0, 1), (0, 2), (1, 2)], 3, {0: 1, 1: 2, 2: 3})


def clique_mcc(k):
    """One vertex per color, all joined: a multicolored k-clique on 0..k-1."""
    return MccInstance.build(
        k, [(a, b) for a in range(k) for b in range(a + 1, k)], k, {v: v + 1 for v in range(k)}
    )


def two_top_mcc(k):
    """clique_mcc(k) plus a second color-k vertex k, joined to 0..k-2 only."""
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)] + [(v, k) for v in range(k - 1)]
    return MccInstance.build(k + 1, edges, k, {v: min(v + 1, k) for v in range(k + 1)})


def biclique_H(k):
    """Exact 2-by-k(k-1) complete bipartite demand graph: 0 and 1 against 2..k(k-1)+1."""
    return DemandGraph([(a, 2 + i) for a in (0, 1) for i in range(k * (k - 1))])


@pytest.fixture
def bip_H():
    """Exact 2-by-2 complete bipartite demand graph."""
    return DemandGraph([(0, 2), (0, 3), (1, 2), (1, 3)])


class TestSkipFunction:
    def test_skips_i(self):
        assert f_next(3, 2) == 4
        assert f_next(3, 1) == 2
        assert f_next(1, 0) == 2

    def test_iteration(self):
        assert f_iter(3, 2, 0) == 2  # 0 -> 1 -> 2
        assert f_iter(1, 2, 0) == 3  # 0 -> 2 -> 3
        # after k-1 steps from 0 the zig-zag has visited all of [k] minus i
        k = 4
        for i in range(1, k + 1):
            seen = []
            j = 0
            for _ in range(k - 1):
                j = f_next(i, j)
                seen.append(j)
            assert sorted(seen + [i]) == list(range(1, k + 1))


class TestMccValidation:
    def test_rejects_same_color_edge(self):
        with pytest.raises(GadgetError):
            MccInstance.build(2, [(0, 1)], 2, {0: 1, 1: 1})

    def test_empty_color_class_blocks_generation(self):
        mcc = MccInstance.build(2, [], 3, {0: 1, 1: 2})
        with pytest.raises(GadgetError):
            build_case1(MccInstance.build(2, [], 3, {0: 1, 1: 2}))


class TestGValues:
    def test_unit_values(self):
        assert g_value_of(HardCase.H_K0_STAR, 2) == 43
        assert g_value_of(HardCase.H_K1_STAR, 2) == 43
        assert g_value_of(HardCase.H_K2_STAR, 2) == 43
        assert g_value_of(HardCase.H_K0_STAR, 3) == 237
        assert g_value_of(HardCase.H_KK, 2) == 44

    def test_poly_values(self, bip_H):
        assert g_value_of(HardCase.H_K0_STAR, 2, None, CostFlavor.POLY) == 232
        assert g_value_of(HardCase.H_KK, 2, None, CostFlavor.POLY) == 233
        assert g_value_of(HardCase.H_2K, 2, bip_H, CostFlavor.POLY) == 519

    def test_case5_values(self, bip_H):
        assert g_value_of(HardCase.H_2K, 2, bip_H) == 18
        with_r = DemandGraph(list(bip_H.pairs) + [(0, 1)])
        assert g_value_of(HardCase.H_2K, 2, with_r) == 18  # 35-28+18-7


class TestCase1:
    def test_shape(self, mcc_yes):
        b = build_case1(mcc_yes)
        assert b.instance.L == 16
        assert b.g_value == 43
        assert b.demand_graph.size == 2 * 1 + 1  # k(k-1) leaf demands + y-demand

    def test_witness_cost_and_structure(self, mcc_yes):
        b = build_case1(mcc_yes)
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 43
        assert feasibility_check(b.instance, w.edge_subset).feasible
        report = verify_structure(b, w)
        assert report.all_ok, report.failures()
        for path, origin in zip(w.witness_paths, b.base.demand_origins):
            if origin[0] == "leaf":
                assert path.length == 16  # r-l paths recompute to exactly 4k^2

    def test_k3_witness(self, mcc_k3):
        b = build_case1(mcc_k3)
        assert b.g_value == 237 and b.instance.L == 36
        w = witness_solution(b, [0, 1, 2])
        assert w.total_cost == 237
        assert verify_structure(b, w).all_ok

    def test_non_clique_rejected(self, mcc_no):
        b = build_case1(mcc_no)
        with pytest.raises(GadgetError):
            witness_solution(b, [0, 1])

    def test_no_instance_unsatisfiable(self, mcc_no):
        b = build_case1(mcc_no)
        rep = feasibility_check(b.instance, range(b.instance.graph.edge_count))
        assert any(not d.satisfied for d in rep.per_demand)

    def test_demand_graph_matches_pattern(self, mcc_yes):
        b = build_case1(mcc_yes)
        r = b.role_vertex("r", None)
        vmap = {
            "center": r,
            ("leaf", 0): b.role_vertex("l", (1, 2)),
            ("leaf", 1): b.role_vertex("l", (2, 1)),
            "edge_u": b.role_vertex("y", 0),
            "edge_v": b.role_vertex("y", 2),
        }
        assert verify_witness(b.demand_graph, HardWitness(HardCase.H_K0_STAR, 2, vmap))

    def test_size_polynomial(self, mcc_k3):
        b = build_case1(mcc_k3)
        n_mcc, k = b.mcc.n, b.k
        # loose closed-form cap: base vertices plus hop interiors
        base_vertices = (
            1 + k * (k - 1) // 2 + len(b.mcc.edges) + 2 * n_mcc * (k - 1)
            + k * (k - 1) + (k + 1)
        )
        assert len(b.base.labels) == base_vertices
        total_len = sum(int(e[2]) for e in b.base.edges)
        assert b.instance.graph.vertex_count == base_vertices + total_len - len(b.base.edges)


class TestCases234:
    def test_case2(self, mcc_yes):
        b = build_case2(mcc_yes)
        assert b.g_value == 43
        assert b.demand_graph.size == 4
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 43
        assert verify_structure(b, w).all_ok

    def test_case3(self, mcc_yes):
        b = build_case3(mcc_yes)
        assert b.g_value == 43
        assert b.demand_graph.size == 5
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 43
        assert verify_structure(b, w).all_ok

    def test_case4(self, mcc_yes):
        b = build_case4(mcc_yes)
        assert b.g_value == 44
        assert b.demand_graph.size == 2 * 1 + 1  # matching of size k(k-1)+1
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 44
        assert verify_structure(b, w).all_ok

    def test_case4_demand_graph_is_matching(self, mcc_yes):
        b = build_case4(mcc_yes)
        degrees = b.demand_graph.degrees()
        assert all(d == 1 for d in degrees.values())

    def test_case3_pattern(self, mcc_yes):
        b = build_case3(mcc_yes)
        vmap = {
            "center": b.role_vertex("r", None),
            ("leaf", 0): b.role_vertex("l", (1, 2)),
            ("leaf", 1): b.role_vertex("l", (2, 1)),
            "edge_u": b.role_vertex("y", 0),
            "edge_v": b.role_vertex("y", 2),
        }
        assert verify_witness(b.demand_graph, HardWitness(HardCase.H_K2_STAR, 2, vmap))


class TestCase5:
    def test_shape_and_witness(self, mcc_yes, bip_H):
        b = build_case5(mcc_yes, bip_H)
        assert b.instance.L == 7
        assert b.g_value == 18
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 18
        assert feasibility_check(b.instance, w.edge_subset).feasible
        assert verify_structure(b, w).all_ok

    def test_with_root_edge(self, mcc_yes, bip_H):
        H2 = DemandGraph(list(bip_H.pairs) + [(0, 1)])
        b = build_case5(mcc_yes, H2)
        assert b.g_value == 18
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 18
        assert verify_structure(b, w).all_ok

    def test_with_leaf_leaf_edge(self, mcc_yes):
        H = DemandGraph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        b = build_case5(mcc_yes, H)
        assert b.g_value == 7 * 5 - 7 * 4 + 9 * 2 - 0  # 25
        w = witness_solution(b, [0, 1])
        assert w.total_cost == 25
        assert verify_structure(b, w).all_ok

    def test_rejects_non_member(self, mcc_yes):
        with pytest.raises(GadgetError):
            build_case5(mcc_yes, DemandGraph([(0, 1), (2, 3)]))

    def test_side_map_must_cover_H(self, mcc_yes, bip_H):
        # pairs on a vertex outside the side map would otherwise be dropped
        H = DemandGraph(list(bip_H.pairs) + [(0, 4), (1, 4)])
        with pytest.raises(GadgetError):
            build_case5(mcc_yes, H, (0, 1, (2, 3)))

    def test_side_detection(self, bip_H):
        a, b_, big = detect_bipartite_sides(bip_H, 2)
        assert (a, b_) == (0, 1) and big == (2, 3)


class TestGeneralCase:
    def make_pattern_plus_edge(self):
        H = DemandGraph([(0, 1), (0, 2), (3, 4), (5, 6)])
        w = HardWitness(
            HardCase.H_K0_STAR,
            2,
            {"center": 0, ("leaf", 0): 1, ("leaf", 1): 2, "edge_u": 3, "edge_v": 4},
        )
        return H, w

    def test_identity_when_no_extras(self, mcc_yes):
        H = DemandGraph([(0, 1), (0, 2), (3, 4)])
        w = HardWitness(
            HardCase.H_K0_STAR,
            2,
            {"center": 0, ("leaf", 0): 1, ("leaf", 1): 2, "edge_u": 3, "edge_v": 4},
        )
        b = build_general(mcc_yes, H, w)
        assert b.g_value == 43 and b.base.extra_demand_count == 0

    def test_extra_edge_adds_L(self, mcc_yes):
        H, w = self.make_pattern_plus_edge()
        b = build_general(mcc_yes, H, w)
        assert b.g_value == 43 + 16
        assert b.demand_graph.size == 4
        sol = witness_solution(b, [0, 1])
        assert sol.total_cost == 59
        assert verify_structure(b, sol).all_ok

    def test_extra_demand_route_is_forced(self, mcc_yes):
        H, w = self.make_pattern_plus_edge()
        b = build_general(mcc_yes, H, w)
        rep = feasibility_check(b.instance, range(b.instance.graph.edge_count))
        # the pad demand's only feasible route is its own L-hop path
        pad = rep.per_demand[-1]
        assert pad.satisfied and pad.length == b.instance.L

    def test_wrong_witness_rejected(self, mcc_yes):
        H, _ = self.make_pattern_plus_edge()
        bogus = HardWitness(
            HardCase.H_K0_STAR,
            2,
            {"center": 1, ("leaf", 0): 0, ("leaf", 1): 2, "edge_u": 3, "edge_v": 4},
        )
        with pytest.raises(GadgetError):
            build_general(mcc_yes, H, bogus)

    def test_small_non_hard_rejected_without_witness(self, mcc_yes):
        with pytest.raises(GadgetError):
            build_general(mcc_yes, DemandGraph([(0, 1), (2, 3)]))

    @pytest.mark.parametrize(
        "pattern, flavor, g",
        [
            pytest.param(pattern, flavor, g, id=f"{flavor}-{g}")
            for pattern, flavor, g in [
                ("star", CostFlavor.UNIT, 237 + 2 * 36),
                ("star", CostFlavor.POLY, 324 * 3144 + 2 * 36),
                ("matching", CostFlavor.UNIT, 240 + 2 * 36),
                ("matching", CostFlavor.POLY, 324 * 3147 + 2 * 36),
                ("bipartite", CostFlavor.UNIT, 55 + 2 * 7),
                ("bipartite", CostFlavor.POLY, 112 * 7801 + 2 * 7),
            ]
        ],
    )
    def test_k3_star_with_pads_witness_meets_g(self, mcc_k3, pattern, flavor, g):
        # each k=3 hard pattern plus two pad demands; a pad adds L to g, and
        # the poly factor is ceil(L * |H| / eps) at eps 1.
        # star: 6 leaves and edge 7-8, L = 36, |H| = 9, factor 324
        # matching: 7 matching edges, L = 36, |H| = 9, factor 324
        # bipartite: 200,201 x 202..207 plus two inner edges, L = 7, |H| = 16, factor 112
        if pattern == "star":
            pairs = [(0, leaf) for leaf in range(1, 7)] + [(7, 8), (9, 10), (0, 11)]
            vmap = {"center": 0, "edge_u": 7, "edge_v": 8}
            vmap.update({("leaf", i): i + 1 for i in range(6)})
            case = HardCase.H_K0_STAR
        elif pattern == "matching":
            pairs = [(2 * i, 2 * i + 1) for i in range(7)] + [(100, 101), (0, 102)]
            vmap = {("m", i, j): 2 * i + j for i in range(7) for j in (0, 1)}
            case = HardCase.H_KK
        else:
            pairs = [(s, t) for s in (200, 201) for t in range(202, 208)]
            pairs += [(200, 201), (202, 203), (300, 301), (200, 302)]
            vmap = {("side2", 0): 200, ("side2", 1): 201}
            vmap.update({("big", i): 202 + i for i in range(6)})
            case = HardCase.H_2K
        b = build_general(mcc_k3, DemandGraph(pairs), HardWitness(case, 3, vmap))
        assert b.base.extra_demand_count == 2
        if flavor is CostFlavor.POLY:
            b = apply_poly_cost(b, 1)
        assert b.g_value == g
        w = witness_solution(b, [0, 1, 2])
        assert feasibility_check(b.instance, w.edge_subset).feasible
        assert verify_structure(b, w).all_ok
        assert w.total_cost == b.g_value

    def test_matching_pattern_embedding(self, mcc_yes):
        H = DemandGraph([(0, 1), (2, 3), (4, 5), (6, 7)])
        w = HardWitness(
            HardCase.H_KK,
            2,
            {
                ("m", 0, 0): 0,
                ("m", 0, 1): 1,
                ("m", 1, 0): 2,
                ("m", 1, 1): 3,
                ("m", 2, 0): 4,
                ("m", 2, 1): 5,
            },
        )
        b = build_general(mcc_yes, H, w)
        assert b.g_value == 44 + 16
        sol = witness_solution(b, [0, 1])
        assert sol.total_cost == 60
        assert verify_structure(b, sol).all_ok


class TestPolyCost:
    def test_case1_values(self, mcc_yes):
        b = apply_poly_cost(build_case1(mcc_yes), 1)
        assert b.g_value == 232
        assert b.cost_flavor is CostFlavor.POLY
        # E2/E4 hops now cost 4k^4 = 64; E3 hops keep per-hop cost 1
        fams = b.edge_family
        for idx, e in enumerate(b.instance.graph.edges):
            if fams[idx] in ("E2", "E4"):
                assert e.cost == 64
            elif fams[idx] == "E3":
                assert e.cost == 1

    def test_case1_witness_feasible_and_structured(self, mcc_yes):
        b = apply_poly_cost(build_case1(mcc_yes), 1)
        w = witness_solution(b, [0, 1])
        assert feasibility_check(b.instance, w.edge_subset).feasible
        assert verify_structure(b, w).all_ok
        # the witness's poly cost equals the unit cost re-weighted by the
        # E2/E4 family swap: 43 + (C(k,2) + k(k-1)) * (4k^4 - 1) = 232 at k=2
        assert w.total_cost == 232

    def test_case5_poly(self, mcc_yes, bip_H):
        b = apply_poly_cost(build_case5(mcc_yes, bip_H), 1)
        assert b.g_value == 519
        w = witness_solution(b, [0, 1])
        # prose edge lists: 18 + k(4k^4(k-1)-1) + C(k,2)(8k^4-1) + k(k-1)(8k^4-4)
        assert w.total_cost == 18 + 2 * 63 + 1 * 127 + 2 * 124
        assert w.total_cost == b.g_value
        assert verify_structure(b, w).all_ok

    def test_requires_unit_flavor(self, mcc_yes):
        b = apply_poly_cost(build_case1(mcc_yes), 1)
        with pytest.raises(GadgetError):
            apply_poly_cost(b, 1)

    def test_eps_domain(self, mcc_yes):
        with pytest.raises(GadgetError):
            apply_poly_cost(build_case1(mcc_yes), 2)

    def test_general_poly_factor(self, mcc_yes):
        H = DemandGraph([(0, 1), (0, 2), (3, 4), (5, 6)])
        w = HardWitness(
            HardCase.H_K0_STAR,
            2,
            {"center": 0, ("leaf", 0): 1, ("leaf", 1): 2, "edge_u": 3, "edge_v": 4},
        )
        b = apply_poly_cost(build_general(mcc_yes, H, w), Fraction(1))
        # factor = ceil(L * |H| / eps) = ceil(16 * 4) = 64
        assert b.g_value == 64 * 232 + 16
        sol = witness_solution(b, [0, 1])
        assert sol.total_cost == b.g_value
        assert verify_structure(b, sol).all_ok

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize(
        "build, flavor",
        [
            pytest.param(build, flavor, id=build.__name__ + suffix)
            for flavor, suffix in ((CostFlavor.POLY, ""), (CostFlavor.UNIT, "-unit"))
            for build in (build_case1, build_case2, build_case3, build_case4, build_case5)
        ],
    )
    def test_clique_witness_meets_g(self, build, flavor, k):
        # the clique witness attains the counting lower bound in g_value_of
        mcc = clique_mcc(k)
        H = None
        if build is build_case5:
            H = biclique_H(k)
            b = build_case5(mcc, H)
        else:
            b = build(mcc)
        if flavor is CostFlavor.POLY:
            b = apply_poly_cost(b, 1)
        assert b.g_value == g_value_of(b.case_tag, k, H, flavor)
        w = witness_solution(b, range(k))
        assert feasibility_check(b.instance, w.edge_subset).feasible
        # canonical paths start at the lower-numbered endpoint, which in
        # case 4 is l rather than l': the forms are read from either end
        for sol in (w, Solution.build(b.instance, w.edge_subset)):
            report = verify_structure(b, sol)
            assert report.all_ok, report.failures()
        assert w.total_cost == b.g_value


class TestWitnessPathLengths:
    def test_claimed_path_lengths(self, mcc_yes, mcc_k3, bip_H):
        # hop expansion preserves the claimed path lengths exactly
        for mcc, clique in ((mcc_yes, [0, 1]), (mcc_k3, [0, 1, 2])):
            b = build_case1(mcc)
            w = witness_solution(b, clique)
            k = b.k
            for path, origin in zip(w.witness_paths, b.base.demand_origins):
                if origin[0] == "leaf":
                    assert path.length == 4 * k * k
                else:
                    assert path.length == 4 * k * k  # k zig-zags of 4k each
        b2 = build_case2(mcc_yes)
        w2 = witness_solution(b2, [0, 1])
        ry0 = [
            p
            for p, o in zip(w2.witness_paths, b2.base.demand_origins)
            if o[0] == "ry0"
        ][0]
        assert ry0.length == 2 * b2.k**2 + 5
        b5 = build_case5(mcc_yes, bip_H)
        w5 = witness_solution(b5, [0, 1])
        for path in w5.witness_paths:
            assert path.length == 7

    def test_structure_rejects_rerouted_leaf_path(self, mcc_k3):
        b = build_case1(mcc_k3)
        w = witness_solution(b, [0, 1, 2])
        # reroute the y-path's first hop through an E3 edge: fabricate a
        # solution whose y witness uses a leaf-layer edge
        from slsn.core import Path, Solution

        bad_paths = list(w.witness_paths)
        leaf = bad_paths[0]
        y_index = [i for i, o in enumerate(b.base.demand_origins) if o[0] == "ypath"][0]
        # swap in a wrong-looking path for a leaf demand: reuse y-path
        bad = Solution(w.edge_subset, tuple(bad_paths[:y_index] + [leaf] + bad_paths[y_index + 1 :]), w.total_cost)
        report = verify_structure(b, bad)
        assert not report.all_ok


def swap(a, b):
    return {a: b, b: a}


class TestVerifyStructure:
    def test_path_count_must_match_demands(self, mcc_yes):
        b = build_case1(mcc_yes)
        w = witness_solution(b, [0, 1])
        for paths in ((), w.witness_paths[:-1], w.witness_paths + w.witness_paths[:1]):
            report = verify_structure(b, Solution(w.edge_subset, paths, w.total_cost))
            assert [c.name for c in report.failures()] == ["one witness path per demand"]

    def test_path_without_base_vertex_is_reported(self, mcc_yes):
        # a lone hop vertex in the leaf and y-path slots fails, never raises
        b = build_case1(mcc_yes)
        w = witness_solution(b, [0, 1])
        hop = Path((len(b.base.labels),), (), Fraction(0), Fraction(0))
        report = verify_structure(b, Solution(w.edge_subset, (hop,) * 3, w.total_cost))
        assert {c.demand for c in report.failures()} == set(b.instance.demands.pairs)

    @pytest.mark.parametrize(
        "build, moves",
        [
            pytest.param(build_case1, swap(("leaf", (1, 2)), ("leaf", (2, 1))), id="leaf-swap"),
            pytest.param(build_case4, swap(("match", (1, 2)), ("match", (2, 1))), id="match-swap"),
            pytest.param(
                lambda mcc: build_case5(mcc, biclique_H(2)),
                swap(("bip1", (1, 2)), ("bip2", (1, 2))),
                id="bip1-bip2-swap",
            ),
            pytest.param(
                lambda mcc: build_case5(mcc, DemandGraph(list(biclique_H(2).pairs) + [(2, 3)])),
                {("ll", ((1, 2), (2, 1))): ("bip1", (1, 2))},
                id="bip1-in-ll-slot",
            ),
            pytest.param(
                lambda mcc: build_general(mcc, *TestGeneralCase().make_pattern_plus_edge()),
                {("extra", (5, 6)): ("leaf", (1, 2))},
                id="leaf-in-extra-slot",
            ),
        ],
    )
    def test_path_in_another_demands_slot_fails(self, mcc_yes, build, moves):
        # moves maps a demand origin to the origin whose witness path it gets;
        # exactly the demands that got another's path fail
        b = build(mcc_yes)
        w = witness_solution(b, [0, 1])
        origins, pairs = b.base.demand_origins, b.instance.demands.pairs
        paths = list(w.witness_paths)
        for slot, source in moves.items():
            paths[origins.index(slot)] = w.witness_paths[origins.index(source)]
        report = verify_structure(b, Solution(w.edge_subset, tuple(paths), w.total_cost))
        assert {c.demand for c in report.failures()} == {pairs[origins.index(o)] for o in moves}


    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("build", [build_case1, build_case4])
    @pytest.mark.parametrize("corrupt", ["cut-at-y_k-1", "one-hop-past-y_k", "moved-x'-slot"])
    def test_corrupted_ypath_fails_only_its_demand(self, build, k, corrupt):
        b = build(two_top_mcc(k))
        w = witness_solution(b, range(k))
        graph, at = b.instance.graph, b.base.demand_origins.index(("ypath", None))
        path = w.witness_paths[at]
        y = [b.role_vertex("y", i) for i in range(k + 1)]
        assert (path.vertices[0], path.vertices[-1]) == (y[0], y[k])
        if corrupt == "cut-at-y_k-1":
            cut = path.vertices.index(y[k - 1])
            bad = Path.from_edge_sequence(graph, path.vertices[: cut + 1], path.edges[:cut])
        elif corrupt == "one-hop-past-y_k":
            e = next(
                i for i, e in enumerate(graph.edges) if y[k] in (e.u, e.v) and i not in path.edges
            )
            verts = path.vertices + (graph.edges[e].other(y[k]),)
            bad = Path.from_edge_sequence(graph, verts, path.edges + (e,))
        else:  # color k's first x' slot taken from its other vertex k
            j = f_next(k, 0)
            moved = {b.role_vertex("xp", (k - 1, j)): b.role_vertex("xp", (k, j))}
            verts = tuple(moved.get(v, v) for v in path.vertices)
            bad = Path(verts, path.edges, path.length, path.cost)
        paths = w.witness_paths[:at] + (bad,) + w.witness_paths[at + 1 :]
        report = verify_structure(b, Solution(w.edge_subset, paths, w.total_cost))
        assert {c.demand for c in report.failures()} == {b.instance.demands.pairs[at]}


class TestDensestCount:
    def test_yes_instance_count(self, mcc_k3):
        assert densest_k_count(mcc_k3.n, mcc_k3.edges, mcc_k3.k, mcc_k3.coloring) == 3

    def test_no_instance_count(self, mcc_no):
        assert densest_k_count(mcc_no.n, mcc_no.edges, mcc_no.k, mcc_no.coloring) == 0


class TestSizeFormulas:
    def test_case5_vertex_count_closed_form(self, mcc_yes, bip_H):
        b = build_case5(mcc_yes, bip_H)
        n_mcc, k = b.mcc.n, b.k
        base_vertices = (
            2
            + k * (k - 1) // 2
            + k
            + len(b.mcc.edges)
            + n_mcc
            + n_mcc * (k - 1)
            + k * (k - 1)
        )
        assert len(b.base.labels) == base_vertices
        total_len = sum(int(e[2]) for e in b.base.edges)
        assert b.instance.graph.vertex_count == base_vertices + total_len - len(b.base.edges)

    def test_case4_vertex_count_closed_form(self, mcc_yes):
        b = build_case4(mcc_yes)
        n_mcc, k = b.mcc.n, b.k
        base_vertices = (
            1
            + k * (k - 1) // 2
            + len(b.mcc.edges)
            + 2 * n_mcc * (k - 1)
            + k * (k - 1)  # l layer
            + (k + 1)
            + k * (k - 1)  # l' layer
        )
        assert len(b.base.labels) == base_vertices
