import random
from itertools import combinations

import pytest

from slsn.classifier import (
    DemandClassKind,
    HardCase,
    HardWitness,
    classify,
    find_hard_pattern,
    hardness_threshold,
    verify_witness,
)
from slsn.core import DemandGraph

K = 2
THRESHOLD = hardness_threshold(K)  # 8 * 2^10 = 8192


def big_matching(count):
    return DemandGraph([(2 * i, 2 * i + 1) for i in range(count)])


def big_bipartite(count):
    return DemandGraph([(a, 2 + i) for a in (0, 1) for i in range(count)])


def star_plus_edge(leaves):
    pairs = [(0, i) for i in range(1, leaves + 1)]
    pairs.append((leaves + 1, leaves + 2))
    return DemandGraph(pairs)


class TestClassify:
    def test_star(self):
        H = DemandGraph([(7, i) for i in range(5)])
        got = classify(H, K)
        assert got.kind is DemandClassKind.STAR and got.root == 7

    def test_triangle_bounded(self):
        got = classify(DemandGraph([(0, 1), (1, 2), (0, 2)]), K)
        assert got.kind is DemandClassKind.BOUNDED and got.size == 3

    def test_empty_bounded_zero(self):
        got = classify(DemandGraph([]), K)
        assert got.kind is DemandClassKind.BOUNDED and got.size == 0

    def test_huge_star_still_star(self):
        H = DemandGraph([(0, i) for i in range(1, THRESHOLD + 2)])
        assert classify(H, K).kind is DemandClassKind.STAR

    def test_k_domain(self):
        with pytest.raises(ValueError):
            classify(DemandGraph([(0, 1)]), 1)

    def test_matching_hard(self):
        got = classify(big_matching(THRESHOLD), K)
        assert got.kind is DemandClassKind.HARD
        assert got.witness.case_tag is HardCase.H_KK
        assert len(got.witness.vertex_map) == 2 * (K * (K - 1) + 1)

    def test_isomorphism_invariance(self):
        rng = random.Random(11)
        H = big_matching(THRESHOLD)
        verts = sorted(H.vertices())
        perm = dict(zip(verts, rng.sample(verts, len(verts))))
        H2 = DemandGraph([(perm[a], perm[b]) for a, b in H.pairs])
        a, b = classify(H, K), classify(H2, K)
        assert a.kind == b.kind and a.witness.case_tag == b.witness.case_tag


class TestFindHardPattern:
    def test_matching_family(self):
        w = find_hard_pattern(big_matching(THRESHOLD), K)
        assert w.case_tag is HardCase.H_KK
        assert verify_witness(big_matching(THRESHOLD), w)

    def test_bipartite_family(self):
        H = big_bipartite(THRESHOLD // 2)
        w = find_hard_pattern(H, K)
        assert w.case_tag is HardCase.H_2K
        assert len(w.vertex_map) == K * (K - 1) + 2
        assert verify_witness(H, w)

    def test_star_plus_edge_family(self):
        H = star_plus_edge(THRESHOLD)
        w = find_hard_pattern(H, K)
        assert w.case_tag is HardCase.H_K0_STAR
        assert verify_witness(H, w)

    def test_star_plus_pendant_gives_h_k1(self):
        # the extra edge hangs off one star leaf
        pairs = [(0, i) for i in range(1, THRESHOLD + 2)]
        pairs.append((1, THRESHOLD + 5))
        H = DemandGraph(pairs)
        w = find_hard_pattern(H, K)
        assert w.case_tag is HardCase.H_K1_STAR
        assert verify_witness(H, w)

    def test_star_with_internal_edge_gives_h_k2(self):
        pairs = [(0, i) for i in range(1, THRESHOLD + 2)]
        pairs.append((1, 2))
        H = DemandGraph(pairs)
        w = find_hard_pattern(H, K)
        assert w.case_tag is HardCase.H_K2_STAR
        assert verify_witness(H, w)

    def test_rejects_star(self):
        H = DemandGraph([(0, i) for i in range(1, THRESHOLD + 2)])
        with pytest.raises(ValueError):
            find_hard_pattern(H, K)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            find_hard_pattern(DemandGraph([(0, 1), (2, 3)]), K)

    def test_fuzz_dense_random(self):
        rng = random.Random(21)
        done = 0
        while done < 12:
            n = rng.randint(50, 200)
            target = THRESHOLD + rng.randint(0, 400)
            edges = set()
            while len(edges) < min(target, n * (n - 1) // 2):
                a, b = rng.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            H = DemandGraph(sorted(edges))
            if H.star_root() is not None or H.size < THRESHOLD:
                continue
            w = find_hard_pattern(H, K)
            assert verify_witness(H, w)
            done += 1

    def test_fuzz_sparse_random(self):
        # low maximum degree drives the greedy induced-matching branch
        rng = random.Random(22)
        done = 0
        while done < 8:
            n = 6000
            edges = set()
            while len(edges) < THRESHOLD + 50:
                a, b = rng.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            H = DemandGraph(sorted(edges))
            if H.star_root() is not None:
                continue
            w = find_hard_pattern(H, K)
            assert verify_witness(H, w)
            done += 1


class TestVerifyWitness:
    def test_correct_matching_witness(self):
        H = big_matching(THRESHOLD)
        w = find_hard_pattern(H, K)
        assert verify_witness(H, w)

    def test_matching_sharing_vertex_fails(self):
        H = DemandGraph([(0, 1), (1, 2), (3, 4)] + [(10 + i, 5000 + i) for i in range(THRESHOLD)])
        w = HardWitness(
            HardCase.H_KK,
            K,
            {
                ("m", 0, 0): 0,
                ("m", 0, 1): 1,
                ("m", 1, 0): 1,  # not injective
                ("m", 1, 1): 2,
                ("m", 2, 0): 3,
                ("m", 2, 1): 4,
            },
        )
        assert not verify_witness(H, w)

    def test_matching_with_cross_edge_fails(self):
        H = DemandGraph([(0, 1), (2, 3), (4, 5), (1, 2)])
        w = HardWitness(
            HardCase.H_KK,
            K,
            {
                ("m", 0, 0): 0,
                ("m", 0, 1): 1,
                ("m", 1, 0): 2,
                ("m", 1, 1): 3,
                ("m", 2, 0): 4,
                ("m", 2, 1): 5,
            },
        )
        assert not verify_witness(H, w)  # edge (1,2) breaks inducedness

    def test_h_k2_with_non_leaf_edge_fails(self):
        # extra edge endpoint is not adjacent to the center
        pairs = [(0, 1), (0, 2), (3, 4), (0, 3)]
        H = DemandGraph(pairs)
        w = HardWitness(
            HardCase.H_K2_STAR,
            K,
            {"center": 0, ("leaf", 0): 1, ("leaf", 1): 2, "edge_u": 3, "edge_v": 4},
        )
        assert not verify_witness(H, w)

    def test_h_k0_with_attached_edge_fails(self):
        pairs = [(0, 1), (0, 2), (0, 3), (3, 4)]
        H = DemandGraph(pairs)
        w = HardWitness(
            HardCase.H_K0_STAR,
            K,
            {"center": 0, ("leaf", 0): 1, ("leaf", 1): 2, "edge_u": 3, "edge_v": 4},
        )
        assert not verify_witness(H, w)  # u is adjacent to the center

    def test_bipartite_witness_allows_extra_edges(self):
        pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        H = DemandGraph(pairs)
        w = HardWitness(
            HardCase.H_2K,
            K,
            {("side2", 0): 0, ("side2", 1): 1, ("big", 0): 2, ("big", 1): 3},
        )
        assert verify_witness(H, w)


def pattern_table(case, k):
    """Each hard pattern's demand pairs on its role keys, stated here independently."""
    q = k * (k - 1)
    star = [("center", ("leaf", i)) for i in range(q)] + [("edge_u", "edge_v")]
    return {
        HardCase.H_K0_STAR: star,
        HardCase.H_K1_STAR: star + [("center", "edge_u")],
        HardCase.H_K2_STAR: star + [("center", "edge_u"), ("center", "edge_v")],
        HardCase.H_KK: [(("m", i, 0), ("m", i, 1)) for i in range(q + 1)],
        HardCase.H_2K: [(("side2", s), ("big", i)) for s in (0, 1) for i in range(q)],
    }[case]


def planted(case, k):
    """A witness on odd vertex ids and its pattern's pairs, plus the disjoint pair (1000, 1001)."""
    roles = pattern_table(case, k)
    keys = sorted({key for pair in roles for key in pair}, key=repr)
    vmap = {key: 2 * i + 1 for i, key in enumerate(keys)}
    pairs = {tuple(sorted((vmap[a], vmap[b]))) for a, b in roles}
    return HardWitness(case, k, vmap), pairs | {(1000, 1001)}


class TestPatternPairs:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("case", list(HardCase), ids=lambda c: c.value)
    def test_each_single_pair_toggle_decides(self, case, k):
        # only a pair added inside the biclique image keeps a witness valid
        w, pairs = planted(case, k)
        assert verify_witness(DemandGraph(sorted(pairs)), w)
        for pair in combinations(sorted(w.vertex_map.values()), 2):
            H = DemandGraph(sorted(pairs ^ {pair}))
            allowed = case is HardCase.H_2K and pair not in pairs
            assert verify_witness(H, w) is allowed, pair

    @pytest.mark.parametrize("case", list(HardCase), ids=lambda c: c.value)
    def test_malformed_role_keys_fail(self, case):
        w, pairs = planted(case, K)
        H = DemandGraph(sorted(pairs))
        for key in w.vertex_map:
            missing = {k_: v for k_, v in w.vertex_map.items() if k_ != key}
            assert not verify_witness(H, HardWitness(case, K, missing)), key
        # the stray key sits on a vertex of H outside the pattern's pairs
        stray = {**w.vertex_map, ("stray", 0): 1000}
        assert not verify_witness(H, HardWitness(case, K, stray))

    def test_matching_key_out_of_range_fails(self):
        w, pairs = planted(HardCase.H_KK, K)
        q = K * (K - 1)
        vmap = dict(w.vertex_map)
        vmap[("m", 7, 0)], vmap[("m", 7, 1)] = vmap.pop(("m", q, 0)), vmap.pop(("m", q, 1))
        assert not verify_witness(DemandGraph(sorted(pairs)), HardWitness(HardCase.H_KK, K, vmap))
