"""Demand-graph dichotomy: star, constant-size, or provably hard.

A demand graph H is easy when it is a star (any size) or has fewer than
8k^10 edges for the chosen parameter k >= 2.  Otherwise a hard witness is
extracted constructively: an induced subgraph isomorphic to one of five
patterns, each of which supports a clique-encoding gadget.

Pattern vocabulary (q = k(k-1) throughout):
  H_k0_star  star with q leaves plus one edge disjoint from it
  H_k1_star  star with q+1 leaves plus an edge hanging off one leaf
  H_k2_star  star with q+2 leaves plus an edge between two leaves
  H_kk       induced matching of q+1 edges
  H_2k       q+2 vertices containing a complete 2-by-q bipartite subgraph

The extraction follows the constructive argument: low maximum degree
yields a large greedy induced matching; otherwise a high-degree vertex s
is examined -- a second vertex adjacent to many of its neighbors S gives
the bipartite pattern, an independent S gives a star-plus-edge pattern,
and an edge inside S survives a minimum-degree deletion loop that builds
the star-with-internal-edge pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import DemandGraph


class HardCase(enum.Enum):
    H_K0_STAR = "h0star"
    H_K1_STAR = "h1star"
    H_K2_STAR = "h2star"
    H_KK = "matching"
    H_2K = "bipartite"


@dataclass(frozen=True)
class HardWitness:
    """An injection of a hard pattern's roles into H's vertices.

    Role keys by case:
      H_k0_star: "center", ("leaf", i), "edge_u", "edge_v"
      H_k1_star: "center", ("leaf", i), "edge_u" (a leaf), "edge_v" (outside)
      H_k2_star: "center", ("leaf", i), "edge_u", "edge_v" (both leaves)
      H_kk:      ("m", i, 0) and ("m", i, 1), endpoints of matching edge i
      H_2k:      ("side2", 0), ("side2", 1), ("big", i)

    pattern_pairs lists the demand pairs each case places on these roles;
    verify_witness compares them with H's pairs among the image.
    """

    case_tag: HardCase
    k: int
    vertex_map: dict


class DemandClassKind(enum.Enum):
    STAR = "star"
    BOUNDED = "bounded"
    HARD = "hard"


@dataclass(frozen=True)
class DemandClass:
    kind: DemandClassKind
    root: Optional[int] = None  # star root
    size: Optional[int] = None  # |H| when bounded
    witness: Optional[HardWitness] = None


def hardness_threshold(k: int) -> int:
    return 8 * k**10


def classify(H: DemandGraph, k: int = 2) -> DemandClass:
    """Place H in the dichotomy: Star | Bounded(|H|) | Hard(witness)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if H.size == 0:
        return DemandClass(DemandClassKind.BOUNDED, size=0)
    root = H.star_root()
    if root is not None:
        return DemandClass(DemandClassKind.STAR, root=root)
    if H.size < hardness_threshold(k):
        return DemandClass(DemandClassKind.BOUNDED, size=H.size)
    witness = find_hard_pattern(H, k)
    if not verify_witness(H, witness):
        raise AssertionError("constructed hard witness failed verification")
    return DemandClass(DemandClassKind.HARD, witness=witness)


def _adjacency(H: DemandGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for s, t in H.pairs:
        adj.setdefault(s, set()).add(t)
        adj.setdefault(t, set()).add(s)
    return adj


def find_hard_pattern(H: DemandGraph, k: int) -> HardWitness:
    """Extract a hard induced pattern from a large non-star demand graph.

    Requires H not a star with at least 8k^10 edges.  All choices are
    deterministic: lowest-index edges and vertices are preferred.
    """
    if H.star_root() is not None:
        raise ValueError("H is a star; no hard pattern exists")
    if H.size < hardness_threshold(k):
        raise ValueError(f"H has {H.size} < 8k^10 edges")
    q = k * (k - 1)
    adj = _adjacency(H)
    deg_cap = 2 * k**4

    if max(len(a) for a in adj.values()) < deg_cap:
        return _greedy_induced_matching(H, adj, k)

    s = min(v for v, a in adj.items() if len(a) >= deg_cap)
    S = adj[s]

    # another vertex adjacent to >= q vertices of S: bipartite pattern
    for w in sorted(adj):
        if w == s:
            continue
        common = sorted(adj[w] & S)
        if len(common) >= q:
            picked = [x for x in common if x != w][:q]
            vmap: dict = {("side2", 0): s, ("side2", 1): w}
            vmap.update({("big", i): x for i, x in enumerate(picked)})
            return HardWitness(HardCase.H_2K, k, vmap)

    if not any(a in S and b in S for a, b in H.pairs):
        # S independent: some edge has an endpoint outside S + {s}
        for a, b in H.pairs:
            if a not in S | {s} or b not in S | {s}:
                u, v = a, b
                break
        else:
            raise AssertionError("non-star H with independent S must leave S+s")
        T = sorted(S - adj[u] - adj[v] - {u, v})[:q]
        if v in S:  # the star leaf, if any, becomes edge_u
            u, v = v, u
        case = HardCase.H_K1_STAR if u in S else HardCase.H_K0_STAR
        return _star_witness(case, k, s, T, u, v)

    # minimum-degree deletion loop inside S
    S_t = set(S)
    T: list[int] = []
    while len(T) < q:
        assert any(a in S_t and b in S_t for a, b in H.pairs), (
            "loop invariant: an edge inside S_t must survive"
        )
        v_t = min(S_t, key=lambda v: (len(adj[v] & S_t), v))
        T.append(v_t)
        S_t -= adj[v_t] | {v_t}
    for a, b in H.pairs:
        if a in S_t and b in S_t:
            return _star_witness(HardCase.H_K2_STAR, k, s, T, a, b)
    raise AssertionError("deletion loop left no internal edge")


def _star_witness(
    case: HardCase, k: int, center: int, leaves: list[int], u: int, v: int
) -> HardWitness:
    vmap: dict = {"center": center, "edge_u": u, "edge_v": v}
    vmap.update({("leaf", i): x for i, x in enumerate(leaves)})
    return HardWitness(case, k, vmap)


def _greedy_induced_matching(
    H: DemandGraph, adj: dict[int, set[int]], k: int
) -> HardWitness:
    need = k * (k - 1) + 1
    alive: set[int] = set(adj)
    matching: list[tuple[int, int]] = []
    for a, b in H.pairs:  # lowest-index edge first
        if a in alive and b in alive:
            matching.append((a, b))
            if len(matching) == need:
                break
            alive -= adj[a] | adj[b] | {a, b}
    if len(matching) < need:
        raise AssertionError("greedy matching below guaranteed size")
    vmap = {("m", i, end): x for i, pair in enumerate(matching) for end, x in enumerate(pair)}
    return HardWitness(HardCase.H_KK, k, vmap)


def pattern_pairs(w: HardWitness) -> Optional[set[tuple[int, int]]]:
    """The demand pairs w's case places on its roles, as (min, max) pairs of H.

    None unless the witness's role keys are exactly its case's.
    """
    q = w.k * (w.k - 1)
    if w.case_tag is HardCase.H_KK:
        roles = [(("m", i, 0), ("m", i, 1)) for i in range(q + 1)]
    elif w.case_tag is HardCase.H_2K:
        roles = [(("side2", s), ("big", i)) for s in (0, 1) for i in range(q)]
    else:
        roles = [("center", ("leaf", i)) for i in range(q)] + [("edge_u", "edge_v")]
        if w.case_tag is not HardCase.H_K0_STAR:
            roles.append(("center", "edge_u"))
        if w.case_tag is HardCase.H_K2_STAR:
            roles.append(("center", "edge_v"))
    vmap = w.vertex_map
    if {key for pair in roles for key in pair} != vmap.keys():
        return None
    return {(min(vmap[a], vmap[b]), max(vmap[a], vmap[b])) for a, b in roles}


def verify_witness(H: DemandGraph, w: HardWitness) -> bool:
    """Check that w's image induces exactly its case's pattern in H.

    The vertex map must be injective with exactly its case's role keys, and
    H's demand pairs among the image must equal pattern_pairs(w); for H_2k
    they need only contain them (the biclique may carry further pairs).
    Returns False on any failure.
    """
    want = pattern_pairs(w)
    image = set(w.vertex_map.values())
    if want is None or len(image) != len(w.vertex_map):
        return False
    got = {(a, b) for a, b in H.pairs if a in image and b in image}
    return want <= got if w.case_tag is HardCase.H_2K else want == got
