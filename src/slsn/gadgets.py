"""Executable hardness reductions: clique instances into SLSN gadgets.

Every builder takes a multi-colored clique (MCC) input and emits a
GadgetBundle: a hop-expanded unit-length SLSN instance whose demand graph
realizes one hard pattern, together with the exact threshold value g such
that the MCC instance has a multicolored k-clique iff the SLSN instance
has a solution of cost g.

Gadget anatomy (cases 1-4 share one skeleton).  A layered graph hangs off
a root r: color-pair selectors z_{i,j}, edge selectors z_e, vertex slots
x_{v,j} / x'_{v,j}, and leaves l_{i,j}; separate vertices y_0..y_k thread
"zig-zag" paths through the x-slots so that connecting y_0 to y_k within
the length bound forces the choice of one vertex per color, while each
leaf demand r-l_{i,j} forces the choice of one clique edge.  The shared
budget makes those choices consistent exactly when a clique exists.  Case
5 (two roots) mirrors the directed construction with five unit layers and
length-4 / length-7 edge families.  Case 6 embeds any hard demand graph
by padding a concrete pattern with fresh length-L paths.

Witnesses.  A multicolored clique picks one base-edge path per demand
(_witness_base_paths), built from a few shared chains: root to leaf, and
the per-color zig-zag.  The witness is its paths: its edge set is their
union, so each case describes its witness exactly once.

Unit flavor: every base edge costs its length, so after hop expansion all
edges are unit-length unit-cost.  Poly flavor (apply_poly_cost) re-costs
selected families to polynomially large values per the approximation
hardness construction and divides costs equally over hops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    DemandGraph,
    ExpansionResult,
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    as_fraction,
    expand_to_unit,
)
from .classifier import (
    DemandClassKind,
    HardCase,
    HardWitness,
    _adjacency,
    classify,
    verify_witness,
)


class GadgetError(ValueError):
    """Invalid MCC input or demand graph for the requested gadget."""


class CostFlavor(enum.Enum):
    UNIT = "unit"
    POLY = "poly"


def f_next(i: int, j: int) -> int:
    """Next integer after j skipping i."""
    return j + 2 if j + 1 == i else j + 1


def f_iter(i: int, t: int, j: int) -> int:
    """t-fold application of f_next(i, .) starting from j."""
    for _ in range(t):
        j = f_next(i, j)
    return j


@dataclass(frozen=True)
class MccInstance:
    """k-colored undirected graph; edges never join same-colored vertices."""

    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    coloring: dict[int, int] = field(hash=False)

    @staticmethod
    def build(
        n: int, edges: Iterable[tuple[int, int]], k: int, coloring: dict[int, int]
    ) -> "MccInstance":
        norm = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GadgetError(f"bad MCC edge ({u},{v})")
            if coloring[u] == coloring[v]:
                raise GadgetError(
                    f"MCC edge ({u},{v}) joins two color-{coloring[u]} vertices"
                )
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                norm.append(key)
        for v in range(n):
            if not (1 <= coloring[v] <= k):
                raise GadgetError(f"vertex {v} colored outside 1..{k}")
        return MccInstance(n, tuple(norm), k, dict(coloring))

    def color_class(self, i: int) -> list[int]:
        return [v for v in range(self.n) if self.coloring[v] == i]

    def require_nonempty_classes(self) -> None:
        for i in range(1, self.k + 1):
            if not self.color_class(i):
                raise GadgetError(f"color class {i} is empty; no zig-zag path exists")


@dataclass
class _BaseGadget:
    """Pre-expansion gadget: weighted base graph plus bookkeeping."""

    case_tag: HardCase
    k: int
    L: int
    mcc: MccInstance
    labels: list[str] = field(default_factory=list)
    roles: list[tuple] = field(default_factory=list)  # per vertex: (kind, key)
    edges: list[tuple[int, int, int]] = field(default_factory=list)  # u, v, length
    families: list[str] = field(default_factory=list)
    demands: list[tuple[int, int]] = field(default_factory=list)
    demand_origins: list[tuple] = field(default_factory=list)  # (kind, data) per demand
    _index: dict = field(default_factory=dict)  # (kind, key) -> vertex id
    _eindex: dict = field(default_factory=dict)  # (family, key) -> edge id

    @property
    def extra_demand_count(self) -> int:
        """Case-6 pad demands; every other demand belongs to the pattern."""
        return sum(1 for kind, _ in self.demand_origins if kind == "extra")

    def vertex(self, kind: str, key) -> int:
        return self._index[(kind, key)]

    def add_vertex(self, kind: str, key, label: str) -> int:
        vid = len(self.labels)
        self.labels.append(label)
        self.roles.append((kind, key))
        self._index[(kind, key)] = vid
        return vid

    def add_edge(self, family: str, key, u: int, v: int, length: int) -> int:
        idx = len(self.edges)
        self.edges.append((u, v, length))
        self.families.append(family)
        self._eindex[(family, key)] = idx
        return idx

    def edge_id(self, family: str, key) -> int:
        return self._eindex[(family, key)]

    def add_demand(self, kind: str, data, s: int, t: int) -> None:
        self.demands.append((s, t))
        self.demand_origins.append((kind, data))


@dataclass
class GadgetBundle:
    """Generated instance plus everything needed to audit it."""

    instance: SlsnInstance
    demand_graph: DemandGraph
    case_tag: HardCase
    k: int
    g_value: Fraction
    cost_flavor: CostFlavor
    base: _BaseGadget
    expansion: ExpansionResult
    edge_family: tuple[str, ...]  # per expanded edge
    mcc: MccInstance

    def role_vertex(self, kind: str, key) -> int:
        """Expanded vertex id of a base gadget role (ids are preserved)."""
        return self.base.vertex(kind, key)


# ---------------------------------------------------------------------------
# skeleton shared by cases 1-4


def _build_star_skeleton(base: _BaseGadget, e1_length: int) -> None:
    """Vertices and edge families of the G_k^* construction."""
    mcc, k = base.mcc, base.k
    mcc.require_nonempty_classes()
    base.add_vertex("r", None, "r")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            base.add_vertex("z_pair", (i, j), f"z_{{{i},{j}}}")
    for e in mcc.edges:
        base.add_vertex("z_edge", e, f"ze_{{{e[0]},{e[1]}}}")
    for v in range(mcc.n):
        for j in range(1, k + 1):
            if j != mcc.coloring[v]:
                base.add_vertex("x", (v, j), f"x_{{{v},{j}}}")
    for v in range(mcc.n):
        for j in range(1, k + 1):
            if j != mcc.coloring[v]:
                base.add_vertex("xp", (v, j), f"x'_{{{v},{j}}}")
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j:
                base.add_vertex("l", (i, j), f"l_{{{i},{j}}}")
    for i in range(k + 1):
        base.add_vertex("y", i, f"y_{i}")

    r = base.vertex("r", None)
    long_len = 2 * k * k - 2
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            base.add_edge("E1", (i, j), r, base.vertex("z_pair", (i, j)), e1_length)
    col = mcc.coloring
    for e in mcc.edges:
        u, v = e
        pair = (min(col[u], col[v]), max(col[u], col[v]))
        ze = base.vertex("z_edge", e)
        base.add_edge("E2", e, base.vertex("z_pair", pair), ze, 1)
        base.add_edge("E3", (e, u, col[v]), ze, base.vertex("x", (u, col[v])), long_len)
        base.add_edge("E3", (e, v, col[u]), ze, base.vertex("x", (v, col[u])), long_len)
    for v in range(mcc.n):
        for j in range(1, k + 1):
            if j != col[v]:
                base.add_edge(
                    "E4", (v, j), base.vertex("x", (v, j)), base.vertex("xp", (v, j)), 1
                )
                base.add_edge(
                    "E5",
                    (v, j),
                    base.vertex("xp", (v, j)),
                    base.vertex("l", (col[v], j)),
                    long_len,
                )
    for i in range(1, k + 1):
        last_j = f_iter(i, k - 1, 0)
        for v in mcc.color_class(i):
            base.add_edge(
                "Eyx", (i, v), base.vertex("y", i - 1), base.vertex("x", (v, f_next(i, 0))), 4
            )
            base.add_edge(
                "Exy", (i, v), base.vertex("xp", (v, last_j)), base.vertex("y", i), 3
            )
    for v in range(mcc.n):
        cv = col[v]
        last_j = f_iter(cv, k - 1, 0)
        for j in range(1, k + 1):
            if j != cv and j != last_j:
                base.add_edge(
                    "Exx",
                    (v, j),
                    base.vertex("xp", (v, j)),
                    base.vertex("x", (v, f_next(cv, j))),
                    3,
                )


def _leaf_pairs(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]


def _star_case_base(mcc: MccInstance, case_tag: HardCase) -> _BaseGadget:
    k = mcc.k
    base = _BaseGadget(case_tag, k, 4 * k * k, mcc)
    _build_star_skeleton(base, e1_length=2)
    r = base.vertex("r", None)
    for i, j in _leaf_pairs(k):
        base.add_demand("leaf", (i, j), r, base.vertex("l", (i, j)))
    base.add_demand("ypath", None, base.vertex("y", 0), base.vertex("y", k))
    if case_tag in (HardCase.H_K1_STAR, HardCase.H_K2_STAR):
        base.add_demand("ry0", None, r, base.vertex("y", 0))
    if case_tag is HardCase.H_K2_STAR:
        base.add_demand("ryk", None, r, base.vertex("y", k))
    return base


def build_case1(mcc: MccInstance) -> GadgetBundle:
    """Star with k(k-1) leaves plus a disjoint edge (demands r-l and y0-yk)."""
    return _finalize(_star_case_base(mcc, HardCase.H_K0_STAR), CostFlavor.UNIT, None)


def build_case2(mcc: MccInstance) -> GadgetBundle:
    """Case 1 plus the demand r-y0."""
    return _finalize(_star_case_base(mcc, HardCase.H_K1_STAR), CostFlavor.UNIT, None)


def build_case3(mcc: MccInstance) -> GadgetBundle:
    """Case 1 plus demands r-y0 and r-yk."""
    return _finalize(_star_case_base(mcc, HardCase.H_K2_STAR), CostFlavor.UNIT, None)


def _case4_base(mcc: MccInstance) -> _BaseGadget:
    k = mcc.k
    base = _BaseGadget(HardCase.H_KK, k, 4 * k * k, mcc)
    _build_star_skeleton(base, e1_length=1)
    r = base.vertex("r", None)
    for i, j in _leaf_pairs(k):
        lp = base.add_vertex("lp", (i, j), f"l'_{{{i},{j}}}")
        base.add_edge("E0", (i, j), lp, r, 1)
    for i, j in _leaf_pairs(k):
        base.add_demand("match", (i, j), base.vertex("lp", (i, j)), base.vertex("l", (i, j)))
    base.add_demand("ypath", None, base.vertex("y", 0), base.vertex("y", k))
    return base


def build_case4(mcc: MccInstance) -> GadgetBundle:
    """Matching demands: l'_{i,j}-l_{i,j} plus y0-yk; E1 shortened, E0 added."""
    return _finalize(_case4_base(mcc), CostFlavor.UNIT, None)


# ---------------------------------------------------------------------------
# case 5: two roots


def detect_bipartite_sides(H: DemandGraph, k: int) -> tuple[int, int, tuple[int, ...]]:
    """Default side assignment for an H_2k member: lowest-index 2-side pair
    adjacent to every other vertex, big side in ascending order."""
    q = k * (k - 1)
    verts = sorted(H.vertices())
    if len(verts) != q + 2:
        raise GadgetError(f"H_2k member needs {q + 2} vertices, got {len(verts)}")
    adj = _adjacency(H)
    for ia, a in enumerate(verts):
        for b in verts[ia + 1 :]:
            rest = [w for w in verts if w not in (a, b)]
            if all(w in adj[a] and w in adj[b] for w in rest):
                return a, b, tuple(rest)
    raise GadgetError("no 2-by-k(k-1) complete bipartite subgraph found in H")


def build_case5(
    mcc: MccInstance,
    H: DemandGraph,
    side_map: Optional[tuple[int, int, tuple[int, ...]]] = None,
) -> GadgetBundle:
    """Two-root gadget for a demand graph containing a 2-by-k(k-1) biclique.

    side_map is (r1 vertex of H, r2 vertex of H, big side order); it
    defaults to the lowest-index valid assignment and must cover every
    vertex of H.
    """
    if side_map is None:
        side_map = detect_bipartite_sides(H, mcc.k)
    r1_h, r2_h, big = side_map
    vmap = {("side2", 0): r1_h, ("side2", 1): r2_h}
    vmap.update({("big", i): h for i, h in enumerate(big)})
    witness = HardWitness(HardCase.H_2K, mcc.k, vmap)
    if set(vmap.values()) != H.vertices() or not verify_witness(H, witness):
        raise GadgetError(
            "side_map must place a 2-by-k(k-1) biclique on all vertices of H"
        )
    return _finalize(_case5_base(mcc, H, side_map), CostFlavor.UNIT, None)


def _case5_base(
    mcc: MccInstance, H: DemandGraph, side: tuple[int, int, tuple[int, ...]]
) -> _BaseGadget:
    """Case-5 base gadget; side already places a biclique on every vertex of H."""
    k = mcc.k
    base = _BaseGadget(HardCase.H_2K, k, 7, mcc)
    mcc.require_nonempty_classes()
    col = mcc.coloring
    base.add_vertex("r1", None, "r_1")
    base.add_vertex("r2", None, "r_2")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            base.add_vertex("z_pair", (i, j), f"z_{{{i},{j}}}")
    for i in range(1, k + 1):
        base.add_vertex("ycol", i, f"y_{i}")
    for e in mcc.edges:
        base.add_vertex("z_edge", e, f"ze_{{{e[0]},{e[1]}}}")
    for v in range(mcc.n):
        base.add_vertex("yv", v, f"yv_{v}")
    for v in range(mcc.n):
        for j in range(1, k + 1):
            if j != col[v]:
                base.add_vertex("x", (v, j), f"x_{{{v},{j}}}")
    for i, j in _leaf_pairs(k):
        base.add_vertex("l", (i, j), f"l_{{{i},{j}}}")

    r1 = base.vertex("r1", None)
    r2 = base.vertex("r2", None)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            base.add_edge("E11", (i, j), r1, base.vertex("z_pair", (i, j)), 1)
    for e in mcc.edges:
        u, v = e
        pair = (min(col[u], col[v]), max(col[u], col[v]))
        ze = base.vertex("z_edge", e)
        base.add_edge("E12", e, base.vertex("z_pair", pair), ze, 1)
        base.add_edge("E13", (e, u, col[v]), ze, base.vertex("x", (u, col[v])), 1)
        base.add_edge("E13", (e, v, col[u]), ze, base.vertex("x", (v, col[u])), 1)
    for i in range(1, k + 1):
        base.add_edge("E21", i, r2, base.vertex("ycol", i), 1)
    for v in range(mcc.n):
        base.add_edge("E22", v, base.vertex("ycol", col[v]), base.vertex("yv", v), 1)
        for j in range(1, k + 1):
            if j != col[v]:
                base.add_edge(
                    "E23", (v, j), base.vertex("yv", v), base.vertex("x", (v, j)), 1
                )
                base.add_edge(
                    "Exl", (v, j), base.vertex("x", (v, j)), base.vertex("l", (col[v], j)), 4
                )
    lp = _leaf_pairs(k)
    for a_i, pa in enumerate(lp):
        for pb in lp[a_i + 1 :]:
            base.add_edge(
                "Ell", (pa, pb), base.vertex("l", pa), base.vertex("l", pb), 7
            )

    r1_h, r2_h, big = side
    big_slot = {h: lp[i] for i, h in enumerate(big)}
    for i, j in lp:
        base.add_demand("bip1", (i, j), r1, base.vertex("l", (i, j)))
        base.add_demand("bip2", (i, j), r2, base.vertex("l", (i, j)))
    for a, b in H.pairs:
        if {a, b} == {r1_h, r2_h}:
            base.add_demand("r1r2", None, r1, r2)
        elif a in big_slot and b in big_slot:
            pa, pb = sorted((big_slot[a], big_slot[b]))
            base.add_demand("ll", (pa, pb), base.vertex("l", pa), base.vertex("l", pb))
        # side-big pairs are already in the biclique demands
    return base


# ---------------------------------------------------------------------------
# case 6: general hard demand graph


def build_general(
    mcc: MccInstance, H: DemandGraph, witness: Optional[HardWitness] = None
) -> GadgetBundle:
    """Embed any hard demand graph: concrete pattern + length-L pad paths.

    Without an explicit witness, H must classify as hard (so it carries at
    least 8k^10 edges).  A caller that already knows an induced hard
    pattern of H may pass its witness directly, which also admits small
    demonstration graphs below the classifier threshold; the witness is
    re-verified either way.
    """
    k = mcc.k
    if witness is None:
        verdict = classify(H, k)
        if verdict.kind is not DemandClassKind.HARD:
            raise GadgetError(f"demand graph is {verdict.kind.value}, not hard")
        witness = verdict.witness
    else:
        if witness.k != k:
            raise GadgetError("witness parameter k does not match the MCC instance")
        if not verify_witness(H, witness):
            raise GadgetError("supplied witness fails verification against H")
    image = set(witness.vertex_map.values())
    pattern = DemandGraph(
        [(a, b) for a, b in H.pairs if a in image and b in image]
    )
    base, h_to_base = _pattern_base(mcc, witness, pattern)
    assert len(base.demands) == pattern.size, "pattern must be induced"

    for v in sorted(H.vertices()):
        if v not in image:
            h_to_base[v] = base.add_vertex("h_extra", v, f"h_{v}")
    pattern_pairs = set(pattern.pairs)
    for a, b in H.pairs:
        if (a, b) not in pattern_pairs:
            base.add_edge("extra", (a, b), h_to_base[a], h_to_base[b], base.L)
            base.add_demand("extra", (a, b), h_to_base[a], h_to_base[b])
    return _finalize(base, CostFlavor.UNIT, None)


def _pattern_base(
    mcc: MccInstance, witness: HardWitness, pattern: DemandGraph
) -> tuple[_BaseGadget, dict[int, int]]:
    """Build the witness case's base gadget and map image vertices into it."""
    k = mcc.k
    lp = _leaf_pairs(k)
    vmap = witness.vertex_map
    tag = witness.case_tag
    if tag is HardCase.H_2K:
        big = tuple(vmap[key] for key in sorted(k_ for k_ in vmap if k_[0] == "big"))
        side = (vmap[("side2", 0)], vmap[("side2", 1)], big)
        base = _case5_base(mcc, pattern, side)
        roles = {side[0]: ("r1", None), side[1]: ("r2", None)}
        roles.update({h: ("l", lp[i]) for i, h in enumerate(big)})
    elif tag is HardCase.H_KK:
        base = _case4_base(mcc)
        roles = {}
        for i, pair in enumerate(lp):
            roles[vmap[("m", i, 0)]] = ("lp", pair)
            roles[vmap[("m", i, 1)]] = ("l", pair)
        roles[vmap[("m", len(lp), 0)]] = ("y", 0)
        roles[vmap[("m", len(lp), 1)]] = ("y", k)
    else:
        base = _star_case_base(mcc, tag)
        leaves = sorted(k_ for k_ in vmap if isinstance(k_, tuple) and k_[0] == "leaf")
        roles = {vmap["center"]: ("r", None)}
        roles.update({vmap[key]: ("l", lp[i]) for i, key in enumerate(leaves)})
        roles[vmap["edge_u"]] = ("y", 0)
        roles[vmap["edge_v"]] = ("y", k)
    return base, {h: base.vertex(*role) for h, role in roles.items()}


# ---------------------------------------------------------------------------
# finalization, re-costing, g


def _base_costs(base: _BaseGadget, flavor: CostFlavor, eps: Optional[Fraction]) -> list[Fraction]:
    """Pre-expansion edge costs; unit flavor keys cost to length."""
    k = base.k
    costs = [Fraction(length) for (_, _, length) in base.edges]
    if flavor is CostFlavor.UNIT:
        return costs
    big = Fraction(4 * k**4)
    if base.case_tag in (
        HardCase.H_K0_STAR,
        HardCase.H_K1_STAR,
        HardCase.H_K2_STAR,
        HardCase.H_KK,
    ):
        for idx, fam in enumerate(base.families):
            if fam in ("E2", "E4"):
                costs[idx] = big
    else:
        for idx, fam in enumerate(base.families):
            if fam == "E22":
                costs[idx] = big * (k - 1)
            elif fam in ("E12", "Exl"):
                costs[idx] = Fraction(8 * k**4)
    if base.extra_demand_count:
        factor = _poly_factor(base, eps)
        for idx, fam in enumerate(base.families):
            if fam != "extra":
                costs[idx] *= factor
    return costs


def _poly_factor(base: _BaseGadget, eps: Optional[Fraction]) -> int:
    if eps is None:
        raise GadgetError("poly-cost case-6 gadgets need eps")
    x = Fraction(base.L * len(base.demands)) / eps
    return -((-x.numerator) // x.denominator)


def _finalize(
    base: _BaseGadget, flavor: CostFlavor, eps: Optional[Fraction]
) -> GadgetBundle:
    costs = _base_costs(base, flavor, eps)
    graph = WeightedGraph(
        len(base.labels),
        [
            (u, v, Fraction(length), costs[idx])
            for idx, (u, v, length) in enumerate(base.edges)
        ],
        base.labels,
    )
    expansion = expand_to_unit(graph)
    demand_graph = DemandGraph(base.demands)
    instance = SlsnInstance(expansion.graph, base.L, demand_graph)
    # expand_to_unit numbers the hops of base edge i right after those of i-1
    family = tuple(
        fam for fam, ids in zip(base.families, expansion.edge_map) for _ in ids
    )
    return GadgetBundle(
        instance=instance,
        demand_graph=demand_graph,
        case_tag=base.case_tag,
        k=base.k,
        g_value=_g_for(base, flavor, eps),
        cost_flavor=flavor,
        base=base,
        expansion=expansion,
        edge_family=family,
        mcc=base.mcc,
    )


def _g_for(base: _BaseGadget, flavor: CostFlavor, eps: Optional[Fraction]) -> Fraction:
    pads = base.extra_demand_count
    if base.case_tag is HardCase.H_2K:
        r_edge = any(origin[0] == "r1r2" for origin in base.demand_origins)
        pattern_g = _case5_g(base.k, len(base.demands) - pads, r_edge, flavor)
    else:
        pattern_g = g_value_of(base.case_tag, base.k, None, flavor)
    if not pads:
        return pattern_g
    factor = 1 if flavor is CostFlavor.UNIT else _poly_factor(base, eps)
    return factor * pattern_g + base.L * pads


def _case5_g(k: int, size: int, r_edge: bool, flavor: CostFlavor) -> Fraction:
    """Case-5 threshold for a pattern with size demand edges."""
    edge_term = 7 * size - (7 if r_edge else 0)
    if flavor is CostFlavor.UNIT:
        return Fraction(edge_term - 7 * k * k + 9 * k)
    return Fraction(16 * k**6 - 16 * k**5 + edge_term) - Fraction(23 * k * k - 25 * k, 2)


def g_value_of(
    case_tag: HardCase,
    k: int,
    H: Optional[DemandGraph] = None,
    cost_flavor: CostFlavor = CostFlavor.UNIT,
) -> Fraction:
    """Exact threshold value per case; Case 5 needs H for its edge count.

    Unit flavor:
      cases 1-3  (8k^4 - 8k^3 + 3k^2 + 5k) / 2
      case 4     4k^4 - 4k^3 + 2k^2 + 2k
      case 5     7|H| - 7k^2 + 9k - 7[r1r2 in H]

    Poly flavor (the unit value plus the re-costing surcharge of the
    families every feasible solution must buy):
      cases 1-3  6k^6 - 6k^5 + 4k^4 - 4k^3 + 4k
      case 4     6k^6 - 6k^5 + 4k^4 - 4k^3 + (k^2 + 7k) / 2
      case 5     16k^6 - 16k^5 - (23k^2 - 25k) / 2 + 7|H| - 7[r1r2 in H]

    Why these are exact.  Cases 1-4: within L = 4k^2 every r-l_{i,j} path
    is E1.E2.E3.E4.E5 (case 4: E0.E1.E2.E3.E4.E5); any detour exceeds L.
    E4 edge (v, j) reaches only leaf l_{col v, j}, so a feasible solution
    holds at least k(k-1) E4 edges, and each color pair {i,j} needs an E2
    edge of that pair, so it holds at least C(k,2) E2 edges.  Poly flavor
    re-costs only E2 and E4 (length 1) to 4k^4, so every solution S has
    poly(S) = unit(S) + (4k^4 - 1) * #E2/E4(S)
            >= g_unit + (4k^4 - 1) * (C(k,2) + k(k-1)).
    The clique witness meets both bounds at once, and on a no-instance
    unit(S) > g_unit, so poly(S) exceeds the bound as well.  Case 5 (L = 7)
    is the same argument: every root-leaf path is E11.E12.E13.Exl or
    E21.E22.E23.Exl, forcing at least k E22 (re-costed from 1 to
    4k^4(k-1)), C(k,2) E12 (1 to 8k^4) and k(k-1) Exl (4 to 8k^4) edges.
    """
    if case_tag is HardCase.H_2K:
        if H is None:
            raise GadgetError("Case 5 g needs the demand graph H")
        a, b, _ = detect_bipartite_sides(H, k)
        r_edge = (min(a, b), max(a, b)) in set(H.pairs)
        return _case5_g(k, H.size, r_edge, cost_flavor)
    if cost_flavor is CostFlavor.UNIT:
        if case_tag in (HardCase.H_K0_STAR, HardCase.H_K1_STAR, HardCase.H_K2_STAR):
            return Fraction(8 * k**4 - 8 * k**3 + 3 * k * k + 5 * k, 2)
        if case_tag is HardCase.H_KK:
            return Fraction(4 * k**4 - 4 * k**3 + 2 * k * k + 2 * k)
    else:
        if case_tag in (HardCase.H_K0_STAR, HardCase.H_K1_STAR, HardCase.H_K2_STAR):
            return Fraction(6 * k**6 - 6 * k**5 + 4 * k**4 - 4 * k**3 + 4 * k)
        if case_tag is HardCase.H_KK:
            return Fraction(6 * k**6 - 6 * k**5 + 4 * k**4 - 4 * k**3) + Fraction(
                k * k + 7 * k, 2
            )
    raise GadgetError(f"no g formula for {case_tag}")


def apply_poly_cost(bundle: GadgetBundle, eps) -> GadgetBundle:
    """Re-flavor a unit-cost bundle with the polynomial-cost construction."""
    if bundle.cost_flavor is not CostFlavor.UNIT:
        raise GadgetError("apply_poly_cost expects a unit-cost bundle")
    eps = as_fraction(eps)
    if not (0 < eps <= 1):
        raise GadgetError("eps must lie in (0, 1]")
    return _finalize(bundle.base, CostFlavor.POLY, eps)


# ---------------------------------------------------------------------------
# witness solutions


def _check_clique(mcc: MccInstance, clique: Iterable[int]) -> dict[int, int]:
    """Validate a multicolored clique; returns color -> vertex."""
    vs = list(clique)
    if len(vs) != mcc.k:
        raise GadgetError(f"clique must have {mcc.k} vertices")
    by_color: dict[int, int] = {}
    for v in vs:
        if not (0 <= v < mcc.n):
            raise GadgetError(f"clique vertex {v} out of range")
        c = mcc.coloring[v]
        if c in by_color:
            raise GadgetError(f"two clique vertices share color {c}")
        by_color[c] = v
    edges = set(mcc.edges)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if _mcc_key(vs[i], vs[j]) not in edges:
                raise GadgetError(f"clique misses edge ({vs[i]},{vs[j]})")
    return by_color


def _mcc_key(u: int, v: int) -> tuple[int, int]:
    return (min(u, v), max(u, v))


def _witness_base_paths(base: _BaseGadget, by_color: dict[int, int]) -> list[list[int]]:
    """Per demand, the base-edge id sequence of the witness path."""
    k = base.k
    eid = base.edge_id

    def leaf_chain(i: int, j: int) -> list[int]:
        """r -> l_{i,j} through the clique edge of colors i and j."""
        e = _mcc_key(by_color[i], by_color[j])
        return [
            eid("E1", (min(i, j), max(i, j))),
            eid("E2", e),
            eid("E3", (e, by_color[i], j)),
            eid("E4", (by_color[i], j)),
            eid("E5", (by_color[i], j)),
        ]

    def bip1(i: int, j: int) -> list[int]:
        """r_1 -> l_{i,j} through the clique edge of colors i and j."""
        e = _mcc_key(by_color[i], by_color[j])
        return [
            eid("E11", (min(i, j), max(i, j))),
            eid("E12", e),
            eid("E13", (e, by_color[i], j)),
            eid("Exl", (by_color[i], j)),
        ]

    def bip2(i: int, j: int) -> list[int]:
        """r_2 -> l_{i,j} through the clique vertex of color i."""
        return [
            eid("E21", i),
            eid("E22", by_color[i]),
            eid("E23", (by_color[i], j)),
            eid("Exl", (by_color[i], j)),
        ]

    def zigzag(i: int) -> list[int]:
        v = by_color[i]
        seq = [eid("Eyx", (i, v))]
        j = f_next(i, 0)
        for step in range(1, k):
            seq.append(eid("E4", (v, j)))
            if step < k - 1:
                seq.append(eid("Exx", (v, j)))
                j = f_next(i, j)
            else:
                seq.append(eid("Exy", (i, v)))
        return seq

    paths: list[list[int]] = []
    for kind, data in base.demand_origins:
        if kind == "leaf":
            paths.append(leaf_chain(*data))
        elif kind == "match":
            paths.append([eid("E0", data)] + leaf_chain(*data))
        elif kind == "ypath":
            paths.append([b for i in range(1, k + 1) for b in zigzag(i)])
        elif kind == "ry0":
            paths.append(leaf_chain(1, 2)[:3] + [eid("Eyx", (1, by_color[1]))])
        elif kind == "ryk":
            paths.append(leaf_chain(k, k - 1)[:4] + [eid("Exy", (k, by_color[k]))])
        elif kind == "bip1":
            paths.append(bip1(*data))
        elif kind == "bip2":
            paths.append(bip2(*data))
        elif kind == "r1r2":
            paths.append(bip1(1, 2)[:3] + bip2(1, 2)[:3][::-1])
        elif kind == "ll":
            paths.append([eid("Ell", data)])
        elif kind == "extra":
            paths.append([eid("extra", data)])
        else:
            raise AssertionError(f"unknown demand origin {kind}")
    return paths


def _expand_base_path(
    bundle: GadgetBundle, start: int, base_edge_seq: list[int]
) -> Path:
    """Turn a base-edge walk into an expanded-graph Path starting at start."""
    graph = bundle.instance.graph
    vertices = [start]
    edges: list[int] = []
    at = start
    for b_idx in base_edge_seq:
        bu, bv, _ = bundle.base.edges[b_idx]
        ids = bundle.expansion.edge_map[b_idx]
        if at == bu:
            ordered = list(ids)
        elif at == bv:
            ordered = list(reversed(ids))
        else:
            raise AssertionError("base path does not chain")
        for e_idx in ordered:
            e = graph.edges[e_idx]
            nxt = e.other(at)
            edges.append(e_idx)
            vertices.append(nxt)
            at = nxt
    return Path.from_edge_sequence(graph, vertices, edges)


def witness_solution(bundle: GadgetBundle, clique: Iterable[int]) -> Solution:
    """Materialize the clique-derived solution with one path per demand.

    The clique is validated against the MCC graph (a non-clique raises).
    The solution's edge set is the union of its witness paths, and its
    cost is what those edges sum to; the published threshold is
    bundle.g_value, and tests compare the two.
    """
    by_color = _check_clique(bundle.mcc, clique)
    paths = []
    for (s, t), seq in zip(
        bundle.instance.demands.pairs, _witness_base_paths(bundle.base, by_color)
    ):
        first_u, first_v, _ = bundle.base.edges[seq[0]]
        start = s if s in (first_u, first_v) else t
        paths.append(_expand_base_path(bundle, start, seq))
    solution = Solution.build(bundle.instance, {e for p in paths for e in p.edges}, paths)
    solution.validate(bundle.instance)
    return solution


# ---------------------------------------------------------------------------
# structural verification


@dataclass(frozen=True)
class StructureCheck:
    name: str
    demand: tuple[int, int]
    ok: bool
    detail: str


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[StructureCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[StructureCheck]:
        return [c for c in self.checks if not c.ok]


def _milestones(bundle: GadgetBundle, path: Path) -> list[int]:
    """Base-gadget vertices along an expanded path, in order."""
    n_base = len(bundle.base.labels)
    return [v for v in path.vertices if v < n_base]


def verify_structure(bundle: GadgetBundle, solution: Solution) -> StructureReport:
    """Check each witness path against its claimed canonical form.

    Cases 1-4: leaf paths must step one edge per layer and total exactly
    4k^2; the y0-yk path must avoid E1/E2/E3/E5 entirely and decompose
    into k zig-zag subpaths of length 4k, one per color.  Case 5: each
    root-leaf path walks its four levels (total 7) and every leaf-leaf
    demand rides its single direct edge.  Failures are reported, never
    raised.
    """
    checks: list[StructureCheck] = []
    base = bundle.base
    k = base.k
    roles = base.roles
    fam_of = bundle.edge_family

    def role(v: int) -> tuple:
        return roles[v] if v < len(roles) else ("hop", None)

    for demand, origin, path in zip(
        bundle.instance.demands.pairs, base.demand_origins, solution.witness_paths
    ):
        kind = origin[0]
        ms = _milestones(bundle, path)
        if path.vertices[0] != ms[0] or role(ms[0])[0] == "hop":
            ms = list(reversed(ms))
        kinds = [role(v)[0] for v in ms]
        if kind in ("leaf", "match"):
            i, j = origin[1]
            want = ["r", "z_pair", "z_edge", "x", "xp", "l"]
            if kind == "match":
                want = ["lp"] + want
            ok = kinds == want and path.length == 4 * k * k
            detail = f"layers {kinds}, length {path.length}"
            if ok:
                # the x-slot must carry color i and leaf slot j
                x_v, x_j = role(ms[want.index("x")])[1]
                ok = base.mcc.coloring[x_v] == i and x_j == j
                e_key = role(ms[want.index("z_edge")])[1]
                ok = ok and x_v in e_key
                detail += f", x=({x_v},{x_j}), e={e_key}"
            checks.append(StructureCheck(f"{kind}-path form", demand, ok, detail))
        elif kind == "ypath":
            bad_fams = {"E1", "E2", "E3", "E5"}
            touched = sorted({fam_of[e] for e in path.edges} & bad_fams)
            checks.append(
                StructureCheck(
                    "y-path avoids E1/E2/E3/E5",
                    demand,
                    not touched,
                    f"families seen: {touched or 'none'}",
                )
            )
            ok, detail = _check_zigzag(bundle, path, k)
            checks.append(StructureCheck("y-path zig-zag decomposition", demand, ok, detail))
        elif kind in ("ry0", "ryk"):
            ok = path.length <= 4 * k * k
            checks.append(
                StructureCheck(
                    f"{kind} within bound", demand, ok, f"length {path.length}"
                )
            )
        elif kind in ("bip1", "bip2"):
            want = (
                ["r1", "z_pair", "z_edge", "x", "l"]
                if kind == "bip1"
                else ["r2", "ycol", "yv", "x", "l"]
            )
            ok = kinds == want and path.length == 7
            checks.append(
                StructureCheck(
                    f"{kind} level form", demand, ok, f"layers {kinds}, length {path.length}"
                )
            )
        elif kind == "ll":
            ok = (
                kinds == ["l", "l"]
                and len(path.edges) > 0
                and all(fam_of[e] == "Ell" for e in path.edges)
                and path.length == 7
            )
            checks.append(
                StructureCheck("leaf-leaf direct edge", demand, ok, f"layers {kinds}")
            )
        elif kind == "r1r2":
            ok = path.length <= 7
            checks.append(
                StructureCheck("r1-r2 within bound", demand, ok, f"length {path.length}")
            )
        elif kind == "extra":
            ok = all(fam_of[e] == "extra" for e in path.edges) and path.length == base.L
            checks.append(
                StructureCheck(
                    "pad demand rides its own L-hop path",
                    demand,
                    ok,
                    f"length {path.length}",
                )
            )
    return StructureReport(tuple(checks))


def _check_zigzag(bundle: GadgetBundle, path: Path, k: int) -> tuple[bool, str]:
    base = bundle.base
    roles = base.roles
    n_base = len(roles)
    verts = list(path.vertices)
    pos_ms = [(pos, v) for pos, v in enumerate(verts) if v < n_base]
    if not pos_ms or roles[pos_ms[0][1]] != ("y", 0):
        verts = verts[::-1]
        pos_ms = [(pos, v) for pos, v in enumerate(verts) if v < n_base]
    if roles[pos_ms[0][1]] != ("y", 0) or roles[pos_ms[-1][1]] != ("y", k):
        return False, "endpoints are not y_0 and y_k"
    marks = [(pos, roles[v][1]) for pos, v in pos_ms if roles[v][0] == "y"]
    if [yi for _, yi in marks] != list(range(k + 1)):
        return False, f"y sequence {[yi for _, yi in marks]}"
    for i in range(1, k + 1):
        lo, hi = marks[i - 1][0], marks[i][0]
        if hi - lo != 4 * k:
            return False, f"segment {i} has length {hi - lo}, want {4 * k}"
        inner = [v for pos, v in pos_ms if lo < pos < hi]
        vs = {roles[v][1][0] for v in inner if roles[v][0] in ("x", "xp")}
        if len(vs) != 1:
            return False, f"segment {i} mixes vertices {vs}"
        (v,) = vs
        if base.mcc.coloring[v] != i:
            return False, f"segment {i} uses color-{base.mcc.coloring[v]} vertex"
        want: list[tuple] = []
        j = 0
        for t in range(1, k):
            j = f_next(i, j)
            want.append(("x", (v, j)))
            want.append(("xp", (v, j)))
        if [roles[w] for w in inner] != want:
            return False, f"segment {i} role sequence off"
    if marks[-1][0] - marks[0][0] != len(verts) - 1:
        return False, "path extends beyond y_0..y_k"
    return True, f"{k} zig-zag segments of length {4 * k}"
