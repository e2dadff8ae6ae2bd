"""FPT-exact star solver via the layered directed-Steiner-tree reduction.

For star demands with unit lengths, an (L+1)-layered digraph is built:
layer i holds a copy v(i) of every vertex; each undirected edge {u,v}
yields arcs u(i-1)->v(i) and v(i-1)->u(i) at the edge's cost for every
i in [L], and every vertex gets a zero-cost stay arc v(i-1)->v(i).  The
root is s(0) and terminal j is t_j(L); the layered DST optimum equals the
SLST optimum, and selected non-stay arcs project back to original edges.

The DST itself is solved exactly by the classical subset dynamic program:
f(v, R) is the cheapest arborescence rooted at v reaching terminal set R,
combining subset splits at v with arc extensions relaxed Dijkstra-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    SlsnInstance,
    Solution,
    canonical_path_assignment,
    dijkstra,
)


@dataclass(frozen=True)
class DstInstance:
    """Directed graph with arc costs, a root, and terminals to reach."""

    vertex_count: int
    arcs: tuple[tuple[int, int, Fraction], ...]  # (tail, head, cost)
    root: int
    terminals: tuple[int, ...]

    def __post_init__(self):
        for v in (self.root, *self.terminals):
            if not (0 <= v < self.vertex_count):
                raise ValueError("root/terminal out of range")


@dataclass(frozen=True)
class LayeredMap:
    """Bijection (original vertex, layer) <-> layered vertex id."""

    vertex_count: int
    layers: int  # L + 1

    def to_layered(self, v: int, layer: int) -> int:
        if not (0 <= layer < self.layers and 0 <= v < self.vertex_count):
            raise ValueError("layered coordinate out of range")
        return layer * self.vertex_count + v

    def to_original(self, layered: int) -> tuple[int, int]:
        if not (0 <= layered < self.vertex_count * self.layers):
            raise ValueError("layered id out of range")
        return layered % self.vertex_count, layered // self.vertex_count


def star_root_of(instance: SlsnInstance) -> int:
    root = instance.demands.star_root()
    if root is None:
        raise ValueError(
            "demand graph is not a star; run `slsn classify` to see its class"
        )
    return root


def build_layered_dst(
    instance: SlsnInstance, root: int
) -> tuple[DstInstance, LayeredMap]:
    """The (L+1)-layer reduction for unit-length star instances.

    L is clamped to n-1 (a longer unit-length path would repeat a vertex),
    and non-integral L is truncated since all path lengths are integers.
    """
    graph = instance.graph
    if not graph.has_unit_lengths():
        raise ValueError("layered reduction requires unit edge lengths")
    for s, t in instance.demands.pairs:
        if root not in (s, t):
            raise ValueError("demands do not form a star rooted at the given root")
    n = graph.vertex_count
    L = min(int(instance.L), max(n - 1, 0))
    layered = LayeredMap(n, L + 1)
    arcs: list[tuple[int, int, Fraction]] = []
    zero = Fraction(0)
    for i in range(1, L + 1):
        for e in graph.edges:
            arcs.append((layered.to_layered(e.u, i - 1), layered.to_layered(e.v, i), e.cost))
            arcs.append((layered.to_layered(e.v, i - 1), layered.to_layered(e.u, i), e.cost))
        for v in range(n):
            arcs.append((layered.to_layered(v, i - 1), layered.to_layered(v, i), zero))
    terminals = tuple(
        layered.to_layered(t if s == root else s, L) for s, t in instance.demands.pairs
    )
    dst = DstInstance(n * (L + 1), tuple(arcs), layered.to_layered(root, 0), terminals)
    return dst, layered


def _fill_dst_table(
    dst: DstInstance,
) -> tuple[tuple[int, ...], list[list[Optional[Fraction]]], dict[tuple[int, int], tuple]]:
    """Subset DP fill: f[mask][v] is the cheapest arborescence rooted at v
    reaching the terminal subset encoded by mask.

    Masks are filled in increasing order.  For each mask, subset splits
    f(v, R') + f(v, R \\ R') seed a Dijkstra pass over the reversed arcs,
    relaxing f(v, R) <= cost(v->u) + f(u, R).
    """
    n = dst.vertex_count
    terminals = tuple(dict.fromkeys(dst.terminals))  # dedupe, keep order
    p = len(terminals)
    full = (1 << p) - 1
    # arcs reversed, as adjacency lists: in_arcs[head] = [(tail, idx, cost)]
    in_arcs: list[list[tuple[int, int, Fraction]]] = [[] for _ in range(n)]
    for idx, (a, b, c) in enumerate(dst.arcs):
        in_arcs[b].append((a, idx, c))

    # choice[(mask, v)] = ("arc", idx, u) | ("split", m1, m2)
    f: list[list[Optional[Fraction]]] = [[None] * n for _ in range(full + 1)]
    f[0] = [Fraction(0)] * n
    choice: dict[tuple[int, int], tuple] = {}
    for i, t in enumerate(terminals):
        f[1 << i][t] = Fraction(0)

    for mask in range(1, full + 1):
        row = f[mask]
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each unordered split once
                row_a, row_b = f[sub], f[other]
                for v in range(n):
                    ca, cb = row_a[v], row_b[v]
                    if ca is not None and cb is not None:
                        cand = ca + cb
                        if row[v] is None or cand < row[v]:
                            row[v] = cand
                            choice[(mask, v)] = ("split", sub, other)
            sub = (sub - 1) & mask
        seeds = {v: d for v, d in enumerate(row) if d is not None}
        dist, parent = dijkstra(in_arcs, seeds)
        for v, d in dist.items():
            row[v] = d
        for v, (u, idx) in parent.items():
            choice[(mask, v)] = ("arc", idx, u)
    return terminals, f, choice


def solve_dst(dst: DstInstance) -> Optional[frozenset[int]]:
    """Exact directed Steiner tree: minimum-cost arc index set, or None."""
    terminals, f, choice = _fill_dst_table(dst)
    if not terminals:
        return frozenset()
    full = (1 << len(terminals)) - 1
    if f[full][dst.root] is None:
        return None

    arcs: set[int] = set()

    def collect(mask: int, v: int) -> None:
        while True:
            got = choice.get((mask, v))
            if got is None:
                return  # base case: v is the terminal of a singleton mask
            if got[0] == "arc":
                _, idx, u = got
                arcs.add(idx)
                v = u
            else:
                _, m1, m2 = got
                collect(m1, v)
                collect(m2, v)
                return

    collect(full, dst.root)
    return frozenset(arcs)


def dst_cost(dst: DstInstance, arc_set: frozenset[int]) -> Fraction:
    return sum((dst.arcs[i][2] for i in arc_set), Fraction(0))


def solve_slst(instance: SlsnInstance) -> Optional[Solution]:
    """Exact star solver: reduce to layered DST and project back.

    The projected solution keeps each original edge once (stay arcs are
    dropped), has cost equal to the DST optimum, and is feasibility-checked
    by canonical_path_assignment before returning.
    """
    root = star_root_of(instance)
    dst, layered = build_layered_dst(instance, root)
    arc_set = solve_dst(dst)
    if arc_set is None:
        return None
    graph = instance.graph
    pair_to_edges: dict[tuple[int, int], list[int]] = {}
    for idx, e in enumerate(graph.edges):
        pair_to_edges.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(idx)
    chosen: set[int] = set()
    for arc_idx in arc_set:
        a, b, cost = dst.arcs[arc_idx]
        u, _ = layered.to_original(a)
        v, _ = layered.to_original(b)
        if u == v:
            continue  # zero-cost stay arc
        pair = (min(u, v), max(u, v))
        # among parallel edges, the reduction used this arc's exact cost
        idx = min(i for i in pair_to_edges[pair] if graph.edges[i].cost == cost)
        chosen.add(idx)
    paths = canonical_path_assignment(instance, chosen)
    return Solution.build(instance, chosen, paths)
