"""The bicriteria label DP shared by four callers, and the layered DST
reduction.

star_frontiers is the Dreyfus-Wagner subset DP over (vertex, terminal
subset) with a (height, cost) label in place of a scalar: per cell it keeps
the Pareto frontier of trees rooted at the vertex that reach the subset.
Each subset is filled by one label-setting pass (Martins 1984) in the
send-and-split form of Erickson, Monma and Veinott (1987): the splits with
both parts non-empty at a vertex seed a heap, less any seed dominated by
another at its vertex; labels leave it in (height, cost) order, and one is
kept only if cheaper than every kept label of no greater height at its
vertex.  solve_slst runs it with unit lengths and exact integer costs and
reads the cheapest tree of height at most L; approx.build_height_table runs
it with scaled costs and a cost cap.  Both pass the star root, so a label
at v is kept only up to L - d(root, v).  approx.min_dist runs it from one
terminal, the path's source, with the criteria swapped (heights are scaled
costs held to the level budget, costs are lengths), so each vertex's last
label is its shortest path at the least scaled cost; approx_const runs its
halves, the set-up star_arcs once per cost vector and star_pass per source.
The exact constant-demand solvers run it from one terminal with unit
heights (hops) and their weight as costs: each label at v is a least-weight
path within its height in edges and one segment option; hop_bounded_path
reads the last one within a bound, walked back by label_path.

The paper's exact algorithm reduces unit-length stars to a directed Steiner
tree on an (L+1)-layered digraph: layer i holds a copy v(i) of every
vertex; each undirected edge {u,v} yields arcs u(i-1)->v(i) and
v(i-1)->u(i) at the edge's cost for every i in [L], and every vertex gets
a zero-cost stay arc v(i-1)->v(i).  The root is s(0) and terminal j is
t_j(L); the layered DST optimum equals the SLST optimum.  The reduction and
its scalar subset DP (build_layered_dst, solve_dst) stay here as the
reference the tests compare the star DP against; no solver calls them.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
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


def star_terminals(instance: SlsnInstance) -> tuple[int, tuple[int, ...]]:
    """The star root and its terminals, in demand order."""
    root = instance.demands.star_root()
    if root is None:
        raise ValueError("demand graph is not a star; run `slsn classify` to see its class")
    return root, tuple(t if s == root else s for s, t in instance.demands.pairs)


def build_layered_dst(
    instance: SlsnInstance, root: int
) -> tuple[DstInstance, LayeredMap]:
    """The (L+1)-layer reduction for unit-length star instances.

    L is clamped to n-1 (a longer unit-length path would repeat a vertex),
    and L is read as the instance's length_cap, floor(L) for unit lengths.
    """
    graph = instance.graph
    if not graph.has_unit_lengths():
        raise ValueError("layered reduction requires unit edge lengths")
    for s, t in instance.demands.pairs:
        if root not in (s, t):
            raise ValueError("demands do not form a star rooted at the given root")
    n = graph.vertex_count
    L = min(instance.length_cap, max(n - 1, 0))
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


class Label(NamedTuple):
    """One Pareto point of a (vertex, terminal subset) cell: a tree rooted
    at the vertex that reaches the subset, with this height and cost."""

    height: int
    cost: int
    prov: tuple  # ("leaf",) | ("edge", edge_idx, child) | ("split", a, b)


def _split_pairs(A: Sequence[Label], B: Sequence[Label]) -> list[tuple[Label, Label]]:
    """The pairs (a, b) of a split that can win their vertex, in (index in
    A, index in B) order.  Frontier heights rise strictly as costs fall, so
    a pair with b no higher than a loses to a with B's last label no higher
    than a (same height, less cost), and so with A and B swapped: walking
    both by height, each step pairs the last labels passed, at most
    |A| + |B| - 1 pairs."""
    out, i, j, na, nb = [], 0, 0, len(A), len(B)
    while i < na or j < nb:
        a_next = j == nb or (i < na and A[i].height <= B[j].height)
        b_next = i == na or (j < nb and B[j].height <= A[i].height)
        i += a_next
        j += b_next
        if i and j:
            out.append((A[i - 1], B[j - 1]))
    return out


def _split_seeds(
    cells: list[dict], reach: list[int], mask: int, cap: Optional[int], order: Iterator[int]
) -> list[tuple]:
    """The heap that seeds mask: the pairs of each split (sub, mask ^ sub)
    at each vertex v where both parts are non-empty (bit v of reach[sub];
    the (v, sub) frontier is cells[sub][v]).  A vertex's pairs are swept in
    (height, cost) order, ties in push order (sub descending, then
    _split_pairs' order), and one no cheaper than an earlier one is
    dropped: that one pops first and leaves v no dearer.  Survivors are
    numbered by ascending vertex, as pushing every pair would, so every
    pop, label and provenance is the same as with all pairs pushed."""
    rest = mask ^ (1 << (mask.bit_length() - 1))  # sub < mask ^ sub: each split once
    cands, sub = [], rest
    while sub:
        other = mask ^ sub
        both = reach[sub] & reach[other]
        left, right = cells[sub], cells[other]
        while both:
            low = both & -both
            both ^= low
            v = low.bit_length() - 1
            A, B = left[v], right[v]
            if len(A) == len(B) == 1:  # most splits
                a, b = A[0], B[0]
                c = a.cost + b.cost
                if cap is None or c <= cap:
                    cands.append((v, a.height if a.height > b.height else b.height, c, a, b))
                continue
            for a, b in _split_pairs(A, B):
                c = a.cost + b.cost
                if cap is None or c <= cap:
                    cands.append((v, a.height if a.height > b.height else b.height, c, a, b))
        sub = (sub - 1) & rest
    cands.sort(key=operator.itemgetter(0, 1, 2))
    heap, at, least = [], None, None
    for v, h, c, a, b in cands:
        if v != at or c < least:
            at, least = v, c
            heap.append((h, c, next(order), v, ("split", a, b)))
    heapq.heapify(heap)
    return heap


def star_frontiers(
    graph: WeightedGraph,
    terminals: tuple[int, ...],
    lengths: Sequence[int],
    costs: Sequence[int],
    L: int,
    cap: Optional[int] = None,
    root: Optional[int] = None,
) -> dict[tuple[int, int], tuple[Label, ...]]:
    """Pareto frontiers of the star DP, keyed by (vertex, terminal mask).

    Bit i of a mask stands for terminals[i]; a vertex's own bit is never in
    its key, since a tree rooted at a terminal reaches it for free.  Each
    frontier has heights rising and costs strictly falling.  lengths and
    costs are non-negative ints, and no edge has both at zero; trees
    higher than L or dearer than cap (when given) are pruned.

    With a root, a tree at v is also pruned above its slack
    L - d(root, v), d the shortest length from root; a vertex the root
    cannot reach within L takes no labels.  The root's frontiers are
    unchanged, and every other cell is the root=None cell cut at its slack:
    slack(w) >= slack(v) - len(v, w), so each edge parent of a kept label
    was kept, and a split fits slack(v) only if both its parts do.
    """
    n = graph.vertex_count
    if root is None:
        bound = [L] * n
    else:
        dist, _ = dijkstra(adjacency(graph, range(graph.edge_count), lengths), {root: 0})
        bound = [L - dist[v] if v in dist and dist[v] <= L else -1 for v in range(n)]
    return star_pass(star_arcs(graph, lengths, costs, L, cap), terminals, bound, cap)


def star_arcs(
    graph: WeightedGraph, lengths: Sequence[int], costs: Sequence[int], L: int, cap: Optional[int]
) -> list[list[tuple[int, int, int, int]]]:
    """star_frontiers' set-up: arcs[b] lists, in edge order, (a, length, cost, idx)
    extending a tree at b to one at a, less the edges above L or cap."""
    arcs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(graph.vertex_count)]
    for idx, e in enumerate(graph.edges):
        ln, co = lengths[idx], costs[idx]
        if ln <= L and (cap is None or co <= cap):
            arcs[e.v].append((e.u, ln, co, idx))
            arcs[e.u].append((e.v, ln, co, idx))
    return arcs


def star_pass(
    arcs: list[list[tuple[int, int, int, int]]], terminals: tuple[int, ...], bound: Sequence[int],
    cap: Optional[int],
) -> dict[tuple[int, int], tuple[Label, ...]]:
    """star_frontiers' label-setting pass per subset, a tree at v held to bound[v]."""
    n = len(arcs)
    tbit = {t: 1 << i for i, t in enumerate(terminals)}
    full = (1 << len(terminals)) - 1
    leaf = (Label(0, 0, ("leaf",)),)
    frontiers = {(v, 0): leaf for v in range(n)}
    order = itertools.count()
    cells, reach = [{}] * (full + 1), [0] * (full + 1)

    for mask in range(1, full + 1):
        kept: dict[int, list[Label]] = {
            v: [] for v in range(n) if not tbit.get(v, 0) & mask
        }

        def relax(v: int, label: Label) -> None:
            for a, ln, co, idx in arcs[v]:
                row = kept.get(a)
                h, c = label.height + ln, label.cost + co
                if row is None or h > bound[a] or (cap is not None and c > cap):
                    continue
                if not row or c < row[-1].cost:
                    heapq.heappush(heap, (h, c, next(order), a, ("edge", idx, label)))

        heap = _split_seeds(cells, reach, mask, cap, order) if mask & (mask - 1) else []
        for t, bit in tbit.items():
            if bit & mask:  # a terminal in the subset sends its settled labels
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
        if mask < full:  # a part of later masks' splits
            bits = 0
            for v, row in kept.items():
                if row:
                    bits |= 1 << v
            cells[mask], reach[mask] = kept, bits
    return frontiers


def tree_edges(label: Label) -> set[int]:
    """Edge indices of the tree a label's provenance describes."""
    out: set[int] = set()
    stack = [label]
    while stack:
        prov = stack.pop().prov
        if prov[0] == "edge":
            out.add(prov[1])
            stack.append(prov[2])
        elif prov[0] == "split":
            stack.extend(prov[1:])
    return out


def label_path(graph: WeightedGraph, v: int, label: Label) -> tuple[tuple, tuple]:
    """(vertices, edges), source first, of the path a label at v of a
    one-terminal pass describes: its edge chain runs from v back to the
    terminal, the path's source."""
    vertices, edges = [v], []
    while label.prov[0] == "edge":
        _, idx, label = label.prov
        e = graph.edges[idx]
        vertices.append(e.u if e.v == vertices[-1] else e.v)
        edges.append(idx)
    return tuple(reversed(vertices)), tuple(reversed(edges))


def hop_bounded_path(
    graph: WeightedGraph, u: int, v: int, hop_bound: int, weight: Sequence
) -> Optional[Path]:
    """Minimum-weight u-v path with at most hop_bound edges, or None: the
    last label at v of the label DP from u with unit heights and weight
    (nonnegative, exact) as its costs.  A kept label is cheaper than every
    earlier one at its vertex, so its chain never revisits a vertex."""
    if u == v:
        return Path.trivial(u)
    arcs = star_arcs(graph, [1] * graph.edge_count, weight, hop_bound, None)
    frontier = star_pass(arcs, (u,), [hop_bound] * graph.vertex_count, None)[(v, 1)]
    return Path.from_edge_sequence(graph, *label_path(graph, v, frontier[-1])) if frontier else None


def solve_slst(instance: SlsnInstance) -> Optional[Solution]:
    """Exact star solver for unit lengths: the cheapest star-DP tree of
    height at most L, with its witness paths.

    L is clamped to n-1 (a longer unit-length path would repeat a vertex),
    and L is read as the instance's length_cap, floor(L) for unit lengths.
    """
    root, terminals = star_terminals(instance)
    graph = instance.graph
    if not graph.has_unit_lengths():
        raise ValueError("the exact star solver requires unit edge lengths")
    L = min(instance.length_cap, max(graph.vertex_count - 1, 0))
    frontiers = star_frontiers(
        graph, terminals, [1] * graph.edge_count, graph.int_costs, L, root=root
    )
    frontier = frontiers[(root, (1 << len(terminals)) - 1)]
    if not frontier:
        return None
    return Solution.build(instance, tree_edges(frontier[-1]))
