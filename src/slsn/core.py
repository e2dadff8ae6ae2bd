"""Graph, instance and solution data model for shallow-light Steiner networks.

Everything here is exact: edge lengths, edge costs and the global distance
bound L are `fractions.Fraction` values, so feasibility and optimality
comparisons never go through floating point.

Design notes:
  - Graphs are undirected multigraphs.  Parallel edges are kept as-is; all
    shortest-path routines consider every parallel edge.  Edge indices are
    dense 0..m-1 and stable, and they are the currency used everywhere else
    (solutions are sets of edge indices).
  - All types are immutable after construction and every operation is a pure
    function, so instances can be shared freely across threads.
  - Vertices may carry optional string labels.  The gadget generators use
    them to keep generated instances auditable; the solvers ignore them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not a rational value: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'num/den', or a plain integer when exact."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_integers(values: Sequence[Fraction]) -> list[int]:
    """Exact rationals scaled by their least common denominator, as integers.

    Scaling keeps order and sums exact, so the integers compare and add
    like the rationals they stand for.
    """
    denom = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (denom // x.denominator) for x in values]


@dataclass(frozen=True)
class Edge:
    """One undirected edge with exact positive length and nonnegative cost."""

    u: int
    v: int
    length: Fraction
    cost: Fraction

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


class WeightedGraph:
    """Undirected multigraph with per-edge rational length and cost.

    Invariants enforced at construction: no self-loops, strictly positive
    lengths, nonnegative costs, endpoints within range.  Edge indices are
    the position of each edge in the ``edges`` tuple.
    """

    __slots__ = ("vertex_count", "edges", "labels", "_adj")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int, RationalLike, RationalLike]],
        labels: Optional[Sequence[Optional[str]]] = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        self.vertex_count = vertex_count
        built = []
        for u, v, length, cost in edges:
            length = as_fraction(length)
            cost = as_fraction(cost)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: ({u},{v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if length <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive length")
            if cost < 0:
                raise ValueError(f"edge ({u},{v}) has negative cost")
            built.append(Edge(u, v, length, cost))
        self.edges = tuple(built)
        if labels is None:
            self.labels = tuple([None] * vertex_count)
        else:
            if len(labels) != vertex_count:
                raise ValueError("labels length must equal vertex_count")
            self.labels = tuple(labels)
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for idx, e in enumerate(self.edges):
            adj[e.u].append(idx)
            adj[e.v].append(idx)
        self._adj = tuple(tuple(lst) for lst in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        """Indices of edges incident to v."""
        return self._adj[v]

    def total_cost(self, edge_subset: Iterable[int]) -> Fraction:
        """Sum of costs over a set of edge indices, each counted once."""
        total = Fraction(0)
        for idx in set(edge_subset):
            total += self.edges[idx].cost
        return total

    def has_unit_lengths(self) -> bool:
        return all(e.length == 1 for e in self.edges)

    def has_unit_costs(self) -> bool:
        return all(e.cost == 1 for e in self.edges)

    def has_integer_lengths(self) -> bool:
        return all(e.length.denominator == 1 for e in self.edges)


class DemandGraph:
    """The demand pairs, viewed as a graph H on terminal vertices.

    ``pairs`` is a tuple of unordered, distinct vertex pairs stored as
    (min, max) tuples in input order.  ``size`` is |H|, the edge count.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        seen = set()
        built = []
        for s, t in pairs:
            if s == t:
                raise ValueError(f"demand pair ({s},{t}) has equal endpoints")
            key = (min(s, t), max(s, t))
            if key in seen:
                raise ValueError(f"duplicate demand pair {key}")
            seen.add(key)
            built.append(key)
        self.pairs = tuple(built)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def vertices(self) -> set[int]:
        out: set[int] = set()
        for s, t in self.pairs:
            out.add(s)
            out.add(t)
        return out

    def degrees(self) -> dict[int, int]:
        deg: dict[int, int] = {}
        for s, t in self.pairs:
            deg[s] = deg.get(s, 0) + 1
            deg[t] = deg.get(t, 0) + 1
        return deg

    def star_root(self) -> Optional[int]:
        """Return a vertex incident to every demand pair, or None.

        A demand graph is a star exactly when such a vertex exists (a single
        pair is a star rooted at either endpoint; we pick the smaller id).
        """
        if not self.pairs:
            return None
        candidates = set(self.pairs[0])
        for s, t in self.pairs[1:]:
            candidates &= {s, t}
            if not candidates:
                return None
        return min(candidates)

    def is_star(self) -> bool:
        return self.star_root() is not None


class SlsnInstance:
    """A weighted graph together with a global distance bound and demands."""

    __slots__ = ("graph", "L", "demands")

    def __init__(self, graph: WeightedGraph, L: RationalLike, demands: DemandGraph):
        L = as_fraction(L)
        if L <= 0:
            raise ValueError("distance bound L must be positive")
        for s, t in demands.pairs:
            if not (0 <= s < graph.vertex_count and 0 <= t < graph.vertex_count):
                raise ValueError(f"demand endpoint out of range: ({s},{t})")
        self.graph = graph
        self.L = L
        self.demands = demands


@dataclass(frozen=True)
class Path:
    """A simple path: vertex sequence, supporting edge indices, totals.

    The empty path at a single vertex has one vertex, no edges, and zero
    length and cost.  Edge indices disambiguate parallel edges.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    length: Fraction
    cost: Fraction

    @staticmethod
    def from_edge_sequence(
        graph: WeightedGraph, vertices: Sequence[int], edges: Sequence[int]
    ) -> "Path":
        if len(vertices) != len(edges) + 1:
            raise ValueError("vertex/edge sequence lengths inconsistent")
        if len(set(vertices)) != len(vertices):
            raise ValueError("path repeats a vertex")
        length = Fraction(0)
        cost = Fraction(0)
        for pos, idx in enumerate(edges):
            e = graph.edges[idx]
            if {e.u, e.v} != {vertices[pos], vertices[pos + 1]}:
                raise ValueError(f"edge {idx} does not join consecutive vertices")
            length += e.length
            cost += e.cost
        return Path(tuple(vertices), tuple(edges), length, cost)

    @staticmethod
    def trivial(vertex: int) -> "Path":
        return Path((vertex,), (), Fraction(0), Fraction(0))


@dataclass(frozen=True)
class Solution:
    """An edge subset plus one witness path per demand.

    Invariant (checked by ``validate``): every witness path uses only edges
    in ``edge_subset``, has length at most L, and ``total_cost`` is the sum
    of the subset's edge costs with each edge counted once.
    """

    edge_subset: frozenset[int]
    witness_paths: tuple[Path, ...]
    total_cost: Fraction

    @staticmethod
    def build(
        instance: SlsnInstance, edge_subset: Iterable[int], witness_paths: Sequence[Path]
    ) -> "Solution":
        subset = frozenset(edge_subset)
        return Solution(subset, tuple(witness_paths), instance.graph.total_cost(subset))

    def validate(self, instance: SlsnInstance) -> None:
        if len(self.witness_paths) != instance.demands.size:
            raise ValueError("one witness path required per demand")
        for (s, t), path in zip(instance.demands.pairs, self.witness_paths):
            if {path.vertices[0], path.vertices[-1]} != {s, t} and not (
                len(path.vertices) == 1 and s == t
            ):
                raise ValueError(f"witness path does not join demand ({s},{t})")
            if path.length > instance.L:
                raise ValueError(f"witness path for ({s},{t}) exceeds L")
            for idx in path.edges:
                if idx not in self.edge_subset:
                    raise ValueError("witness path leaves the edge subset")
        if self.total_cost != instance.graph.total_cost(self.edge_subset):
            raise ValueError("total_cost inconsistent with edge subset")


@dataclass(frozen=True)
class DemandStatus:
    satisfied: bool
    length: Optional[Fraction]  # exact shortest length in subgraph, None if disconnected


@dataclass(frozen=True)
class FeasibilityReport:
    per_demand: tuple[DemandStatus, ...]

    @property
    def feasible(self) -> bool:
        return all(d.satisfied for d in self.per_demand)


def adjacency(
    graph: WeightedGraph, edge_subset: Iterable[int], weight
) -> list[list[tuple[int, int, object]]]:
    """Adjacency lists ``adj[v] = [(w, edge_idx, weight[edge_idx])]`` of a subgraph.

    Edges are listed in first-occurrence order of edge_subset (duplicates
    dropped); ``weight`` is indexed by edge index.
    """
    adj: list[list[tuple[int, int, object]]] = [[] for _ in range(graph.vertex_count)]
    for idx in dict.fromkeys(edge_subset):
        if not (0 <= idx < graph.edge_count):
            raise ValueError(f"invalid edge index {idx}")
        e = graph.edges[idx]
        adj[e.u].append((e.v, idx, weight[idx]))
        adj[e.v].append((e.u, idx, weight[idx]))
    return adj


def dijkstra(adj, seeds: dict, targets: Iterable[int] = ()) -> tuple[dict, dict]:
    """Exact multi-source Dijkstra over ``adj[v] = [(w, edge_idx, weight)]``.

    ``seeds`` maps start vertices to their initial distances.  Returns
    (settled distances, parent), where ``parent[v] = (u, edge_idx)`` is the
    last relaxation that improved v (final once v is settled).  Stops once every target is settled;
    with no targets, settles everything reachable.  Weights must be
    nonnegative and exact (ints or Fractions).  Ties are deterministic: the
    heap starts as sorted (distance, vertex) pairs and a relaxation only
    replaces a strictly larger tentative distance.
    """
    dist = dict(seeds)
    heap = sorted((d, v) for v, d in dist.items())
    settled: dict = {}
    parent: dict = {}
    pending = set(targets)
    while heap:
        d, v = heappop(heap)
        if v in settled:
            continue
        settled[v] = d
        if v in pending:
            pending.discard(v)
            if not pending:
                break
        for w, idx, weight in adj[v]:
            nd = d + weight
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                parent[w] = (v, idx)
                heappush(heap, (nd, w))
    return settled, parent


def _lengths(graph: WeightedGraph) -> list[Fraction]:
    return [e.length for e in graph.edges]


def shortest_length_in_subgraph(
    graph: WeightedGraph, edge_subset: Iterable[int], source: int, target: int
) -> Optional[Fraction]:
    """Exact Dijkstra over a subset of edges; None when disconnected."""
    adj = adjacency(graph, edge_subset, _lengths(graph))
    dist, _ = dijkstra(adj, {source: Fraction(0)}, (target,))
    return dist.get(target)


def _demand_searches(instance: SlsnInstance, adj) -> list[tuple[int, int, dict, dict]]:
    """Per demand: (search source, other endpoint, distances, parents).

    One Dijkstra runs per distinct source.  A star is searched from its
    root, so it needs one run; other demands are searched from s.
    """
    root = instance.demands.star_root()
    ends = [(t, s) if t == root else (s, t) for s, t in instance.demands.pairs]
    targets: dict[int, list[int]] = {}
    for src, dst in ends:
        targets.setdefault(src, []).append(dst)
    runs = {src: dijkstra(adj, {src: 0}, dsts) for src, dsts in targets.items()}
    return [(src, dst, *runs[src]) for src, dst in ends]


def feasibility_check(instance: SlsnInstance, edge_subset: Iterable[int]) -> FeasibilityReport:
    """Per-demand exact feasibility within the subgraph induced by edge_subset.

    Demand i is satisfied iff the subgraph contains an s_i-t_i path of length
    at most L; each reported length is the exact shortest-path length in the
    subgraph (None when disconnected).
    """
    adj = adjacency(instance.graph, edge_subset, _lengths(instance.graph))
    statuses = []
    for _, dst, dist, _ in _demand_searches(instance, adj):
        length = dist.get(dst)
        statuses.append(DemandStatus(length is not None and length <= instance.L, length))
    return FeasibilityReport(tuple(statuses))


def hop_bounded_path(
    graph: WeightedGraph, u: int, v: int, hop_bound: int, weight: Sequence
) -> Optional[Path]:
    """Minimum-weight u-v path with at most hop_bound edges, or None.

    Bellman-Ford over hop counts with nonnegative exact weights indexed by
    edge.  Deterministic: edges are relaxed in index order and only strict
    improvements are kept, so parent chains can never revisit a vertex.
    The bound is clamped to n-1, the most edges a simple path can have.
    """
    n = graph.vertex_count
    hop_bound = min(hop_bound, max(n - 1, 0))
    # levels[h][w] = min weight over u-w walks with at most h edges
    levels: list[list[Optional[Fraction]]] = [[None] * n]
    levels[0][u] = Fraction(0)
    parent: dict[tuple[int, int], tuple[int, int]] = {}  # (h, w) -> (prev, edge)
    for h in range(1, hop_bound + 1):
        prev = levels[-1]
        cur = list(prev)
        for idx, e in enumerate(graph.edges):
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if prev[a] is not None:
                    nw = prev[a] + weight[idx]
                    if cur[b] is None or nw < cur[b]:
                        cur[b] = nw
                        parent[(h, b)] = (a, idx)
        if cur == prev:
            break
        levels.append(cur)
    if levels[-1][v] is None:
        return None
    # Walk back through levels: a missing parent entry means the value was
    # carried over from the previous level unchanged.
    h = len(levels) - 1
    w = v
    vertices = [v]
    edge_seq: list[int] = []
    while h > 0:
        if (h, w) in parent and levels[h][w] != levels[h - 1][w]:
            a, idx = parent[(h, w)]
            edge_seq.append(idx)
            vertices.append(a)
            w = a
        h -= 1
    vertices.reverse()
    edge_seq.reverse()
    return Path.from_edge_sequence(graph, vertices, edge_seq)


def restricted_min_cost_path(
    graph: WeightedGraph, u: int, v: int, hop_bound: int
) -> Optional[Path]:
    """Minimum-cost u-v path with at most hop_bound edges (unit lengths only).

    Requires every edge length to equal 1; raises ValueError otherwise.
    Returns None when no such path exists.  See ``hop_bounded_path``.
    """
    if not graph.has_unit_lengths():
        raise ValueError("restricted_min_cost_path requires unit edge lengths")
    if hop_bound < 0:
        raise ValueError("hop_bound must be nonnegative")
    return hop_bounded_path(graph, u, v, hop_bound, [e.cost for e in graph.edges])


class CostMode(enum.Enum):
    """How hop expansion assigns cost to the unit edges replacing an edge."""

    UNIT_PER_HOP = "unit-per-hop"
    DIVIDE_EQUALLY = "divide-equally"


@dataclass(frozen=True)
class ExpansionResult:
    graph: WeightedGraph
    vertex_map: tuple[int, ...]  # original vertex id -> expanded vertex id
    edge_map: tuple[tuple[int, ...], ...]  # original edge idx -> expanded edge indices


def expand_to_unit(graph: WeightedGraph, cost_mode: CostMode) -> ExpansionResult:
    """Replace each integer-length edge by a unit-length hop path.

    An edge of length k becomes a path of k unit-length edges through k-1
    fresh interior vertices.  UNIT_PER_HOP gives every hop cost 1;
    DIVIDE_EQUALLY splits the original cost evenly across hops.  Interior
    vertices are labeled "<u>~<v>#<hop>" from the endpoint labels.
    """
    if not graph.has_integer_lengths():
        raise ValueError("expand_to_unit requires positive integer edge lengths")
    labels: list[Optional[str]] = list(graph.labels)
    edges: list[tuple[int, int, Fraction, Fraction]] = []
    edge_map: list[tuple[int, ...]] = []
    next_vertex = graph.vertex_count

    def _lab(v: int) -> str:
        lab = graph.labels[v]
        return lab if lab is not None else str(v)

    for e in graph.edges:
        k = int(e.length)
        hop_cost = Fraction(1) if cost_mode is CostMode.UNIT_PER_HOP else e.cost / k
        chain = [e.u]
        for h in range(1, k):
            labels.append(f"{_lab(e.u)}~{_lab(e.v)}#{h}")
            chain.append(next_vertex)
            next_vertex += 1
        chain.append(e.v)
        ids = []
        for a, b in zip(chain, chain[1:]):
            ids.append(len(edges))
            edges.append((a, b, Fraction(1), hop_cost))
        edge_map.append(tuple(ids))
    expanded = WeightedGraph(next_vertex, edges, labels)
    return ExpansionResult(expanded, tuple(range(graph.vertex_count)), tuple(edge_map))


def canonical_path_assignment(
    instance: SlsnInstance, edge_subset: Iterable[int]
) -> list[Path]:
    """Assign one simple path per demand so that overlaps are consistent.

    For every pair of returned paths and every two vertices they share, the
    subpaths between those vertices coincide.  This is achieved by making
    shortest paths unique: candidate paths are compared by total length and
    then by an additive per-edge tie-break weight of 2^-(index+1), which
    orders any two distinct edge sets differently.  Both keys are folded
    into one exact integer per edge: with D the common denominator of the
    subset's lengths, b = |subset| and r the edge's rank in the sorted
    subset, the weight is (length * D << b) + 2^(b-1-r).  The tie bits of a
    simple path sum to less than 2^b, so integer order is the (length,
    tie-break) order.  The unique "shortest" path is found with Dijkstra.

    Raises ValueError when edge_subset is not feasible.
    """
    subset = set(edge_subset)
    report = feasibility_check(instance, subset)
    if not report.feasible:
        raise ValueError("canonical_path_assignment requires a feasible edge subset")
    graph = instance.graph
    ranked = sorted(subset)
    lengths = as_integers([graph.edges[idx].length for idx in ranked])
    b = len(ranked)
    weight = {
        idx: (length << b) + (1 << (b - 1 - rank))
        for rank, (idx, length) in enumerate(zip(ranked, lengths))
    }
    paths = []
    for src, dst, _, parent in _demand_searches(instance, adjacency(graph, subset, weight)):
        vertices = [dst]
        edge_seq = []
        w = dst
        while w != src:
            a, idx = parent[w]
            vertices.append(a)
            edge_seq.append(idx)
            w = a
        if src < dst:  # pairs are stored as (s, t) with s < t; paths run s to t
            vertices.reverse()
            edge_seq.reverse()
        paths.append(Path.from_edge_sequence(graph, vertices, edge_seq))
    return paths
