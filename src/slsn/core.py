"""Graph, instance and solution data model for shallow-light Steiner networks.

Everything here is exact: edge lengths, edge costs and the global distance
bound L are `fractions.Fraction` values, so feasibility and optimality
comparisons never go through floating point.  Every search, here and in
the solvers, adds and compares only each graph's integer view (lengths and
costs as ints over graph-wide common denominators) and the instance's
``length_cap``, L on that view; Fractions appear only in what it returns.
Shortest paths have one kernel here, ``dijkstra``; hop-bounded paths are
star_dst's label DP (``star_dst.hop_bounded_path``), which
``restricted_min_cost_path`` reads.  ``feasibility_check`` and
``canonical_path_assignment`` run it per demand source on the edge subset
series-reduced once per call (``_series_reduce``): every chain of degree-2
vertices that are not demand endpoints becomes one arc, exact because
weights are positive and add along a chain.  Hop-expanded gadget
witnesses are mostly such chains.

Design notes:
  - Graphs are undirected multigraphs.  Parallel edges are kept as-is; all
    shortest-path routines consider every parallel edge.  Edge indices are
    dense 0..m-1 and stable, and they are the currency used everywhere else
    (solutions are sets of edge indices).
  - All types are immutable after construction and every operation is a pure
    function, so instances can be shared freely across threads.  (A
    DemandGraph builds its search plan on first use; two threads that race
    to build it build the same one.)
  - Vertices may carry optional string labels.  The gadget generators use
    them to keep generated instances auditable; the solvers ignore them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction.

    Raises TypeError for anything else, bools included: a JSON ``true``
    is not the number 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if value.isascii() and value.isdigit():
            return Fraction(int(value))  # the common case, without Fraction's parser
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


def _scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(ints, D): exact rationals times their least common denominator D,
    which compare and add like the rationals they stand for."""
    ratios = [x.as_integer_ratio() for x in values]
    denom = math.lcm(*(d for _, d in ratios))
    return tuple([num * (denom // d) for num, d in ratios]), denom


class Edge(NamedTuple):
    """One undirected edge with exact positive length and nonnegative cost.

    An immutable, hashable named tuple: graphs build one per edge, so it
    must be cheap to create.
    """

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
    the position of each edge in the ``edges`` tuple.  Each distinct string
    token among the lengths and costs is converted to a Fraction once; every
    edge is still checked.

    The integer view is fixed at construction: ``int_lengths[i]`` is edge
    i's length times ``length_denominator``, the lcm of all length
    denominators, and ``int_costs`` and ``cost_denominator`` likewise.
    Code that builds its own edges and knows their integer view (see
    ``expand_to_unit``) skips the checks through ``_from_checked``.
    """

    __slots__ = ("vertex_count", "edges", "labels", "int_lengths",
                 "length_denominator", "int_costs", "cost_denominator")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int, RationalLike, RationalLike]],
        labels: Optional[Sequence[Optional[str]]] = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        self.vertex_count = vertex_count
        tokens: dict[str, Fraction] = {}

        def fraction(value: RationalLike) -> Fraction:
            if type(value) is str:
                frac = tokens.get(value)
                if frac is None:
                    frac = tokens[value] = as_fraction(value)
                return frac
            return as_fraction(value)

        built = []
        for u, v, length, cost in edges:
            length = fraction(length)
            cost = fraction(cost)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: ({u},{v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if length.numerator <= 0:  # a Fraction's sign is its numerator's
                raise ValueError(f"edge ({u},{v}) has non-positive length")
            if cost.numerator < 0:
                raise ValueError(f"edge ({u},{v}) has negative cost")
            built.append(Edge(u, v, length, cost))
        self.edges = tuple(built)
        if labels is None:
            self.labels = tuple([None] * vertex_count)
        else:
            if len(labels) != vertex_count:
                raise ValueError("labels length must equal vertex_count")
            self.labels = tuple(labels)
        self.int_lengths, self.length_denominator = _scaled([e.length for e in self.edges])
        self.int_costs, self.cost_denominator = _scaled([e.cost for e in self.edges])

    @classmethod
    def _from_checked(
        cls,
        vertex_count: int,
        edges: tuple[Edge, ...],
        labels: tuple[Optional[str], ...],
        length_view: tuple[tuple[int, ...], int],
        cost_view: tuple[tuple[int, ...], int],
    ) -> "WeightedGraph":
        """The graph the constructor would build, with nothing checked.

        The caller guarantees the constructor's invariants for ``edges``,
        one label per vertex, and that each view is what ``_scaled`` gives
        for the edges' lengths and costs: (ints, common denominator).
        """
        graph = cls.__new__(cls)
        graph.vertex_count, graph.edges, graph.labels = vertex_count, edges, labels
        graph.int_lengths, graph.length_denominator = length_view
        graph.int_costs, graph.cost_denominator = cost_view
        return graph

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def total_cost(self, edge_subset: Iterable[int]) -> Fraction:
        """Sum of costs over a set of edge indices, each counted once."""
        costs = self.int_costs
        return Fraction(sum(costs[idx] for idx in set(edge_subset)), self.cost_denominator)

    def has_unit_lengths(self) -> bool:
        return all(e.length == 1 for e in self.edges)

    def has_unit_costs(self) -> bool:
        return all(e.cost == 1 for e in self.edges)

    def has_integer_lengths(self) -> bool:
        return self.length_denominator == 1


class DemandGraph:
    """The demand pairs, viewed as a graph H on terminal vertices.

    ``pairs`` is a tuple of unordered, distinct vertex pairs stored as
    (min, max) tuples in input order.  ``size`` is |H|, the edge count.
    """

    __slots__ = ("pairs", "_plan")

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
        self._plan = None

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

    def _search_plan(self):
        """(ends, targets, endpoints) for ``_demand_searches``, built once.

        ``ends[i]`` is demand i as (search source, other endpoint): a star
        is searched from its root, other demands from s.  ``targets`` maps
        each distinct source to its other endpoints, and ``endpoints`` holds
        every demand vertex.  The pairs never change, so neither does this.
        """
        if self._plan is None:
            root = self.star_root()
            ends = tuple((t, s) if t == root else (s, t) for s, t in self.pairs)
            targets: dict[int, list[int]] = {}
            for src, dst in ends:
                targets.setdefault(src, []).append(dst)
            self._plan = ends, targets, frozenset().union(*self.pairs)
        return self._plan


class SlsnInstance:
    """A weighted graph together with a global distance bound and demands.

    ``length_cap`` is floor(L * D), D the graph's ``length_denominator``:
    an integer length d over D is within L exactly when d <= length_cap.
    """

    __slots__ = ("graph", "L", "demands", "length_cap")

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
        self.length_cap = L.numerator * graph.length_denominator // L.denominator


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
        for pos, idx in enumerate(edges):
            e = graph.edges[idx]
            if {e.u, e.v} != {vertices[pos], vertices[pos + 1]}:
                raise ValueError(f"edge {idx} does not join consecutive vertices")
        length = Fraction(sum(graph.int_lengths[idx] for idx in edges), graph.length_denominator)
        cost = Fraction(sum(graph.int_costs[idx] for idx in edges), graph.cost_denominator)
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
        instance: SlsnInstance,
        edge_subset: Iterable[int],
        witness_paths: Optional[Sequence[Path]] = None,
    ) -> "Solution":
        """The Solution on edge_subset; witness paths default to the
        canonical ones, which requires a feasible subset."""
        subset = frozenset(edge_subset)
        if witness_paths is None:
            witness_paths = canonical_path_assignment(instance, subset)
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
    m = graph.edge_count
    for idx in dict.fromkeys(edge_subset):
        if not (0 <= idx < m):
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


def shortest_length_in_subgraph(
    graph: WeightedGraph, edge_subset: Iterable[int], source: int, target: int
) -> Optional[Fraction]:
    """Exact Dijkstra over a subset of edges; None when disconnected."""
    adj = adjacency(graph, edge_subset, graph.int_lengths)
    dist, _ = dijkstra(adj, {source: 0}, (target,))
    d = dist.get(target)
    return None if d is None else Fraction(d, graph.length_denominator)


def _series_reduce(adj, kept) -> None:
    """Series-reduce ``adj``, fresh from ``adjacency``, in place.

    A vertex is kept when it is in ``kept`` or its degree is not 2.  A
    chain is a maximal path whose inner vertices are not kept.  Each chain
    becomes one arc per direction, ``(far end, edge entering it, summed
    weight)``, put in place of its first edge's entry at either end; a
    single edge is its own chain, so its entries stay as they are.  Inner
    vertices keep their two entries, by which ``canonical_path_assignment``
    walks an arc back to its hops.  Chains are found from their inner
    vertices, which ``list.index`` picks out of the degree list, and each is
    walked once, from the first of its ends met; a walked vertex's degree
    is set to 0, so the scan passes over it.  A chain that comes back
    to its own start becomes a self-arc, which no search ever relaxes; a
    cycle of inner vertices alone is left as it is, out of every kept
    vertex's reach.
    """
    n = len(adj)
    degree = list(map(len, adj))
    degree.append(2)  # a sentinel, so the scan for degree 2 ends at n
    v = -1
    while True:
        v = degree.index(2, v + 1)
        if v == n:
            return
        if v in kept:
            continue
        for w, first, _ in adj[v]:
            if degree[w] != 2 or w in kept:
                break
        else:
            continue  # both neighbours inner: the chain's ends reduce it
        out = adj[w]
        for pos, (x, idx, weight) in enumerate(out):  # unwalked, so w still lists first
            if idx == first:
                break
        while degree[x] == 2 and x not in kept:
            degree[x] = 0  # walked, so the scan skips it
            (y, i, step), (z, j, other) = adj[x]
            if i == idx:  # leave by the edge we did not come in on
                y, i, step = z, j, other
            x, idx, weight = y, i, weight + step
        out[pos] = (x, idx, weight)
        back = adj[x]
        for q, entry in enumerate(back):
            if entry[1] == idx:
                back[q] = (w, first, weight)
                break


def _demand_searches(instance: SlsnInstance, adj) -> list[tuple[int, int, dict, dict]]:
    """Per demand: (search source, other endpoint, distances, parents).

    ``adj`` is series-reduced first, in place (``_series_reduce``), with
    every demand endpoint kept, so the searches settle kept vertices only
    and a parent ``(u, idx)`` is a reduced arc from u that enters its
    vertex by edge idx.  The reduction is exact: weights are positive, so
    shortest paths are simple; a simple path between kept vertices enters
    a chain only to run through all of it; and weights add along a chain.
    One Dijkstra runs per distinct source.  A star is searched from its
    root, so it needs one run; other demands are searched from s.
    """
    ends, targets, endpoints = instance.demands._search_plan()
    _series_reduce(adj, endpoints)
    runs = {src: dijkstra(adj, {src: 0}, dsts) for src, dsts in targets.items()}
    return [(src, dst, *runs[src]) for src, dst in ends]


def feasibility_check(instance: SlsnInstance, edge_subset: Iterable[int]) -> FeasibilityReport:
    """Per-demand exact feasibility within the subgraph induced by edge_subset.

    Demand i is satisfied iff the subgraph contains an s_i-t_i path of length
    at most L; each reported length is the exact shortest-path length in the
    subgraph (None when disconnected).  The search runs on the graph's
    integer lengths and compares them with ``instance.length_cap``.  One
    Dijkstra runs per distinct source, on the subgraph series-reduced with
    the demand endpoints kept (``_demand_searches``): each chain of degree-2
    vertices is one arc weighted by its summed length, and since lengths
    are positive a shortest path between kept vertices crosses a chain
    whole, so every reported length is the unreduced subgraph's.
    """
    graph = instance.graph
    adj = adjacency(graph, edge_subset, graph.int_lengths)
    D, cap = graph.length_denominator, instance.length_cap
    statuses = []
    for _, dst, dist, _ in _demand_searches(instance, adj):
        d = dist.get(dst)
        length = None if d is None else Fraction(d, D)
        statuses.append(DemandStatus(d is not None and d <= cap, length))
    return FeasibilityReport(tuple(statuses))


def restricted_min_cost_path(
    graph: WeightedGraph, u: int, v: int, hop_bound: int
) -> Optional[Path]:
    """Minimum-cost u-v path with at most hop_bound edges (unit lengths only).

    Requires every edge length to equal 1; raises ValueError otherwise.
    Returns None when no such path exists.  See ``star_dst.hop_bounded_path``,
    imported here since star_dst imports this module.
    """
    from .star_dst import hop_bounded_path

    if not graph.has_unit_lengths():
        raise ValueError("restricted_min_cost_path requires unit edge lengths")
    if hop_bound < 0:
        raise ValueError("hop_bound must be nonnegative")
    return hop_bounded_path(graph, u, v, hop_bound, graph.int_costs)


@dataclass(frozen=True)
class ExpansionResult:
    graph: WeightedGraph
    edge_map: tuple[tuple[int, ...], ...]  # original edge idx -> expanded edge indices


def expand_to_unit(graph: WeightedGraph) -> ExpansionResult:
    """Replace each integer-length edge by a unit-length hop path.

    An edge of length k becomes a path of k unit-length edges through k-1
    fresh interior vertices, numbered after the original vertices, whose
    ids are kept.  Each hop costs 1/k of the edge's cost, so every path
    keeps its cost.  Interior vertices are labeled "<u>~<v>#<hop>" from the
    endpoint labels.  The hops are valid by construction, so the expanded
    graph is built unchecked (``WeightedGraph._from_checked``): every hop
    shares one Fraction(1) length and a length view of all 1s, and each
    distinct (integer cost, k) pair divides its cost once.  The result
    equals the public constructor's over the same hop tuples.
    """
    if not graph.has_integer_lengths():
        raise ValueError("expand_to_unit requires positive integer edge lengths")
    labels: list[Optional[str]] = list(graph.labels)
    edges: list[Edge] = []
    edge_map: list[tuple[int, ...]] = []
    next_vertex = graph.vertex_count
    one = Fraction(1)
    hop_costs: dict[tuple[int, int], Fraction] = {}

    def _lab(v: int) -> str:
        lab = graph.labels[v]
        return lab if lab is not None else str(v)

    # with length denominator 1, int_lengths holds each edge's hop count k
    for e, k, int_cost in zip(graph.edges, graph.int_lengths, graph.int_costs):
        hop_cost = hop_costs.get((int_cost, k))
        if hop_cost is None:
            hop_cost = hop_costs[(int_cost, k)] = e.cost / k
        stem = f"{_lab(e.u)}~{_lab(e.v)}#"
        labels.extend(f"{stem}{h}" for h in range(1, k))
        chain = [e.u, *range(next_vertex, next_vertex + k - 1), e.v]
        next_vertex += k - 1
        first = len(edges)
        edges.extend(Edge(a, b, one, hop_cost) for a, b in zip(chain, chain[1:]))
        edge_map.append(tuple(range(first, len(edges))))
    expanded = WeightedGraph._from_checked(
        next_vertex, tuple(edges), tuple(labels),
        ((1,) * len(edges), 1), _scaled([e.cost for e in edges]),
    )
    return ExpansionResult(expanded, tuple(edge_map))


def canonical_path_assignment(
    instance: SlsnInstance, edge_subset: Iterable[int]
) -> list[Path]:
    """Assign one simple path per demand so that overlaps are consistent.

    For every pair of returned paths and every two vertices they share, the
    subpaths between those vertices coincide.  This is achieved by making
    shortest paths unique: candidate paths are compared by total length and
    then by an additive per-edge tie-break weight of 2^-(index+1), which
    orders any two distinct edge sets differently.  Both keys are folded
    into one exact integer per edge: with the graph's integer lengths over
    its graph-wide denominator, b = |subset| and r the edge's rank in the
    sorted subset, the weight is (length << b) + 2^(b-1-r).  The tie bits
    of a simple path sum to less than 2^b, so integer order is the (length,
    tie-break) order and key >> b is the shortest length, which decides
    feasibility.  One Dijkstra runs per distinct source, on the subgraph
    series-reduced with the demand endpoints kept (``_demand_searches``):
    each chain of degree-2 vertices is one arc whose key is the sum of its
    edges' keys.  The keys are positive and additive, so the unique least
    key path between kept vertices crosses each chain it uses whole, and
    expanding its arcs back into their hops gives the unreduced search's
    path.

    Raises ValueError when edge_subset is not feasible or holds an index
    outside 0..m-1.
    """
    graph = instance.graph
    ranked = sorted(set(edge_subset))
    if ranked and (ranked[0] < 0 or ranked[-1] >= graph.edge_count):
        raise ValueError("invalid edge index in edge_subset")
    b, lengths = len(ranked), graph.int_lengths
    weight = {idx: (lengths[idx] << b) + (1 << (b - 1 - rank)) for rank, idx in enumerate(ranked)}
    adj = adjacency(graph, ranked, weight)
    edges = graph.edges
    paths = []
    for src, dst, dist, parent in _demand_searches(instance, adj):
        if dst not in dist or dist[dst] >> b > instance.length_cap:
            raise ValueError("canonical_path_assignment requires a feasible edge subset")
        vertices = [dst]
        edge_seq = []
        w = dst
        while w != src:
            a, idx = parent[w]
            while True:  # back along the reduced arc a -> w, which enters w by idx
                w = edges[idx].other(w)
                vertices.append(w)
                edge_seq.append(idx)
                if w == a:
                    break
                (_, i, _), (_, j, _) = adj[w]  # an inner vertex: leave by its other edge
                idx = j if i == idx else i
        if src < dst:  # pairs are stored as (s, t) with s < t; paths run s to t
            vertices.reverse()
            edge_seq.reverse()
        paths.append(Path.from_edge_sequence(graph, vertices, edge_seq))
    return paths
