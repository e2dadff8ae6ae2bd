"""Approximation suite for arbitrary lengths and costs.

Four pieces, used together:
  - opt_low: the smallest edge cost C whose cost-threshold subgraph is
    feasible.  C brackets the optimum: C <= OPT <= n^2 C.
  - min_dist: scaled-cost dynamic program.  Costs are rescaled to integers
    ceil(n*c(e)/(eps*C)), and per vertex only the Pareto labels
    (scaled cost, length) of walks from s are kept, up to the budget
    floor(n/eps): a level is kept only where the length falls below that
    of every cheaper level.  The last label of t, the shortest at the
    least scaled cost, is returned.  If any s-t path has cost at most
    (1-2*eps)*C and length D, the returned path costs at most C and is no
    longer than D.  An edge scaled above the budget is never relaxed, so
    the labels only depend on the costs clamped to budget + 1:
    approx_const builds one table per distinct clamped vector, and most
    exponents of its grid clamp every edge.
  - approx_const: the constant-demand FPTAS.  It runs the exact solvers'
    chain search (exact_const._solve_by_chains), but each guessed subpath
    carries a guessed cost scale (1+eps')^{c'} * C rather than a hop
    budget, resolved through min_dist.  eps' = eps/4 internally, so the
    overall ratio is (1+eps); feasibility is never relaxed.
  - approx_star: the star (1+eps) solver.  A Dreyfus-Wagner style program
    over (root vertex, terminal subset) computes, per scaled-cost budget,
    the smallest achievable tree height; the cheapest budget whose height
    meets L is taken.  It is the star DP that the exact star solver also
    runs (star_dst.star_frontiers), here on scaled costs with a cost cap:
    per (vertex, subset) a Pareto frontier of (height, scaled cost) labels,
    which is exactly the height table read along its steps.

All arithmetic is exact, and every search reads only the graph's integer
view.  Lengths and tree heights are ints over the graph's length
denominator, held against the instance's length_cap; opt_low, the scaled
costs and the exponent grid read the ints over the cost denominator.
Fractions appear only in what is returned: paths, solutions, CostBounds.C
and HeightTable.query.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
    dijkstra,
    feasibility_check,
)
from .exact_const import _solve_by_chains, length_distances
from .star_dst import Label, star_frontiers, star_terminals, tree_edges


@dataclass(frozen=True)
class CostBounds:
    """OptLow output: C <= OPT <= n^2 * C, and C is some edge's cost."""

    C: Fraction


# Default of the solvers' ``bounds`` keyword: run opt_low on the instance.
_RUN_OPT_LOW = object()


def opt_low(instance: SlsnInstance) -> Optional[CostBounds]:
    """Smallest edge cost whose cost-threshold subgraph is feasible.

    Edges are scanned by increasing cost; the first threshold whose
    subgraph passes the feasibility check is returned.  None when even the
    full graph is infeasible, or has no edges.
    """
    graph = instance.graph
    costs = graph.int_costs
    for c in sorted(set(costs)):
        subset = [i for i, ci in enumerate(costs) if ci <= c]
        if feasibility_check(instance, subset).feasible:
            return CostBounds(Fraction(c, graph.cost_denominator))
    return None


def _zero_cost_edges(graph: WeightedGraph) -> set[int]:
    """The edges of cost 0: the subgraph opt_low tests when it returns C = 0."""
    return {idx for idx, c in enumerate(graph.int_costs) if c == 0}


def _ceil_log(base: Fraction, x: Fraction) -> int:
    """Smallest nonnegative integer c with base^c >= x (base > 1)."""
    if base <= 1:
        raise ValueError("base must exceed 1")
    c = 0
    power = Fraction(1)
    while power < x:
        power *= base
        c += 1
    return c


@dataclass(frozen=True)
class ScaledCosts:
    """Per-edge integers ceil(n*c(e)/(eps*C)) with their scale parameters."""

    values: tuple[int, ...]
    eps: Fraction
    C: Fraction
    n: int

    @staticmethod
    def compute(graph: WeightedGraph, eps: Fraction, C: Fraction) -> "ScaledCosts":
        if eps <= 0 or C <= 0:
            raise ValueError("eps and C must be positive")
        n = graph.vertex_count
        # n * (c / D) / (eps * C) = c * num / den, for each integer cost c over D
        scale = Fraction(n) / (eps * C * graph.cost_denominator)
        num, den = scale.numerator, scale.denominator
        values = tuple(-(-c * num // den) for c in graph.int_costs)
        return ScaledCosts(values, eps, C, n)


class _MinDistTable:
    """Pareto labels of the scaled-cost DP from source.

    Let d(v, i) be the least length of an s-v walk of exact scaled cost i.
    Per vertex, labels keeps (i, d(v, i)) only for the levels i at which
    d(v, i) falls below d(v, j) for every j < i, so lengths strictly fall
    as levels rise and the last label is best().  A dropped entry can be
    neither best() nor on the parent chain path() walks: if a predecessor
    (i - c, a) of (i, w) is no shorter than some (j, a) with j < i - c,
    then level j + c already reaches w at no greater length.

    Levels are settled in increasing order from a heap of the pending
    ones, so an empty level costs nothing.  At each level a vertex takes
    its least-length candidate, ties going to the lowest arc position,
    scaled costs of zero (possible when an edge costs 0) are relaxed to a
    fixpoint, and a candidate is kept only if it is shorter than the
    vertex's last label.  Positive lengths make the fixpoint terminate and
    the kept walks simple.

    An edge whose scaled cost exceeds the budget is never relaxed, so
    replacing every such value by budget + 1 leaves the labels, best() and
    path() unchanged: the (n-1)*max_c cap on levels stays at or above the
    budget either way.  Cost vectors that agree once clamped therefore
    share one table.  Lengths are the graph's integer lengths; arcs comes
    from arcs(), which the tables of all sources for one vector share.
    """

    @staticmethod
    def arcs(graph: WeightedGraph, scaled: tuple[int, ...], budget: int) -> tuple:
        """(level cap, zero-cost arcs, sorted positive arcs per vertex)."""
        n = graph.vertex_count
        # No simple path carries exact scaled cost above (n-1)*max_c.
        budget = min(budget, max(n - 1, 0) * max(scaled, default=0))
        zero_arcs: list[tuple[int, int, int]] = []
        out: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        for idx, e in enumerate(graph.edges):
            for pos, (a, b) in ((2 * idx, (e.u, e.v)), (2 * idx + 1, (e.v, e.u))):
                if scaled[idx] == 0:
                    zero_arcs.append((a, b, idx))
                elif scaled[idx] <= budget:
                    out[a].append((scaled[idx], pos, b, idx))
        for row in out:
            row.sort()
        return budget, zero_arcs, out

    def __init__(self, graph: WeightedGraph, source: int, arcs: tuple):
        self.graph = graph
        self.source = source
        lengths = graph.int_lengths
        budget, zero_arcs, out = arcs
        self.labels: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
        self.parent: dict[tuple[int, int], Optional[tuple[int, int, int]]] = {}
        # pending[i][w]: the best candidate so far for (i, w), as
        # (length, arc position, parent); levels is the heap of pending levels
        pending: dict[int, dict[int, tuple]] = {0: {source: (0, -1, None)}}
        levels = [0]
        while levels:
            i = heapq.heappop(levels)
            cands = pending.pop(i)
            row = {w: cand[0] for w, cand in cands.items()}
            via = {w: cand[2] for w, cand in cands.items()}
            # zero scaled-cost edges stay within the level
            changed = bool(zero_arcs)
            while changed:
                changed = False
                for a, b, idx in zero_arcs:
                    if a in row:
                        nl = row[a] + lengths[idx]
                        if b not in row or nl < row[b]:
                            row[b] = nl
                            via[b] = (a, idx, i)
                            changed = True
            for a, length in row.items():
                kept = self.labels[a]
                if kept and length >= kept[-1][1]:
                    continue  # a lower level reaches a at no greater length
                kept.append((i, length))
                self.parent[(i, a)] = via[a]
                for c, pos, w, idx in out[a]:
                    j = i + c
                    if j > budget:
                        break
                    cand = (length + lengths[idx], pos, (a, idx, i))
                    slot = pending.get(j)
                    if slot is None:
                        slot = pending[j] = {}
                        heapq.heappush(levels, j)
                    if w not in slot or cand < slot[w]:
                        slot[w] = cand

    def best(self, target: int) -> Optional[tuple[int, int]]:
        """(level, scaled integer length) minimizing length, or None."""
        kept = self.labels[target]
        return kept[-1] if kept else None

    def walk(self, target: int) -> Optional[tuple[list[int], list[int]]]:
        """Vertices and edge indices of path(target), from the source."""
        got = self.best(target)
        if got is None:
            return None
        i, _ = got
        vertices = [target]
        edge_seq: list[int] = []
        w = target
        while w != self.source or i != 0:
            a, idx, i = self.parent[(i, w)]
            edge_seq.append(idx)
            vertices.append(a)
            w = a
        vertices.reverse()
        edge_seq.reverse()
        return vertices, edge_seq

    def path(self, target: int) -> Optional[Path]:
        got = self.walk(target)
        if got is None:
            return None
        return Path.from_edge_sequence(self.graph, *got)


def min_dist(
    graph: WeightedGraph, s: int, t: int, eps: Fraction, C: Fraction
) -> Optional[Path]:
    """Scaled-cost shortest path: cost at most C, length within the best
    achievable by any path of cost at most (1-2*eps)*C.

    eps must lie in (0, 1/2); C must be positive.
    """
    eps = Fraction(eps)
    C = Fraction(C)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    if C <= 0:
        raise ValueError("C must be positive")
    scaled = ScaledCosts.compute(graph, eps, C)
    budget = graph.vertex_count * eps.denominator // eps.numerator
    return _MinDistTable(graph, s, _MinDistTable.arcs(graph, scaled.values, budget)).path(t)


# ---------------------------------------------------------------------------
# constant-demand FPTAS


def _exponent_range(n: int, eps: Fraction) -> tuple[int, int]:
    """Guess range for cost exponents c'.

    The range bottoms out at -ceil(2 log_{1+eps}(n^2/eps)), wider than the
    printed -ceil(2 log_{1+eps} n), since the guessed value in the
    correctness argument can reach the former.  The top is
    ceil(2 log_{1+eps} n) + 3, widened (when eps approaches its upper
    limit) to the value the cover argument needs, ceil of
    log_{1+eps}(n^2 / (1-2*eps)).
    """
    base = 1 + eps
    hi = max(
        _ceil_log(base, Fraction(n) * n) + 3,
        _ceil_log(base, Fraction(n) * n / (1 - 2 * eps)),
    )
    lo = -_ceil_log(base, (Fraction(n) * n / eps) ** 2)
    return lo, hi


def approx_const(
    instance: SlsnInstance, eps: Fraction, bounds: Optional[CostBounds] = _RUN_OPT_LOW
) -> Optional[Solution]:
    """(1+eps)-approximation for a constant number of demands.

    Feasibility is exact; only cost is approximate.  Internally runs with
    eps/4 (the analysis of the guessed-scale iteration loses a factor
    (1+4*eps')).  The exact solvers' chain search: per demand, a sequence
    of junction vertices; per consecutive pair, one of the distinct paths
    min_dist finds over the guessed cost scales.  Guesses sharing a pair
    must agree on its path.  Every candidate union is feasibility-checked
    exactly, so the output is always feasible and costs at most (1+eps)OPT.
    When zero-cost edges alone are feasible (C = 0) they are returned.
    bounds, when given, is opt_low(instance) computed by the caller.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if instance.demands.size < 1:
        raise ValueError("at least one demand required")
    graph = instance.graph
    if bounds is _RUN_OPT_LOW:
        bounds = opt_low(instance)
    if bounds is None:
        return None
    if bounds.C == 0:
        return Solution.build(instance, _zero_cost_edges(graph))  # feasible at cost 0
    eps_i = eps / 4
    n = graph.vertex_count
    lo, hi = _exponent_range(n, eps_i)
    budget = n * eps_i.denominator // eps_i.numerator

    # Distinct scaled-cost vectors over the exponent grid, clamped to
    # budget + 1 (see _MinDistTable); each vector is solved once per
    # source, and per pair the distinct resulting paths become that pair's
    # options.  Exponent c' scales an integer cost c over D to
    # ceil(c * num / den), num / den = n / (eps' (1+eps')^c' C D), so each
    # step divides num / den by 1+eps' = (a+b)/b.  The factor falls as the
    # exponent rises: while even the cheapest positive edge scales above
    # the budget every edge clamps, and once the dearest scales to at most
    # 1 every later vector is the same (1 per positive cost), so only the
    # exponents between are built.
    a, b = eps_i.numerator, eps_i.denominator
    costs = graph.int_costs
    positive = [c for c in costs if c > 0]
    least, greatest = min(positive, default=0), max(positive, default=0)
    clamped = tuple(budget + 1 if c > 0 else 0 for c in costs)
    vectors: dict[tuple[int, ...], None] = {}
    factor = n / (eps_i * (1 + eps_i) ** lo * bounds.C * graph.cost_denominator)
    num, den = factor.numerator, factor.denominator
    for _ in range(lo, hi + 1):
        if least * num > budget * den:
            vec = clamped
        else:
            vec = tuple(min(-(-c * num // den), budget + 1) for c in costs)
        vectors.setdefault(vec, None)
        if greatest * num <= den:
            break
        num *= b
        den *= a + b
    arc_lists = [_MinDistTable.arcs(graph, vec, budget) for vec in vectors]

    @functools.cache
    def tables(source: int) -> list[_MinDistTable]:
        return [_MinDistTable(graph, source, arcs) for arcs in arc_lists]

    @functools.cache
    def options(u: int, v: int) -> list[frozenset[int]]:
        """The distinct paths found for the pair, as edge sets."""
        walks = (table.walk(v) for table in tables(u))
        return list(dict.fromkeys(frozenset(w[1]) for w in walks if w is not None))

    def guesses(seq: tuple[int, ...]) -> Iterator[tuple]:
        per_seg = []
        for a, b in zip(seq, seq[1:]):
            pair = (min(a, b), max(a, b))
            opts = options(*pair)
            if not opts:
                return  # later pairs would only build more tables
            per_seg.append([((pair, oid), edges) for oid, edges in enumerate(opts)])
        yield from itertools.product(*per_seg)

    return _solve_by_chains(instance, length_distances(graph), guesses)


# ---------------------------------------------------------------------------
# star (1+eps) solver


class HeightTable:
    """Smallest tree height by root vertex, terminal subset, cost budget.

    Stored sparsely: per (vertex, subset) the Pareto frontier of
    (height, scaled cost) labels that star_dst.star_frontiers fills.
    d(v, R, j) is the least frontier height of scaled cost at most j among
    heights at most L - d(root, v), the slack of v from the star root: a
    taller tree at v fits in no root tree of height at most L.  The dense
    table of the recurrence, cut at each vertex's slack, is exactly this map
    read off along the budget axis.  Frontier heights are integers over denominator, the
    graph's length denominator; query returns them as exact Fractions.
    """

    def __init__(
        self,
        terminals: tuple[int, ...],
        frontiers: dict[tuple[int, int], tuple[Label, ...]],
        budget_cap: int,
        denominator: int,
    ):
        self.terminals = terminals
        self.frontiers = frontiers
        self.budget_cap = budget_cap
        self.denominator = denominator
        self._tbit = {t: 1 << i for i, t in enumerate(terminals)}

    def query(self, v: int, subset: Iterable[int], j: int) -> Optional[Fraction]:
        """d(v, R, j): smallest height at scaled cost <= j; None if none."""
        mask = 0
        for t in subset:
            mask |= self._tbit[t]
        mask &= ~self._tbit.get(v, 0)
        if mask == 0:
            return Fraction(0)
        for e in self.frontiers.get((v, mask), ()):
            if e.cost <= j:
                return Fraction(e.height, self.denominator)
        return None

    def cells(self):
        """Iterate (vertex, terminal-subset mask, label) over filled cells."""
        for (v, mask), entries in self.frontiers.items():
            for e in entries:
                yield v, mask, e


def build_height_table(
    instance: SlsnInstance, eps: Fraction, C: Fraction
) -> HeightTable:
    """Fill the star DP table for the given cost bracket C.

    Subtrees rooted at v covering subset R are built from (a) proper
    splits of R at the same root (the v'=v case of the recurrence, a
    virtual zero-length zero-cost edge) and (b) extension along an edge
    {v,v'} from a subtree rooted at v'.  Heights above the slack
    L - d(root, v) and scaled costs above ceil(n^3 (1+eps)/eps) can never
    be used and are pruned.
    """
    eps = Fraction(eps)
    graph = instance.graph
    n = graph.vertex_count
    root, terminals = star_terminals(instance)
    scaled = ScaledCosts.compute(graph, eps, C)
    cap = -(-n ** 3 * (eps.numerator + eps.denominator) // eps.numerator)  # n^3 (1+eps)/eps
    frontiers = star_frontiers(
        graph, terminals, graph.int_lengths, scaled.values, instance.length_cap, cap, root=root
    )
    return HeightTable(terminals, frontiers, cap, graph.length_denominator)


def approx_star(
    instance: SlsnInstance, eps: Fraction, bounds: Optional[CostBounds] = _RUN_OPT_LOW
) -> Optional[Solution]:
    """(1+eps)-approximation for star demands with arbitrary lengths/costs.

    The output is a tree rooted at the star root with height at most L
    (so feasibility is exact) and original cost at most (1+eps)*OPT.  When
    zero-cost edges alone are feasible (C = 0) the tree is taken from them.
    bounds, when given, is opt_low(instance) computed by the caller.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    root, _ = star_terminals(instance)
    if bounds is _RUN_OPT_LOW:
        bounds = opt_low(instance)
    if bounds is None:
        return None
    graph = instance.graph
    if bounds.C == 0:
        union = _zero_cost_edges(graph)  # feasible at cost 0, so optimal
    else:
        table = build_height_table(instance, eps, bounds.C)
        # labels are pruned at height L and at the cap, so the last is the cheapest
        frontier = table.frontiers[(root, (1 << len(table.terminals)) - 1)]
        if not frontier:
            return None
        union = tree_edges(frontier[-1])

    # The reconstructed halves of splits may overlap; take the cheapest
    # shortest-path tree inside the union and prune non-terminal leaves,
    # which keeps every root-terminal distance and can only reduce cost.
    tree = _shortest_path_tree(graph, union, root)
    return Solution.build(instance, _prune_leaves(graph, tree, instance.demands.vertices()))


def _shortest_path_tree(graph: WeightedGraph, union: set[int], root: int) -> set[int]:
    """Edges of a shortest-path tree of the union from root, ties broken by cost.

    The (length, cost) key is one exact integer per edge: the graph's
    integer lengths and costs, and length * K + cost with K above the
    union's total integer cost, which no simple path reaches.
    """
    lengths, costs = graph.int_lengths, graph.int_costs
    K = sum(costs[idx] for idx in union) + 1
    weight = {idx: lengths[idx] * K + costs[idx] for idx in union}
    _, parent = dijkstra(adjacency(graph, union, weight), {root: 0})
    return {idx for _, idx in parent.values()}


def _prune_leaves(graph: WeightedGraph, tree: set[int], keep: set[int]) -> set[int]:
    tree = set(tree)
    while True:
        degree: dict[int, list[int]] = {}
        for idx in tree:
            e = graph.edges[idx]
            degree.setdefault(e.u, []).append(idx)
            degree.setdefault(e.v, []).append(idx)
        removable = [
            idxs[0]
            for v, idxs in degree.items()
            if len(idxs) == 1 and v not in keep
        ]
        if not removable:
            return tree
        tree.difference_update(removable)
