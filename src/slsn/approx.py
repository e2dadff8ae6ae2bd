"""Approximation suite for arbitrary lengths and costs.

Four pieces, used together:
  - opt_low: the smallest edge cost C whose cost-threshold subgraph is
    feasible.  C brackets the optimum: C <= OPT <= n^2 C.
  - min_dist: scaled-cost dynamic program.  Costs are rescaled to integers
    ceil(n*c(e)/(eps*C)) and a table d(v, i) of minimum path length at
    exact scaled cost i is filled for i up to the budget floor(n/eps); the
    best entry over all i is returned.  If any s-t path has cost at most
    (1-2*eps)*C and length D, the returned path costs at most C and is no
    longer than D.  An edge scaled above the budget is never relaxed, so
    the table only depends on the costs clamped to budget + 1: approx_const
    builds one table per distinct clamped vector, and most exponents of
    its grid clamp every edge.
  - approx_const: the constant-demand FPTAS.  It runs the exact solvers'
    chain search (exact_const._enumerate_chains and _search_best_union),
    but each guessed subpath carries a guessed cost scale (1+eps')^{c'} * C
    rather than a hop budget, resolved through min_dist.  eps' = eps/4
    internally, so the overall ratio is (1+eps); feasibility is never
    relaxed.
  - approx_star: the star (1+eps) solver.  A Dreyfus-Wagner style program
    over (root vertex, terminal subset) computes, per scaled-cost budget,
    the smallest achievable tree height; the cheapest budget whose height
    meets L is taken.  The table is represented sparsely as a Pareto
    frontier of (height, scaled cost) pairs per (vertex, subset), which is
    exactly the height table read along its steps.  Heights are integers
    over D, the lcm of the length and L denominators, so the fill adds
    and compares ints; HeightTable.query returns them as Fractions.

All arithmetic is exact: lengths and heights are integers over a common
denominator, converted back to Fractions at the API boundary, and scaled
costs are exact integers.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
    as_integers,
    dijkstra,
    feasibility_check,
)
from .exact_const import (
    _enumerate_chains,
    _finish,
    _fits,
    _search_best_union,
    length_distances,
)


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
    full graph is infeasible.
    """
    graph = instance.graph
    if graph.edge_count == 0:
        raise ValueError("opt_low requires at least one edge")
    thresholds = sorted(set(e.cost for e in graph.edges))
    for c in thresholds:
        subset = [i for i, e in enumerate(graph.edges) if e.cost <= c]
        if feasibility_check(instance, subset).feasible:
            return CostBounds(c)
    return None


def _zero_cost_edges(graph: WeightedGraph) -> set[int]:
    """The edges of cost 0: the subgraph opt_low tests when it returns C = 0."""
    return {idx for idx, e in enumerate(graph.edges) if e.cost == 0}


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


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
        values = tuple(_ceil_frac(Fraction(n) * e.cost / (eps * C)) for e in graph.edges)
        return ScaledCosts(values, eps, C, n)


class _MinDistTable:
    """d(v, i): min length of an s-v walk of exact scaled cost i.

    Scaled costs of zero (possible when an edge costs 0) are relaxed to a
    fixpoint within each budget level; positive lengths guarantee that the
    level relaxation terminates and that optimal walks are simple.

    An edge whose scaled cost exceeds the budget is never relaxed, so
    replacing every such value by budget + 1 leaves the table, best() and
    path() unchanged: the (n-1)*max_c cap on levels stays at or above the
    budget either way.  Cost vectors that agree once clamped therefore
    share one table.  Level i sweeps only the arcs of scaled cost 1..i, in
    arc order, so ties go to the same arc as in a sweep over all arcs.
    lengths are the edge lengths as integers over a common denominator
    (core.as_integers), computed once by callers building many tables.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        source: int,
        scaled: tuple[int, ...],
        budget: int,
        lengths: list[int],
    ):
        self.graph = graph
        self.source = source
        self.scaled = scaled
        n = graph.vertex_count
        max_c = max(scaled, default=0)
        # No simple path carries exact scaled cost above (n-1)*max_c.
        budget = min(budget, max(n - 1, 0) * max_c)
        self.levels: list[list[Optional[int]]] = []
        self.parent: dict[tuple[int, int], tuple[int, int, int]] = {}
        base: list[Optional[int]] = [None] * n
        base[source] = 0
        arcs = []
        for idx, e in enumerate(graph.edges):
            arcs.append((e.u, e.v, idx))
            arcs.append((e.v, e.u, idx))
        zero_arcs = [(a, b, idx) for a, b, idx in arcs if scaled[idx] == 0]
        # live arcs by scaled cost; each joins the sweep at its own level
        live = sorted(
            (scaled[idx], pos, a, b, idx)
            for pos, (a, b, idx) in enumerate(arcs)
            if 1 <= scaled[idx] <= budget
        )
        swept: list[tuple[int, int, int, int, int]] = []  # (pos, a, b, idx, cost)
        k = 0

        def relax_level(i: int, row: list[Optional[int]]) -> None:
            # zero scaled-cost edges stay within the level
            changed = bool(zero_arcs)
            while changed:
                changed = False
                for a, b, idx in zero_arcs:
                    if row[a] is not None:
                        nl = row[a] + lengths[idx]
                        if row[b] is None or nl < row[b]:
                            row[b] = nl
                            self.parent[(i, b)] = (a, idx, i)
                            changed = True

        relax_level(0, base)
        self.levels.append(base)
        for i in range(1, budget + 1):
            while k < len(live) and live[k][0] <= i:
                ci, pos, a, b, idx = live[k]
                bisect.insort(swept, (pos, a, b, idx, ci))
                k += 1
            row: list[Optional[int]] = [None] * n
            for _, a, b, idx, ci in swept:
                prev = self.levels[i - ci][a]
                if prev is not None:
                    nl = prev + lengths[idx]
                    if row[b] is None or nl < row[b]:
                        row[b] = nl
                        self.parent[(i, b)] = (a, idx, i - ci)
            relax_level(i, row)
            self.levels.append(row)

    def best(self, target: int) -> Optional[tuple[int, int]]:
        """(level, scaled integer length) minimizing length, or None."""
        out = None
        for i, row in enumerate(self.levels):
            val = row[target]
            if val is not None and (out is None or val < out[1]):
                out = (i, val)
        return out

    def path(self, target: int) -> Optional[Path]:
        got = self.best(target)
        if got is None:
            return None
        i, _ = got
        vertices = [target]
        edge_seq: list[int] = []
        w = target
        while w != self.source or i != 0:
            a, idx, pi = self.parent[(i, w)]
            edge_seq.append(idx)
            vertices.append(a)
            w, i = a, pi
        vertices.reverse()
        edge_seq.reverse()
        return Path.from_edge_sequence(self.graph, vertices, edge_seq)


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
    budget = _floor_frac(Fraction(graph.vertex_count) / eps)
    lengths = as_integers([e.length for e in graph.edges])
    table = _MinDistTable(graph, s, scaled.values, budget, lengths)
    return table.path(t)


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
    p = instance.demands.size
    if p < 1:
        raise ValueError("at least one demand required")
    graph = instance.graph
    if graph.edge_count == 0:
        return None
    if bounds is _RUN_OPT_LOW:
        bounds = opt_low(instance)
    if bounds is None:
        return None
    if bounds.C == 0:
        return _finish(instance, _zero_cost_edges(graph))  # feasible at cost 0
    C = bounds.C
    eps_i = eps / 4
    n = graph.vertex_count
    lo, hi = _exponent_range(n, eps_i)
    budget = _floor_frac(Fraction(n) / eps_i)

    # Distinct scaled-cost vectors over the exponent grid, clamped to
    # budget + 1 (see _MinDistTable); each vector is solved once per
    # source, and per pair the distinct resulting paths become that pair's
    # options.
    base = 1 + eps_i
    vectors: dict[tuple[int, ...], None] = {}
    scale = base ** lo * C
    for _ in range(lo, hi + 1):
        factor = n / (eps_i * scale)
        vec = tuple(min(_ceil_frac(e.cost * factor), budget + 1) for e in graph.edges)
        vectors.setdefault(vec, None)
        scale *= base
    lengths = as_integers([e.length for e in graph.edges])
    tables: dict[tuple[tuple[int, ...], int], _MinDistTable] = {}

    def table_for(vec: tuple[int, ...], source: int) -> _MinDistTable:
        key = (vec, source)
        if key not in tables:
            tables[key] = _MinDistTable(graph, source, vec, budget, lengths)
        return tables[key]

    # options[pair]: the distinct paths found for the pair, as edge sets
    options: dict[tuple[int, int], list[frozenset[int]]] = {}

    def options_for(pair: tuple[int, int]) -> list[frozenset[int]]:
        if pair not in options:
            found: dict[frozenset[int], None] = {}
            for vec in vectors:
                path = table_for(vec, pair[0]).path(pair[1])
                if path is not None:
                    found.setdefault(frozenset(path.edges), None)
            options[pair] = list(found)
        return options[pair]

    dists = length_distances(graph)

    def guesses(seq: tuple[int, ...]) -> Iterator[tuple]:
        if not _fits(dists, seq, instance.L):
            return  # even the shortest segments cannot meet L jointly
        per_seg = []
        for a, b in zip(seq, seq[1:]):
            pair = (min(a, b), max(a, b))
            opts = options_for(pair)
            if not opts:
                return  # later pairs would only build more tables
            per_seg.append([((pair, oid), edges) for oid, edges in enumerate(opts)])
        yield from itertools.product(*per_seg)

    chain_lists = [
        _enumerate_chains(graph, s, t, 2 * (p - 1), dists, guesses)
        for s, t in instance.demands.pairs
    ]
    if any(not lst for lst in chain_lists):
        return None
    union = _search_best_union(instance, chain_lists)
    if union is None:
        return None
    return _finish(instance, union)


# ---------------------------------------------------------------------------
# star (1+eps) solver


@dataclass(frozen=True)
class _Entry:
    """One Pareto point: a tree of this height and scaled cost exists.

    height is an integer over the table's denominator (HeightTable.denominator).
    """

    height: int
    cost: int
    prov: tuple  # ("leaf",) | ("edge", edge_idx, child) | ("split", a, b)


def _pareto(entries: list[_Entry]) -> tuple[_Entry, ...]:
    entries = sorted(entries, key=lambda e: (e.height, e.cost))
    out: list[_Entry] = []
    for e in entries:
        if not out or e.cost < out[-1].cost:
            out.append(e)
    return tuple(out)


class HeightTable:
    """Smallest tree height by root vertex, terminal subset, cost budget.

    Stored sparsely: per (vertex, subset) a Pareto frontier of
    (height, scaled cost) pairs.  d(v, R, j) is the least frontier height
    of scaled cost at most j; the dense table of the recurrence is exactly
    this map read off along the budget axis.  Frontier heights are integers
    over denominator, the lcm of the length and L denominators; query
    returns them as exact Fractions.
    """

    def __init__(
        self,
        terminals: tuple[int, ...],
        frontiers: dict[tuple[int, int], tuple[_Entry, ...]],
        budget_cap: int,
        scaled: ScaledCosts,
        denominator: int,
    ):
        self.terminals = terminals
        self.frontiers = frontiers
        self.budget_cap = budget_cap
        self.scaled = scaled
        self.denominator = denominator
        self._tbit = {t: 1 << i for i, t in enumerate(terminals)}

    def _normalize(self, v: int, mask: int) -> int:
        return mask & ~self._tbit.get(v, 0)

    def frontier(self, v: int, mask: int) -> tuple[_Entry, ...]:
        return self.frontiers.get((v, self._normalize(v, mask)), ())

    def query(self, v: int, subset: Iterable[int], j: int) -> Optional[Fraction]:
        """d(v, R, j): smallest height at scaled cost <= j; None if none."""
        mask = 0
        for t in subset:
            mask |= self._tbit[t]
        mask = self._normalize(v, mask)
        if mask == 0:
            return Fraction(0)
        for e in self.frontiers.get((v, mask), ()):
            if e.cost <= j:
                return Fraction(e.height, self.denominator)
        return None

    def cells(self):
        """Iterate (vertex, terminal-subset mask, entry) over filled cells."""
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
    {v,v'} from a subtree rooted at v'.  Heights above L and scaled costs
    above ceil(n^3 (1+eps)/eps) can never be used and are pruned.
    """
    eps = Fraction(eps)
    graph = instance.graph
    n = graph.vertex_count
    root = instance.demands.star_root()
    if root is None:
        raise ValueError("approx_star requires star demands")
    terminals = tuple(t if s == root else s for s, t in instance.demands.pairs)
    scaled = ScaledCosts.compute(graph, eps, C)
    cap = _ceil_frac(Fraction(n) ** 3 * (1 + eps) / eps)
    # heights are ints over D, the lcm of the length and L denominators
    D = math.lcm(instance.L.denominator, *(e.length.denominator for e in graph.edges))
    lengths = [int(e.length * D) for e in graph.edges]
    L = int(instance.L * D)
    tbit = {t: 1 << i for i, t in enumerate(terminals)}
    full = (1 << len(terminals)) - 1

    frontiers: dict[tuple[int, int], tuple[_Entry, ...]] = {}
    leaf = (_Entry(0, 0, ("leaf",)),)
    for v in range(n):
        frontiers[(v, 0)] = leaf

    def fr(v: int, mask: int) -> tuple[_Entry, ...]:
        return frontiers.get((v, mask & ~tbit.get(v, 0)), ())

    masks = sorted(range(1, full + 1), key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        cand: dict[int, list[_Entry]] = {
            v: [] for v in range(n) if not (tbit.get(v, 0) & mask)
        }
        for v in cand:
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:
                    for ea in fr(v, sub):
                        for eb in fr(v, other):
                            c = ea.cost + eb.cost
                            if c <= cap:
                                cand[v].append(
                                    _Entry(max(ea.height, eb.height), c, ("split", ea, eb))
                                )
                sub = (sub - 1) & mask
        rows = {v: _pareto(entries) for v, entries in cand.items()}
        # edge relaxation to a fixpoint: positive lengths force termination
        changed = True
        while changed:
            changed = False
            for idx, e in enumerate(graph.edges):
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a not in rows:
                        continue
                    grown: list[_Entry] = []
                    for child in fr(b, mask) if b not in rows else rows[b]:
                        h = child.height + lengths[idx]
                        c = child.cost + scaled.values[idx]
                        if h <= L and c <= cap:
                            grown.append(_Entry(h, c, ("edge", idx, child)))
                    if grown:
                        merged = _pareto(list(rows[a]) + grown)
                        if merged != rows[a]:
                            rows[a] = merged
                            changed = True
        for v, row in rows.items():
            frontiers[(v, mask)] = row

    return HeightTable(terminals, frontiers, cap, scaled, D)


def _collect_edges(entry: _Entry, out: set[int]) -> None:
    stack = [entry]
    while stack:
        e = stack.pop()
        if e.prov[0] == "edge":
            out.add(e.prov[1])
            stack.append(e.prov[2])
        elif e.prov[0] == "split":
            stack.append(e.prov[1])
            stack.append(e.prov[2])


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
    root = instance.demands.star_root()
    if root is None:
        raise ValueError("approx_star requires star demands")
    if instance.graph.edge_count == 0:
        return None
    if bounds is _RUN_OPT_LOW:
        bounds = opt_low(instance)
    if bounds is None:
        return None
    graph = instance.graph
    if bounds.C == 0:
        union = _zero_cost_edges(graph)  # feasible at cost 0, so optimal
    else:
        table = build_height_table(instance, eps, bounds.C)
        full = (1 << len(table.terminals)) - 1
        L = int(instance.L * table.denominator)
        chosen = None
        for entry in table.frontier(root, full):
            if entry.height <= L:
                chosen = entry  # frontier sorted by height; max height <= L wins min cost
        if chosen is None or chosen.cost > table.budget_cap:
            return None
        union = set()
        _collect_edges(chosen, union)

    # The reconstructed halves of splits may overlap; take the cheapest
    # shortest-path tree inside the union and prune non-terminal leaves,
    # which keeps every root-terminal distance and can only reduce cost.
    tree = _shortest_path_tree(graph, union, root)
    return _finish(instance, _prune_leaves(graph, tree, instance.demands.vertices()))


def _shortest_path_tree(graph: WeightedGraph, union: set[int], root: int) -> set[int]:
    """Edges of a shortest-path tree of the union from root, ties broken by cost.

    The (length, cost) key is one exact integer per edge: lengths and costs
    as integers over common denominators, and length * K + cost with K
    above the union's total integer cost, which no simple path reaches.
    """
    order = list(union)
    lengths = as_integers([graph.edges[idx].length for idx in order])
    costs = as_integers([graph.edges[idx].cost for idx in order])
    K = sum(costs) + 1
    weight = {idx: ln * K + c for idx, ln, c in zip(order, lengths, costs)}
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
