"""Approximation suite for arbitrary lengths and costs.

Four pieces, used together:
  - opt_low: the smallest edge cost C whose cost-threshold subgraph is
    feasible.  C brackets the optimum: C <= OPT <= n^2 C.
  - min_dist: scaled-cost dynamic program.  Costs are rescaled to integers
    ceil(n*c(e)/(eps*C)), and the star DP (star_dst.star_frontiers) runs
    from s alone with its two criteria swapped: heights are the scaled
    costs, held to the budget floor(n/eps), and costs are the lengths.
    Per vertex it keeps the Pareto labels (scaled cost, length) of paths
    from s, each shorter than every label of lower scaled cost, so the last
    label of t, the shortest at the least scaled cost, gives the returned
    path.  If any s-t path has cost at most (1-2*eps)*C and length D, the
    returned path costs at most C and is no longer than D.  An edge scaled
    above the budget is never relaxed, so the labels only depend on the
    costs clamped to budget + 1, and most exponents of approx_const's grid
    clamp every edge.
  - approx_const: the constant-demand FPTAS.  It runs the exact solvers'
    chain search (exact_const._solve_by_chains) and guesses builder
    (exact_const._option_guesses), but its options carry no hop budget:
    each is the min_dist path at a guessed cost scale (1+eps')^{c'} * C.
    eps' = eps/4 internally, so the overall ratio is (1+eps); feasibility
    is never relaxed.  A pair's options are the distinct min_dist paths
    over the grid's distinct clamped vectors, each elementwise no larger
    than the one before and built when first read.  The DP runs (once per
    source and vector, on arcs set up once per vector) from the first
    vector whose in-budget edges join the pair, since no earlier one has a
    label at its end.  When the pair has a unique shortest path that fits
    a vector's budget, that path is the DP's answer there and after, so it
    is taken as is; only when shortest paths tie does the DP run on to the
    last vector.
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
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
    dijkstra,
    feasibility_check,
)
from .exact_const import _option_guesses, _solve_by_chains, length_distances
from .star_dst import (
    Label, label_path, star_arcs, star_frontiers, star_pass, star_terminals, tree_edges,
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
    """Smallest integer c, of either sign, with base^c >= x (base > 1, x > 0).

    For x > 1 this is one more than the largest k with base^k < x; for
    x <= 1 it is -k for the largest k with base^-k >= x.  That k is found
    on int pairs r^i = num/den, r = base or 1/base, compared with x = p/q
    by cross-multiplying, so no step reduces a Fraction: square r until
    r^(2^J) falls on the other side of x, then add the powers r^(2^i),
    i = J-1 down to 0, that keep the product on x's near side.  That is
    O(log |c|) multiplications.
    """
    if base <= 1 or x <= 0:
        raise ValueError("base must exceed 1 and x must be positive")
    a, b = base.numerator, base.denominator
    p, q = Fraction(x).as_integer_ratio()
    up = p > q  # x > 1, so r = base; else r = 1/base
    if not up:
        a, b = b, a
    # r^i = a/b is on x's near side (the side 1 is on) when (a q < p b) == up
    squares = [(a, b)]
    while (a * q < p * b) == up:
        a, b = a * a, b * b
        squares.append((a, b))
    k, num, den = 0, 1, 1
    for i in range(len(squares) - 2, -1, -1):
        a, b = squares[i]
        if (num * a * q < p * den * b) == up:
            k, num, den = k + (1 << i), num * a, den * b
    return k + 1 if up else -k


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


def min_dist(
    graph: WeightedGraph, s: int, t: int, eps: Fraction, C: Fraction
) -> Optional[Path]:
    """Scaled-cost shortest path: cost at most C, length within the best
    achievable by any path of cost at most (1-2*eps)*C.

    eps must lie in (0, 1/2); C must be positive; s and t lie in 0..n-1.
    """
    eps = Fraction(eps)
    C = Fraction(C)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    if C <= 0:
        raise ValueError("C must be positive")
    n = graph.vertex_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"endpoints must lie in 0..{n - 1}")
    if s == t:
        return Path.trivial(s)
    scaled = ScaledCosts.compute(graph, eps, C)
    budget = n * eps.denominator // eps.numerator
    frontier = star_frontiers(graph, (s,), scaled.values, graph.int_lengths, budget)[(t, 1)]
    return Path.from_edge_sequence(graph, *label_path(graph, t, frontier[-1])) if frontier else None


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
    a, b = eps.numerator, eps.denominator  # n^2, n^2/(1-2eps), (n^2/eps)^2 built from ints
    base, n2 = Fraction(a + b, b), n * n
    hi = max(
        _ceil_log(base, Fraction(n2)) + 3,
        _ceil_log(base, Fraction(n2 * b, b - 2 * a)),
    )
    lo = -_ceil_log(base, Fraction((n2 * b) ** 2, a * a))
    return lo, hi


def _clamped_vectors(
    graph: WeightedGraph, eps: Fraction, C: Fraction, budget: int
) -> Iterator[tuple[int, ...]]:
    """The distinct scaled-cost vectors over the exponent grid, yielded in grid order.

    Each is clamped to budget + 1: star_frontiers never relaxes an edge
    whose height alone exceeds L = budget, so the clamp changes no label.
    Exponent c' scales an integer cost c over D to ceil(c * num / den),
    num / den = n / (eps (1+eps)^c' C D), so each step divides num / den by
    1+eps = (a+b)/b.  The factor falls as the exponent rises, so each vector
    is elementwise no larger than the one before; a repeat is dropped.
    While even the cheapest positive edge scales above the budget every edge
    clamps, and once the dearest scales to at most 1 every later vector is
    the same (1 per positive cost), so only the exponents between are built:
    the first is read off _ceil_log, and the all-clamped vector comes first
    only when an exponent from lo up clamps every edge.
    """
    n = graph.vertex_count
    lo, hi = _exponent_range(n, eps)
    a, b = eps.numerator, eps.denominator
    costs = graph.int_costs
    positive = [c for c in costs if c > 0]
    least, greatest = min(positive, default=0), max(positive, default=0)
    # num / den = n b C.den b^e / (a C.num D (a+b)^e) at exponent e
    num, den = n * b * C.denominator, a * C.numerator * graph.cost_denominator
    first = lo
    if least:  # the cheapest positive edge scales within the budget from here on
        first = max(lo, _ceil_log(1 + eps, Fraction(least * num, budget * den)))
        if first > lo:
            yield tuple(budget + 1 if c > 0 else 0 for c in costs)
    if first < 0:
        num, den = num * (a + b) ** -first, den * b ** -first
    else:
        num, den = num * b ** first, den * (a + b) ** first
    last = None
    for e in range(first, hi + 1):
        vec = tuple(min(-(-c * num // den), budget + 1) for c in costs)
        if vec != last:
            yield vec
            last = vec
        if greatest * num <= den:
            break
        if e < 0:  # cancel a factor held since first, keeping both ints short
            num //= a + b
            den //= b
        else:
            num *= b
            den *= a + b


def _min_dist_options(
    graph: WeightedGraph, vectors: Iterable[tuple[int, ...]], budget: int
) -> Callable[[int, int], list[frozenset[int]]]:
    """options(u, v): the distinct paths, as edge sets in first-seen order,
    that the min-dist tables of the vectors (in order) find from u to v.

    Vectors are drawn as reads need them.  A table is one star_pass from u,
    built when a pair reads it, over its vector's star_arcs, which all
    sources share.  A path fits a budget only if each of its edges does, and
    an edge fits every vector after the first it fits, so no vector before
    joined[u, v], set by a union pass in that order, has a label at v.
    Lengths are positive, so a shortest walk is a simple path; when the pair
    has exactly one, P*, and P* fits a vector's budget, that vector's last
    label at v has P*'s length, so is P*, and so is every later (elementwise
    smaller) vector's.  Tables are read from joined[u, v] up to that vector,
    or on to the last when shortest paths tie.
    """
    n, lengths = graph.vertex_count, graph.int_lengths
    adj = adjacency(graph, range(graph.edge_count), lengths)
    stream, built, bound = iter(vectors), [], [budget] * n
    group = [{v} for v in range(n)]  # the vertices joined to v so far
    joined = {(v, v): 0 for v in range(n)}

    def draw() -> bool:  # the next vector joins each in-budget edge's ends; False if none
        vec = next(stream, None)
        if vec is not None:
            built.append(vec)
            for e, height in zip(graph.edges, vec):
                left, right = group[e.u], group[e.v]
                if height <= budget and left is not right:
                    for x, y in itertools.product(left, right):
                        joined[x, y] = joined[y, x] = len(built) - 1
                    left |= right
                    group[:] = [left if g is right else g for g in group]
        return vec is not None

    arcs = functools.cache(lambda k: star_arcs(graph, built[k], lengths, budget, None))

    @functools.cache
    def table(source: int, k: int) -> dict[tuple[int, int], tuple[Label, ...]]:
        return star_pass(arcs(k), (source,), bound, None)

    @functools.cache
    def shortest(source: int) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
        """Per reachable vertex: its shortest paths from source counted up to
        2, and its Dijkstra parent."""
        dist, parent = dijkstra(adj, {source: 0})
        ways = {source: 1}
        for w, d in itertools.islice(dist.items(), 1, None):
            # settled by rising distance and lengths are positive, so every
            # tight predecessor is counted already
            ways[w] = min(2, sum(ways[x] for x, _, ln in adj[w] if dist[x] + ln == d))
        return ways, parent

    @functools.cache
    def options(u: int, v: int) -> list[frozenset[int]]:
        ways, parent = shortest(u)
        if v not in ways:
            return []  # no u-v walk: every table's frontier at v is empty
        while (u, v) not in joined:
            if not draw():
                return []  # no vector brings a u-v path within the budget
        only = None
        if ways[v] == 1:
            edges, w = set(), v
            while w != u:
                w, idx = parent[w]
                edges.add(idx)
            only = frozenset(edges)
        found: dict[frozenset[int], None] = {}
        k = joined[u, v]
        while k < len(built) or draw():
            if only is not None and sum(built[k][idx] for idx in only) <= budget:
                found.setdefault(only, None)
                break  # the later vectors' answers are P* as well
            frontier = table(u, k)[(v, 1)]
            if frontier:
                found.setdefault(frozenset(tree_edges(frontier[-1])), None)
            k += 1
        return list(found)

    return options


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
    budget = graph.vertex_count * eps_i.denominator // eps_i.numerator
    options = _min_dist_options(graph, _clamped_vectors(graph, eps_i, bounds.C, budget), budget)
    guesses = _option_guesses(lambda u, v: list(enumerate(options(u, v))))
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
