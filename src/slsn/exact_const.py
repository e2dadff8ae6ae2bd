"""Exact polynomial-time solvers for a constant number of demands.

Two variants:
  - solve_unit_length: unit lengths, arbitrary costs.  Guesses, per demand,
    the junction vertices where its optimal path meets other demands' paths
    plus a hop budget for each resulting subpath, then unions the cheapest
    hop-bounded path per subpath and keeps the best feasible union.
  - solve_unit_cost: arbitrary positive integer lengths, unit costs.  Same
    skeleton, but guesses an edge-count budget per subpath and connects it
    with the shortest-length path under that edge budget.

Guess space. Every optimal solution admits a path assignment where two
paths overlap in at most one maximal shared subpath, so each demand's path
decomposes at junction vertices into at most 2(p-1)+1 subpaths whose
endpoints are junctions or terminals.  The solver therefore enumerates, per
demand, a chain: an ordered sequence of at most 2(p-1) distinct
intermediate vertices together with one budget per consecutive pair, with
budgets consistent across demands for a shared pair.  Only one budget per
distinct path is guessed: a budget b is kept when the least-weight path
within b edges has exactly b edges, since any other budget yields the path
of the budget below and its chains only repeat a kept chain at larger
budgets, which sorts after it.  A chain's budgets sum to at most
min(L, n-1).  One rule decides which sequences are admissible: their
consecutive shortest lengths must sum to at most L.  It is applied to each
prefix closed by the demand's target, which is exact: by the triangle
inequality an extension never sums to less than its prefix.  Combinations
with a non-terminal intermediate used by fewer than two demands (junctions
are shared by definition) are never formed: the last demand's chains are
indexed by their non-terminal intermediates, and only the groups that
complete the rule are walked.  No skip can remove the optimal guess.  All
surviving unions are feasibility-checked and costed exactly, so the
returned cost equals the optimum whenever the optimal guess is enumerated,
which the decomposition above guarantees.

One search serves all three constant-demand solvers: _enumerate_chains
walks the admissible junction sequences from an explicit stack and asks a
guess function for the segment guesses of each; every solver builds it with
_option_guesses from its per-pair options, and only the options differ.
_search_best_union joins the chains depth-first over a stack of per-demand
chain iterators, the last one over the junction groups that fit
(_fitting_chains), and _solve_by_chains runs both and returns
Solution.build of the best union, with its canonical witness paths.  No
function of the search refers to itself through a closure, so a solve
leaves no reference cycle behind.  Both exact variants run
_solve_by_budgets, whose options (_hop_options) are a pair's distinct
hop-bounded paths: the frontier at the target of the (hops, weight) label
DP of star_dst, one star_pass per segment source on arcs set up once per
solve at its largest budget; the variants differ only in the weight the
labels minimise (costs or lengths).  approx.approx_const's
options are its distinct min-dist paths.  The search adds and compares
only the graph's integer view: chain and union costs are ints over the cost
denominator, distance tables ints over the length denominator, and L is
the instance's length_cap.

Runtime is n^O(p^4) as for the plain guess loops; in practice the search is
driven by cost-bound pruning (a partial union at or above the incumbent
cost can be abandoned, since union cost only grows).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
    dijkstra,
    feasibility_check,
)
from .star_dst import hop_bounded_path, label_path, star_arcs, star_pass


def length_distances(graph: WeightedGraph) -> list[list[Optional[int]]]:
    """Shortest path lengths as ints over ``graph.length_denominator``,
    ``table[source][v]`` (None if unreachable), one Dijkstra per source."""
    adj = adjacency(graph, range(graph.edge_count), graph.int_lengths)
    table = []
    for source in range(graph.vertex_count):
        dist, _ = dijkstra(adj, {source: 0})
        table.append([dist.get(v) for v in range(graph.vertex_count)])
    return table


def shortest_length_under_edge_budget(
    graph: WeightedGraph, u: int, v: int, edge_budget: int
) -> Optional[Path]:
    """Shortest-length u-v path using at most edge_budget edges.

    The dual of ``restricted_min_cost_path``: heights count edges, costs
    are exact lengths.  See ``star_dst.hop_bounded_path``.
    """
    if edge_budget < 0:
        raise ValueError("edge_budget must be nonnegative")
    return hop_bounded_path(graph, u, v, edge_budget, graph.int_lengths)


@dataclass(frozen=True)
class _Chain:
    """One demand's guess: intermediates plus one guessed item per segment."""

    sequence: tuple[int, ...]  # s, intermediates..., t
    items: tuple[tuple[tuple[int, int], int], ...]  # ((u,v) sorted, guess)
    edges: frozenset[int]  # union of the segment paths
    cost: int  # over graph.cost_denominator
    intermediates: frozenset[int]


def _chain_order(chain: _Chain) -> tuple:
    """The order of every chain list: cost, then sequence, then guesses."""
    return chain.cost, chain.sequence, chain.items


# A segment guess: ((u, v) sorted, guessed budget or option) plus its path edges.
_Guess = tuple[tuple[tuple[int, int], int], Iterable[int]]


def _enumerate_chains(
    instance: SlsnInstance,
    s: int,
    t: int,
    lengths: list[list[Optional[int]]],
    guesses: Callable[[tuple[int, ...]], Iterator[tuple[_Guess, ...]]],
) -> list[_Chain]:
    """All chains for demand s-t, sorted by (cost, sequence, items).

    A sequence is s, at most 2(p-1) distinct intermediates, then t, and it
    is admissible when lengths[a][b] over its consecutive pairs sum to at
    most instance.length_cap.  The rule is applied to each prefix: w is
    appended only when the prefix, lengths[last][w] and lengths[w][t] fit.
    lengths must be a shortest-path table (length_distances, or the equal
    hop table of a unit-length graph): by the triangle inequality no
    extension sums to less than its prefix, so the pruning skips only
    sequences that would yield no chain.  guesses(sequence) yields each
    admissible sequence's guesses, one _Guess per segment, and every guess
    becomes a chain.  The prefixes are walked from an explicit stack; the
    full sort makes the walk order irrelevant.
    """
    graph, cap = instance.graph, instance.length_cap
    max_intermediates = 2 * (instance.demands.size - 1)
    pool = [w for w in range(graph.vertex_count) if w != s and w != t]
    costs = graph.int_costs
    chains: list[_Chain] = []
    # admissible prefixes (s, intermediates...) with their summed lengths
    stack = [((s,), 0)] if lengths[s][t] is not None and lengths[s][t] <= cap else []
    while stack:
        prefix, total = stack.pop()
        sequence = (*prefix, t)
        for guess in guesses(sequence):
            edges = frozenset().union(*(path for _, path in guess))
            chains.append(
                _Chain(
                    sequence,
                    tuple(item for item, _ in guess),
                    edges,
                    sum(costs[idx] for idx in edges),
                    frozenset(prefix[1:]),
                )
            )
        if len(prefix) > max_intermediates:
            continue
        row = lengths[prefix[-1]]
        for w in pool:
            rest = lengths[w][t]  # prefix[-1] reaches t, so row[w] exists with rest
            if rest is not None and w not in prefix and total + row[w] + rest <= cap:
                stack.append(((*prefix, w), total + row[w]))
    chains.sort(key=_chain_order)
    return chains


def _option_guesses(
    options: Callable[[int, int], list[tuple[int, Iterable[int]]]],
    budget: Optional[int] = None,
) -> Callable[[tuple[int, ...]], Iterator[tuple[_Guess, ...]]]:
    """Guesses for ``_enumerate_chains``: one of options(u, v), a (key, path
    edges) pair, per consecutive pair (u, v), u < v, of a sequence, in
    itertools.product order.  With a budget, the keys are the options'
    budgets and must sum to at most it.  options is called pair by pair,
    and a pair with none ends the sequence before later pairs are read,
    since reading them may build tables.
    """

    def guesses(seq: tuple[int, ...]) -> Iterator[tuple[_Guess, ...]]:
        per_seg = []
        for a, b in zip(seq, seq[1:]):
            pair = (min(a, b), max(a, b))
            opts = options(*pair)
            if not opts:
                return
            per_seg.append([((pair, key), edges) for key, edges in opts])
        for guess in itertools.product(*per_seg):
            if budget is None or sum(key for (_, key), _ in guess) <= budget:
                yield guess

    return guesses


def _fitting_chains(
    groups: dict[frozenset[int], list[_Chain]], junctions: list[frozenset[int]]
) -> Iterator[_Chain]:
    """The last demand's chains that complete the junction rule, in list order.

    groups holds the last demand's chains by their non-terminal
    intermediates K, each group in list order; junctions holds the same
    set of each earlier chain.  Every non-terminal intermediate must lie
    on at least two chains, so K must hold each vertex that exactly one
    earlier chain uses (once) and nothing that none uses (seen):
    once <= K <= seen.  When once == seen (always for p <= 2) only K ==
    once fits; otherwise the fitting groups are merged on the list order,
    and a merge of sub-lists of a sorted list keeps that list's order.
    """
    counts = Counter(w for k in junctions for w in k)
    seen = frozenset(counts)
    once = frozenset(w for w, c in counts.items() if c == 1)
    if once == seen:
        return iter(groups.get(once, ()))
    return heapq.merge(*(g for k, g in groups.items() if once <= k <= seen), key=_chain_order)


def _search_best_union(
    instance: SlsnInstance,
    chain_lists: list[list[_Chain]],
) -> Optional[frozenset[int]]:
    """Depth-first join of per-demand chains with cost-bound pruning.

    Returns the edge union of the cheapest feasible combination, or None;
    among equally cheap ones, the first in the order of
    itertools.product(*chain_lists).  The depth-first walk keeps one frame
    per chosen demand on an explicit stack, each with its iterator over
    that demand's chains.  A chain whose own cost reaches the incumbent
    ends its list (the lists are sorted by cost, and a union costs at least
    each of its chains), and a partial union that reaches it is skipped.
    Chains that guess another budget for a pair already guessed are
    skipped.  Combinations where some non-terminal intermediate appears in
    a single chain are never visited: a junction is by definition shared
    between two paths, so the optimal canonical guess never needs one.
    The last demand's chains are grouped once by their non-terminal
    intermediates, and the last level walks only the groups that fit the
    chosen chains (_fitting_chains), in list order, so the walk is the
    full walk with the skipped chains left out.
    """
    terminals = instance.demands.vertices()
    edge_cost = instance.graph.int_costs
    last = len(chain_lists) - 1
    groups: dict[frozenset[int], list[_Chain]] = {}
    for chain in chain_lists[last]:
        groups.setdefault(chain.intermediates - terminals, []).append(chain)
    best_cost: Optional[int] = None
    best_edges: Optional[frozenset[int]] = None
    # (chains left for the next demand, guessed budgets, non-terminal
    # intermediates per chosen chain, union, union cost) for each prefix of
    # chosen chains
    first = iter(chain_lists[0]) if last else _fitting_chains(groups, [])
    stack = [(first, {}, [], frozenset(), 0)]
    while stack:
        frame = stack[-1]
        chains, budgets, junctions, union, cost = frame
        for chain in chains:
            if best_cost is not None and chain.cost >= best_cost:
                break  # chains sorted by own cost; union cost dominates it
            if any(budgets.get(pair, b) != b for pair, b in chain.items):
                continue
            added = chain.edges - union
            new_cost = cost + sum(edge_cost[e] for e in added)
            if best_cost is not None and new_cost >= best_cost:
                continue
            new_union = union | added
            depth = len(stack)
            if depth <= last:
                new_junctions = junctions + [chain.intermediates - terminals]
                nxt = (
                    iter(chain_lists[depth])
                    if depth < last
                    else _fitting_chains(groups, new_junctions)
                )
                stack.append((nxt, budgets | dict(chain.items), new_junctions, new_union, new_cost))
                break  # descend; this frame resumes at its next chain
            # Explicit feasibility test, kept even for the unit-length
            # variant where honest chain construction already implies it.
            if feasibility_check(instance, new_union).feasible:
                best_cost, best_edges = new_cost, new_union
        if stack[-1] is frame:
            stack.pop()  # its chains are spent or cut off by the incumbent
    return best_edges


def _solve_by_chains(
    instance: SlsnInstance,
    lengths: list[list[Optional[int]]],
    guesses: Callable[[tuple[int, ...]], Iterator[tuple[_Guess, ...]]],
) -> Optional[Solution]:
    """The cheapest feasible union of per-demand chains, with its witness
    paths; None when some demand has no chain or no union is feasible.
    lengths is the graph's shortest-path table that _enumerate_chains
    holds each junction sequence against L with."""
    chain_lists = [
        _enumerate_chains(instance, s, t, lengths, guesses)
        for s, t in instance.demands.pairs
    ]
    if any(not lst for lst in chain_lists):
        return None
    union = _search_best_union(instance, chain_lists)
    return None if union is None else Solution.build(instance, union)


def _hop_options(
    graph: WeightedGraph, budget: int, weight: Sequence[int]
) -> Callable[[int, int], list[tuple[int, tuple[int, ...]]]]:
    """options(u, v): the distinct least-weight u-v paths within budget
    edges, as (b, path edges) by rising b.  They are the frontier at v of
    the (hops, weight) label DP from u: one star_pass per source, on arcs
    set up once.  A label of height b has exactly b edges, and b is the
    least budget that yields it: it is cheaper than every path of fewer
    edges, and hop_bounded_path at a budget reads the last label within it."""
    arcs = star_arcs(graph, [1] * graph.edge_count, weight, budget, None)
    bound = [budget] * graph.vertex_count
    table = functools.cache(lambda u: star_pass(arcs, (u,), bound, None))

    @functools.cache
    def options(u: int, v: int) -> list[tuple[int, tuple[int, ...]]]:
        return [(label.height, label_path(graph, v, label)[1]) for label in table(u)[(v, 1)]]

    return options


def _solve_by_budgets(instance: SlsnInstance, weight: Sequence[int]) -> Optional[Solution]:
    """The exact solvers' chain search: per segment, one of its pair's
    distinct hop-bounded least-weight paths (_hop_options), keyed by its
    edge count, with the counts summing to at most the solve's budget."""
    graph = instance.graph
    p = instance.demands.size
    if p < 1:
        raise ValueError("at least one demand required")
    if p > 4:
        warnings.warn(
            f"p={p} demands: runtime grows as n^O(p^4); expect this to be slow",
            RuntimeWarning,
            stacklevel=3,
        )
    # simple paths use at most n-1 edges, and with integer lengths of at
    # least 1 a path within L uses at most floor(L)
    budget = min(instance.length_cap, graph.vertex_count - 1)
    guesses = _option_guesses(_hop_options(graph, budget, weight), budget)
    return _solve_by_chains(instance, length_distances(graph), guesses)


def solve_unit_length(instance: SlsnInstance) -> Optional[Solution]:
    """Exact optimum for unit-length arbitrary-cost instances, or None."""
    graph = instance.graph
    if not graph.has_unit_lengths():
        raise ValueError("solve_unit_length requires unit edge lengths")
    return _solve_by_budgets(instance, graph.int_costs)


def solve_unit_cost(instance: SlsnInstance) -> Optional[Solution]:
    """Exact optimum for integer-length unit-cost instances, or None."""
    graph = instance.graph
    if not graph.has_unit_costs():
        raise ValueError("solve_unit_cost requires unit edge costs")
    if not graph.has_integer_lengths():
        raise ValueError("solve_unit_cost requires positive integer edge lengths")
    solution = _solve_by_budgets(instance, graph.int_lengths)
    if solution is None and feasibility_check(instance, range(graph.edge_count)).feasible:
        raise AssertionError("feasible instance but no feasible union of chains")
    return solution
