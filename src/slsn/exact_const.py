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
demand, a chain: an ordered sequence of at most min(2(p-1), budget-1)
distinct intermediate vertices together with one budget per consecutive
pair, with budgets consistent across demands for a shared pair.  Chains
whose segments admit no path within budget are skipped, as are combinations
with a non-terminal intermediate used by fewer than two demands (junctions
are shared by definition); neither skip can remove the optimal guess.  All
surviving unions are feasibility-checked and costed exactly, so the
returned cost equals the optimum whenever the optimal guess is enumerated,
which the decomposition above guarantees.

One search serves all three constant-demand solvers: _enumerate_chains
walks the junction sequences and asks a per-solver guess function for the
segment guesses of each; _search_best_union joins the chains.  Both exact
variants guess budgets through _budget_guesses (solve_unit_cost first drops
sequences whose shortest segment lengths already exceed L), and
approx.approx_const guesses min-dist paths.

Runtime is n^O(p^4) as for the plain guess loops; in practice the search is
driven by cost-bound pruning (a partial union at or above the incumbent
cost can be abandoned, since union cost only grows).
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
    canonical_path_assignment,
    dijkstra,
    feasibility_check,
    hop_bounded_path,
    restricted_min_cost_path,
)


def _distance_table(graph: WeightedGraph, weight: list, zero) -> list[list]:
    """Shortest distances from every source, one Dijkstra per source."""
    adj = adjacency(graph, range(graph.edge_count), weight)
    table = []
    for source in range(graph.vertex_count):
        dist, _ = dijkstra(adj, {source: zero})
        table.append([dist.get(v) for v in range(graph.vertex_count)])
    return table


def hop_distances(graph: WeightedGraph) -> list[list[Optional[int]]]:
    """Hop counts, ``table[source][v]`` (None if unreachable)."""
    return _distance_table(graph, [1] * graph.edge_count, 0)


def length_distances(graph: WeightedGraph) -> list[list[Optional[Fraction]]]:
    """Exact shortest path lengths, ``table[source][v]`` (None if unreachable)."""
    return _distance_table(graph, [e.length for e in graph.edges], Fraction(0))


def shortest_length_under_edge_budget(
    graph: WeightedGraph, u: int, v: int, edge_budget: int
) -> Optional[Path]:
    """Shortest-length u-v path using at most edge_budget edges.

    The dual of ``restricted_min_cost_path``: levels count edges, values
    are exact lengths.  See ``core.hop_bounded_path``.
    """
    if edge_budget < 0:
        raise ValueError("edge_budget must be nonnegative")
    return hop_bounded_path(graph, u, v, edge_budget, [e.length for e in graph.edges])


@dataclass(frozen=True)
class _Chain:
    """One demand's guess: intermediates plus one guessed item per segment."""

    sequence: tuple[int, ...]  # s, intermediates..., t
    items: tuple[tuple[tuple[int, int], int], ...]  # ((u,v) sorted, guess)
    edges: frozenset[int]  # union of the segment paths
    cost: Fraction
    intermediates: frozenset[int]


# A segment guess: ((u, v) sorted, guessed budget or option) plus its path edges.
_Guess = tuple[tuple[tuple[int, int], int], Iterable[int]]


def _enumerate_chains(
    graph: WeightedGraph,
    s: int,
    t: int,
    max_intermediates: int,
    hops: list[list],
    guesses: Callable[[tuple[int, ...]], Iterator[tuple[_Guess, ...]]],
) -> list[_Chain]:
    """All chains for one demand, cheapest first.

    A sequence is s, up to max_intermediates distinct vertices, then t; a
    vertex is appended only when hops[last][vertex] is not None (any
    distance table of the graph serves).  guesses(sequence) yields the
    sequence's admissible guesses, each one _Guess per segment, and every
    guess becomes a chain.
    """
    pool = [w for w in range(graph.vertex_count) if w != s and w != t]
    chains: list[_Chain] = []

    def build(seq: list[int], depth: int) -> None:
        sequence = (*seq, t)
        for guess in guesses(sequence):
            edges = frozenset().union(*(path for _, path in guess))
            chains.append(
                _Chain(
                    sequence,
                    tuple(item for item, _ in guess),
                    edges,
                    graph.total_cost(edges),
                    frozenset(seq[1:]),
                )
            )
        if depth == max_intermediates:
            return
        for w in pool:
            if w not in seq and hops[seq[-1]][w] is not None:
                seq.append(w)
                build(seq, depth + 1)
                seq.pop()

    build([s], 0)
    chains.sort(key=lambda c: (c.cost, c.sequence, c.items))
    return chains


def _fits(table: list[list], seq: tuple[int, ...], bound) -> bool:
    """Distances along consecutive pairs of seq are all defined and sum to at most bound."""
    total = 0
    for a, b in zip(seq, seq[1:]):
        if table[a][b] is None:
            return False
        total += table[a][b]
    return total <= bound


def _budget_guesses(
    hops: list[list[Optional[int]]],
    total_budget: int,
    seg_path: Callable[[int, int, int], Optional[Path]],
) -> Callable[[tuple[int, ...]], Iterator[tuple[_Guess, ...]]]:
    """Guesses of one integer budget per segment, for ``_enumerate_chains``.

    Each segment's budget is at least its hop distance and the budgets sum
    to at most total_budget.  seg_path(u, v, budget), called with u < v and
    memoised here, resolves a segment; a budget it leaves without a path
    ends that branch.
    """
    memo: dict[tuple[int, int, int], Optional[Path]] = {}

    def resolve(a: int, b: int, budget: int) -> Optional[Path]:
        key = (min(a, b), max(a, b), budget)
        if key not in memo:
            memo[key] = seg_path(*key)
        return memo[key]

    def guesses(seq: tuple[int, ...]) -> Iterator[tuple[_Guess, ...]]:
        if not _fits(hops, seq, total_budget):
            return
        pairs = list(zip(seq, seq[1:]))
        acc: list[_Guess] = []

        def rec(pos: int, slack: int) -> Iterator[tuple[_Guess, ...]]:
            if pos == len(pairs):
                yield tuple(acc)
                return
            a, b = pairs[pos]
            lo = hops[a][b]
            for budget in range(lo, lo + slack + 1):
                path = resolve(a, b, budget)
                if path is None:
                    continue
                acc.append((((min(a, b), max(a, b)), budget), path.edges))
                yield from rec(pos + 1, slack - (budget - lo))
                acc.pop()

        yield from rec(0, total_budget - sum(hops[a][b] for a, b in pairs))

    return guesses


def _search_best_union(
    instance: SlsnInstance,
    chain_lists: list[list[_Chain]],
) -> Optional[frozenset[int]]:
    """Depth-first join of per-demand chains with cost-bound pruning.

    Returns the edge union of the cheapest feasible combination, or None.
    Combinations where some non-terminal intermediate appears in a single
    chain are skipped: a junction is by definition shared between two
    paths, so the optimal canonical guess never needs one.
    """
    graph = instance.graph
    terminals = instance.demands.vertices()
    edge_cost = [e.cost for e in graph.edges]
    best: dict = {"cost": None, "edges": None}

    def accept(cost: Fraction, union: frozenset[int], inters: list[frozenset[int]]) -> None:
        counts = Counter(w for s_ in inters for w in s_)
        if any(n < 2 for w, n in counts.items() if w not in terminals):
            return  # junction used by one path only: never canonical
        # Explicit feasibility test, kept even for the unit-length variant
        # where honest chain construction already implies it.
        if not feasibility_check(instance, union).feasible:
            return
        best["cost"] = cost
        best["edges"] = union

    def rec(
        i: int,
        budgets: dict[tuple[int, int], int],
        inters: list[frozenset[int]],
        union: frozenset[int],
        cost: Fraction,
    ) -> None:
        if best["cost"] is not None and cost >= best["cost"]:
            return
        if i == len(chain_lists):
            accept(cost, union, inters)
            return
        for chain in chain_lists[i]:
            if best["cost"] is not None and chain.cost >= best["cost"]:
                break  # chains sorted by own cost; union cost dominates it
            conflict = False
            for pair, b in chain.items:
                if budgets.get(pair, b) != b:
                    conflict = True
                    break
            if conflict:
                continue
            added = chain.edges - union
            new_cost = cost + sum((edge_cost[e] for e in added), Fraction(0))
            if best["cost"] is not None and new_cost >= best["cost"]:
                continue
            new_budgets = dict(budgets)
            new_budgets.update(chain.items)
            rec(i + 1, new_budgets, inters + [chain.intermediates], union | added, new_cost)

    rec(0, {}, [], frozenset(), Fraction(0))
    return best["edges"]


def _finish(instance: SlsnInstance, union: frozenset[int]) -> Solution:
    paths = canonical_path_assignment(instance, union)
    return Solution.build(instance, union, paths)


def _warn_large_p(p: int) -> None:
    if p > 4:
        warnings.warn(
            f"p={p} demands: runtime grows as n^O(p^4); expect this to be slow",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_unit_length(instance: SlsnInstance) -> Optional[Solution]:
    """Exact optimum for unit-length arbitrary-cost instances, or None."""
    graph = instance.graph
    if not graph.has_unit_lengths():
        raise ValueError("solve_unit_length requires unit edge lengths")
    p = instance.demands.size
    if p < 1:
        raise ValueError("at least one demand required")
    _warn_large_p(p)
    hop_budget = min(int(instance.L), max(graph.vertex_count - 1, 0))
    if hop_budget < 1:
        return None
    hops = hop_distances(graph)
    guesses = _budget_guesses(
        hops, hop_budget, lambda u, v, budget: restricted_min_cost_path(graph, u, v, budget)
    )
    max_inter = min(2 * (p - 1), hop_budget - 1)
    chain_lists = [
        _enumerate_chains(graph, s, t, max_inter, hops, guesses)
        for s, t in instance.demands.pairs
    ]
    if any(not lst for lst in chain_lists):
        return None
    union = _search_best_union(instance, chain_lists)
    if union is None:
        return None
    return _finish(instance, union)


def solve_unit_cost(instance: SlsnInstance) -> Optional[Solution]:
    """Exact optimum for integer-length unit-cost instances, or None."""
    graph = instance.graph
    if not graph.has_unit_costs():
        raise ValueError("solve_unit_cost requires unit edge costs")
    if not graph.has_integer_lengths():
        raise ValueError("solve_unit_cost requires positive integer edge lengths")
    p = instance.demands.size
    if p < 1:
        raise ValueError("at least one demand required")
    _warn_large_p(p)
    # simple paths use at most n-1 edges, and with integer lengths of at
    # least 1 a path within L uses at most floor(L)
    cost_budget = min(int(instance.L), max(graph.vertex_count - 1, 0))
    if cost_budget < 1:
        return None
    hops = hop_distances(graph)
    lengths = length_distances(graph)
    budgets = _budget_guesses(
        hops,
        cost_budget,
        lambda u, v, budget: shortest_length_under_edge_budget(graph, u, v, budget),
    )

    def guesses(seq: tuple[int, ...]) -> Iterator[tuple[_Guess, ...]]:
        # A sequence whose shortest segments cannot jointly meet L is
        # useless: even with unbounded edge budgets it is too long.
        if _fits(lengths, seq, instance.L):
            yield from budgets(seq)

    max_inter = min(2 * (p - 1), cost_budget - 1)
    chain_lists = [
        _enumerate_chains(graph, s, t, max_inter, hops, guesses)
        for s, t in instance.demands.pairs
    ]
    if any(not lst for lst in chain_lists):
        if feasibility_check(instance, range(graph.edge_count)).feasible:
            raise AssertionError("feasible instance but no admissible chains")
        return None
    union = _search_best_union(instance, chain_lists)
    if union is None:
        return None
    return _finish(instance, union)
