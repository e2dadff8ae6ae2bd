"""Exponential-time ground-truth solvers, used for testing and fixtures.

These enumerate exhaustively and are deliberately unsophisticated: subset
sweeps and simple-path enumeration, guarded by explicit budgets.  An
instance above budget is refused with BudgetExceededError rather than
silently truncated.

Determinism: ties among optimal edge subsets are broken by the
lexicographically smallest sorted edge-index tuple, and path ties by the
lexicographically smallest vertex sequence, so derived test fixtures are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

from .core import (
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    adjacency,
    feasibility_check,
)


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 16
    max_simple_paths: int = 500_000
    max_color_tuples: int = 200_000

    def __post_init__(self):
        if self.max_edges <= 0 or self.max_simple_paths <= 0 or self.max_color_tuples <= 0:
            raise ValueError("oracle budget caps must be positive")


DEFAULT_BUDGET = OracleBudget()


def brute_force_slsn(
    instance: SlsnInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> Optional[Solution]:
    """Exact optimum by sweeping all 2^m edge subsets; None if infeasible."""
    m = instance.graph.edge_count
    if m > budget.max_edges:
        raise BudgetExceededError(f"{m} edges exceeds oracle cap {budget.max_edges}")
    costs = [e.cost for e in instance.graph.edges]
    best_cost: Optional[Fraction] = None
    best_edges: Optional[tuple[int, ...]] = None
    for mask in range(1 << m):
        subset = tuple(i for i in range(m) if mask >> i & 1)
        cost = sum((costs[i] for i in subset), Fraction(0))
        if best_cost is not None:
            if cost > best_cost:
                continue
            if cost == best_cost and subset >= best_edges:
                continue
        if feasibility_check(instance, subset).feasible:
            best_cost = cost
            best_edges = subset
    if best_edges is None:
        return None
    return Solution.build(instance, best_edges)


def brute_force_restricted_path(
    graph: WeightedGraph,
    u: int,
    v: int,
    length_bound: Fraction,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Optional[Path]:
    """Min-cost simple u-v path of total length <= length_bound, by DFS.

    Every partial path counts against budget.max_simple_paths.  Ties by
    cost are broken by the lexicographically smallest vertex sequence.
    """
    for end in (u, v):
        if not 0 <= end < graph.vertex_count:
            raise ValueError(f"path endpoint {end} outside 0..{graph.vertex_count - 1}")
    if u == v:
        return Path.trivial(u)
    adj = adjacency(graph, range(graph.edge_count), graph.edges)
    expansions = 0
    best: Optional[tuple[Fraction, tuple[int, ...], tuple[int, ...]]] = None

    stack: list[tuple[int, Fraction, Fraction, tuple[int, ...], tuple[int, ...]]] = [
        (u, Fraction(0), Fraction(0), (u,), ())
    ]
    while stack:
        vertex, length, cost, vseq, eseq = stack.pop()
        expansions += 1
        if expansions > budget.max_simple_paths:
            raise BudgetExceededError("simple-path enumeration exceeded budget")
        if vertex == v:
            key = (cost, vseq, eseq)
            if best is None or key < best:
                best = key
            continue
        for w, idx, e in adj[vertex]:
            if w in vseq:
                continue
            nl = length + e.length
            if nl > length_bound:
                continue
            stack.append((w, nl, cost + e.cost, vseq + (w,), eseq + (idx,)))
    if best is None:
        return None
    _, vseq, eseq = best
    return Path.from_edge_sequence(graph, vseq, eseq)


def _color_classes(n: int, coloring: dict[int, int], k: int) -> list[list[int]]:
    classes: list[list[int]] = [[] for _ in range(k)]
    for v in range(n):
        c = coloring[v]
        if not (1 <= c <= k):
            raise ValueError(f"vertex {v} has color {c} outside 1..{k}")
        classes[c - 1].append(v)
    return classes


def brute_force_mcc(
    n: int,
    edges: Iterable[tuple[int, int]],
    k: int,
    coloring: dict[int, int],
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Optional[list[int]]:
    """Exact multi-colored clique: one vertex per color, or None."""
    adj = {frozenset(e) for e in edges}
    classes = _color_classes(n, coloring, k)
    count = 1
    for cls in classes:
        count *= len(cls)
        if count > budget.max_color_tuples:
            raise BudgetExceededError("too many color-respecting tuples")
    for combo in product(*classes):
        if all(
            frozenset((combo[i], combo[j])) in adj
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return list(combo)
    return None


def densest_k_count(
    n: int,
    edges: Iterable[tuple[int, int]],
    k: int,
    coloring: dict[int, int],
    budget: OracleBudget = DEFAULT_BUDGET,
) -> int:
    """Max induced edge count over one-vertex-per-color selections."""
    adj = {frozenset(e) for e in edges}
    classes = _color_classes(n, coloring, k)
    count = 1
    for cls in classes:
        count *= max(len(cls), 1)
        if count > budget.max_color_tuples:
            raise BudgetExceededError("too many color-respecting tuples")
    best = 0
    for combo in product(*classes):
        got = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if frozenset((combo[i], combo[j])) in adj
        )
        if got > best:
            best = got
    return best
