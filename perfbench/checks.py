"""Reference computations the benchmark checks outputs against.

Everything here is the benchmark's own code over exact Fractions, so a
broken ``slsn.core`` cannot vouch for itself.  An instance is the tuple
``(n, edges, L, demands)`` with ``edges`` a list of ``(u, v, length, cost)``
and ``demands`` a list of ``(s, t)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush


class CheckError(Exception):
    """A program output disagrees with the reference."""


def adjacency(n, edges, subset=None):
    """Adjacency lists of (neighbour, edge index), optionally of a subset."""
    adj = [[] for _ in range(n)]
    for idx in range(len(edges)) if subset is None else subset:
        u, v = edges[idx][0], edges[idx][1]
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    return adj


def distances(edges, adj, source):
    """Exact shortest lengths from source as a dict; absent means unreachable."""
    dist = {source: Fraction(0)}
    done = set()
    heap = [(Fraction(0), source)]
    while heap:
        d, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, idx in adj[v]:
            nd = d + edges[idx][2]
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heappush(heap, (nd, w))
    return dist


def demand_lengths(inst, subset=None):
    """Shortest length per demand inside the edge subset (None if cut off)."""
    n, edges, _, demands = inst
    adj = adjacency(n, edges, subset)
    by_source = {}
    out = []
    for s, t in demands:
        if s not in by_source:
            by_source[s] = distances(edges, adj, s)
        out.append(by_source[s].get(t))
    return out


def is_feasible(inst, subset=None):
    L = inst[2]
    return all(d is not None and d <= L for d in demand_lengths(inst, subset))


def subset_cost(inst, subset):
    return sum((inst[1][i][3] for i in set(subset)), Fraction(0))


def cost_threshold(inst):
    """opt_low's C: the smallest edge cost whose threshold subgraph is feasible."""
    edges = inst[1]
    for c in sorted({e[3] for e in edges}):
        if is_feasible(inst, [i for i, e in enumerate(edges) if e[3] <= c]):
            return c
    return None


def _short_paths(inst, s, t, node_cap):
    """Edge sets of every simple s-t path of length at most L, cheapest first."""
    n, edges, L, _ = inst
    adj = adjacency(n, edges)
    to_t = distances(edges, adj, t)
    found = []
    budget = [node_cap]

    def walk(v, length, seen, used):
        budget[0] -= 1
        if budget[0] < 0:
            raise CheckError(f"path enumeration for demand ({s},{t}) over {node_cap} steps")
        if v == t:
            found.append(frozenset(used))
            return
        for w, idx in adj[v]:
            if w in seen or w not in to_t:
                continue
            nl = length + edges[idx][2]
            if nl + to_t[w] > L:
                continue
            seen.add(w)
            used.append(idx)
            walk(w, nl, seen, used)
            used.pop()
            seen.discard(w)

    walk(s, Fraction(0), {s}, [])
    return sorted(set(found), key=lambda es: (subset_cost(inst, es), sorted(es)))


def exact_optimum(inst, node_cap=2_000_000):
    """Exact optimum cost by path unions, or None when infeasible.

    A minimal feasible subgraph is the union of one length-bounded simple
    path per demand, so the optimum is the cheapest such union.  The search
    is branch and bound over per-demand path lists; it is exponential and
    meant for the small-p instances the workloads hand it.
    """
    _, edges, _, demands = inst
    options = [_short_paths(inst, s, t, node_cap) for s, t in demands]
    if any(not opts for opts in options):
        return None
    options.sort(key=len)
    best = [None]

    def join(i, union, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if i == len(options):
            best[0] = cost
            return
        for path in options[i]:
            added = path - union
            join(i + 1, union | added, cost + sum((edges[e][3] for e in added), Fraction(0)))

    join(0, frozenset(), Fraction(0))
    return best[0]


def star_optimum(inst):
    """Exact optimum of a unit-length star instance, or None when infeasible.

    Steiner arborescence DP over the layered DAG with nodes (v, i),
    i = 0..L: an edge gives arcs (u, i) -> (v, i + 1) both ways, and
    (v, i) -> (v, i + 1) is free.  The root sits at layer 0 and every
    terminal at layer L.  A BFS tree of an optimal solution is such an
    arborescence, and an arborescence maps back to an edge set no dearer
    whose terminals lie within L hops, so the optima agree.  Costs are
    scaled to integers by the common denominator.
    """
    n, edges, L, demands = inst
    if any(e[2] != 1 for e in edges) or L.denominator != 1:
        raise ValueError("star_optimum needs unit lengths and an integer L")
    root = min(set(demands[0]).intersection(*map(set, demands[1:])))
    terminals = [t if s == root else s for s, t in demands]
    scale = math.lcm(*(e[3].denominator for e in edges))
    adj = [[] for _ in range(n)]
    for u, v, _, c in edges:
        adj[u].append((v, int(c * scale)))
        adj[v].append((u, int(c * scale)))
    full = (1 << len(terminals)) - 1
    masks = sorted(range(1, full + 1), key=lambda m: bin(m).count("1"))
    inf = math.inf
    # f[mask][v]: cheapest arborescence from (v, layer) reaching the mask's
    # terminals at layer L; start at layer L, where only a terminal itself counts
    f = [[inf] * n for _ in range(full + 1)]
    for k, t in enumerate(terminals):
        f[1 << k][t] = 0
    for _ in range(int(L)):
        nxt = f
        f = [[inf] * n for _ in range(full + 1)]
        for mask in masks:
            below, row = nxt[mask], f[mask]
            for v in range(n):
                best = below[v]
                for w, c in adj[v]:
                    if c + below[w] < best:
                        best = c + below[w]
                low = mask & -mask
                sub = (mask - 1) & mask
                while sub:
                    if sub & low and f[sub][v] + f[mask ^ sub][v] < best:
                        best = f[sub][v] + f[mask ^ sub][v]
                    sub = (sub - 1) & mask
                row[v] = best
    best = f[full][root]
    return None if best == inf else Fraction(best, scale)


def check_paths(inst, subset, paths):
    """Each path joins its demand inside the subset within L, and any two
    paths agree on the subpath between the vertices they share.

    ``paths`` is a list of (vertex tuple, edge tuple), one per demand.
    """
    _, edges, L, demands = inst
    for (s, t), (verts, eids) in zip(demands, paths):
        if {verts[0], verts[-1]} != {s, t} or len(set(verts)) != len(verts):
            raise CheckError(f"path for demand ({s},{t}) is not a simple s-t path")
        if len(eids) != len(verts) - 1:
            raise CheckError("path vertex and edge counts disagree")
        length = Fraction(0)
        for a, b, idx in zip(verts, verts[1:], eids):
            if idx not in subset or {edges[idx][0], edges[idx][1]} != {a, b}:
                raise CheckError(f"path for demand ({s},{t}) leaves the edge subset")
            length += edges[idx][2]
        if length > L:
            raise CheckError(f"path for demand ({s},{t}) is longer than L")
    for i, (vi, ei) in enumerate(paths):
        pos_i = {v: k for k, v in enumerate(vi)}
        for vj, ej in paths[i + 1:]:
            pos_j = {v: k for k, v in enumerate(vj)}
            shared = [pos_i[v] for v in vj if v in pos_i]
            if len(shared) < 2:
                continue
            lo, hi = min(shared), max(shared)
            a, b = pos_j[vi[lo]], pos_j[vi[hi]]
            seg_v, seg_e = vj[min(a, b):max(a, b) + 1], ej[min(a, b):max(a, b)]
            if a > b:
                seg_v, seg_e = seg_v[::-1], seg_e[::-1]
            if seg_v != vi[lo:hi + 1] or tuple(seg_e) != tuple(ei[lo:hi]):
                raise CheckError("two paths differ between vertices they share")
