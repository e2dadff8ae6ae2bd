"""Serialization for instances, MCC inputs, and solutions.

Instance text format (version header ``slsn 1``)::

    slsn 1
    # comment lines are allowed anywhere
    n m p
    L                  # rational as num/den or integer
    u v length cost    # m edge lines
    s t                # p demand lines

Vertex ids are 0-based.  A JSON mirror with fields
``{version, n, L, edges: [{u, v, len, cost}], demands: [[s, t]]}`` is
accepted and emitted interchangeably; readers sniff the leading character.

MCC file format (version header ``mcc 1``)::

    mcc 1
    n m k
    u v        # m edge lines
    v color    # n coloring lines, colors 1..k

A demand-graph file holds one ``s t`` pair per line, ``#`` comments allowed.
Readers hand lengths, costs and L to ``WeightedGraph`` and ``SlsnInstance``
as read, and those convert them to Fractions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TextIO, Union

from .core import (
    DemandGraph,
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    as_fraction,
    format_rational,
)


def _is_int_list(value) -> bool:
    """A JSON list of integers; bools do not count as integers."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_instance(text: str) -> SlsnInstance:
    """Parse either the text format or the JSON mirror."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _instance_from_json(json.loads(text))
    lines = _content_lines(text)
    if not lines or lines[0].split() != ["slsn", "1"]:
        raise ValueError("missing 'slsn 1' version header")
    try:
        n, m, p = (int(x) for x in lines[1].split())
        edges = []
        for i in range(m):
            u, v, length, cost = lines[3 + i].split()
            edges.append((int(u), int(v), length, cost))
        demands = []
        for i in range(p):
            s, t = lines[3 + m + i].split()
            demands.append((int(s), int(t)))
        return SlsnInstance(WeightedGraph(n, edges), lines[2], DemandGraph(demands))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed instance file: {exc}") from exc


def _instance_from_json(data: dict) -> SlsnInstance:
    if data.get("version") != 1:
        raise ValueError("instance JSON must declare version 1")
    try:
        edges = [(e["u"], e["v"], e["len"], e["cost"]) for e in data["edges"]]
        demands = [tuple(pair) for pair in data["demands"]]
        ids = [data["n"], *(x for e in edges for x in e[:2]), *(x for d in demands for x in d)]
        if not _is_int_list(ids):
            raise TypeError("n and vertex ids must be integers")
        graph = WeightedGraph(data["n"], edges, data.get("labels"))
        return SlsnInstance(graph, data["L"], DemandGraph(demands))
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed instance JSON: {exc}") from exc


def dump_instance_text(instance: SlsnInstance) -> str:
    """The text format, each distinct length and cost (by integer view) formatted once."""
    g = instance.graph
    lines = ["slsn 1", f"{g.vertex_count} {g.edge_count} {instance.demands.size}"]
    lines.append(format_rational(instance.L))
    lengths = {x: format_rational(Fraction(x, g.length_denominator)) for x in set(g.int_lengths)}
    costs = {x: format_rational(Fraction(x, g.cost_denominator)) for x in set(g.int_costs)}
    for e, length, cost in zip(g.edges, g.int_lengths, g.int_costs):
        lines.append(f"{e.u} {e.v} {lengths[length]} {costs[cost]}")
    for s, t in instance.demands.pairs:
        lines.append(f"{s} {t}")
    return "\n".join(lines) + "\n"


def dump_instance_json(instance: SlsnInstance) -> str:
    g = instance.graph
    data = {
        "version": 1,
        "n": g.vertex_count,
        "L": format_rational(instance.L),
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "len": format_rational(e.length),
                "cost": format_rational(e.cost),
            }
            for e in g.edges
        ],
        "demands": [[s, t] for s, t in instance.demands.pairs],
    }
    if any(lab is not None for lab in g.labels):
        data["labels"] = list(g.labels)
    return json.dumps(data, indent=2) + "\n"


def load_instance(path_or_file: Union[str, TextIO]) -> SlsnInstance:
    if hasattr(path_or_file, "read"):
        return parse_instance(path_or_file.read())
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def parse_mcc(text: str) -> "tuple[int, list[tuple[int, int]], dict[int, int], int]":
    """Parse an MCC file; returns (n, edges, coloring, k)."""
    lines = _content_lines(text)
    if not lines or lines[0].split() != ["mcc", "1"]:
        raise ValueError("missing 'mcc 1' version header")
    try:
        n, m, k = (int(x) for x in lines[1].split())
        edges = []
        for i in range(m):
            u, v = (int(x) for x in lines[2 + i].split())
            edges.append((u, v))
        coloring: dict[int, int] = {}
        for i in range(n):
            v, color = (int(x) for x in lines[2 + m + i].split())
            coloring[v] = color
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed MCC file: {exc}") from exc
    return n, edges, coloring, k


def parse_demand_graph(text: str) -> DemandGraph:
    """Parse a demand-graph file: one ``s t`` pair per content line."""
    try:
        return DemandGraph((int(s), int(t)) for s, t in map(str.split, _content_lines(text)))
    except ValueError as exc:
        raise ValueError(f"malformed demand graph file: {exc}") from exc


def dump_mcc(n: int, edges: list[tuple[int, int]], coloring: dict[int, int], k: int) -> str:
    lines = ["mcc 1", f"{n} {len(edges)} {k}"]
    for u, v in edges:
        lines.append(f"{u} {v}")
    for v in range(n):
        lines.append(f"{v} {coloring[v]}")
    return "\n".join(lines) + "\n"


def solution_to_json(solution: Solution) -> dict:
    return {
        "cost": format_rational(solution.total_cost),
        "edges": sorted(solution.edge_subset),
        "paths": [list(p.vertices) for p in solution.witness_paths],
    }


def solution_from_json(instance: SlsnInstance, data: dict) -> Solution:
    """Rebuild a Solution from its JSON form against a known instance.

    Witness edge indices are recovered by matching consecutive vertices to
    the shortest edge of the subset joining them (lowest index on ties).
    The solution's cost is that of its edge subset whichever parallel edge
    a path names, so the shortest one gives each path its least length: a
    path that fits L on some choice of parallel edges fits it on this one.
    """
    seqs = data.get("paths") if isinstance(data, dict) else None
    if not (isinstance(seqs, list) and all(map(_is_int_list, seqs))
            and _is_int_list(data.get("edges")) and type(data.get("cost")) in (str, int)):
        raise ValueError("malformed solution JSON: want an object with a str or int "
                         "cost, an int list of edges and int lists as paths")
    subset = frozenset(data["edges"])
    graph = instance.graph
    by_pair: dict[tuple[int, int], list[int]] = {}
    for idx in subset:
        if not 0 <= idx < graph.edge_count:
            raise ValueError(f"invalid edge index {idx}")
        e = graph.edges[idx]
        by_pair.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(idx)
    paths = []
    for seq in seqs:
        edge_seq = []
        for a, b in zip(seq, seq[1:]):
            candidates = by_pair.get((min(a, b), max(a, b)))
            if not candidates:
                raise ValueError(f"no subset edge joins {a} and {b}")
            edge_seq.append(min(candidates, key=lambda i: (graph.int_lengths[i], i)))
        paths.append(Path.from_edge_sequence(graph, seq, edge_seq))
    declared = as_fraction(data["cost"])
    actual = graph.total_cost(subset)
    if declared != actual:
        raise ValueError(
            f"declared cost {declared} does not match edge subset cost {actual}"
        )
    return Solution(subset, tuple(paths), actual)
