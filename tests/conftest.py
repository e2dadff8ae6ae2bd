import random

import pytest

from slsn.core import DemandGraph, SlsnInstance, WeightedGraph


@pytest.fixture
def triangle_unit():
    """Triangle a-b-c with unit lengths and unit costs."""
    return WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)])


@pytest.fixture
def two_route():
    """Direct 0-2 edge (cost 5) vs two-edge route via 1 (cost 1+1)."""
    return WeightedGraph(3, [(0, 2, 1, 5), (0, 1, 1, 1), (1, 2, 1, 1)])


@pytest.fixture
def detour_graph():
    """Path 0-1-2 (costs 1,1) plus direct 0-2 (cost 3), unit lengths."""
    return WeightedGraph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 3)])


@pytest.fixture
def theta_graph():
    """Two demands that share a middle edge on a theta-shaped graph.

    0-2-3-1 is the shared spine (length 3); 0-4-1 and 0-5-1 are longer,
    more expensive side arcs (length 4 each).
    """
    edges = [
        (0, 2, 1, 1),
        (2, 3, 1, 1),
        (3, 1, 1, 1),
        (0, 4, 2, 4),
        (4, 1, 2, 4),
        (0, 5, 2, 4),
        (5, 1, 2, 4),
    ]
    return WeightedGraph(6, edges)


def make_instance(graph, L, pairs):
    return SlsnInstance(graph, L, DemandGraph(pairs))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def scaled_instance(inst, cost_factor=1, length_factor=1):
    """inst with every cost times cost_factor, and every length and L times
    length_factor."""
    g = inst.graph
    edges = [(e.u, e.v, e.length * length_factor, e.cost * cost_factor) for e in g.edges]
    return SlsnInstance(WeightedGraph(g.vertex_count, edges), inst.L * length_factor, inst.demands)


def with_edges(inst, extra=(), scale=1):
    """inst with extra edges appended and every cost multiplied by scale."""
    g = inst.graph
    edges = [(e.u, e.v, e.length, e.cost * scale) for e in g.edges] + list(extra)
    return SlsnInstance(WeightedGraph(g.vertex_count, edges), inst.L, inst.demands)


def cost_of(solution):
    return None if solution is None else solution.total_cost
