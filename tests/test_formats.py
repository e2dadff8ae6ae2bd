import json
import random
from fractions import Fraction

import pytest

from slsn.approx import approx_const, approx_star
from slsn.core import DemandGraph, SlsnInstance, WeightedGraph, format_rational
from slsn.formats import (
    dump_instance_json,
    dump_instance_text,
    dump_mcc,
    parse_instance,
    parse_mcc,
    solution_from_json,
    solution_to_json,
)
from slsn.gadgets import MccInstance, apply_poly_cost, build_case1, build_case4
from slsn.oracle import brute_force_slsn

SAMPLE = """\
slsn 1
# a three vertex chain with a shortcut
3 3 1
3/2
0 1 1 1
1 2 1 1
0 2 1 3
0 2
"""


def test_parse_text():
    inst = parse_instance(SAMPLE)
    assert inst.graph.vertex_count == 3
    assert inst.graph.edge_count == 3
    assert inst.L == Fraction(3, 2)
    assert inst.demands.pairs == ((0, 2),)


def test_text_round_trip():
    inst = parse_instance(SAMPLE)
    again = parse_instance(dump_instance_text(inst))
    assert dump_instance_text(again) == dump_instance_text(inst)


def per_edge_text(instance):
    """dump_instance_text formatting every edge's length and cost anew."""
    g = instance.graph
    lines = ["slsn 1", f"{g.vertex_count} {g.edge_count} {instance.demands.size}"]
    lines.append(format_rational(instance.L))
    for e in g.edges:
        lines.append(f"{e.u} {e.v} {format_rational(e.length)} {format_rational(e.cost)}")
    lines += [f"{s} {t}" for s, t in instance.demands.pairs]
    return "\n".join(lines) + "\n"


def test_text_formats_each_value_as_each_edge_would():
    mcc = MccInstance.build(3, [(0, 1), (0, 2), (1, 2)], 3, {0: 1, 1: 2, 2: 3})
    gadgets = [build(mcc) for build in (build_case1, build_case4)]
    gadgets += [apply_poly_cost(b, 1) for b in gadgets]
    rng = random.Random(77)
    rational = SlsnInstance(
        WeightedGraph(6, [
            (*rng.sample(range(6), 2), Fraction(rng.randint(1, 9), rng.randint(1, 6)),
             Fraction(rng.randint(0, 9), rng.randint(1, 4)))
            for _ in range(14)
        ]),
        Fraction(7, 3),
        DemandGraph([(0, 5), (1, 4)]),
    )
    instances = [b.instance for b in gadgets] + [rational]
    assert max(gadgets[-1].instance.graph.int_costs) > 1  # poly costs
    assert rational.graph.length_denominator > 1 and rational.graph.cost_denominator > 1
    for inst in instances:
        assert dump_instance_text(inst) == per_edge_text(inst)


def test_json_mirror_round_trip():
    inst = parse_instance(SAMPLE)
    blob = dump_instance_json(inst)
    again = parse_instance(blob)
    assert dump_instance_text(again) == dump_instance_text(inst)
    data = json.loads(blob)
    assert data["version"] == 1 and data["L"] == "3/2"


def test_labels_survive_json():
    g = WeightedGraph(2, [(0, 1, 1, 1)], labels=["r", "l_{1,2}"])
    inst = SlsnInstance(g, 1, DemandGraph([(0, 1)]))
    again = parse_instance(dump_instance_json(inst))
    assert again.graph.labels == ("r", "l_{1,2}")


def test_missing_header_rejected():
    with pytest.raises(ValueError):
        parse_instance("3 3 1\n2\n0 1 1 1\n")


@pytest.mark.parametrize(
    "field, value",
    [("demands", [[1.5, 2]]), ("demands", [[0, True]]), ("n", 3.0),
     ("edges", [{"u": 0.0, "v": 1, "len": "1", "cost": "1"}])],
    ids=["demand-float", "demand-bool", "n-float", "edge-float"],
)
def test_json_vertex_ids_must_be_integers(field, value):
    data = json.loads(dump_instance_json(parse_instance(SAMPLE)))
    data[field] = value
    with pytest.raises(ValueError, match="malformed instance JSON"):
        parse_instance(json.dumps(data))


@pytest.mark.parametrize("field", ["len", "cost", "L"])
def test_json_numbers_are_not_booleans(field):
    data = json.loads(dump_instance_json(parse_instance(SAMPLE)))
    if field == "L":
        data["L"] = True
    else:
        data["edges"][0][field] = field == "len"
    with pytest.raises(ValueError, match="malformed instance JSON"):
        parse_instance(json.dumps(data))


def test_mcc_round_trip():
    text = dump_mcc(3, [(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3}, 3)
    n, edges, coloring, k = parse_mcc(text)
    assert (n, k) == (3, 3)
    assert edges == [(0, 1), (1, 2)]
    assert coloring == {0: 1, 1: 2, 2: 3}


def test_solution_round_trip():
    inst = parse_instance(SAMPLE.replace("3/2", "2"))
    sol = brute_force_slsn(inst)
    data = solution_to_json(sol)
    back = solution_from_json(inst, data)
    assert back.total_cost == sol.total_cost
    assert back.edge_subset == sol.edge_subset


def test_solution_rejects_cost_mismatch():
    inst = parse_instance(SAMPLE.replace("3/2", "2"))
    sol = brute_force_slsn(inst)
    data = solution_to_json(sol)
    data["cost"] = "999"
    with pytest.raises(ValueError):
        solution_from_json(inst, data)


def test_solution_rejects_broken_path():
    inst = parse_instance(SAMPLE.replace("3/2", "2"))
    sol = brute_force_slsn(inst)
    data = solution_to_json(sol)
    data["paths"] = [[0, 2]]  # edge 0-2 is not in the chosen subset
    with pytest.raises(ValueError):
        solution_from_json(inst, data)


def _parallel_edge_instance(rng, star):
    """A small instance whose vertex pairs carry one or two edges of random
    length; costs 0 and 1 make the longer of two parallel edges often the
    cheaper, or as cheap."""
    n = rng.randint(3, 4)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            for _ in range(rng.randint(1, 2)):
                edges.append((u, v, Fraction(rng.randint(1, 6), 2), rng.randint(0, 1)))
    if star:
        pairs = [(0, t) for t in range(1, rng.randint(2, n))]
    else:
        pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], rng.randint(1, 2))
    return SlsnInstance(WeightedGraph(n, edges), Fraction(rng.randint(2, 8), 2), DemandGraph(pairs))


def test_solver_output_survives_json_round_trip():
    # a solver may keep two parallel edges and route over the shorter one
    # whatever their costs; the rebuilt witness paths must still fit L
    rng = random.Random(11)
    for solver, star in ((approx_const, False), (approx_star, True)):
        solved = 0
        for _ in range(120):
            inst = _parallel_edge_instance(rng, star)
            sol = solver(inst, Fraction(1, 4))
            if sol is None:
                continue
            solved += 1
            back = solution_from_json(inst, solution_to_json(sol))
            back.validate(inst)
            assert back.edge_subset == sol.edge_subset
            assert [p.length for p in back.witness_paths] == [p.length for p in sol.witness_paths]
        assert solved >= 40
