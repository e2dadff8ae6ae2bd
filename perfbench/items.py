"""What one item runs, and how its output is checked.

``run_*`` is the timed part: only calls into the program.  ``check_*``
runs outside the timed part and raises CheckError on a wrong output.
Each item also yields a signature, (route, exit code, cost, sorted edge
set), which the outputs digest covers and repeats of the item must match.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks
from checks import CheckError

# Desk items checked against oracle.brute_force_slsn as well, per stratum;
# every desk item is checked against the benchmark's own exact optimum.
ORACLE_ITEMS = 16


def run_gadget(slsn, item):
    """build -> witness -> feasibility -> canonical paths -> structure -> text round trip."""
    gadgets, formats, core = slsn.gadgets, slsn.formats, slsn.core
    case, clique = item.spec
    with open(item.path, encoding="utf-8") as fh:
        n, edges, coloring, k = formats.parse_mcc(fh.read())
    mcc = gadgets.MccInstance.build(n, edges, k, coloring)
    bundle = getattr(gadgets, f"build_case{case}")(mcc)
    witness = gadgets.witness_solution(bundle, clique)
    report = core.feasibility_check(bundle.instance, witness.edge_subset)
    paths = core.canonical_path_assignment(bundle.instance, witness.edge_subset)
    structure = gadgets.verify_structure(bundle, witness)
    text = formats.dump_instance_text(bundle.instance)
    parsed = formats.parse_instance(text)
    return bundle, witness, report, paths, structure, parsed


def gadget_signature(out):
    bundle, witness = out[0], out[1]
    return (bundle.case_tag.value, 0, str(witness.total_cost), tuple(sorted(witness.edge_subset)))


def check_gadget(out):
    """Check a gadget item's outputs."""
    bundle, witness, report, paths, structure, parsed = out
    inst = _as_tuple(bundle.instance)
    subset = witness.edge_subset
    if witness.total_cost != bundle.g_value or checks.subset_cost(inst, subset) != bundle.g_value:
        raise CheckError(f"witness cost {witness.total_cost} is not g = {bundle.g_value}")
    if not structure.all_ok:
        raise CheckError(f"verify_structure failed: {structure.failures()[0].detail}")
    lengths = checks.demand_lengths(inst, subset)
    if any(d is None or d > inst[2] for d in lengths):
        raise CheckError("witness edges do not satisfy every demand within L")
    if not report.feasible or [d.length for d in report.per_demand] != lengths:
        raise CheckError("feasibility_check disagrees with the reference lengths")
    checks.check_paths(inst, subset, [(p.vertices, p.edges) for p in paths])
    if _as_tuple(parsed) != inst:
        raise CheckError("text dump and parse do not round-trip the instance")


def _as_tuple(instance):
    g = instance.graph
    edges = [(e.u, e.v, e.length, e.cost) for e in g.edges]
    return (g.vertex_count, edges, instance.L, list(instance.demands.pairs))


def run_solve(slsn, item):
    """``slsn solve <file>`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = slsn.cli.dispatch(["solve", item.path])
    return code, out.getvalue()


def solve_signature(out):
    code, stdout = out
    if code not in (0, 3):
        return (None, code, None, ())
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"solve printed no JSON report: {exc}") from exc
    if not report.get("feasible"):
        return (report.get("solver"), code, None, ())
    return (report["solver"], code, report["cost"], tuple(report["solution"]["edges"]))


def check_solve(slsn, item, out):
    """Check a solve item against a reference."""
    route, code, cost, edges = solve_signature(out)
    report = json.loads(out[1])
    inst = item.spec
    if route != item.route:
        raise CheckError(f"routed to {route}, expected {item.route}")
    ref = _reference(slsn, item)
    if ref is None:
        if code != 3 or cost is not None:
            raise CheckError(f"reference says infeasible, got exit {code}")
        return
    if code != 0 or cost is None:
        raise CheckError(f"reference says feasible, got exit {code}")
    cost = Fraction(cost)
    if not checks.is_feasible(inst, edges):
        raise CheckError("returned edges miss a demand or exceed L")
    if checks.subset_cost(inst, edges) != cost:
        raise CheckError("reported cost is not the cost of the returned edges")
    kind, value = ref
    if route in ("approx-const", "approx-star"):
        eps = Fraction(report["ratio_bound"]) - 1
        C = checks.cost_threshold(inst)
        n2 = inst[0] ** 2
        if [Fraction(x) for x in report["opt_bracket"]] != [C, n2 * C]:
            raise CheckError("opt_bracket disagrees with the reference cost threshold")
        low, high = (value, (1 + eps) * value) if kind == "opt" else (C, (1 + eps) * n2 * C)
        if not low <= cost <= high:
            raise CheckError(f"approximate cost {cost} outside [{low}, {high}]")
    elif cost != value:
        raise CheckError(f"cost {cost} is not the optimum {value}")


def _reference(slsn, item):
    """None when infeasible, else ("opt", optimum) or ("bracket", None)."""
    inst = item.spec
    if item.stratum.startswith("desk"):
        opt = checks.exact_optimum(inst) if checks.is_feasible(inst) else None
        if item.index < ORACLE_ITEMS:
            best = slsn.oracle.brute_force_slsn(_instance(slsn, inst))
            if (None if best is None else best.total_cost) != opt:
                raise CheckError("oracle and reference optimum disagree")
        return None if opt is None else ("opt", opt)
    if not checks.is_feasible(inst):
        return None
    if item.stratum == "scale-star":
        return ("opt", checks.star_optimum(inst))
    if item.stratum == "scale-approx-star":
        return ("bracket", None)
    return ("opt", checks.exact_optimum(inst))


def _instance(slsn, inst):
    n, edges, L, demands = inst
    core = slsn.core
    return core.SlsnInstance(core.WeightedGraph(n, edges), L, core.DemandGraph(demands))
