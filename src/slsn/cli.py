"""Command-line entry point: classify, solve, gadget, verify, oracle, bench.

Exit codes: 0 success, 1 parse/IO error, 2 hard-demand refusal,
3 infeasible instance.  Machine output is JSON on stdout; human-facing
notes (timings, hints) go to stderr.  Output bytes are deterministic for
fixed inputs and seeds; wall time is included in the JSON report only
when --timing is passed.

Each choice is named once: ``_SOLVERS`` makes the solve flags,
``_GADGET_CASES`` maps ``--case`` to its builder, and each subparser's
``run`` default is its handler.  Solvers and builders are looked up on their
modules per call, so a function swapped on its module after import runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
import time
from fractions import Fraction
from typing import Optional

from . import approx, exact_const, gadgets, oracle, star_dst
from .classifier import DemandClass, DemandClassKind, classify
from .core import (
    SlsnInstance,
    Solution,
    as_fraction,
    feasibility_check,
    format_rational,
)
from .formats import (
    dump_instance_json,
    dump_instance_text,
    load_instance,
    parse_demand_graph,
    parse_mcc,
    solution_from_json,
    solution_to_json,
)
from .generators import random_instance, random_unit_cost_instance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HARD = 2
EXIT_INFEASIBLE = 3


def _report(
    command: str,
    solver: Optional[str],
    solution: Optional[Solution],
    ratio_bound: Optional[str] = None,
    wall_time: Optional[float] = None,
    extra: Optional[dict] = None,
) -> dict:
    report: dict = {"command": command, "solver": solver}
    if solution is not None:
        report["feasible"] = True
        report["cost"] = format_rational(solution.total_cost)
        report["solution"] = solution_to_json(solution)
    else:
        report["feasible"] = False
    if ratio_bound is not None:
        report["ratio_bound"] = ratio_bound
    if solution is not None:
        # witness paths come from canonical_path_assignment: shortest in the subset
        report["demand_lengths"] = [format_rational(p.length) for p in solution.witness_paths]
    if wall_time is not None:
        report["wall_time_s"] = round(wall_time, 6)
    if extra:
        report.update(extra)
    return report


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _cmd_classify(args) -> int:
    instance = load_instance(args.instance)
    verdict = classify(instance.demands, args.k)
    if verdict.kind is DemandClassKind.STAR:
        out = {"class": "Star", "root": verdict.root}
        print(f"Star(root={verdict.root})")
    elif verdict.kind is DemandClassKind.BOUNDED:
        out = {"class": "Bounded", "edges": verdict.size}
        print(f"Bounded(p={verdict.size})")
    else:
        w = verdict.witness
        out = {
            "class": "Hard",
            "case": w.case_tag.value,
            "k": w.k,
            "vertex_map": {str(k_): v for k_, v in w.vertex_map.items()},
        }
        print(f"Hard(case={w.case_tag.value})")
        _emit(out)  # hard verdicts always carry their witness as JSON
        return EXIT_OK
    if args.json:
        _emit(out)
    return EXIT_OK


# the solver flags of `slsn solve`, each also the report's solver name
_SOLVERS = ("exact-const", "unit-cost", "star", "approx-const", "approx-star")


def _pick_solver(instance: SlsnInstance, args) -> tuple[str, Optional[DemandClass]]:
    """Solver name per flags or classification; second item is a hard verdict to refuse.

    A refused instance comes back as ("", verdict); otherwise the verdict is None.
    """
    forced = set(args.forced or [])  # a repeated flag counts once
    if len(forced) > 1:
        raise ValueError("choose at most one solver flag")
    if forced:
        return forced.pop(), None
    verdict = classify(instance.demands, args.k)
    unit_len = instance.graph.has_unit_lengths()
    if verdict.kind is DemandClassKind.STAR:
        return ("star" if unit_len else "approx-star"), None
    if verdict.kind is DemandClassKind.BOUNDED:
        if unit_len:
            return "exact-const", None
        if instance.graph.has_unit_costs() and instance.graph.has_integer_lengths():
            return "unit-cost", None
        return "approx-const", None
    if args.approx_anyway:
        return "approx-const", None
    return "", verdict


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    solver, hard = _pick_solver(instance, args)
    if hard is not None:
        w = hard.witness
        print(
            f"demand graph is hard (case {w.case_tag.value}); "
            "rerun with --approx-anyway to attempt it regardless",
            file=sys.stderr,
        )
        _emit(
            {
                "command": "solve",
                "refused": True,
                "case": w.case_tag.value,
                "vertex_map": {str(k_): v for k_, v in w.vertex_map.items()},
            }
        )
        return EXIT_HARD
    eps = as_fraction(args.eps) if args.eps else Fraction(1, 4)
    t0 = time.monotonic()
    ratio = extra = None
    exact = {
        "exact-const": exact_const.solve_unit_length,
        "unit-cost": exact_const.solve_unit_cost,
        "star": star_dst.solve_slst,
    }.get(solver)
    if exact is not None:
        solution = exact(instance)
    else:
        # one opt_low serves the solver and the report's opt_bracket
        bounds = approx.opt_low(instance)
        solve = approx.approx_const if solver == "approx-const" else approx.approx_star
        solution = solve(instance, eps, bounds=bounds)
        ratio = format_rational(1 + eps)
        if bounds is not None:
            n = instance.graph.vertex_count
            extra = {"opt_bracket": [format_rational(bounds.C), format_rational(bounds.C * n**2)]}
    wall = time.monotonic() - t0
    report = _report(
        "solve",
        solver,
        solution,
        ratio_bound=ratio,
        wall_time=wall if args.timing else None,
        extra=extra,
    )
    print(f"solver={solver} wall={wall:.3f}s", file=sys.stderr)
    if args.table:
        _print_table(report, instance, solution)
    else:
        _emit(report)
    return EXIT_OK if solution is not None else EXIT_INFEASIBLE


def _print_table(report: dict, instance: SlsnInstance, solution) -> None:
    rows = [("solver", report.get("solver", "")), ("feasible", report["feasible"])]
    if "cost" in report:
        rows.append(("cost", report["cost"]))
    if "ratio_bound" in report:
        rows.append(("ratio bound", report["ratio_bound"]))
    width = max(len(str(k)) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    if solution is not None:
        print(f"{'demand':<12} {'length':>8}  bound {format_rational(instance.L)}")
        for (s, t), length in zip(
            instance.demands.pairs, report.get("demand_lengths", [])
        ):
            print(f"{f'{s}-{t}':<12} {length or 'inf':>8}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --case -> (name of its gadgets builder, whether it takes a --demand-graph)
_GADGET_CASES = {
    "h0star": ("build_case1", False),
    "h1star": ("build_case2", False),
    "h2star": ("build_case3", False),
    "matching": ("build_case4", False),
    "bipartite": ("build_case5", True),
    "general": ("build_general", True),
}


def _cmd_gadget(args) -> int:
    n, edges, coloring, k = parse_mcc(_read(args.mcc))
    if args.k is not None and args.k != k:
        raise ValueError(f"--k {args.k} disagrees with MCC file k={k}")
    mcc = gadgets.MccInstance.build(n, edges, k, coloring)
    builder, needs_demand_graph = _GADGET_CASES[args.case]
    if needs_demand_graph and not args.demand_graph:
        raise ValueError(f"--case {args.case} needs --demand-graph")
    extra = [parse_demand_graph(_read(args.demand_graph))] if needs_demand_graph else []
    bundle = getattr(gadgets, builder)(mcc, *extra)
    if args.poly_cost:
        bundle = gadgets.apply_poly_cost(bundle, as_fraction(args.eps or "1"))
    text = dump_instance_json(bundle.instance) if args.json else dump_instance_text(
        bundle.instance
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    meta = {
        "case": bundle.case_tag.value,
        "k": bundle.k,
        "g": format_rational(bundle.g_value),
        "cost_flavor": bundle.cost_flavor.value,
        "L": format_rational(bundle.instance.L),
        "demands": bundle.demand_graph.size,
        "instance": args.output,
    }
    if args.emit_witness:
        clique = [int(x) for x in args.emit_witness.split(",")]
        solution = gadgets.witness_solution(bundle, clique)
        out = args.witness_out or args.output + ".witness.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(solution_to_json(solution), fh, indent=2)
            fh.write("\n")
        meta["witness"] = out
        meta["witness_cost"] = format_rational(solution.total_cost)
        report = gadgets.verify_structure(bundle, solution)
        meta["witness_structure_ok"] = report.all_ok
    _emit(meta)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    data = json.loads(_read(args.solution))
    try:
        solution = solution_from_json(instance, data)
    except ValueError as exc:
        _emit({"command": "verify", "feasible": False, "error": str(exc)})
        return EXIT_INFEASIBLE
    report = feasibility_check(instance, solution.edge_subset)
    out = {
        "command": "verify",
        "feasible": report.feasible,
        "cost": format_rational(solution.total_cost),
        "demand_lengths": [
            format_rational(d.length) if d.length is not None else None
            for d in report.per_demand
        ],
    }
    try:
        solution.validate(instance)
    except ValueError as exc:
        out["feasible"] = False
        out["error"] = str(exc)
    _emit(out)
    return EXIT_OK if out["feasible"] else EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    budget = oracle.OracleBudget(
        max_edges=args.max_edges, max_simple_paths=args.max_paths
    )
    if args.what == "slsn":
        instance = load_instance(args.instance)
        solution = oracle.brute_force_slsn(instance, budget)
        _emit(_report("oracle slsn", "brute-force", solution))
        return EXIT_OK if solution is not None else EXIT_INFEASIBLE
    if args.what == "path":
        instance = load_instance(args.instance)
        bound = as_fraction(args.bound) if args.bound else instance.L
        path = oracle.brute_force_restricted_path(
            instance.graph, args.source, args.target, bound, budget
        )
        if path is None:
            _emit({"command": "oracle path", "found": False})
            return EXIT_INFEASIBLE
        _emit(
            {
                "command": "oracle path",
                "found": True,
                "vertices": list(path.vertices),
                "length": format_rational(path.length),
                "cost": format_rational(path.cost),
            }
        )
        return EXIT_OK
    n, edges, coloring, k = parse_mcc(_read(args.instance))
    clique = oracle.brute_force_mcc(n, edges, k, coloring, budget)
    dense = oracle.densest_k_count(n, edges, k, coloring, budget)
    _emit(
        {
            "command": "oracle mcc",
            "clique": clique,
            "densest_count": dense,
        }
    )
    return EXIT_OK


# bench suite -> (instance generator, solver, solver name), in run order
_BENCH_SUITES = {
    "exact": (random_instance, exact_const.solve_unit_length, "exact-const"),
    "unit-cost": (random_unit_cost_instance, exact_const.solve_unit_cost, "unit-cost"),
    "star": (
        lambda rng: random_instance(rng, star=True),
        star_dst.solve_slst,
        "star-dst",
    ),
    "approx": (
        lambda rng: random_instance(rng, length_kind="rational", L_range=(2, 8)),
        lambda inst: approx.approx_const(inst, Fraction(1, 4)),
        "approx-const",
    ),
}


def _bench_rows(suite: str, trials: int, seed: int) -> list[dict]:
    generate, solve, solver = _BENCH_SUITES[suite]
    rng = random.Random(seed)
    rows = []
    for trial in range(trials):
        inst = generate(rng)
        t0 = time.monotonic()
        sol = solve(inst)
        wall = time.monotonic() - t0
        ref = oracle.brute_force_slsn(inst)
        rows.append(
            {
                "suite": suite,
                "trial": trial,
                "n": inst.graph.vertex_count,
                "m": inst.graph.edge_count,
                "p": inst.demands.size,
                "L": format_rational(inst.L),
                "solver": solver,
                "cost": format_rational(sol.total_cost) if sol else "",
                "oracle_cost": format_rational(ref.total_cost) if ref else "",
                "wall_time_s": f"{wall:.4f}",
            }
        )
    return rows


def _cmd_bench(args) -> int:
    if args.seed is None:
        raise ValueError("bench refuses to run without --seed (reproducibility)")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    suites = [args.suite] if args.suite else list(_BENCH_SUITES)
    rows = [row for s in suites for row in _bench_rows(s, args.trials, args.seed)]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slsn", description="shallow-light Steiner network toolkit"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", help="place a demand graph in the dichotomy")
    c.set_defaults(run=_cmd_classify)
    c.add_argument("instance")
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--json", action="store_true")

    s = sub.add_parser("solve", help="solve an instance, auto-selected or forced solver")
    s.set_defaults(run=_cmd_solve)
    s.add_argument("instance")
    for name in _SOLVERS:
        s.add_argument(f"--{name}", dest="forced", action="append_const", const=name)
    s.add_argument("--eps", help="rational accuracy for approximation solvers")
    s.add_argument("--approx-anyway", action="store_true")
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--timing", action="store_true", help="include wall time in JSON")
    s.add_argument("--table", action="store_true", help="human-readable table instead of JSON")

    g = sub.add_parser("gadget", help="generate a hardness gadget instance")
    g.set_defaults(run=_cmd_gadget)
    g.add_argument("--case", required=True, choices=_GADGET_CASES)
    g.add_argument("--k", type=int)
    g.add_argument("--mcc", required=True)
    g.add_argument("--poly-cost", action="store_true")
    g.add_argument("--eps")
    g.add_argument("--demand-graph")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--json", action="store_true", help="emit instance as JSON mirror")
    g.add_argument("--emit-witness", help="comma-separated clique, one vertex per color")
    g.add_argument("--witness-out")

    v = sub.add_parser("verify", help="check a solution file against an instance")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("instance")
    v.add_argument("--solution", required=True)

    o = sub.add_parser("oracle", help="exhaustive reference solvers")
    o.set_defaults(run=_cmd_oracle)
    o.add_argument("what", choices=["slsn", "path", "mcc"])
    o.add_argument("instance")
    o.add_argument("--source", type=int, default=0)
    o.add_argument("--target", type=int, default=1)
    o.add_argument("--bound")
    o.add_argument("--max-edges", type=int, default=16)
    o.add_argument("--max-paths", type=int, default=500_000)

    b = sub.add_parser("bench", help="seeded random suites, CSV output")
    b.set_defaults(run=_cmd_bench)
    b.add_argument("--seed", type=int, required=False)
    b.add_argument("--trials", type=int, default=20)
    b.add_argument("--suite", choices=_BENCH_SUITES)
    b.add_argument("--out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser dispatch uses, built on its first call, once per process."""
    return build_parser()


def dispatch(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, KeyError, oracle.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
