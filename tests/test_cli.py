import json

import pytest

from slsn import approx, exact_const, gadgets, star_dst
from slsn.cli import dispatch

TRI = """\
slsn 1
3 3 1
2
0 1 1 1
1 2 1 1
0 2 1 3
0 2
"""

PAIR_DEMANDS = """\
slsn 1
4 4 2
2
0 1 1 2
1 2 1 1
2 3 1 1
0 3 1 5
0 2
1 3
"""

MCC_YES = """\
mcc 1
2 1 2
0 1
0 1
1 2
"""


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.slsn"
    path.write_text(TRI)
    return str(path)


@pytest.fixture
def mcc_file(tmp_path):
    path = tmp_path / "yes.mcc"
    path.write_text(MCC_YES)
    return str(path)


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out


def test_classify_star(capsys, tri_file):
    code, out = run(capsys, ["classify", tri_file])
    assert code == 0 and "Star(root=0)" in out


def test_solve_auto_selects_and_verifies(capsys, tmp_path, tri_file):
    code, out = run(capsys, ["solve", tri_file])
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["solver"] == "star" and report["cost"] == "2"
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(json.dumps(report["solution"]))
    code2, out2 = run(capsys, ["verify", tri_file, "--solution", str(sol_file)])
    assert code2 == 0
    assert json.loads(out2)["feasible"] is True


def test_solve_exact_const_on_pairs(capsys, tmp_path):
    inst = tmp_path / "pairs.slsn"
    inst.write_text(PAIR_DEMANDS)
    code, out = run(capsys, ["solve", str(inst)])
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["solver"] == "exact-const"
    # oracle agreement
    code2, out2 = run(capsys, ["oracle", "slsn", str(inst)])
    assert json.loads(out2[out2.index("{"):])["cost"] == report["cost"]


def test_solve_deterministic_bytes(capsys, tri_file):
    _, out1 = run(capsys, ["solve", tri_file])
    _, out2 = run(capsys, ["solve", tri_file])
    assert out1 == out2


@pytest.mark.parametrize("flags", [[], ["--approx-const"]])
def test_solve_timing_adds_only_wall_time(capsys, tri_file, flags):
    _, plain = run(capsys, ["solve", tri_file, *flags])
    _, timed = run(capsys, ["solve", tri_file, *flags, "--timing"])
    plain, timed = json.loads(plain), json.loads(timed)
    assert "wall_time_s" not in plain
    assert isinstance(timed.pop("wall_time_s"), float)
    assert timed == plain


def test_solve_table_prints_rows_not_json(capsys, tmp_path):
    inst = tmp_path / "pairs.slsn"
    inst.write_text(PAIR_DEMANDS)
    code, out = run(capsys, ["solve", str(inst), "--table"])
    assert code == 0 and "{" not in out
    rows = [line.split() for line in out.splitlines()]
    assert rows[:3] == [["solver", "exact-const"], ["feasible", "True"], ["cost", "4"]]
    assert rows[3][0] == "demand"
    assert rows[4:] == [["0-2", "2"], ["1-3", "2"]]


def test_solve_infeasible_exit_code(capsys, tmp_path):
    inst = tmp_path / "inf.slsn"
    # single edge of length 2 with L=1: infeasible
    inst.write_text("slsn 1\n2 1 1\n1\n0 1 2 1\n0 1\n")
    code, out = run(capsys, ["solve", str(inst), "--approx-const", "--eps", "1/4"])
    assert code == 3


def test_hard_demand_refusal(capsys, tmp_path):
    # matching of 8192 edges on 16384 vertices: hard for k=2
    n = 2 * 8192
    lines = ["slsn 1", f"{n} 1 8192", "1", "0 1 1 1"]
    lines += [f"{2*i} {2*i+1}" for i in range(8192)]
    inst = tmp_path / "hard.slsn"
    inst.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, ["classify", str(inst)])
    assert code == 0 and "Hard(case=matching)" in out
    code2, out2 = run(capsys, ["solve", str(inst)])
    assert code2 == 2
    assert json.loads(out2[out2.index("{"):])["refused"] is True


def test_gadget_flow_with_witness(capsys, tmp_path, mcc_file):
    out_file = tmp_path / "g.slsn"
    code, out = run(
        capsys,
        [
            "gadget",
            "--case",
            "h0star",
            "--k",
            "2",
            "--mcc",
            mcc_file,
            "-o",
            str(out_file),
            "--emit-witness",
            "0,1",
        ],
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["g"] == "43" and meta["witness_cost"] == "43"
    assert meta["witness_structure_ok"] is True
    code2, out2 = run(
        capsys, ["verify", str(out_file), "--solution", meta["witness"]]
    )
    assert code2 == 0 and json.loads(out2)["feasible"] is True


def test_verify_tampered_witness_fails(capsys, tmp_path, mcc_file):
    out_file = tmp_path / "g.slsn"
    code, out = run(
        capsys,
        [
            "gadget", "--case", "h0star", "--k", "2", "--mcc", mcc_file,
            "-o", str(out_file), "--emit-witness", "0,1",
        ],
    )
    meta = json.loads(out)
    with open(meta["witness"]) as fh:
        sol = json.load(fh)
    sol["edges"] = sol["edges"][:-2]  # drop edges: some witness path breaks
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sol))
    code2, _ = run(capsys, ["verify", str(out_file), "--solution", str(bad)])
    assert code2 == 3


def test_gadget_poly_cost(capsys, tmp_path, mcc_file):
    out_file = tmp_path / "gp.slsn"
    code, out = run(
        capsys,
        [
            "gadget", "--case", "h0star", "--k", "2", "--mcc", mcc_file,
            "--poly-cost", "--eps", "1", "-o", str(out_file),
        ],
    )
    assert code == 0
    assert json.loads(out)["g"] == "232"


def test_bench_requires_seed(capsys):
    code = dispatch(["bench", "--trials", "1"])
    assert code == 1


def test_bench_without_seed_is_an_error_line(capsys):
    code = dispatch(["bench", "--trials", "1"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "error: bench refuses to run without --seed (reproducibility)\n"


def test_bench_csv(capsys):
    code, out = run(capsys, ["bench", "--seed", "5", "--trials", "2", "--suite", "exact"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("suite,trial,n,m,p,L,solver,cost")
    assert len(lines) == 3
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[7] == cols[8]  # solver cost equals oracle cost


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.slsn"
    bad.write_text("not an instance\n")
    code = dispatch(["solve", str(bad)])
    assert code == 1


@pytest.mark.parametrize(
    "text, flags",
    [
        ("slsn 1\n2 1 1\n1/0\n0 1 1 1\n0 1\n", []),
        ("slsn 1\n2 1 1\n1\n0 1 1/0 1\n0 1\n", []),
        (TRI, ["--approx-const", "--eps", "1/0"]),
    ],
    ids=["L", "length", "eps"],
)
def test_zero_denominator_is_an_error_line(capsys, tmp_path, text, flags):
    inst = tmp_path / "zero.slsn"
    inst.write_text(text)
    code = dispatch(["solve", str(inst), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_star_solver_refuses_non_unit_lengths(capsys, tmp_path):
    inst = tmp_path / "long.slsn"
    inst.write_text(TRI.replace("1 2 1 1", "1 2 2 1"))
    code = dispatch(["solve", str(inst), "--star"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "text, solver",
    [
        ("slsn 1\n4 3 2\n2\n0 1 1/2 0\n1 2 1 0\n2 3 1/2 0\n0 1\n2 3\n", "approx-const"),
        ("slsn 1\n3 2 1\n2\n0 1 1/2 0\n1 2 1 0\n0 2\n", "approx-star"),
    ],
    ids=["two-demands", "single-demand"],
)
def test_zero_cost_optimum(capsys, tmp_path, text, solver):
    # zero-cost edges alone are feasible, so opt_low's C is 0 and so is OPT
    inst = tmp_path / "free.slsn"
    inst.write_text(text)
    code, out = run(capsys, ["solve", str(inst)])
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == solver and report["cost"] == "0"


@pytest.mark.parametrize("flag", ["--approx-const", "--approx-star"])
def test_edgeless_approx_solve_is_infeasible(capsys, tmp_path, flag):
    inst = tmp_path / "edgeless.slsn"
    inst.write_text("slsn 1\n3 0 1\n1\n0 2\n")
    code, out = run(capsys, ["solve", str(inst), flag])
    assert code == 3
    report = json.loads(out)
    assert report["feasible"] is False and "opt_bracket" not in report


@pytest.mark.parametrize("index", [3, -1], ids=["m", "minus-one"])
def test_verify_rejects_out_of_range_edge_index(capsys, tmp_path, tri_file, index):
    # TRI has m = 3 edges; edge 2 joins 0 and 2 at cost 3, which -1 would wrap to
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"cost": "3", "edges": [index], "paths": [[0, 2]]}))
    code, out = run(capsys, ["verify", tri_file, "--solution", str(sol)])
    assert code == 3
    report = json.loads(out)
    assert report["feasible"] is False and "invalid edge index" in report["error"]


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("only.mcc", "mcc 1\n",
         ["gadget", "--case", "h0star", "--k", "2", "-o", "{tmp}/g.slsn", "--mcc"]),
        ("short.mcc", "mcc 1\n2 1 2\n0 1\n0 1\n", ["oracle", "mcc"]),
        ("n.json", '{"version": 1, "n": "3", "L": "2", "edges": [], "demands": [[0, 2]]}',
         ["solve"]),
        ("u.json", '{"version": 1, "n": 3, "L": "2", "edges": [{"u": "0", "v": 1, '
         '"len": "1", "cost": "1"}], "demands": [[0, 2]]}', ["classify"]),
    ],
    ids=["mcc-header-only", "mcc-short-coloring", "json-n-string", "json-u-string"],
)
def test_malformed_input_is_an_error_line(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    code = dispatch([*(a.format(tmp=tmp_path) for a in argv), str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_then_verify_with_unequal_parallel_edges(capsys, tmp_path):
    # two zero-cost parallel edges of lengths 2 and 1 under L = 1: the
    # solution keeps both, and only the shorter one fits
    inst = tmp_path / "parallel.slsn"
    inst.write_text("slsn 1\n2 2 1\n1\n0 1 2 0\n0 1 1 0\n0 1\n")
    code, out = run(capsys, ["solve", str(inst), "--approx-const"])
    report = json.loads(out)
    assert code == 0 and report["solution"]["edges"] == [0, 1]
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(report["solution"]))
    code2, out2 = run(capsys, ["verify", str(inst), "--solution", str(sol)])
    assert code2 == 0
    assert json.loads(out2) == {
        "command": "verify", "feasible": True, "cost": "0", "demand_lengths": ["1"]}


@pytest.mark.parametrize(
    "paths, error",
    [([[1]], "witness path does not join demand (0,2)"),
     ([], "one witness path required per demand")],
    ids=["unjoined", "missing"],
)
def test_verify_checks_witness_paths(capsys, tmp_path, tri_file, paths, error):
    # edge 2 alone meets demand (0,2) within L, but the paths do not show it
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"cost": "3", "edges": [2], "paths": paths}))
    code, out = run(capsys, ["verify", tri_file, "--solution", str(sol)])
    assert code == 3
    assert json.loads(out) == {
        "command": "verify", "feasible": False, "cost": "3", "demand_lengths": ["1"],
        "error": error}


@pytest.mark.parametrize(
    "data",
    [
        {"cost": "3", "edges": 5, "paths": []},
        {"cost": "3", "edges": [2], "paths": 3},
        [{"cost": "3", "edges": [2], "paths": [[0, 2]]}],
        {"cost": 2.0, "edges": [0, 1], "paths": [[0, 1, 2]]},
        {"cost": "3", "edges": [2.5], "paths": [[0, 2]]},
        {"cost": "2", "edges": [0, True], "paths": [[0, 1, 2]]},
    ],
    ids=["edges-int", "paths-int", "top-level-list", "cost-float", "edge-float", "edge-bool"],
)
def test_verify_rejects_malformed_solution_json(capsys, tmp_path, tri_file, data):
    # the last two would otherwise read as the feasible edges {2} and {0, 1}
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(data))
    code, out = run(capsys, ["verify", tri_file, "--solution", str(sol)])
    assert code == 3
    report = json.loads(out)
    assert report["feasible"] is False
    assert report["error"].startswith("malformed solution JSON:")


def test_gadget_reads_demand_graph_file(capsys, tmp_path, mcc_file):
    dg = tmp_path / "h.txt"
    dg.write_text("# K_{2,2}\n0 2\n0 3\n1 2\n1 3\n")
    argv = ["gadget", "--case", "bipartite", "--k", "2", "--mcc", mcc_file,
            "-o", str(tmp_path / "g.slsn"), "--demand-graph", str(dg)]
    code, out = run(capsys, argv + ["--emit-witness", "0,1"])
    assert code == 0 and json.loads(out)["witness_structure_ok"] is True
    dg.write_text("0 2\n0\n")
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("error: malformed demand graph file:")


def test_dispatch_resolves_functions_per_call(capsys, tmp_path, tri_file, mcc_file, monkeypatch):
    # a function swapped on its module after import must be the one dispatch runs
    reached = []

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            reached.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    record(exact_const, "solve_unit_length")
    record(star_dst, "solve_slst")
    record(approx, "approx_const")
    record(gadgets, "build_case1")
    pairs = tmp_path / "pairs.slsn"
    pairs.write_text(PAIR_DEMANDS)
    assert dispatch(["solve", str(pairs)]) == 0
    assert dispatch(["solve", tri_file]) == 0
    assert dispatch(["solve", tri_file, "--approx-const"]) == 0
    argv = ["gadget", "--case", "h0star", "--mcc", mcc_file, "-o", str(tmp_path / "g.slsn")]
    assert dispatch(argv) == 0
    assert reached == ["solve_unit_length", "solve_slst", "approx_const", "build_case1"]


def test_two_solver_flags_are_an_error_line(capsys, tri_file):
    code = dispatch(["solve", tri_file, "--star", "--exact-const"])
    assert code == 1
    assert capsys.readouterr().err == "error: choose at most one solver flag\n"


def test_forced_solver_does_not_carry_to_the_next_dispatch(capsys, tmp_path, tri_file):
    pairs = tmp_path / "pairs.slsn"
    pairs.write_text(PAIR_DEMANDS)
    code, out = run(capsys, ["solve", tri_file, "--star"])
    assert code == 0 and json.loads(out)["solver"] == "star"
    code, out = run(capsys, ["solve", str(pairs)])
    assert code == 0 and json.loads(out)["solver"] == "exact-const"


def test_dispatch_after_an_argparse_refusal(capsys, tri_file):
    with pytest.raises(SystemExit) as exc:
        dispatch(["solve", tri_file, "--no-such-flag"])
    assert exc.value.code == 2
    code, out = run(capsys, ["solve", tri_file])
    report = json.loads(out)
    assert code == 0 and report["solver"] == "star" and report["cost"] == "2"


def test_two_solver_flags_after_single_flag_calls(capsys, tri_file):
    for flag in ("--star", "--exact-const"):
        assert run(capsys, ["solve", tri_file, flag])[0] == 0
    code = dispatch(["solve", tri_file, "--star", "--exact-const"])
    assert code == 1
    assert capsys.readouterr().err == "error: choose at most one solver flag\n"


def test_repeated_solver_flag_counts_once(capsys, tri_file):
    code, out = run(capsys, ["solve", tri_file, "--star", "--star"])
    assert code == 0 and json.loads(out)["solver"] == "star"


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch([])
    assert exc.value.code == 2


PATH_3 = "slsn 1\n3 2 1\n2\n0 1 1 1\n1 2 1 1\n0 2\n"  # the path 0-1-2


@pytest.mark.parametrize(
    "ends, bad",
    [(["--source", "9"], "9"), (["--target", "9"], "9"),
     (["--source", "9", "--target", "9"], "9"), (["--source", "-1", "--target", "2"], "-1")],
    ids=["source", "target", "both", "negative-source"],
)
def test_oracle_path_rejects_endpoints_outside_the_graph(capsys, tmp_path, ends, bad):
    inst = tmp_path / "path.slsn"
    inst.write_text(PATH_3)
    code = dispatch(["oracle", "path", str(inst), *ends])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and f"endpoint {bad} outside 0..2" in err


@pytest.mark.parametrize(
    "argv", [["slsn", "--max-edges", "1"], ["path", "--target", "2", "--max-paths", "1"]],
    ids=["slsn-max-edges", "path-max-paths"],
)
def test_oracle_over_budget_is_an_error_line(capsys, tmp_path, argv):
    inst = tmp_path / "path.slsn"
    inst.write_text(PATH_3)
    code = dispatch(["oracle", argv[0], str(inst), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "exceed" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_trials_below_one(capsys, trials):
    code = dispatch(["bench", "--seed", "1", "--trials", trials])
    out = capsys.readouterr()
    assert code == 1 and out.out == "" and out.err.startswith("error:") and "--trials" in out.err
