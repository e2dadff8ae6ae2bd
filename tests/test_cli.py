import json

import pytest

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
