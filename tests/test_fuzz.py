"""Seeded CLI fuzz: a mutated input file or a drawn numeric argument never
ends in a traceback.

Valid instance text, instance JSON, MCC and solution files are truncated,
token-swapped, line-deleted, number-bumped or given JSON values of another
type, then run through ``dispatch``.  The bar: dispatch returns; exit 1 comes with an
``error:`` line on stderr, and exit 3 with a JSON report that says
``"feasible": false``.  Numeric options get values from a fixed list, valid
and not; argparse may also refuse one with exit 2 and its own ``error:``.
"""

import json
import random
import re

import pytest

from slsn.cli import dispatch

INSTANCE = """\
slsn 1
# a triangle with a tail, one rational length
4 4 2
2
0 1 1 1
1 2 1/2 1
0 2 1 3
2 3 1 2
0 2
0 3
"""

INSTANCE_JSON = json.dumps({
    "version": 1, "n": 4, "L": "2",
    "edges": [{"u": 0, "v": 1, "len": "1", "cost": "1"}, {"u": 1, "v": 2, "len": "1/2", "cost": 1},
              {"u": 0, "v": 2, "len": "1", "cost": "3"}, {"u": 2, "v": 3, "len": 1, "cost": "2"}],
    "demands": [[0, 2], [0, 3]],
})

MCC = "mcc 1\n# a 2-colored path\n3 2 2\n0 1\n1 2\n0 1\n1 2\n2 1\n"

# the optimum of INSTANCE: edges 0-1, 1-2 and 2-3
SOLUTION = json.dumps({"cost": "4", "edges": [0, 1, 3], "paths": [[0, 1, 2], [0, 1, 2, 3]]})

# JSON values of every type, to put in place of any value of a JSON file
VALUES = [None, True, False, 0, -1, 2, 1.5, "x", "3", "1/0", [], [1], [[0, 2]], {}, {"u": 0}]


def _truncate(rng, text):
    return text[: rng.randrange(len(text))]


def _swap_tokens(rng, text):
    parts = re.split(r"(\s+)", text)
    words = [i for i, part in enumerate(parts) if part.strip()]
    if len(words) < 2:
        return text
    i, j = rng.sample(words, 2)
    parts[i], parts[j] = parts[j], parts[i]
    return "".join(parts)


def _delete_line(rng, text):
    lines = text.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return "".join(lines)


def _bump_number(rng, text):
    numbers = list(re.finditer(r"\d+", text))
    if not numbers:
        return text
    hit = rng.choice(numbers)
    new = max(int(hit.group()) + rng.choice((-1, 1)), 0)
    return text[: hit.start()] + str(new) + text[hit.end() :]


def _retype(rng, text):
    """One JSON value, the whole document included, swapped for another."""
    try:
        root = [json.loads(text)]
    except ValueError:
        return text
    slots = []  # (container, key) of every value
    stack = [(root, 0)]
    while stack:
        slot = stack.pop()
        slots.append(slot)
        value = slot[0][slot[1]]
        keys = value if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
        stack.extend((value, key) for key in keys)
    container, key = rng.choice(slots)
    container[key] = rng.choice(VALUES)
    return json.dumps(root[0])


TEXT_MUTATIONS = (_truncate, _swap_tokens, _delete_line, _bump_number)
JSON_MUTATIONS = TEXT_MUTATIONS + (_retype, _retype, _retype)

# family -> (seed, valid file, mutations, argv before the file's path)
FAMILIES = {
    "instance-text": (11, INSTANCE, TEXT_MUTATIONS, [["solve"], ["solve", "--approx-const"], ["classify"]]),
    "instance-json": (12, INSTANCE_JSON, JSON_MUTATIONS, [["solve"], ["solve", "--approx-star"], ["classify"]]),
    "mcc": (13, MCC, TEXT_MUTATIONS, [["oracle", "mcc"], ["gadget", "--case", "h0star", "-o", "{tmp}/g", "--mcc"]]),
    "solution": (14, SOLUTION, JSON_MUTATIONS, [["verify", "{tmp}/inst.slsn", "--solution"]]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_mutated_files_end_in_an_exit_code(capsys, tmp_path, family):
    seed, valid, mutations, commands = FAMILIES[family]
    rng = random.Random(seed)
    (tmp_path / "inst.slsn").write_text(INSTANCE)
    path = tmp_path / "input"
    for _ in range(250):
        text = valid
        for _ in range(rng.randint(1, 2)):
            text = rng.choice(mutations)(rng, text) if text else text
        path.write_text(text)
        argv = [a.format(tmp=tmp_path) for a in rng.choice(commands)] + [str(path)]
        try:
            code = dispatch(argv)
        except Exception as exc:  # any escape is a failure, reported with its input
            pytest.fail(f"{argv[0]} on {text!r} raised {exc!r}")
        out, err = capsys.readouterr()
        if code == 1:
            assert err.startswith("error:"), (text, err)
        elif code == 3:
            assert json.loads(out)["feasible"] is False, (text, out)


# Numeric argument values, valid and not, drawn for the options below
ARGUMENT_VALUES = ["-2", "-1", "0", "1", "2", "3", "9", "1/0", "-1/2", "abc", "nan"]

# argv before the drawn options -> the numeric options it takes; bench runs
# only the exact suite, and draws no trial count above 2
ARGUMENT_COMMANDS = [
    (["oracle", "path", "{tmp}/inst.slsn"], ["--source", "--target", "--bound", "--max-edges", "--max-paths"]),
    (["solve", "{tmp}/inst.slsn"], ["--eps", "--k"]),
    (["solve", "{tmp}/inst.slsn", "--approx-const"], ["--eps", "--k"]),
    (["classify", "{tmp}/inst.slsn"], ["--k"]),
    (["gadget", "--case", "h0star", "--mcc", "{tmp}/g.mcc", "-o", "{tmp}/g", "--poly-cost"],
     ["--k", "--eps", "--emit-witness"]),
    (["bench", "--seed", "1", "--suite", "exact"], ["--trials"]),
]


def _small(value):
    """No trial count above 2; values that are not ints stay."""
    try:
        return int(value) <= 2
    except ValueError:
        return True


def test_numeric_arguments_end_in_an_exit_code(capsys, tmp_path):
    rng = random.Random(15)
    (tmp_path / "inst.slsn").write_text(INSTANCE)
    (tmp_path / "g.mcc").write_text(MCC)
    for _ in range(300):
        prefix, options = rng.choice(ARGUMENT_COMMANDS)
        argv = [a.format(tmp=tmp_path) for a in prefix]
        for option in rng.sample(options, rng.randint(1, min(2, len(options)))):
            values = [v for v in ARGUMENT_VALUES if option != "--trials" or _small(v)]
            argv += [option, rng.choice(values)]
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse refuses a value it cannot convert
            assert exc.code == 2 and "error:" in capsys.readouterr().err, argv
            continue
        except Exception as exc:  # any other escape is a failure, reported with its argv
            pytest.fail(f"{argv} raised {exc!r}")
        out, err = capsys.readouterr()
        if code == 1:
            assert err.startswith("error:"), (argv, err)
        elif code == 3:
            report = json.loads(out)  # "oracle path" reports found, the others feasible
            assert report.get("feasible", report.get("found")) is False, (argv, out)
