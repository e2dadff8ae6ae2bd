"""Seeded, stratified corpora for the three workloads.

A workload is a list of strata.  Every block of the corpus holds a fixed
number of items per stratum, so any whole number of blocks has the same
mix and a second seed gives the same mix with other instances.  Each item
draws from its own random stream, named by seed, workload, stratum and
index, so an item does not depend on how many blocks are generated.

Only the generated files reach the program: instance files in the
``slsn 1`` text format for the solve workloads and ``mcc 1`` files for
gadget-certify.  The in-memory copies are kept for the output checks.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from checks import adjacency, distances

# gadget-certify: (k, MCC vertices per colour, gadget case).  The MCC edge
# count is fixed per stratum (planted clique plus half of the other
# cross-colour pairs), so gadget sizes do not depend on the seed.  The
# k=4 single-vertex item appears three times per block so that the tail
# percentile falls inside one dense class rather than between classes.
GADGET_STRATA = [
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4),
    (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 2, 4),
    (3, 3, 1), (3, 3, 4),
    (4, 1, 4), (4, 1, 4), (4, 1, 4), (4, 2, 2),
    (5, 1, 1),
]

# Solve workloads: (stratum, expected route, items per block).  Desk
# strata follow the acceptance corpora (n <= 8, m <= 12, p <= 3; desk
# unit-cost items keep p = 2, since at p = 3 single items reach seconds and
# the spread across seeds swamped every metric); scale strata have the
# fixed sizes listed in SCALE below.
SOLVE_STRATA = {
    "exact-solve": [
        ("desk-star", "star", 8),
        ("desk-exact-const", "exact-const", 6),
        ("desk-unit-cost", "unit-cost", 3),
        ("scale-star", "star", 1),
        ("scale-exact-const", "exact-const", 1),
        ("scale-unit-cost", "unit-cost", 1),
    ],
    "approx-solve": [
        ("desk-approx-const", "approx-const", 4),
        ("desk-approx-star", "approx-star", 5),
        ("scale-approx-const", "approx-const", 2),
        ("scale-approx-star", "approx-star", 1),
    ],
}

# scale stratum -> (n, m, p, L, length kind)
SCALE = {
    "scale-star": (60, 96, 5, 6, "unit"),
    "scale-exact-const": (12, 18, 2, 5, "unit"),
    "scale-unit-cost": (10, 12, 2, 5, "integer"),
    "scale-approx-const": (10, 13, 2, 5, "rational"),
    "scale-approx-star": (32, 64, 5, 10, "rational"),
}

# workload -> (blocks generated, blocks every run covers).  A run stops at
# the first block boundary after --seconds of item time, but not before the
# second number; it cycles if it runs out.  The tail percentile and the
# outputs digest are fixed by the blocks every run covers.
BLOCKS = {"gadget-certify": (8, 4), "exact-solve": (48, 16), "approx-solve": (24, 7)}

WORKLOADS = ("gadget-certify", "exact-solve", "approx-solve")


@dataclass(frozen=True)
class Item:
    key: str
    stratum: str
    index: int  # instance number within the stratum
    route: str  # expected solver route; the gadget case for gadget items
    path: str
    spec: tuple  # (n, edges, L, demands), or (case, clique) for gadget items


def route_of(inst) -> str:
    """The solver ``slsn solve`` picks, by the rule the CLI documents."""
    _, edges, _, demands = inst
    unit_len = all(e[2] == 1 for e in edges)
    common = set(demands[0])
    for pair in demands[1:]:
        common &= set(pair)
    if common:
        return "star" if unit_len else "approx-star"
    if unit_len:
        return "exact-const"
    if all(e[3] == 1 for e in edges) and all(e[2].denominator == 1 for e in edges):
        return "unit-cost"
    return "approx-const"


def _length(rng, kind):
    if kind == "unit":
        return Fraction(1)
    if kind == "integer":
        return Fraction(rng.randint(1, 4))
    return Fraction(rng.randint(1, 8), rng.randint(1, 3))


def _length_multiset(kind, m):
    """m lengths spread like _length's draws: uniform numerators and denominators."""
    if kind == "unit":
        return [Fraction(1)] * m
    if kind == "integer":
        return [Fraction(i % 4 + 1) for i in range(m)]
    return [Fraction(i % 8 + 1, i % 3 + 1) for i in range(m)]


def _desk(rng, route):
    """One acceptance-style instance (n <= 8, m <= 12) with the given route."""
    kind = {"star": "unit", "exact-const": "unit", "unit-cost": "integer"}.get(route, "rational")
    unit_cost = route == "unit-cost"
    star = route in ("star", "approx-star")
    while True:
        n = rng.randint(3, 8)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(n - 1, min(12, len(pairs)))
        rng.shuffle(pairs)
        edges = [
            (u, v, _length(rng, kind), Fraction(1 if unit_cost else rng.randint(1, 10)))
            for u, v in pairs[:m]
        ]
        if star:
            root = rng.randrange(n)
            others = [v for v in range(n) if v != root]
            rng.shuffle(others)
            demands = [(root, t) for t in others[: rng.randint(1, min(4, n - 1))]]
            L = Fraction(rng.randint(1, 4))
        else:
            cand = list(combinations(range(n), 2))
            rng.shuffle(cand)
            demands = cand[: 2 if unit_cost else rng.choice((2, 3))]
            L = Fraction(rng.randint(2, 8) if unit_cost else rng.randint(1, 4))
        inst = (n, edges, L, demands)
        if route_of(inst) == route:
            return inst


def _scale(rng, stratum, route):
    """A connected instance of fixed size whose demands are all satisfiable."""
    n, m, p, L, kind = SCALE[stratum]
    unit_cost = kind == "integer"
    while True:
        order = list(range(n))
        rng.shuffle(order)
        pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        while len(pairs) < m:
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        # costs and lengths are shuffled fixed multisets, so the spread of
        # values is the same in every instance of the stratum
        costs = [Fraction(1 if unit_cost else i % 10 + 1) for i in range(m)]
        lengths = _length_multiset(kind, m)
        rng.shuffle(costs)
        rng.shuffle(lengths)
        edges = [(u, v, ln, c) for (u, v), ln, c in zip(sorted(pairs), lengths, costs)]
        adj = adjacency(n, edges)
        if route in ("star", "approx-star"):
            root = rng.randrange(n)
            dist = distances(edges, adj, root)
            near = [v for v in range(n) if v != root and dist.get(v, L + 1) <= L]
            if len(near) < p:
                continue
            demands = [(root, t) for t in rng.sample(near, p)]
        else:
            cand = []
            for s in range(n):
                dist = distances(edges, adj, s)
                cand += [(s, t) for t in range(s + 1, n) if 1 < dist[t] <= L]
            if len(cand) < p:
                continue
            demands = rng.sample(cand, p)
        inst = (n, edges, Fraction(L), demands)
        if route_of(inst) == route:
            return inst


def _mcc(rng, k, per):
    n = k * per
    coloring = {v: v // per + 1 for v in range(n)}
    clique = [c * per + rng.randrange(per) for c in range(k)]
    planted = set(combinations(clique, 2))
    others = [
        (u, v) for u, v in combinations(range(n), 2)
        if coloring[u] != coloring[v] and (u, v) not in planted
    ]
    edges = sorted(planted | set(rng.sample(others, len(others) // 2)))
    return n, edges, coloring, clique


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def instance_text(inst) -> str:
    n, edges, L, demands = inst
    lines = ["slsn 1", f"{n} {len(edges)} {len(demands)}", _rational(L)]
    lines += [f"{u} {v} {_rational(ln)} {_rational(c)}" for u, v, ln, c in edges]
    lines += [f"{s} {t}" for s, t in demands]
    return "\n".join(lines) + "\n"


def mcc_text(n, edges, coloring, k) -> str:
    lines = ["mcc 1", f"{n} {len(edges)} {k}"]
    lines += [f"{u} {v}" for u, v in edges]
    lines += [f"{v} {coloring[v]}" for v in range(n)]
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, workdir: str) -> list[list[Item]]:
    """Generate the corpus, write its files into workdir, return its blocks."""
    made: dict[str, Item] = {}

    def item(stratum, idx, make):
        key = f"{stratum}-{idx}"
        if key not in made:
            route, spec, ext, text = make(random.Random(f"{seed}/{workload}/{key}"))
            path = os.path.join(workdir, key + ext)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            made[key] = Item(key, stratum, idx, route, path, spec)
        return made[key]

    def gadget(k, per, case):
        def make(rng):
            n, edges, coloring, clique = _mcc(rng, k, per)
            return f"case{case}", (case, clique), ".mcc", mcc_text(n, edges, coloring, k)
        return make

    def solve(stratum, route):
        def make(rng):
            inst = _desk(rng, route) if stratum.startswith("desk") else _scale(rng, stratum, route)
            return route, inst, ".slsn", instance_text(inst)
        return make

    blocks = []
    for b in range(BLOCKS[workload][0]):
        if workload == "gadget-certify":
            block = [item(f"k{k}-per{per}-case{case}", b, gadget(k, per, case))
                     for k, per, case in GADGET_STRATA]
        else:
            block = []
            for stratum, route, count in SOLVE_STRATA[workload]:
                for j in range(b * count, (b + 1) * count):
                    block.append(item(stratum, j, solve(stratum, route)))
            # interleave strata so scale items are spread through the block
            random.Random(f"{seed}/{workload}/order/{b}").shuffle(block)
        blocks.append(block)
    return blocks
