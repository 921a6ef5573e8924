"""The benchmark's workloads: fixed CLI jobs and a seeded rigidity batch.

Census and root-data jobs are fixed instances: their cost comes from the
group or the root system, not from random data.  Only the rigidity batch
depends on the seed.  Its tuples are generated here with the benchmark's
own small-field arithmetic and handed to the CLI in wire format, so a
change to the library (its random generators included) cannot change the
workload.
"""

from __future__ import annotations

import bisect
import json
import os
import random
from pathlib import Path

# Where a pass writes its input files, inside the checkout.
WORKDIR = Path(__file__).resolve().parent.parent / ".perfbench-work"

CENSUS_PSL3 = [
    ["census", "--type", "A", "--rank", "2", "--q", "4",
     "--signature", "3,3,3"],
]

CENSUS_HURWITZ = [
    ["census", "--type", "A", "--rank", "1", "--q", str(q),
     "--signature", "2,3,7"]
    for q in (7, 8, 9, 11, 13)
]

ROOTDATA_EXCEPTIONAL = [
    ["rigid-tuples", "--type", "F", "--rank", "4", "--n", "3",
     "--a-max", "12"],
    ["rootdata", "--type", "E", "--rank", "6", "--d-max", "5"],
    ["rootdata", "--type", "E", "--rank", "7", "--d-max", "4"],
    ["rootdata", "--type", "E", "--rank", "8", "--d-max", "3"],
]

# (n, p, k, edges).  SL3 over F5, F7 and F9 has adjoint dimension 8;
# SL2/F7 (dimension 3) and SL4/F3 (dimension 15) bracket it.  A verdict's
# cost grows with the sum of the declared orders (the cocycle norm loop
# runs that many Ad products), so each pass takes one tuple from each
# stratum of that sum: below the first edge, between consecutive edges,
# and from the last edge up.  The edges are the octiles of the sum under
# this generator (the SL2/F7 sum takes few values, so some coincide and
# fall away).  Every pass then has the same spread of costs, tail
# included, and the seed moves the pass time far less than it would with
# unstratified draws.
RIGIDITY_GROUPS = [
    (2, 7, 1, (9, 10, 12, 13, 14, 17)),
    (3, 5, 1, (36, 44, 51, 58, 64, 70, 79)),
    (3, 7, 1, (28, 33, 38, 41, 43, 46, 51)),
    (3, 3, 2, (72, 109, 124, 144, 179, 190, 211)),
    (4, 3, 1, (24, 27, 30, 32, 35, 38, 41)),
]
TUPLE_LENGTH = 3
_MAX_DRAWS = 10_000

# Modulus polynomials (low degree first) of the non-prime fields used
# above; they must match the library's canonical choice, which the CLI
# checks when it verifies that every generator has determinant one.
_MODULI = {(3, 2): (1, 0, 1)}

WORKLOADS = ("census-psl3", "census-hurwitz", "rigidity-batch",
             "rootdata-exceptional")

# Percentile reported as job_tail_ms, taken within each pass (run.py):
# the highest that leaves at least ten of a run's job samples beyond it
# in every run of the default length seen (rigidity-batch: 470 to 620
# samples).  census-hurwitz (50 to 65 samples) takes 75, not 80: 80 falls
# on the boundary between its q = 8 and q = 13 jobs.  A census-psl3 run
# has two or three job samples, too few for any tail (None), so
# job_tail_ms repeats job_p50_ms; so does rootdata-exceptional, whose four
# jobs per pass leave fewer than ten samples beyond its percentile 75 in
# a slow run.  The
# percentile is fixed so that runs with different pass counts compare.
TAIL_PERCENTILE = {
    "census-psl3": None,
    "census-hurwitz": 75,
    "rigidity-batch": 95,
    "rootdata-exceptional": None,
}


class SmallField:
    """F_{p^k} for the tiny q of the rigidity batch, by full tables.

    Elements are packed integers, coefficient i weighted by p^i, which is
    also how the wire format lists them (low degree first).
    """

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p ** k
        mod = _MODULI.get((p, k), (0, 1))
        polys = [self.unpack(v) for v in range(self.q)]
        self.add = [[self._pack([(x + y) % p for x, y in zip(a, b)])
                     for b in polys] for a in polys]
        self.mul = [[self._pack(self._mulmod(a, b, mod)) for b in polys]
                    for a in polys]
        self.inv = [0] * self.q
        for a in range(1, self.q):
            self.inv[a] = next(b for b in range(1, self.q)
                               if self.mul[a][b] == 1)
        self.neg = [next(b for b in range(self.q) if self.add[a][b] == 0)
                    for a in range(self.q)]

    def unpack(self, v: int) -> list[int]:
        out = []
        for _ in range(self.k):
            v, r = divmod(v, self.p)
            out.append(r)
        return out

    def _pack(self, coeffs) -> int:
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def _mulmod(self, a, b, mod) -> list[int]:
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                for j in range(k + 1):
                    prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
        return prod[:k]


def _matmul(f: SmallField, a: list[list[int]], b: list[list[int]]):
    n = len(a)
    add, mul = f.add, f.mul
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = add[acc][mul[a[i][t]][b[t][j]]]
            row.append(acc)
        out.append(row)
    return out


def _det(f: SmallField, m: list[list[int]]) -> int:
    g = [list(r) for r in m]
    n = len(g)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if g[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            g[c], g[piv] = g[piv], g[c]
            det = f.neg[det]
        det = f.mul[det][g[c][c]]
        ip = f.inv[g[c][c]]
        for r in range(c + 1, n):
            fac = f.mul[g[r][c]][ip]
            if fac:
                g[r] = [f.add[x][f.neg[f.mul[fac][y]]]
                        for x, y in zip(g[r], g[c])]
    return det


def _inverse(f: SmallField, m: list[list[int]]):
    n = len(m)
    g = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if g[r][c])
        g[c], g[piv] = g[piv], g[c]
        ip = f.inv[g[c][c]]
        g[c] = [f.mul[ip][x] for x in g[c]]
        for r in range(n):
            fac = g[r][c]
            if r != c and fac:
                g[r] = [f.add[x][f.neg[f.mul[fac][y]]]
                        for x, y in zip(g[r], g[c])]
    return [row[n:] for row in g]


def _is_scalar(m: list[list[int]]) -> bool:
    d = m[0][0]
    return bool(d) and all(m[i][j] == (d if i == j else 0)
                           for i in range(len(m)) for j in range(len(m)))


def _projective_order(f: SmallField, m: list[list[int]]) -> int:
    power, e = m, 1
    while not _is_scalar(power):
        power = _matmul(f, power, m)
        e += 1
    return e


def _random_sl(f: SmallField, n: int, rng: random.Random):
    while True:
        m = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        d = _det(f, m)
        if d:
            break
    s = f.inv[d]
    m[0] = [f.mul[s][x] for x in m[0]]
    return m


def random_tuple_doc(f: SmallField, n: int, length: int,
                     rng: random.Random) -> dict:
    """Wire document of a random determinant-one tuple whose product is
    the identity, with declared orders equal to the projective orders."""
    mats = [_random_sl(f, n, rng) for _ in range(length - 1)]
    prod = mats[0]
    for m in mats[1:]:
        prod = _matmul(f, prod, m)
    mats.append(_inverse(f, prod))
    return {
        "schema": 1, "p": f.p, "k": f.k, "n": n,
        "generators": [[[f.unpack(x) for x in row] for row in m]
                       for m in mats],
        "orders": [_projective_order(f, m) for m in mats],
    }


def rigidity_docs(seed: int, pass_index: int) -> list[dict]:
    """The batch of one pass: one tuple per stratum of every group, all
    distinct, drawn from (seed, pass_index)."""
    rng = random.Random(f"rigidity-batch/{seed}/{pass_index}")
    docs = []
    for n, p, k, edges in RIGIDITY_GROUPS:
        f = SmallField(p, k)
        strata: list[dict | None] = [None] * (len(edges) + 1)
        for _ in range(_MAX_DRAWS):
            doc = random_tuple_doc(f, n, TUPLE_LENGTH, rng)
            i = bisect.bisect_right(edges, sum(doc["orders"]))
            if strata[i] is None and doc not in docs:
                strata[i] = doc
                if all(strata):
                    break
        else:
            raise RuntimeError(f"strata of SL{n}({f.q}) not filled after "
                               f"{_MAX_DRAWS} draws")
        docs.extend(strata)
    return docs


def jobs(workload: str, seed: int, pass_index: int, workdir: str):
    """(label, argv) of each job of one pass.  For the rigidity batch this
    writes the tuple files into workdir, which is part of the pass's
    set-up; its labels name the group instead of the file."""
    fixed = {"census-psl3": CENSUS_PSL3, "census-hurwitz": CENSUS_HURWITZ,
             "rootdata-exceptional": ROOTDATA_EXCEPTIONAL}
    if workload in fixed:
        return [(" ".join(argv), list(argv)) for argv in fixed[workload]]
    if workload == "rigidity-batch":
        out = []
        for i, doc in enumerate(rigidity_docs(seed, pass_index)):
            path = os.path.join(workdir, f"tuple{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            label = f"rigidity SL{doc['n']}/F{doc['p'] ** doc['k']}"
            out.append((label, ["rigidity", "--in", path]))
        return out
    raise ValueError(f"unknown workload {workload!r}")
