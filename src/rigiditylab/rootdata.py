"""Root-system combinatorics for the simple types A through G.

A root system is stored as its Cartan matrix plus the list of positive
roots, each root an integer coefficient vector over the simple-root basis.
Positive roots are generated from the simple roots by the usual root-string
closure, height by height.  Everything downstream (dim G, Cartan
determinants, the class-dimension bounds j_d, enumeration of tuples meeting
the dimension condition) reads off this data.

Conventions: cartan[i][j] is the pairing of simple root i against simple
coroot j, so the rows of the B-series matrices end with a -2 entry.  Node
numbering follows the standard Bourbaki tables.

j_d here is the largest conjugacy-class dimension among semisimple torus
elements of order dividing d (with exact order d enforced through the gcd
condition on exponent tuples).  This is the characteristic-coprime model;
callers working in a characteristic dividing d get a flag from the report
layer, not a different number.

An element of order d is named by its exponent tuple a in (Z/d)^rank, the
value of each simple root being a power of a primitive d-th root of
unity; a root vanishes on it when its exponent sum is 0 mod d.  Class
dimension is a Weyl-group invariant, and every torus element is
Weyl-conjugate into the fundamental alcove (Kac, Infinite-dimensional Lie
algebras, 8.6; Reeder, Enseign. Math. 56, 2010).  For order d the alcove
points are the Kac coordinates s >= 0 with sum m_i s_i <= d, m the
coefficients of the highest root; there every positive root has
0 <= alpha.s <= d, so it vanishes exactly when alpha.s is 0 or d.  j_d is
the best such point with gcd(s, d) = 1.  The witness reported with j_d is
still the lexicographically least maximizer in (Z/d)^rank, found by a
depth-first search in lex order that knows the target j_d and prunes a
prefix as soon as the roots it already decides vanish too often.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, InvariantViolation, WorkCapExceeded

_VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


def _classical_positive_count(type_letter: str, rank: int) -> int:
    if type_letter == "A":
        return rank * (rank + 1) // 2
    if type_letter in ("B", "C"):
        return rank * rank
    if type_letter == "D":
        return rank * (rank - 1)
    if type_letter == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if type_letter == "F":
        return 24
    return 6  # G_2


def _cartan_matrix(type_letter: str, rank: int) -> list[list[int]]:
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 2

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        m[i][j] = cij
        m[j][i] = cji

    if type_letter in ("A", "B", "C", "F"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if type_letter == "B":
            m[rank - 2][rank - 1] = -2
        elif type_letter == "C":
            m[rank - 1][rank - 2] = -2
        elif type_letter == "F":
            m[1][2] = -2
    elif type_letter == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif type_letter == "E":
        for a, b in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
            if a <= rank and b <= rank:
                bond(a - 1, b - 1)
    else:  # G_2
        m[0][1] = -1
        m[1][0] = -3
    return m


def _closure(cartan: list[list[int]], rank: int) -> list[tuple[int, ...]]:
    """All positive roots, by root-string closure from the simple roots.

    For a root b and simple root index j, b + alpha_j is a root exactly when
    p - <b, alpha_j-check> >= 1, where p counts how far the string extends
    below b.  Iterates height by height until no new roots appear.
    """
    simple = [tuple(1 if t == j else 0 for t in range(rank)) for j in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for b in frontier:
            for j in range(rank):
                pairing = sum(c * cartan[i][j] for i, c in enumerate(b) if c)
                down = list(b)
                p = 0
                while True:
                    down[j] -= 1
                    if down[j] < 0 or tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing >= 1:
                    up = list(b)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


@dataclass(frozen=True)
class RootSystem:
    """A simple root system: type, rank, Cartan matrix, positive roots."""

    type_letter: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    @property
    def coxeter_number(self) -> int:
        return 2 * len(self.positive_roots) // self.rank

    def __repr__(self) -> str:
        return f"RootSystem({self.type_letter}{self.rank})"


@lru_cache(maxsize=None)
def build(type_letter: str, rank: int) -> RootSystem:
    """The root system of the given simple type and rank.

    Valid pairs: A (rank >= 1), B and C (rank >= 2), D (rank >= 3),
    E6/E7/E8, F4, G2.
    """
    letter = str(type_letter).upper()
    if letter not in _VALID_RANKS:
        raise InputError(f"unknown type letter {type_letter!r}")
    if not isinstance(rank, int) or not _VALID_RANKS[letter](rank):
        raise InputError(f"invalid rank {rank} for type {letter}")

    cartan = _cartan_matrix(letter, rank)
    roots = _closure(cartan, rank)

    expected = _classical_positive_count(letter, rank)
    if len(roots) != expected:
        raise InvariantViolation(
            f"{letter}{rank}: closure found {len(roots)} positive roots, "
            f"classical count is {expected}"
        )
    for i in range(rank):
        if cartan[i][i] != 2 or any(cartan[i][j] > 0 for j in range(rank) if j != i):
            raise InvariantViolation(f"malformed Cartan matrix for {letter}{rank}")
    if any(min(r) < 0 for r in roots):
        raise InvariantViolation(f"negative coefficient in a positive root of {letter}{rank}")

    return RootSystem(
        type_letter=letter,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(roots),
    )


def cartan_det(rs: RootSystem) -> int:
    """Exact integer determinant of the Cartan matrix."""
    return _int_det([list(row) for row in rs.cartan])


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class JEntry(NamedTuple):
    j: int
    witness: tuple[int, ...]


def _alcove_j(rs: RootSystem, d: int) -> int:
    """j_d for d >= 2, the best alcove point of order d.

    Walks the Kac points s >= 0 with sum m_i s_i <= d depth first,
    carrying the values alpha.s of all positive roots.
    """
    npos = len(rs.positive_roots)
    cols = [tuple(root[i] for root in rs.positive_roots)
            for i in range(rs.rank)]
    marks = rs.positive_roots[-1]  # the highest root; heights sort it last
    fewest = npos + 1
    # (next coordinate, budget left, gcd(d, s so far), root values so far)
    stack = [(0, d, d, (0,) * npos)]
    while stack:
        i, budget, g, vals = stack.pop()
        if i == rs.rank:
            if g == 1:
                killed = vals.count(0) + vals.count(d)
                if killed < fewest:
                    fewest = killed
                    if killed == 0:
                        break  # regular point; nothing does better
            continue
        col, mark = cols[i], marks[i]
        for k in range(budget // mark + 1):
            stack.append((i + 1, budget - k * mark, math.gcd(g, k), vals))
            vals = tuple(v + c for v, c in zip(vals, col))
    if fewest > npos:
        raise InvariantViolation(f"no order-{d} alcove point found (rank {rs.rank})")
    return 2 * (npos - fewest)


def _least_leaf(ending, d: int, allowed: int, prefix: tuple[int, ...],
                killed: int, g: int) -> tuple[int, tuple[int, ...]] | None:
    """Lex-least exponent tuple extending prefix with gcd 1 and at most
    allowed vanishing positive roots, with its vanishing count, or None.

    ending[i] lists the roots whose support ends at coordinate i, as
    (coefficients before i, coefficient at i); they are decided here.
    """
    i = len(prefix)
    heads = [(sum(c * a for c, a in zip(head, prefix)), c)
             for head, c in ending[i]]
    leaf = i == len(ending) - 1
    for x in range(d):
        k = killed + sum(1 for p, c in heads if (p + c * x) % d == 0)
        if k > allowed:
            continue
        g_x = math.gcd(g, x)
        if leaf:
            if g_x == 1:
                return k, (*prefix, x)
        else:
            found = _least_leaf(ending, d, allowed, (*prefix, x), k, g_x)
            if found is not None:
                return found
    return None


def j_scan(rs: RootSystem, d: int, work_cap: int | None = None) -> JEntry:
    """j_d together with its lexicographically least maximizer.

    The class dimension of the torus element with exponent tuple a in
    (Z/d)^rank, gcd(a_1,...,a_rank, d) = 1, is dim G - rank minus the
    number of roots (both signs) whose exponent sum vanishes mod d.  j_d
    comes from the fundamental alcove (see the module docstring).  The
    witness is the lex-least a attaining it, found by a depth-first
    search over (Z/d)^rank in lex order: a root is decided once the
    coordinates up to the last of its support are fixed, and a prefix is
    dropped once its decided vanishing roots exceed |positive roots| -
    j_d / 2.  That search's worst case, d^rank times the root count, is
    checked against work_cap before any work starts.
    """
    if d < 1:
        raise InputError(f"order d = {d} must be >= 1")
    if d == 1:
        return JEntry(0, (0,) * rs.rank)
    npos = len(rs.positive_roots)
    cost = d**rs.rank * npos
    if work_cap is not None and cost > work_cap:
        raise WorkCapExceeded(
            f"j_value scan for {rs.type_letter}{rs.rank}, d = {d} needs "
            f"~{cost} root evaluations, above the cap {work_cap}"
        )
    j = _alcove_j(rs, d)
    ending: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(rs.rank)]
    for root in rs.positive_roots:
        last = max(i for i, c in enumerate(root) if c)
        ending[last].append((root[:last], root[last]))
    allowed = npos - j // 2
    found = _least_leaf(ending, d, allowed, (), 0, d)
    if found is None or found[0] != allowed:
        raise InvariantViolation(
            f"alcove j_{d}({rs.type_letter}{rs.rank}) = {j} disagrees with "
            f"the exponent-tuple search"
        )
    return JEntry(j, found[1])


def _alcove_point_counts(rs: RootSystem, d_max: int) -> list[int]:
    """counts[d] = number of Kac points at order d, for d = 0 .. d_max.

    Kac points at order d are the s_0, s >= 0 with s_0 + sum m_i s_i = d,
    so the counts are the coefficients of prod 1 / (1 - x^m_i) over the
    marks m_0 = 1 and the highest root's coefficients.
    """
    counts = [1] + [0] * d_max
    for mark in (1, *rs.positive_roots[-1]):
        for d in range(mark, d_max + 1):
            counts[d] += counts[d - mark]
    return counts


def j_value(rs: RootSystem, d: int, work_cap: int | None = None) -> int:
    """Largest class dimension over semisimple elements of order d."""
    return j_scan(rs, d, work_cap).j


@dataclass(frozen=True)
class ClassDimTable:
    """j_d values (with witnesses) for d = 1 .. d_max."""

    root_system: RootSystem
    entries: tuple[tuple[int, JEntry], ...]


def class_dim_table(rs: RootSystem, d_max: int,
                    work_cap: int | None = None) -> ClassDimTable:
    if d_max < 1:
        raise InputError(f"d_max = {d_max} must be >= 1")
    entries = []
    ceiling = rs.dim_g - rs.rank
    for d in range(1, d_max + 1):
        entry = j_scan(rs, d, work_cap)
        if entry.j > ceiling or (d == 1 and entry.j != 0):
            raise InvariantViolation(
                f"j_{d}({rs.type_letter}{rs.rank}) = {entry.j} breaks the "
                f"0 <= j_d <= {ceiling} bound"
            )
        entries.append((d, entry))
    return ClassDimTable(root_system=rs, entries=tuple(entries))


@dataclass(frozen=True)
class RigidTupleResult:
    """Tuples meeting the dimension condition, plus the plateau order."""

    root_system: RootSystem
    n: int
    a_max: int
    tuples: tuple[tuple[int, ...], ...]
    plateau: int


def rigid_tuples(rs: RootSystem, n: int, a_max: int,
                 work_cap: int | None = None) -> RigidTupleResult:
    """All non-decreasing tuples (a_1,...,a_n), 2 <= a_i <= a_max, whose
    j-values sum to exactly 2 dim G.

    Also reports the plateau order: the least d at which j_d reaches its
    ceiling dim G - rank, so families beyond a_max can be extrapolated.
    The plateau always exists by d = the Coxeter number (the all-ones
    exponent tuple meets no root there, since root heights stop short
    of it).

    The table runs to max(a_max, Coxeter number) and takes its j values
    from the alcove alone, with no witnesses.  work_cap is checked once,
    before any scan, against the alcove points of the whole table times
    the root count.
    """
    if n < 3:
        raise InputError(f"tuple length n = {n} must be >= 3")
    if a_max < 2:
        raise InputError(f"a_max = {a_max} must be >= 2")
    d_top = max(a_max, rs.coxeter_number)
    cost = sum(_alcove_point_counts(rs, d_top)[2:]) * len(rs.positive_roots)
    if work_cap is not None and cost > work_cap:
        raise WorkCapExceeded(
            f"j_d table for {rs.type_letter}{rs.rank}, d <= {d_top} needs "
            f"~{cost} root evaluations, above the cap {work_cap}"
        )
    jmap = {1: 0, **{d: _alcove_j(rs, d) for d in range(2, d_top + 1)}}

    ceiling = rs.dim_g - rs.rank
    plateau = next((d for d, j in jmap.items() if j == ceiling), None)
    if plateau is None:
        raise InvariantViolation(
            f"no regular order found up to the Coxeter number for "
            f"{rs.type_letter}{rs.rank}"
        )

    target = 2 * rs.dim_g
    hits = tuple(
        t for t in itertools.combinations_with_replacement(range(2, a_max + 1), n)
        if sum(jmap[a] for a in t) == target
    )
    return RigidTupleResult(root_system=rs, n=n, a_max=a_max,
                            tuples=hits, plateau=plateau)
