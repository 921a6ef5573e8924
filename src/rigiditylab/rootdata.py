"""Root-system combinatorics for the simple types A through G.

A root system is stored as its Cartan matrix plus the list of positive
roots, each root an integer coefficient vector over the simple-root basis.
Positive roots are generated from the simple roots height by height: each
root carries its simple-coroot pairings and the lengths of the simple root
strings below it, which decide its successors without looking any root up.
Everything downstream (dim G, Cartan determinants, the class-dimension
bounds j_d, enumeration of tuples meeting the dimension condition) reads
off this data.

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
the best such point with gcd(s, d) = 1.  One walk over the s with
sum m_i s_i <= top serves every order up to top at once, each point
visited once, and the root system keeps the longest table walked.  The
walk never goes past h - 1, h the Coxeter number: from h on j_d is the
ceiling 2|positive roots|, attained at s = (1, ..., 1), where every root
takes its height, between 1 and h - 1.  The witness reported with j_d is
still the lexicographically least maximizer in (Z/d)^rank, found by a
depth-first search in lex order that knows the target j_d and prunes a
prefix as soon as the roots it already decides vanish too often.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import add, mod
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
    """All positive roots, height by height from the simple roots.

    Each root b carries its pairings <b, alpha_j-check> and, for each j,
    the length p_j of its alpha_j-string below it.  b + alpha_j is a root
    exactly when p_j > <b, alpha_j-check>; it then gets the pairings of b
    plus Cartan row j, and p_j + 1 as its own p_j.  Its other string
    lengths come from its other predecessors of the same height, and stay
    0 where it has none.  Each height is sorted by coefficient tuple.
    """
    level = {tuple(int(t == j) for t in range(rank)): (cartan[j], [0] * rank)
             for j in range(rank)}
    roots = []
    while level:
        roots += sorted(level)
        nxt = {}
        for b, (pairings, below) in level.items():
            for j, (pairing, p) in enumerate(zip(pairings, below)):
                if p > pairing:
                    up = (*b[:j], b[j] + 1, *b[j + 1:])
                    if up not in nxt:
                        nxt[up] = (tuple(map(add, pairings, cartan[j])),
                                   [0] * rank)
                    nxt[up][1][j] = p + 1
        level = nxt
    return roots


class RootSystem:
    """A simple root system: type, rank, Cartan matrix, positive roots.

    It caches its masks and j values, so it is a plain object that
    compares and hashes by identity: :func:`build` is cached, one object
    per type and rank, and nothing hashes one or compares two by value.
    """

    def __init__(self, type_letter: str, rank: int,
                 cartan: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[tuple[int, ...], ...]):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan = cartan
        self.positive_roots = positive_roots

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    @property
    def coxeter_number(self) -> int:
        return 2 * len(self.positive_roots) // self.rank

    def __repr__(self) -> str:
        return f"RootSystem({self.type_letter}{self.rank})"

    @cached_property
    def _supports(self) -> tuple[tuple[int, int], ...]:
        """Entry i holds two masks over the positive roots, one byte (0 or
        1) a root, so that or-ing keeps them masks and int.bit_count
        counts roots: the roots with coefficient i nonzero, and those
        whose coefficient i is below the highest root's."""
        def mask(col: bytes, table: bytes) -> int:
            return int.from_bytes(col.translate(table), "little")

        nonzero = bytes(1) + b"\1" * 255
        return tuple(
            (mask(col, nonzero), mask(col, b"\1" * top + bytes(256 - top)))
            for col, top in zip(map(bytes, zip(*self.positive_roots)),
                                self.positive_roots[-1]))

    @cached_property
    def _tails(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """With the roots grouped by the last coordinate of their support,
        entry i is coefficient i of the roots whose support ends at i or
        later, and the number that end at i."""
        ends, roots = zip(*sorted(
            (max(itertools.compress(range(self.rank), root)), root)
            for root in self.positive_roots))
        return tuple((col[ends.index(i):], ends.count(i))
                     for i, col in enumerate(zip(*roots)))

    @cached_property
    def _j_values(self) -> list[int]:
        """j_d for d below its length, from the longest alcove walk run
        so far (see _walked); it grows in place."""
        return [0, 0]


@lru_cache(maxsize=None)
def build(type_letter: str, rank: int,
          work_cap: int | None = None) -> RootSystem:
    """The root system of the given simple type and rank.

    Valid pairs: A (rank >= 1), B and C (rank >= 2), D (rank >= 3),
    E6/E7/E8, F4, G2.  The build is charged rank^2 for the Cartan matrix
    plus rank per positive root for the roots and their pairings, checked
    against work_cap before any of it is done.
    """
    letter = str(type_letter).upper()
    if letter not in _VALID_RANKS:
        raise InputError(f"unknown type letter {type_letter!r}")
    if not isinstance(rank, int) or not _VALID_RANKS[letter](rank):
        raise InputError(f"invalid rank {rank} for type {letter}")
    expected = _classical_positive_count(letter, rank)
    cost = rank * rank + rank * expected
    if work_cap is not None and cost > work_cap:
        raise WorkCapExceeded(f"building {letter}{rank} needs ~{cost} root "
                              f"coefficients, above the cap {work_cap}")

    cartan = _cartan_matrix(letter, rank)
    roots = _closure(cartan, rank)
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
    """Fraction-free (Bareiss) determinant of a Cartan matrix, with no row
    swaps: the k-th pivot is the k-th leading principal minor, and every
    one is positive, since a finite-type Cartan matrix has a positive
    definite symmetrization."""
    n = len(m)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1]


class JEntry(NamedTuple):
    j: int
    witness: tuple[int, ...]


def _kac_points(rs: RootSystem, top: int):
    """(gcd(s), h(s), roots with alpha.s = 0, roots with alpha.s = h(s))
    for every s >= 0 with h(s) = sum m_i s_i <= top, each once.

    Both counts depend on the support of s alone: alpha.s = 0 exactly when
    s vanishes on the support of alpha, and alpha.s = h(s) = theta.s
    exactly when s vanishes on that of theta - alpha (the highest root
    theta bounds every root coefficientwise).  The walk goes depth first
    over the coordinates and carries, as masks of RootSystem._supports,
    the roots that the support so far keeps off 0 and off h(s).  Every
    prefix (s_1, ..., s_i) is one node.
    """
    npos = len(rs.positive_roots)
    marks, supports = rs.positive_roots[-1], rs._supports
    last = rs.rank - 1
    # (coordinate, h and gcd of s before it, roots kept off 0 and off h)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, h, g, off_zero, off_top = stack.pop()
        mark, (at_i, below_i) = marks[i], supports[i]
        for k in range((top - h) // mark + 1):
            if k == 1:
                off_zero, off_top = off_zero | at_i, off_top | below_i
            if i < last:
                stack.append((i + 1, h + k * mark, math.gcd(g, k),
                              off_zero, off_top))
            else:
                yield (math.gcd(g, k), h + k * mark,
                       npos - off_zero.bit_count(), npos - off_top.bit_count())


def _alcove_walk(rs: RootSystem, top: int) -> list[int]:
    """js[d] = j_d for d = 2 .. top (js[0] = js[1] = 0), from one walk.

    For each pair (gcd(s), h(s)) over the points of _kac_points, keeps the
    fewest roots with alpha.s = 0, and the fewest with alpha.s in
    {0, h(s)}.  A Kac point of order d is an s with h(s) <= d and
    gcd(s, d) = 1, and there a root vanishes when alpha.s is 0 or d,
    which only h(s) = d reaches.  So j_d takes the prefix minima of the
    first count over h(s) < d and the second at h(s) = d, over the gcds
    prime to d.
    """
    npos = len(rs.positive_roots)
    # inner[h][g], edge[h][g]: the two fewest counts at h(s) = h, gcd g
    inner: list[dict[int, int]] = [{} for _ in range(top + 1)]
    edge: list[dict[int, int]] = [{} for _ in range(top + 1)]
    for g, h, zeros, tops in _kac_points(rs, top):
        if zeros < inner[h].get(g, npos + 1):
            inner[h][g] = zeros
        zeros += tops
        if zeros < edge[h].get(g, 2 * npos + 1):
            edge[h][g] = zeros

    below: dict[int, int] = {}  # gcd -> fewest at 0 over h(s) < d
    js = [0, 0]
    for d in range(2, top + 1):
        for g, zeros in inner[d - 1].items():
            if zeros < below.get(g, npos + 1):
                below[g] = zeros
        fewest = min(zeros for g, zeros in (*below.items(), *edge[d].items())
                     if math.gcd(g, d) == 1)
        js.append(2 * (npos - fewest))
    return js


def _alcove_j(rs: RootSystem, d: int) -> int:
    """j_d for d >= 2, from the longest walk kept with the root system.

    From the Coxeter number h on, j_d is the ceiling 2|positive roots|
    with no walk: s = (1, ..., 1) has alpha.s = ht(alpha) in [1, h - 1],
    so it is regular, of order d, with gcd 1.  Below h the walk runs to d
    unless a longer one already has.
    """
    if d >= rs.coxeter_number:
        return 2 * len(rs.positive_roots)
    return _walked(rs, d)[d]


def _walked(rs: RootSystem, top: int) -> list[int]:
    """The kept j_d table, walked to min(top, h - 1) if it is shorter."""
    js = rs._j_values
    top = min(top, rs.coxeter_number - 1)
    if len(js) <= top:
        js[:] = _alcove_walk(rs, top)
    return js


def _least_leaf(tails, d: int, allowed: int, prefix: tuple[int, ...],
                vals: tuple[int, ...], killed: int,
                g: int) -> tuple[int, tuple[int, ...]] | None:
    """Lex-least exponent tuple extending prefix with gcd 1 and at most
    allowed vanishing positive roots, with its vanishing count, or None.

    vals holds the exponent sums mod d, over prefix, of the roots still
    undecided, in the order of RootSystem._tails; the first n of them,
    n from tails[len(prefix)], are decided here.
    """
    i = len(prefix)
    col, n = tails[i]
    leaf = i == len(tails) - 1
    for x in range(d):
        if x:
            vals = tuple(map(mod, map(add, vals, col), itertools.repeat(d)))
        k = killed + vals[:n].count(0)
        if k > allowed:
            continue
        g_x = math.gcd(g, x)
        if leaf:
            if g_x == 1:
                return k, (*prefix, x)
        else:
            found = _least_leaf(tails, d, allowed, (*prefix, x), vals[n:],
                                k, g_x)
            if found is not None:
                return found
    return None


def _check_scan_cap(rs: RootSystem, d: int, work_cap: int | None) -> None:
    """Refuse j_scan's witness search for order d when its worst case,
    d^rank times the root count, is above work_cap."""
    cost = d**rs.rank * len(rs.positive_roots)
    if work_cap is not None and cost > work_cap:
        raise WorkCapExceeded(
            f"j_d scan for {rs.type_letter}{rs.rank}, d = {d} needs "
            f"~{cost} root evaluations, above the cap {work_cap}"
        )


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
    _check_scan_cap(rs, d, work_cap)
    npos = len(rs.positive_roots)
    j = _alcove_j(rs, d)
    allowed = npos - j // 2
    found = _least_leaf(rs._tails, d, allowed, (), (0,) * npos, 0, d)
    if found is None or found[0] != allowed:
        raise InvariantViolation(
            f"alcove j_{d}({rs.type_letter}{rs.rank}) = {j} disagrees with "
            f"the exponent-tuple search"
        )
    return JEntry(j, found[1])


def _walk_nodes(rs: RootSystem, top: int) -> int:
    """The nodes _kac_points visits on its way to top: for i = 1 .. rank,
    the prefixes (s_1, ..., s_i) with sum m_j s_j <= top.  With s_0 = top -
    sum m_j s_j, those of length i number the coefficient of x^top in
    1 / (1 - x) prod_{j <= i} 1 / (1 - x^m_j)."""
    counts = [1] * (top + 1)  # the coefficients of 1 / (1 - x)
    nodes = 0
    for mark in rs.positive_roots[-1]:
        for d in range(mark, top + 1):
            counts[d] += counts[d - mark]
        nodes += counts[top]
    return nodes


class ClassDimTable(NamedTuple):
    """j_d values (with witnesses) for d = 1 .. d_max."""

    root_system: RootSystem
    entries: tuple[tuple[int, JEntry], ...]


def class_dim_table(rs: RootSystem, d_max: int,
                    work_cap: int | None = None) -> ClassDimTable:
    if d_max < 1:
        raise InputError(f"d_max = {d_max} must be >= 1")
    if d_max > 1:  # the bound grows with d, so d_max's covers every order
        _check_scan_cap(rs, d_max, work_cap)
    _walked(rs, d_max)
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


class RigidTupleResult(NamedTuple):
    """Tuples meeting the dimension condition, plus the plateau order."""

    root_system: RootSystem
    n: int
    a_max: int
    tuples: tuple[tuple[int, ...], ...]
    plateau: int


def _multisets(kinds: int, n: int, cap: int | None) -> int:
    """C(kinds + n - 1, n), the number of non-decreasing n-tuples of kinds
    values, built as C(m, i) for i up to the smaller of n and kinds - 1;
    that rises with i, so it stops at the first value above cap."""
    m = kinds + n - 1
    count = 1
    for i in range(1, min(n, kinds - 1) + 1):
        count = count * (m - i + 1) // i
        if cap is not None and count > cap:
            break
    return count


def rigid_tuples(rs: RootSystem, n: int, a_max: int,
                 work_cap: int | None = None) -> RigidTupleResult:
    """All non-decreasing tuples (a_1,...,a_n), 2 <= a_i <= a_max, whose
    j-values sum to exactly 2 dim G.

    Also reports the plateau order: the least d at which j_d reaches its
    ceiling dim G - rank, so families beyond a_max can be extrapolated.
    It is the Coxeter number h: from h on every j_d is the ceiling (see
    _alcove_j), and below h no Kac point is regular.

    The j values come from one alcove walk to h - 1, with no witnesses.
    work_cap is checked once, before the walk, against the nodes the walk
    visits times the root count, plus n entries for each of the
    C(a_max + n - 2, n) tuples enumerated.
    """
    if n < 3:
        raise InputError(f"tuple length n = {n} must be >= 3")
    if a_max < 2:
        raise InputError(f"a_max = {a_max} must be >= 2")
    h = rs.coxeter_number
    cost = (n * _multisets(a_max - 1, n, work_cap)
            + _walk_nodes(rs, h - 1) * len(rs.positive_roots))
    if work_cap is not None and cost > work_cap:
        raise WorkCapExceeded(
            f"rigid tuples for {rs.type_letter}{rs.rank}, n = {n}, "
            f"a_max = {a_max} need ~{cost} tuple entries and root "
            f"evaluations, above the cap {work_cap}"
        )
    _walked(rs, h - 1)
    jmap = {1: 0, **{d: _alcove_j(rs, d) for d in range(2, max(a_max, h) + 1)}}
    ceiling = rs.dim_g - rs.rank
    plateau = next(d for d, j in jmap.items() if j == ceiling)

    target = 2 * rs.dim_g
    hits = tuple(
        t for t in itertools.combinations_with_replacement(range(2, a_max + 1), n)
        if sum(map(jmap.__getitem__, t)) == target
    )
    return RigidTupleResult(root_system=rs, n=n, a_max=a_max,
                            tuples=hits, plateau=plateau)
