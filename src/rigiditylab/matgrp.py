"""Explicit matrix groups over finite fields.

Provides the generator-tuple input type with its JSON wire format, element
and projective orders, breadth-first closure into a finite group table
(optionally modulo scalars), conjugacy classes, an absolute-irreducibility
test for the natural module, and a deterministic search for standard
generating pairs of SL_n(q).

Orders are never found by walking powers.  The projective order divides
primes out of a known multiple (F. Celler and C. R. Leedham-Green,
"Calculating the order of an invertible matrix", DIMACS 28, 1997), which
the caller supplies: in the verdict, a tuple's declared order, which
``group_tuple`` has checked.  The element order is the projective order
times the order of the scalar it reaches, one power more.

Group tables index elements by a canonical key.  Working projectively, the
key is the entry tuple after scaling the first nonzero entry to 1, so a
table element stands for a full scalar class while its stored matrix stays
an honest determinant-one representative.  Matrix products happen only
during a closure, linear or projective, which multiplies each BFS level
by each generator in one stacked product, keys the level's products in one
batch, and records right multiplication by each generator as a permutation
of the indices; products, inverses, element orders and conjugacy classes
in the table are then index lookups along shortest words in the
generators.  ``generating_pair`` decides generation with projective
closures capped at half of PSL_n(q), and a census continues the winner's
closure from where the cap stopped it (unless it closes SL_n(q) with
nontrivial scalars), so no element of the census table is multiplied by a
generator twice.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation, WorkCapExceeded
from .ff import (Echelon, FiniteField, Matrix, _prime_factors, field_cost,
                 field_create)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def _power_not_scalar(e: int) -> InputError:
    return InputError(f"the matrix to the power {e} is not a nonzero scalar: "
                      f"it is singular, or its projective order does not "
                      f"divide {e}")


def projective_order(m: Matrix, multiple: int) -> int:
    """Least e >= 1 with m^e a scalar matrix.

    Divides primes out of a known multiple o of the order (F. Celler and
    C. R. Leedham-Green, "Calculating the order of an invertible matrix",
    DIMACS 28, 1997): for each prime r | o, o <- o/r while m^(o/r) is
    still scalar, one power per test.  The exponents e with m^e scalar
    are the multiples of the projective order, so what is left is the
    least.  The multiple is checked inside the first power, as
    m^o = (m^(o/r))^r, and :class:`InputError` is raised when m^o is not
    scalar (which covers a singular m).
    """
    if not _is_int(multiple) or multiple < 1:
        raise InputError(
            f"order multiple {multiple!r} must be a positive integer")
    o = multiple
    first = True
    for r in _prime_factors(multiple):
        while o % r == 0:
            low = m ** (o // r)
            scalar = low.is_scalar()
            if first and not scalar and not (low ** r).is_scalar():
                raise _power_not_scalar(multiple)
            first = False
            if not scalar:
                break
            o //= r
    if multiple == 1 and not m.is_scalar():
        raise _power_not_scalar(multiple)
    return o


def element_order(m: Matrix, po: int) -> int:
    """Least e >= 1 with m^e the identity, given m's projective order po.

    m^po is a scalar lambda and the order is po * ord(lambda): m^e = 1
    forces m^e scalar, so po | e, and m^(po j) = lambda^j.  That is one
    power, checked to be scalar; po must be the projective order itself,
    not a multiple of it.
    """
    power = m ** po
    if not power.is_scalar():
        raise _power_not_scalar(po)
    field = m.field
    lam = power.vals[0]
    o = field.q - 1
    for r in _prime_factors(o):
        while o % r == 0 and field.pow(lam, o // r) == 1:
            o //= r
    return po * o


# ---------------------------------------------------------------------------
# generator tuples and their wire format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupTuple:
    """A tuple (c_1, ..., c_m) of determinant-one matrices with declared
    orders, whose product is a scalar matrix.

    The declared order a_i is the target relator exponent, which the
    projective order of c_i must divide; it need not equal it.
    """

    field: FiniteField
    n: int
    generators: tuple[Matrix, ...]
    declared_orders: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.generators)

    def prefixes(self) -> tuple[Matrix, ...]:
        """The m + 1 partial products c_1 ... c_i for i = 0..m, from the
        identity to the full product, folded once per tuple."""
        return self._prefixes

    @cached_property
    def _prefixes(self) -> tuple[Matrix, ...]:
        out = [Matrix.identity(self.field, self.n)]
        for g in self.generators:
            out.append(out[-1] @ g)
        return tuple(out)

    def product(self) -> Matrix:
        return self._prefixes[-1]


def _is_int(x) -> bool:
    """An integer, not a bool: JSON ``true`` must not pass for 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def group_tuple(generators: Sequence[Matrix],
                declared_orders: Sequence[int]) -> GroupTuple:
    """Validated constructor for :class:`GroupTuple`."""
    if not generators:
        raise InputError("empty generator tuple")
    field = generators[0].field
    n = generators[0].rows
    if len(declared_orders) != len(generators):
        raise InputError("declared_orders length differs from generator count")
    for g in generators:
        if g.field != field or g.rows != n or g.cols != n:
            raise InputError("generators must be square matrices over one field")
        if g.det() != 1:
            raise InputError("generator determinant is not 1")
    for a in declared_orders:
        if not _is_int(a) or a < 1:
            raise InputError(f"declared order {a!r} must be a positive integer")
    t = GroupTuple(field=field, n=n, generators=tuple(generators),
                   declared_orders=tuple(int(a) for a in declared_orders))
    if not t.product().is_scalar():
        raise InputError("product of the generators is not a scalar matrix")
    # g^a is scalar exactly when the projective order divides a
    for i, (g, a) in enumerate(zip(t.generators, t.declared_orders)):
        if not (g ** a).is_scalar():
            raise InputError(
                f"generator {i}: its projective order does not divide the "
                f"declared order {a}"
            )
    return t


def _entry_value(entry, field: FiniteField) -> int:
    """The packed value of one wire entry."""
    if isinstance(entry, int):
        entry = [entry]
    if not isinstance(entry, list) or not all(map(_is_int, entry)):
        raise InputError(f"matrix entry {entry!r} is not a coefficient sequence")
    if len(entry) > field.k:
        raise InputError(f"entry {entry!r} has more than k = {field.k} coefficients")
    return field.element(entry)


def tuple_from_json(doc: dict, work_cap: int | None = None) -> GroupTuple:
    """Parse the wire format.

    Expected shape::

        {"schema": 1, "p": 7, "k": 1, "n": 2,
         "generators": [[[[0],[1]],[[6],[0]]], ...],
         "orders": [2, 3, 7]}

    Each generator is a list of rows; each entry is the coefficient
    sequence of a field element, low degree first (a bare int is accepted
    as shorthand for a length-1 sequence).  The field's setup cost
    (:func:`ff.field_cost`) is checked against work_cap before the field
    is built.
    """
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if not _is_int(schema) or schema != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {schema!r}")
    for key in ("p", "k", "n", "generators", "orders"):
        if key not in doc:
            raise InputError(f"missing required field {key!r}")
    p, k, n = doc["p"], doc["k"], doc["n"]
    if not (_is_int(p) and _is_int(k) and _is_int(n)):
        raise InputError("fields p, k, n must be integers")
    if n < 1:
        raise InputError(f"matrix size n = {n} must be >= 1")
    if work_cap is not None and field_cost(p, k) > work_cap:
        raise WorkCapExceeded(f"setting up the field with p = {p}, k = {k} "
                              f"needs more work than the cap {work_cap}")
    field = field_create(p, k)
    if not isinstance(doc["generators"], list):
        raise InputError("generators must be a list of matrices")
    gens = [matrix_from_wire(field, n, rows) for rows in doc["generators"]]
    orders = doc["orders"]
    if not isinstance(orders, list):
        raise InputError("orders must be a list of positive integers")
    return group_tuple(gens, orders)


def matrix_to_wire(m: Matrix) -> list:
    """Rows of coefficient sequences, the JSON shape of one matrix."""
    unpack = m.field.unpack
    return [[list(unpack(v)) for v in row] for row in m.row_values()]


def matrix_from_wire(field: FiniteField, n: int, rows) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"matrix document is not a list of {n} rows")
    vals = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"matrix document has a row of length != {n}")
        vals.extend(_entry_value(e, field) for e in row)
    return Matrix(field, n, n, vals)


def tuple_to_json(t: GroupTuple) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "p": t.field.p,
        "k": t.field.k,
        "n": t.n,
        "generators": [matrix_to_wire(g) for g in t.generators],
        "orders": list(t.declared_orders),
    }


def load_tuple(path: str, work_cap: int | None = None) -> GroupTuple:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a decode error, or an int too long to read
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return tuple_from_json(doc, work_cap)


# ---------------------------------------------------------------------------
# group closure
# ---------------------------------------------------------------------------

class FiniteGroupTable:
    """A finite matrix group enumerated element by element.

    Elements are indexed densely in breadth-first discovery order starting
    from the identity (index 0).  With ``projective=True`` two matrices
    differing by a scalar share one index; the stored representative is the
    first determinant-one matrix reached for that scalar class.

    No matrix is multiplied after the closure.  The closure expands every
    element once by each generator and keeps the products as index
    permutations, ``right[k][i] = index(mats[i] @ generators[k])``.  The
    first ``mul`` or ``inv`` call searches the Cayley graph on the
    generators and their inverses breadth-first, which gives every element
    a shortest word; a word is held as the tuple of its letters'
    permutations.  ``mul(i, j)`` applies j's word to i, and ``inv(i)`` is
    i's reversed inverse word applied to the identity.  Closures built only
    for their size never pay for the words.
    """

    def __init__(self, generators: Sequence[Matrix], mats: list[Matrix],
                 right: tuple[list[int], ...], projective: bool):
        self.generators = tuple(generators)
        self.field = generators[0].field
        self.n = generators[0].rows
        self.projective = projective
        self.mats = mats
        self.right = right
        self._words: list[tuple[list[int], ...]] | None = None
        self._inverses: list[int] | None = None
        self._orders: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.mats)

    # -- arithmetic by index lookups ----------------------------------------

    def _build_words(self) -> list[tuple[list[int], ...]]:
        """Shortest words and the inverse of every element."""
        letters = []  # letter 2k is generator k, letter 2k + 1 its inverse
        for perm in self.right:
            back = [0] * self.size
            for i, j in enumerate(perm):
                back[j] = i
            letters += [perm, back]
        spelled: list[tuple[int, ...] | None] = [None] * self.size
        spelled[0] = ()
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for letter, perm in enumerate(letters):
                    j = perm[i]
                    if spelled[j] is None:
                        spelled[j] = (*spelled[i], letter)
                        nxt.append(j)
            frontier = nxt
        inverses = []
        for word in spelled:
            x = 0
            for letter in reversed(word):
                x = letters[letter ^ 1][x]
            inverses.append(x)
        self._inverses = inverses
        self._words = [tuple(letters[c] for c in word) for word in spelled]
        return self._words

    def mul(self, i: int, j: int) -> int:
        words = self._words
        if words is None:
            words = self._build_words()
        for perm in words[j]:
            i = perm[i]
        return i

    def inv(self, i: int) -> int:
        if self._inverses is None:
            self._build_words()
        return self._inverses[i]

    def order_of(self, i: int) -> int:
        """Order of element i in the table's group (projective order when
        the table is projective)."""
        if self._orders is None:
            self._orders = [0] * self.size
        if self._orders[i] == 0:
            e = 1
            j = i
            while j != 0:
                j = self.mul(j, i)
                e += 1
            self._orders[i] = e
        return self._orders[i]

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the index set into conjugacy classes.

        Each class is a sorted index tuple; classes are ordered by their
        least member, so class 0 is always {identity}.
        """
        if self._classes is not None:
            return self._classes
        if self._inverses is None:
            self._build_words()
        inverses = self._inverses
        seen = [False] * self.size
        classes = []
        for start in range(self.size):
            if seen[start]:
                continue
            orbit = {start}
            stack = [start]
            seen[start] = True
            while stack:
                x = stack.pop()
                for perm in self.right:
                    # g^-1 x g = inv(inv(x g) g)
                    y = inverses[perm[inverses[perm[x]]]]
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        stack.append(y)
            classes.append(tuple(sorted(orbit)))
        self._classes = tuple(classes)
        return self._classes

    def class_of(self) -> list[int]:
        """index -> conjugacy class number."""
        out = [0] * self.size
        for cid, members in enumerate(self.conjugacy_classes()):
            for m in members:
                out[m] = cid
        return out


class _Closure:
    """A breadth-first closure that can stop at a cap and go on later.

    Its state is the table built so far: ``mats``, the key-to-index dict,
    and the permutations ``right``, which fill in (element, generator)
    order, so their lengths tell which product comes next.  Each BFS level
    is multiplied at once: the level ``mats[start:stop]``, stacked as one
    (B n) x n matrix, times each generator, one ``Matrix @`` per generator.
    Each such product is keyed in one batch by columns (``_keyed``) and
    then indexed one element at a time; a ``Matrix`` is sliced out only for
    a new element.  The level's products and keys stay until they are
    indexed, so a closure stopped by its cap and run again with a larger
    one multiplies no element by a generator twice.
    """

    def __init__(self, gens: Sequence[Matrix], projective: bool):
        if not gens:
            raise InputError("group closure needs at least one generator")
        field = gens[0].field
        n = gens[0].rows
        for g in gens:
            if g.field != field or g.rows != n or g.cols != n:
                raise InputError(
                    "closure generators must be square over one field")
            if not g.is_invertible():
                raise InputError("closure generator is not invertible")
        self.gens = tuple(gens)
        self.projective = projective
        ident = Matrix.identity(field, n)
        self.mats = [ident]
        self.index = {ident.vals: 0}
        self.right = tuple([] for _ in gens)
        self.start = self.stop = 0
        self.level: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = []

    def _keyed(self, vals: tuple[int, ...]) -> tuple:
        """A level's products and their keys, all keyed at once by columns:
        column s holds entry s of every product.  Projectively, each
        product is scaled by the inverse of its first nonzero entry, which
        lies in the first row of an invertible matrix."""
        field, n = self.gens[0].field, self.gens[0].rows
        cols = [vals[s::n * n] for s in range(n * n)]
        if self.projective:
            lead = cols[0]
            for col in cols[1:n]:
                lead = [x or y for x, y in zip(lead, col)]
            inv = {x: field.inv(x) for x in set(lead)}
            invs = [inv[x] for x in lead]
            cols = [list(map(field.mul, invs, col)) for col in cols]
        return vals, list(zip(*cols))

    def run(self, cap: int) -> None:
        """Go on until the table closes, or raise :class:`WorkCapExceeded`
        on element cap + 1 (the state stays as it was at the raise)."""
        gens, mats, index, right = self.gens, self.mats, self.index, self.right
        if len(mats) > cap:
            raise _cap_exceeded(cap)
        field, n = gens[0].field, gens[0].rows
        n2 = n * n
        r = len(gens)
        # Expanding in index order is breadth-first order: each level is
        # the run of indices appended while the level before it expanded.
        while len(right[-1]) < len(mats):
            i = len(right[-1])
            if i == self.stop:
                stack = Matrix(field, (len(mats) - i) * n, n,
                               itertools.chain.from_iterable(
                                   m.vals for m in mats[i:]))
                self.level = [self._keyed((stack @ g).vals) for g in gens]
                self.start, self.stop = i, len(mats)
            level, start = self.level, self.start
            # a raise may have left element i expanded by the first k0 only
            k0 = sum(len(perm) > i for perm in right)
            for e in range(i - start, self.stop - start):
                for k in range(k0, r):
                    vals, keys = level[k]
                    kv = keys[e]
                    j = index.get(kv)
                    if j is None:
                        if len(mats) >= cap:
                            raise _cap_exceeded(cap)
                        j = index[kv] = len(mats)
                        mats.append(Matrix(field, n, n,
                                           vals[e * n2:(e + 1) * n2]))
                    right[k].append(j)
                k0 = 0
        self.level = []  # a search closure lives on in its pair


def _cap_exceeded(cap: int) -> WorkCapExceeded:
    return WorkCapExceeded(f"group closure exceeded the cap of {cap} elements")


class _SearchPair(tuple):
    """A candidate pair (a, b) with its projective closure in ``search``,
    which :func:`group_closure` continues."""

    def __init__(self, pair: tuple[Matrix, Matrix]):
        self.search = _Closure(pair, projective=True)


def group_closure(gens: Sequence[Matrix], cap: int,
                  projective: bool = False) -> FiniteGroupTable:
    """Breadth-first closure of the generators under multiplication.

    Raises :class:`WorkCapExceeded` when it reaches element cap + 1, so a
    group of exactly ``cap`` elements closes.  Given a pair from
    :func:`generating_pair`, it continues the projective closure that the
    search stopped at half of PSL_n(q) instead of starting again from the
    identity, in projective mode, and in linear mode too when
    gcd(n, q - 1) = 1: then 1 is the only determinant-one scalar, so the
    projective closure is the linear one.  The table is the one a fresh
    closure builds.
    """
    if isinstance(gens, _SearchPair) and (
            projective or math.gcd(gens[0].rows, gens[0].field.q - 1) == 1):
        closure = gens.search
    else:
        closure = _Closure(gens, projective)
    closure.run(cap)
    return FiniteGroupTable(closure.gens, closure.mats, closure.right,
                            projective)


# ---------------------------------------------------------------------------
# irreducibility (Burnside span test)
# ---------------------------------------------------------------------------

def is_absolutely_irreducible(gens: Sequence[Matrix]) -> bool:
    """Whether the matrix algebra generated by the tuple is all of n x n.

    Grows the span of words in the generators, starting from the identity
    and the generators themselves and left-multiplying new basis members,
    until the dimension stabilizes; irreducible over every extension field
    exactly when the span reaches n squared.
    """
    if not gens:
        raise InputError("irreducibility test needs at least one matrix")
    field = gens[0].field
    n = gens[0].rows
    if n == 1:
        return True
    target = n * n
    span = Echelon(field, target)
    queue = [Matrix.identity(field, n), *gens]
    while queue:
        mat = queue.pop()
        if span.add(mat.vals):
            if len(span.pivots) == target:
                return True
            queue.extend(g @ mat for g in gens)
    return False


# ---------------------------------------------------------------------------
# SL_n helpers
# ---------------------------------------------------------------------------

def sl_order(q: int, n: int) -> int:
    """|SL_n(q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    return q ** (n * (n - 1) // 2) * math.prod(q**i - 1 for i in range(2, n + 1))


def psl_order(q: int, n: int) -> int:
    return sl_order(q, n) // math.gcd(n, q - 1)


def _transvection(field: FiniteField, n: int, v: int) -> Matrix:
    vals = list(Matrix.identity(field, n).vals)
    vals[1] = v
    return Matrix(field, n, n, vals)


def _companion(field: FiniteField, n: int, coeffs: tuple[int, ...]) -> Matrix:
    """Companion matrix of x^n + c_{n-1} x^(n-1) + ... + c_1 x + (-1)^n,
    which has determinant one by construction."""
    vals = [0] * (n * n)
    for i in range(1, n):
        vals[i * n + i - 1] = 1
    for i, c in enumerate(coeffs):
        vals[(n - 1 - i) * n + (n - 1)] = field.neg(c)
    vals[n - 1] = 1 if n % 2 else field.neg(1)  # -(-1)^n
    return Matrix(field, n, n, vals)


def _pair_candidates(field: FiniteField, n: int) -> Iterable[tuple[Matrix, Matrix]]:
    upper = _transvection(field, n, 1)
    if n == 2:
        for v in range(1, field.q):
            yield upper, Matrix(field, 2, 2, (1, 0, v, 1))
    else:
        cycle_rows = [[0] * n for _ in range(n)]
        for i in range(n):
            cycle_rows[i][(i - 1) % n] = 1
        if n % 2 == 0:
            cycle_rows[0][n - 1] = -1
        cycle = Matrix.from_rows(field, cycle_rows)
        for v in range(1, field.q):
            yield _transvection(field, n, v), cycle
    for coeffs in itertools.product(range(field.q), repeat=n - 1):
        yield upper, _companion(field, n, coeffs)
    for v in range(2, field.q):
        for coeffs in itertools.product(range(field.q), repeat=n - 1):
            yield _transvection(field, n, v), _companion(field, n, coeffs)


def generating_pair(field: FiniteField, n: int) -> tuple[Matrix, Matrix]:
    """A deterministic generating pair (a, b) of SL_n over the given field.

    Tries a fixed candidate stream (transvections against a transvection,
    Weyl element, or signed cycle) and accepts the first pair that
    generates.  Generation is decided modulo scalars: a pair generates
    SL_n(q) exactly when its image generates PSL_n(q), because a subgroup
    H with HZ = G (Z central) is normal with abelian quotient, so it
    contains [G, G], and SL_n(q) is perfect except for SL_2(2), where
    Z = 1, and SL_2(3), where Z = {+-1} lies in [G, G] = Q_8.  By Lagrange
    a proper subgroup has at most half the elements of PSL_n(q), so each
    candidate's projective closure is capped at |PSL_n(q)| // 2, and the
    first that exceeds the cap wins.  No closure in the search is built
    past half of PSL_n(q).  The winner's closure rides along with the
    pair, and :func:`group_closure` continues it.
    """
    half = psl_order(field.q, n) // 2
    for a, b in _pair_candidates(field, n):
        pair = _SearchPair((a, b))
        try:
            group_closure(pair, cap=half, projective=True)
        except WorkCapExceeded:
            return pair
    raise InvariantViolation(
        f"no generating pair found for SL_{n}({field.q}) in the candidate stream"
    )

