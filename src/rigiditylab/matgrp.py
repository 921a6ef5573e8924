"""Explicit matrix groups over finite fields.

Provides the generator-tuple input type with its JSON wire format, element
and projective orders, breadth-first closure into a finite group table
(optionally modulo scalars), conjugacy classes, an absolute-irreducibility
test for the natural module, and a deterministic search for standard
generating pairs of SL_n(q).

Group tables index elements by a canonical key.  Working projectively, the
key is the entry tuple after scaling the first nonzero entry to 1, so a
table element stands for a full scalar class while its stored matrix stays
an honest determinant-one representative.  Matrix products happen only
during a linear or projective closure, which records right multiplication
by each generator as a permutation of the indices; products, inverses,
element orders and conjugacy classes in the table are then index lookups
along shortest words in the generators.  A projective table is a quotient
of a linear closure already at hand: ``generating_pair`` returns the SL_n
closure it found, and PSL_n is read off it by scalar classes, with no
product.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation, WorkCapExceeded
from .ff import Echelon, FieldElement, FiniteField, Matrix, field_create

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def element_order(m: Matrix) -> int:
    """Least e >= 1 with m^e the identity."""
    if not m.is_invertible():
        raise InputError("element_order of a non-invertible matrix")
    ident = Matrix.identity(m.field, m.rows)
    power = m
    e = 1
    while power != ident:
        power = power @ m
        e += 1
    return e


def projective_order(m: Matrix) -> int:
    """Least e >= 1 with m^e a scalar matrix."""
    if not m.is_invertible():
        raise InputError("projective_order of a non-invertible matrix")
    power = m
    e = 1
    while not power.is_scalar():
        power = power @ m
        e += 1
    return e


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
        if g.det() != field.one:
            raise InputError("generator determinant is not 1")
    for a in declared_orders:
        if not isinstance(a, int) or a < 1:
            raise InputError(f"declared order {a!r} must be a positive integer")
    t = GroupTuple(field=field, n=n, generators=tuple(generators),
                   declared_orders=tuple(int(a) for a in declared_orders))
    if not t.product().is_scalar():
        raise InputError("product of the generators is not a scalar matrix")
    # g^a is scalar exactly when the projective order divides a
    for g, a in zip(t.generators, t.declared_orders):
        if not (g ** a).is_scalar():
            raise InputError(
                f"projective order {projective_order(g)} does not divide "
                f"the declared order {a}"
            )
    return t


def tuple_from_matrices(generators: Sequence[Matrix]) -> GroupTuple:
    """GroupTuple with declared orders set to the exact projective orders."""
    return group_tuple(generators, [projective_order(g) for g in generators])


def _entry_coeffs(entry, field: FiniteField) -> FieldElement:
    if isinstance(entry, int):
        entry = [entry]
    if not isinstance(entry, list) or not all(isinstance(c, int) for c in entry):
        raise InputError(f"matrix entry {entry!r} is not a coefficient sequence")
    if len(entry) > field.k:
        raise InputError(f"entry {entry!r} has more than k = {field.k} coefficients")
    return field.element(entry)


def tuple_from_json(doc: dict) -> GroupTuple:
    """Parse the wire format.

    Expected shape::

        {"schema": 1, "p": 7, "k": 1, "n": 2,
         "generators": [[[[0],[1]],[[6],[0]]], ...],
         "orders": [2, 3, 7]}

    Each generator is a list of rows; each entry is the coefficient
    sequence of a field element, low degree first (a bare int is accepted
    as shorthand for a length-1 sequence).
    """
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    if doc.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {doc.get('schema')!r}")
    for key in ("p", "k", "n", "generators", "orders"):
        if key not in doc:
            raise InputError(f"missing required field {key!r}")
    p, k, n = doc["p"], doc["k"], doc["n"]
    if not (isinstance(p, int) and isinstance(k, int) and isinstance(n, int)):
        raise InputError("fields p, k, n must be integers")
    if n < 1:
        raise InputError(f"matrix size n = {n} must be >= 1")
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
    return [[list(m[i, j].coeffs) for j in range(m.cols)]
            for i in range(m.rows)]


def matrix_from_wire(field: FiniteField, n: int, rows) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"matrix document is not a list of {n} rows")
    ents = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"matrix document has a row of length != {n}")
        ents.extend(_entry_coeffs(e, field) for e in row)
    return Matrix(field, n, n, ents)


def tuple_to_json(t: GroupTuple) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "p": t.field.p,
        "k": t.field.k,
        "n": t.n,
        "generators": [matrix_to_wire(g) for g in t.generators],
        "orders": list(t.declared_orders),
    }


def load_tuple(path: str) -> GroupTuple:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return tuple_from_json(doc)


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
    permutations, ``right[k][i] = index(mats[i] @ generators[k])``; a
    projective table may instead be the scalar quotient of a linear one
    (:func:`group_closure` with ``linear``), with the same data.  The
    first ``mul`` or ``inv`` call searches the Cayley graph on the
    generators and their inverses breadth-first, which gives every element
    a shortest word; a word is held as the tuple of its letters'
    permutations.  ``mul(i, j)`` applies j's word to i, and ``inv(i)`` is
    i's reversed inverse word applied to the identity.  Closures built only
    for their size never pay for the words.
    """

    def __init__(self, generators: Sequence[Matrix], mats: list[Matrix],
                 index: dict[tuple, int], right: tuple[list[int], ...],
                 projective: bool):
        self.generators = tuple(generators)
        self.field = generators[0].field
        self.n = generators[0].rows
        self.projective = projective
        self.mats = mats
        self.index = index
        self.right = right
        self._words: list[tuple[list[int], ...]] | None = None
        self._inverses: list[int] | None = None
        self._orders: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None

    # -- indexing -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.mats)

    def canonical_key(self, m: Matrix) -> tuple:
        return m.projective_key() if self.projective else m.key()

    def index_of(self, m: Matrix) -> int:
        key = self.canonical_key(m)
        idx = self.index.get(key)
        if idx is None:
            raise InputError("matrix does not belong to the enumerated group")
        return idx

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


def _cap_exceeded(cap: int) -> WorkCapExceeded:
    return WorkCapExceeded(f"group closure exceeded the cap of {cap} elements")


def _breadth_first(gens: Sequence[Matrix], cap: int,
                   projective: bool) -> FiniteGroupTable:
    field = gens[0].field
    n = gens[0].rows
    for g in gens:
        if g.field != field or g.rows != n or g.cols != n:
            raise InputError("closure generators must be square over one field")
        if not g.is_invertible():
            raise InputError("closure generator is not invertible")
    key = Matrix.projective_key if projective else Matrix.key
    ident = Matrix.identity(field, n)
    mats = [ident]
    index = {key(ident): 0}
    right = tuple([] for _ in gens)
    # Expanding in index order is breadth-first order: each level is the
    # run of indices appended while the level before it expanded.
    i = 0
    while i < len(mats):
        m = mats[i]
        for g, perm in zip(gens, right):
            prod = m @ g
            k = key(prod)
            j = index.get(k)
            if j is None:
                if len(mats) >= cap:
                    raise _cap_exceeded(cap)
                j = index[k] = len(mats)
                mats.append(prod)
            perm.append(j)
        i += 1
    return FiniteGroupTable(gens, mats, index, right, projective)


def _scalar_quotient(linear: FiniteGroupTable, cap: int) -> FiniteGroupTable:
    """The projective table of a linear closure, without products.

    Scalar classes are numbered in order of first occurrence by linear
    index, each keeps its first matrix, and ``right[k][c]`` is the class of
    ``right_linear[k][first(c)]``.  This is exactly the projective
    breadth-first closure of the same generators: a later member s x of a
    class is expanded after x, and each s x g lies in the class of x g,
    which x already reached.
    """
    index: dict[tuple, int] = {}
    class_of = []
    first = []
    for i, m in enumerate(linear.mats):
        c = index.setdefault(m.projective_key(), len(first))
        if c == len(first):
            if c >= cap:
                raise _cap_exceeded(cap)
            first.append(i)
        class_of.append(c)
    right = tuple([class_of[perm[i]] for i in first] for perm in linear.right)
    return FiniteGroupTable(linear.generators, [linear.mats[i] for i in first],
                            index, right, projective=True)


def group_closure(gens: Sequence[Matrix], cap: int, projective: bool = False,
                  linear: FiniteGroupTable | None = None) -> FiniteGroupTable:
    """Breadth-first closure of the generators under multiplication.

    ``linear``, a linear closure of the same generators that the caller
    already holds, makes no products: it is returned as it is, or with
    ``projective=True`` as its quotient by the scalars, which is the table
    the projective closure would build.
    """
    if not gens:
        raise InputError("group closure needs at least one generator")
    if linear is None:
        return _breadth_first(gens, cap, projective)
    if linear.projective or linear.generators != tuple(gens):
        raise InputError("linear must be a linear closure of the generators")
    return _scalar_quotient(linear, cap) if projective else linear


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
    return Matrix.from_values(field, n, n, vals)


def _companion(field: FiniteField, n: int, coeffs: tuple[int, ...]) -> Matrix:
    """Companion matrix of x^n + c_{n-1} x^(n-1) + ... + c_1 x + (-1)^n,
    which has determinant one by construction."""
    vals = [0] * (n * n)
    for i in range(1, n):
        vals[i * n + i - 1] = 1
    for i, c in enumerate(coeffs):
        vals[(n - 1 - i) * n + (n - 1)] = field.neg(c)
    vals[n - 1] = 1 if n % 2 else field.neg(1)  # -(-1)^n
    return Matrix.from_values(field, n, n, vals)


def _pair_candidates(field: FiniteField, n: int) -> Iterable[tuple[Matrix, Matrix]]:
    upper = _transvection(field, n, 1)
    if n == 2:
        for v in range(1, field.q):
            yield upper, Matrix.from_values(field, 2, 2, (1, 0, v, 1))
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


def generating_pair(field: FiniteField, n: int) -> FiniteGroupTable:
    """The closure of a deterministic generating pair for SL_n over the
    given field; the pair is its ``generators``.

    Tries a fixed candidate stream (transvections against a transvection,
    Weyl element, or signed cycle) and accepts the first pair whose closure
    size matches the SL_n order formula exactly.  Callers that need the
    group itself, or PSL_n as its quotient, take the winning closure
    rather than closing the pair again.
    """
    want = sl_order(field.q, n)
    for a, b in _pair_candidates(field, n):
        try:
            table = group_closure([a, b], cap=want + 1)
        except WorkCapExceeded:
            continue
        if table.size == want:
            return table
    raise InvariantViolation(
        f"no generating pair found for SL_{n}({field.q}) in the candidate stream"
    )


def random_sl_matrix(field: FiniteField, n: int, rng) -> Matrix:
    """Random determinant-one matrix: draw until invertible, then scale the
    first row by 1/det."""
    while True:
        vals = [rng.randrange(field.q) for _ in range(n * n)]
        d = Matrix.from_values(field, n, n, vals).det()
        if not d.is_zero():
            break
    vals[:n] = field.scale(field.inv(d.value), vals[:n])
    return Matrix.from_values(field, n, n, vals)


def random_sl_tuple(field: FiniteField, n: int, length: int, rng) -> GroupTuple:
    """Random tuple with product exactly the identity (last entry solves
    for the product)."""
    if length < 2:
        raise InputError("tuple length must be >= 2")
    mats = [random_sl_matrix(field, n, rng) for _ in range(length - 1)]
    prod = Matrix.identity(field, n)
    for m in mats:
        prod = prod @ m
    mats.append(prod.inverse())
    return tuple_from_matrices(mats)
