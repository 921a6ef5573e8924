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
``group_tuple`` has checked by the power g^a that the tuple keeps.  The
division hands back the scalar g^po it ended on, and the element order is
the projective order times that scalar's order, with no power more.

A closed group is one object, :class:`FiniteGroupTable`, which runs its
breadth-first closure when it is made, over elements held as the
permutations they induce on the points of P^(n-1) reached from a
projective frame, one byte per point (Á. Seress, *Permutation Group
Algorithms*, CUP 2003, ch. 4); the permutation is the projective key, and
with the scalar on e_1 the linear one.  Generation is decided by a
deterministic Schreier–Sims on those permutations (C. C. Sims, 1970),
stopped as soon as the partial stabilizer chain proves the group's order.
``generating_pair`` closes each candidate modulo scalars and takes the
first whose table is all of PSL_n(q); a census takes that table over
(unless it closes SL_n(q) with nontrivial scalars), so no element of the
census table is multiplied by a generator twice.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property, reduce
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


def projective_order(m: Matrix, multiple: int,
                     power: Matrix) -> tuple[int, Matrix]:
    """Least e >= 1 with m^e a scalar matrix, and that scalar m^e.

    Divides primes out of a known multiple o of the order (F. Celler and
    C. R. Leedham-Green, "Calculating the order of an invertible matrix",
    DIMACS 28, 1997): for each prime r | o, o <- o/r while m^(o/r) is
    still scalar, one power per test.  The exponents e with m^e scalar
    are the multiples of the projective order, so what is left is the
    least, and the last scalar power found is m^e.  power is m^multiple,
    which the caller has (a tuple keeps each g^a from its check);
    :class:`InputError` is raised when it is not scalar (which covers a
    singular m).
    """
    if not _is_int(multiple) or multiple < 1:
        raise InputError(
            f"order multiple {multiple!r} must be a positive integer")
    if not power.is_scalar():
        raise _power_not_scalar(multiple)
    o = multiple
    for r in _prime_factors(multiple):
        while o % r == 0:
            low = m ** (o // r)
            if not low.is_scalar():
                break
            o, power = o // r, low
    return o, power


def element_order(m: Matrix, po: int, power: Matrix) -> int:
    """Least e >= 1 with m^e the identity, given m's projective order po.

    m^po is a scalar lambda and the order is po * ord(lambda): m^e = 1
    forces m^e scalar, so po | e, and m^(po j) = lambda^j.  power is m^po,
    which :func:`projective_order` returns, so this takes no power; it is
    checked to be scalar, and po must be the projective order itself, not
    a multiple of it.
    """
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

class GroupTuple:
    """A tuple (c_1, ..., c_m) of determinant-one matrices with declared
    orders, whose product is a scalar matrix.

    The declared order a_i is the target relator exponent, which the
    projective order of c_i must divide; it need not equal it.

    It caches its prefixes and powers, so it is a plain object that
    compares and hashes by identity; nothing hashes one or compares two by
    value.
    """

    def __init__(self, field: FiniteField, n: int,
                 generators: tuple[Matrix, ...],
                 declared_orders: tuple[int, ...]):
        self.field = field
        self.n = n
        self.generators = generators
        self.declared_orders = declared_orders

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

    def powers(self) -> tuple[Matrix, ...]:
        """Each generator to its declared order, c_i^(a_i), scalar on a
        validated tuple: taken once, by :func:`group_tuple`'s check, and
        read again by the verdict's :func:`projective_order`."""
        return self._powers

    @cached_property
    def _powers(self) -> tuple[Matrix, ...]:
        return tuple(g ** a for g, a in zip(self.generators,
                                            self.declared_orders))


def _is_int(x) -> bool:
    """An integer, not a bool: JSON ``true`` must not pass for 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def group_tuple(generators: Sequence[Matrix], declared_orders: Sequence[int],
                work_cap: int | None = None) -> GroupTuple:
    """Validated constructor for :class:`GroupTuple`.  Checking that each
    g^a is scalar takes a.bit_length() + a.bit_count() - 2 products of
    n x n matrices (:func:`ff._power`); with a work_cap, their n^3 entry
    products each are checked against it before the first power."""
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
    if work_cap is not None:
        cost = n ** 3 * sum(a.bit_length() + a.bit_count() - 2
                            for a in t.declared_orders)
        if cost > work_cap:
            raise WorkCapExceeded(
                f"checking the declared orders needs {cost} entry products, "
                f"more than the work cap {work_cap}")
    # g^a is scalar exactly when the projective order divides a
    for i, (power, a) in enumerate(zip(t.powers(), t.declared_orders)):
        if not power.is_scalar():
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
    is built, and the powers that check the declared orders before the
    first of them (:func:`group_tuple`).
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
    return group_tuple(gens, orders, work_cap)


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
# generation of a permutation group (Schreier–Sims)
# ---------------------------------------------------------------------------

_IDENTITY = bytes(range(256))


def _reaches_order(gens: Sequence[bytes], order: int) -> bool:
    """Whether the permutations generate a group of ``order`` elements,
    given that they generate at most that many.  Each is a 256-byte
    ``bytes.translate`` table, x[p] the image of point p, so x.translate(y)
    is x followed by y.

    A deterministic Schreier–Sims (C. C. Sims, "Computational methods in
    the study of permutation groups", 1970; Á. Seress, *Permutation Group
    Algorithms*, CUP 2003, ch. 4), bottom up.  Level l keeps a base point
    b_l, strong generators S_l that fix b_0, ..., b_(l-1), and the orbit
    of b_l under them, with a transversal element u_d taking b_l to each
    orbit point d and its inverse.  A Schreier generator u_d s u_(ds)^-1
    of level l is sifted through the levels below; a residue that is not
    the identity joins S_(l+1), ..., S_j, where j is the level it stopped
    at (a new base point if it fixes them all), and level j is taken up
    next.  The orbit of b_l under S_l lies in its orbit under the
    stabilizer of b_0, ..., b_(l-1) in the group, so the product of the
    orbit lengths never exceeds the group's order: reaching ``order``
    answers True at once, and a chain whose Schreier generators all sift,
    which then has that product as its order, answers False below it.
    """
    gens = [g for g in gens if g != _IDENTITY]
    if not gens:
        return order == 1
    base: list[int] = []
    strong: list[list[bytes]] = []
    orbits: list[list[int]] = []
    trans: list[dict[int, bytes]] = []
    backs: list[dict[int, bytes]] = []
    done: list[set[tuple[int, int]]] = []

    def join(h: bytes, level: int) -> bool:
        """Add h to S_level and grow the level's orbit; True once the
        orbit lengths reach the order."""
        if level == len(base):
            b = next(p for p, x in enumerate(h) if p != x)
            base.append(b)
            strong.append([])
            orbits.append([b])
            trans.append({b: _IDENTITY})
            backs.append({b: _IDENTITY})
            done.append(set())
        gens_l, orbit, u, back = (strong[level], orbits[level], trans[level],
                                  backs[level])
        gens_l.append(h)
        old = len(orbit)
        for a, d in enumerate(orbit):  # grows as new points are reached
            for s in gens_l if a >= old else (h,):
                e = s[d]
                if e not in u:
                    u[e] = x = u[d].translate(s)
                    back[e] = bytes.maketrans(x, _IDENTITY)
                    orbit.append(e)
        return math.prod(map(len, orbits)) >= order

    def residue(i: int) -> tuple[bytes, int] | None:
        """The first untested Schreier generator of level i that does not
        sift, as its residue and the level where the sift stopped."""
        u, back, tested = trans[i], backs[i], done[i]
        for d in orbits[i]:
            for k, s in enumerate(strong[i]):
                if (d, k) in tested:
                    continue
                tested.add((d, k))
                e = s[d]
                y = u[d].translate(s)
                if y == u[e]:
                    continue
                y = y.translate(back[e])
                j = i + 1
                while j < len(base):
                    t = backs[j].get(y[base[j]])
                    if t is None:
                        break
                    y = y.translate(t)
                    j += 1
                if j < len(base) or y != _IDENTITY:
                    return y, j
        return None

    if any(join(g, 0) for g in gens):
        return True
    i = 0
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        y, j = found
        if any(join(y, level) for level in range(i + 1, j + 1)):
            return True
        i = j
    return False


# ---------------------------------------------------------------------------
# group closure
# ---------------------------------------------------------------------------

class FiniteGroupTable:
    """A finite matrix group, closed breadth-first when it is made.

    ``FiniteGroupTable(gens, projective, cap)`` checks the generators,
    walks the frame orbit, and runs the closure to the end or refuses it
    with :class:`WorkCapExceeded` at element cap + 1.  Elements are
    indexed densely in discovery order from the identity (index 0); with
    ``projective=True`` two matrices differing by a scalar share one.

    An element is held as the permutation it induces on the points of
    P^(n-1) (first nonzero entry 1) reached from the frame <e_1>, ...,
    <e_n>, <e_1 + ... + e_n>, one byte per point; a frame orbit past 256
    points is refused with :class:`InputError` at its 257th point, before
    any element.  Only scalars fix every frame point, so projectively the
    permutation is the key; linearly the key is (permutation, c), with
    e_1 g = c <e_1 g>.  A product by generator k is one ``bytes.translate``
    and, linearly, c times the scalar generator k puts on <e_1 x>.

    No matrices are kept: only the keys, the index permutations
    ``right[k][i] = index(matrix(i) @ generators[k])`` and each element's
    BFS parent, from which ``matrix(i)`` rebuilds the first product that
    reached i (a determinant-one representative, projectively too).  A
    table keyed by permutations alone (a projective one, or its linear
    copy from :func:`group_closure` when 1 is the only scalar) keeps them
    as ``perms``: ``mul`` is one ``bytes.translate`` and a key lookup, the
    inverses come at once from ``bytes.maketrans``, and ``centralizer``
    compares two translates.  One keyed with scalars has ``perms`` None;
    its first ``mul`` or ``inv`` spells every element as a shortest word
    in the generators and their inverses, and ``mul(i, j)`` applies j's
    word to i.
    """

    def __init__(self, gens: Sequence[Matrix], projective: bool, cap: int):
        if not gens:
            raise InputError("group closure needs at least one generator")
        field, n = gens[0].field, gens[0].rows
        for g in gens:
            if g.field != field or g.rows != n or g.cols != n:
                raise InputError(
                    "closure generators must be square over one field")
            if not g.is_invertible():
                raise InputError("closure generator is not invertible")
        self.generators = tuple(gens)
        self.field, self.n, self.projective = field, n, projective
        frame = [*map(tuple, Matrix.identity(field, n).row_values()), (1,) * n]
        points = list(dict.fromkeys(frame))  # e_1 + ... + e_n = e_1 at n = 1
        where = {v: i for i, v in enumerate(points)}
        images, leads = tuple([] for _ in gens), tuple([] for _ in gens)
        add, mul = field.add, field.mul
        columns = [[g.vals[j::n] for j in range(n)] for g in gens]
        for v in points:  # grows as new points are reached
            for cols, image, scalars in zip(columns, images, leads):
                w = [reduce(add, map(mul, v, col)) for col in cols]
                lead = next(filter(None, w))
                w = tuple(field.scale(field.inv(lead), w))
                image.append(where.setdefault(w, len(points)))
                if image[-1] == len(points):
                    if len(points) == 256:  # the walk stops at point 257
                        raise InputError(
                            f"the generators move the frame of P^{n - 1}"
                            f"(F_{field.q}) through more than 256 points, "
                            "the most a closure indexes")
                    points.append(w)
                scalars.append(lead)
        pad = self.pad = bytes(range(len(points), 256))
        ident = bytes(range(len(points)))
        keys = self._keys = [ident if projective else (ident, 1)]
        index = {keys[0]: 0}
        self.right = tuple([] for _ in gens)
        parent = self._parent = [0]
        moves = [(bytes(image) + pad, scalars, perm)
                 for image, scalars, perm in zip(images, leads, self.right)]
        for i, x in enumerate(keys):  # grows as new elements are reached
            x, c = (x, 1) if projective else x
            for table, scalars, perm in moves:
                y = x.translate(table)
                key = y if projective else (y, mul(c, scalars[x[0]]))
                j = index.get(key)
                if j is None:
                    if len(keys) >= cap:
                        raise _cap_exceeded(cap)
                    j = index[key] = len(keys)
                    keys.append(key)
                    parent.append(i)
                perm.append(j)
        self.perms, self._index = (keys, index) if projective else (None, None)
        self._scalars = 1 if projective else sum(x == ident for x, _ in keys)
        self.size = len(keys)
        self._words: list[tuple[list[int], ...]] | None = None
        self._inverses: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None

    def _path(self, i: int) -> list[int]:
        """The generator numbers on element i's BFS path, in order."""
        path = []
        while i:
            p = self._parent[i]
            # the first generator taking the parent to i is the one that did
            path.append([perm[p] for perm in self.right].index(i))
            i = p
        return path[::-1]

    def matrix(self, i: int) -> Matrix:
        """Element i, as the product of the generators on its BFS path."""
        m = Matrix.identity(self.field, self.n)
        for k in self._path(i):
            m = m @ self.generators[k]
        return m

    def _point_perm(self, i: int) -> bytes:
        """Element i's permutation of the frame orbit, read off its key, as
        a 256-byte translate table."""
        x = self._keys[i]
        return (x if self.perms is not None else x[0]) + self.pad

    # -- arithmetic ----------------------------------------------------------

    def _build_inverses(self) -> list[int]:
        """The inverse of every element: maketrans(x, identity) is x's
        inverse padded to a translate table, or else from the words."""
        perms = self.perms
        if perms is None:
            self._build_words()
        else:
            ident, index = perms[0], self._index
            self._inverses = [index[bytes.maketrans(x, ident)[:len(x)]]
                              for x in perms]
        return self._inverses

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
        queue = [0]
        for i in queue:  # grows as new elements are spelled
            for letter, perm in enumerate(letters):
                j = perm[i]
                if spelled[j] is None:
                    spelled[j] = (*spelled[i], letter)
                    queue.append(j)
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
        if words is None:  # a table with permutations never spells words
            perms = self.perms
            if perms is not None:
                return self._index[perms[i].translate(perms[j] + self.pad)]
            words = self._build_words()
        for perm in words[j]:
            i = perm[i]
        return i

    def inv(self, i: int) -> int:
        inverses = self._inverses
        if inverses is None:
            inverses = self._build_inverses()
        return inverses[i]

    def centralizer(self, i: int) -> list[int]:
        """The elements that commute with i: by one ``bytes.translate``
        each way when the table keeps permutations, by ``mul`` otherwise."""
        perms = self.perms
        if perms is None:
            mul = self.mul
            return [c for c in range(self.size) if mul(i, c) == mul(c, i)]
        x, x_pad, pad = perms[i], self._point_perm(i), self.pad
        return [c for c, y in enumerate(perms)
                if x.translate(y + pad) == y.translate(x_pad)]

    def generates(self, gens_idx: Sequence[int]) -> bool:
        """Whether the elements generate the table's group.

        Sifts their point permutations, on which the group modulo its
        scalars acts faithfully (:func:`_reaches_order`), against ``size``
        over the number of scalars.  A table with a centre so answers
        modulo its scalars; for SL_n(q) that is the same, by the
        perfectness argument in :func:`generating_pair`'s docstring.
        """
        return _reaches_order([self._point_perm(i) for i in gens_idx],
                              self.size // self._scalars)

    def order_of(self, i: int) -> int:
        """Order of element i in the table's group (projective order when
        the table is projective)."""
        e, j = 1, i
        while j != 0:
            j = self.mul(j, i)
            e += 1
        return e

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the index set into conjugacy classes.

        Each class is a sorted index tuple; classes are ordered by their
        least member, so class 0 is always {identity}.
        """
        if self._classes is not None:
            return self._classes
        inverses = self._inverses or self._build_inverses()
        seen = [False] * self.size
        classes = []
        for start in range(self.size):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            for x in orbit:  # grows as new conjugates are found
                for perm in self.right:
                    # g^-1 x g = inv(inv(x g) g)
                    y = inverses[perm[inverses[perm[x]]]]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
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


class _SearchPair(tuple):
    """A pair (a, b) from :func:`generating_pair`, with its finished
    projective table in ``search``."""

    search: FiniteGroupTable


def group_closure(gens: Sequence[Matrix], cap: int,
                  projective: bool = False) -> FiniteGroupTable:
    """Breadth-first closure of the generators under multiplication:
    ``FiniteGroupTable(gens, projective, cap)``, which refuses element
    cap + 1, so a group of exactly ``cap`` elements closes.

    Given a pair from :func:`generating_pair`, it hands over the table the
    search finished instead of closing again: that table on a projective
    request, and on a linear one when gcd(n, q - 1) = 1 (1 is then the
    only determinant-one scalar, so the two closures agree) a shallow copy
    with ``projective`` False, so one object never carries two names.
    """
    if isinstance(gens, _SearchPair) and (
            projective or math.gcd(gens[0].rows, gens[0].field.q - 1) == 1):
        table = gens.search
        if table.size > cap:
            raise _cap_exceeded(cap)
        if not projective:
            from copy import copy  # imported here: most processes never copy
            table = copy(table)
            table.projective = False
        return table
    return FiniteGroupTable(gens, projective, cap)


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
    Z = 1, and SL_2(3), where Z = {+-1} lies in [G, G] = Q_8.  Each
    candidate's projective table is closed to the end and kept on it as
    ``search``; the first with |PSL_n(q)| elements wins (by Lagrange a
    losing one stops at half of that or below), and :func:`group_closure`
    hands its table over.
    """
    order = psl_order(field.q, n)
    for pair in map(_SearchPair, _pair_candidates(field, n)):
        pair.search = FiniteGroupTable(pair, True, order)
        if pair.search.size == order:
            return pair
    raise InvariantViolation(
        f"no generating pair found for SL_{n}({field.q}) in the candidate stream"
    )
