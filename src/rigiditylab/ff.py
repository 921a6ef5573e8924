"""Exact arithmetic in finite fields F_{p^k} and linear algebra over them.

Elements of F_{p^k} are polynomials of degree < k over F_p, reduced modulo a
monic irreducible polynomial of degree k.  The modulus is chosen canonically:
the monic irreducible whose coefficient vector, read as the base-p integer
c_{k-1} p^{k-1} + ... + c_1 p + c_0, is smallest, each candidate tested by
Ben-Or's test.  This makes element serialization reproducible across runs
and machines.

An element is a plain int, the packed value sum(c_i * p^i) in [0, q); the
coefficient tuple (the wire format) is ``FiniteField.unpack`` of it, and
``FiniteField.element`` packs one.  All field arithmetic is done by the
FiniteField methods on packed values (``add``, ``sub``, ``neg``, ``mul``,
``inv``, ``pow``, ``scale``, ``add_scaled``).  ``pow``, ``Matrix.__pow__``
and the polynomial powers share one square-and-multiply, ``_power``.

Fields with q <= 64 (``_SQUARE_TABLE_LIMIT``) add and multiply by table:
q rows of q packed ints each, plus a negation row, built once from the
field's own add and mul.  Fields with q <= 16 (so q^2 <= 256) also keep
byte tables: ``_mul_bytes[c]`` translates a row of ``bytes`` y to c y,
and ``_pair`` maps the byte x q + y to x + y.  So a whole row operation
x + c y on such rows is two ``bytes.translate`` calls around one integer
multiply-add, int(x) q + int(c y) with each row read as a big-endian int:
no byte carries, since x q + y <= q^2 - 1.  Packing small-field elements
side by side in machine words is the technique of Dumas, Fousse and Salvy
("Simultaneous modular reduction and Kronecker substitution for small
finite fields", J. Symb. Comput. 46, 2011).  ``Echelon`` and the column
sums of ``Matrix @`` run on these rows; ``Echelon`` reads two lists of
the same translates, ``_neg_mul_bytes[c]`` (y to -c y) and
``_div_bytes[c]`` (y to y / c), so a clearing step or a pivot scaling
costs no field call.

Above q = 64 addition takes one of three forms.  Over F_p, arithmetic is
integer arithmetic mod p.  Extension fields with at most 2**16 elements
precompute discrete log / antilog tables for a generator g, so
multiplication and inversion are one lookup.  For odd p they also
precompute the Zech logarithms Z(n) = log(1 + g^n), so that
g^i + g^j = g^(i + Z(j - i)) is one lookup too (K. Huber, "Some comments
on Zech's logarithms", IEEE Trans. IT 36, 1990); for p = 2 addition is
XOR.  Larger fields multiply by polynomial arithmetic, with the same
product that builds the tables and searches for the modulus.

A Matrix holds its entries as one tuple of packed ints, row major, in
``vals``; ``m[i, j]``, ``trace`` and ``det`` return packed ints too.  Its
constructor takes packed entries unchecked; ``from_rows`` packs ints or
coefficient lists.  A product over an extension field is one running sum
per column, of byte rows for q <= 16.  Over F_p with p <= 13 a left
factor with at least two rows per column takes the byte columns too, as
they are 1.04 to 2.03 times as fast as fused dot products there and 1.76
to 5.29 times from four rows per column on; every other prime-field
product, squares included, is one fused integer dot product per entry
(see ``Matrix.__matmul__``).

Everything here is immutable after construction.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import matmul, mul, xor
from typing import Iterable, Sequence

from .errors import InputError

_TABLE_LIMIT = 1 << 16
# Fields with at most this many elements get q x q addition and
# multiplication tables.  Building them costs at most 2 q^2 = 8,192
# entries, and the bound covers every field the benchmark and the golden
# corpus use (q <= 41).
_SQUARE_TABLE_LIMIT = 64


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _power(x, e: int, mul):
    """x^e for e >= 1 under the associative product mul, from the top bit
    of e: one square per later bit, and one product by x per set one
    (Knuth, TAOCP vol. 2, 4.6.3)."""
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    return _poly_modred(res, mod, p)


def _poly_modred(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """a modulo the monic mod, as k coefficients in [0, p).  The input
    coefficients may be any integers: each is reduced mod p once, when it
    leads or at the end."""
    a = list(a)
    k = len(mod) - 1
    terms = [(j, c) for j, c in enumerate(mod[:k]) if c]
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i] % p
        if c:
            for j, mj in terms:
                a[i - k + j] -= c * mj
    out = [x % p for x in a[:k]]
    return out + [0] * (k - len(out))


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    return _power(_poly_modred(a, mod, p), e,
                  lambda x, y: _poly_mulmod(x, y, mod, p))


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        monic = [c * pow(b[-1], p - 2, p) % p for c in b]
        a, b = b, _poly_trim(_poly_modred(a, monic, p))
    return a


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Monic degree-k polynomial f irreducible over F_p, by Ben-Or's test:
    gcd(x^(p^i) - x, f) = 1 for i = 1, ..., k // 2.  x^(p^i) - x is the
    product of the monic irreducibles whose degree divides i, and a
    reducible f has an irreducible factor of degree at most k / 2
    (M. Ben-Or, "Probabilistic algorithms in finite fields", FOCS 1981)."""
    frob = [0, 1]
    for _ in range((len(poly) - 1) // 2):
        frob = _poly_powmod(frob, p, poly, p)
        diff = list(frob)
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(diff, list(poly), p)) > 1:
            return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Canonical modulus: minimal packed value among monic irreducibles."""
    if k == 1:
        return (0, 1)
    for packed in range(p**k):
        coeffs = []
        v = packed
        for _ in range(k):
            v, r = divmod(v, p)
            coeffs.append(r)
        poly = coeffs + [1]
        if poly[0] != 0 and _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class FiniteField:
    """The field F_{p^k} with the canonical modulus polynomial.

    Use :func:`field_create` rather than the constructor; it caches a single
    instance per (p, k) so matrices over the same field share one owner.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if k < 1:
            raise InputError(f"extension degree k = {k} must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus_poly = _least_irreducible(p, k)
        self._pow_p = [p**i for i in range(k + 1)]
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech_add = None
        self._add_rows: list[list[int]] | None = None
        self._mul_rows: list[list[int]] | None = None
        self._neg_row: list[int] | None = None
        self._mul_bytes: list[bytes] | None = None
        self._pair: bytes | None = None
        self._neg_mul_bytes: list[bytes] | None = None
        self._div_bytes: list[bytes | None] | None = None
        if k > 1 and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self.q <= _SQUARE_TABLE_LIMIT:
            self._build_square_tables()

    # -- construction helpers ------------------------------------------------

    def element(self, coeffs: int | Iterable[int]) -> int:
        """Packed element from an int (a constant, reduced mod p) or a
        coefficient sequence, low degree first."""
        if isinstance(coeffs, int):
            if self.k == 1:
                return coeffs % self.p
            coeffs = [coeffs]
        cs = list(coeffs)
        if len(cs) > self.k:
            raise InputError(f"coefficient sequence longer than k = {self.k}")
        cs += [0] * (self.k - len(cs))
        packed = 0
        for i, c in enumerate(cs):
            packed += (c % self.p) * self._pow_p[i]
        return packed

    def unpack(self, value: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.k):
            value, r = divmod(value, self.p)
            coeffs.append(r)
        return tuple(coeffs)

    # -- packed arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_rows is not None:
            return self._add_rows[a][b]
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._zech_add is not None:
            return self._zech_add(a, b)
        out = 0
        w = 1
        for _ in range(self.k):
            out += ((a + b) % self.p) * w
            a //= self.p
            b //= self.p
            w *= self.p
        return out

    def neg(self, a: int) -> int:
        if self._neg_row is not None:
            return self._neg_row[a]
        return self.mul(self.p - 1, a)  # -1 packs to the constant p - 1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if a == 0 or b == 0:
            return 0
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(a, e, self.mul) if e else 1

    # -- packed vectors -------------------------------------------------------

    def scale(self, c: int, xs: Sequence[int]) -> list[int]:
        """[c x for x in xs]."""
        if self._mul_rows is not None:
            mc = self._mul_rows[c]
            return [mc[x] for x in xs]
        if self.k == 1:
            p = self.p
            return [c * x % p for x in xs]
        if self._exp is None:
            return [self.mul(c, x) for x in xs]
        exp, log = self._exp, self._log
        lc = log[c]
        return [exp[lc + log[x]] for x in xs]

    def add_scaled(self, xs: Sequence[int], c: int,
                   ys: Sequence[int]) -> list[int]:
        """[x + c y for x, y in zip(xs, ys)]: by table for q <= 64, else
        as (x + c y) % p over F_p, XOR over F_{2^k} and Zech logarithms
        over the other extension fields."""
        if self._add_rows is not None:
            add, mc = self._add_rows, self._mul_rows[c]
            return [add[x][mc[y]] for x, y in zip(xs, ys)]
        if self.k == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        plus = xor if self.p == 2 else self._zech_add or self.add
        return list(map(plus, xs, self.scale(c, ys)))

    # -- polynomial product and tables ------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """a b by polynomial arithmetic: the product of fields beyond the
        tables, and of the one-off log table build."""
        prod = _poly_mulmod(self.unpack(a), self.unpack(b),
                            self.modulus_poly, self.p)
        return sum(map(mul, prod, self._pow_p))

    def _build_tables(self) -> None:
        """Antilog, log and (odd p) Zech tables for a generator g.

        log[0] is the sentinel 2(q - 1), and exp holds two periods of g^i
        followed by zeros, so exp[log[a] + log[b]] is a b for every a and b,
        zero included.  zech[n] = log(1 + g^n) (the sentinel where
        g^n = -1), so g^i + g^j = g^(i + zech[j - i]); a negative j - i
        wraps around the table.
        """
        order = self.q - 1
        prime_factors = _prime_factors(order)
        gen = None
        for cand in range(2, self.q):
            if all(self.pow(cand, order // f) != 1 for f in prime_factors):
                gen = cand
                break
        assert gen is not None, "multiplicative group has a generator"
        exp = [0] * (4 * order + 1)
        log = [2 * order] * self.q
        v = 1
        for i in range(order):
            exp[i] = v
            exp[i + order] = v
            log[v] = i
            v = self._mul_poly(v, gen)
        self._exp = exp
        self._log = log
        if self.p != 2:
            # 1 + v only touches the constant coefficient of v
            p = self.p
            zech = [log[v + 1 if v % p != p - 1 else v + 1 - p]
                    for v in exp[:order]]

            def zech_add(a: int, b: int) -> int:
                if not a:
                    return b
                if not b:
                    return a
                la = log[a]
                return exp[la + zech[log[b] - la]]

            self._zech_add = zech_add

    def _build_square_tables(self) -> None:
        """The q x q addition and multiplication tables and the negation
        row, from add and mul themselves, and for q <= 16 the byte tables
        read from them, inverses included (see the module docstring).
        This relies on the tables not existing yet: add reads them only
        once _add_rows is set, so here it still takes the integer, XOR or
        Zech form."""
        r = range(self.q)
        add = [[self.add(a, b) for b in r] for a in r]
        mul = [[self.mul(a, b) for b in r] for a in r]
        self._add_rows, self._mul_rows = add, mul
        self._neg_row = mul[self.p - 1]  # -1 packs to the constant p - 1
        q = self.q
        if q * q <= 256:
            # a pair (x, y) of elements packs into one byte as x q + y
            mb = [bytes(row) + bytes(256 - q) for row in mul]
            self._mul_bytes = mb
            self._pair = b"".join(map(bytes, add)) + bytes(256 - q * q)
            # Echelon's y -> -c y and y -> y / c; 1 / c is read off row c
            self._neg_mul_bytes = [mb[x] for x in self._neg_row]
            self._div_bytes = [None, *(mb[row.index(1)] for row in mul[1:])]

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.k == other.k
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"F({self.p}^{self.k})" if self.k > 1 else f"F({self.p})"


@lru_cache(maxsize=None)
def field_create(p: int, k: int = 1) -> FiniteField:
    """The field F_{p^k}; one cached instance per (p, k)."""
    return FiniteField(p, k)


def field_cost(p: int, k: int) -> int:
    """The work that building F_{p^k} is charged, to check against a work
    cap before any of it is done.

    Testing p takes up to sqrt(p) trial divisions.  For k > 1 the modulus
    search is charged p + k candidates, each with k Frobenius powers
    (Ben-Or's test makes at most k // 2, so this is an upper bound) of
    bit_length(p) products of k^2 coefficient multiplications:
    the p binomials x^k + c may all be reducible (every element is a k-th
    power when gcd(k, p - 1) = 1), and beyond them irreducibles have
    density about 1/k.  Each table entry is charged one: for k > 1 and
    q <= 2**16 the q log, 4(q - 1) + 1 antilog and (odd p) q - 1 Zech
    entries, for q <= 64 the 2 q^2 entries of the addition and
    multiplication tables, and for q <= 16 the q 256 + 256 entries of the
    byte tables and the 2 q entries of ``Echelon``'s two lists of them
    (y -> -c y and y -> y / c).
    """
    cost = math.isqrt(max(p, 0))
    if k > 1:
        cost += (max(p, 0) + k) * k**3 * p.bit_length()
    # k <= 16 keeps p**k from being computed for a huge k
    if p > 1 and 0 < k <= 16 and p**k <= _TABLE_LIMIT:
        q = p**k
        if k > 1:
            cost += q + 4 * (q - 1) + 1 + (p > 2) * (q - 1)
        if q <= _SQUARE_TABLE_LIMIT:
            cost += 2 * q * q
        if q * q <= 256:
            cost += q * 256 + 256 + 2 * q
    return cost


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a single finite field.

    The entries are one tuple of packed ints in [0, q), row major, in
    ``vals``.  The constructor takes them as given, unchecked.
    """

    __slots__ = ("field", "rows", "cols", "vals")

    def __init__(self, field: FiniteField, rows: int, cols: int,
                 vals: Iterable[int]):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.vals = tuple(vals)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: FiniteField, rows: Sequence[Sequence]) -> Matrix:
        """Rows of ints (constants, reduced mod p) or coefficient lists."""
        n = len(rows)
        m = len(rows[0]) if n else 0
        vals = []
        for row in rows:
            if len(row) != m:
                raise InputError("ragged matrix rows")
            vals.extend(map(field.element, row))
        return cls(field, n, m, vals)

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> Matrix:
        vals = [0] * (n * n)
        vals[::n + 1] = [1] * n
        return cls(field, n, n, vals)

    @classmethod
    def zero(cls, field: FiniteField, rows: int, cols: int) -> Matrix:
        return cls(field, rows, cols, [0] * (rows * cols))

    # -- access -------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.vals[i * self.cols + j]

    def row_values(self) -> list[list[int]]:
        """Packed entries as a list of rows."""
        c, vals = self.cols, self.vals
        return [list(vals[i * c:(i + 1) * c]) for i in range(self.rows)]

    def key(self) -> tuple:
        """Hashable canonical key (shape plus packed entries)."""
        return (self.rows, self.cols, self.vals)

    # -- arithmetic -----------------------------------------------------------

    def _check_same(self, other: Matrix) -> None:
        if self.field is not other.field and self.field != other.field:
            raise InputError("mixed-field matrix arithmetic")

    def _add_scaled(self, c: int, other: Matrix, op: str) -> Matrix:
        """self + c other, entrywise."""
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(f"matrix shape mismatch in {op}")
        return Matrix(self.field, self.rows, self.cols,
                      self.field.add_scaled(self.vals, c, other.vals))

    def __add__(self, other: Matrix) -> Matrix:
        return self._add_scaled(1, other, "addition")

    def __sub__(self, other: Matrix) -> Matrix:
        return self._add_scaled(self.field.neg(1), other, "subtraction")

    def __matmul__(self, other: Matrix) -> Matrix:
        """Over an extension field each column of the product is a running
        sum of the left factor's columns, of bytes for q <= 16 (see
        ``_by_columns``).  Over F_p with p <= 13 a left factor with at
        least two rows per column takes the byte columns too; squares,
        short factors and larger primes take one fused dot product per
        entry, an integer sum reduced mod p.

        Timed in process on (c r) x r by r x m factors, r <= 15, over F4,
        F8 and F9 (``matmul_crossover`` in BENCH_27.json): the byte
        columns are 1.0 to 2.1 times as fast as running ``add_scaled``
        columns on the q x q tables at one row per column, and 1.24 to
        4.7 times at eight.  A running table sum per entry would be 1.25
        to 1.47 times as fast as the byte columns at one row per column
        with r <= 4 (squares and the norm's m x m by m x n^2 products),
        and level or slower from r = 8 or two rows per column on.  Over
        F3, F7 and F13 (``fused_dot_over_bytes``) the byte columns are
        0.51 to 1.15 times as fast as the fused dot products at one row
        per column, 1.04 to 2.03 times at two and 1.76 to 5.29 times
        from four on, so the switch sits at two rows per column."""
        self._check_same(other)
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        f = self.field
        r, m = self.cols, other.cols
        if f.k > 1 or (f._pair is not None and self.rows >= 2 * r):
            return self._by_columns(other)
        a, b, p = self.vals, other.vals, f.p
        rows = [a[i * r:(i + 1) * r] for i in range(self.rows)]
        cols = [b[j::m] for j in range(m)]
        return Matrix(f, self.rows, m, [sum(map(mul, row, col)) % p
                                        for row in rows for col in cols])

    __mul__ = __matmul__

    def _by_columns(self, other: Matrix) -> Matrix:
        """The product as running sums, one per column: over q <= 16 of
        ``bytes``, with one translate, multiply-add and translate a term
        (see the module docstring), else of ``add_scaled``."""
        f, r, m = self.field, self.cols, other.cols
        if not r:
            return Matrix.zero(f, self.rows, m)
        a, b = self.vals, other.vals
        vals = [0] * (self.rows * m)
        if f._pair is None:
            acols = [a[t::r] for t in range(r)]
            for j in range(m):
                col = f.scale(b[j], acols[0])
                for t in range(1, r):
                    col = f.add_scaled(col, b[t * m + j], acols[t])
                vals[j::m] = col
        else:
            q, n, mul, pair = f.q, self.rows, f._mul_bytes, f._pair
            acols = [bytes(a[t::r]) for t in range(r)]
            for j in range(m):
                col = acols[0].translate(mul[b[j]])
                for t in range(1, r):
                    cy = acols[t].translate(mul[b[t * m + j]])
                    col = (int.from_bytes(col, "big") * q
                           + int.from_bytes(cy, "big")
                           ).to_bytes(n, "big").translate(pair)
                vals[j::m] = col
        return Matrix(f, self.rows, m, vals)

    def scale(self, c: int) -> Matrix:
        """c times the matrix, for a packed c."""
        return Matrix(self.field, self.rows, self.cols,
                      self.field.scale(c, self.vals))

    def transpose(self) -> Matrix:
        c, vals = self.cols, self.vals
        return Matrix(self.field, c, self.rows,
                      [x for j in range(c) for x in vals[j::c]])

    def trace(self) -> int:
        if self.rows != self.cols:
            raise InputError("trace of a non-square matrix")
        return reduce(self.field.add, self.vals[::self.cols + 1], 0)

    def det(self) -> int:
        """Product of the echelon pivot values times the sign of the pivot
        permutation; zero as soon as a row depends on the rows above."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        f, n, vals = self.field, self.cols, self.vals
        ech = Echelon(f, n)
        for i in range(n):
            if not ech.add(vals[i * n:(i + 1) * n]):
                return 0
        det = reduce(f.mul, ech.pivot_values, 1)
        piv = ech.pivots
        inversions = sum(a > b for i, a in enumerate(piv) for b in piv[i + 1:])
        return f.neg(det) if inversions % 2 else det

    def inverse(self) -> Matrix:
        """The right half of the reduced echelon form of [A | I]."""
        if self.rows != self.cols:
            raise InputError("inverse of a non-square matrix")
        f = self.field
        n = self.rows
        ech = Echelon(f, 2 * n)
        for i, row in enumerate(self.row_values()):
            ech.add(row + [1 if i == j else 0 for j in range(n)])
        if any(piv >= n for piv in ech.pivots):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(f, n, n, [x for row in ech.reduced() for x in row[n:]])

    def __pow__(self, e: int) -> Matrix:
        if self.rows != self.cols:
            raise InputError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        # through @, so a patched __matmul__ sees every product
        return (_power(self, e, matmul) if e
                else Matrix.identity(self.field, self.rows))

    # -- predicates -------------------------------------------------------------

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.field, self.rows)

    def is_scalar(self) -> bool:
        """Nonzero scalar multiple of the identity."""
        if self.rows != self.cols:
            return False
        n = self.rows
        d = self.vals[0]
        want = [0] * (n * n)
        want[::n + 1] = [d] * n
        return d != 0 and self.vals == tuple(want)

    def is_invertible(self) -> bool:
        return self.det() != 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and (self.field is other.field or self.field == other.field)
                and self.key() == other.key())

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.k, self.key()))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.row_values()})"


# ---------------------------------------------------------------------------
# Gaussian elimination (packed fast path)
# ---------------------------------------------------------------------------

class Echelon:
    """Incremental semi-echelon form of a growing list of packed rows.

    Every elimination in the package runs here.  Each absorbed row is
    cleared at the pivots of the rows before it, then scaled to 1 at its
    own pivot, its first nonzero column; ``pivot_values`` keeps the entry
    before scaling, for determinants.  Input rows are never modified.
    Over fields with q <= 16 the basis rows are ``bytes``, one element a
    byte: the pivot is found by ``lstrip``, and clearing one is two
    ``bytes.translate`` calls and one integer multiply-add for the whole
    row (see the module docstring), by the field's y -> -c y and
    y -> y / c translates.  Over larger fields the rows are lists, each
    clearing step one pass over the q x q tables for q <= 64, else one
    ``add_scaled``.  ``add`` is one loop over (pivot, basis row), with no
    call per step for q <= 64, and ``reduced`` returns lists of packed
    ints either way.
    """

    def __init__(self, field: FiniteField, width: int):
        self.field = field
        self.width = width
        self.rows: list[bytes] | list[list[int]] = []
        self.pivots: list[int] = []
        self.pivot_values: list[int] = []

    def add(self, row: Sequence[int]) -> bool:
        """Reduce a copy of row against the basis; absorb it if it is
        independent of the rows so far, and report whether it was.  Once
        the rank is full, nothing is independent and no work is done."""
        pivots = self.pivots
        if len(pivots) == self.width:
            return False
        f = self.field
        steps = zip(pivots, self.rows)
        if f._pair is not None:
            q, n, pair, neg_mul = f.q, len(row), f._pair, f._neg_mul_bytes
            row = bytes(row)
            for piv, brow in steps:
                if row[piv]:
                    row = (int.from_bytes(row, "big") * q
                           + int.from_bytes(brow.translate(neg_mul[row[piv]]),
                                            "big")
                           ).to_bytes(n, "big").translate(pair)
            lead = n - len(row.lstrip(b"\0"))
            if lead == n:
                return False
            c = row[lead]
            row = row.translate(f._div_bytes[c])
        else:
            add, mul, neg = f._add_rows, f._mul_rows, f._neg_row
            for piv, brow in steps:
                c = row[piv]
                if c:
                    if add is None:
                        row = f.add_scaled(row, f.neg(c), brow)
                    else:
                        mc = mul[neg[c]]
                        row = [add[x][mc[y]] for x, y in zip(row, brow)]
            lead = next((j for j, x in enumerate(row) if x), len(row))
            if lead == len(row):
                return False
            c = row[lead]
            row = f.scale(f.inv(c), row)
        pivots.append(lead)
        self.pivot_values.append(c)
        self.rows.append(row)
        return True

    def reduced(self) -> list[list[int]]:
        """The reduced row-echelon form (unique for the row space), rows
        sorted by pivot; the form itself is left as it is.  Basis row j
        is zero at the pivots of the rows before it, so clearing each
        pivot in those rows, in the order the rows came, leaves every row
        cleared at all the pivots but its own."""
        f, rows = self.field, list(self.rows)
        q, pair, neg_mul = f.q, f._pair, f._neg_mul_bytes
        add, mul, neg = f._add_rows, f._mul_rows, f._neg_row
        for j, (piv, brow) in enumerate(zip(self.pivots, self.rows)):
            for i in range(j):
                row = rows[i]
                c = row[piv]
                if not c:
                    continue
                if pair is not None:
                    row = (int.from_bytes(row, "big") * q
                           + int.from_bytes(brow.translate(neg_mul[c]), "big")
                           ).to_bytes(len(row), "big").translate(pair)
                elif add is not None:
                    mc = mul[neg[c]]
                    row = [add[x][mc[y]] for x, y in zip(row, brow)]
                else:
                    row = f.add_scaled(row, f.neg(c), brow)
                rows[i] = row
        return [list(row) for _, row in sorted(zip(self.pivots, rows))]


def rank_of_rows(field: FiniteField, grid: Sequence[Sequence[int]]) -> int:
    """Rank of a list of packed-value rows."""
    ech = Echelon(field, len(grid[0]) if grid else 0)
    for row in grid:
        ech.add(row)
    return len(ech.pivots)


def row_space_basis(field: FiniteField, grid: list[list[int]]) -> list[list[int]]:
    """Reduced row-echelon basis of the row space (deterministic)."""
    ech = Echelon(field, len(grid[0]) if grid else 0)
    for row in grid:
        ech.add(row)
    return ech.reduced()


def rank(m: Matrix) -> int:
    """Rank over the owner field, by exact Gaussian elimination."""
    c, vals = m.cols, m.vals
    return rank_of_rows(m.field, [vals[i * c:(i + 1) * c]
                                  for i in range(m.rows)])


def kernel_dim(m: Matrix) -> int:
    """Dimension of the right kernel (rank-nullity)."""
    return m.cols - rank(m)
