"""Exact arithmetic in finite fields F_{p^k} and linear algebra over them.

Elements of F_{p^k} are polynomials of degree < k over F_p, reduced modulo a
monic irreducible polynomial of degree k.  The modulus is chosen canonically:
the monic irreducible whose coefficient vector, read as the base-p integer
c_{k-1} p^{k-1} + ... + c_1 p + c_0, is smallest.  This makes element
serialization reproducible across runs and machines.

An element is a packed integer sum(c_i * p^i); the coefficient tuple is
recovered on demand.  All field arithmetic is done by the FiniteField
methods on packed values (``add``, ``sub``, ``neg``, ``mul``, ``inv``,
``pow``, ``scale``, ``add_scaled``).  FieldElement only carries a packed
value and its field across the API edges; it has no arithmetic
operators.

Over F_p, arithmetic is integer arithmetic mod p.  Extension fields with
at most 2**16 elements precompute discrete log / antilog tables for a
generator g, so multiplication and inversion are one lookup.  For odd p
they also precompute the Zech logarithms Z(n) = log(1 + g^n), so that
g^i + g^j = g^(i + Z(j - i)) is one lookup too (K. Huber, "Some comments
on Zech's logarithms", IEEE Trans. IT 36, 1990); for p = 2 addition is
XOR.  Larger fields multiply by polynomial arithmetic, with the same
product that builds the tables and searches for the modulus.

A Matrix holds its entries as one tuple of packed ints, row major.  Field
elements appear only at its API edges (the checked constructor,
``from_rows``, ``diagonal``, ``m[i, j]``, ``entries``, ``trace``,
``det``); sums, products, transposes and eliminations run on the packed
values, and each entry of a product is one fused dot product.

Everything here is immutable after construction and safe to share between
worker processes.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add, mul, xor
from typing import Iterable, Sequence

from .errors import InputError

_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
    result = [1] + [0] * (len(mod) - 2)
    base = _poly_modred(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        # remainder of a by b
        a = list(a)
        while len(a) >= len(b) and a:
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _poly_trim(a)
        a, b = b, a
    return a


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Monic degree-k polynomial irreducible over F_p.

    Uses the Frobenius criterion: f is irreducible iff x^(p^k) = x mod f and
    gcd(x^(p^(k/t)) - x, f) = 1 for every prime t dividing k.
    """
    k = len(poly) - 1
    if k == 1:
        return True
    x = [0, 1]
    frob = list(x)
    frob_steps = {}
    for i in range(1, k + 1):
        frob = _poly_powmod(frob, p, poly, p)
        frob_steps[i] = list(frob)
    if _poly_trim(list(frob_steps[k])) != x:
        return False
    for t in range(2, k + 1):
        if k % t == 0 and is_prime(t):
            diff = list(frob_steps[k // t])
            diff[1] = (diff[1] - 1) % p
            g = _poly_gcd(diff, list(poly), p)
            if len(g) > 1:
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
# fields and elements
# ---------------------------------------------------------------------------

class FiniteField:
    """The field F_{p^k} with the canonical modulus polynomial.

    Use :func:`field_create` rather than the constructor; it caches a single
    instance per (p, k) so elements of the same field always share an owner.
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
        if k > 1 and self.q <= _TABLE_LIMIT:
            self._build_tables()
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    # -- construction helpers ------------------------------------------------

    def element(self, coeffs: int | Iterable[int]) -> FieldElement:
        """Element from an int (k = 1 shortcut, reduced mod p) or a
        coefficient sequence, low degree first."""
        if isinstance(coeffs, int):
            if self.k == 1:
                return FieldElement(self, coeffs % self.p)
            coeffs = [coeffs]
        cs = list(coeffs)
        if len(cs) > self.k:
            raise InputError(f"coefficient sequence longer than k = {self.k}")
        cs += [0] * (self.k - len(cs))
        packed = 0
        for i, c in enumerate(cs):
            packed += (c % self.p) * self._pow_p[i]
        return FieldElement(self, packed)

    def unpack(self, value: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.k):
            value, r = divmod(value, self.p)
            coeffs.append(r)
        return tuple(coeffs)

    # -- packed arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
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
        # a^(q-2) by square and multiply
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- packed vectors -------------------------------------------------------

    def scale(self, c: int, xs: Sequence[int]) -> list[int]:
        """[c x for x in xs]."""
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
        """[x + c y for x, y in zip(xs, ys)]."""
        if self.k == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        return list(map(self._adder(), xs, self.scale(c, ys)))

    def _adder(self):
        """The fastest two-argument packed addition of an extension field."""
        if self.p == 2:
            return xor
        return self._zech_add or self.add

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

    # -- identity and serialization --------------------------------------------

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

    def __reduce__(self):
        return (field_create, (self.p, self.k))


@lru_cache(maxsize=None)
def field_create(p: int, k: int = 1) -> FiniteField:
    """The field F_{p^k}; one cached instance per (p, k)."""
    return FiniteField(p, k)


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class FieldElement:
    """An element of a :class:`FiniteField`, stored as a packed integer.

    A value at the API edges only: compute with the packed
    :class:`FiniteField` methods on ``value``."""

    __slots__ = ("field", "value")

    def __init__(self, field: FiniteField, value: int):
        self.field = field
        self.value = value

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients over F_p, low degree first (the wire format)."""
        return self.field.unpack(self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field == other.field
        if isinstance(other, int):
            return self.value == self.field.element(other).value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.k, self.value))

    def __repr__(self) -> str:
        if self.field.k == 1:
            return f"{self.value}_F{self.field.p}"
        return f"{list(self.coeffs)}_F{self.field.p}^{self.field.k}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a single finite field.

    The entries are held as one tuple of packed ints, row major, in
    ``vals``; ``entries`` and ``m[i, j]`` wrap them in field elements.
    """

    __slots__ = ("field", "rows", "cols", "vals")

    def __init__(self, field: FiniteField, rows: int, cols: int,
                 entries: Sequence[FieldElement]):
        if len(entries) != rows * cols:
            raise InputError("entry count does not match matrix shape")
        for e in entries:
            if e.field is not field and e.field != field:
                raise InputError("mixed-field entries in matrix")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.vals = tuple(e.value for e in entries)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_values(cls, field: FiniteField, rows: int, cols: int,
                    vals: Iterable[int]) -> Matrix:
        """Matrix from packed entries in [0, q), row major, unchecked."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.vals = tuple(vals)
        return m

    @classmethod
    def from_rows(cls, field: FiniteField, rows: Sequence[Sequence]) -> Matrix:
        """Rows of ints (k = 1 shortcut), coefficient lists, or elements."""
        n = len(rows)
        m = len(rows[0]) if n else 0
        ents = []
        for row in rows:
            if len(row) != m:
                raise InputError("ragged matrix rows")
            for x in row:
                ents.append(x if isinstance(x, FieldElement) else field.element(x))
        return cls(field, n, m, ents)

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> Matrix:
        vals = [0] * (n * n)
        vals[::n + 1] = [1] * n
        return cls.from_values(field, n, n, vals)

    @classmethod
    def zero(cls, field: FiniteField, rows: int, cols: int) -> Matrix:
        return cls.from_values(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, field: FiniteField, diag: Sequence) -> Matrix:
        n = len(diag)
        ents = [field.zero] * (n * n)
        for i, x in enumerate(diag):
            ents[i * n + i] = x if isinstance(x, FieldElement) else field.element(x)
        return cls(field, n, n, ents)

    # -- access -------------------------------------------------------------

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.vals)

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        i, j = ij
        return FieldElement(self.field, self.vals[i * self.cols + j])

    def row_values(self) -> list[list[int]]:
        """Packed entries as a list of rows."""
        c, vals = self.cols, self.vals
        return [list(vals[i * c:(i + 1) * c]) for i in range(self.rows)]

    def key(self) -> tuple:
        """Hashable canonical key (shape plus packed entries)."""
        return (self.rows, self.cols, self.vals)

    def projective_key(self) -> tuple:
        """Key of the matrix up to nonzero scalars: the packed entries
        after scaling the first nonzero entry to 1 (the zero matrix has
        none, and raises ZeroDivisionError)."""
        f = self.field
        inv = f.inv(next((v for v in self.vals if v), 0))
        return tuple(f.scale(inv, self.vals))

    # -- arithmetic -----------------------------------------------------------

    def _check_same(self, other: Matrix) -> None:
        if self.field is not other.field and self.field != other.field:
            raise InputError("mixed-field matrix arithmetic")

    def _add_scaled(self, c: int, other: Matrix, op: str) -> Matrix:
        """self + c other, entrywise."""
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(f"matrix shape mismatch in {op}")
        return Matrix.from_values(
            self.field, self.rows, self.cols,
            self.field.add_scaled(self.vals, c, other.vals))

    def __add__(self, other: Matrix) -> Matrix:
        return self._add_scaled(1, other, "addition")

    def __sub__(self, other: Matrix) -> Matrix:
        return self._add_scaled(self.field.neg(1), other, "subtraction")

    def __neg__(self) -> Matrix:
        f = self.field
        return Matrix.from_values(f, self.rows, self.cols,
                                  f.scale(f.neg(1), self.vals))

    def __matmul__(self, other: Matrix) -> Matrix:
        """Each entry is one fused dot product: an integer sum reduced
        mod p over prime fields; over table fields the terms come from
        the antilog table, indexed by sums of logs, and are folded by XOR
        (p = 2) or Zech addition."""
        self._check_same(other)
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        f = self.field
        r, m = self.cols, other.cols
        a, b = self.vals, other.vals
        rows = [a[i * r:(i + 1) * r] for i in range(self.rows)]
        cols = [b[j::m] for j in range(m)]
        if f.k == 1:
            p = f.p
            vals = [sum(map(mul, row, col)) % p
                    for row in rows for col in cols]
        elif f._exp is None:
            vals = [reduce(f.add, map(f.mul, row, col), 0)
                    for row in rows for col in cols]
        else:
            log = f._log
            term = f._exp.__getitem__
            plus = f._adder()
            rows = [[log[x] for x in row] for row in rows]
            cols = [[log[x] for x in col] for col in cols]
            vals = [reduce(plus, map(term, map(add, row, col)), 0)
                    for row in rows for col in cols]
        return Matrix.from_values(f, self.rows, m, vals)

    __mul__ = __matmul__

    def scale(self, c: FieldElement) -> Matrix:
        if c.field is not self.field and c.field != self.field:
            raise InputError("mixed-field matrix arithmetic")
        return Matrix.from_values(self.field, self.rows, self.cols,
                                  self.field.scale(c.value, self.vals))

    def transpose(self) -> Matrix:
        c, vals = self.cols, self.vals
        return Matrix.from_values(self.field, c, self.rows,
                                  [x for j in range(c) for x in vals[j::c]])

    def trace(self) -> FieldElement:
        if self.rows != self.cols:
            raise InputError("trace of a non-square matrix")
        f = self.field
        return FieldElement(f, reduce(f.add, self.vals[::self.cols + 1], 0))

    def det(self) -> FieldElement:
        """Product of the echelon pivot values times the sign of the pivot
        permutation; zero as soon as a row depends on the rows above."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        f = self.field
        ech = Echelon(f, self.cols)
        for row in self.row_values():
            if not ech.add(row):
                return f.zero
        det = reduce(f.mul, ech.pivot_values, 1)
        piv = ech.pivots
        inversions = sum(a > b for i, a in enumerate(piv) for b in piv[i + 1:])
        return FieldElement(f, f.neg(det) if inversions % 2 else det)

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
        return Matrix.from_values(
            f, n, n, [x for row in ech.reduced() for x in row[n:]])

    def __pow__(self, e: int) -> Matrix:
        if self.rows != self.cols:
            raise InputError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        # from the top bit: one square per later bit, one product per set one
        result = self if e else Matrix.identity(self.field, self.rows)
        for bit in bin(e)[3:]:
            result = result @ result
            if bit == "1":
                result = result @ self
        return result

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
        return not self.det().is_zero()

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
    """

    def __init__(self, field: FiniteField, width: int):
        self.field = field
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.pivot_values: list[int] = []

    def _reduce(self, row: list[int], start: int) -> None:
        """Clear row in place at the pivots of basis rows start, start + 1..."""
        add_scaled, neg = self.field.add_scaled, self.field.neg
        for piv, brow in zip(self.pivots[start:], self.rows[start:]):
            if row[piv]:
                # brow is zero before piv
                row[piv:] = add_scaled(row[piv:], neg(row[piv]), brow[piv:])

    def add(self, row: Sequence[int]) -> bool:
        """Reduce a copy of row against the basis; absorb it if it is
        independent of the rows so far, and report whether it was.  Once
        the rank is full, nothing is independent and no work is done."""
        if len(self.pivots) == self.width:
            return False
        row = list(row)
        self._reduce(row, 0)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            return False
        f = self.field
        self.pivots.append(lead)
        self.pivot_values.append(row[lead])
        self.rows.append(f.scale(f.inv(row[lead]), row))
        return True

    def reduced(self) -> list[list[int]]:
        """Back-substitute into reduced row-echelon form (unique for the
        row space) and return the rows sorted by pivot."""
        for i in range(len(self.rows) - 2, -1, -1):
            self._reduce(self.rows[i], i + 1)
        return [row for _, row in sorted(zip(self.pivots, self.rows))]


def rank_of_rows(field: FiniteField, grid: list[list[int]]) -> int:
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
    return rank_of_rows(m.field, m.row_values())


def kernel_dim(m: Matrix) -> int:
    """Dimension of the right kernel (rank-nullity)."""
    return m.cols - rank(m)
