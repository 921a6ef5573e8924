"""The Lie algebra of traceless n x n matrices and the conjugation action.

The basis is fixed once per (field, n): the off-diagonal units E_ij in
row-major order, then the diagonal differences E_ii - E_(i+1)(i+1).  The
matrix of Ad(g): X -> g X g^(-1) in this basis drives every dimension
computed downstream, so entries are exact field elements and results are
cached per group element, keyed by its entries, for the last
``_AD_CACHE_SIZE`` elements used.  Each cache entry also keeps the
displacement I - Ad(g), formed the first time it is asked for: the class
dimension, the coinvariant span and the coboundary stack of a verdict all
read that one matrix.
Each column is read off the entries of g and g^(-1), with no matrix
product: (g E_ij g^(-1))[k, l] = g[k, i] g^(-1)[j, l].  The norm
sum_{t<a} Ad(g)^t of a power relator comes from the minimal polynomial of
g as X -> sum_{r<m} R_r(g) X g^r, m <= n terms of that same form.

class_dim reports the rank of Ad(g) - I, which is the conjugacy-class
dimension whenever the centralizer of g is smooth.  That is guaranteed for
semisimple elements in comfortable characteristic; other cases get caveat
flags from :func:`smoothness_flags` rather than silently trusted numbers.
An element is semisimple exactly when the characteristic does not divide
its projective order, which the caller passes in together with the
scalar g^po that found it, so the test costs no power.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

from .errors import InputError
from .ff import Echelon, FiniteField, Matrix, _power, kernel_dim
from .matgrp import element_order

# Ad matrices kept per AdjointRep, least recently used dropped first; a
# verdict builds a few, and 39 verdicts over five groups built 161
_AD_CACHE_SIZE = 1024


class _AdEntry:
    """One Ad cache entry: Ad(g), and I - Ad(g) once it is asked for."""

    def __init__(self, ad: Matrix):
        self.ad = ad

    @cached_property
    def displacement(self) -> Matrix:
        return Matrix.identity(self.ad.field, self.ad.rows) - self.ad


class AdjointRep:
    """Basis bookkeeping and Ad-matrix cache for one (field, n)."""

    def __init__(self, field: FiniteField, n: int):
        if n < 2:
            raise InputError(f"adjoint module needs n >= 2, got {n}")
        self.field = field
        self.n = n
        self.dim = n * n - 1
        self._ad = lru_cache(maxsize=_AD_CACHE_SIZE)(self._ad_of)
        nn = n * n
        self._pick_off = itemgetter(*[t for t in range(nn) if t % (n + 1)])
        # entry ((k, i), (j, l)) of an n^2 x n^2 product, moved to row
        # (k, l) and column (i, j)
        self._units = itemgetter(*[
            (k * n + i) * nn + j * n + l for k in range(n) for l in range(n)
            for i in range(n) for j in range(n)])

    # -- coordinates -----------------------------------------------------

    def coords(self, x: Matrix) -> list[int]:
        """Packed coefficient vector of a traceless matrix in the basis."""
        if x.rows != self.n or x.cols != self.n or x.field != self.field:
            raise InputError("matrix does not live in this Lie algebra model")
        if x.trace() != 0:
            raise InputError("matrix is not traceless")
        n, add = self.n, self.field.add
        out = [v for t, v in enumerate(x.vals) if t % (n + 1)]
        acc = 0
        for v in x.vals[:-1:n + 1]:
            acc = add(acc, v)
            out.append(acc)
        return out

    def from_coords(self, vec: Sequence[int]) -> Matrix:
        if len(vec) != self.dim:
            raise InputError(f"coordinate vector must have length {self.dim}")
        n, f = self.n, self.field
        off = iter(vec)
        vals = [0 if t % (n + 1) == 0 else next(off) for t in range(n * n)]
        prev = 0
        for i, a in enumerate(vec[n * n - n:]):
            vals[i * (n + 1)] = f.sub(a, prev)
            prev = a
        vals[-1] = f.neg(prev)
        return Matrix(f, n, n, vals)

    # -- the action ---------------------------------------------------------

    def _check(self, g: Matrix) -> None:
        if g.rows != self.n or g.cols != self.n or g.field != self.field:
            raise InputError("group element does not match this adjoint model")

    def _matrix_of(self, vals: Sequence[int]) -> Matrix:
        """The d x d matrix of X -> sum_r u_r X v_r, a map of the n x n
        matrices that keeps the traceless ones, from the entries of
        sum_r vec(u_r) vec(v_r)^T: entry ((k, i), (j, l)) is the (k, l)
        entry of the image of the unit E_ij.  A row of the result takes
        one output unit or a partial sum of the diagonal ones, and a
        column one input unit or the difference of two diagonal ones."""
        n, nn, f = self.n, self.n * self.n, self.field
        units = self._units(vals)
        rows = [units[t:t + nn] for t in range(0, nn * nn, nn)]
        rows = [*self._pick_off(rows),
                *accumulate(rows[:-1:n + 1],
                            lambda acc, row: f.add_scaled(acc, 1, row))]
        cols = list(zip(*rows))
        minus = f.neg(1)
        cols = [*self._pick_off(cols),
                *(f.add_scaled(u, minus, v)
                  for u, v in zip(cols[:-1:n + 1], cols[n + 1::n + 1]))]
        return Matrix(f, self.dim, self.dim,
                      [x for row in zip(*cols) for x in row])

    def ad_matrix(self, g: Matrix) -> Matrix:
        """Matrix of X -> g X g^(-1) in the fixed basis."""
        self._check(g)
        return self._ad(g.vals).ad

    def displacement(self, g: Matrix) -> Matrix:
        """Matrix of X -> X - g X g^(-1), I - Ad(g), formed once per cached
        Ad(g)."""
        self._check(g)
        return self._ad(g.vals).displacement

    def _ad_of(self, vals: tuple[int, ...]) -> _AdEntry:
        """Ad of the n x n matrix with entries vals, the one-term case
        u = g, v = g^(-1).  A call that raises is not cached, so only
        invertible matrices are, and a hit needs no determinant."""
        f = self.field
        try:
            ginv = Matrix(f, self.n, self.n, vals).inverse()
        except ZeroDivisionError:
            raise InputError("Ad of a non-invertible matrix") from None
        return _AdEntry(self._matrix_of(
            [x for u in vals for x in f.scale(u, ginv.vals)]))

    def norm(self, g: Matrix, a: int) -> Matrix:
        """Matrix of the norm sum_{t<a} Ad(g)^t: X -> sum_{t<a} g^t X g^(-t),
        for a >= 1 and g with g^a a nonzero scalar lam.  It is read off
        the minimal polynomial mu of g, of degree m <= n, with O(m^2 log a)
        field operations and no product of two d x d matrices.

        Let x and y stand for X -> g X and X -> X g.  They commute, mu
        kills both, and mu divides x^a - lam; write x^a - lam = Q mu.
        Multiplying by y^(a-1) = lam y^(-1) gives

            sum_{t<a} x^t y^(-t) = lam^(-1) y (x^a - y^a) / (x - y)
                                 = lam^(-1) y (Q(x) Dmu + mu(y) DQ),

        with Df = (f(x) - f(y)) / (x - y).  Modulo mu(x) and mu(y) that is
        lam^(-1) y Qbar(x) Dmu, where Qbar = Q mod mu is the quotient of
        x^a mod mu^2 by mu (its remainder is lam).  y Dmu has x^i y^j
        coefficient mu_(i+j) for j >= 1; reducing its one y^m term leaves
        D_0 = -mu_0 and D_j = sum_{i=1}^{m-j} mu_(i+j) x^i for 0 < j < m,
        so D_j = x (mu_(j+1) + D_(j+1) / x).  Hence the norm is
        sum_{j<m} R_j(g) X g^j, with R_j = lam^(-1) Qbar D_j mod mu.
        """
        self._check(g)
        if a < 1:
            raise InputError(f"a norm needs a >= 1 terms, got {a}")
        n, f = self.n, self.field
        nn = n * n
        # the first Krylov row [vec(g^m) | e_m] whose vec part reduces to
        # zero is absorbed at a pivot past column nn; its tail is mu
        ech = Echelon(f, nn + n + 1)
        ident = [0] * (nn + n + 1)
        ident[:nn:n + 1] = [1] * n
        ident[nn] = 1
        ech.add(ident)
        rows, power = [ident[:nn]], g
        for m in range(1, n + 1):
            ech.add([*power.vals, *[0] * m, 1, *[0] * (n - m)])
            if ech.pivots[-1] >= nn:
                break
            rows.append(power.vals)
            power = power @ g
        rel = ech.rows[-1][nn:nn + m + 1]
        mu = f.scale(f.inv(rel[m]), rel)
        qbar, lam = _poly_divmod(f, _x_pow_mod(f, a, _poly_mul(f, mu, mu)),
                                 mu)
        if not lam[0] or any(lam[1:]):
            raise InputError(f"the {a}-th power of g is not a nonzero scalar")
        # grid[r] holds the coefficients of R_r, built from R_(m-1) down
        qbar = f.scale(f.inv(lam[0]), qbar)
        grid = [f.scale(f.neg(mu[0]), qbar)]
        r = [0] * m
        for j in range(m - 1, 0, -1):
            r = _poly_divmod(f, [0, *f.add_scaled(r, mu[j + 1], qbar)],
                             mu)[1]
            grid.insert(1, r)
        # sum_r vec(R_r(g)) vec(g^r)^T = K^T S K, with K's rows vec(g^s)
        # and S[s][r] the x^s coefficient of R_r
        krylov = Matrix(f, m, nn, [x for row in rows for x in row])
        krylov_t = Matrix(f, nn, m, [x for col in zip(*rows) for x in col])
        grid_t = Matrix(f, m, m, [x for col in zip(*grid) for x in col])
        return self._matrix_of((krylov_t @ (grid_t @ krylov)).vals)

    def class_dim(self, g: Matrix) -> int:
        """Rank of Ad(g) - I, dim minus the dimension of its kernel (the
        fixed space of Ad(g)): the class dimension under centralizer
        smoothness."""
        return self.dim - kernel_dim(self.displacement(g))


# ---------------------------------------------------------------------------
# polynomials over a field (packed coefficients, low degree first)
# ---------------------------------------------------------------------------

def _poly_mul(f: FiniteField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + len(b)] = f.add_scaled(out[i:i + len(b)], c, b)
    return out


def _poly_divmod(f: FiniteField, a: Sequence[int],
                 mod: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder (deg(mod) coefficients) of a by the monic
    mod."""
    a, deg = list(a), len(mod) - 1
    low = f.scale(f.neg(1), mod[:deg])
    quot = [0] * max(len(a) - deg, 0)
    for i in range(len(a) - 1, deg - 1, -1):
        c = quot[i - deg] = a[i]
        if c:
            a[i - deg:i] = f.add_scaled(a[i - deg:i], c, low)
    return quot, a[:deg] + [0] * (deg - len(a))


def _x_pow_mod(f: FiniteField, e: int, mod: Sequence[int]) -> list[int]:
    """x^e modulo the monic mod of degree >= 2, for e >= 1."""
    return _power([0, 1] + [0] * (len(mod) - 3), e,
                  lambda a, b: _poly_divmod(f, _poly_mul(f, a, b), mod)[1])


@lru_cache(maxsize=None)
def adjoint_rep(field: FiniteField, n: int) -> AdjointRep:
    return AdjointRep(field, n)


def is_semisimple(g: Matrix, po: int, power: Matrix) -> bool:
    """Whether g, of projective order po and scalar power g^po = power,
    has trivial unipotent part, i.e. order coprime to the characteristic p.

    The order is po * ord(g^po) (:func:`element_order`, no power), and
    ord(g^po) divides q - 1, so g is semisimple exactly when p does not
    divide po.  Directly: write g = su (Jordan decomposition); if u != 1
    then u^po = lambda s^(-po) is both semisimple and unipotent, hence 1,
    so p | po.
    """
    return element_order(g, po, power) % g.field.p != 0


def smoothness_flags(g: Matrix, po: int, power: Matrix) -> tuple[str, ...]:
    """Caveats under which class_dim may differ from the true class
    dimension of g, whose projective order is po and g^po is power."""
    flags = []
    if g.field.p <= g.rows:
        flags.append(
            f"small characteristic p = {g.field.p} <= n = {g.rows}: "
            "centralizer smoothness assumed"
        )
    if not is_semisimple(g, po, power):
        flags.append(
            "non-semisimple element: class_dim is the fixed-space bound, "
            "centralizer smoothness assumed"
        )
    return tuple(flags)
