"""The Lie algebra of traceless n x n matrices and the conjugation action.

The basis is fixed once per (field, n): the off-diagonal units E_ij in
row-major order, then the diagonal differences E_ii - E_(i+1)(i+1).  The
matrix of Ad(g): X -> g X g^(-1) in this basis drives every dimension
computed downstream, so entries are exact field elements and results are
cached per group element (projectively, since scalars act trivially).
Each column is read off the entries of g and g^(-1), with no matrix
product: (g E_ij g^(-1))[k, l] = g[k, i] g^(-1)[j, l].

class_dim reports the rank of Ad(g) - I, which is the conjugacy-class
dimension whenever the centralizer of g is smooth.  That is guaranteed for
semisimple elements in comfortable characteristic; other cases get caveat
flags from :func:`smoothness_flags` rather than silently trusted numbers.
An element is semisimple exactly when the characteristic does not divide
its projective order, which the caller passes in, so the test costs one
power.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import InputError
from .ff import FiniteField, Matrix, kernel_dim
from .matgrp import element_order


class AdjointRep:
    """Basis bookkeeping and Ad-matrix cache for one (field, n)."""

    def __init__(self, field: FiniteField, n: int):
        if n < 2:
            raise InputError(f"adjoint module needs n >= 2, got {n}")
        self.field = field
        self.n = n
        self.dim = n * n - 1
        self._cache: dict[tuple, Matrix] = {}

    # -- coordinates -----------------------------------------------------

    def coords(self, x: Matrix) -> list[int]:
        """Packed coefficient vector of a traceless matrix in the basis."""
        if x.rows != self.n or x.cols != self.n or x.field != self.field:
            raise InputError("matrix does not live in this Lie algebra model")
        if not x.trace().is_zero():
            raise InputError("matrix is not traceless")
        return self._coords(x.vals)

    def _coords(self, vals: Sequence[int]) -> list[int]:
        n, add = self.n, self.field.add
        out = [v for t, v in enumerate(vals) if t % (n + 1)]
        acc = 0
        for v in vals[:-1:n + 1]:
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
        return Matrix.from_values(f, n, n, vals)

    # -- the action ---------------------------------------------------------

    def ad_matrix(self, g: Matrix) -> Matrix:
        """Matrix of X -> g X g^(-1) in the fixed basis."""
        if g.rows != self.n or g.cols != self.n or g.field != self.field:
            raise InputError("group element does not match this adjoint model")
        # Scalar multiples share a key and are all invertible or all
        # singular, so a cache hit needs no determinant.
        try:
            key = g.projective_key()
            hit = self._cache.get(key)
            if hit is not None:
                return hit
            ginv = g.inverse()
        except ZeroDivisionError:
            raise InputError("Ad of a non-invertible matrix") from None
        # g E_ij g^(-1) is the outer product of column i of g and row j of
        # g^(-1); a diagonal basis element gives a difference of two.
        n, f = self.n, self.field
        gcols = [g.vals[i::n] for i in range(n)]
        hrows = [ginv.vals[j * n:(j + 1) * n] for j in range(n)]

        def outer(i: int, j: int) -> list[int]:
            return [x for u in gcols[i] for x in f.scale(u, hrows[j])]

        cols = [self._coords(outer(i, j))
                for i in range(n) for j in range(n) if i != j]
        prev = outer(0, 0)
        for i in range(1, n):
            diag = outer(i, i)
            cols.append(self._coords(list(map(f.sub, prev, diag))))
            prev = diag
        out = Matrix.from_values(self.field, self.dim, self.dim,
                                 [x for row in zip(*cols) for x in row])
        self._cache[key] = out
        return out

    def fixed_space_dim(self, g: Matrix) -> int:
        """Dimension of the kernel of Ad(g) - I."""
        d = self.dim
        return kernel_dim(self.ad_matrix(g) - Matrix.identity(self.field, d))

    def class_dim(self, g: Matrix) -> int:
        """Rank of Ad(g) - I: the class dimension under centralizer
        smoothness."""
        return self.dim - self.fixed_space_dim(g)


@lru_cache(maxsize=None)
def adjoint_rep(field: FiniteField, n: int) -> AdjointRep:
    return AdjointRep(field, n)


def is_semisimple(g: Matrix, po: int) -> bool:
    """Whether g, of projective order po, has trivial unipotent part, i.e.
    order coprime to the characteristic p.

    The order is po * ord(g^po) (:func:`element_order`, one power), and
    ord(g^po) divides q - 1, so g is semisimple exactly when p does not
    divide po.  Directly: write g = su (Jordan decomposition); if u != 1
    then u^po = lambda s^(-po) is both semisimple and unipotent, hence 1,
    so p | po.
    """
    return element_order(g, po) % g.field.p != 0


def smoothness_flags(g: Matrix, po: int) -> tuple[str, ...]:
    """Caveats under which class_dim may differ from the true class
    dimension of g, whose projective order is po."""
    flags = []
    if g.field.p <= g.rows:
        flags.append(
            f"small characteristic p = {g.field.p} <= n = {g.rows}: "
            "centralizer smoothness assumed"
        )
    if not is_semisimple(g, po):
        flags.append(
            "non-semisimple element: class_dim is the fixed-space bound, "
            "centralizer smoothness assumed"
        )
    return tuple(flags)
