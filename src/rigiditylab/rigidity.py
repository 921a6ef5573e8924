"""Tangent-space linear algebra for generator tuples and the rigidity
verdict.

Three layers, all exact:

* cocycle_spaces: the 1-cocycle space of the presentation whose relators
  are the declared powers and the product, as the kernel of one stacked
  relator matrix, together with the coboundary dimension.  Each power
  relator's norm sum_{j<a} Ad(c)^j is computed by doubling, in O(log a)
  products.
* tangent_product_rank: the rank of the derivative of the product-of-
  classes map at the tuple.  Its block for c_i is Ad(P_i) - Ad(P_(i+1))
  with P_i = c_1 ... c_(i-1), the same prefix Ad matrices as the product
  relator.  This rank must coincide with the displacement span dimension;
  the agreement is checked on every verdict rather than assumed, and a
  mismatch is reported as an internal invariant failure.
* rigidity_verdict: class dimensions, coinvariants, irreducibility and
  the dimension-count test assembled into a RigidityReport.  When p
  divides no declared order, Weil's formula h1 = z1 - b1 is checked too.

Tuples whose product is a nontrivial scalar are handled by appending that
scalar's inverse as an extra central generator with its multiplicative
order declared.  The extra coordinate is forced to zero by its own power
relator (scalar orders are prime to the characteristic), so dimensions are
unchanged; the report records the appended order for transparency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjoint import adjoint_rep, smoothness_flags
from .coinv import coinvariant_dim
from .errors import InputError, InvariantViolation
from .ff import Matrix, kernel_dim, rank
from .matgrp import (GroupTuple, element_order, is_absolutely_irreducible,
                     projective_order)

IRREDUCIBLE_VERIFIED = "verified"
IRREDUCIBLE_ASSERTED = "asserted"
IRREDUCIBLE_FAILED = "failed"

VERDICT_RIGID = "RIGID"
VERDICT_NOT_RIGID = "NOT_RIGID_DIM_EXCESS"
VERDICT_HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"


def central_lift(t: GroupTuple) -> GroupTuple:
    """Append the inverse of the scalar product as a central generator, so
    the product becomes exactly the identity.  No-op when it already is."""
    prod = t.product()
    if prod.is_identity():
        return t
    # t is validated, so extra has determinant 1 and the new product is I
    extra = prod.inverse()
    lifted = GroupTuple(t.field, t.n, t.generators + (extra,),
                        t.declared_orders + (element_order(extra),))
    # the lifted prefixes are t's, closed by prod @ extra = I
    lifted.__dict__["_prefixes"] = (*t.prefixes(),
                                    Matrix.identity(t.field, t.n))
    return lifted


@dataclass(frozen=True)
class CocycleSpaces:
    """Dimensions of the cocycle and coboundary spaces of the presentation,
    plus the stacked relator matrix whose kernel is Z1."""

    z1_dim: int
    b1_dim: int
    h1_dim: int
    relator_matrix: Matrix


def cocycle_spaces(t: GroupTuple) -> CocycleSpaces:
    """Z1, B1 and their quotient for the declared presentation.

    A cocycle assigns Y_i in the Lie algebra to each generator subject to
    one power relator per generator, sum over j < a_i of Ad(c_i)^j applied
    to Y_i, and the product relator sum over i of Ad(c_i') Y_i.  B1 is the
    image of X -> (X - Ad(c_i) X)_i, of dimension dim minus the fixed
    space of the whole tuple.
    """
    t = central_lift(t)
    rep = adjoint_rep(t.field, t.n)
    d = rep.dim
    m = t.length
    field = t.field
    ident = Matrix.identity(field, d)
    zero = Matrix.zero(field, d, d)

    ads = [rep.ad_matrix(c) for c in t.generators]
    norms = [_norm(ad, a) for ad, a in zip(ads, t.declared_orders)]
    prefix_ads = [rep.ad_matrix(c) for c in t.prefixes()[:-1]]

    blocks: list[list[Matrix]] = []
    for i in range(m):
        blocks.append([norms[i] if j == i else zero for j in range(m)])
    blocks.append(prefix_ads)
    relator = _assemble(field, blocks)

    z1 = kernel_dim(relator)
    fixed_rows = _assemble(field, [[ident - ad] for ad in ads])
    b1 = d - kernel_dim(fixed_rows)
    if z1 < b1:
        raise InvariantViolation(
            f"z1 = {z1} smaller than b1 = {b1}: coboundaries escaped the "
            "cocycle space"
        )
    return CocycleSpaces(z1_dim=z1, b1_dim=b1, h1_dim=z1 - b1,
                         relator_matrix=relator)


def _norm(ad: Matrix, a: int) -> Matrix:
    """sum_{j<a} ad^j by doubling on the pair (N_m, ad^m), reading a's
    bits from the top: N_2m = N_m + ad^m N_m, N_2m+1 = N_2m + ad^2m.
    That is O(log a) products instead of a; the last bit advances no
    power, since none is read after it."""
    norm, power = Matrix.identity(ad.field, ad.rows), ad
    bits = bin(a)[3:]
    for i, bit in enumerate(bits, 1):
        norm = norm + power @ norm
        if bit == "1":
            power = power @ power
            norm = norm + power
        if i < len(bits):
            power = power @ ad if bit == "1" else power @ power
    return norm


def _assemble(field, blocks: list[list[Matrix]]) -> Matrix:
    """Stack a grid of equally sized square blocks into one matrix."""
    d = blocks[0][0].rows
    vals = [x for brow in blocks for i in range(d)
            for blk in brow for x in blk.vals[i * d:(i + 1) * d]]
    return Matrix.from_values(field, len(blocks) * d, len(blocks[0]) * d,
                              vals)


def tangent_product_rank(t: GroupTuple) -> int:
    """Rank of (Y_1,...,Y_m) -> sum_i (I - Ad(d_i)) Ad(P_i) Y_i, where
    P_i = c_1 ... c_(i-1) and d_i = P_i c_i P_i^(-1).  Since
    d_i P_i = P_(i+1), block i is Ad(P_i) - Ad(P_(i+1)), and on the lifted
    tuple P_(m+1) = I: no conjugate, inverse or product is formed."""
    t = central_lift(t)
    rep = adjoint_rep(t.field, t.n)
    ads = [rep.ad_matrix(pre) for pre in t.prefixes()]
    return rank(_assemble(t.field, [[a - b for a, b in zip(ads, ads[1:])]]))


@dataclass(frozen=True)
class RigidityReport:
    """Everything the dimension-count criterion needs, plus the verdict.

    h1_dim is sum_class_dims - df_rank - b1_dim: the dimension of the
    cocycles whose value on each generator c_i lies in the image of
    1 - Ad(c_i), the tangent space of its class, modulo coboundaries (the
    parabolic H^1).  It is
    not z1_dim - b1_dim: z1_dim counts every cocycle of the presentation,
    and a power relator confines its generator to the class tangent space
    only when the characteristic does not divide the declared order, so
    the two agree whenever it divides none (Weil's formula: there the
    kernel of the norm is the image of 1 - Ad(c_i)).  rigidity_verdict
    checks that agreement on every such tuple.
    """

    class_dims: tuple[int, ...]
    sum_class_dims: int
    two_dim_g: int
    coinv_dim: int
    span_dim: int
    irreducible: str
    df_rank: int
    z1_dim: int
    b1_dim: int
    h1_dim: int
    lifted_order: int | None
    verdict: str
    flags: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "class_dims": list(self.class_dims),
            "sum_class_dims": self.sum_class_dims,
            "two_dim_g": self.two_dim_g,
            "coinv_dim": self.coinv_dim,
            "span_dim": self.span_dim,
            "irreducible": self.irreducible,
            "df_rank": self.df_rank,
            "z1_dim": self.z1_dim,
            "b1_dim": self.b1_dim,
            "h1_dim": self.h1_dim,
            "lifted_order": self.lifted_order,
            "verdict": self.verdict,
            "flags": list(self.flags),
        }


def rigidity_verdict(t: GroupTuple,
                     irreducibility: str = "verify") -> RigidityReport:
    """Full report for one tuple.

    The verdict is RIGID when the hypotheses hold (zero coinvariants,
    irreducible action, trustworthy class dimensions) and the class
    dimensions sum to exactly twice the group dimension.  A sum beyond
    that bound is NOT_RIGID_DIM_EXCESS.  A sum below it with clean flags
    is mathematically impossible, so it raises an invariant failure
    instead of returning; with smoothness caveats present it downgrades
    to HYPOTHESIS_FAILED since the class dimensions are then only lower
    bounds.

    irreducibility: "verify" runs the span test on the natural module;
    "assert" records the user's claim without testing it.
    """
    if irreducibility not in ("verify", "assert"):
        raise InputError(f"unknown irreducibility mode {irreducibility!r}")

    flags: list[str] = []
    for i, (g, a) in enumerate(zip(t.generators, t.declared_orders)):
        po = projective_order(g)
        if po != a:
            flags.append(
                f"generator {i}: projective order {po} properly divides "
                f"the declared order {a}"
            )
    for g in t.generators:
        for f in smoothness_flags(g):
            if f not in flags:
                flags.append(f)

    lifted = central_lift(t)
    lifted_order = (lifted.declared_orders[-1]
                    if lifted.length != t.length else None)

    rep = adjoint_rep(t.field, t.n)
    class_dims = tuple(rep.class_dim(g) for g in t.generators)
    if lifted.length != t.length and rep.class_dim(lifted.generators[-1]) != 0:
        raise InvariantViolation("central element has nonzero class dimension")
    sum_dims = sum(class_dims)
    two_dim_g = 2 * rep.dim

    co = coinvariant_dim(t)
    df = tangent_product_rank(lifted)
    if df != co.span_dim:
        raise InvariantViolation(
            f"tangent product rank {df} differs from displacement span "
            f"{co.span_dim}"
        )

    if irreducibility == "assert":
        irreducible = IRREDUCIBLE_ASSERTED
    else:
        irreducible = (IRREDUCIBLE_VERIFIED
                       if is_absolutely_irreducible(list(t.generators))
                       else IRREDUCIBLE_FAILED)

    spaces = cocycle_spaces(lifted)
    fiber_h1 = sum_dims - df - spaces.b1_dim
    p = t.field.p
    if (all(a % p for a in lifted.declared_orders)
            and fiber_h1 != spaces.z1_dim - spaces.b1_dim):
        raise InvariantViolation(
            f"p = {p} divides no declared order, yet h1 = {fiber_h1} "
            f"differs from z1 - b1 = {spaces.z1_dim} - {spaces.b1_dim} "
            "(Weil's formula)"
        )

    hypotheses_ok = co.coinv_dim == 0 and irreducible != IRREDUCIBLE_FAILED
    if not hypotheses_ok:
        verdict = VERDICT_HYPOTHESIS_FAILED
    elif sum_dims == two_dim_g:
        verdict = VERDICT_RIGID
    elif sum_dims > two_dim_g:
        verdict = VERDICT_NOT_RIGID
    elif flags:
        verdict = VERDICT_HYPOTHESIS_FAILED
        flags.append(
            "class-dimension sum fell below twice the group dimension "
            "under smoothness caveats; dimensions are lower bounds only"
        )
    else:
        raise InvariantViolation(
            f"hypotheses hold yet class dimensions sum to {sum_dims} < "
            f"{two_dim_g}; the dimension-count implication is violated"
        )

    return RigidityReport(
        class_dims=class_dims,
        sum_class_dims=sum_dims,
        two_dim_g=two_dim_g,
        coinv_dim=co.coinv_dim,
        span_dim=co.span_dim,
        irreducible=irreducible,
        df_rank=df,
        z1_dim=spaces.z1_dim,
        b1_dim=spaces.b1_dim,
        h1_dim=fiber_h1,
        lifted_order=lifted_order,
        verdict=verdict,
        flags=tuple(flags),
    )
