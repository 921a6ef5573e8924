"""Coinvariants of a generator tuple acting on the traceless matrices.

The displacement space D_H is the span of the images of I - Ad(c_i) over
the generators c_i; the coinvariant space is the quotient of the Lie
algebra by it.  Only the span of the generator displacements is ever
needed: displacements of arbitrary words collapse into it, which the
tests check against a brute-force span over all short words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjoint import AdjointRep, adjoint_rep
from .ff import Matrix, row_space_basis
from .matgrp import GroupTuple


@dataclass(frozen=True)
class CoinvariantResult:
    """Dimensions of the displacement span and its quotient, plus an
    explicit echelon basis of the span as traceless matrices."""

    span_dim: int
    coinv_dim: int
    basis_witness: tuple[Matrix, ...]


def _span_result(rep: AdjointRep, ad_images: list[Matrix]) -> CoinvariantResult:
    ident = Matrix.identity(rep.field, rep.dim)
    rows: list[list[int]] = []
    for ad in ad_images:
        rows.extend((ident - ad).transpose().row_values())
    basis = row_space_basis(rep.field, rows)
    witness = tuple(rep.from_coords(row) for row in basis)
    span = len(basis)
    return CoinvariantResult(span_dim=span, coinv_dim=rep.dim - span,
                             basis_witness=witness)


def coinvariant_dim(t: GroupTuple) -> CoinvariantResult:
    """Span of the generator displacements, by one row reduction."""
    rep = adjoint_rep(t.field, t.n)
    return _span_result(rep, [rep.ad_matrix(c) for c in t.generators])
