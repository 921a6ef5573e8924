"""Coinvariants of a generator tuple acting on the traceless matrices.

The displacement space D_H is the span of the images of I - Ad(c_i) over
the generators c_i; the coinvariant space is the quotient of the Lie
algebra by it.  Only the span of the generator displacements is ever
needed: displacements of arbitrary words collapse into it, which the
tests check against a brute-force span over all short words.
"""

from __future__ import annotations

from typing import NamedTuple

from .adjoint import AdjointRep, adjoint_rep
from .ff import Matrix, row_space_basis
from .matgrp import GroupTuple


class CoinvariantResult(NamedTuple):
    """Dimensions of the displacement span and its quotient, plus an
    explicit echelon basis of the span as traceless matrices."""

    span_dim: int
    coinv_dim: int
    basis_witness: tuple[Matrix, ...]


def _span_result(rep: AdjointRep,
                 displacements: list[Matrix]) -> CoinvariantResult:
    rows: list[list[int]] = []
    for disp in displacements:
        rows.extend(disp.transpose().row_values())
    basis = row_space_basis(rep.field, rows)
    witness = tuple(rep.from_coords(row) for row in basis)
    span = len(basis)
    return CoinvariantResult(span_dim=span, coinv_dim=rep.dim - span,
                             basis_witness=witness)


def coinvariant_dim(t: GroupTuple) -> CoinvariantResult:
    """Span of the generator displacements, by one row reduction."""
    rep = adjoint_rep(t.field, t.n)
    return _span_result(rep, [rep.displacement(c) for c in t.generators])
