"""Exhaustive census of relation tuples in small finite matrix groups.

Given a group table and a signature (a_1, ..., a_m), the census counts all
tuples (x_1, ..., x_m) with the order of x_i dividing a_i and product equal
to the identity, bucketed by conjugacy-class tuple.  The first coordinate
runs over class representatives only and contributes its class size as a
weight, which leaves every count exact while dividing the work by roughly
the class count.  The last coordinate is solved from the running product,
never enumerated.  So only the middle coordinates x_2, ..., x_(m-1) have
candidate lists, each the sorted union of the conjugacy classes whose
order divides its a_i; no list is built by a scan over the whole group.

Every group operation here goes through the table: ``mul`` and ``inv``
act on each element's permutation of projective points when the table
keeps them, and otherwise follow shortest words over the generators
through the closure's right-multiplication permutations.  The census
multiplies matrices only to rebuild each witness element from its BFS
path (``FiniteGroupTable.matrix``), once however many entries share it.
Element orders are computed once per
conjugacy class, since order is a class function.

Generation is decided once per C(x_1)-orbit.  Conjugating a tuple by an
element of the centralizer of x_1 keeps x_1, the orders, the product and
whether the tuple generates, so one epimorphism test decides the whole
orbit, and its verdict, accepted or rejected, is recorded for every
member.  The test (``FiniteGroupTable.generates``) is a Schreier–Sims
sift of the point permutations of x_1, ..., x_(m-1), since x_m is the
inverse of their product; it stops as soon as the partial stabilizer
chain reaches the group's order.  The
table finds the centralizer at the second orbit tested for its x_1, and
the census keeps it for the rest of the run; an x_1 with one orbit to
test never computes it.  Every tuple is still classified on its own, so
counts and witnesses do not depend on which member of an orbit was
tested.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from .adjoint import adjoint_rep
from .errors import InputError, WorkCapExceeded
from .ff import Matrix, field_create
from .matgrp import FiniteGroupTable, group_tuple, matrix_to_wire
from .rigidity import RigidityReport, rigidity_verdict
from .rootdata import RootSystem


class CensusEntry(NamedTuple):
    """Counts for one conjugacy-class tuple, with the least witness found
    (an epimorphism witness whenever one exists)."""

    classes: tuple[int, ...]
    hom_count: int
    epi_count: int
    witness: tuple[Matrix, ...]
    witness_is_epi: bool


class CensusResult(NamedTuple):
    group_id: str
    p: int
    k: int
    n: int
    projective: bool
    group_size: int
    signature: tuple[int, ...]
    class_orders: tuple[int, ...]
    class_sizes: tuple[int, ...]
    entries: tuple[CensusEntry, ...]
    epi_tested: bool
    total_hom: int
    total_epi: int


# ---------------------------------------------------------------------------
# generation tests
# ---------------------------------------------------------------------------

def _orbit_generates(table: FiniteGroupTable, idx_tuple: tuple[int, ...],
                     verdicts_by_rep: dict[int, dict],
                     centralizers: dict[int, list[int]]) -> bool:
    """Whether the tuple generates, tested once per C(x_1)-orbit of its
    middle coordinates (the last follows from the others).

    verdicts_by_rep and centralizers are the census's own caches, keyed by
    x_1.  The first tuple tested for an x_1 is tested alone.  A second
    untested tuple for the same x_1 makes the centralizer worth its
    lookups: it is computed then, the first verdict is spread over its
    orbit (which may hold the second tuple), and from then on every
    verdict, accepted or rejected, is spread over its orbit as soon as it
    is made.
    """
    rep, middle = idx_tuple[0], idx_tuple[1:-1]
    verdicts = verdicts_by_rep.setdefault(rep, {})
    if middle not in verdicts and verdicts and rep not in centralizers:
        centralizers[rep] = table.centralizer(rep)
        (first, verdict), = verdicts.items()
        _spread(table, centralizers[rep], first, verdict, verdicts)
    if middle not in verdicts:
        verdict = table.generates(idx_tuple[:-1])
        if rep in centralizers:
            _spread(table, centralizers[rep], middle, verdict, verdicts)
        else:
            verdicts[middle] = verdict
    return verdicts[middle]


def _spread(table: FiniteGroupTable, centralizer: list[int],
            middle: tuple[int, ...], verdict: bool, verdicts: dict) -> None:
    """Record one verdict for every C(x_1)-conjugate of the middle."""
    mul, inv = table.mul, table.inv
    for c in centralizer:
        c_inv = inv(c)
        verdicts[tuple(mul(mul(c_inv, x), c) for x in middle)] = verdict


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------

def census(table: FiniteGroupTable, signature: tuple[int, ...],
           epi_test: bool = True, work_cap: int | None = None) -> CensusResult:
    """Count homomorphism tuples per conjugacy-class tuple.

    One loop over the first coordinate's class representatives, in this
    process; the orbit verdicts and centralizers it caches live for this
    call only.  Each class tuple keeps its least index tuple as witness,
    an epimorphism whenever one exists.

    work_cap bounds the number of candidate tuples evaluated; exceeding it
    raises before any enumeration starts.  epi_test=False skips the
    generation tests, the Schreier–Sims sifts of ``table.generates`` (epi
    counts report 0), when only hom counts are wanted.
    """
    sig = tuple(int(a) for a in signature)
    if len(sig) < 3:
        raise InputError(f"signature {sig} must have length >= 3")
    if any(a < 1 for a in sig):
        raise InputError(f"signature {sig} has an entry < 1")

    classes = table.conjugacy_classes()
    class_of = table.class_of()
    # order is a class function: one order computation per class
    class_orders = [table.order_of(c[0]) for c in classes]

    # candidates for x_2, ..., x_(m-1) only: x_1 runs over representatives
    # and x_m is solved for
    cands = [sorted(i for c, o in zip(classes, class_orders) if a % o == 0
                    for i in c)
             for a in sig[1:-1]]
    reps = [c[0] for c, o in zip(classes, class_orders) if sig[0] % o == 0]

    estimate = len(reps) * math.prod(map(len, cands))
    if work_cap is not None and estimate > work_cap:
        raise WorkCapExceeded(
            f"census over {table.size} elements needs ~{estimate} tuple "
            f"evaluations, above the cap {work_cap}"
        )

    mul, inv = table.mul, table.inv
    last_a = sig[-1]
    m = len(sig)
    # per class tuple: hom count, epi count, least hom and epi witnesses
    cells: dict[tuple[int, ...], list] = {}
    # per x_1: its centralizer, and the generation verdict of each middle
    # tested or conjugate to one tested
    centralizers: dict[int, list[int]] = {}
    verdicts: dict[int, dict] = {}

    def record(idx_tuple: tuple[int, ...], weight: int) -> None:
        cls = tuple(class_of[i] for i in idx_tuple)
        ent = cells.get(cls)
        if ent is None:
            ent = cells[cls] = [0, 0, None, None]
        ent[0] += weight
        if epi_test and _orbit_generates(table, idx_tuple, verdicts,
                                         centralizers):
            ent[1] += weight
            if ent[3] is None or idx_tuple < ent[3]:
                ent[3] = idx_tuple
        elif ent[2] is None or idx_tuple < ent[2]:
            ent[2] = idx_tuple

    def rec(picked: list[int], prod: int, weight: int) -> None:
        pos = len(picked)
        if pos == m - 1:
            last = inv(prod)
            if last_a % class_orders[class_of[last]] == 0:
                record((*picked, last), weight)
            return
        for x in cands[pos - 1]:
            picked.append(x)
            rec(picked, mul(prod, x), weight)
            picked.pop()

    for rep in reps:
        rec([rep], rep, len(classes[class_of[rep]]))
    del rec  # rec's closure holds rec; the cycle would keep the table alive

    entries = []
    matrix = cache(table.matrix)  # entries share witnesses; one rebuild each
    for cls in sorted(cells):
        hom, epi, wit_hom, wit_epi = cells[cls]
        wit_idx = wit_epi if wit_epi is not None else wit_hom
        witness = tuple(map(matrix, wit_idx))
        entries.append(CensusEntry(
            classes=cls, hom_count=hom, epi_count=epi,
            witness=witness, witness_is_epi=wit_epi is not None,
        ))

    name = "PSL" if table.projective else "SL"
    return CensusResult(
        group_id=f"{name}{table.n}({table.field.q})",
        p=table.field.p, k=table.field.k, n=table.n,
        projective=table.projective, group_size=table.size,
        signature=sig,
        class_orders=tuple(class_orders),
        class_sizes=tuple(len(c) for c in classes),
        entries=tuple(entries),
        epi_tested=epi_test,
        total_hom=sum(e.hom_count for e in entries),
        total_epi=sum(e.epi_count for e in entries),
    )


# ---------------------------------------------------------------------------
# the dimension-condition filter
# ---------------------------------------------------------------------------

class RigidCensus(NamedTuple):
    """Census entries surviving the dimension-count filter, with the full
    report for each survivor's witness tuple."""

    result: CensusResult
    reports: tuple[tuple[tuple[int, ...], RigidityReport], ...]


def rigid_class_tuples(result: CensusResult, rs: RootSystem,
                       irreducibility: str = "verify") -> RigidCensus:
    """Keep class tuples whose witness class dimensions sum to exactly
    twice the group dimension, and run the verdict on each witness."""
    if rs.type_letter != "A" or rs.rank != result.n - 1:
        raise InputError(
            f"root system {rs.type_letter}{rs.rank} does not match the "
            f"matrix model A{result.n - 1}"
        )
    field = field_create(result.p, result.k)
    rep = adjoint_rep(field, result.n)
    target = 2 * rs.dim_g

    kept = []
    reports = []
    for entry in result.entries:
        dims = [rep.class_dim(g) for g in entry.witness]
        if sum(dims) != target:
            continue
        kept.append(entry)
        t = group_tuple(list(entry.witness), list(result.signature))
        reports.append((entry.classes, rigidity_verdict(t, irreducibility)))

    filtered = result._replace(entries=tuple(kept),
                               total_hom=sum(e.hom_count for e in kept),
                               total_epi=sum(e.epi_count for e in kept))
    return RigidCensus(result=filtered, reports=tuple(reports))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def census_to_json(result: CensusResult) -> dict:
    return {
        "schema": 1,
        "group": result.group_id,
        "p": result.p, "k": result.k, "n": result.n,
        "projective": result.projective,
        "group_size": result.group_size,
        "signature": list(result.signature),
        "class_orders": list(result.class_orders),
        "class_sizes": list(result.class_sizes),
        "epi_tested": result.epi_tested,
        "total_hom": result.total_hom,
        "total_epi": result.total_epi,
        "entries": [
            {
                "classes": list(e.classes),
                "hom_count": e.hom_count,
                "epi_count": e.epi_count,
                "witness": [matrix_to_wire(m) for m in e.witness],
                "witness_is_epi": e.witness_is_epi,
            }
            for e in result.entries
        ],
    }

