"""Exhaustive census of relation tuples in small finite matrix groups.

Given a group table and a signature (a_1, ..., a_m), the census counts all
tuples (x_1, ..., x_m) with the order of x_i dividing a_i and product equal
to the identity, bucketed by conjugacy-class tuple.  The first coordinate
runs over class representatives only and contributes its class size as a
weight, which leaves every count exact while dividing the work by roughly
the class count.  The last coordinate is solved from the running product,
never enumerated.

Every group operation here is an index lookup on the table: ``mul`` and
``inv`` follow the table's shortest words over its generators through the
right-multiplication permutations recorded by the closure, so the census
multiplies no matrices.  Element orders are computed once per conjugacy
class, since order is a class function.

Generation is decided once per C(x_1)-orbit.  Conjugating a tuple by an
element of the centralizer of x_1 keeps x_1, the orders, the product and
whether the tuple generates, so when the epimorphism test accepts a tuple
(it closes the tuple inside the table, stopping as soon as more than half
the group is reached, which a proper subgroup cannot do) the whole orbit
is recorded as known epimorphisms.  The centralizer is found by index
lookups after the first accepted tuple for its x_1, and kept for the rest
of the census in that process; a census that accepts no tuple never
computes it.  Every tuple is still classified on its own, so counts and
witnesses do not depend on which member of an orbit was tested.

Results are deterministic for any worker count: the work is chunked by a
fixed block size, counts merge by addition, and witnesses merge by taking
the index-tuple minimum.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .adjoint import adjoint_rep
from .errors import InputError, WorkCapExceeded
from .ff import Matrix, field_create
from .matgrp import (FiniteGroupTable, group_tuple, matrix_from_wire,
                     matrix_to_wire)
from .rigidity import RigidityReport, rigidity_verdict
from .rootdata import RootSystem

_CHUNK = 256


@dataclass(frozen=True)
class CensusEntry:
    """Counts for one conjugacy-class tuple, with the least witness found
    (an epimorphism witness whenever one exists)."""

    classes: tuple[int, ...]
    hom_count: int
    epi_count: int
    witness: tuple[Matrix, ...]
    witness_is_epi: bool


@dataclass(frozen=True)
class CensusResult:
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
# worker machinery
# ---------------------------------------------------------------------------

_W: dict = {}


def _census_init(payload: dict) -> None:
    global _W
    _W = payload


def _generates(table: FiniteGroupTable, gens_idx: tuple[int, ...]) -> bool:
    half = table.size // 2
    seen = {0}
    frontier = [0]
    mul = table.mul
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens_idx:
                j = mul(i, g)
                if j not in seen:
                    seen.add(j)
                    if len(seen) > half:
                        return True
                    nxt.append(j)
        frontier = nxt
    return len(seen) == table.size


def _mark_epi_orbit(table: FiniteGroupTable, rep: int,
                    middle: tuple[int, ...]) -> None:
    """Record the C(rep)-orbit of the middle coordinates of a generating
    tuple (rep, *middle, last) as known epimorphisms of this process; the
    last coordinate follows from the others."""
    orbits = _W["epi_orbits"]
    if rep not in orbits:
        mul = table.mul
        orbits[rep] = ([c for c in range(table.size)
                        if mul(rep, c) == mul(c, rep)], set())
    centralizer, known = orbits[rep]
    mul, inv = table.mul, table.inv
    for c in centralizer:
        c_inv = inv(c)
        known.add(tuple(mul(mul(c_inv, x), c) for x in middle))


def _census_task(args: tuple[int, int, int]) -> list[tuple]:
    """Count the block (first coordinate = one class rep, second coordinate
    in a slice of its candidate list)."""
    rep, lo, hi = args
    table: FiniteGroupTable = _W["table"]
    sig: tuple[int, ...] = _W["sig"]
    cands: list[list[int]] = _W["cands"]
    orders: list[int] = _W["orders"]
    class_of: list[int] = _W["class_of"]
    weight: int = _W["weights"][rep]
    epi_test: bool = _W["epi_test"]
    mul, inv = table.mul, table.inv
    last_a = sig[-1]
    m = len(sig)

    orbits: dict[int, tuple] = _W["epi_orbits"]
    out: dict[tuple[int, ...], list] = {}

    def record(idx_tuple: tuple[int, ...]) -> None:
        cls = tuple(class_of[i] for i in idx_tuple)
        ent = out.get(cls)
        if ent is None:
            ent = out[cls] = [0, 0, None, None]
        ent[0] += weight
        is_epi = False
        if epi_test:
            middle = idx_tuple[1:-1]
            is_epi = rep in orbits and middle in orbits[rep][1]
            if not is_epi and _generates(table, idx_tuple):
                is_epi = True
                _mark_epi_orbit(table, rep, middle)
        if is_epi:
            ent[1] += weight
            if ent[3] is None or idx_tuple < ent[3]:
                ent[3] = idx_tuple
        elif ent[2] is None or idx_tuple < ent[2]:
            ent[2] = idx_tuple

    picked = [rep]

    def rec(pos: int, prod: int) -> None:
        if pos == m - 1:
            last = inv(prod)
            if last_a % orders[last] == 0:
                record((*picked, last))
            return
        src = cands[pos][lo:hi] if pos == 1 else cands[pos]
        for x in src:
            picked.append(x)
            rec(pos + 1, mul(prod, x))
            picked.pop()

    rec(1, rep)
    del rec  # rec's closure holds rec; the cycle would keep the table alive
    return [(cls, ent[0], ent[1], ent[2], ent[3]) for cls, ent in out.items()]


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------

def census(table: FiniteGroupTable, signature: tuple[int, ...],
           epi_test: bool = True, workers: int = 1,
           work_cap: int | None = None) -> CensusResult:
    """Count homomorphism tuples per conjugacy-class tuple.

    work_cap bounds the number of candidate tuples evaluated; exceeding it
    raises before any enumeration starts.  epi_test=False skips generation
    checks (epi counts report 0), useful when per-tuple closures are too
    costly but hom counts are still wanted.
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
    orders = [class_orders[c] for c in class_of]
    table.inv(0)  # build the table's words before any fork

    cands = [sorted(i for i in range(table.size) if a % orders[i] == 0)
             for a in sig]
    reps = [c[0] for c in classes if sig[0] % orders[c[0]] == 0]
    weights = {c[0]: len(c) for c in classes}

    middle = 1
    for pos in range(1, len(sig) - 1):
        middle *= len(cands[pos])
    estimate = len(reps) * middle
    if work_cap is not None and estimate > work_cap:
        raise WorkCapExceeded(
            f"census over {table.size} elements needs ~{estimate} tuple "
            f"evaluations, above the cap {work_cap}"
        )

    tasks = []
    n2 = len(cands[1])
    for rep in reps:
        for lo in range(0, max(n2, 1), _CHUNK):
            tasks.append((rep, lo, min(lo + _CHUNK, n2)))

    payload = {
        "table": table, "sig": sig, "cands": cands, "orders": orders,
        "class_of": class_of, "weights": weights, "epi_test": epi_test,
        "epi_orbits": {},  # rep -> (centralizer, known epi middles)
    }
    if workers <= 1:
        _census_init(payload)
        try:
            partials = [_census_task(t) for t in tasks]
        finally:
            _census_init({})  # keep no table alive past its census
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_census_init,
                                 initargs=(payload,)) as pool:
            partials = list(pool.map(_census_task, tasks))

    merged: dict[tuple[int, ...], list] = {}
    for part in partials:
        for cls, hom, epi, wit_hom, wit_epi in part:
            ent = merged.setdefault(cls, [0, 0, None, None])
            ent[0] += hom
            ent[1] += epi
            if wit_hom is not None and (ent[2] is None or wit_hom < ent[2]):
                ent[2] = wit_hom
            if wit_epi is not None and (ent[3] is None or wit_epi < ent[3]):
                ent[3] = wit_epi

    entries = []
    for cls in sorted(merged):
        hom, epi, wit_hom, wit_epi = merged[cls]
        wit_idx = wit_epi if wit_epi is not None else wit_hom
        witness = tuple(table.mats[i] for i in wit_idx)
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

@dataclass(frozen=True)
class RigidCensus:
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

    filtered = replace(result, entries=tuple(kept),
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


def census_from_json(doc: dict) -> CensusResult:
    if not isinstance(doc, dict):
        raise InputError("census document must be a JSON object")
    if doc.get("schema", 1) != 1:
        raise InputError(f"unsupported schema version {doc.get('schema')!r}")
    try:
        field = field_create(doc["p"], doc["k"])
        n = doc["n"]
        entries = tuple(
            CensusEntry(
                classes=tuple(e["classes"]),
                hom_count=e["hom_count"],
                epi_count=e["epi_count"],
                witness=tuple(matrix_from_wire(field, n, w)
                              for w in e["witness"]),
                witness_is_epi=e["witness_is_epi"],
            )
            for e in doc["entries"]
        )
        return CensusResult(
            group_id=doc["group"], p=doc["p"], k=doc["k"], n=n,
            projective=doc["projective"], group_size=doc["group_size"],
            signature=tuple(doc["signature"]),
            class_orders=tuple(doc["class_orders"]),
            class_sizes=tuple(doc["class_sizes"]),
            entries=entries,
            epi_tested=doc["epi_tested"],
            total_hom=doc["total_hom"],
            total_epi=doc["total_epi"],
        )
    except KeyError as exc:
        raise InputError(f"census document missing field {exc}") from exc
