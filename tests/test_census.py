"""Exhaustive relation-tuple census and its rigid-class filter."""

import gc
import json
import math
import weakref

import pytest

import oracles
from rigiditylab.errors import InputError, WorkCapExceeded
from rigiditylab import census, ff, matgrp, rigidity, rootdata


@pytest.fixture(scope="module")
def psl25():
    F = ff.field_create(5)
    a, b = matgrp.generating_pair(F, 2)
    return matgrp.group_closure([a, b], cap=10 ** 6, projective=True)


@pytest.fixture(scope="module")
def psl27():
    F = ff.field_create(7)
    a, b = matgrp.generating_pair(F, 2)
    return matgrp.group_closure([a, b], cap=10 ** 6, projective=True)


@pytest.fixture(scope="module")
def psl213():
    return matgrp.group_closure(matgrp.generating_pair(ff.field_create(13), 2),
                                cap=10 ** 6, projective=True)


def test_census_frees_its_table_without_the_cycle_collector():
    # with the cyclic collector off, only reference counting can free the
    # table, so the census must leave no cycle that reaches it
    F = ff.field_create(13)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    ref = weakref.ref(table)
    gc.collect()
    gc.disable()
    try:
        res = census.census(table, (2, 3, 7), workers=1)
        del table
        assert ref() is None
    finally:
        gc.enable()
    assert res.total_epi == 6552


# ---------------------------------------------------------------------------
# agreement with flat enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("signature", [(2, 3, 5), (2, 5, 5), (3, 3, 3)])
def test_counts_match_flat_enumeration(psl25, signature):
    res = census.census(psl25, signature, epi_test=True, workers=1)
    hom, epi, cells = oracles.direct_census(psl25, signature)
    assert res.total_hom == hom
    assert res.total_epi == epi
    got = {e.classes: (e.hom_count, e.epi_count) for e in res.entries}
    assert got == cells


def test_entry_counts_divisible_by_first_class_size(psl27):
    res = census.census(psl27, (2, 3, 7), workers=1)
    for e in res.entries:
        assert e.hom_count % res.class_sizes[e.classes[0]] == 0


def test_epi_total_divisible_by_group_order(psl25, psl27):
    for table, sig in [(psl25, (2, 3, 5)), (psl27, (2, 3, 7))]:
        res = census.census(table, sig, workers=1)
        assert res.total_epi > 0
        assert res.total_epi % table.size == 0


def test_witnesses_satisfy_the_relations(psl27):
    res = census.census(psl27, (2, 3, 7), workers=1)
    F = psl27.field
    index = {m.projective_key(): i for i, m in enumerate(psl27.mats)}
    for e in res.entries:
        assert len(e.witness) == 3
        prod = ff.Matrix.identity(F, 2)
        for m, a, cls in zip(e.witness, res.signature, e.classes):
            assert m.det() == 1
            assert a % oracles.order_by_walk(m, projective=True) == 0
            assert psl27.class_of()[index[m.projective_key()]] == cls
            prod = prod @ m
        assert prod.is_scalar()
        idxs = [index[m.projective_key()] for m in e.witness]
        generated = oracles.subgroup_generated(psl27, idxs)
        assert e.witness_is_epi == (generated == psl27.size)


def test_epi_skipped_when_disabled(psl25):
    res = census.census(psl25, (2, 3, 5), epi_test=False, workers=1)
    assert res.epi_tested is False
    assert res.total_epi == 0
    assert all(e.epi_count == 0 and not e.witness_is_epi for e in res.entries)


# ---------------------------------------------------------------------------
# Macbeath's theorem
# ---------------------------------------------------------------------------

def _prime_power(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _macbeath_hurwitz(p, k):
    # PSL2(q) is a (2,3,7) quotient exactly when q = 7, q = p with
    # p = +-1 mod 7, or q = p^3 with p = +-2, +-3 mod 7 (Macbeath 1969)
    return (p ** k == 7 or (k == 1 and p % 7 in (1, 6))
            or (k == 3 and p % 7 in (2, 3, 4, 5)))


def _hurwitz_epi_total(p, k):
    # Epimorphisms onto a Hurwitz PSL2(q) come in c_q orbits of Aut PSL2(q),
    # which acts freely on them: c_q = 1 for q = 7 and q = p^3, and 3 for
    # q = p = +-1 mod 7; |Aut PSL2(q)| = k gcd(2, q - 1) |PSL2(q)|
    q = p ** k
    c_q = 3 if k == 1 and q != 7 else 1
    return c_q * k * math.gcd(2, q - 1) * matgrp.psl_order(q, 2)


@pytest.mark.parametrize("q", [q for q in range(2, 44) if _prime_power(q)])
def test_macbeath_sweep(q):
    p, k = _prime_power(q)
    F = ff.field_create(p, k)
    table = matgrp.group_closure(matgrp.generating_pair(F, 2), cap=10 ** 6,
                                 projective=True)
    assert table.size == matgrp.psl_order(q, 2)
    res = census.census(table, (2, 3, 7), workers=1)
    assert (res.total_epi > 0) == _macbeath_hurwitz(p, k)
    if _macbeath_hurwitz(p, k):
        assert res.total_epi == _hurwitz_epi_total(p, k)


def test_hurwitz_epi_totals_pinned():
    expected = {7: 336, 8: 1512, 13: 6552, 27: 58968, 29: 73080,
                41: 206640, 43: 238392}
    got = {q: _hurwitz_epi_total(*_prime_power(q)) for q in range(2, 44)
           if _prime_power(q) and _macbeath_hurwitz(*_prime_power(q))}
    assert got == expected


def test_generation_is_tested_once_per_centralizer_orbit(monkeypatch,
                                                        psl213):
    # PSL2(13) has one class of involutions, whose centralizer (order 12)
    # acts freely on the generating tuples: 6552 / 1092 = 6 orbits, so six
    # accepted generation tests and one centralizer
    accepted, marked = [], []
    generates, mark = census._generates, census._mark_epi_orbit
    monkeypatch.setattr(census, "_generates", lambda t, idx: (
        generates(t, idx) and not accepted.append(idx)))
    monkeypatch.setattr(census, "_mark_epi_orbit", lambda t, rep, middle: (
        marked.append(rep), mark(t, rep, middle)))
    res = census.census(psl213, (2, 3, 7), workers=1)
    assert res.total_epi == 6552
    assert len(accepted) == res.total_epi // psl213.size == 6
    assert len(set(marked)) == 1 and len(marked) == 6


def test_no_centralizer_without_an_epimorphism(monkeypatch):
    F = ff.field_create(11)
    table = matgrp.group_closure(matgrp.generating_pair(F, 2),
                                 cap=10 ** 6, projective=True)
    marked = []
    monkeypatch.setattr(census, "_mark_epi_orbit",
                        lambda *args: marked.append(args))
    res = census.census(table, (2, 3, 7), workers=1)
    assert res.total_hom > 0 and res.total_epi == 0
    assert marked == []


# ---------------------------------------------------------------------------
# determinism and limits
# ---------------------------------------------------------------------------

def test_worker_count_does_not_change_the_result(psl27):
    serial = census.census_to_json(census.census(psl27, (2, 3, 7), workers=1))
    two = census.census_to_json(census.census(psl27, (2, 3, 7), workers=2))
    three = census.census_to_json(census.census(psl27, (2, 3, 7), workers=3))
    assert json.dumps(serial, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert json.dumps(serial, sort_keys=True) == json.dumps(three, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_size_does_not_change_the_result(monkeypatch, psl213,
                                               workers):
    # a chunk of 5 splits every centralizer orbit across chunks (and, with
    # two workers, across processes) without changing a count or witness
    default = census.census_to_json(
        census.census(psl213, (2, 3, 7), workers=workers))
    monkeypatch.setattr(census, "_CHUNK", 5)
    small = census.census_to_json(
        census.census(psl213, (2, 3, 7), workers=workers))
    assert json.dumps(small, sort_keys=True) == \
        json.dumps(default, sort_keys=True)
    assert small["total_epi"] == 6552


def test_work_cap_enforced(psl25):
    with pytest.raises(WorkCapExceeded):
        census.census(psl25, (2, 3, 5), work_cap=10)


def test_signature_validation(psl25):
    with pytest.raises(InputError):
        census.census(psl25, (2,))
    with pytest.raises(InputError):
        census.census(psl25, (2, 3))
    with pytest.raises(InputError):
        census.census(psl25, (2, 3, 0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_census_json_round_trip(psl27):
    res = census.census(psl27, (2, 3, 7), workers=1)
    doc = census.census_to_json(res)
    back = census.census_from_json(doc)
    assert census.census_to_json(back) == doc
    assert back.group_id == res.group_id
    assert back.total_hom == res.total_hom
    assert back.entries[1].classes == res.entries[1].classes
    assert back.entries[1].witness[0].key() == res.entries[1].witness[0].key()


# ---------------------------------------------------------------------------
# pinned regressions
# ---------------------------------------------------------------------------

def test_psl27_hurwitz_counts_pinned(psl27):
    res = census.census(psl27, (2, 3, 7), workers=1)
    assert res.group_id == "PSL2(7)"
    assert res.group_size == 168
    assert (res.total_hom, res.total_epi) == (337, 336)
    cells = {e.classes: (e.hom_count, e.epi_count) for e in res.entries}
    assert cells == {(0, 0, 0): (1, 0),
                     (5, 4, 1): (168, 168),
                     (5, 4, 2): (168, 168)}


def test_rigid_class_filter_keeps_only_full_dimension_tuples(psl25):
    res = census.census(psl25, (2, 3, 5), workers=1)
    rc = census.rigid_class_tuples(res, rootdata.build("A", 1))
    assert [e.classes for e in rc.result.entries] == [(4, 3, 1), (4, 3, 2)]
    assert rc.result.total_hom == 120
    for classes, report in rc.reports:
        assert report.verdict == rigidity.VERDICT_RIGID
        assert report.class_dims == (2, 2, 2)
        assert report.h1_dim == 0


def test_rigid_class_filter_validates_the_root_system(psl25):
    res = census.census(psl25, (2, 3, 5), workers=1)
    with pytest.raises(InputError):
        census.rigid_class_tuples(res, rootdata.build("A", 2))
    with pytest.raises(InputError):
        census.rigid_class_tuples(res, rootdata.build("B", 2))


def test_psl34_census_pinned_and_no_rigid_survivors():
    # order-3 classes of PSL3(4) are regular (class_dim 6), so a length-3
    # signature cannot reach 2 * dim = 16 exactly
    F = ff.field_create(2, 2)
    a, b = matgrp.generating_pair(F, 3)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    assert table.size == 20160
    res = census.census(table, (3, 3, 3), epi_test=False, workers=2)
    assert res.total_hom == 748161
    cells = {e.classes: e.hom_count for e in res.entries}
    assert cells == {(0, 0, 0): 1,
                     (0, 7, 7): 2240,
                     (7, 0, 7): 2240,
                     (7, 7, 0): 2240,
                     (7, 7, 7): 741440}
    rc = census.rigid_class_tuples(res, rootdata.build("A", 2))
    assert rc.result.entries == ()
    assert rc.reports == ()
