"""Exhaustive relation-tuple census and its rigid-class filter."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError, WorkCapExceeded
from rigiditylab import census, cli, coinv, ff, matgrp, rigidity, rootdata


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
def psl28():
    F = ff.field_create(2, 3)
    return matgrp.group_closure(matgrp.generating_pair(F, 2), cap=10 ** 6,
                                projective=True)


@pytest.fixture(scope="module")
def psl29():
    F = ff.field_create(3, 2)
    return matgrp.group_closure(matgrp.generating_pair(F, 2), cap=10 ** 6,
                                projective=True)


@pytest.fixture(scope="module")
def sl25():
    # linear with a centre: the table walks shortest words
    return matgrp.group_closure(matgrp.generating_pair(ff.field_create(5), 2),
                                cap=10 ** 6, projective=False)


@pytest.fixture(scope="module")
def sl217():
    # linear with a centre, as `census --no-projective` builds it
    return matgrp.group_closure(
        matgrp.generating_pair(ff.field_create(17), 2), cap=10 ** 6,
        projective=False)


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
        res = census.census(table, (2, 3, 7))
        del table
        assert ref() is None
    finally:
        gc.enable()
    assert res.total_epi == 6552


@pytest.mark.parametrize("q, flags, size", [
    (13, (), 1092), (8, ("--no-projective",), 504),
])
def test_census_multiplies_each_element_by_each_generator_once(
        monkeypatch, q, flags, size):
    # a census takes its table over from the winning search closure
    # (SL2(8) has no scalars besides 1, so its linear census does too):
    # across the search and the census, every element of the census table
    # is multiplied by each generator once, and every element of a
    # rejected candidate's closure too
    F = ff.field_create(*_prime_power(q))
    pair = matgrp.generating_pair(F, 2)
    rejected = 0
    for cand in matgrp._pair_candidates(F, 2):
        if [m.key() for m in cand] == [m.key() for m in pair]:
            break
        rejected += len(oracles.closure_by_products(list(cand), 10 ** 6,
                                                    True)[0])
    made = []

    class Tracked(matgrp.FiniteGroupTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(matgrp, "FiniteGroupTable", Tracked)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["census", "--type", "A", "--rank", "1", "--q",
                         str(q), "--signature", "2,3,7", *flags])
    assert code == 0
    assert json.loads(out.getvalue())["group_size"] == size
    # the winner's closure, taken over, holds every product of the table
    assert len(made[-1].right[1]) == size
    assert sum(len(perm) for c in made for perm in c.right) \
        == 2 * (rejected + size)
    assert (rejected > 0) == (q == 8)


def test_no_partial_closure_outlives_its_caller(monkeypatch):
    # with the cyclic collector off, only reference counting can free a
    # closure: after a census, and after a capped closure raises in its
    # constructor, none may be left; each is registered before it runs,
    # so a refused one is counted too
    made = []

    class Tracked(matgrp.FiniteGroupTable):
        def __init__(self, *args, **kwargs):
            made.append(weakref.ref(self))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(matgrp, "FiniteGroupTable", Tracked)
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["census", "--type", "A", "--rank", "1",
                             "--q", "13", "--signature", "2,3,7"]) == 0
        assert made and all(ref() is None for ref in made)
        made.clear()
        pair = matgrp.generating_pair(ff.field_create(3, 2), 2)
        for projective in (False, True):
            try:
                matgrp.group_closure(list(pair), cap=10, projective=projective)
            except WorkCapExceeded:
                pass
        # the pair holds its own search closure, and nothing else does
        try:
            matgrp.group_closure(pair, cap=10, projective=True)
        except WorkCapExceeded:
            pass
        assert [ref() is None for ref in made[-3:]] == [False, True, True]
        del pair
        assert len(made) > 3 and all(ref() is None for ref in made)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# agreement with flat enumeration
# ---------------------------------------------------------------------------

# PSL2(7) and PSL2(8) on (2,3,7) have many C(x_1)-orbits per rep, so most
# verdicts come from the orbit cache, but every nontrivial tuple generates;
# PSL2(5) on (3,3,5) and PSL2(9) on (3,3,4) mix generating and
# non-generating orbits under one x_1, so a verdict spread to a tuple
# outside its orbit changes a count; SL2(5) on (4,6,10) is a linear table
# with a centre, whose arithmetic walks shortest words
@pytest.mark.parametrize("group, signature", [
    ("psl25", (2, 3, 5)), ("psl25", (2, 5, 5)), ("psl25", (3, 3, 3)),
    ("psl27", (2, 3, 7)), ("psl28", (2, 3, 7)), ("psl25", (3, 3, 5)),
    ("psl29", (3, 3, 4)), ("sl25", (4, 6, 10)),
], ids=["signature0", "signature1", "signature2", "psl27-237", "psl28-237",
        "psl25-335", "psl29-334", "sl25-4610"])
def test_counts_match_flat_enumeration(request, group, signature):
    table = request.getfixturevalue(group)
    res = census.census(table, signature, epi_test=True)
    hom, epi, cells = oracles.direct_census(table, signature)
    assert res.total_hom == hom
    assert res.total_epi == epi
    got = {e.classes: (e.hom_count, e.epi_count) for e in res.entries}
    assert got == cells


def test_entry_counts_divisible_by_first_class_size(psl27):
    res = census.census(psl27, (2, 3, 7))
    for e in res.entries:
        assert e.hom_count % res.class_sizes[e.classes[0]] == 0


def test_epi_total_divisible_by_group_order(psl25, psl27):
    for table, sig in [(psl25, (2, 3, 5)), (psl27, (2, 3, 7))]:
        res = census.census(table, sig)
        assert res.total_epi > 0
        assert res.total_epi % table.size == 0


# every m = 3 census on the fixtures; SL2(5) and SL2(17) have a centre
@pytest.mark.parametrize("name, signature", [
    ("psl25", (2, 3, 5)), ("psl25", (2, 5, 5)), ("psl25", (3, 3, 3)),
    ("psl25", (3, 3, 5)), ("psl27", (2, 3, 7)), ("psl28", (2, 3, 7)),
    ("psl29", (3, 3, 4)), ("psl213", (2, 3, 7)), ("psl34", (2, 5, 5)),
    ("sl25", (4, 6, 10)), ("sl217", (3, 3, 9)),
])
def test_hom_counts_match_the_class_algebra(request, name, signature):
    # for m = 3 the count of a class triple (a, b, c) is
    # |C_c| * #{x in C_a : x^-1 z^-1 in C_b} for any one z in C_c (Serre,
    # Topics in Galois Theory, 7.2): one pass over C_a per class c, with no
    # candidate list and no enumeration of the middle coordinate
    table = request.getfixturevalue(name)
    res = census.census(table, signature, epi_test=False)
    classes, class_of = table.conjugacy_classes(), table.class_of()
    mul, inv = table.mul, table.inv
    admissible = [[c for c, cls in enumerate(classes)
                   if a % table.order_of(cls[0]) == 0] for a in signature]
    formula = {}
    for a in admissible[0]:
        for c in admissible[2]:
            z_inv = inv(min(classes[c]))
            for x in classes[a]:
                key = (a, class_of[mul(inv(x), z_inv)], c)
                formula[key] = formula.get(key, 0) + len(classes[c])
    counts = {e.classes: e.hom_count for e in res.entries}
    triples = set(itertools.product(*admissible))
    assert set(counts) <= triples
    # the triples the census omits must count 0 by the formula too
    assert {t: formula.get(t, 0) for t in triples} == {
        t: counts.get(t, 0) for t in triples}


def test_witnesses_satisfy_the_relations(psl27):
    res = census.census(psl27, (2, 3, 7))
    F = psl27.field
    index = {oracles.projective_key(psl27.matrix(i)): i
             for i in range(psl27.size)}
    for e in res.entries:
        assert len(e.witness) == 3
        prod = ff.Matrix.identity(F, 2)
        for m, a, cls in zip(e.witness, res.signature, e.classes):
            assert m.det() == 1
            assert a % oracles.order_by_walk(m, projective=True) == 0
            assert psl27.class_of()[index[oracles.projective_key(m)]] == cls
            prod = prod @ m
        assert prod.is_scalar()
        idxs = [index[oracles.projective_key(m)] for m in e.witness]
        generated = oracles.subgroup_generated(psl27, idxs)
        assert e.witness_is_epi == (generated == psl27.size)


def test_each_witness_element_is_rebuilt_once(monkeypatch, psl213):
    # entries share witness elements; one census rebuilds each distinct
    # one once, and the entries that share it share the matrix
    rebuilt = []
    matrix = matgrp.FiniteGroupTable.matrix

    def counted(self, i):
        rebuilt.append(i)
        return matrix(self, i)

    monkeypatch.setattr(matgrp.FiniteGroupTable, "matrix", counted)
    res = census.census(psl213, (2, 3, 7))
    witnesses = [m for e in res.entries for m in e.witness]
    assert len(set(rebuilt)) == len(rebuilt) < len(witnesses)
    assert len({id(m) for m in witnesses}) == len(rebuilt)
    assert len({m.key() for m in witnesses}) == len(rebuilt)


def test_epi_skipped_when_disabled(psl25):
    res = census.census(psl25, (2, 3, 5), epi_test=False)
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


def _census_checking_generation(monkeypatch, table, signature):
    """The census, with every generation test it makes checked against
    the closure oracle, both on the m - 1 elements the census passes and
    on the whole tuple, whose last element is their product's inverse."""
    tested = []
    generates = matgrp.FiniteGroupTable.generates
    monkeypatch.setattr(matgrp.FiniteGroupTable, "generates", lambda t, idx: (
        tested.append(tuple(idx)) or generates(t, idx)))
    res = census.census(table, signature)
    monkeypatch.undo()
    assert tested
    for head in tested:
        prod = 0
        for x in head:
            prod = table.mul(prod, x)
        whole = (*head, table.inv(prod))
        verdict = oracles.generates_by_closure(table, head)
        assert oracles.generates_by_closure(table, whole) == verdict
        assert table.generates(head) == table.generates(whole) == verdict
    return res


@pytest.mark.parametrize("q", [q for q in range(2, 44) if _prime_power(q)])
def test_macbeath_sweep(monkeypatch, q):
    p, k = _prime_power(q)
    F = ff.field_create(p, k)
    table = matgrp.group_closure(matgrp.generating_pair(F, 2), cap=10 ** 6,
                                 projective=True)
    assert table.size == matgrp.psl_order(q, 2)
    res = _census_checking_generation(monkeypatch, table, (2, 3, 7))
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
    # accepted generation tests, one centralizer, and six verdicts spread
    accepted, centralized, spread = [], [], []
    generates = matgrp.FiniteGroupTable.generates
    centralizer = matgrp.FiniteGroupTable.centralizer
    spread_verdict = census._spread
    monkeypatch.setattr(matgrp.FiniteGroupTable, "generates", lambda t, idx: (
        generates(t, idx) and not accepted.append(idx)))
    monkeypatch.setattr(matgrp.FiniteGroupTable, "centralizer",
                        lambda t, rep: (centralized.append(rep)
                                        or centralizer(t, rep)))
    monkeypatch.setattr(census, "_spread", lambda t, c, middle, verdict, v: (
        spread.append(verdict), spread_verdict(t, c, middle, verdict, v)))
    res = census.census(psl213, (2, 3, 7))
    assert res.total_epi == 6552
    assert len(accepted) == res.total_epi // psl213.size == 6
    assert len(centralized) == 1 and spread == [True] * 6


def test_no_centralizer_for_a_single_orbit(monkeypatch):
    # PSL2(11) has no element of order 7, so (1, 1, 1) is its one (2,3,7)
    # tuple: one rejected test, of x_1 and x_2 (x_3 is their product's
    # inverse), and no centralizer
    F = ff.field_create(11)
    table = matgrp.group_closure(matgrp.generating_pair(F, 2),
                                 cap=10 ** 6, projective=True)
    centralized, tested = [], []
    generates = matgrp.FiniteGroupTable.generates
    monkeypatch.setattr(matgrp.FiniteGroupTable, "centralizer",
                        lambda *args: centralized.append(args))
    monkeypatch.setattr(matgrp.FiniteGroupTable, "generates", lambda t, idx: (
        tested.append(idx) or generates(t, idx)))
    res = census.census(table, (2, 3, 7))
    assert res.total_hom == 1 and res.total_epi == 0
    assert tested == [(0, 0)]
    assert centralized == []


@pytest.fixture(scope="module")
def psl34():
    return matgrp.group_closure(matgrp.generating_pair(ff.field_create(2, 2), 3),
                                cap=10 ** 6, projective=True)


# PSL3(4) (2,5,5) rejects most of its orbits; SL2(5) and SL2(17) have a
# centre, so their tables rebuild each permutation from its BFS path and
# their oracle multiplies along words
@pytest.mark.parametrize("name, signature", [
    ("psl34", (2, 5, 5)), ("sl25", (4, 6, 10)), ("sl217", (3, 3, 9)),
])
def test_generation_verdicts_match_the_closure(monkeypatch, request, name,
                                               signature):
    _census_checking_generation(monkeypatch, request.getfixturevalue(name),
                                signature)


@pytest.fixture(scope="module")
def small_tables():
    # PSL2(q) for q = 5, 7, 8, 9, 11, 13, and PSL3(2); also PSL2(2) = S_3
    # and PSL2(3) = A_4, which are not simple (S_3 has a subgroup of half
    # its order)
    return [matgrp.group_closure(
        matgrp.generating_pair(ff.field_create(*_prime_power(q)), n),
        cap=10 ** 6, projective=True)
        for q, n in [(5, 2), (7, 2), (8, 2), (9, 2), (11, 2), (13, 2), (2, 3),
                     (2, 2), (3, 2)]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_pairs_generate_as_the_closure_says(small_tables, data):
    table = data.draw(st.sampled_from(small_tables))
    pair = data.draw(st.lists(st.integers(0, table.size - 1), min_size=2,
                              max_size=2))
    assert table.generates(pair) == oracles.generates_by_closure(table, pair)


@pytest.mark.parametrize("name", ["psl213", "psl34", "sl25", "sl217"])
def test_centralizer_matches_the_mul_definition(name, request):
    # PSL2(13) and PSL3(4) compare translates; SL2(5) and SL2(17) have a
    # centre and take their products along words
    table = request.getfixturevalue(name)
    mul = table.mul
    for cls in table.conjugacy_classes():
        rep = cls[0]
        centralizer = table.centralizer(rep)
        assert centralizer == [
            c for c in range(table.size) if mul(rep, c) == mul(c, rep)]
        # orbit-stabilizer ties the centralizer to the class walk
        assert len(centralizer) * len(cls) == table.size


def test_rejected_orbits_are_tested_once(monkeypatch, psl34):
    # PSL3(4) (2,5,5) has thousands of tuples that do not generate; each
    # C(x_1)-orbit, accepted or rejected, gets one generation test
    tested = []
    generates = matgrp.FiniteGroupTable.generates
    monkeypatch.setattr(matgrp.FiniteGroupTable, "generates", lambda t, idx: (
        tested.append(idx) or generates(t, idx)))
    res = census.census(psl34, (2, 5, 5))
    assert len(tested) == 53
    mul, inv = psl34.mul, psl34.inv
    centralizers, seen = {}, set()
    for rep, x in tested:
        # the orbit of the middle coordinate under the centralizer of rep,
        # found from scratch; no later test may fall into it
        assert (rep, x) not in seen
        if rep not in centralizers:
            centralizers[rep] = [c for c in range(psl34.size)
                                 if mul(rep, c) == mul(c, rep)]
        seen.update((rep, mul(mul(inv(c), x), c)) for c in centralizers[rep])
    # the result of the census that tested every tuple (10,509 tests)
    assert (res.total_hom, res.total_epi) == (1016065, 241920)
    doc = json.dumps(census.census_to_json(res), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "4540224983a3b6fb73c5f22f821053b8577ada74047ff762ffdc86a4b899877c")


# ---------------------------------------------------------------------------
# determinism and limits
# ---------------------------------------------------------------------------

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
# pinned regressions
# ---------------------------------------------------------------------------

def test_psl27_hurwitz_counts_pinned(psl27):
    res = census.census(psl27, (2, 3, 7))
    assert res.group_id == "PSL2(7)"
    assert res.group_size == 168
    assert (res.total_hom, res.total_epi) == (337, 336)
    cells = {e.classes: (e.hom_count, e.epi_count) for e in res.entries}
    assert cells == {(0, 0, 0): (1, 0),
                     (5, 4, 1): (168, 168),
                     (5, 4, 2): (168, 168)}


def test_rigid_class_filter_keeps_only_full_dimension_tuples(psl25):
    res = census.census(psl25, (2, 3, 5))
    rc = census.rigid_class_tuples(res, rootdata.build("A", 1))
    assert [e.classes for e in rc.result.entries] == [(4, 3, 1), (4, 3, 2)]
    assert rc.result.total_hom == 120
    for classes, report in rc.reports:
        assert report.verdict == rigidity.VERDICT_RIGID
        assert report.class_dims == (2, 2, 2)
        assert report.h1_dim == 0


def test_rigid_class_filter_validates_the_root_system(psl25):
    res = census.census(psl25, (2, 3, 5))
    with pytest.raises(InputError):
        census.rigid_class_tuples(res, rootdata.build("A", 2))
    with pytest.raises(InputError):
        census.rigid_class_tuples(res, rootdata.build("B", 2))


@pytest.fixture(scope="module")
def records(psl25):
    a1 = rootdata.build("A", 1)
    res = census.census(psl25, (2, 3, 5))
    rc = census.rigid_class_tuples(res, a1)
    t = matgrp.group_tuple(list(rc.result.entries[0].witness), [2, 3, 5])
    return {r.__class__.__name__: r for r in (
        res.entries[0], res, rc, rc.reports[0][1], rigidity.cocycle_spaces(t),
        coinv.coinvariant_dim(t), rootdata.class_dim_table(a1, 3),
        rootdata.rigid_tuples(a1, 3, 7))}


@pytest.mark.parametrize("name", [
    "CensusEntry", "CensusResult", "RigidCensus", "RigidityReport",
    "CocycleSpaces", "CoinvariantResult", "ClassDimTable",
    "RigidTupleResult"])
def test_result_records_refuse_assignment(records, name):
    record = records[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    if name == "RigidCensus":
        # the filter replaces the entries and their totals, nothing else
        full, kept = records["CensusResult"], record.result
        assert type(kept) is census.CensusResult
        assert len(kept.entries) < len(full.entries)
        assert (kept.total_hom, kept.total_epi) == (
            sum(e.hom_count for e in kept.entries),
            sum(e.epi_count for e in kept.entries))
        for field in full._fields:
            if field not in ("entries", "total_hom", "total_epi"):
                assert getattr(kept, field) == getattr(full, field), field


def test_psl34_census_pinned_and_no_rigid_survivors():
    # order-3 classes of PSL3(4) are regular (class_dim 6), so a length-3
    # signature cannot reach 2 * dim = 16 exactly
    F = ff.field_create(2, 2)
    a, b = matgrp.generating_pair(F, 3)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    assert table.size == 20160
    res = census.census(table, (3, 3, 3), epi_test=False)
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
