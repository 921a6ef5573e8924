"""Matrix groups: orders, closure, irreducibility, tuple wire format."""

import json
import pathlib
import pickle
import random

import pytest

import oracles
from rigiditylab.errors import InputError, WorkCapExceeded
from rigiditylab import ff, matgrp


def field(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q > 1:
        q //= p
        k += 1
    return ff.field_create(p, k)


# ---------------------------------------------------------------------------
# element and projective orders
# ---------------------------------------------------------------------------

def test_order_examples():
    F7 = field(7)
    F13 = field(13)
    eye = ff.Matrix.identity(F7, 2)
    assert matgrp.element_order(eye) == 1
    assert matgrp.projective_order(eye) == 1
    w = ff.Matrix.from_rows(F7, [[0, 1], [-1 % 7, 0]])
    assert matgrp.element_order(w) == 4
    assert matgrp.projective_order(w) == 2
    u = ff.Matrix.from_rows(F7, [[1, 1], [0, 1]])
    assert matgrp.element_order(u) == 7
    assert matgrp.projective_order(u) == 7
    minus = ff.Matrix.diagonal(F7, [6, 6])
    assert matgrp.element_order(minus) == 2
    assert matgrp.projective_order(minus) == 1
    # 2 has order 12 in F13*, so diag(2, 2^-1) has projective order 6
    t = ff.Matrix.diagonal(F13, [2, 7])
    assert matgrp.element_order(t) == 12
    assert matgrp.projective_order(t) == 6


def test_element_order_matches_brute_iteration():
    F = field(7)
    rng = random.Random(11)
    for _ in range(10):
        g = matgrp.random_sl_matrix(F, 2, rng)
        acc = g
        count = 1
        while not acc.is_identity():
            acc = acc @ g
            count += 1
        assert matgrp.element_order(g) == count


def test_projective_order_conjugation_invariant():
    F = field(9)
    rng = random.Random(21)
    for _ in range(15):
        g = matgrp.random_sl_matrix(F, 2, rng)
        h = matgrp.random_sl_matrix(F, 2, rng)
        conj = h @ g @ h.inverse()
        assert matgrp.projective_order(conj) == matgrp.projective_order(g)
        assert matgrp.element_order(conj) == matgrp.element_order(g)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def test_closure_of_identity_alone():
    F = field(5)
    table = matgrp.group_closure([ff.Matrix.identity(F, 2)], cap=10)
    assert table.size == 1


def test_group_order_formulas_against_gl_count():
    # |SL_n(q)| = |GL_n(q)| / (q - 1) with |GL| computed independently
    for q, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)]:
        gl = 1
        for i in range(n):
            gl *= q ** n - q ** i
        assert matgrp.sl_order(q, n) == gl // (q - 1)
    assert matgrp.psl_order(5, 2) == 60
    assert matgrp.psl_order(4, 2) == 60
    assert matgrp.psl_order(9, 2) == 360
    assert matgrp.psl_order(4, 3) == 20160


@pytest.mark.parametrize("q", [4, 5, 7])
def test_sl2_closure_sizes(q):
    F = field(q)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6)
    assert table.size == q * (q * q - 1)
    proj = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    assert proj.size == matgrp.psl_order(q, 2)


def test_sl3_2_closure_size():
    F = field(2)
    a, b = matgrp.generating_pair(F, 3)
    table = matgrp.group_closure([a, b], cap=10 ** 6)
    assert table.size == 168


def test_subgroup_orders_divide_group_order():
    F = field(5)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6)
    rng = random.Random(31)
    for _ in range(8):
        g = table.mats[rng.randrange(table.size)]
        h = table.mats[rng.randrange(table.size)]
        sub = matgrp.group_closure([g, h], cap=10 ** 6)
        assert table.size % sub.size == 0


def test_closure_of_exactly_cap_elements_returns():
    # the closure raises only on element cap + 1: the 3-cycle generates a
    # subgroup of order 3, exactly half of SL2(2) = S3, which the half-group
    # cap of generating_pair must accept as a closure and so reject as a pair
    cycle = ff.Matrix.from_rows(field(2), [[0, 1], [1, 1]])
    half = matgrp.sl_order(2, 2) // 2
    assert matgrp.element_order(cycle) == half == 3
    assert matgrp.group_closure([cycle], cap=half).size == half
    with pytest.raises(WorkCapExceeded):
        matgrp.group_closure([cycle], cap=half - 1)


def test_closure_work_cap():
    F = field(5)
    a, b = matgrp.generating_pair(F, 2)
    with pytest.raises(WorkCapExceeded):
        matgrp.group_closure([a, b], cap=10)


def test_projective_table_identifies_scalar_multiples():
    F = field(5)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    minus_a = a.scale(ff.FieldElement(F, 4))
    assert table.canonical_key(a) == table.canonical_key(minus_a)
    assert table.index_of(a) == table.index_of(minus_a)


def test_conjugacy_classes_partition_the_group():
    F = field(5)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    classes = table.conjugacy_classes()
    flat = [i for cls in classes for i in cls]
    assert sorted(flat) == list(range(table.size))
    assert classes[0] == (table.index_of(ff.Matrix.identity(F, 2)),)
    assert all(table.size % len(cls) == 0 for cls in classes)
    class_map = table.class_of()
    rng = random.Random(17)
    for _ in range(25):
        x = rng.randrange(table.size)
        h = rng.randrange(table.size)
        conj = table.mul(table.mul(h, x), table.inv(h))
        assert class_map[conj] == class_map[x]
        assert table.order_of(conj) == table.order_of(x)


def test_class_sizes_of_psl2_5_pinned():
    F = field(5)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    sizes = sorted(len(c) for c in table.conjugacy_classes())
    assert sizes == [1, 12, 12, 15, 20]


# ---------------------------------------------------------------------------
# table arithmetic against matrix arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, n, projective", [
    (5, 2, True), (8, 2, True), (5, 2, False), (2, 3, False),
])
def test_table_arithmetic_matches_matrix_arithmetic(q, n, projective):
    F = field(q)
    a, b = matgrp.generating_pair(F, n)
    fresh = matgrp.group_closure([a, b], cap=10 ** 6, projective=projective)
    mats = fresh.mats
    size = fresh.size
    order = matgrp.projective_order if projective else matgrp.element_order
    products = [[fresh.index_of(x @ y) for y in mats] for x in mats]
    inverses = [fresh.index_of(x.inverse()) for x in mats]
    orders = [order(x) for x in mats]
    # a table pickled before its first product builds its words itself; one
    # pickled after use carries them, as the census worker pool receives it
    unused = pickle.loads(pickle.dumps(fresh))
    fresh.inv(0)
    used = pickle.loads(pickle.dumps(fresh))
    for table in (fresh, unused, used):
        assert [m.key() for m in table.mats] == [m.key() for m in mats]
        for i in range(size):
            assert [table.mul(i, j) for j in range(size)] == products[i]
        assert [table.inv(i) for i in range(size)] == inverses
        assert [table.order_of(i) for i in range(size)] == orders


# ---------------------------------------------------------------------------
# absolute irreducibility
# ---------------------------------------------------------------------------

def test_irreducibility_examples():
    F7 = field(7)
    assert not matgrp.is_absolutely_irreducible([ff.Matrix.diagonal(F7, [3, 5])])
    assert not matgrp.is_absolutely_irreducible(
        [ff.Matrix.from_rows(F7, [[1, 1], [0, 1]])])
    a, b = matgrp.generating_pair(field(4), 2)
    assert matgrp.is_absolutely_irreducible([a, b])
    assert matgrp.is_absolutely_irreducible([ff.Matrix.from_rows(F7, [[3]])])
    assert not matgrp.is_absolutely_irreducible([ff.Matrix.identity(F7, 2)])


def test_irreducibility_matches_stable_line_oracle():
    rng = random.Random(47)
    for q in (4, 5, 7, 9):
        F = field(q)
        for _ in range(15):
            gens = [matgrp.random_sl_matrix(F, 2, rng)
                    for _ in range(rng.randrange(1, 4))]
            got = matgrp.is_absolutely_irreducible(gens)
            assert got == (not oracles.has_common_stable_line(gens))


def test_irreducibility_invariant_under_conjugation_and_scaling():
    F = field(5)
    rng = random.Random(53)
    for _ in range(10):
        gens = [matgrp.random_sl_matrix(F, 2, rng) for _ in range(2)]
        base = matgrp.is_absolutely_irreducible(gens)
        h = matgrp.random_sl_matrix(F, 2, rng)
        conj = [h @ g @ h.inverse() for g in gens]
        assert matgrp.is_absolutely_irreducible(conj) == base
        scaled = [g.scale(ff.FieldElement(F, 4)) for g in gens]
        assert matgrp.is_absolutely_irreducible(scaled) == base


# ---------------------------------------------------------------------------
# generating pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_generating_pair_is_deterministic_and_valid(q):
    F = field(q)
    pair1 = matgrp.generating_pair(F, 2)
    pair2 = matgrp.generating_pair(F, 2)
    assert len(pair1) == 2
    assert [m.key() for m in pair1] == [m.key() for m in pair2]
    for m in pair1:
        assert m.det() == F.one
    table = matgrp.group_closure(pair1, cap=10 ** 6)
    assert table.size == matgrp.sl_order(q, 2)


@pytest.mark.parametrize("q, n", [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9, 11,
                                                    13, 16)]
                         + [(2, 3), (3, 3), (4, 3)])
def test_half_group_cap_picks_the_full_closure_pair(q, n):
    # a pair generates exactly when its closure passes half of SL_n(q), so
    # the capped search accepts the candidate a full closure would, and the
    # census closes PSL_n(q) from the same pair as before
    F = field(q)
    got = matgrp.generating_pair(F, n)
    want = oracles.generating_pair_by_full_closure(F, n)
    assert [m.key() for m in got] == [m.key() for m in want]
    table = matgrp.group_closure(got, cap=10 ** 6, projective=True)
    assert table.size == matgrp.psl_order(q, n)
    assert table.generators == got


# ---------------------------------------------------------------------------
# tuple construction and wire format
# ---------------------------------------------------------------------------

def test_group_tuple_validation():
    F = field(7)
    c = ff.Matrix.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (6, 6))
    assert t.length == 2 and t.declared_orders == (6, 6)
    # declared order may be any multiple of the projective order
    assert matgrp.group_tuple((c, c.inverse()), (12, 6)).declared_orders[0] == 12
    with pytest.raises(InputError):
        matgrp.group_tuple((c, c.inverse()), (4, 6))
    with pytest.raises(InputError):
        matgrp.group_tuple((c, c), (6, 6))  # product not scalar
    bad_det = ff.Matrix.diagonal(F, [3, 3])
    with pytest.raises(InputError):
        matgrp.group_tuple((bad_det, bad_det.inverse()), (6, 6))


def test_declared_order_passes_exactly_when_projective_order_divides_it():
    rng = random.Random(5)
    for q, n in [(5, 2), (7, 2), (9, 2), (7, 3), (4, 3)]:
        F = field(q)
        for _ in range(3):
            a = matgrp.random_sl_matrix(F, n, rng)
            pair = (a, a.inverse())
            po = matgrp.projective_order(a)
            probes = {1, 2, po - 1, po, po + 1, 2 * po, 3 * po, 7 * po + 1,
                      *rng.sample(range(1, 4 * po + 2), 8)}
            for declared in sorted(probes - {0}):
                if declared % po == 0:
                    matgrp.group_tuple(pair, (declared, po))
                else:
                    with pytest.raises(InputError, match=(
                            f"projective order {po} does not divide the "
                            f"declared order {declared}$")):
                        matgrp.group_tuple(pair, (declared, po))


def test_loading_a_valid_tuple_walks_no_projective_order(monkeypatch):
    calls = []
    walk = matgrp.projective_order
    monkeypatch.setattr(matgrp, "projective_order",
                        lambda g: calls.append(g) or walk(g))
    golden = pathlib.Path(__file__).with_name("golden") / "tuples"
    for path in sorted(golden.glob("*.json")):
        matgrp.load_tuple(str(path))
    assert calls == []


def test_prefixes_run_from_the_identity_to_the_product():
    F = field(7)
    t = matgrp.random_sl_tuple(F, 3, 4, random.Random(9))
    pre = t.prefixes()
    assert len(pre) == t.length + 1
    assert pre[0].is_identity() and pre[-1] == t.product()
    for i, c in enumerate(t.generators):
        assert pre[i + 1] == oracles.matmul_entrywise(pre[i], c)


def test_product_may_be_any_scalar():
    F = field(5)
    a = matgrp.random_sl_matrix(F, 2, random.Random(3))
    b = a.inverse() @ ff.Matrix.diagonal(F, [4, 4])
    t = matgrp.group_tuple((a, b), (matgrp.projective_order(a),
                                    matgrp.projective_order(b)))
    assert t.product().is_scalar()
    assert not t.product().is_identity()


def test_tuple_from_matrices_infers_projective_orders():
    F = field(7)
    c = ff.Matrix.diagonal(F, [3, 5])
    t = matgrp.tuple_from_matrices([c, c.inverse()])
    assert t.declared_orders == (3, 3)


def test_tuple_json_round_trip(tmp_path):
    F = field(9)
    rng = random.Random(61)
    t = matgrp.random_sl_tuple(F, 2, 3, rng)
    doc = matgrp.tuple_to_json(t)
    assert json.dumps(doc, sort_keys=True) == \
        json.dumps(matgrp.tuple_to_json(t), sort_keys=True)
    back = matgrp.tuple_from_json(doc)
    assert back.n == t.n and back.declared_orders == t.declared_orders
    assert [m.key() for m in back.generators] == [m.key() for m in t.generators]
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = matgrp.load_tuple(str(path))
    assert [m.key() for m in loaded.generators] == [m.key() for m in t.generators]


def test_tuple_json_rejects_malformed_documents():
    F = field(5)
    t = matgrp.random_sl_tuple(F, 2, 2, random.Random(1))
    doc = matgrp.tuple_to_json(t)
    for breakage in (
        lambda d: d.pop("generators"),
        lambda d: d.update(schema=99),
        lambda d: d.update(p=6),
        lambda d: d["generators"][0].pop(),
        lambda d: d["generators"][0][0].pop(),
        lambda d: d.update(orders=[1] * (len(d["orders"]) + 1)),
    ):
        broken = json.loads(json.dumps(doc))
        breakage(broken)
        with pytest.raises(InputError):
            matgrp.tuple_from_json(broken)


def test_matrix_wire_round_trip():
    F = field(9)
    m = ff.Matrix.from_rows(F, [[F.element([1, 2]), F.one],
                                [F.zero, F.element([1, 1])]])
    wire = matgrp.matrix_to_wire(m)
    back = matgrp.matrix_from_wire(F, 2, wire)
    assert back.key() == m.key()


def test_random_sl_tuple_satisfies_the_relations():
    rng = random.Random(71)
    for q, n in [(5, 2), (9, 2), (2, 3)]:
        F = field(q)
        t = matgrp.random_sl_tuple(F, n, 4, rng)
        assert t.product().is_identity()
        for g, o in zip(t.generators, t.declared_orders):
            assert g.det() == F.one
            assert o % matgrp.projective_order(g) == 0
