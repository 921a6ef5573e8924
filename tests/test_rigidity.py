"""Cocycle spaces, tangent product rank, and the rigidity verdict."""

import json
import math
import pathlib
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError, InvariantViolation, WorkCapExceeded
from rigiditylab import adjoint, cli, coinv, ff, matgrp, rigidity

TUPLES = pathlib.Path(__file__).with_name("golden") / "tuples"

properties = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow,
                                             HealthCheck.filter_too_much])


@pytest.fixture(scope="module")
def psl27_triple():
    """A (2, 3, 7) generating triple of PSL2(7), found deterministically."""
    F = ff.field_create(7)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    for i in range(table.size):
        if table.order_of(i) != 2:
            continue
        for j in range(table.size):
            if table.order_of(j) != 3:
                continue
            k = table.inv(table.mul(i, j))
            if table.order_of(k) != 7:
                continue
            gens = [table.matrix(i), table.matrix(j), table.matrix(k)]
            if oracles.subgroup_generated(table, (i, j, k)) == table.size:
                prod = gens[0] @ gens[1] @ gens[2]
                if prod.is_identity():
                    return oracles.tuple_from_matrices(gens)
    raise AssertionError("no (2,3,7) triple found")


# ---------------------------------------------------------------------------
# cocycle spaces
# ---------------------------------------------------------------------------

def test_identity_tuple_cocycles_depend_on_declared_orders():
    F = ff.field_create(7)
    eye = ff.Matrix.identity(F, 2)
    # order 2 is invertible mod 7: each power relation forces zero
    coprime = matgrp.group_tuple([eye, eye], [2, 2])
    cs = rigidity.cocycle_spaces(coprime)
    assert (cs.z1_dim, cs.b1_dim, cs.z1_dim - cs.b1_dim) == (0, 0, 0)
    # order 7 vanishes mod 7: power relations are vacuous and only the
    # product relation cuts the space down
    modular = matgrp.group_tuple([eye, eye], [7, 7])
    cs = rigidity.cocycle_spaces(modular)
    assert (cs.z1_dim, cs.b1_dim, cs.z1_dim - cs.b1_dim) == (3, 0, 3)


def test_psl27_triple_cocycle_dimensions_pinned(psl27_triple):
    cs = rigidity.cocycle_spaces(psl27_triple)
    assert (cs.z1_dim, cs.b1_dim, cs.z1_dim - cs.b1_dim) == (4, 3, 1)


def _field(q: int) -> ff.FiniteField:
    return ff.field_create(*{4: (2, 2), 9: (3, 2)}.get(q, (q, 1)))


@properties
@given(q=st.sampled_from([5, 7, 13]), data=st.data())
def test_z1_matches_independent_rank_computation(q, data):
    t = data.draw(oracles.sl_tuples(ff.field_create(q), 2, 3))
    cs = rigidity.cocycle_spaces(t)
    grid = cs.relator_matrix.row_values()
    cols = cs.relator_matrix.cols
    assert cs.z1_dim == cols - oracles.rank_mod_p(grid, q)


@properties
@given(data=st.data())
def test_b1_is_the_whole_tuple_coboundary_rank(data):
    F = ff.field_create(5)
    rep = adjoint.adjoint_rep(F, 2)
    t = data.draw(oracles.sl_tuples(F, 2, 3))
    cs = rigidity.cocycle_spaces(t)
    stacked = []
    for g in t.generators:
        ad = rep.ad_matrix(g)
        stacked += [[F.sub(ad[i, j], int(i == j))
                     for j in range(rep.dim)] for i in range(rep.dim)]
    # rank of the stacked (Ad - 1) blocks, transposed into one map
    cols = [[row[j] for row in stacked] for j in range(rep.dim)]
    assert cs.b1_dim == ff.rank_of_rows(F, cols)


@properties
@given(data=st.data())
def test_cocycles_contain_coboundaries(psl27_triple, data):
    F = ff.field_create(5)
    for t in (psl27_triple, data.draw(oracles.sl_tuples(F, 2, 3))):
        cs = rigidity.cocycle_spaces(t)
        assert 0 <= cs.b1_dim <= cs.z1_dim


# ---------------------------------------------------------------------------
# tangent product rank
# ---------------------------------------------------------------------------

def test_tangent_rank_of_trivial_and_cyclic_tuples():
    F = ff.field_create(7)
    eye = ff.Matrix.identity(F, 2)
    t = matgrp.group_tuple([eye, eye], [1, 1])
    assert rigidity.tangent_product_rank(t) == 0
    c = oracles.diagonal(F, [3, 5])
    pair = matgrp.group_tuple((c, c.inverse()), (3, 3))
    assert rigidity.tangent_product_rank(pair) == 2


@properties
@given(qn=st.sampled_from([(4, 2), (5, 2), (7, 2), (9, 2), (13, 2), (2, 3),
                           (5, 3)]),
       length=st.integers(2, 4), data=st.data())
def test_tangent_rank_equals_span_dim(qn, length, data):
    q, n = qn
    t = data.draw(oracles.sl_tuples(_field(q), n, length))
    assert rigidity.tangent_product_rank(t) == \
        coinv.coinvariant_dim(t).span_dim


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       p=st.sampled_from([5, 7, 13]), length=st.integers(2, 4),
       scalar=st.booleans())
def test_tangent_rank_matches_the_conjugate_formula(seed, n, p, length,
                                                    scalar):
    F = ff.field_create(p)
    t = oracles.random_sl_tuple(F, n, length, random.Random(seed))
    if scalar:
        # product zeta I for a nontrivial n-th root of unity zeta: -I in
        # SL2, and 2I or 3I in SL3 over F7 or F13
        zeta = next((z for z in range(2, p) if pow(z, n, p) == 1), None)
        assume(zeta is not None)
        gens = list(t.generators)
        gens[-1] = gens[-1] @ oracles.diagonal(F, [zeta] * n)
        t = oracles.tuple_from_matrices(gens)
        assert t.product() == oracles.diagonal(F, [zeta] * n)
    assert rigidity.tangent_product_rank(t) == \
        oracles.tangent_rank_conjugates(t)


def test_tangent_rank_takes_no_inverse_on_a_lifted_tuple(monkeypatch):
    """Once the prefix Ad matrices are cached, as cocycle_spaces leaves
    them, df takes no inverse of its own."""
    t = matgrp.load_tuple(str(TUPLES / "sl3_f7_scalar.json"))
    lifted = rigidity.central_lift(t)
    assert lifted.length == t.length + 1
    rigidity.cocycle_spaces(lifted)
    calls = []
    inverse = ff.Matrix.inverse
    monkeypatch.setattr(ff.Matrix, "inverse",
                        lambda m: calls.append(m) or inverse(m))
    assert rigidity.tangent_product_rank(lifted) == 8
    assert calls == []


def test_verdict_walks_each_projective_order_once(monkeypatch):
    """One division per generator, from its declared order and the power
    g^a that loading kept; the element order takes the scalar the division
    ended on and makes no product.  The central lift's scalar has
    projective order 1 and is its own power."""
    t = matgrp.load_tuple(str(TUPLES / "sl3_f7_scalar.json"))
    calls = []
    orders = []
    products = []
    projective_order = matgrp.projective_order
    element_order = matgrp.element_order
    matmul = ff.Matrix.__matmul__

    def counted(g, multiple, power):
        calls.append((g, multiple, power))
        return projective_order(g, multiple, power)

    def recorded(g, po, power):
        orders.append((g, po, power))
        before = len(products)
        result = element_order(g, po, power)
        assert len(products) == before, "element_order took a product"
        return result

    for module in (matgrp, rigidity):
        monkeypatch.setattr(module, "projective_order", counted)
    for module in (matgrp, rigidity, adjoint):
        monkeypatch.setattr(module, "element_order", recorded)
    monkeypatch.setattr(ff.Matrix, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    report = rigidity.rigidity_verdict(t)
    assert report.lifted_order == 3
    assert [c[:2] for c in calls] == list(zip(t.generators,
                                             t.declared_orders))
    assert all(c[2] is kept for c, kept in zip(calls, t.powers()))
    found = [projective_order(g, a, g ** a)
             for g, a in zip(t.generators, t.declared_orders)]
    extra = t.product().inverse()
    assert orders == [*((g, po, power)
                        for g, (po, power) in zip(t.generators, found)),
                      (extra, 1, extra)]


def test_verdict_orders_take_few_products(monkeypatch):
    """The orders of one verdict on sl3_f9 (declared orders 91, 80, 91)
    come from dividing primes out of the declared orders, starting from
    the powers g^a that loading kept: 9 + 10 + 9 = 28 products (g^13 and
    g^7; g^40 and g^16), where validating the first division's multiple
    again and taking g^po for the element order took 64, and walking each
    generator's powers twice took 2 (90 + 79 + 90) = 518."""
    t = matgrp.load_tuple(str(TUPLES / "sl3_f9.json"))
    products = [0]
    inside = [0]
    matmul = ff.Matrix.__matmul__

    def counted(a, b):
        products[0] += inside[0] > 0
        return matmul(a, b)

    def spent(order):
        def wrapped(*args):
            inside[0] += 1
            try:
                return order(*args)
            finally:
                inside[0] -= 1
        return wrapped

    monkeypatch.setattr(ff.Matrix, "__matmul__", counted)
    monkeypatch.setattr(ff.Matrix, "__mul__", counted)
    monkeypatch.setattr(rigidity, "projective_order",
                        spent(matgrp.projective_order))
    for module in (rigidity, adjoint):
        monkeypatch.setattr(module, "element_order",
                            spent(matgrp.element_order))
    report = rigidity.rigidity_verdict(t)
    assert report.flags == ("small characteristic p = 3 <= n = 3: "
                            "centralizer smoothness assumed",)
    assert 0 < products[0] <= 28


@pytest.mark.parametrize("name", ["sl3_f7_scalar", "sl3_f9", "sl4_f3"])
def test_verdict_forms_each_displacement_once(monkeypatch, name):
    """Each I - Ad(c) of the lifted tuple is formed once per verdict, in
    Ad(c)'s cache entry, and read by the class dimension, the coinvariant
    span and the coboundary stack (formed three times before)."""
    t = matgrp.load_tuple(str(TUPLES / f"{name}.json"))
    rep = adjoint.adjoint_rep(t.field, t.n)
    rep._ad.cache_clear()
    built = []
    form = adjoint._AdEntry.__dict__["displacement"]
    original = form.func
    monkeypatch.setattr(form, "func",
                        lambda entry: built.append(entry) or original(entry))
    # every subtraction with an identity side, I - Ad(c) or Ad(c) - I,
    # outside the tangent blocks Ad(P_i) - Ad(P_(i+1)), where P_0 = I
    displacements = [0]
    in_tangent = [False]
    sub = ff.Matrix.__sub__
    tangent = rigidity.tangent_product_rank

    def counted(a, b):
        if not in_tangent[0]:
            displacements[0] += a.is_identity() or b.is_identity()
        return sub(a, b)

    def blocks(lifted):
        in_tangent[0] = True
        try:
            return tangent(lifted)
        finally:
            in_tangent[0] = False

    monkeypatch.setattr(ff.Matrix, "__sub__", counted)
    monkeypatch.setattr(rigidity, "tangent_product_rank", blocks)
    report = rigidity.rigidity_verdict(t)
    lifted = rigidity.central_lift(t)
    distinct = {g.vals for g in lifted.generators}
    assert len(built) == len(distinct) == displacements[0]
    assert {e.ad.vals for e in built} == {rep.ad_matrix(g).vals
                                          for g in lifted.generators}
    # a second verdict reads the cached displacements
    assert report == rigidity.rigidity_verdict(t)
    assert len(built) == len(distinct)


def test_verdict_folds_the_prefixes_once(monkeypatch):
    """Loading folds the tuple's prefixes once; the lift extends them by
    the identity, so the verdict folds nothing more (the prefixes were
    folded five times per verdict before they were kept)."""
    folds = []
    fold = matgrp.GroupTuple.__dict__["_prefixes"]
    original = fold.func
    monkeypatch.setattr(fold, "func",
                        lambda t: folds.append(t) or original(t))
    t = matgrp.load_tuple(str(TUPLES / "sl3_f7_scalar.json"))
    report = rigidity.rigidity_verdict(t)
    assert report.lifted_order == 3
    assert folds == [t]
    # the extended prefixes are the lifted tuple's own
    lifted = rigidity.central_lift(t)
    fresh = matgrp.GroupTuple(lifted.field, lifted.n, lifted.generators,
                              lifted.declared_orders)
    assert lifted.prefixes() == fresh.prefixes()
    assert lifted.product().is_identity()


def test_relator_matrix_matches_linear_sum_relator():
    F = ff.field_create(7)
    t = oracles.random_sl_tuple(F, 2, 3, random.Random(22))
    orders = t.declared_orders
    for j in range(1, 41):
        tj = matgrp.group_tuple(t.generators, (j * orders[0], *orders[1:]))
        assert rigidity.cocycle_spaces(tj).relator_matrix == \
            oracles.relator_linear(tj)
    # product 2 I: the central lift adds a generator and a power relator
    lifted = matgrp.load_tuple(str(TUPLES / "sl3_f7_scalar.json"))
    relator = rigidity.cocycle_spaces(lifted).relator_matrix
    assert relator.cols == 4 * 8
    assert relator == oracles.relator_linear(lifted)


# ---------------------------------------------------------------------------
# central lift
# ---------------------------------------------------------------------------

def test_central_lift_appends_the_inverse_scalar():
    F = ff.field_create(5)
    a = oracles.random_sl_matrix(F, 2, random.Random(14))
    b = a.inverse() @ oracles.diagonal(F, [4, 4])
    orders = [oracles.order_by_walk(m, projective=True) for m in (a, b)]
    t = matgrp.group_tuple((a, b), orders)
    lifted = rigidity.central_lift(t)
    assert lifted.length == 3
    assert lifted.product().is_identity()
    assert lifted.generators[-1].is_scalar()
    # a tuple whose product is already the identity is left alone
    clean = oracles.random_sl_tuple(F, 2, 3, random.Random(15))
    assert rigidity.central_lift(clean) is clean


def test_scalar_product_tuple_matches_manual_extension():
    F = ff.field_create(5)
    a = oracles.random_sl_matrix(F, 2, random.Random(16))
    b = a.inverse() @ oracles.diagonal(F, [4, 4])
    orders = [oracles.order_by_walk(m, projective=True) for m in (a, b)]
    t = matgrp.group_tuple((a, b), orders)
    manual = oracles.tuple_from_matrices([a, b, oracles.diagonal(F, [4, 4])])
    got = rigidity.rigidity_verdict(t)
    want = rigidity.rigidity_verdict(manual)
    assert got.lifted_order == 2 and want.lifted_order is None
    assert got.span_dim == want.span_dim
    assert got.coinv_dim == want.coinv_dim
    assert got.df_rank == want.df_rank
    assert sum(got.class_dims) == sum(want.class_dims)


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------

def test_rigid_verdict_for_psl27_triple(psl27_triple):
    report = rigidity.rigidity_verdict(psl27_triple)
    assert report.verdict == rigidity.VERDICT_RIGID
    assert report.class_dims == (2, 2, 2)
    assert report.sum_class_dims == 6 == report.two_dim_g
    assert report.coinv_dim == 0
    assert report.span_dim == 3 == report.df_rank
    assert report.irreducible == rigidity.IRREDUCIBLE_VERIFIED
    assert report.h1_dim == 0
    assert report.lifted_order is None


def test_verdict_work_cap_counts_the_trial_divisions(psl27_triple):
    # the declared orders, and q - 1 once per generator and once for the
    # central lift
    t = psl27_triple
    divisions = sum(map(math.isqrt, t.declared_orders)) + 4 * math.isqrt(7)
    report = rigidity.rigidity_verdict(t, work_cap=divisions)
    assert report.verdict == rigidity.VERDICT_RIGID
    with pytest.raises(WorkCapExceeded):
        rigidity.rigidity_verdict(t, work_cap=divisions - 1)


def test_hypothesis_failed_for_reducible_tuple():
    F = ff.field_create(7)
    c = oracles.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (3, 3))
    report = rigidity.rigidity_verdict(t)
    assert report.verdict == rigidity.VERDICT_HYPOTHESIS_FAILED
    assert report.irreducible == rigidity.IRREDUCIBLE_FAILED
    assert report.coinv_dim == 1


def test_hypothesis_failed_for_identity_padding():
    F = ff.field_create(5)
    eye = ff.Matrix.identity(F, 2)
    t = matgrp.group_tuple([eye, eye, eye], [1, 1, 1])
    report = rigidity.rigidity_verdict(t)
    assert report.verdict == rigidity.VERDICT_HYPOTHESIS_FAILED


@properties
@given(data=st.data())
def test_report_is_conjugation_invariant(data):
    F = ff.field_create(5)
    t = data.draw(oracles.sl_tuples(F, 2, 3))
    h = data.draw(oracles.sl_matrices(F, 2))
    conj = matgrp.group_tuple([h @ g @ h.inverse() for g in t.generators],
                              t.declared_orders)
    assert rigidity.rigidity_verdict(t) == rigidity.rigidity_verdict(conj)


def test_declared_order_mismatch_is_flagged_not_fatal():
    F = ff.field_create(7)
    c = oracles.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (6, 3))
    report = rigidity.rigidity_verdict(t)
    assert any("declared order" in f for f in report.flags)


def test_irreducibility_modes(psl27_triple):
    asserted = rigidity.rigidity_verdict(psl27_triple, irreducibility="assert")
    assert asserted.irreducible == rigidity.IRREDUCIBLE_ASSERTED
    assert asserted.verdict == rigidity.VERDICT_RIGID
    with pytest.raises(InputError):
        rigidity.rigidity_verdict(psl27_triple, irreducibility="maybe")


@properties
@given(q=st.sampled_from([4, 5, 7, 9]), data=st.data())
def test_h1_dim_nonnegative_across_random_tuples(q, data):
    t = data.draw(oracles.sl_tuples(_field(q), 2, 3))
    report = rigidity.rigidity_verdict(t)
    assert report.h1_dim >= 0
    assert report.sum_class_dims == report.df_rank + report.b1_dim \
        + report.h1_dim


def test_report_to_json_is_plain_data(psl27_triple):
    doc = rigidity.rigidity_verdict(psl27_triple).to_json()
    assert doc["verdict"] == "RIGID"
    assert doc["class_dims"] == [2, 2, 2]
    assert isinstance(doc["flags"], list)
    assert doc["schema"] == 1


# ---------------------------------------------------------------------------
# Weil's formula
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       p=st.sampled_from([5, 7, 13]), scalar=st.booleans())
def test_weil_formula_when_p_divides_no_declared_order(seed, n, p, scalar):
    F = ff.field_create(p)
    t = oracles.random_sl_tuple(F, n, 3, random.Random(seed))
    gens = list(t.generators)
    if scalar:
        # product zeta I for a nontrivial n-th root of unity zeta
        zeta = next((z for z in range(2, p) if pow(z, n, p) == 1), None)
        assume(zeta is not None)
        gens[-1] = gens[-1] @ oracles.diagonal(F, [zeta] * n)
    t = oracles.tuple_from_matrices(gens)
    assume(all(a % p for a in rigidity.central_lift(t).declared_orders))
    report = rigidity.rigidity_verdict(t)
    assert report.h1_dim == report.z1_dim - report.b1_dim


def zero_norm(rep, g, a):
    return ff.Matrix.zero(rep.field, rep.dim, rep.dim)


def test_corrupted_norm_fails_the_weil_check(monkeypatch, capsys):
    path = str(TUPLES / "sl3_f5.json")  # p = 5, declared orders 31
    assert cli.main(["rigidity", "--in", path]) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(adjoint.AdjointRep, "norm", zero_norm)
    assert cli.main(["rigidity", "--in", path]) == cli.EXIT_INVARIANT
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "invariant" and "Weil" in error["message"]


def test_invariant_failure_carries_a_repro(monkeypatch, capsys, tmp_path):
    """The exit-4 record holds the input tuple in wire format; rigidity
    --in on it fails the same way, and succeeds once the fault is gone."""
    path = str(TUPLES / "sl3_f5.json")
    monkeypatch.setattr(adjoint.AdjointRep, "norm", zero_norm)
    assert cli.main(["rigidity", "--in", path]) == cli.EXIT_INVARIANT
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["repro"] == matgrp.tuple_to_json(matgrp.load_tuple(path))
    repro = tmp_path / "repro.json"
    repro.write_text(json.dumps(error["repro"]), encoding="utf-8")
    assert cli.main(["rigidity", "--in", str(repro)]) == cli.EXIT_INVARIANT
    again = json.loads(capsys.readouterr().err)["error"]
    assert again["message"] == error["message"]
    monkeypatch.undo()
    assert cli.main(["rigidity", "--in", str(repro)]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        TUPLES.parent / "rigidity_sl3_f5.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# b1 against the displacement span and Schur's lemma
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), case=st.sampled_from([(2, 2, 1), (2, 2, 2), (2, 3, 1),
                                             (2, 5, 1), (3, 3, 1), (3, 2, 2),
                                             (3, 5, 1)]))
def test_b1_matches_span_and_schur(data, case):
    n, p, k = case
    t = data.draw(oracles.sl_tuples(ff.field_create(p, k), n, 3))
    report = rigidity.rigidity_verdict(t)
    if n % p:
        assert report.b1_dim == report.span_dim
    if report.irreducible == rigidity.IRREDUCIBLE_VERIFIED:
        assert report.b1_dim == n * n - 1 - (n % p == 0)


def _b1_plus_one(monkeypatch):
    cocycle_spaces = rigidity.cocycle_spaces

    def inflated(t):
        spaces = cocycle_spaces(t)
        return rigidity.CocycleSpaces(spaces.z1_dim, spaces.b1_dim + 1,
                                      spaces.relator_matrix)

    monkeypatch.setattr(rigidity, "cocycle_spaces", inflated)


def test_inflated_b1_fails_the_span_check(monkeypatch):
    # p = 5 does not divide n = 3; asserting irreducibility leaves the
    # span check as the only one that can fire
    t = matgrp.load_tuple(str(TUPLES / "sl3_f5.json"))
    _b1_plus_one(monkeypatch)
    with pytest.raises(InvariantViolation, match="displacement span"):
        rigidity.rigidity_verdict(t, irreducibility="assert")


def test_inflated_b1_fails_the_schur_check(monkeypatch, capsys):
    # p = 3 divides n = 3 and the tuple is verified irreducible
    path = str(TUPLES / "sl3_f9.json")
    _b1_plus_one(monkeypatch)
    assert cli.main(["rigidity", "--in", path]) == cli.EXIT_INVARIANT
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "invariant" and "Schur" in error["message"]
