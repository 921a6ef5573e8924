"""Cocycle spaces, tangent product rank, and the rigidity verdict."""

import json
import pathlib
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError
from rigiditylab import adjoint, cli, coinv, ff, matgrp, rigidity

TUPLES = pathlib.Path(__file__).with_name("golden") / "tuples"


@pytest.fixture(scope="module")
def psl27_triple():
    """A (2, 3, 7) generating triple of PSL2(7), found deterministically."""
    F = ff.field_create(7)
    a, b = matgrp.generating_pair(F, 2).generators
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
            gens = [table.mats[i], table.mats[j], table.mats[k]]
            if oracles.subgroup_generated(table, (i, j, k)) == table.size:
                prod = gens[0] @ gens[1] @ gens[2]
                if prod.is_identity():
                    return matgrp.tuple_from_matrices(gens)
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
    assert (cs.z1_dim, cs.b1_dim, cs.h1_dim) == (0, 0, 0)
    # order 7 vanishes mod 7: power relations are vacuous and only the
    # product relation cuts the space down
    modular = matgrp.group_tuple([eye, eye], [7, 7])
    cs = rigidity.cocycle_spaces(modular)
    assert (cs.z1_dim, cs.b1_dim, cs.h1_dim) == (3, 0, 3)


def test_psl27_triple_cocycle_dimensions_pinned(psl27_triple):
    cs = rigidity.cocycle_spaces(psl27_triple)
    assert (cs.z1_dim, cs.b1_dim, cs.h1_dim) == (4, 3, 1)


def test_z1_matches_independent_rank_computation():
    rng = random.Random(3)
    for q in (5, 7, 13):
        F = ff.field_create(q)
        for _ in range(6):
            t = matgrp.random_sl_tuple(F, 2, 3, rng)
            cs = rigidity.cocycle_spaces(t)
            grid = cs.relator_matrix.row_values()
            cols = cs.relator_matrix.cols
            assert cs.z1_dim == cols - oracles.rank_mod_p(grid, q)


def test_b1_is_the_whole_tuple_coboundary_rank():
    F = ff.field_create(5)
    rep = adjoint.adjoint_rep(F, 2)
    rng = random.Random(5)
    for _ in range(10):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        cs = rigidity.cocycle_spaces(t)
        eye = ff.Matrix.identity(F, rep.dim)
        stacked = []
        for g in t.generators:
            ad = rep.ad_matrix(g)
            stacked += [[F.sub(ad[i, j].value, int(i == j))
                         for j in range(rep.dim)] for i in range(rep.dim)]
        # rank of the stacked (Ad - 1) blocks, transposed into one map
        cols = [[row[j] for row in stacked] for j in range(rep.dim)]
        assert cs.b1_dim == ff.rank_of_rows(F, cols)


def test_cocycles_contain_coboundaries(psl27_triple):
    rng = random.Random(8)
    F = ff.field_create(5)
    tuples = [psl27_triple] + [matgrp.random_sl_tuple(F, 2, 3, rng)
                               for _ in range(10)]
    for t in tuples:
        cs = rigidity.cocycle_spaces(t)
        assert 0 <= cs.b1_dim <= cs.z1_dim
        assert cs.h1_dim == cs.z1_dim - cs.b1_dim


# ---------------------------------------------------------------------------
# tangent product rank
# ---------------------------------------------------------------------------

def test_tangent_rank_of_trivial_and_cyclic_tuples():
    F = ff.field_create(7)
    eye = ff.Matrix.identity(F, 2)
    t = matgrp.group_tuple([eye, eye], [1, 1])
    assert rigidity.tangent_product_rank(t) == 0
    c = ff.Matrix.diagonal(F, [3, 5])
    pair = matgrp.group_tuple((c, c.inverse()), (3, 3))
    assert rigidity.tangent_product_rank(pair) == 2


def test_tangent_rank_equals_span_dim():
    rng = random.Random(12)
    for q, n in [(4, 2), (5, 2), (7, 2), (9, 2), (13, 2), (2, 3), (5, 3)]:
        p = {4: 2, 9: 3}.get(q, q)
        k = {4: 2, 9: 2}.get(q, 1)
        F = ff.field_create(p, k)
        for _ in range(8):
            t = matgrp.random_sl_tuple(F, n, rng.randrange(2, 5), rng)
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
    t = matgrp.random_sl_tuple(F, n, length, random.Random(seed))
    if scalar:
        # product zeta I for a nontrivial n-th root of unity zeta: -I in
        # SL2, and 2I or 3I in SL3 over F7 or F13
        zeta = next((z for z in range(2, p) if pow(z, n, p) == 1), None)
        assume(zeta is not None)
        gens = list(t.generators)
        gens[-1] = gens[-1] @ ff.Matrix.diagonal(F, [zeta] * n)
        t = matgrp.tuple_from_matrices(gens)
        assert t.product() == ff.Matrix.diagonal(F, [zeta] * n)
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
    t = matgrp.load_tuple(str(TUPLES / "sl3_f7_scalar.json"))
    calls = []
    walk = matgrp.projective_order

    def counted(g):
        calls.append(g)
        return walk(g)

    monkeypatch.setattr(matgrp, "projective_order", counted)
    monkeypatch.setattr(rigidity, "projective_order", counted)
    report = rigidity.rigidity_verdict(t)
    assert report.lifted_order == 3
    assert calls == list(t.generators)


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


def test_doubled_norm_matches_linear_sum():
    rng = random.Random(21)
    for (p, k), d in [((5, 1), 8), ((7, 1), 3), ((3, 2), 3), ((2, 2), 3)]:
        F = ff.field_create(p, k)
        ad = ff.Matrix.from_values(F, d, d,
                                   [rng.randrange(F.q) for _ in range(d * d)])
        for a in range(1, 41):
            assert rigidity._norm(ad, a) == oracles.norm_linear(ad, a)


def test_doubled_norm_computes_no_unused_product(monkeypatch):
    """Doubling needs two products per bit after the leading one, one
    more per set bit, and none to advance the power past the last bit."""
    calls = [0]
    matmul = ff.Matrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(ff.Matrix, "__matmul__", counted)
    F = ff.field_create(5)
    ad = ff.Matrix.from_rows(F, [[1, 2, 0], [3, 0, 4], [0, 1, 1]])
    for a in range(2, 41):
        calls[0] = 0
        rigidity._norm(ad, a)
        bound = 2 * (a.bit_length() - 1) + bin(a).count("1") - 2
        assert calls[0] <= bound, a


def test_relator_matrix_matches_linear_sum_relator():
    F = ff.field_create(7)
    t = matgrp.random_sl_tuple(F, 2, 3, random.Random(22))
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
    a = matgrp.random_sl_matrix(F, 2, random.Random(14))
    b = a.inverse() @ ff.Matrix.diagonal(F, [4, 4])
    t = matgrp.group_tuple((a, b), (matgrp.projective_order(a),
                                    matgrp.projective_order(b)))
    lifted = rigidity.central_lift(t)
    assert lifted.length == 3
    assert lifted.product().is_identity()
    assert lifted.generators[-1].is_scalar()
    # a tuple whose product is already the identity is left alone
    clean = matgrp.random_sl_tuple(F, 2, 3, random.Random(15))
    assert rigidity.central_lift(clean) is clean


def test_scalar_product_tuple_matches_manual_extension():
    F = ff.field_create(5)
    a = matgrp.random_sl_matrix(F, 2, random.Random(16))
    b = a.inverse() @ ff.Matrix.diagonal(F, [4, 4])
    t = matgrp.group_tuple((a, b), (matgrp.projective_order(a),
                                    matgrp.projective_order(b)))
    manual = matgrp.tuple_from_matrices([a, b, ff.Matrix.diagonal(F, [4, 4])])
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


def test_hypothesis_failed_for_reducible_tuple():
    F = ff.field_create(7)
    c = ff.Matrix.diagonal(F, [3, 5])
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


def test_report_is_conjugation_invariant():
    F = ff.field_create(5)
    rng = random.Random(18)
    for _ in range(6):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        h = matgrp.random_sl_matrix(F, 2, rng)
        conj = matgrp.group_tuple([h @ g @ h.inverse() for g in t.generators],
                                  t.declared_orders)
        a = rigidity.rigidity_verdict(t)
        b = rigidity.rigidity_verdict(conj)
        assert a == b


def test_declared_order_mismatch_is_flagged_not_fatal():
    F = ff.field_create(7)
    c = ff.Matrix.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (6, 3))
    report = rigidity.rigidity_verdict(t)
    assert any("declared order" in f for f in report.flags)


def test_irreducibility_modes(psl27_triple):
    asserted = rigidity.rigidity_verdict(psl27_triple, irreducibility="assert")
    assert asserted.irreducible == rigidity.IRREDUCIBLE_ASSERTED
    assert asserted.verdict == rigidity.VERDICT_RIGID
    with pytest.raises(InputError):
        rigidity.rigidity_verdict(psl27_triple, irreducibility="maybe")


def test_h1_dim_nonnegative_across_random_tuples():
    rng = random.Random(20)
    for q in (4, 5, 7, 9):
        p = {4: 2, 9: 3}.get(q, q)
        k = {4: 2, 9: 2}.get(q, 1)
        F = ff.field_create(p, k)
        for _ in range(6):
            t = matgrp.random_sl_tuple(F, 2, 3, rng)
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
    t = matgrp.random_sl_tuple(F, n, 3, random.Random(seed))
    gens = list(t.generators)
    if scalar:
        # product zeta I for a nontrivial n-th root of unity zeta
        zeta = next((z for z in range(2, p) if pow(z, n, p) == 1), None)
        assume(zeta is not None)
        gens[-1] = gens[-1] @ ff.Matrix.diagonal(F, [zeta] * n)
    t = matgrp.tuple_from_matrices(gens)
    assume(all(a % p for a in rigidity.central_lift(t).declared_orders))
    report = rigidity.rigidity_verdict(t)
    assert report.h1_dim == report.z1_dim - report.b1_dim


def test_corrupted_norm_fails_the_weil_check(monkeypatch, capsys):
    path = str(TUPLES / "sl3_f5.json")  # p = 5, declared orders 31
    assert cli.main(["rigidity", "--in", path]) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(rigidity, "_norm", lambda ad, a: ff.Matrix.zero(
        ad.field, ad.rows, ad.cols))
    assert cli.main(["rigidity", "--in", path]) == cli.EXIT_INVARIANT
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "invariant" and "Weil" in error["message"]
