"""Coinvariant span of a tuple and the word-closure cross-check."""

import random

import pytest

import oracles
from rigiditylab.errors import WorkCapExceeded
from rigiditylab import adjoint, coinv, ff, matgrp


def identity_tuple(F, n, length=2):
    eye = ff.Matrix.identity(F, n)
    return matgrp.group_tuple([eye] * length, [1] * length)


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n", [(5, 2), (7, 2), (5, 3)])
def test_identity_tuple_has_full_coinvariants(q, n):
    F = ff.field_create(q)
    res = coinv.coinvariant_dim(identity_tuple(F, n))
    assert res.span_dim == 0
    assert res.coinv_dim == n * n - 1
    assert res.basis_witness == ()


def test_single_torus_element_spans_its_class():
    F = ff.field_create(7)
    c = ff.Matrix.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (3, 3))
    res = coinv.coinvariant_dim(t)
    assert res.span_dim == 2
    assert res.coinv_dim == 1


@pytest.mark.parametrize("q", [4, 5, 7])
def test_full_sl2_tuple_has_zero_coinvariants(q):
    p = 2 if q in (4, 8) else q
    k = {4: 2, 8: 3}.get(q, 1)
    F = ff.field_create(p, k)
    a, b = matgrp.generating_pair(F, 2).generators
    t = matgrp.tuple_from_matrices([a, b, (a @ b).inverse()])
    res = coinv.coinvariant_dim(t)
    assert res.span_dim == 3
    assert res.coinv_dim == 0


def test_basis_witness_spans_the_span():
    F = ff.field_create(5)
    rng = random.Random(3)
    rep = adjoint.adjoint_rep(F, 2)
    for _ in range(10):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        res = coinv.coinvariant_dim(t)
        assert len(res.basis_witness) == res.span_dim
        if res.basis_witness:
            coords = [rep.coords(m) for m in res.basis_witness]
            assert ff.rank_of_rows(F, coords) == res.span_dim
        for m in res.basis_witness:
            assert m.trace().is_zero()


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_span_depends_only_on_the_generated_subgroup():
    F = ff.field_create(5)
    rng = random.Random(7)
    for _ in range(10):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        base = coinv.coinvariant_dim(t).span_dim
        # append a word in the generators: raw tuple, span may not change
        w = t.generators[0] @ t.generators[1] @ t.generators[0]
        extended = matgrp.GroupTuple(
            field=t.field, n=t.n,
            generators=t.generators + (w,),
            declared_orders=t.declared_orders + (matgrp.projective_order(w),))
        assert coinv.coinvariant_dim(extended).span_dim == base
        # validated variant: append w and its inverse
        both = matgrp.tuple_from_matrices(list(t.generators) + [w, w.inverse()])
        assert coinv.coinvariant_dim(both).span_dim == base


def test_span_monotone_in_generators():
    F = ff.field_create(7)
    rng = random.Random(9)
    for _ in range(10):
        t = matgrp.random_sl_tuple(F, 2, 4, rng)
        sub = matgrp.GroupTuple(field=t.field, n=t.n,
                                generators=t.generators[:2],
                                declared_orders=t.declared_orders[:2])
        assert coinv.coinvariant_dim(sub).span_dim <= \
            coinv.coinvariant_dim(t).span_dim


def test_span_invariant_under_conjugation():
    F = ff.field_create(3, 2)
    rng = random.Random(15)
    for _ in range(8):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        h = matgrp.random_sl_matrix(F, 2, rng)
        conj = matgrp.tuple_from_matrices([h @ g @ h.inverse()
                                           for g in t.generators])
        assert coinv.coinvariant_dim(conj).span_dim == \
            coinv.coinvariant_dim(t).span_dim


def test_span_invariant_under_field_extension():
    F = ff.field_create(5)
    big = ff.field_create(5, 2)
    rng = random.Random(19)
    for _ in range(8):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        lifted = matgrp.group_tuple(
            [oracles.embed_matrix(g, big) for g in t.generators], t.declared_orders)
        a, b = coinv.coinvariant_dim(t), coinv.coinvariant_dim(lifted)
        assert (a.span_dim, a.coinv_dim) == (b.span_dim, b.coinv_dim)


# ---------------------------------------------------------------------------
# word-closure oracle
# ---------------------------------------------------------------------------

def test_words_of_length_one_recover_the_plain_span():
    F = ff.field_create(5)
    rng = random.Random(23)
    for _ in range(10):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        assert oracles.coinvariant_dim_via_words(t, 1).span_dim == \
            coinv.coinvariant_dim(t).span_dim


@pytest.mark.parametrize("q", [4, 5, 7])
def test_longer_words_never_change_the_answer(q):
    p = 2 if q == 4 else q
    k = 2 if q == 4 else 1
    F = ff.field_create(p, k)
    rng = random.Random(q)
    for _ in range(8):
        t = matgrp.random_sl_tuple(F, 2, 3, rng)
        base = coinv.coinvariant_dim(t)
        for length in (2, 4):
            via = oracles.coinvariant_dim_via_words(t, length)
            assert via.span_dim == base.span_dim
            assert via.coinv_dim == base.coinv_dim


def test_cyclic_tuple_word_closure():
    F = ff.field_create(7)
    c = ff.Matrix.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (3, 3))
    assert oracles.coinvariant_dim_via_words(t, 6).span_dim == 2


def test_word_cap_enforced():
    F = ff.field_create(5)
    t = matgrp.random_sl_tuple(F, 2, 3, random.Random(2))
    with pytest.raises(WorkCapExceeded):
        oracles.coinvariant_dim_via_words(t, 10, word_cap=5)
