"""Acceptance gate: the eight end-to-end checks, one test per criterion.

Each test prints one summary line; `pytest -v` therefore shows a per-criterion
pass/fail listing.  All checks are exact (zero tolerance); the timed ones
assert their stated budget.
"""

import random
import time

import pytest

import oracles
from rigiditylab import adjoint, census, coinv, ff, matgrp, rigidity, rootdata


def make_field(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q > 1:
        q //= p
        k += 1
    return ff.field_create(p, k)


def psl_table(q, n=2):
    F = make_field(q)
    a, b = matgrp.generating_pair(F, n).generators
    return matgrp.group_closure([a, b], cap=10 ** 7, projective=True)


def criterion(number, message):
    print(f"criterion {number}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. tangent product rank equals coinvariant span, 600 random tuples
# ---------------------------------------------------------------------------

def test_criterion_1_tangent_rank_equals_span():
    start = time.monotonic()
    rng = random.Random(20260814)
    checked = 0
    for q in (4, 5, 7, 9, 13):
        F = make_field(q)
        for _ in range(100):
            t = matgrp.random_sl_tuple(F, 2, rng.randrange(2, 5), rng)
            assert rigidity.tangent_product_rank(t) == \
                coinv.coinvariant_dim(t).span_dim
            checked += 1
    for q in (2, 3, 4, 5, 7):
        F = make_field(q)
        for _ in range(20):
            t = matgrp.random_sl_tuple(F, 3, rng.randrange(2, 4), rng)
            assert rigidity.tangent_product_rank(t) == \
                coinv.coinvariant_dim(t).span_dim
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 600
    assert elapsed < 60.0
    criterion(1, f"600 tuples, rank == span every time, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. span depends only on the generated subgroup; word oracle agrees
# ---------------------------------------------------------------------------

def test_criterion_2_word_append_invariance_and_oracle():
    start = time.monotonic()
    rng = random.Random(97)
    qs = (4, 5, 7, 9)
    checked = 0
    while checked < 200:
        q = qs[checked % len(qs)]
        F = make_field(q)
        # length 2 would mean (g, g^-1), which is cyclic and never generates
        t = matgrp.random_sl_tuple(F, 2, 3 + checked % 2, rng)
        closure = matgrp.group_closure(list(t.generators), cap=10 ** 6)
        if closure.size != matgrp.sl_order(q, 2):
            continue  # redraw: the criterion is about generating tuples
        base = coinv.coinvariant_dim(t)
        word = ff.Matrix.identity(F, 2)
        for _ in range(rng.randrange(1, 7)):
            word = word @ t.generators[rng.randrange(t.length)]
        appended = matgrp.GroupTuple(
            field=t.field, n=t.n,
            generators=t.generators + (word,),
            declared_orders=t.declared_orders + (matgrp.projective_order(word),))
        assert coinv.coinvariant_dim(appended).span_dim == base.span_dim
        assert oracles.coinvariant_dim_via_words(t, 4).coinv_dim == base.coinv_dim
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    criterion(2, f"200 generating tuples, span stable under appends, "
                 f"word oracle agrees, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. census-produced (2,3,7) triple in PSL2(7) is rigid
# ---------------------------------------------------------------------------

def test_criterion_3_rigid_triple_end_to_end():
    table = psl_table(7)
    result = census.census(table, (2, 3, 7), epi_test=True, workers=1)
    entry = next(e for e in result.entries if e.witness_is_epi)
    t = matgrp.tuple_from_matrices(list(entry.witness))
    report = rigidity.rigidity_verdict(t)
    assert report.verdict == rigidity.VERDICT_RIGID
    assert report.class_dims == (2, 2, 2)
    assert report.coinv_dim == 0
    assert report.h1_dim == 0
    criterion(3, "census witness -> RIGID, class_dims (2,2,2), "
                 "coinv_dim 0, h1_dim 0")


# ---------------------------------------------------------------------------
# 4. dimension inequality across every census witness passing the hypotheses
# ---------------------------------------------------------------------------

def test_criterion_4_inequality_across_census_tuples():
    jobs = [(4, (2, 3, 5)), (5, (2, 3, 5)), (5, (2, 5, 5)), (7, (2, 3, 7)),
            (7, (3, 3, 4)), (8, (2, 3, 7)), (9, (2, 3, 5)), (13, (2, 3, 7))]
    satisfying = 0
    caveat_deficits = 0
    for q, signature in jobs:
        table = psl_table(q)
        result = census.census(table, signature, epi_test=True, workers=2)
        for entry in result.entries:
            t = matgrp.tuple_from_matrices(list(entry.witness))
            # rigidity_verdict raises InvariantViolation (the exit-4 path)
            # whenever a deficit appears with trustworthy class dimensions;
            # merely calling it on every witness is the exit-4 check
            report = rigidity.rigidity_verdict(t)
            if report.coinv_dim != 0 or \
                    report.irreducible != rigidity.IRREDUCIBLE_VERIFIED:
                continue
            if report.sum_class_dims >= report.two_dim_g:
                satisfying += 1
            else:
                # class_dim is only a lower bound when a generator is
                # non-semisimple or the characteristic is small; such a
                # deficit must carry the caveat flags and be downgraded,
                # never silently accepted or raised as a violation
                assert report.flags
                assert any("fell below twice the group dimension" in f
                           for f in report.flags)
                assert report.verdict == rigidity.VERDICT_HYPOTHESIS_FAILED
                caveat_deficits += 1
    assert satisfying >= 10
    criterion(4, f"{satisfying} hypothesis-passing witnesses satisfy the "
                 f"bound, {caveat_deficits} flagged lower-bound deficits "
                 "downgraded, zero unflagged exceptions")


# ---------------------------------------------------------------------------
# 5. j_d values and their matrix realizations
# ---------------------------------------------------------------------------

def test_criterion_5_j_values_and_diagonal_realization():
    start = time.monotonic()
    a1 = rootdata.build("A", 1)
    a2 = rootdata.build("A", 2)

    def realized_class_dim(rank, d, witness):
        p = oracles.smallest_prime_1_mod(d)
        F = ff.field_create(p)
        zeta = pow(oracles.multiplicative_generator(p), (p - 1) // d, p)
        diag = [pow(zeta, sum(witness[i:]), p) for i in range(rank + 1)]
        rep = adjoint.adjoint_rep(F, rank + 1)
        return rep.class_dim(ff.Matrix.diagonal(F, diag))

    for d in range(2, 101):
        entry = rootdata.j_scan(a1, d)
        assert entry.j == 2
        assert realized_class_dim(1, d, entry.witness) == 2
    for d, expected in ((2, 4), (3, 6)):
        entry = rootdata.j_scan(a2, d)
        assert entry.j == expected
        assert realized_class_dim(2, d, entry.witness) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    criterion(5, f"A1 j_d = 2 for d in 2..100, A2 j_2 = 4 and j_3 = 6, "
                 f"all witnesses realized, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Hurwitz counts for T(2,3,7)
# ---------------------------------------------------------------------------

def test_criterion_6_hurwitz_counts_pinned():
    start = time.monotonic()
    expected = {7: (337, 336), 8: (1513, 1512), 9: (1, 0),
                11: (1, 0), 13: (6553, 6552)}
    for q, (hom, epi) in expected.items():
        result = census.census(psl_table(q), (2, 3, 7), epi_test=True,
                               workers=4)
        assert (result.total_hom, result.total_epi) == (hom, epi), q
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    criterion(6, f"total_epi 336/1512/6552 for q = 7/8/13 and 0 for "
                 f"q = 11/9, {elapsed:.1f}s with 4 workers")


# ---------------------------------------------------------------------------
# 7. invariance under scalar extension
# ---------------------------------------------------------------------------

def test_criterion_7_field_extension_invariance():
    rng = random.Random(777)
    cases = [(2, q) for q in (4, 5, 7, 9, 13) for _ in range(16)] \
        + [(3, q) for q in (2, 3) for _ in range(10)]
    assert len(cases) == 100
    for n, q in cases:
        F = make_field(q)
        big = ff.field_create(F.p, 2 * F.k)
        t = matgrp.random_sl_tuple(F, n, rng.randrange(2, 4), rng)
        lifted = matgrp.group_tuple([oracles.embed_matrix(g, big)
                                     for g in t.generators], t.declared_orders)
        rep, rep_big = adjoint.adjoint_rep(F, n), adjoint.adjoint_rep(big, n)
        assert coinv.coinvariant_dim(t).coinv_dim == \
            coinv.coinvariant_dim(lifted).coinv_dim
        for g, h in zip(t.generators, lifted.generators):
            assert rep.class_dim(g) == rep_big.class_dim(h)
        assert rigidity.cocycle_spaces(t).z1_dim == \
            rigidity.cocycle_spaces(lifted).z1_dim
    criterion(7, "coinv_dim, class_dim and z1_dim stable under F_q -> F_q^2 "
                 "for 100 tuples")


# ---------------------------------------------------------------------------
# 8. group orders from breadth-first closure
# ---------------------------------------------------------------------------

def test_criterion_8_sl2_closure_orders():
    for q in (4, 5, 7, 8, 9, 11, 13):
        F = make_field(q)
        a, b = matgrp.generating_pair(F, 2).generators
        table = matgrp.group_closure([a, b], cap=10 ** 7)
        assert table.size == q * (q * q - 1), q
    criterion(8, "closure sizes match q(q^2 - 1) for q in 4..13")
