"""Matrix groups: orders, closure, irreducibility, tuple wire format."""

import functools
import json
import math
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError, WorkCapExceeded
from rigiditylab import adjoint, ff, matgrp


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
    # by Lagrange, |SL_2(q)| is a multiple of every element order in it
    F7 = field(7)
    F13 = field(13)

    def orders(m):
        order = matgrp.sl_order(m.field.q, 2)
        po, power = matgrp.projective_order(m, order, m ** order)
        assert power == m ** po
        return matgrp.element_order(m, po, power), po

    assert orders(ff.Matrix.identity(F7, 2)) == (1, 1)
    assert orders(ff.Matrix.from_rows(F7, [[0, 1], [-1 % 7, 0]])) == (4, 2)
    assert orders(ff.Matrix.from_rows(F7, [[1, 1], [0, 1]])) == (7, 7)
    assert orders(oracles.diagonal(F7, [6, 6])) == (2, 1)
    # 2 has order 12 in F13*, so diag(2, 2^-1) has projective order 6
    assert orders(oracles.diagonal(F13, [2, 7])) == (12, 6)


# fields F2, F3, F4, F5, F7, F8, F9 and F13 as (p, k)
ORDER_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (13, 1)]
KINDS = ["random", "triangular", "unipotent", "scalar"]


def sample_element(p, k, n, kind, seed):
    """An invertible matrix of the given kind: random of determinant one,
    a scalar, or upper triangular (with a random diagonal, or unipotent)
    conjugated by a random determinant-one matrix."""
    F = ff.field_create(p, k)
    rng = random.Random(seed)
    if kind == "random":
        return oracles.random_sl_matrix(F, n, rng)
    if kind == "scalar":
        return ff.Matrix.identity(F, n).scale(rng.randrange(1, F.q))
    vals = [0] * (n * n)
    for i in range(n):
        vals[i * (n + 1)] = 1 if kind == "unipotent" else rng.randrange(1, F.q)
        for j in range(i + 1, n):
            vals[i * n + j] = rng.randrange(F.q)
    h = oracles.random_sl_matrix(F, n, rng)
    return h @ ff.Matrix(F, n, n, vals) @ h.inverse()


order_cases = given(field_pk=st.sampled_from(ORDER_FIELDS),
                    n=st.sampled_from([2, 3, 4]), kind=st.sampled_from(KINDS),
                    seed=st.integers(0, 2 ** 32 - 1))
order_settings = settings(max_examples=100, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@order_settings
@order_cases
def test_element_order_matches_brute_iteration(field_pk, n, kind, seed):
    m = sample_element(*field_pk, n, kind, seed)
    po = oracles.order_by_walk(m, projective=True)
    eo = oracles.order_by_walk(m)
    # the division ends on the scalar m^po, which the element order takes
    assert matgrp.projective_order(m, eo, m ** eo) == (po, m ** po)
    assert matgrp.element_order(m, po, m ** po) == eo


@order_settings
@order_cases
def test_projective_order_conjugation_invariant(field_pk, n, kind, seed):
    m = sample_element(*field_pk, n, kind, seed)
    h = oracles.random_sl_matrix(m.field, n, random.Random(seed + 1))
    conj = h @ m @ h.inverse()
    po = oracles.order_by_walk(m, projective=True)
    eo = oracles.order_by_walk(m)
    assert matgrp.projective_order(conj, eo, conj ** eo)[0] == po
    assert matgrp.projective_order(conj, 6 * po, conj ** (6 * po))[0] == po
    assert matgrp.element_order(conj, po, conj ** po) == eo


@order_settings
@given(field_pk=st.sampled_from(ORDER_FIELDS), n=st.sampled_from([2, 3, 4]),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(1, 60), r=st.integers(1, 10 ** 6))
def test_projective_order_from_a_multiple(field_pk, n, kind, seed, k, r):
    # any multiple k po gives po back; any other exponent is refused
    m = sample_element(*field_pk, n, kind, seed)
    po = oracles.order_by_walk(m, projective=True)
    assert matgrp.projective_order(m, k * po, m ** (k * po)) == (po, m ** po)
    if po > 1:
        wrong = k * po + r % (po - 1) + 1
        with pytest.raises(InputError, match=f"power {wrong} is not"):
            matgrp.projective_order(m, wrong, m ** wrong)
        with pytest.raises(InputError):
            matgrp.element_order(m, wrong, m ** wrong)


@order_settings
@order_cases
def test_semisimple_exactly_when_p_does_not_divide_the_projective_order(
        field_pk, n, kind, seed):
    m = sample_element(*field_pk, n, kind, seed)
    p = field_pk[0]
    po = oracles.order_by_walk(m, projective=True)
    semisimple = oracles.order_by_walk(m) % p != 0
    assert adjoint.is_semisimple(m, po, m ** po) == semisimple == \
        (po % p != 0)
    if kind == "unipotent" and not m.is_identity():
        assert not semisimple
    if kind == "scalar":
        assert semisimple and po == 1


def test_orders_reject_a_singular_matrix_or_a_bad_multiple():
    F = field(5)
    singular = ff.Matrix.from_rows(F, [[1, 2], [2, 4]])
    for multiple in (1, 4, 24):
        with pytest.raises(InputError, match="singular"):
            matgrp.projective_order(singular, multiple, singular ** multiple)
        with pytest.raises(InputError):
            matgrp.element_order(singular, multiple, singular ** multiple)
    u = ff.Matrix.from_rows(F, [[1, 1], [0, 1]])
    for multiple in (0, -5, True, 2.5):
        with pytest.raises(InputError, match="positive integer"):
            matgrp.projective_order(u, multiple, u)
    # multiple 1 is checked without any power
    with pytest.raises(InputError, match="power 1 is not"):
        matgrp.projective_order(u, 1, u)
    scalar = oracles.diagonal(F, [2, 2])
    assert matgrp.projective_order(scalar, 1, scalar) == (1, scalar)


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
        g = table.matrix(rng.randrange(table.size))
        h = table.matrix(rng.randrange(table.size))
        sub = matgrp.group_closure([g, h], cap=10 ** 6)
        assert table.size % sub.size == 0


def test_closure_of_exactly_cap_elements_returns():
    # the closure raises only on element cap + 1, so a group of exactly
    # cap elements closes, as generating_pair's winner does under its cap
    # of |PSL_n(q)|: the 3-cycle generates a subgroup of order 3, half of
    # SL2(2) = S3
    cycle = ff.Matrix.from_rows(field(2), [[0, 1], [1, 1]])
    half = matgrp.sl_order(2, 2) // 2
    assert oracles.order_by_walk(cycle) == half == 3
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
    index = {oracles.projective_key(table.matrix(i)): i
             for i in range(table.size)}
    assert len(index) == table.size == matgrp.psl_order(5, 2)
    minus_a = a.scale(4)
    assert minus_a != a
    assert table.matrix(index[oracles.projective_key(minus_a)]) == a


def test_conjugacy_classes_partition_the_group():
    F = field(5)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    classes = table.conjugacy_classes()
    flat = [i for cls in classes for i in cls]
    assert sorted(flat) == list(range(table.size))
    assert classes[0] == (0,) and table.matrix(0).is_identity()
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
# the point-permutation closure against the per-product closure
# ---------------------------------------------------------------------------

def _dicyclic_past_the_tables():
    """A dicyclic subgroup of order 32 of SL2(257^2), a field too large for
    log tables, conjugated so that its entries leave F_257."""
    F = field(257 ** 2)
    q = F.q
    assert q > 1 << 16
    alpha = F.element([0, 1])
    # an element of order exactly 16
    beta = next(y for y in (F.pow(F.element([c, 1]), (q - 1) // 16)
                            for c in range(1, 257))
                if F.pow(y, 8) != 1)
    d = ff.Matrix(F, 2, 2, (beta, 0, 0, F.inv(beta)))
    w = ff.Matrix(F, 2, 2, (0, 1, F.neg(1), 0))
    h = ff.Matrix(F, 2, 2, (1, alpha, 0, 1))
    return [h @ d @ h.inverse(), h @ w @ h.inverse()]


def _closure_gens(case):
    if case == "F257^2":
        return _dicyclic_past_the_tables()
    if case == "scalar_F7":
        return [oracles.diagonal(field(7), [3, 3])]  # 3 has order 6 mod 7
    if case == "GL2_F7":
        # determinants 3 and 6, so the group meets the scalars in more than
        # SL2(7) does
        return [ff.Matrix.from_rows(field(7), [[3, 1], [0, 1]]),
                ff.Matrix.from_rows(field(7), [[0, 1], [1, 1]])]
    q, n = {"F13": (13, 2), "F8": (8, 2), "F9": (9, 2), "SL3_F2": (2, 3)}[case]
    return list(matgrp.generating_pair(field(q), n))


def _same_table(table, mats, right):
    return ([table.matrix(i).key() for i in range(table.size)]
            == [m.key() for m in mats] and table.right == right)


@pytest.mark.parametrize("projective", [False, True])
@pytest.mark.parametrize("case", ["F13", "F8", "F9", "SL3_F2", "F257^2",
                                  "scalar_F7", "GL2_F7"])
def test_batched_closure_matches_the_per_product_closure(case, projective):
    # F13 is a prime field, F8 adds by XOR, F9 by Zech logarithms, and
    # F(257^2) multiplies by polynomial arithmetic; the scalar and GL2(7)
    # cases have scalars that only the linear key tells apart
    gens = _closure_gens(case)
    mats, right = oracles.closure_by_products(gens, 10 ** 6, projective)
    table = matgrp.group_closure(gens, cap=10 ** 6, projective=projective)
    assert _same_table(table, mats, right)
    sizes = {"F257^2": (32, 16), "scalar_F7": (6, 1),
             "GL2_F7": (6 * matgrp.sl_order(7, 2), matgrp.sl_order(7, 2))}
    if case in sizes:
        assert table.size == sizes[case][projective]


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("n", [4, 6])
def test_the_signed_cycle_of_an_even_degree_lies_in_sl_n(q, n):
    # a plain n-cycle has determinant (-1)^(n-1) = -1 for even n; the
    # candidate stream flips the sign of one entry to land in SL_n
    cycle = next(matgrp._pair_candidates(field(q), n))[1]
    assert cycle[0, n - 1] == field(q).neg(1)
    assert oracles.leibniz_det(cycle) == 1


def test_a_frame_orbit_past_256_points_is_refused_before_any_element(
        monkeypatch):
    # P^1(F_257) has 258 points, one too many for a byte; each closure is
    # refused in its frame walk, before it makes its element list
    made = []

    class Tracked(matgrp.FiniteGroupTable):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(matgrp, "FiniteGroupTable", Tracked)
    pair = next(matgrp._pair_candidates(field(257), 2))
    for projective in (False, True):
        with pytest.raises(InputError, match="more than 256 points"):
            matgrp.group_closure(list(pair), cap=10 ** 7,
                                 projective=projective)
    assert len(made) == 2
    assert not any(hasattr(table, "_keys") for table in made)


def test_the_frame_orbit_walk_stops_at_its_257th_point(monkeypatch):
    # P^2(F_211) has 44,733 points; the walk maps each point it reaches
    # by each generator, one fold of field products per column of the
    # generator (three a step), and must stop at the 257th point instead
    # of listing the orbit
    folds = []
    reduce = functools.reduce

    def counted(*args):
        folds.append(args)
        return reduce(*args)

    pair = next(matgrp._pair_candidates(field(211), 3))
    monkeypatch.setattr(matgrp, "reduce", counted)
    monkeypatch.setattr(ff.Matrix, "__matmul__", None)  # the walk makes none
    with pytest.raises(InputError, match="more than 256 points"):
        matgrp.group_closure(list(pair), cap=10, projective=True)
    steps, rest = divmod(len(folds), 3)
    assert 0 < steps <= 2 * 257 and rest == 0


@pytest.mark.parametrize("projective", [False, True])
def test_batched_closure_cap_boundary(projective):
    gens = _closure_gens("F9")
    mats, right = oracles.closure_by_products(gens, 10 ** 6, projective)
    size = len(mats)
    table = matgrp.group_closure(gens, cap=size, projective=projective)
    assert _same_table(table, mats, right)
    with pytest.raises(WorkCapExceeded):
        matgrp.group_closure(gens, cap=size - 1, projective=projective)
    # a closure refused by its cap raises at element cap + 1, having built
    # the first cap elements of the full closure, in the same order
    full = matgrp.FiniteGroupTable(gens, projective, size)
    made = []

    class Tracked(matgrp.FiniteGroupTable):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    for cap in (1, size // 3, size // 2, size - 1):
        with pytest.raises(WorkCapExceeded, match=f"cap of {cap} elements"):
            Tracked(gens, projective, cap)
        assert made[-1]._keys == full._keys[:cap]
        assert made[-1]._parent == full._parent[:cap]


@pytest.mark.parametrize("q, n", [(7, 2), (8, 2), (9, 2), (2, 3), (3, 3)])
def test_census_closure_continues_the_winning_search(q, n):
    # the search closes the winner in full, and the census table is that
    # closure, with no product made again
    pair = matgrp.generating_pair(field(q), n)
    assert pair.search.size == matgrp.psl_order(q, n)
    mats, right = oracles.closure_by_products(list(pair), 10 ** 6, True)
    linear = matgrp.group_closure(pair, cap=10 ** 6)
    assert _same_table(linear, *oracles.closure_by_products(list(pair),
                                                            10 ** 6))
    assert not linear.projective
    # without scalars besides 1 the linear table is the search closure;
    # otherwise it is closed afresh
    scalars = math.gcd(n, q - 1)
    assert (linear.right is pair.search.right) == (scalars == 1)
    taken = matgrp.group_closure(pair, cap=10 ** 6, projective=True)
    assert taken.right is pair.search.right
    assert _same_table(taken, mats, right)
    assert taken.projective and taken.generators == tuple(pair)
    # a linear hand-over is a copy, so neither object carries two names
    assert linear is not taken
    assert not matgrp.group_closure(pair, cap=10 ** 6).projective
    assert taken.projective
    # the finished search still keeps to the caller's cap
    again = matgrp.group_closure(pair, cap=len(mats), projective=True)
    assert _same_table(again, mats, right)
    with pytest.raises(WorkCapExceeded):
        matgrp.group_closure(pair, cap=len(mats) - 1, projective=True)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_point_permutations_of_a_table_with_a_centre_follow_the_paths(q):
    # a linear table with the centre +-1 reads each element's permutation
    # off its (permutation, scalar) key; it is the product of the
    # generators' permutations along the element's BFS path
    table = matgrp.group_closure(matgrp.generating_pair(field(q), 2),
                                 cap=10 ** 6)
    assert table.perms is None and table.size == matgrp.sl_order(q, 2)
    moves = [table._point_perm(perm[0]) for perm in table.right]
    for i in range(table.size):
        x = matgrp._IDENTITY
        for k in table._path(i):
            x = x.translate(moves[k])
        assert table._point_perm(i) == x


# ---------------------------------------------------------------------------
# table arithmetic against matrix arithmetic
# ---------------------------------------------------------------------------

# A table computes on its point permutations, unless it is linear with a
# centre (SL2(5), SL2(7)): then it walks shortest words.  SL2(8) and
# SL3(2) linear take over the projective closure of the pair search.
@pytest.mark.parametrize("q, n, projective", [
    (5, 2, True), (8, 2, True), (5, 2, False), (2, 3, False), (7, 2, False),
    (8, 2, False),
])
def test_table_arithmetic_matches_matrix_arithmetic(q, n, projective):
    F = field(q)
    table = matgrp.group_closure(matgrp.generating_pair(F, n), cap=10 ** 6,
                                 projective=projective)
    centre = not projective and math.gcd(n, q - 1) > 1
    assert (table.perms is None) == centre
    size = table.size
    mats = [table.matrix(i) for i in range(size)]
    key = oracles.projective_key if projective else ff.Matrix.key
    index = {key(m): i for i, m in enumerate(mats)}
    products = [[index[key(x @ y)] for y in mats] for x in mats]
    inverses = [index[key(x.inverse())] for x in mats]
    orders = [oracles.order_by_walk(x, projective) for x in mats]
    for i in range(size):
        assert [table.mul(i, j) for j in range(size)] == products[i]
    assert [table.inv(i) for i in range(size)] == inverses
    assert [table.order_of(i) for i in range(size)] == orders


# ---------------------------------------------------------------------------
# absolute irreducibility
# ---------------------------------------------------------------------------

def test_irreducibility_examples():
    F7 = field(7)
    assert not matgrp.is_absolutely_irreducible([oracles.diagonal(F7, [3, 5])])
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
            gens = [oracles.random_sl_matrix(F, 2, rng)
                    for _ in range(rng.randrange(1, 4))]
            got = matgrp.is_absolutely_irreducible(gens)
            assert got == (not oracles.has_common_stable_line(gens))


def test_irreducibility_invariant_under_conjugation_and_scaling():
    F = field(5)
    rng = random.Random(53)
    for _ in range(10):
        gens = [oracles.random_sl_matrix(F, 2, rng) for _ in range(2)]
        base = matgrp.is_absolutely_irreducible(gens)
        h = oracles.random_sl_matrix(F, 2, rng)
        conj = [h @ g @ h.inverse() for g in gens]
        assert matgrp.is_absolutely_irreducible(conj) == base
        scaled = [g.scale(4) for g in gens]
        assert matgrp.is_absolutely_irreducible(scaled) == base


# fields F2, F3, F5, F4, F8, F9 and F25 as (p, k)
BURNSIDE_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2)]


@st.composite
def invertible_matrices(draw, F, n, bound):
    """L P U with L lower and U upper unitriangular and P a monomial
    matrix, entries in [0, bound): every invertible matrix has this form,
    and bound = p keeps it inside the prime subfield."""
    def entry(low=0):
        return draw(st.integers(low, bound - 1))

    def triangle(lower):
        return ff.Matrix(F, n, n, [1 if i == j
                                   else entry() * ((i > j) == lower)
                                   for i in range(n) for j in range(n)])

    perm = draw(st.permutations(range(n)))
    vals = [0] * (n * n)
    for i, j in enumerate(perm):
        vals[i * n + j] = entry(1)
    return triangle(True) @ ff.Matrix(F, n, n, vals) @ triangle(False)


@st.composite
def scalar_product_tuples(draw):
    """(kind, c_1 ... c_m, the same tuple over the prime field or None):
    c_m is a scalar times the inverse of c_1 ... c_(m-1).  A block tuple
    is conjugate to a block upper triangular one, so reducible; a subfield
    tuple is a conjugate, over F_q, of one over F_p."""
    p, k = draw(st.sampled_from(BURNSIDE_FIELDS))
    F = ff.field_create(p, k)
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["random", "block", "subfield"]))
    if kind == "block":
        s = draw(st.integers(1, n - 1))

        def element():
            a = draw(invertible_matrices(F, s, F.q)).row_values()
            c = draw(invertible_matrices(F, n - s, F.q)).row_values()
            b = [[draw(st.integers(0, F.q - 1)) for _ in range(n - s)]
                 for _ in range(s)]
            return ff.Matrix(F, n, n, [*(x for i in range(s)
                                         for x in a[i] + b[i]),
                                       *(x for row in c
                                         for x in [0] * s + row)])
    else:
        bound = p if kind == "subfield" else F.q

        def element():
            return draw(invertible_matrices(F, n, bound))
    mats = [element() for _ in range(draw(st.integers(0, 3)))]
    prod = ff.Matrix.identity(F, n)
    for mat in mats:
        prod = prod @ mat
    # a subfield tuple's scalar lies in F_p, like its other entries
    scalar = draw(st.integers(1, (p if kind == "subfield" else F.q) - 1))
    mats.append(prod.inverse().scale(scalar))
    prime = None
    if kind == "subfield":
        # packed prime-field constants are the same ints in every extension
        Fp = ff.field_create(p)
        prime = [ff.Matrix(Fp, n, n, g.vals) for g in mats]
        assert all(x < p for g in prime for x in g.vals)
    if kind != "random":
        h = draw(invertible_matrices(F, n, F.q))
        hinv = h.inverse()
        mats = [h @ g @ hinv for g in mats]
    return kind, mats, prime


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=scalar_product_tuples())
def test_burnside_span_needs_all_but_the_last_generator(case):
    # the verdict spans c_1 ... c_(m-1): with c_m = lam (c_1 ... c_(m-1))^-1
    # the algebras agree, c_m being a polynomial in their product
    kind, gens, prime = case
    full = matgrp.is_absolutely_irreducible(gens)
    assert matgrp.is_absolutely_irreducible(gens[:-1] or gens) == full
    if kind == "block" or len(gens) == 1:
        assert not full
    if prime is not None:
        # absolute irreducibility does not depend on the field of scalars
        assert matgrp.is_absolutely_irreducible(prime[:-1] or prime) == full
    if len(gens[0].vals) == 4:
        assert full == (not oracles.has_common_stable_line(gens))


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
        assert m.det() == 1
    table = matgrp.group_closure(pair1, cap=10 ** 6)
    assert table.size == matgrp.sl_order(q, 2)


@pytest.mark.parametrize("q, n", [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9, 11,
                                                    13, 16)]
                         + [(2, 3), (3, 3), (4, 3)])
def test_half_group_cap_picks_the_full_closure_pair(q, n):
    # a pair generates SL_n(q) exactly when its projective closure is all
    # of PSL_n(q) (q = 2, 3 included), and a losing one stops at half of it
    # or below, so the search accepts the candidate a full linear closure
    # would, and the census closes PSL_n(q) from the same pair as before
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
    c = oracles.diagonal(F, [3, 5])
    t = matgrp.group_tuple((c, c.inverse()), (6, 6))
    assert t.length == 2 and t.declared_orders == (6, 6)
    # declared order may be any multiple of the projective order
    assert matgrp.group_tuple((c, c.inverse()), (12, 6)).declared_orders[0] == 12
    with pytest.raises(InputError):
        matgrp.group_tuple((c, c.inverse()), (4, 6))
    with pytest.raises(InputError):
        matgrp.group_tuple((c, c), (6, 6))  # product not scalar
    bad_det = oracles.diagonal(F, [3, 3])
    with pytest.raises(InputError):
        matgrp.group_tuple((bad_det, bad_det.inverse()), (6, 6))


def test_declared_order_passes_exactly_when_projective_order_divides_it():
    rng = random.Random(5)
    for q, n in [(5, 2), (7, 2), (9, 2), (7, 3), (4, 3)]:
        F = field(q)
        for _ in range(3):
            a = oracles.random_sl_matrix(F, n, rng)
            pair = (a, a.inverse())
            po = oracles.order_by_walk(a, projective=True)
            probes = {1, 2, po - 1, po, po + 1, 2 * po, 3 * po, 7 * po + 1,
                      *rng.sample(range(1, 4 * po + 2), 8)}
            for declared in sorted(probes - {0}):
                if declared % po == 0:
                    matgrp.group_tuple(pair, (declared, po))
                else:
                    with pytest.raises(InputError, match=(
                            "generator 0: its projective order does not "
                            f"divide the declared order {declared}$")):
                        matgrp.group_tuple(pair, (declared, po))


def test_loading_a_valid_tuple_walks_no_projective_order(monkeypatch):
    calls = []
    walk = matgrp.projective_order
    monkeypatch.setattr(matgrp, "projective_order",
                        lambda g, multiple: (calls.append(g)
                                             or walk(g, multiple)))
    golden = pathlib.Path(__file__).with_name("golden") / "tuples"
    for path in sorted(golden.glob("*.json")):
        matgrp.load_tuple(str(path))
    assert calls == []


def test_prefixes_run_from_the_identity_to_the_product():
    F = field(7)
    t = oracles.random_sl_tuple(F, 3, 4, random.Random(9))
    pre = t.prefixes()
    assert len(pre) == t.length + 1
    assert pre[0].is_identity() and pre[-1] == t.product()
    for i, c in enumerate(t.generators):
        assert pre[i + 1] == oracles.matmul_entrywise(pre[i], c)


def test_product_may_be_any_scalar():
    F = field(5)
    a = oracles.random_sl_matrix(F, 2, random.Random(3))
    b = a.inverse() @ oracles.diagonal(F, [4, 4])
    orders = [oracles.order_by_walk(m, projective=True) for m in (a, b)]
    t = matgrp.group_tuple((a, b), orders)
    assert t.product().is_scalar()
    assert not t.product().is_identity()


def test_tuple_from_matrices_infers_projective_orders():
    F = field(7)
    c = oracles.diagonal(F, [3, 5])
    t = oracles.tuple_from_matrices([c, c.inverse()])
    assert t.declared_orders == (3, 3)


def test_tuple_json_round_trip(tmp_path):
    F = field(9)
    rng = random.Random(61)
    t = oracles.random_sl_tuple(F, 2, 3, rng)
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


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (2, 3), (10007, 1),
                                  (3, 4), (2, 17), (2, 4), (17, 1)])
def test_field_setup_is_checked_against_the_work_cap(p, k):
    # sqrt(p) trial divisions, for k > 1 the modulus search, and one per
    # table entry: log, antilog and (odd p) Zech tables up to q = 2^16,
    # addition and multiplication tables up to q = 64, and the q
    # multiplication translates and the pair table, 256 bytes each, and
    # Echelon's two lists of q translates, up to q = 16
    q = p ** k
    logs = 0
    if 1 < k and q <= 2 ** 16:
        logs = q + 4 * (q - 1) + 1 + (p > 2) * (q - 1)
    cost = ff.field_cost(p, k)
    assert cost == (math.isqrt(p) + (k > 1) * (p + k) * k ** 3 * p.bit_length()
                    + logs + (q <= 64) * 2 * q * q
                    + (q <= 16) * (q * 256 + 256 + 2 * q))
    doc = {"p": p, "k": k, "n": 1, "generators": [[[1]]], "orders": [1]}
    assert matgrp.tuple_from_json(doc, work_cap=cost).field.q == p ** k
    with pytest.raises(WorkCapExceeded):
        matgrp.tuple_from_json(doc, work_cap=cost - 1)


def test_tuple_json_rejects_malformed_documents():
    F = field(5)
    t = oracles.random_sl_tuple(F, 2, 2, random.Random(1))
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
    m = ff.Matrix.from_rows(F, [[[1, 2], 1], [0, [1, 1]]])
    assert m.vals == (7, 1, 0, 4)
    wire = matgrp.matrix_to_wire(m)
    back = matgrp.matrix_from_wire(F, 2, wire)
    assert back.key() == m.key()


def test_random_sl_tuple_satisfies_the_relations():
    rng = random.Random(71)
    for q, n in [(5, 2), (9, 2), (2, 3)]:
        F = field(q)
        t = oracles.random_sl_tuple(F, n, 4, rng)
        assert t.product().is_identity()
        for g, o in zip(t.generators, t.declared_orders):
            assert g.det() == 1
            assert o % oracles.order_by_walk(g, projective=True) == 0
