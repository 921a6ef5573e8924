"""Conjugation action on traceless matrices: coordinates, fixed spaces,
class dimensions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError
from rigiditylab import adjoint, ff, matgrp, rootdata

properties = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def f7():
    return ff.field_create(7)


def random_sl(F, n, seed):
    return oracles.random_sl_matrix(F, n, random.Random(seed))


@st.composite
def traceless_matrices(draw, F, n):
    """A drawn matrix whose last diagonal entry cancels the trace."""
    vals = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n,
                         max_size=n * n))
    vals[-1] = 0
    vals[-1] = F.neg(ff.Matrix(F, n, n, vals).trace())
    return ff.Matrix(F, n, n, vals)


# ---------------------------------------------------------------------------
# the coordinate system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_spans_traceless_matrices(f7, n):
    rep = adjoint.adjoint_rep(f7, n)
    assert rep.dim == n * n - 1
    # off-diagonal units E_ij in row-major order, then E_ii - E_(i+1)(i+1)
    units = [[(i, j, 1)] for i in range(n) for j in range(n) if i != j]
    units += [[(i, i, 1), (i + 1, i + 1, 6)] for i in range(n - 1)]
    assert len(units) == rep.dim
    for i, unit in enumerate(units):
        rows = [[0] * n for _ in range(n)]
        for r, c, v in unit:
            rows[r][c] = v
        b = ff.Matrix.from_rows(f7, rows)
        assert b.trace() == 0
        coords = rep.coords(b)
        assert coords == [1 if j == i else 0 for j in range(rep.dim)]


@properties
@given(pkn=st.sampled_from([(7, 1, 3), (2, 1, 2), (2, 2, 3), (3, 2, 2),
                            (5, 1, 4)]), data=st.data())
def test_coords_round_trip(pkn, data):
    """coords and from_coords are inverse bijections between F^(n^2 - 1)
    and the traceless matrices."""
    p, k, n = pkn
    F = ff.field_create(p, k)
    rep = adjoint.adjoint_rep(F, n)
    vec = data.draw(st.lists(st.integers(0, F.q - 1), min_size=rep.dim,
                             max_size=rep.dim))
    x = rep.from_coords(vec)
    assert x.trace() == 0
    assert rep.coords(x) == vec
    y = data.draw(traceless_matrices(F, n))
    assert rep.from_coords(rep.coords(y)) == y


def test_coords_rejects_nonzero_trace(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    with pytest.raises(InputError):
        rep.coords(ff.Matrix.from_rows(f7, [[1, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def test_ad_of_identity_and_scalars(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    assert rep.ad_matrix(ff.Matrix.identity(f7, 2)).is_identity()
    assert rep.ad_matrix(oracles.diagonal(f7, [3, 3])).is_identity()


def test_ad_matrix_of_weyl_rotation_pinned(f7):
    # conjugation by [[0,1],[-1,0]] swaps the off-diagonal basis elements
    # with a sign and negates the diagonal one
    w = ff.Matrix.from_rows(f7, [[0, 1], [6, 0]])
    ad = adjoint.adjoint_rep(f7, 2).ad_matrix(w)
    assert ad.row_values() == [[0, 6, 0], [6, 0, 0], [0, 0, 6]]


@pytest.mark.parametrize("q,n", [(7, 2), (5, 3), (4, 2)])
@properties
@given(data=st.data())
def test_ad_is_a_homomorphism(q, n, data):
    F = ff.field_create(*((2, 2) if q == 4 else (q, 1)))
    rep = adjoint.AdjointRep(F, n)
    g = data.draw(oracles.sl_matrices(F, n))
    h = data.draw(oracles.sl_matrices(F, n))
    assert rep.ad_matrix(g @ h) == rep.ad_matrix(g) @ rep.ad_matrix(h)


@properties
@given(data=st.data())
def test_ad_matches_direct_conjugation(data):
    F = ff.field_create(7)
    rep = adjoint.AdjointRep(F, 3)
    g = data.draw(oracles.sl_matrices(F, 3))
    vec = data.draw(st.lists(st.integers(0, 6), min_size=rep.dim,
                             max_size=rep.dim))
    direct = g @ rep.from_coords(vec) @ g.inverse()
    ad = rep.ad_matrix(g)
    moved = []
    for i in range(rep.dim):
        acc = 0
        for j in range(rep.dim):
            acc = F.add(acc, F.mul(ad[i, j], vec[j]))
        moved.append(acc)
    assert rep.coords(direct) == moved


@pytest.mark.parametrize("p, k, n", [(2, 2, 2), (3, 2, 3), (2, 3, 4),
                                     (3, 1, 4)])
@properties
@given(data=st.data())
def test_ad_columns_are_conjugated_basis_elements(p, k, n, data):
    """Column j of Ad(g) is g E_j g^(-1) for the j-th basis element E_j."""
    F = ff.field_create(p, k)
    rep = adjoint.AdjointRep(F, n)
    g = data.draw(oracles.sl_matrices(F, n))
    ginv = g.inverse()
    ad = rep.ad_matrix(g)
    for j in range(rep.dim):
        b = rep.from_coords([int(i == j) for i in range(rep.dim)])
        column = [ad[i, j] for i in range(rep.dim)]
        assert column == rep.coords(g @ b @ ginv)


def test_ad_is_projective(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    g = random_sl(f7, 2, 5)
    scaled = g.scale(3)
    assert rep.ad_matrix(scaled).key() == rep.ad_matrix(g).key()


def test_ad_of_singular_matrix_rejected(f7):
    rep = adjoint.AdjointRep(f7, 2)
    for rows in ([[1, 2], [3, 6]], [[0, 0], [0, 0]], [[0, 5], [0, 0]]):
        with pytest.raises(InputError, match="non-invertible"):
            rep.ad_matrix(ff.Matrix.from_rows(f7, rows))


def test_ad_matrix_cache_hit_runs_no_elimination(f7, monkeypatch):
    rep = adjoint.AdjointRep(f7, 3)
    g, h = random_sl(f7, 3, 8), random_sl(f7, 3, 9)
    first = rep.ad_matrix(g)
    eliminations = []
    original = ff.Echelon.__init__

    def counted(self, *args):
        eliminations.append(args)
        original(self, *args)

    monkeypatch.setattr(ff.Echelon, "__init__", counted)
    # a scalar multiple shares the projective key, so it hits the cache
    assert rep.ad_matrix(g.scale(2)) is first
    assert rep.ad_matrix(g) is first
    assert eliminations == []
    rep.ad_matrix(h)  # a miss inverts, which is one elimination
    assert len(eliminations) == 1


# ---------------------------------------------------------------------------
# the norm sum_{t<a} Ad(c)^t of a power relator
# ---------------------------------------------------------------------------

# prime fields, XOR fields F4 and F8, the Zech field F9, and F_{257^2},
# which is past the tables and multiplies polynomials
NORM_FIELDS = [(5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (257, 2)]
# minimal polynomial of degree 1 (the central lift), a semisimple element
# (cyclic when its eigenvalues differ), repeated eigenvalues (m < n), and
# a unipotent part (p divides every multiple of the projective order;
# m < n as well when n = 3)
NORM_SHAPES = ("scalar", "diagonal", "repeated", "unipotent")


def shaped_element(F, shape, eig, h):
    """(rep, c, po): c = h D h^(-1), D diagonal with the eigenvalues eig
    (the first repeated as the shape asks), times I + E_01 for a unipotent
    part; po is c's projective order, found by walking."""
    n = len(eig)
    if shape in ("scalar", "unipotent"):
        eig = [eig[0]] * n
    elif shape == "repeated":
        eig = [eig[0], *eig[1:]]
        eig[1] = eig[0]
    vals = [0] * (n * n)
    vals[::n + 1] = eig  # packed, unlike oracles.diagonal's constants
    d = ff.Matrix(F, n, n, vals)
    if shape == "unipotent":
        d = d @ (ff.Matrix.identity(F, n) + ff.Matrix(
            F, n, n, [int(t == 1) for t in range(n * n)]))
    c = h @ d @ h.inverse()
    return adjoint.adjoint_rep(F, n), c, oracles.order_by_walk(c, True)


@st.composite
def small_order_elements(draw, shape):
    """shaped_element with a drawn h and eigenvalues drawn as powers of
    w^((q - 1) / r) for a drawn w and r <= 12, so that the projective
    order is small; distinct powers for the diagonal shape, which is then
    cyclic when that root has order r."""
    fields = [pk for pk in NORM_FIELDS if shape != "unipotent" or pk[0] < 60]
    F = ff.field_create(*draw(st.sampled_from(fields)))
    n = 3 if shape == "repeated" else draw(st.sampled_from([2, 3]))
    least = n if shape == "diagonal" else 1
    r = draw(st.sampled_from([r for r in range(least, 13)
                              if (F.q - 1) % r == 0]))
    root = F.pow(draw(st.integers(1, F.q - 1)), (F.q - 1) // r)
    exps = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n,
                         unique=shape == "diagonal"))
    eig = [F.pow(root, e) for e in exps]
    return shaped_element(F, shape, eig, draw(oracles.sl_matrices(F, n)))


@pytest.mark.parametrize("shape", NORM_SHAPES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_norm_matches_linear_sum(shape, data):
    """The closed form equals sum_{t<a} Ad(c)^t summed term by term, at
    every multiple a <= 60 of the projective order."""
    rep, c, po = data.draw(small_order_elements(shape))
    a = po * data.draw(st.integers(1, 60 // po))
    assert rep.norm(c, a) == oracles.norm_linear(rep.ad_matrix(c), a)


@pytest.mark.parametrize("p, k, n, shape", [
    (7, 1, 3, "diagonal"), (3, 2, 3, "repeated"), (2, 3, 3, "unipotent"),
    (257, 2, 2, "unipotent"), (5, 1, 2, "scalar")])
def test_norm_work_does_not_grow_with_the_order(p, k, n, shape,
                                                monkeypatch):
    """Ad(c)^po = I, so the norm at k po is k times the norm at po.  At
    k = 2^40 it takes exactly the matrix products it takes at po, and none
    of them multiplies two d x d matrices."""
    F = ff.field_create(p, k)
    r = max(r for r in range(1, 13) if (F.q - 1) % r == 0)
    eig = [F.pow(i + 2, (F.q - 1) // r) for i in range(n)]
    rep, c, po = shaped_element(F, shape, eig,
                                random_sl(F, n, 10 * p + n))
    big = po << 40
    expected = oracles.norm_by_doubling(rep.ad_matrix(c), big)
    shapes = []
    matmul = ff.Matrix.__matmul__

    def recorded(x, y):
        shapes.append((x.rows, x.cols, y.cols))
        return matmul(x, y)

    monkeypatch.setattr(ff.Matrix, "__matmul__", recorded)
    base = rep.norm(c, po)
    at_po = list(shapes)
    assert rep.norm(c, big) == base.scale(F.element(1 << 40)) == expected
    assert shapes == at_po + at_po
    d = rep.dim
    assert (d, d, d) not in shapes


def test_norm_rejects_a_power_that_is_not_scalar(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    g = oracles.diagonal(f7, [2, 4])  # projective order 3
    assert rep.norm(g, 3) == oracles.norm_linear(rep.ad_matrix(g), 3)
    for a in (0, 2, 4):
        with pytest.raises(InputError):
            rep.norm(g, a)


# ---------------------------------------------------------------------------
# fixed spaces and class dimensions
# ---------------------------------------------------------------------------

def test_fixed_space_and_class_dim_examples(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    eye = ff.Matrix.identity(f7, 2)
    assert rep.fixed_space_dim(eye) == 3
    assert rep.class_dim(eye) == 0
    torus = oracles.diagonal(f7, [2, 4])
    assert rep.fixed_space_dim(torus) == 1
    assert rep.class_dim(torus) == 2
    unipotent = ff.Matrix.from_rows(f7, [[1, 1], [0, 1]])
    assert rep.fixed_space_dim(unipotent) == 1
    assert rep.class_dim(unipotent) == 2
    rep3 = adjoint.adjoint_rep(f7, 3)
    regular = oracles.diagonal(f7, [1, 2, 4])
    assert rep3.class_dim(regular) == 6
    assert rep3.class_dim(oracles.diagonal(f7, [2, 2, 2])) == 0


def test_every_noncentral_psl2_element_has_class_dim_two():
    F = ff.field_create(5)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6)
    rep = adjoint.adjoint_rep(F, 2)
    for m in table.mats:
        assert rep.class_dim(m) == (0 if m.is_scalar() else 2)


@properties
@given(data=st.data())
def test_class_dim_invariant_under_conjugation_and_extension(data):
    F = ff.field_create(5)
    big = ff.field_create(5, 2)
    rep = adjoint.adjoint_rep(F, 2)
    rep_big = adjoint.adjoint_rep(big, 2)
    g = data.draw(oracles.sl_matrices(F, 2))
    h = data.draw(oracles.sl_matrices(F, 2))
    d = rep.class_dim(g)
    assert rep.class_dim(h @ g @ h.inverse()) == d
    assert rep_big.class_dim(oracles.embed_matrix(g, big)) == d


def test_class_dim_of_realized_witness_matches_j_value():
    # diagonal order-d elements realize the root-data maximizers
    for letter, rank, d in [("A", 1, 2), ("A", 1, 3), ("A", 1, 6),
                            ("A", 2, 2), ("A", 2, 3), ("A", 2, 4)]:
        rs = rootdata.build(letter, rank)
        entry = rootdata.j_scan(rs, d)
        p = oracles.smallest_prime_1_mod(d)
        F = ff.field_create(p)
        zeta = pow(oracles.multiplicative_generator(p), (p - 1) // d, p)
        suffix_sums = [sum(entry.witness[i:]) for i in range(rank + 1)]
        diag = [pow(zeta, s, p) for s in suffix_sums]
        rep = adjoint.adjoint_rep(F, rank + 1)
        assert rep.class_dim(oracles.diagonal(F, diag)) == entry.j


# ---------------------------------------------------------------------------
# semisimplicity bookkeeping
# ---------------------------------------------------------------------------

# projective orders: diag(2, 4) over F7 has 3, a transvection p, a scalar 1

def test_is_semisimple(f7):
    assert adjoint.is_semisimple(oracles.diagonal(f7, [2, 4]), 3)
    assert adjoint.is_semisimple(ff.Matrix.identity(f7, 2), 1)
    assert not adjoint.is_semisimple(
        ff.Matrix.from_rows(f7, [[1, 1], [0, 1]]), 7)


def test_smoothness_flags(f7):
    assert adjoint.smoothness_flags(oracles.diagonal(f7, [2, 4]), 3) == ()
    flagged = adjoint.smoothness_flags(
        ff.Matrix.from_rows(f7, [[1, 1], [0, 1]]), 7)
    assert any("semisimple" in f for f in flagged)
    F2 = ff.field_create(2)
    small = adjoint.smoothness_flags(ff.Matrix.identity(F2, 2), 1)
    assert any("characteristic" in f for f in small)
