"""Conjugation action on traceless matrices: coordinates, fixed spaces,
class dimensions."""

import random

import pytest

import oracles
from rigiditylab.errors import InputError
from rigiditylab import adjoint, ff, matgrp, rootdata


@pytest.fixture(scope="module")
def f7():
    return ff.field_create(7)


def random_sl(F, n, seed):
    return matgrp.random_sl_matrix(F, n, random.Random(seed))


# ---------------------------------------------------------------------------
# the coordinate system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_spans_traceless_matrices(f7, n):
    rep = adjoint.adjoint_rep(f7, n)
    assert rep.dim == n * n - 1
    assert len(rep.basis) == rep.dim
    for i, b in enumerate(rep.basis):
        assert b.trace().is_zero()
        coords = rep.coords(b)
        assert coords == [1 if j == i else 0 for j in range(rep.dim)]


def test_coords_round_trip(f7):
    rep = adjoint.adjoint_rep(f7, 3)
    rng = random.Random(13)
    for _ in range(20):
        vec = [rng.randrange(7) for _ in range(rep.dim)]
        assert rep.coords(rep.from_coords(vec)) == vec


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
    assert rep.ad_matrix(ff.Matrix.diagonal(f7, [3, 3])).is_identity()


def test_ad_matrix_of_weyl_rotation_pinned(f7):
    # conjugation by [[0,1],[-1,0]] swaps the off-diagonal basis elements
    # with a sign and negates the diagonal one
    w = ff.Matrix.from_rows(f7, [[0, 1], [6, 0]])
    assert adjoint.ad_matrix(w).row_values() == [[0, 6, 0], [6, 0, 0], [0, 0, 6]]


@pytest.mark.parametrize("q,n", [(7, 2), (5, 3), (4, 2)])
def test_ad_is_a_homomorphism(q, n):
    F = ff.field_create(*((2, 2) if q == 4 else (q, 1)))
    rep = adjoint.adjoint_rep(F, n)
    rng = random.Random(10 * q + n)
    for _ in range(10):
        g = matgrp.random_sl_matrix(F, n, rng)
        h = matgrp.random_sl_matrix(F, n, rng)
        assert rep.ad_matrix(g @ h).key() == (rep.ad_matrix(g) @ rep.ad_matrix(h)).key()


def test_ad_matches_direct_conjugation(f7):
    rep = adjoint.adjoint_rep(f7, 3)
    rng = random.Random(37)
    for _ in range(10):
        g = matgrp.random_sl_matrix(f7, 3, rng)
        vec = [rng.randrange(7) for _ in range(rep.dim)]
        x = rep.from_coords(vec)
        direct = g @ x @ g.inverse()
        ad = rep.ad_matrix(g)
        moved = []
        for i in range(rep.dim):
            acc = 0
            for j in range(rep.dim):
                acc = f7.add(acc, f7.mul(ad[i, j].value, vec[j]))
            moved.append(acc)
        assert rep.coords(direct) == moved


def test_ad_is_projective(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    g = random_sl(f7, 2, 5)
    scaled = g.scale(ff.FieldElement(f7, 3))
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
    assert rep.ad_matrix(g.scale(ff.FieldElement(f7, 2))) is first
    assert rep.ad_matrix(g) is first
    assert eliminations == []
    rep.ad_matrix(h)  # a miss inverts, which is one elimination
    assert len(eliminations) == 1


# ---------------------------------------------------------------------------
# fixed spaces and class dimensions
# ---------------------------------------------------------------------------

def test_fixed_space_and_class_dim_examples(f7):
    rep = adjoint.adjoint_rep(f7, 2)
    eye = ff.Matrix.identity(f7, 2)
    assert rep.fixed_space_dim(eye) == 3
    assert rep.class_dim(eye) == 0
    torus = ff.Matrix.diagonal(f7, [2, 4])
    assert rep.fixed_space_dim(torus) == 1
    assert rep.class_dim(torus) == 2
    unipotent = ff.Matrix.from_rows(f7, [[1, 1], [0, 1]])
    assert rep.fixed_space_dim(unipotent) == 1
    assert rep.class_dim(unipotent) == 2
    rep3 = adjoint.adjoint_rep(f7, 3)
    regular = ff.Matrix.diagonal(f7, [1, 2, 4])
    assert rep3.class_dim(regular) == 6
    assert rep3.class_dim(ff.Matrix.diagonal(f7, [2, 2, 2])) == 0


def test_every_noncentral_psl2_element_has_class_dim_two():
    F = ff.field_create(5)
    a, b = matgrp.generating_pair(F, 2).generators
    table = matgrp.group_closure([a, b], cap=10 ** 6)
    rep = adjoint.adjoint_rep(F, 2)
    for m in table.mats:
        assert rep.class_dim(m) == (0 if m.is_scalar() else 2)


def test_class_dim_invariant_under_conjugation_and_extension():
    F = ff.field_create(5)
    big = ff.field_create(5, 2)
    rep = adjoint.adjoint_rep(F, 2)
    rep_big = adjoint.adjoint_rep(big, 2)
    rng = random.Random(41)
    for _ in range(15):
        g = matgrp.random_sl_matrix(F, 2, rng)
        h = matgrp.random_sl_matrix(F, 2, rng)
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
        assert rep.class_dim(ff.Matrix.diagonal(F, diag)) == entry.j


# ---------------------------------------------------------------------------
# semisimplicity bookkeeping
# ---------------------------------------------------------------------------

def test_is_semisimple(f7):
    assert adjoint.is_semisimple(ff.Matrix.diagonal(f7, [2, 4]))
    assert adjoint.is_semisimple(ff.Matrix.identity(f7, 2))
    assert not adjoint.is_semisimple(ff.Matrix.from_rows(f7, [[1, 1], [0, 1]]))


def test_smoothness_flags(f7):
    assert adjoint.smoothness_flags(ff.Matrix.diagonal(f7, [2, 4])) == ()
    flagged = adjoint.smoothness_flags(ff.Matrix.from_rows(f7, [[1, 1], [0, 1]]))
    assert any("semisimple" in f for f in flagged)
    F2 = ff.field_create(2)
    small = adjoint.smoothness_flags(ff.Matrix.identity(F2, 2))
    assert any("characteristic" in f for f in small)
