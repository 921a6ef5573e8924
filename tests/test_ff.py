"""Field construction, packed field arithmetic, and exact linear algebra."""

import copy
import operator
import random

import pytest

import oracles
from rigiditylab.errors import InputError
from rigiditylab import ff


SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1),
                (13, 1), (2, 4), (5, 2)]


def random_matrix(F, rows, cols, rng):
    """Uniform random matrix; entries drawn as packed values so extension
    fields are sampled fully, not just their prime subfield."""
    ents = [ff.FieldElement(F, rng.randrange(F.q)) for _ in range(rows * cols)]
    return ff.Matrix(F, rows, cols, ents)


def values(m):
    """The packed entries of m, read through its field elements."""
    return [x.value for x in m.entries]


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def test_f8_and_f9_moduli_pinned():
    assert ff.field_create(2, 3).modulus_poly == (1, 1, 0, 1)   # x^3 + x + 1
    assert ff.field_create(3, 2).modulus_poly == (1, 0, 1)      # x^2 + 1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2), (7, 2), (13, 2)])
def test_modulus_is_first_irreducible_in_packed_order(p, k):
    assert ff.field_create(p, k).modulus_poly == oracles.minimal_irreducible(p, k)


@pytest.mark.parametrize("p", [4, 6, 9, 15, 1, 0])
def test_composite_or_tiny_characteristic_rejected(p):
    with pytest.raises(InputError):
        ff.field_create(p)


def test_bad_extension_degree_rejected():
    with pytest.raises(InputError):
        ff.field_create(5, 0)


def test_prime_field_is_plain_modular_arithmetic():
    F = ff.field_create(7)
    for a in range(7):
        for b in range(7):
            x, y = F.element(a).value, F.element(b).value
            assert F.add(x, y) == (a + b) % 7
            assert F.mul(x, y) == (a * b) % 7


def assert_products_match_polynomial_oracle(F, pairs):
    mod = list(F.modulus_poly)
    for a, b in pairs:
        got = F.unpack(F.mul(a, b))
        want = oracles.poly_rem(
            oracles.poly_mul(list(F.unpack(a)), list(F.unpack(b)), F.p),
            mod, F.p)
        want = tuple(want) + (0,) * (F.k - len(want))
        assert got == want


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_extension_product_matches_polynomial_oracle(p, k):
    F = ff.field_create(p, k)
    assert_products_match_polynomial_oracle(
        F, [(a, b) for a in range(F.q) for b in range(F.q)])


@pytest.mark.parametrize("p,k", [(2, 17), (3, 11)])
def test_extension_product_matches_polynomial_oracle_sampled(p, k):
    """Fields beyond the tables multiply by the polynomial product alone,
    the same product that builds every log table."""
    F = ff.field_create(p, k)
    assert F._exp is None
    rng = random.Random(100 * p + k)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(400)]
    pairs += [(0, F.q - 1), (1, F.q - 1), (F.q - 1, F.q - 1)]
    assert_products_match_polynomial_oracle(F, pairs)


@pytest.mark.parametrize("p,k", [(2, 17), (3, 11)])
def test_modular_reduction_matches_polynomial_oracle(p, k):
    """Reduction by the sparse moduli of the table-less fields, from any
    integer coefficients (products are reduced mod p only there)."""
    mod = list(ff.field_create(p, k).modulus_poly)
    rng = random.Random(7 * p + k)
    for length in [0, 1, k - 1, k, k + 1, 2 * k - 1] * 20:
        a = [rng.randrange(-5 * p * p, 5 * p * p) for _ in range(length)]
        want = oracles.poly_rem(a, mod, p)
        want += [0] * (k - len(want))
        assert ff._poly_modred(a, mod, p) == want
        b = [rng.randrange(p) for _ in range(k)]
        c = [rng.randrange(p) for _ in range(k)]
        want = oracles.poly_rem(oracles.poly_mul(b, c, p), mod, p)
        assert ff._poly_mulmod(b, c, mod, p) == want + [0] * (k - len(want))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_on_random_samples(p, k):
    F = ff.field_create(p, k)
    rng = random.Random(1000 * p + k)
    for _ in range(150):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        add, mul = F.add, F.mul
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
        assert F.sub(a, a) == 0
        if a:
            assert mul(a, F.inv(a)) == 1
        # Fermat: x^q = x
        power = 1
        for _ in range(F.q):
            power = mul(power, a)
        assert power == a or a == 0


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_frobenius_is_a_field_homomorphism(p, k):
    F = ff.field_create(p, k)
    rng = random.Random(77)
    for _ in range(60):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        fa, fb = F.pow(a, F.p), F.pow(b, F.p)
        assert F.pow(F.add(a, b), F.p) == F.add(fa, fb)
        assert F.pow(F.mul(a, b), F.p) == F.mul(fa, fb)
        # x -> x^p fixes exactly the prime field when iterated k times
        v = a
        for _ in range(k):
            v = F.pow(v, F.p)
        assert v == a


def test_zero_division_and_cross_field_mixing_rejected():
    F = ff.field_create(5)
    G = ff.field_create(7)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(InputError):
        ff.Matrix(F, 1, 2, [F.one, G.one])
    a, b = ff.Matrix.identity(F, 2), ff.Matrix.identity(G, 2)
    for op in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(InputError):
            op(a, b)
    with pytest.raises(InputError):
        a.scale(G.one)


def test_large_extension_field_runs_without_tables():
    F = ff.field_create(2, 17)
    rng = random.Random(5)
    for _ in range(5):
        a = rng.randrange(1, F.q)
        assert F.mul(a, F.inv(a)) == 1
        # the multiplicative group has order 2^17 - 1
        power = 1
        acc = a
        e = F.q - 1
        while e:
            if e & 1:
                power = F.mul(power, acc)
            acc = F.mul(acc, acc)
            e >>= 1
        assert power == 1


# Every extension field small enough for log tables, up to q = 256.
TABLE_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9)
                if p ** k <= 256]


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_table_addition_matches_digit_arithmetic(p, k):
    F = ff.field_create(p, k)
    for a in range(F.q):
        assert F.neg(a) == oracles.digit_add(p, k, 0, a, -1)
        assert [F.add(a, b) for b in range(F.q)] == [
            oracles.digit_add(p, k, a, b) for b in range(F.q)]
        assert [F.sub(a, b) for b in range(F.q)] == [
            oracles.digit_add(p, k, a, b, -1) for b in range(F.q)]


def test_odd_extensions_add_by_zech_logarithms():
    F = ff.field_create(3, 2)
    assert F._zech_add is not None
    assert ff.field_create(2, 3)._zech_add is None   # XOR instead
    assert ff.field_create(3, 11)._zech_add is None  # beyond the tables


# ---------------------------------------------------------------------------
# matrices and Gaussian elimination
# ---------------------------------------------------------------------------

# Prime fields, the table fields F4, F8, F9, F25 and F27 (XOR and Zech
# addition), and one even and one odd extension too large for tables.
ARITHMETIC_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                     (5, 2), (3, 3), (2, 17), (3, 11)]


@pytest.mark.parametrize("p,k", ARITHMETIC_FIELDS)
def test_packed_arithmetic_matches_entrywise_oracle(p, k):
    F = ff.field_create(p, k)
    rng = random.Random(p * 100 + k)
    shapes = [(1, 1, 1), (2, 2, 2), (2, 3, 4), (4, 1, 3), (3, 5, 1),
              (8, 8, 8), (6, 3, 7)]
    for n, r, m in shapes:
        a = random_matrix(F, n, r, rng)
        b = random_matrix(F, r, m, rng)
        c = random_matrix(F, n, r, rng)
        assert (a @ b).key() == oracles.matmul_entrywise(a, b).key()
        assert values(a + c) == list(map(F.add, values(a), values(c)))
        assert values(a - c) == list(map(F.sub, values(a), values(c)))
        assert values(-a) == list(map(F.neg, values(a)))
        assert a.transpose().transpose() == a
        assert [a.transpose()[j, i] for i in range(n) for j in range(r)] \
            == list(a.entries)



def test_rank_examples():
    F5 = ff.field_create(5)
    F7 = ff.field_create(7)
    assert ff.rank(ff.Matrix.zero(F5, 3, 3)) == 0
    for n in (1, 2, 4):
        assert ff.rank(ff.Matrix.identity(F7, n)) == n
    assert ff.rank(ff.Matrix.from_rows(F7, [[1, 2], [2, 4]])) == 1


def test_kernel_dim_examples():
    F7 = ff.field_create(7)
    assert ff.kernel_dim(ff.Matrix.from_rows(F7, [[1, 2], [2, 4]])) == 1
    assert ff.kernel_dim(ff.Matrix.zero(F7, 2, 3)) == 3
    assert ff.kernel_dim(ff.Matrix.identity(F7, 4)) == 0


def test_column_space_union_example():
    F5 = ff.field_create(5)
    a = ff.Matrix.from_rows(F5, [[1, 0], [0, 0]])
    b = ff.Matrix.from_rows(F5, [[0, 0], [0, 1]])
    assert oracles.column_space_union([a]) == 1
    assert oracles.column_space_union([a, b]) == 2
    assert oracles.column_space_union([]) == 0


@pytest.mark.parametrize("p", [5, 7, 13])
def test_rank_matches_independent_elimination(p):
    F = ff.field_create(p)
    rng = random.Random(p)
    for rows, cols in [(3, 3), (4, 6), (6, 4), (5, 5)]:
        for _ in range(8):
            grid = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            m = ff.Matrix.from_rows(F, grid)
            assert ff.rank(m) == oracles.rank_mod_p(grid, p)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (7, 1)])
def test_rank_nullity_holds(p, k):
    F = ff.field_create(p, k)
    rng = random.Random(10 * p + k)
    for rows, cols in [(3, 5), (5, 3), (4, 4)]:
        for _ in range(10):
            m = random_matrix(F, rows, cols, rng)
            assert ff.rank(m) + ff.kernel_dim(m) == cols


def test_rank_invariant_under_permutations():
    F = ff.field_create(7)
    rng = random.Random(42)
    for _ in range(20):
        grid = [[rng.randrange(7) for _ in range(5)] for _ in range(4)]
        base = ff.rank(ff.Matrix.from_rows(F, grid))
        shuffled = grid[:]
        rng.shuffle(shuffled)
        cols = list(range(5))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in shuffled]
        assert ff.rank(ff.Matrix.from_rows(F, permuted)) == base


@pytest.mark.parametrize("p,k,m", [(2, 2, 2), (5, 1, 2), (3, 2, 2), (5, 1, 3)])
def test_rank_invariant_under_field_extension(p, k, m):
    F = ff.field_create(p, k)
    big = ff.field_create(p, k * m)
    rng = random.Random(99 * p + m)
    for _ in range(10):
        mat = random_matrix(F, 4, 4, rng)
        assert ff.rank(oracles.embed_matrix(mat, big)) == ff.rank(mat)


def test_row_space_basis_is_reduced_echelon():
    F = ff.field_create(5)
    rng = random.Random(3)
    for _ in range(15):
        grid = [[rng.randrange(5) for _ in range(5)] for _ in range(4)]
        basis = ff.row_space_basis(F, grid)
        assert len(basis) == ff.rank_of_rows(F, grid)
        pivots = []
        for row in basis:
            lead = next(i for i, x in enumerate(row) if x)
            assert row[lead] == 1
            pivots.append(lead)
        assert pivots == sorted(pivots)
        for i, row in enumerate(basis):
            for j, other in enumerate(basis):
                if i != j:
                    assert other[pivots[i]] == 0
        # same span: appending the basis rows changes nothing
        assert ff.rank_of_rows(F, grid + basis) == len(basis)


def test_determinant_and_inverse_consistency():
    F = ff.field_create(7)
    rng = random.Random(8)
    seen_invertible = 0
    for _ in range(25):
        grid = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
        m = ff.Matrix.from_rows(F, grid)
        n = ff.Matrix.from_rows(F, [[rng.randrange(7) for _ in range(3)]
                                    for _ in range(3)])
        assert (m @ n).det().value == F.mul(m.det().value, n.det().value)
        if m.is_invertible():
            seen_invertible += 1
            assert (m @ m.inverse()).is_identity()
            assert ff.rank(m) == 3
        else:
            assert ff.rank(m) < 3
    assert seen_invertible > 5


# (p, k, n_max): q^n_max stays near 10^4 so span_rank's enumeration is cheap.
ORACLE_FIELDS = [(2, 1, 4), (3, 1, 4), (5, 1, 4), (7, 1, 4), (13, 1, 3),
                 (2, 2, 4), (2, 3, 4), (3, 2, 4), (5, 2, 3)]


@pytest.mark.parametrize("p,k,n_max", ORACLE_FIELDS)
def test_det_rank_inverse_match_elimination_free_oracles(p, k, n_max):
    F = ff.field_create(p, k)
    rng = random.Random(1000 * p + k)
    singular = invertible = 0
    for n in range(1, n_max + 1):
        eye = ff.Matrix.identity(F, n)
        # rank at most r by construction, so singular cases occur; plus
        # uniform matrices, which are mostly invertible
        cases = [random_matrix(F, n, r, rng) @ random_matrix(F, r, n, rng)
                 for r in range(1, n) for _ in range(3)]
        cases += [ff.Matrix.zero(F, n, n)]
        cases += [random_matrix(F, n, n, rng) for _ in range(6)]
        for m in cases:
            assert m.det() == oracles.leibniz_det(m)
            assert ff.rank(m) == oracles.span_rank(m)
            if m.det().is_zero():
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    m.inverse()
            else:
                invertible += 1
                inv = m.inverse()
                assert m @ inv == inv @ m == eye
        # rectangular shapes, including more rows than the width
        for shape in [(n, 2), (2, n), (n_max, n)]:
            m = random_matrix(F, *shape, rng)
            assert ff.rank(m) == oracles.span_rank(m)
    assert singular >= n_max and invertible >= n_max


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (3, 2)])
def test_eliminations_leave_their_input_rows_untouched(p, k):
    F = ff.field_create(p, k)
    rng = random.Random(77 * p + k)
    for rows, cols in [(4, 5), (6, 3), (3, 6), (5, 5)]:
        for _ in range(6):
            grid = [[rng.randrange(F.q) for _ in range(cols)]
                    for _ in range(rows)]
            grid[0][0] = 0  # make the first pivot need a row swap
            grid.append(list(grid[1]))  # and one dependent row
            before = copy.deepcopy(grid)
            ff.rank_of_rows(F, grid)
            assert grid == before
            basis = ff.row_space_basis(F, grid)
            assert grid == before
            assert all(b is not g for b in basis for g in grid)
            ech = ff.Echelon(F, cols)
            for row in grid:
                ech.add(row)
            ech.reduced()
            assert grid == before


def test_singular_inverse_rejected():
    F = ff.field_create(7)
    with pytest.raises(ZeroDivisionError):
        ff.Matrix.from_rows(F, [[1, 2], [2, 4]]).inverse()


def test_matrix_power_and_scalar_recognition():
    F = ff.field_create(7)
    u = ff.Matrix.from_rows(F, [[1, 1], [0, 1]])
    assert (u ** 7).is_identity()
    assert (u ** 3).row_values() == [[1, 3], [0, 1]]
    assert ff.Matrix.diagonal(F, [3, 3]).is_scalar()
    assert not ff.Matrix.diagonal(F, [3, 5]).is_scalar()


def test_matrix_power_squares_once_per_bit_after_the_leading_one(
        monkeypatch):
    calls = [0]
    matmul = ff.Matrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    F = ff.field_create(7)
    g = ff.Matrix.from_rows(F, [[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    powers = [ff.Matrix.identity(F, 3)]
    for _ in range(40):
        powers.append(matmul(powers[-1], g))
    monkeypatch.setattr(ff.Matrix, "__matmul__", counted)
    for e in range(41):
        calls[0] = 0
        assert g ** e == powers[e], e
        assert calls[0] == max(e.bit_length() + bin(e).count("1") - 2, 0), e
    assert g ** -5 @ powers[5] == powers[0]


def test_matrix_key_distinguishes_entries_and_shape():
    F = ff.field_create(5)
    a = ff.Matrix.from_rows(F, [[1, 2], [3, 4]])
    b = ff.Matrix.from_rows(F, [[1, 2], [3, 4]])
    c = ff.Matrix.from_rows(F, [[1, 2], [3, 0]])
    assert a.key() == b.key() != c.key()


def test_projective_key_is_the_entry_tuple_scaled_to_a_leading_one():
    F = ff.field_create(7)
    a = ff.Matrix.from_rows(F, [[0, 3], [5, 1]])
    assert a.projective_key() == (0, 1, 4, 5)  # times 3^-1 = 5
    assert a.scale(F.element(2)).projective_key() == a.projective_key()
    with pytest.raises(ZeroDivisionError):
        ff.Matrix.zero(F, 2, 2).projective_key()


def test_embedding_is_an_injective_field_homomorphism():
    F4 = ff.field_create(2, 2)
    F16 = ff.field_create(2, 4)
    emb = oracles.embedding(F4, F16)

    def image(x):
        return emb(ff.FieldElement(F4, x)).value

    assert len({image(x) for x in range(F4.q)}) == 4
    assert emb(F4.one) == F16.one
    for a in range(F4.q):
        for b in range(F4.q):
            assert image(F4.add(a, b)) == F16.add(image(a), image(b))
            assert image(F4.mul(a, b)) == F16.mul(image(a), image(b))


def test_embedding_rejects_incompatible_fields():
    with pytest.raises(InputError):
        oracles.embedding(ff.field_create(2, 2), ff.field_create(3, 2))
    with pytest.raises(InputError):
        oracles.embedding(ff.field_create(2, 2), ff.field_create(2, 3))
