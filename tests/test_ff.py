"""Field construction, packed field arithmetic, and exact linear algebra."""

import copy
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError
from rigiditylab import ff


SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1),
                (13, 1), (2, 4), (5, 2)]


def random_matrix(F, rows, cols, rng):
    """Uniform random matrix; entries drawn as packed values so extension
    fields are sampled fully, not just their prime subfield."""
    return ff.Matrix(F, rows, cols,
                     [rng.randrange(F.q) for _ in range(rows * cols)])


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


def test_irreducibility_matches_trial_division():
    # Ben-Or's test against trial division by every monic polynomial of
    # degree <= k / 2, on every monic polynomial of degree 2-6 over F2, F3,
    # F5 and F7 with p^k <= 2,500
    checked = 0
    for p in (2, 3, 5, 7):
        for k in range(2, 7):
            if p ** k > 2500:
                continue
            for tail in itertools.product(range(p), repeat=k):
                poly = [*tail, 1]
                assert ff._is_irreducible(poly, p) == \
                    oracles.poly_is_irreducible(poly, p), (p, poly)
                checked += 1
    assert checked == 124 + 1089 + 775 + 2793
    # among them, reducible quartics with no root in F_p, which a root test
    # alone would pass: (x^2 + x + 1)^2 over F2 and (x^2 + 1)(x^2 + x + 2)
    # over F3
    for p, a, b in [(2, [1, 1, 1], [1, 1, 1]), (3, [1, 0, 1], [2, 1, 1])]:
        poly = oracles.poly_mul(a, b, p)
        assert all(sum(c * x ** i for i, c in enumerate(poly)) % p
                   for x in range(p))
        assert not ff._is_irreducible(poly, p)


def test_ben_or_picks_the_modulus_the_frobenius_criterion_picks():
    # a second algorithm: the full Frobenius criterion (x^(p^k) = x and
    # gcd(x^(p^(k/t)) - x, f) = 1 for each prime t | k) must pick the same
    # canonical modulus as Ben-Or's test, for every p^k <= 2 * 10^5
    bound = 2 * 10 ** 5
    checked = 0
    for p in range(2, math.isqrt(bound) + 1):
        if not oracles.is_prime(p):
            continue
        k = 2
        while p ** k <= bound:
            assert ff._least_irreducible(p, k) == \
                oracles.least_irreducible_by_frobenius(p, k), (p, k)
            checked += 1
            k += 1
    assert checked == 136


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
            x, y = F.element(a), F.element(b)
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


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 7]), data=st.data())
def test_poly_gcd_matches_euclid_on_oracle_remainders(p, data):
    def trim(f):
        return f[:max((i + 1 for i, c in enumerate(f) if c), default=0)]

    def monic(f):
        return [c * pow(f[-1], -1, p) % p for c in f] if f else []

    polys = st.lists(st.integers(0, p - 1), max_size=8)
    a, b = data.draw(polys), data.draw(polys)
    x, y = trim(a), trim(b)
    while y:
        x, y = y, oracles.poly_rem(x, monic(y), p)
    assert monic(ff._poly_gcd(a, b, p)) == monic(x)


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
    a, b = ff.Matrix.identity(F, 2), ff.Matrix.identity(G, 2)
    for op in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(InputError):
            op(a, b)


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
    # F81 is the smallest odd extension field past the addition tables
    F = ff.field_create(3, 4)
    assert F._zech_add is not None and F._add_rows is None
    assert ff.field_create(2, 7)._zech_add is None   # XOR instead
    assert ff.field_create(3, 11)._zech_add is None  # beyond the tables


# Every field with q <= 64: the 18 primes up to 61 and the extension fields.
SQUARE_TABLE_FIELDS = [(p, 1) for p in range(2, 64) if oracles.is_prime(p)]
SQUARE_TABLE_FIELDS += [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                        (5, 2), (7, 2)]


def test_fields_up_to_64_elements_have_square_tables():
    assert len(SQUARE_TABLE_FIELDS) == 27
    for p, k in SQUARE_TABLE_FIELDS:
        F = ff.field_create(p, k)
        assert F._add_rows is not None and F._mul_rows is not None
    for p, k in [(67, 1), (3, 4), (2, 7)]:
        F = ff.field_create(p, k)
        assert F._add_rows is F._mul_rows is F._neg_row is None
    # byte rows for q^2 <= 256 only
    for p, k in SQUARE_TABLE_FIELDS + [(67, 1), (3, 4), (2, 7)]:
        F = ff.field_create(p, k)
        assert (F._pair is not None) == (F._mul_bytes is not None) \
            == (F._neg_mul_bytes is not None) \
            == (F._div_bytes is not None) == (F.q <= 16), F
        if F._pair is not None:
            r = range(F.q)
            assert [[F._pair[x * F.q + y] for y in r] for x in r] == \
                F._add_rows
            assert [list(row[:F.q]) for row in F._mul_bytes] == F._mul_rows


def test_square_tables_match_digit_and_polynomial_oracles():
    rng = random.Random(64)
    for p, k in SQUARE_TABLE_FIELDS:
        F = ff.field_create(p, k)
        q, r = F.q, range(F.q)
        mod = list(F.modulus_poly)
        prod = []
        for c in r:
            cs = list(F.unpack(c))
            row = []
            for y in r:
                want = oracles.poly_rem(
                    oracles.poly_mul(cs, list(F.unpack(y)), p), mod, p)
                row.append(sum(v * p ** i for i, v in enumerate(want)))
            prod.append(row)
        for a in r:
            assert F.neg(a) == oracles.digit_add(p, k, 0, a, -1)
            assert [F.add(a, b) for b in r] == [
                oracles.digit_add(p, k, a, b) for b in r]
            assert [F.sub(a, b) for b in r] == [
                oracles.digit_add(p, k, a, b, -1) for b in r]
        if q <= 16:
            # Echelon's translates y -> -c y and y -> y / c
            assert F._div_bytes[0] is None
            for c in r:
                assert F._neg_mul_bytes[c] is F._mul_bytes[F.neg(c)]
                assert F._neg_mul_bytes[c][:q] == bytes(prod[F.neg(c)])
                if c:
                    assert F._div_bytes[c] is F._mul_bytes[F.inv(c)]
                    assert F._div_bytes[c][:q] == bytes(prod[F.inv(c)])
                    assert all(F.mul(c, F._div_bytes[c][y]) == y for y in r)
        xss = [rng.sample(r, q) for _ in range(3)]
        for c in r:
            assert F.scale(c, r) == prod[c], (p, k, c)
            for xs in xss:
                assert F.add_scaled(xs, c, r) == [
                    oracles.digit_add(p, k, x, prod[c][y])
                    for x, y in zip(xs, r)], (p, k, c)


# ---------------------------------------------------------------------------
# matrices and Gaussian elimination
# ---------------------------------------------------------------------------

# Prime fields, the table fields F4, F8, F9, F25 and F27, and past the
# q <= 64 tables F67 (mod p), F81 (Zech) and F128 (XOR), plus one even and
# one odd extension too large for log tables.
ARITHMETIC_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                     (5, 2), (3, 3), (2, 17), (3, 11), (67, 1), (3, 4),
                     (2, 7)]


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
        assert list((a + c).vals) == list(map(F.add, a.vals, c.vals))
        assert list((a - c).vals) == list(map(F.sub, a.vals, c.vals))
        assert a.transpose().transpose() == a
        assert tuple(a.transpose()[j, i] for i in range(n)
                     for j in range(r)) == a.vals


# Table fields (F13, F8, F9), F67, F81 and F128 with mod p, Zech and XOR
# addition, and polynomial arithmetic past the log tables.
MATMUL_FIELDS = [(13, 1), (2, 3), (3, 2), (257, 2), (67, 1), (3, 4), (2, 7)]


@st.composite
def matrices(draw, field, rows: int, cols: int):
    """Packed entries, about half of them zero."""
    entry = st.one_of(st.just(0), st.integers(1, field.q - 1))
    return ff.Matrix(field, rows, cols, draw(
        st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_on_both_sides_of_the_tall_switch_match_the_oracle(
        p, k, data):
    # extension fields sum by columns, short and tall left factors alike;
    # F13 switches to byte columns at 2 r rows, and F67 never does
    F = ff.field_create(p, k)
    r = data.draw(st.integers(1, 4))
    rows = data.draw(st.sampled_from([r, 2 * r - 1, 2 * r, 8 * r - 1, 8 * r]))
    m = data.draw(st.integers(1, 4))
    a = data.draw(matrices(F, rows, r))
    b = data.draw(matrices(F, r, m))
    assert a @ b == oracles.matmul_entrywise(a, b)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (257, 2)])
def test_extension_fields_and_tall_prime_products_sum_columns(
        p, k, monkeypatch):
    F = ff.field_create(p, k)
    calls = []
    original = ff.Matrix._by_columns

    def counted(self, other):
        calls.append(self.rows)
        return original(self, other)

    monkeypatch.setattr(ff.Matrix, "_by_columns", counted)
    rng = random.Random(p * 100 + k)
    for r in (1, 2, 3, 4):
        for rows in (r, 2 * r, 8 * r - 1, 8 * r):
            random_matrix(F, rows, r, rng) @ random_matrix(F, r, 3, rng)
            assert calls == [rows], (r, rows)
            calls.clear()


@pytest.mark.parametrize("p", [2, 13, 67, 257])
def test_prime_field_products_sum_columns_from_two_rows_per_column(
        p, monkeypatch):
    # byte columns over p <= 13 from two rows per column on; fused dot
    # products below that, and for every shape over larger primes
    F = ff.field_create(p)
    calls = []
    original = ff.Matrix._by_columns

    def counted(self, other):
        calls.append(self.rows)
        return original(self, other)

    monkeypatch.setattr(ff.Matrix, "_by_columns", counted)
    rng = random.Random(p)
    for r in (1, 2, 3, 4):
        for rows in (r, 2 * r - 1, 2 * r, 8 * r, 64 * r):
            a, b = random_matrix(F, rows, r, rng), random_matrix(F, r, 3, rng)
            assert a @ b == oracles.matmul_entrywise(a, b)
            assert calls == ([rows] if p <= 13 and rows >= 2 * r else []), \
                (r, rows)
            calls.clear()


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_a_stacked_level_of_2184_rows_matches_the_oracle(p, k, seed, data):
    # the shape of all of PSL2(13) stacked, times a drawn 2 x 2 factor
    F = ff.field_create(p, k)
    rng = random.Random(seed)
    a = ff.Matrix(F, 2184, 2, [rng.randrange(F.q) for _ in range(4368)])
    b = data.draw(matrices(F, 2, 2))
    assert a @ b == oracles.matmul_entrywise(a, b)


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
@pytest.mark.parametrize("rows", [0, 3, 16])
def test_a_product_through_an_empty_inner_dimension_is_zero(p, k, rows):
    F = ff.field_create(p, k)
    a = ff.Matrix(F, rows, 0, [])
    b = ff.Matrix(F, 0, 2, [])
    assert a @ b == ff.Matrix.zero(F, rows, 2)


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


@pytest.mark.parametrize("p", [5, 7, 13, 67])
def test_rank_matches_independent_elimination(p):
    F = ff.field_create(p)
    rng = random.Random(p)
    for rows, cols in [(3, 3), (4, 6), (6, 4), (5, 5)]:
        for _ in range(8):
            grid = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            m = ff.Matrix.from_rows(F, grid)
            assert ff.rank(m) == oracles.rank_mod_p(grid, p)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (7, 1), (67, 1),
                                 (3, 4), (2, 7)])
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
        assert (m @ n).det() == F.mul(m.det(), n.det())
        if m.is_invertible():
            seen_invertible += 1
            assert (m @ m.inverse()).is_identity()
            assert ff.rank(m) == 3
        else:
            assert ff.rank(m) < 3
    assert seen_invertible > 5


# (p, k, n_max): q^n_max stays near 10^4 so span_rank's enumeration is cheap.
# F67, F81 and F128 eliminate past the q <= 64 tables.
ORACLE_FIELDS = [(2, 1, 4), (3, 1, 4), (5, 1, 4), (7, 1, 4), (13, 1, 3),
                 (2, 2, 4), (2, 3, 4), (3, 2, 4), (5, 2, 3), (67, 1, 2),
                 (3, 4, 2), (2, 7, 2)]


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
            if m.det() == 0:
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


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (3, 2), (67, 1), (3, 4)])
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


# Every field with q <= 16 keeps its Echelon rows as bytes; F17, F25, F27
# and F32, prime and extension fields past that bound, keep lists.
BYTE_ROW_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                   (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p,k", BYTE_ROW_FIELDS + [(17, 1), (5, 2), (3, 3),
                                                   (2, 5)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_byte_rows_and_list_rows_match_the_oracles(p, k, data):
    F = ff.field_create(p, k)
    entry = st.one_of(st.just(0), st.integers(1, F.q - 1))
    nonzero = st.integers(1, F.q - 1)
    width = data.draw(st.integers(0, 4))
    # q^rank spanned vectors for span_rank, so two free rows past q = 16
    free = data.draw(st.integers(1, 3 if F.q <= 16 else 2))
    grid = [data.draw(st.lists(entry, min_size=width, max_size=width))
            for _ in range(free)]
    if width and free > 1:
        # the first pivot lies in a later row
        grid[0][0], grid[1][0] = 0, data.draw(nonzero)
    # a zero row and a row that depends on the rows before it
    grid += [[0] * width, F.add_scaled(grid[0], data.draw(entry), grid[-1])]
    m = ff.Matrix(F, len(grid), width, [x for row in grid for x in row])
    assert ff.rank_of_rows(F, grid) == oracles.span_rank(m)
    want = oracles.reduced_by_add_scaled(F, grid)
    ech = ff.Echelon(F, width)
    for row in grid:
        ech.add(row)
    assert all(isinstance(row, bytes) == (F.q <= 16) for row in ech.rows)
    for got in (ff.row_space_basis(F, grid), ech.reduced()):
        assert got == want
        assert all(type(x) is int for row in got for x in row)
    b = data.draw(matrices(F, width, data.draw(st.integers(0, 4))))
    assert m @ b == oracles.matmul_entrywise(m, b)
    n = data.draw(st.integers(0, 4))
    sq = [data.draw(st.lists(entry, min_size=n, max_size=n))
          for _ in range(n)]
    if n > 1:
        sq[0][0], sq[1][0] = 0, data.draw(nonzero)
    a = ff.Matrix(F, n, n, [x for row in sq for x in row])
    det = a.det()
    assert det == oracles.leibniz_det(a)
    if det:
        assert a @ a.inverse() == ff.Matrix.identity(F, n)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@pytest.mark.parametrize("p,k", BYTE_ROW_FIELDS + [(17, 1), (5, 2), (3, 3),
                                                   (67, 1), (3, 4)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_echelon_state_after_each_add_matches_the_oracle_trace(p, k, data):
    # byte rows (q <= 16), table rows (q <= 64) and add_scaled rows alike;
    # reduced() leaves the form as it was
    F = ff.field_create(p, k)
    entry = st.one_of(st.just(0), st.integers(1, F.q - 1))
    width = data.draw(st.integers(0, 6))
    grid = data.draw(st.lists(
        st.lists(entry, min_size=width, max_size=width), max_size=5))
    for _ in range(data.draw(st.integers(0, 3)) if grid else 0):
        # a row that depends on two rows before it
        x, y = (grid[data.draw(st.integers(0, len(grid) - 1))]
                for _ in range(2))
        grid.append(F.add_scaled(x, data.draw(entry), y))
    ech = ff.Echelon(F, width)
    for i, (absorbed, pivots, values, rows) in enumerate(
            oracles.echelon_trace(F, grid)):
        # the package hands Echelon tuple slices as well as lists
        row = tuple(grid[i]) if i % 2 else grid[i]
        assert ech.add(row) == absorbed
        assert ech.pivots == pivots and ech.pivot_values == values
        assert [list(r) for r in ech.rows] == rows
        assert all(isinstance(r, bytes) == (F.q <= 16) for r in ech.rows)
    before = (list(ech.pivots), list(ech.pivot_values), list(ech.rows))
    assert ech.reduced() == oracles.reduced_by_add_scaled(F, grid)
    assert (ech.pivots, ech.pivot_values, ech.rows) == before


def test_singular_inverse_rejected():
    F = ff.field_create(7)
    with pytest.raises(ZeroDivisionError):
        ff.Matrix.from_rows(F, [[1, 2], [2, 4]]).inverse()


def test_matrix_power_and_scalar_recognition():
    F = ff.field_create(7)
    u = ff.Matrix.from_rows(F, [[1, 1], [0, 1]])
    assert (u ** 7).is_identity()
    assert (u ** 3).row_values() == [[1, 3], [0, 1]]
    assert oracles.diagonal(F, [3, 3]).is_scalar()
    assert not oracles.diagonal(F, [3, 5]).is_scalar()


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


def test_entries_are_packed_ints():
    F9 = ff.field_create(3, 2)
    assert F9.element([1, 2]) == 7 and F9.element(-1) == 2
    m = ff.Matrix.from_rows(F9, [[[1, 2], 1], [0, [0, 1]]])
    assert m.vals == (7, 1, 0, 3) and m[0, 0] == 7
    assert m.trace() == F9.add(7, 3) and m.det() == F9.mul(7, 3)
    assert oracles.diagonal(F9, [[1, 2], 2]).vals == (7, 0, 0, 2)
    assert m.scale(3).vals == tuple(F9.mul(3, v) for v in m.vals)


def test_matrix_key_distinguishes_entries_and_shape():
    F = ff.field_create(5)
    a = ff.Matrix.from_rows(F, [[1, 2], [3, 4]])
    b = ff.Matrix.from_rows(F, [[1, 2], [3, 4]])
    c = ff.Matrix.from_rows(F, [[1, 2], [3, 0]])
    assert a.key() == b.key() != c.key()


def test_embedding_is_an_injective_field_homomorphism():
    F4 = ff.field_create(2, 2)
    F16 = ff.field_create(2, 4)
    emb = oracles.embedding(F4, F16)

    assert len({emb(x) for x in range(F4.q)}) == 4
    assert emb(1) == 1
    for a in range(F4.q):
        for b in range(F4.q):
            assert emb(F4.add(a, b)) == F16.add(emb(a), emb(b))
            assert emb(F4.mul(a, b)) == F16.mul(emb(a), emb(b))


def test_embedding_rejects_incompatible_fields():
    with pytest.raises(InputError):
        oracles.embedding(ff.field_create(2, 2), ff.field_create(3, 2))
    with pytest.raises(InputError):
        oracles.embedding(ff.field_create(2, 2), ff.field_create(2, 3))
