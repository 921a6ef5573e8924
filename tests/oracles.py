"""Independent reference implementations used to cross-check rigiditylab.

Everything here is written from scratch on plain integers (or Fractions) so
that agreement with the package is meaningful.  Where field arithmetic is
unavoidable (the field embedding, the stable-line search, the Leibniz
determinant, the row-span enumeration, the entry-by-entry matrix product
and the linear norm sum) only the packed FiniteField methods of ff are
used (add, sub, mul and friends, one element at a time), never its
elimination or its packed matrix products; those field methods are
checked in turn against digit_add and the polynomial oracles.
relator_linear and tangent_rank_conjugates take their Ad matrices from
the package's adjoint module, which the adjoint tests check against
direct conjugation; tangent_rank_conjugates also takes each prefix
inverse from Matrix.inverse, which the ff tests check against the
elimination-free oracles.  The two span
helpers, column_space_union and coinvariant_dim_via_words, do reuse the
package's row reduction: what they check is the set of vectors that gets
reduced, not the reduction.  generating_pair_by_full_closure keeps the
package's candidate stream and closure, and checks only the acceptance
rule: a full linear closure of |SL_n(q)| elements, not the package's
projective closure of |PSL_n(q)| elements.  order_by_walk multiplies with the package's
Matrix product (checked against matmul_entrywise in the ff tests); what it
checks is the order found by prime division, not the product;
closure_by_products likewise multiplies one product at a time with the
package's Matrix product, keys each with its entries or with
projective_key (one field multiplication per entry, not the package's
point permutations), and checks the closure's indices, its
right-multiplication permutations and the matrices a table rebuilds.
norm_by_doubling sums the powers of an Ad matrix by doubling with the
package's Matrix product; it checks the closed-form norm of the adjoint
module at orders too large to sum term by term.  frobenius_is_irreducible
is the full Frobenius criterion, a second algorithm beside the package's
Ben-Or test; it reuses ff's polynomial powers and gcd, so it checks the
criterion, not those helpers.  The random tuple helpers and the hypothesis
strategies sl_matrices and sl_tuples build package matrices and tuples
as test inputs; their declared orders come from order_by_walk, and
sl_matrices multiplies its P L U draw with matmul_entrywise and divides
by leibniz_det.  diagonal builds diagonal test matrices from constants
or coefficient lists.  class_dim_gl reads a class dimension
off the commutator map on all of gl_n, over any F_q, with rank_fq (its own
polynomial arithmetic), and no Ad matrix.
positive_roots_by_reflection takes only the package's Cartan matrix,
which the Cartan determinant tests pin.  alcove_j_by_order takes the
package's positive roots, which the Weyl-orbit tests pin, and walks the
Kac points of one order d alone, the package's walk before one walk
served every order of a request.  kac_point_count counts those points
from the marks alone.  reduced_by_add_scaled is textbook Gauss-Jordan
elimination on lists with the field's scale, inv, neg and add_scaled,
never its Echelon; it checks the row-echelon forms that the package keeps
as bytes over fields with q <= 16.  echelon_trace replays the package's
semi-echelon absorption one entry at a time with the field's sub, mul and
inv, so the state of an Echelon can be checked after every row.
generates_by_closure is the table's generation test as it stood before
the Schreier–Sims sift: it closes the elements' point permutations into
a set, or multiplies with the table's own ``mul`` (subgroup_generated)
when the table keeps no permutations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

def is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def smallest_prime_1_mod(d: int) -> int:
    """Least prime p with p = 1 (mod d)."""
    p = 2
    while True:
        if p % d == 1 and is_prime(p):
            return p
        p += 1


def multiplicative_generator(p: int) -> int:
    """Smallest generator of (Z/p)*, by brute order check."""
    for w in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * w % p
            seen.add(x)
        if len(seen) == p - 1:
            return w
    raise AssertionError(f"no generator mod {p}")


def euler_phi(d: int) -> int:
    return sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1)


# ---------------------------------------------------------------------------
# linear algebra over Z/p and over Q
# ---------------------------------------------------------------------------

def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row-reduction rank over Z/p with plain integers."""
    rows = [[x % p for x in row] for row in rows]
    pivot = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        sel = next((r for r in range(pivot, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[pivot], rows[sel] = rows[sel], rows[pivot]
        inv = pow(rows[pivot][col], -1, p)
        rows[pivot] = [x * inv % p for x in rows[pivot]]
        for r in range(len(rows)):
            if r != pivot and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[pivot])]
        pivot += 1
    return pivot


def rank_fq(rows: list[list[int]], field) -> int:
    """Row-reduction rank over F_q of rows of packed entries, each taken
    as its coefficient list over F_p: products by poly_mul and poly_rem
    modulo the field's modulus, inverses as a^(q-2).  No field table and
    no code of ff.Echelon."""
    p, mod = field.p, list(field.modulus_poly)

    def mul(a, b):
        return poly_rem(poly_mul(a, b, p), mod, p) if a and b else []

    def sub(a, b):
        out = [(x - y) % p for x, y in itertools.zip_longest(a, b,
                                                             fillvalue=0)]
        while out and out[-1] == 0:
            out.pop()
        return out

    rows = [[poly_rem(list(field.unpack(x)), mod, p) for x in row]
            for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = [1]
        for _ in range(field.q - 2):
            inv = mul(inv, rows[rank][col])
        pivot = rows[rank] = [mul(x, inv) for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [sub(x, mul(f, y)) for x, y in zip(rows[r], pivot)]
        rank += 1
    return rank


def class_dim_gl(g) -> int:
    """n^2 - dim C_{M_n}(g) for g over F_q: the rank of X -> g X - X g on
    all n x n matrices, entries subtracted digit by digit (digit_add) and
    reduced by rank_fq.  The row of the unit E_ij holds the entries of
    g E_ij - E_ij g: column (k, l) gets g[k, i] where l = j, minus g[j, l]
    where k = i."""
    n, F = g.rows, g.field
    rows = [[digit_add(F.p, F.k, g[k, i] if l == j else 0,
                       g[j, l] if k == i else 0, -1)
             for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]
    return rank_fq(rows, F)


def exact_determinant(grid) -> int:
    """Fraction-based Gaussian determinant of an integer matrix."""
    n = len(grid)
    m = [[Fraction(x) for x in row] for row in grid]
    det = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if m[r][col]), None)
        if sel is None:
            return 0
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


# ---------------------------------------------------------------------------
# determinant and rank over F_q without elimination
# ---------------------------------------------------------------------------

def leibniz_det(m) -> int:
    """Packed determinant of an ff.Matrix as the signed sum over all n!
    permutations, with the field's scalar add, sub and mul."""
    F, n = m.field, m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        seen, cycles = set(), 0
        for start in range(n):
            if start not in seen:
                cycles += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, m[i, j])
        total = F.sub(total, term) if (n - cycles) % 2 else F.add(total, term)
    return total


def span_rank(m) -> int:
    """Rank of an ff.Matrix from the size of its row span, which is
    enumerated vector by vector: |span| = q^rank.  Costs about q^rank
    vectors, so keep q^min(rows, cols) small."""
    F = m.field
    span = {(0,) * m.cols}
    for row in m.row_values():
        if tuple(row) not in span:
            span = {tuple(F.add(v, F.mul(c, x)) for v, x in zip(vec, row))
                    for vec in span for c in range(F.q)}
    rank = 0
    while F.q ** rank < len(span):
        rank += 1
    assert F.q ** rank == len(span), "a span's size is a power of q"
    return rank


def echelon_trace(field, grid) -> list[tuple]:
    """The state of an incremental semi-echelon form after each row of
    grid is offered: (absorbed, pivots, pivot values, basis rows).  A row
    is cleared at each basis row's pivot in the order the basis rows came,
    entry by entry with the field's sub and mul; if anything is left, its
    first nonzero entry is the pivot value, and the row is scaled by that
    value's inverse."""
    pivots, values, basis, states = [], [], [], []
    for row in grid:
        row = list(row)
        for piv, b in zip(pivots, basis):
            c = row[piv]
            if c:
                row = [field.sub(x, field.mul(c, y)) for x, y in zip(row, b)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            inv = field.inv(row[lead])
            pivots.append(lead)
            values.append(row[lead])
            basis.append([field.mul(inv, x) for x in row])
        states.append((lead is not None, list(pivots), list(values),
                       [list(b) for b in basis]))
    return states


def reduced_by_add_scaled(field, grid) -> list[list[int]]:
    """Reduced row-echelon basis of the row space of grid (rows of packed
    ints), column by column: swap a row with a nonzero entry up, scale it
    to 1 and clear the column in every other row with add_scaled."""
    rows = [list(row) for row in grid]
    top = 0
    for col in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        rows[top] = field.scale(field.inv(rows[top][col]), rows[top])
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = field.add_scaled(row, field.neg(row[col]), rows[top])
        top += 1
    return rows[:top]


# ---------------------------------------------------------------------------
# packed arithmetic, entry by entry
# ---------------------------------------------------------------------------

def digit_add(p: int, k: int, a: int, b: int, sign: int = 1) -> int:
    """a + sign * b on packed elements of F_{p^k}, one base-p digit at a
    time (addition never mixes coefficients)."""
    out, w = 0, 1
    for _ in range(k):
        out += (a % p + sign * (b % p)) % p * w
        a, b, w = a // p, b // p, w * p
    return out


def matmul_entrywise(a, b):
    """a @ b of two ff.Matrix, each entry summed term by term with the
    field's scalar add and mul."""
    from rigiditylab import ff

    F = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for t in range(a.cols):
                acc = F.add(acc, F.mul(a[i, t], b[t, j]))
            out.append(acc)
    return ff.Matrix(F, a.rows, b.cols, out)


def diagonal(field, diag):
    """The diagonal ff.Matrix with the given entries: ints (constants,
    reduced mod p) or coefficient lists."""
    from rigiditylab import ff

    n = len(diag)
    vals = [0] * (n * n)
    vals[::n + 1] = map(field.element, diag)
    return ff.Matrix(field, n, n, vals)


def norm_linear(ad, a: int):
    """sum_{j<a} ad^j, one power and one sum per term."""
    from rigiditylab import ff

    F, d = ad.field, ad.rows
    total = ff.Matrix(F, d, d, [0] * (d * d))
    power = ff.Matrix.identity(F, d)
    for _ in range(a):
        total = ff.Matrix(F, d, d, map(F.add, total.vals, power.vals))
        power = matmul_entrywise(power, ad)
    return total


def norm_by_doubling(ad, a: int):
    """sum_{j<a} ad^j by doubling on the pair (N_m, ad^m), reading a's
    bits from the top: N_2m = N_m + ad^m N_m, N_2m+1 = N_2m + ad^2m.
    That is O(log a) products of d x d matrices instead of a; the last
    bit advances no power, since none is read after it."""
    from rigiditylab import ff

    norm, power = ff.Matrix.identity(ad.field, ad.rows), ad
    bits = bin(a)[3:]
    for i, bit in enumerate(bits, 1):
        norm = norm + power @ norm
        if bit == "1":
            power = power @ power
            norm = norm + power
        if i < len(bits):
            power = power @ ad if bit == "1" else power @ power
    return norm


def relator_linear(t):
    """The stacked relator matrix of rigidity.cocycle_spaces with linear
    norm sums: block (i, i) is sum_{j<a_i} Ad(c_i)^j, and the last block
    row is Ad(c_1 ... c_(i-1)) for each i."""
    from rigiditylab import adjoint, ff, rigidity

    t = rigidity.central_lift(t)
    rep = adjoint.adjoint_rep(t.field, t.n)
    F, d, m = t.field, rep.dim, t.length
    zero = ff.Matrix(F, d, d, [0] * (d * d))
    blocks = [[zero] * m for _ in range(m)]
    for i, (c, a) in enumerate(zip(t.generators, t.declared_orders)):
        blocks[i][i] = norm_linear(rep.ad_matrix(c), a)
    prefix, last = ff.Matrix.identity(F, t.n), []
    for c in t.generators:
        last.append(rep.ad_matrix(prefix))
        prefix = matmul_entrywise(prefix, c)
    blocks.append(last)
    entries = [blk[r, s] for brow in blocks for r in range(d)
               for blk in brow for s in range(d)]
    return ff.Matrix(F, len(blocks) * d, m * d, entries)


def tangent_rank_conjugates(t):
    """Rank of the derivative of the product-of-classes map from its
    definition, on the centrally lifted tuple over a prime field: block i
    is (I - Ad(d_i)) Ad(P_i), with P_i = c_1 ... c_(i-1) and the conjugate
    d_i = P_i c_i P_i^(-1), reduced by rank_mod_p."""
    from rigiditylab import adjoint, ff, rigidity

    t = rigidity.central_lift(t)
    F = t.field
    assert F.k == 1, "rank_mod_p reduces over prime fields only"
    rep = adjoint.adjoint_rep(F, t.n)
    ident = ff.Matrix.identity(F, rep.dim)
    prefix, blocks = ff.Matrix.identity(F, t.n), []
    for c in t.generators:
        step = matmul_entrywise(prefix, c)
        conj = matmul_entrywise(step, prefix.inverse())
        blocks.append(matmul_entrywise(ident - rep.ad_matrix(conj),
                                       rep.ad_matrix(prefix)))
        prefix = step
    grids = [blk.row_values() for blk in blocks]
    rows = [[x for grid in grids for x in grid[r]] for r in range(rep.dim)]
    return rank_mod_p(rows, F.p)


# ---------------------------------------------------------------------------
# spans reduced by the package's own elimination
# ---------------------------------------------------------------------------

def column_space_union(ms) -> int:
    """Dimension of the sum of the column spaces of the given matrices."""
    from rigiditylab import ff

    if not ms:
        return 0
    stacked = [list(col) for m in ms for col in zip(*m.row_values())]
    return ff.rank_of_rows(ms[0].field, stacked)


def coinvariant_dim_via_words(t, word_length: int, word_cap: int = 20000):
    """Span the displacements of every word in the generators up to the
    given length.  Must agree with coinv.coinvariant_dim for any
    word_length >= 1, since word displacements collapse into the span of
    the generator displacements."""
    from rigiditylab import adjoint, coinv, ff
    from rigiditylab.errors import InputError, WorkCapExceeded

    if word_length < 1:
        raise InputError(f"word_length = {word_length} must be >= 1")
    rep = adjoint.adjoint_rep(t.field, t.n)
    seen = {}
    frontier = [ff.Matrix.identity(t.field, t.n)]
    for _ in range(word_length):
        nxt = []
        for w in frontier:
            for c in t.generators:
                prod = w @ c
                key = prod.key()
                if key not in seen:
                    if len(seen) >= word_cap:
                        raise WorkCapExceeded(
                            f"word enumeration exceeded the cap of {word_cap}"
                        )
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return coinv._span_result(rep,
                              [rep.displacement(w) for w in seen.values()])


# ---------------------------------------------------------------------------
# univariate polynomials over Z/p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b (b monic), trimmed of leading zeros."""
    a = [x % p for x in a]
    db = len(b) - 1
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) <= db:
            return a
        f = a[-1]
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p


def poly_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if coeffs[0] == 0:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not poly_rem(list(coeffs), divisor, p):
                return False
    return True


def minimal_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k in packed-integer order.

    The packed integer of c0 + c1 x + ... + x^k is c0 + c1 p + ... + p^k,
    so scanning the low coefficients as a base-p counter visits candidates
    in increasing packed order.
    """
    for t in range(p ** k):
        coeffs, v = [], t
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def frobenius_is_irreducible(poly, p: int) -> bool:
    """The Frobenius criterion: x^(p^k) = x mod f and gcd(x^(p^(k/t)) - x,
    f) = 1 for every prime t dividing k, from all k Frobenius powers.  It
    reuses ff's polynomial helpers; what it checks is the package's
    irreducibility test (Ben-Or's), by a second criterion."""
    from rigiditylab import ff
    k = len(poly) - 1
    if k == 1:
        return True
    frob_steps = {0: [0, 1]}
    for i in range(1, k + 1):
        frob_steps[i] = ff._poly_powmod(frob_steps[i - 1], p, poly, p)
    if ff._poly_trim(list(frob_steps[k])) != [0, 1]:
        return False
    for t in ff._prime_factors(k):
        diff = list(frob_steps[k // t])
        diff[1] = (diff[1] - 1) % p
        if len(ff._poly_gcd(diff, list(poly), p)) > 1:
            return False
    return True


def least_irreducible_by_frobenius(p: int, k: int) -> tuple[int, ...]:
    """The canonical modulus found with :func:`frobenius_is_irreducible`."""
    for t in range(p ** k):
        coeffs, v = [], t
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if coeffs[0] and frobenius_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# root system facts
# ---------------------------------------------------------------------------

def classical_positive_count(letter: str, rank: int) -> int:
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter in ("B", "C"):
        return rank * rank
    if letter == "D":
        return rank * (rank - 1)
    if letter == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if letter == "F":
        return 24
    if letter == "G":
        return 6
    raise ValueError(letter)


# Positive roots in simple-root coordinates, worked out by hand from the
# Cartan matrices used by the package (B2: <a1,a2v> = -2; G2: <a2,a1v> = -3).
B2_POSITIVE = {(1, 0), (0, 1), (1, 1), (1, 2)}
G2_POSITIVE = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def positive_roots_by_reflection(cartan) -> list[tuple[int, ...]]:
    """The positive roots of the Cartan matrix, ordered by height and then
    by coefficient tuple, as the positive part of the Weyl-group orbit of
    the simple roots.

    The orbit is closed under the simple reflections
    s_j(b) = b - <b, alpha_j-check> alpha_j, with
    <b, alpha_j-check> = sum_i b_i cartan[i][j]; no root strings are used.
    """
    rank = len(cartan)
    simple = [tuple(int(t == j) for t in range(rank)) for j in range(rank)]
    orbit = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for j in range(rank):
            pairing = sum(c * cartan[i][j] for i, c in enumerate(b))
            image = tuple(c - pairing * (i == j) for i, c in enumerate(b))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return sorted((r for r in orbit if min(r) >= 0),
                  key=lambda r: (sum(r), r))


def j_type_a(n: int, d: int) -> int:
    """j_d(A_(n-1)) in closed form.

    A torus element of SL_n whose eigenvalues are d-th roots of unity with
    multiplicities m_1, ..., m_d has class dimension n^2 - sum m_i^2, the
    most when the multiplicities are as even as they can be: with
    n = kd + r, 0 <= r < d, r of them k + 1 and d - r of them k.  For
    d >= n (k = 0) that is n^2 - n, a regular element.
    """
    k, r = divmod(n, d)
    return n * n - (r * (k + 1) ** 2 + (d - r) * k * k)


CARTAN_DETERMINANTS = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 7): 8,
    ("B", 2): 2, ("B", 4): 2, ("C", 3): 2, ("D", 4): 4, ("D", 5): 4,
    ("E", 6): 3, ("E", 7): 2, ("E", 8): 1, ("F", 4): 1, ("G", 2): 1,
}


def j_scan_exhaustive(rs, d: int) -> tuple[int, tuple[int, ...]]:
    """(j_d, lexicographically least maximizer) by scanning all of (Z/d)^rank.

    Tries every exponent tuple a with gcd(a_1,...,a_rank, d) = 1; the class
    dimension of the torus element is 2|positive roots| minus two for each
    positive root whose exponent sum vanishes mod d.  Cost d^rank times
    the root count.
    """
    if d == 1:
        return 0, (0,) * rs.rank
    semisimple_dim = 2 * len(rs.positive_roots)
    supports = [
        tuple((i, c) for i, c in enumerate(root) if c)
        for root in rs.positive_roots
    ]
    best = -1
    witness: tuple[int, ...] = ()
    for a in itertools.product(range(d), repeat=rs.rank):
        if math.gcd(*a, d) != 1:
            continue
        killed = 0
        for support in supports:
            if sum(c * a[i] for i, c in support) % d == 0:
                killed += 2
        val = semisimple_dim - killed
        if val > best:
            best = val
            witness = a
            if killed == 0:
                break  # regular witness; no tuple can do better
    assert best >= 0, f"no order-{d} exponent tuple found (rank {rs.rank})"
    return best, witness


def kac_point_count(marks, d: int) -> int:
    """The number of s >= 0 with sum m_i s_i <= d, by counting the
    partitions of d into parts 1 and the marks m_i (each mark a distinct
    kind of part), part kind by part kind."""
    counts = [1] + [0] * d
    for mark in (1, *marks):
        for t in range(mark, d + 1):
            counts[t] += counts[t - mark]
    return counts[d]


def alcove_j_by_order(rs, d: int) -> int:
    """j_d for d >= 2 from the Kac points of order d alone.

    Walks the s >= 0 with sum m_i s_i <= d depth first (m the highest
    root's coefficients), carrying every positive root's value alpha.s;
    a root vanishes at s when alpha.s is 0 or d, and only the s with
    gcd(s, d) = 1 count.  Stops at the first regular point.
    """
    npos = len(rs.positive_roots)
    cols = list(zip(*rs.positive_roots))
    marks = max(rs.positive_roots, key=sum)
    last = rs.rank - 1
    fewest = npos + 1
    # (coordinate, budget left, gcd(d, s before it), root values so far)
    stack = [(0, d, d, (0,) * npos)]
    while stack and fewest:
        i, budget, g, vals = stack.pop()
        for k in range(budget // marks[i] + 1):
            if k:
                vals = tuple(v + c for v, c in zip(vals, cols[i]))
            if i < last:
                stack.append((i + 1, budget - k * marks[i], math.gcd(g, k),
                              vals))
            elif math.gcd(g, k) == 1:
                fewest = min(fewest, vals.count(0) + vals.count(d))
    assert fewest <= npos, f"no order-{d} alcove point (rank {rs.rank})"
    return 2 * (npos - fewest)


# ---------------------------------------------------------------------------
# orders by walking powers
# ---------------------------------------------------------------------------

def order_by_walk(m, projective: bool = False) -> int:
    """Least e >= 1 with m^e the identity (with projective=True: a scalar
    matrix), by multiplying in one more factor m at a time."""
    done = type(m).is_scalar if projective else type(m).is_identity
    bound = m.field.q ** m.rows
    power, e = m, 1
    while not done(power):
        power = power @ m
        e += 1
        if e > bound:
            raise AssertionError(f"walked past q^n = {bound} powers")
    return e


# ---------------------------------------------------------------------------
# random determinant-one matrices and tuples
# ---------------------------------------------------------------------------

def tuple_from_matrices(generators):
    """GroupTuple with declared orders set to the exact projective orders,
    found by walking powers."""
    from rigiditylab import matgrp
    return matgrp.group_tuple(
        generators, [order_by_walk(g, projective=True) for g in generators])


def random_sl_matrix(field, n: int, rng):
    """Random determinant-one matrix: draw until invertible, then scale the
    first row by 1/det."""
    from rigiditylab import ff

    while True:
        vals = [rng.randrange(field.q) for _ in range(n * n)]
        d = ff.Matrix(field, n, n, vals).det()
        if d:
            break
    vals[:n] = field.scale(field.inv(d), vals[:n])
    return ff.Matrix(field, n, n, vals)


@st.composite
def sl_matrices(draw, field, n: int):
    """A determinant-one matrix over field: P L U with the first row
    divided by the determinant, for a drawn permutation matrix P, unit
    lower-triangular L and upper-triangular U with a nonzero diagonal.
    Every invertible matrix has that form, so no draw is rejected (a
    matrix of drawn entries over F_2 with n = 4 is singular about 69 % of
    the time)."""
    from rigiditylab import ff

    entry, unit = st.integers(0, field.q - 1), st.integers(1, field.q - 1)
    perm = draw(st.permutations(range(n)))
    lower = [[draw(entry) if j < i else int(j == i) for j in range(n)]
             for i in range(n)]
    upper = [draw(unit) if j == i else draw(entry) if j > i else 0
             for i in range(n) for j in range(n)]
    m = matmul_entrywise(
        ff.Matrix(field, n, n, [x for i in perm for x in lower[i]]),
        ff.Matrix(field, n, n, upper))
    vals = list(m.vals)
    vals[:n] = field.scale(field.inv(leibniz_det(m)), vals[:n])
    return ff.Matrix(field, n, n, vals)


@st.composite
def sl_tuples(draw, field, n: int, length: int):
    """A drawn tuple with product exactly the identity (the last entry
    solves for the product), declared orders the exact projective orders."""
    from rigiditylab import ff

    mats = [draw(sl_matrices(field, n)) for _ in range(length - 1)]
    prod = ff.Matrix.identity(field, n)
    for m in mats:
        prod = prod @ m
    return tuple_from_matrices(mats + [prod.inverse()])


def random_sl_tuple(field, n: int, length: int, rng):
    """Random tuple with product exactly the identity (last entry solves
    for the product), declared orders the exact projective orders."""
    from rigiditylab import ff
    from rigiditylab.errors import InputError

    if length < 2:
        raise InputError("tuple length must be >= 2")
    mats = [random_sl_matrix(field, n, rng) for _ in range(length - 1)]
    prod = ff.Matrix.identity(field, n)
    for m in mats:
        prod = prod @ m
    mats.append(prod.inverse())
    return tuple_from_matrices(mats)


# ---------------------------------------------------------------------------
# generating pairs by full closure
# ---------------------------------------------------------------------------

def generating_pair_by_full_closure(field, n):
    """The first candidate pair whose full closure has |SL_n(q)| elements."""
    from rigiditylab import matgrp
    want = matgrp.sl_order(field.q, n)
    for a, b in matgrp._pair_candidates(field, n):
        if matgrp.group_closure([a, b], cap=want).size == want:
            return a, b
    raise AssertionError(f"no candidate generates SL_{n}({field.q})")


# ---------------------------------------------------------------------------
# group closure one product at a time
# ---------------------------------------------------------------------------

def projective_key(m) -> tuple:
    """The entries of m divided, one field operation at a time, by its
    first nonzero entry: equal for m and its nonzero scalar multiples
    only."""
    f = m.field
    inv = f.inv(next(v for v in m.vals if v))
    return tuple(f.mul(inv, v) for v in m.vals)


def closure_by_products(gens, cap: int, projective: bool = False):
    """Breadth-first closure, one ``Matrix @`` and one key per product:
    (mats, right) with right[k][i] = index(mats[i] @ gens[k]).  Raises
    WorkCapExceeded on element cap + 1."""
    from rigiditylab.errors import WorkCapExceeded
    from rigiditylab.ff import Matrix
    key = projective_key if projective else Matrix.key
    ident = Matrix.identity(gens[0].field, gens[0].rows)
    mats = [ident]
    index = {key(ident): 0}
    right = tuple([] for _ in gens)
    i = 0
    while i < len(mats):
        for g, perm in zip(gens, right):
            prod = mats[i] @ g
            j = index.get(key(prod))
            if j is None:
                if len(mats) >= cap:
                    raise WorkCapExceeded(f"closure passed {cap} elements")
                j = index[key(prod)] = len(mats)
                mats.append(prod)
            perm.append(j)
        i += 1
    return mats, right


# ---------------------------------------------------------------------------
# group-theoretic oracles on a FiniteGroupTable (index arithmetic only)
# ---------------------------------------------------------------------------

def subgroup_generated(table, idxs) -> int:
    """Size of the subgroup generated by the given element indices."""
    identity = table.mul(0, table.inv(0))
    seen = {identity}
    stack = [identity]
    while stack:
        x = stack.pop()
        for g in idxs:
            y = table.mul(x, g)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def generates_by_closure(table, idxs) -> bool:
    """Whether the elements generate the table's group, by closing them.

    A table that keeps point permutations closes them by
    ``bytes.translate`` into a set until more than half the group is
    reached, which a proper subgroup cannot do; any other table compares
    subgroup_generated with its size.
    """
    if table.perms is None:
        return subgroup_generated(table, idxs) == table.size
    letters = [table.perms[g] + table.pad for g in idxs]
    half = table.size // 2
    seen = {table.perms[0]}
    frontier = [table.perms[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for g in letters:
                y = x.translate(g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > half:
                        return True
                    nxt.append(y)
        frontier = nxt
    return len(seen) == table.size


def direct_census(table, signature):
    """Flat enumeration of relation-satisfying tuples, no class weighting.

    Returns (total_hom, total_epi, {class tuple: (hom, epi)}).
    """
    m = len(signature)
    slots = [[i for i in range(table.size) if signature[j] % table.order_of(i) == 0]
             for j in range(m - 1)]
    last_ok = {i for i in range(table.size)
               if signature[-1] % table.order_of(i) == 0}
    class_map = table.class_of()
    identity = table.mul(0, table.inv(0))
    counts: dict[tuple, list[int]] = {}
    total_hom = total_epi = 0
    for head in itertools.product(*slots):
        prod = identity
        for x in head:
            prod = table.mul(prod, x)
        last = table.inv(prod)
        if last not in last_ok:
            continue
        tup = head + (last,)
        key = tuple(class_map[x] for x in tup)
        cell = counts.setdefault(key, [0, 0])
        cell[0] += 1
        total_hom += 1
        if subgroup_generated(table, tup) == table.size:
            cell[1] += 1
            total_epi += 1
    return total_hom, total_epi, {k: tuple(v) for k, v in counts.items()}


# ---------------------------------------------------------------------------
# 2x2 absolute irreducibility via common stable lines
# ---------------------------------------------------------------------------

def has_common_stable_line(gens) -> bool:
    """True iff the 2x2 matrices share an eigenline over the quadratic
    extension, i.e. iff they are NOT absolutely irreducible."""
    from rigiditylab import ff

    field = gens[0].field
    big = ff.field_create(field.p, field.k * 2)
    add, mul = big.add, big.mul
    mats = [embed_matrix(g, big).vals for g in gens]
    lines = [(1, x) for x in range(big.q)] + [(0, 1)]

    def stable(m, v):
        w0 = add(mul(m[0], v[0]), mul(m[1], v[1]))
        w1 = add(mul(m[2], v[0]), mul(m[3], v[1]))
        return big.sub(mul(v[0], w1), mul(v[1], w0)) == 0

    return any(all(stable(m, v) for m in mats) for v in lines)


# ---------------------------------------------------------------------------
# field embeddings
# ---------------------------------------------------------------------------

def embedding(small, big):
    """The canonical embedding F_{p^k} -> F_{p^(km)}.

    Sends the generator of the small field to the first root (in packed
    order) of the small modulus inside the big field, which makes the map
    deterministic.  Returns a function on packed elements.
    """
    from rigiditylab.errors import InputError

    if small.p != big.p or big.k % small.k != 0:
        raise InputError(f"no embedding {small} -> {big}")
    if small.k == 1:
        # A prime-field constant c packs to the same integer in any extension.
        return lambda x: x
    mod = small.modulus_poly
    root = None
    for v in range(big.q):
        acc = 0
        xp = 1
        for c in mod:
            if c:
                acc = big.add(acc, big.mul(c, xp))
            xp = big.mul(xp, v)
        if acc == 0:
            root = v
            break
    assert root is not None, "splitting field contains a root"
    powers = [1]
    for _ in range(small.k - 1):
        powers.append(big.mul(powers[-1], root))

    def embed(x):
        acc = 0
        for c, w in zip(small.unpack(x), powers):
            if c:
                acc = big.add(acc, big.mul(c, w))
        return acc

    return embed


def embed_matrix(m, big):
    """m with every entry sent through the canonical embedding into big."""
    from rigiditylab import ff

    emb = embedding(m.field, big)
    return ff.Matrix(big, m.rows, m.cols, map(emb, m.vals))
