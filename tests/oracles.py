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
reduced, not the reduction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


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

def leibniz_det(m):
    """Determinant of an ff.Matrix as the signed sum over all n!
    permutations, with the field's scalar add, sub and mul."""
    from rigiditylab import ff

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
            term = F.mul(term, m[i, j].value)
        total = F.sub(total, term) if (n - cycles) % 2 else F.add(total, term)
    return ff.FieldElement(F, total)


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
                acc = F.add(acc, F.mul(a[i, t].value, b[t, j].value))
            out.append(ff.FieldElement(F, acc))
    return ff.Matrix(F, a.rows, b.cols, out)


def norm_linear(ad, a: int):
    """sum_{j<a} ad^j, one power and one sum per term."""
    from rigiditylab import ff

    F, d = ad.field, ad.rows
    total = ff.Matrix(F, d, d, [F.zero] * (d * d))
    power = ff.Matrix.identity(F, d)
    for _ in range(a):
        total = ff.Matrix(F, d, d, [ff.FieldElement(F, F.add(x.value, y.value))
                                    for x, y in zip(total.entries,
                                                    power.entries)])
        power = matmul_entrywise(power, ad)
    return total


def relator_linear(t):
    """The stacked relator matrix of rigidity.cocycle_spaces with linear
    norm sums: block (i, i) is sum_{j<a_i} Ad(c_i)^j, and the last block
    row is Ad(c_1 ... c_(i-1)) for each i."""
    from rigiditylab import adjoint, ff, rigidity

    t = rigidity.central_lift(t)
    rep = adjoint.adjoint_rep(t.field, t.n)
    F, d, m = t.field, rep.dim, t.length
    zero = ff.Matrix(F, d, d, [F.zero] * (d * d))
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
    return coinv._span_result(rep, [rep.ad_matrix(w) for w in seen.values()])


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
    mats = [[x.value for x in embed_matrix(g, big).entries] for g in gens]
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
    deterministic.  Returns a function on elements.
    """
    from rigiditylab import ff
    from rigiditylab.errors import InputError

    if small.p != big.p or big.k % small.k != 0:
        raise InputError(f"no embedding {small} -> {big}")
    if small.k == 1:
        # A prime-field constant c packs to the same integer in any extension.
        return lambda x: ff.FieldElement(big, x.value)
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
        for c, w in zip(x.coeffs, powers):
            if c:
                acc = big.add(acc, big.mul(c, w))
        return ff.FieldElement(big, acc)

    return embed


def embed_matrix(m, big):
    """m with every entry sent through the canonical embedding into big."""
    from rigiditylab import ff

    emb = embedding(m.field, big)
    return ff.Matrix(big, m.rows, m.cols, [emb(e) for e in m.entries])
