"""Root systems, Cartan determinants, j_d tables, and rigid tuples."""

import itertools
import math
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from rigiditylab.errors import InputError, WorkCapExceeded
from rigiditylab import rootdata


ALL_SYSTEMS = ([("A", r) for r in range(1, 8)]
               + [("B", r) for r in range(2, 6)]
               + [("C", r) for r in range(2, 6)]
               + [("D", r) for r in range(3, 7)]
               + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("letter,rank", ALL_SYSTEMS)
def test_positive_root_counts_match_closed_forms(letter, rank):
    rs = rootdata.build(letter, rank)
    assert len(rs.positive_roots) == oracles.classical_positive_count(letter, rank)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("letter,rank", [("A", 0), ("B", 1), ("C", 1),
                                         ("D", 2), ("E", 5), ("E", 9),
                                         ("F", 3), ("G", 3), ("H", 2)])
def test_unknown_or_undersized_systems_rejected(letter, rank):
    with pytest.raises(InputError):
        rootdata.build(letter, rank)


@pytest.mark.parametrize("letter,rank", [("A", 20), ("B", 9), ("D", 12),
                                         ("E", 8)])
def test_build_charges_the_cartan_matrix_and_the_root_pairings(
        letter, rank, monkeypatch):
    cost = rank * rank + rank * oracles.classical_positive_count(letter, rank)
    assert rootdata.build(letter, rank, cost).rank == rank
    # refused before any of it is built
    monkeypatch.setattr(rootdata, "_cartan_matrix", None)
    with pytest.raises(WorkCapExceeded):
        rootdata.build(letter, rank, cost - 1)


def test_b2_and_g2_root_sets_pinned():
    assert set(rootdata.build("B", 2).positive_roots) == oracles.B2_POSITIVE
    assert set(rootdata.build("G", 2).positive_roots) == oracles.G2_POSITIVE


# every valid system up to rank 8
RANK_8_SYSTEMS = ([("A", r) for r in range(1, 9)]
                  + [(letter, r) for letter in "BC" for r in range(2, 9)]
                  + [("D", r) for r in range(3, 9)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("letter,rank", RANK_8_SYSTEMS)
def test_positive_roots_match_the_weyl_orbit(letter, rank):
    rs = rootdata.build(letter, rank)
    assert list(rs.positive_roots) == oracles.positive_roots_by_reflection(
        rs.cartan)


@pytest.mark.parametrize("letter,rank", ALL_SYSTEMS)
def test_root_heights_and_highest_root(letter, rank):
    rs = rootdata.build(letter, rank)
    heights = [sum(r) for r in rs.positive_roots]
    assert all(h >= 1 for h in heights)
    assert heights.count(1) == rank
    assert max(heights) == rs.coxeter_number - 1
    assert heights.count(max(heights)) == 1


@pytest.mark.parametrize("letter,rank", ALL_SYSTEMS)
def test_dimension_and_coxeter_number_consistency(letter, rank):
    rs = rootdata.build(letter, rank)
    npos = len(rs.positive_roots)
    assert rs.dim_g == rank + 2 * npos
    assert rs.coxeter_number * rank == 2 * npos


def test_dimensions_pinned():
    expected = {("A", 1): 3, ("A", 2): 8, ("B", 2): 10, ("G", 2): 14,
                ("D", 4): 28, ("F", 4): 52, ("E", 6): 78, ("E", 7): 133,
                ("E", 8): 248}
    for (letter, rank), dim in expected.items():
        assert rootdata.build(letter, rank).dim_g == dim


@pytest.mark.parametrize("letter,rank", ALL_SYSTEMS)
def test_cartan_determinant_matches_fraction_elimination(letter, rank):
    rs = rootdata.build(letter, rank)
    assert rootdata.cartan_det(rs) == oracles.exact_determinant(rs.cartan)


def test_cartan_determinants_pinned():
    for (letter, rank), det in oracles.CARTAN_DETERMINANTS.items():
        assert rootdata.cartan_det(rootdata.build(letter, rank)) == det


@pytest.mark.parametrize("letter,rank", (
    [(letter, r) for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for r in range(low, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]))
def test_every_leading_principal_minor_of_a_cartan_matrix_is_positive(
        letter, rank):
    # each Bareiss pivot of cartan_det is one of these minors, which is why
    # it needs no row swaps
    cartan = rootdata.build(letter, rank).cartan
    for k in range(1, rank + 1):
        assert oracles.exact_determinant([row[:k] for row in cartan[:k]]) > 0


# ---------------------------------------------------------------------------
# j_d scan
# ---------------------------------------------------------------------------

def test_j_values_pinned():
    a1 = rootdata.build("A", 1)
    a2 = rootdata.build("A", 2)
    assert rootdata.j_scan(a1, 1).j == 0
    for d in (2, 3, 5, 17, 100):
        assert rootdata.j_scan(a1, d).j == 2
    assert rootdata.j_scan(a2, 2).j == 4
    assert rootdata.j_scan(a2, 3).j == 6
    assert rootdata.j_scan(a2, 3).witness == (1, 1)


def _killed_count(rs, d, a):
    return sum(1 for root in rs.positive_roots
               if sum(c * x for c, x in zip(root, a)) % d == 0)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_j_scan_witness_attains_the_maximum(letter, rank):
    rs = rootdata.build(letter, rank)
    npos = len(rs.positive_roots)
    for d in range(2, 7):
        entry = rootdata.j_scan(rs, d)
        assert math.gcd(math.gcd(*entry.witness) if rank > 1 else entry.witness[0],
                        d) == 1
        assert entry.j == 2 * (npos - _killed_count(rs, d, entry.witness))
        best = max(2 * (npos - _killed_count(rs, d, a))
                   for a in itertools.product(range(d), repeat=rank)
                   if math.gcd(math.gcd(*a, d) if rank > 1 else a[0], d) == 1)
        assert entry.j == best


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_j_value_invariant_under_unit_scaling(letter, rank):
    rs = rootdata.build(letter, rank)
    for d in (4, 5, 6):
        entry = rootdata.j_scan(rs, d)
        for u in range(1, d):
            if math.gcd(u, d) != 1:
                continue
            scaled = tuple(u * x % d for x in entry.witness)
            assert _killed_count(rs, d, scaled) == _killed_count(rs, d, entry.witness)


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("A", 3),
                                         ("B", 2), ("B", 3), ("C", 3),
                                         ("D", 3), ("G", 2)])
def test_j_value_bounded_by_regular_dimension(letter, rank):
    rs = rootdata.build(letter, rank)
    ceiling = rs.dim_g - rs.rank
    for d in range(1, 7):
        assert rootdata.j_scan(rs, d).j <= ceiling


def test_type_a_j_matches_its_closed_form():
    for n in range(2, 10):
        rs = rootdata.build("A", n - 1)
        assert [rootdata.j_scan(rs, d).j for d in range(1, 25)] == [
            oracles.j_type_a(n, d) for d in range(1, 25)]
    # the table alone, without the witness search, reaches further
    for n in range(2, 13):
        rs = rootdata.build("A", n - 1)
        rootdata._walked(rs, 40)
        assert [rootdata._alcove_j(rs, d) for d in range(2, 41)] == [
            oracles.j_type_a(n, d) for d in range(2, 41)]


# The per-order walk visits the Kac points of order d, each at the cost
# of the root count: checked wherever that is at most PER_ORDER_EVALS, and
# at the Coxeter number h, where the ceiling starts.
PER_ORDER_EVALS = 10 ** 5


@pytest.mark.parametrize("letter,rank", RANK_8_SYSTEMS)
def test_j_table_matches_the_per_order_walk(letter, rank):
    rs = rootdata.build(letter, rank)
    rootdata._walked(rs, 24)
    orders = [d for d in range(2, 25)
              if d == rs.coxeter_number
              or (oracles.kac_point_count(rs.positive_roots[-1], d)
                  * len(rs.positive_roots) <= PER_ORDER_EVALS)]
    assert [rootdata._alcove_j(rs, d) for d in orders] == [
        oracles.alcove_j_by_order(rs, d) for d in orders]


@pytest.mark.parametrize("letter,rank,top", [("A", 3, 3), ("B", 4, 6),
                                             ("G", 2, 5), ("F", 4, 11),
                                             ("E", 6, 11), ("E", 8, 9)])
def test_walk_evaluates_each_point_once(letter, rank, top, monkeypatch):
    rs = rootdata.build(letter, rank)
    gcds = []

    def counting_gcd(a, b):
        gcds.append(1)
        return math.gcd(a, b)

    # one gcd per node: the walk visits the nodes the work meter charges
    monkeypatch.setattr(rootdata, "math",
                        types.SimpleNamespace(gcd=counting_gcd))
    leaves = sum(1 for _ in rootdata._kac_points(rs, top))
    marks = rs.positive_roots[-1]
    assert leaves == oracles.kac_point_count(marks, top)
    assert len(gcds) == rootdata._walk_nodes(rs, top) == sum(
        oracles.kac_point_count(marks[:i], top) for i in range(1, rank + 1))


# Systems checked against the exhaustive scan, each for every d with
# d^rank * |positive roots| <= ORACLE_EVALS.
ORACLE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                  ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]
ORACLE_EVALS = 2 * 10 ** 6


def _oracle_d_max(letter, rank):
    npos = len(rootdata.build(letter, rank).positive_roots)
    d = 1
    while (d + 1) ** rank * npos <= ORACLE_EVALS:
        d += 1
    return d


@st.composite
def _system_and_order(draw):
    letter, rank = draw(st.sampled_from(ORACLE_SYSTEMS))
    d_max = _oracle_d_max(letter, rank)
    # half the draws stay at small d, where j_d still varies
    d = draw(st.one_of(st.integers(1, min(d_max, 12)), st.integers(1, d_max)))
    return letter, rank, d


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_system_and_order())
def test_j_scan_matches_exhaustive_scan(case):
    letter, rank, d = case
    rs = rootdata.build(letter, rank)
    assert tuple(rootdata.j_scan(rs, d)) == oracles.j_scan_exhaustive(rs, d)


# the E7 and E8 scans of the rootdata-exceptional benchmark workload
@pytest.mark.parametrize("letter,rank,d", [("E", 7, d) for d in range(2, 5)]
                         + [("E", 8, d) for d in range(2, 4)])
def test_benchmark_exceptional_scans_match_exhaustive_scan(letter, rank, d):
    rs = rootdata.build(letter, rank)
    assert tuple(rootdata.j_scan(rs, d)) == oracles.j_scan_exhaustive(rs, d)


def test_rigid_tuples_j_values_match_exhaustive_scan(monkeypatch):
    f4 = rootdata.build("F", 4)
    seen = {}
    alcove_j = rootdata._alcove_j

    def recording(rs, d):
        seen[d] = alcove_j(rs, d)
        return seen[d]

    monkeypatch.setattr(rootdata, "_alcove_j", recording)
    res = rootdata.rigid_tuples(f4, 3, 12)
    oracle = {d: oracles.j_scan_exhaustive(f4, d)[0] for d in range(1, 13)}
    assert seen == {d: j for d, j in oracle.items() if d >= 2}
    assert res.plateau == min(d for d, j in oracle.items()
                              if j == f4.dim_g - f4.rank)
    assert res.tuples == tuple(
        t for t in itertools.combinations_with_replacement(range(2, 13), 3)
        if sum(oracle[a] for a in t) == 2 * f4.dim_g)


def test_class_dim_table_checks_every_cap_before_any_walk(monkeypatch):
    # d = 5 is the first order whose witness search, 5^8 * 120, is above
    # the cap
    e8 = rootdata.build("E", 8)
    with pytest.raises(WorkCapExceeded) as by_scan:
        rootdata.j_scan(e8, 5, work_cap=10_000_000)

    def ran(*args):
        raise AssertionError("walked or searched before the cap check")

    monkeypatch.setattr(rootdata, "_walked", ran)
    monkeypatch.setattr(rootdata, "_least_leaf", ran)
    with pytest.raises(WorkCapExceeded) as by_table:
        rootdata.class_dim_table(e8, 5, work_cap=10_000_000)
    assert str(by_table.value) == str(by_scan.value)


def test_class_dim_table_reaches_plateau():
    a2 = rootdata.build("A", 2)
    table = rootdata.class_dim_table(a2, 9)
    got = dict((d, e.j) for d, e in table.entries)
    assert got[1] == 0 and got[2] == 4
    assert all(got[d] == 6 for d in range(3, 10))


def test_j_scan_work_cap():
    e8 = rootdata.build("E", 8)
    with pytest.raises(WorkCapExceeded):
        rootdata.j_scan(e8, 2, work_cap=1000)


# ---------------------------------------------------------------------------
# rigid tuple enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a_max", [2, 3, 5, 7, 8])
def test_a1_rigid_tuple_count_closed_form(a_max):
    # every entry contributes j = 2 and 2*dim = 6, so all non-decreasing
    # triples from {2..a_max} qualify: C(a_max + 1, 3) multisets
    res = rootdata.rigid_tuples(rootdata.build("A", 1), 3, a_max)
    assert len(res.tuples) == math.comb(a_max + 1, 3)
    assert res.plateau == 2
    assert all(2 <= a <= a_max for t in res.tuples for a in t)
    assert all(tuple(sorted(t)) == t for t in res.tuples)
    assert len(set(res.tuples)) == len(res.tuples)


def test_a1_rigid_tuple_count_pinned():
    res = rootdata.rigid_tuples(rootdata.build("A", 1), 3, 7)
    assert len(res.tuples) == 56


@pytest.mark.parametrize("letter,rank,n,a_max",
                         [("A", 2, 3, 3), ("A", 2, 3, 4), ("A", 2, 4, 4),
                          ("G", 2, 3, 6), ("B", 2, 3, 8)])
def test_rigid_tuples_match_direct_recount(letter, rank, n, a_max):
    rs = rootdata.build(letter, rank)
    res = rootdata.rigid_tuples(rs, n, a_max)
    js = {d: rootdata.j_scan(rs, d).j for d in range(2, a_max + 1)}
    expected = tuple(
        t for t in itertools.combinations_with_replacement(range(2, a_max + 1), n)
        if sum(js[a] for a in t) == 2 * rs.dim_g)
    assert res.tuples == expected


def test_a2_classical_triple_found():
    res = rootdata.rigid_tuples(rootdata.build("A", 2), 3, 3)
    assert res.tuples == ((2, 3, 3),)
    assert res.plateau == 3


@pytest.mark.parametrize("kinds, n", [(1, 3), (1, 40), (2, 3), (5, 1),
                                      (11, 3), (11, 40), (40, 11)])
def test_multiset_count_is_the_binomial(kinds, n):
    want = math.comb(kinds + n - 1, n)
    assert rootdata._multisets(kinds, n, None) == want
    assert rootdata._multisets(kinds, n, want) == want
    assert rootdata._multisets(kinds, n, want - 1) > want - 1


def test_rigid_tuples_work_cap_counts_alcove_and_tuples():
    # the walk runs to h - 1 = 5; its nodes are the prefixes (s_1) and
    # (s_1, s_2) with 3 s_1 <= 5 and 3 s_1 + 2 s_2 <= 5 (marks 3, 2)
    rs = rootdata.build("G", 2)
    marks = rs.positive_roots[-1]
    nodes = sum(
        1 for i in range(1, rs.rank + 1)
        for s in itertools.product(range(rs.coxeter_number), repeat=i)
        if sum(m * x for m, x in zip(marks, s)) < rs.coxeter_number)
    assert nodes == 2 + 5
    cost = nodes * len(rs.positive_roots) + 3 * math.comb(7 + 3 - 1, 3)
    assert rootdata.rigid_tuples(rs, 3, 8, work_cap=cost).tuples
    with pytest.raises(WorkCapExceeded):
        rootdata.rigid_tuples(rs, 3, 8, work_cap=cost - 1)


def test_rigid_tuples_input_validation():
    a1 = rootdata.build("A", 1)
    with pytest.raises(InputError):
        rootdata.rigid_tuples(a1, 1, 5)
    with pytest.raises(InputError):
        rootdata.rigid_tuples(a1, 3, 1)
