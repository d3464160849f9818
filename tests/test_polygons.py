"""Edge universes, crossing rules, and multidissection enumeration."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.actions import declared_group_order, rotate_multidissection
from sievelab.polygons import (
    FAMILIES,
    AEdge,
    CDiameter,
    CIntegrated,
    CSegregated,
    DDiameter,
    DOTTED,
    DPairInt,
    DPairSeg,
    SOLID,
    Multidissection,
    edge_table,
    edge_universe,
    edge_weight,
    edges_cross,
    enumerate_classical,
    enumerate_multidissections,
    iter_weighted_assignments,
    min_n,
    polygon_size,
)


def h_ones(n, j):
    """Complete homogeneous symmetric polynomial at n ones."""
    return math.comb(n + j - 1, j) if j >= 0 else 0


def schur_two_row_ones(n, a, b):
    """Two-row Schur polynomial at n ones, by the determinant formula."""
    return h_ones(n, a) * h_ones(n, b) - h_ones(n, a + 1) * h_ones(n, b - 1)


# --- independent crossing oracle -------------------------------------------

def oracle_chords(family, n, e):
    if isinstance(e, AEdge):
        return [(e.i, e.j)]
    if isinstance(e, (CDiameter, DDiameter)):
        return [(e.a, e.a + n)]
    if isinstance(e, (CSegregated, DPairSeg)):
        return [(e.a, e.b), (e.a + n, e.b + n)]
    return [(e.a, e.b + n), (e.b, e.a + n)]


def oracle_interleave(c1, c2):
    a, b = sorted(c1)
    c, d = sorted(c2)
    if len({a, b, c, d}) < 4:
        return False
    return a < c < b < d or c < a < d < b


def oracle_cross(family, n, e1, e2):
    if isinstance(e1, DDiameter) and isinstance(e2, DDiameter):
        return e1.a != e2.a and e1.color != e2.color
    for c1 in oracle_chords(family, n, e1):
        for c2 in oracle_chords(family, n, e2):
            if oracle_interleave(c1, c2):
                return True
    return False


@pytest.mark.parametrize("family,n", [
    ("A", 4), ("A", 6), ("C", 2), ("C", 4), ("D", 2), ("D", 4),
    ("classicalA", 6), ("classicalBC", 3), ("classicalD", 3),
])
def test_crossing_matches_oracle(family, n):
    universe = edge_universe(family, n)
    for e1, e2 in combinations(universe, 2):
        assert edges_cross(family, n, e1, e2) == oracle_cross(family, n, e1, e2), (e1, e2)
    for e in universe:
        assert not edges_cross(family, n, e, e)


@pytest.mark.parametrize("family", FAMILIES)
def test_crossing_masks_match_edges_cross(family):
    for n in range(min_n(family), min_n(family) + 4):
        table = edge_table(family, n)
        for i, e1 in enumerate(table.edges):
            for j, e2 in enumerate(table.edges):
                assert (table.crosses[i] >> j & 1) == edges_cross(family, n, e1, e2)
            assert table.crosses[i] >> len(table.edges) == 0


def test_d_diameter_rule():
    # same index, different colors: compatible; different index and color: not
    assert not edges_cross("D", 3, DDiameter(1, SOLID), DDiameter(1, DOTTED))
    assert edges_cross("D", 3, DDiameter(1, SOLID), DDiameter(2, DOTTED))
    assert not edges_cross("D", 3, DDiameter(1, SOLID), DDiameter(2, SOLID))


# --- reference edge order -----------------------------------------------------

def edge_sort_key(e):
    """The per-class sort key that defined canonical edge order before
    the position in the edge universe did."""
    if isinstance(e, AEdge):
        return (0, e.i, e.j, 0)
    if isinstance(e, CDiameter):
        return (0, e.a, 0, 0)
    if isinstance(e, CSegregated):
        return (1, e.a, e.b, 0)
    if isinstance(e, CIntegrated):
        return (2, e.a, e.b, 0)
    if isinstance(e, DDiameter):
        return (0, e.a, 0, 0 if e.color == SOLID else 1)
    if isinstance(e, DPairSeg):
        return (1, e.a, e.b, 0)
    if isinstance(e, DPairInt):
        return (2, e.a, e.b, 0)
    raise TypeError("not an edge: %r" % (e,))


# --- universes ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 8))
def test_universe_sizes_A(n):
    assert len(edge_universe("A", n)) == math.comb(n, 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_universe_sizes_C_D(n):
    assert len(edge_universe("C", n)) == n + n * (n - 1)
    assert len(edge_universe("D", n)) == 2 * n + n * (n - 1)


def test_universe_sorted_and_cached():
    u = edge_universe("D", 3)
    assert list(u) == sorted(u, key=edge_sort_key)
    assert edge_universe("D", 3) is u


def test_classical_universes_exclude_boundary():
    # hexagon has 9 diagonals
    assert len(edge_universe("classicalA", 6)) == 9
    # 3 diameters, 1 segregated pair, 2 integrated pairs
    assert len(edge_universe("classicalBC", 3)) == 6
    assert len(edge_universe("classicalD", 3)) == 9


def test_polygon_size():
    assert polygon_size("A", 5) == 5
    assert polygon_size("C", 3) == 6
    assert polygon_size("classicalD", 4) == 8


def test_edge_weights():
    assert edge_weight("A", AEdge(1, 3)) == 1
    assert edge_weight("C", CDiameter(2)) == 1
    assert edge_weight("C", CSegregated(1, 3)) == 1
    assert edge_weight("C", CIntegrated(1, 3)) == 1
    assert edge_weight("D", DDiameter(1, SOLID)) == 1
    assert edge_weight("D", DPairSeg(1, 3)) == 2
    assert edge_weight("D", DPairInt(1, 3)) == 2


def test_edge_classes_are_distinct():
    # equal field values on different kinds must not compare equal
    assert CSegregated(1, 2) != CIntegrated(1, 2)
    assert DPairSeg(1, 2) != DPairInt(1, 2)
    assert DDiameter(1, SOLID) != DDiameter(1, DOTTED)
    assert len({CSegregated(1, 2), CIntegrated(1, 2)}) == 2
    d = {DPairSeg(1, 2): "s", DPairInt(1, 2): "i"}
    assert d[DPairSeg(1, 2)] == "s" and d[DPairInt(1, 2)] == "i"


def test_edge_sort_key_total_order():
    # every universe lists its edges in strictly increasing reference order
    for family in FAMILIES:
        for n in range(min_n(family), 8):
            keys = [edge_sort_key(e) for e in edge_universe(family, n)]
            assert keys == sorted(set(keys)), (family, n)


# --- enumeration counts ------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("k", range(0, 4))
def test_count_A(n, k):
    got = len(enumerate_multidissections("A", n, k))
    assert got == schur_two_row_ones(n, k, k)


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("k", range(0, 4))
def test_count_C(n, k):
    got = len(enumerate_multidissections("C", n, k))
    assert got == h_ones(n, k) ** 2


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("k", range(0, 5))
def test_count_D(n, k):
    got = len(enumerate_multidissections("D", n, k))
    want = sum((k - 2 * l + 1) * schur_two_row_ones(n, k - l, l)
               for l in range(0, k // 2 + 1))
    assert got == want


@pytest.mark.parametrize("k", range(0, 11))
def test_count_D_digon(k):
    # the digon only has the two diameters at index 1
    assert len(enumerate_multidissections("D", 1, k)) == k + 1


def test_count_classicalA_hexagon():
    counts = [len(enumerate_classical("classicalA", 6, k)) for k in range(5)]
    assert counts == [1, 9, 21, 14, 0]


def test_classicalA_matches_brute_force():
    for n in range(3, 8):
        diagonals = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
                     if not (i == 1 and j == n)]
        for k in range(0, 5):
            brute = 0
            for sub in combinations(diagonals, k):
                if all(not oracle_interleave(c1, c2)
                       for c1, c2 in combinations(sub, 2)):
                    brute += 1
            assert len(enumerate_classical("classicalA", n, k)) == brute


def test_classical_rejects_multiplicity_and_boundary():
    with pytest.raises(ValueError):
        Multidissection("classicalA", 6, {AEdge(1, 3): 2})
    with pytest.raises(ValueError):
        Multidissection("classicalA", 6, {AEdge(1, 2): 1})
    # fine in the weighted family
    Multidissection("A", 6, {AEdge(1, 3): 2})
    Multidissection("A", 6, {AEdge(1, 2): 1})


def test_multidissection_validation():
    with pytest.raises(ValueError, match=r"crossing edges AEdge\(i=1, j=3\) "
                                         r"and AEdge\(i=2, j=4\)"):
        Multidissection("A", 5, {AEdge(2, 4): 1, AEdge(1, 3): 1})
    with pytest.raises(ValueError):
        Multidissection("C", 3, {AEdge(1, 3): 1})
    with pytest.raises(ValueError):
        Multidissection("A", 5, {AEdge(1, 6): 1})
    # zero multiplicities are dropped silently
    md = Multidissection("A", 5, {AEdge(1, 3): 0, AEdge(1, 4): 2})
    assert md.items() == [(AEdge(1, 4), 2)]


def test_validation_names_the_first_crossing_pair():
    # pairs are taken in canonical edge order: (1,4) crosses (2,5) and
    # (3,5), and (2,5) crosses (3,6); the first of these pairs is named
    support = {AEdge(3, 6): 1, AEdge(3, 5): 1, AEdge(2, 5): 1, AEdge(1, 4): 1}
    with pytest.raises(ValueError, match=r"crossing edges AEdge\(i=1, j=4\) "
                                         r"and AEdge\(i=2, j=5\)$"):
        Multidissection("A", 6, support)
    # the least edge crosses nothing, so the pair after it is named
    with pytest.raises(ValueError, match=r"crossing edges AEdge\(i=2, j=5\) "
                                         r"and AEdge\(i=3, j=6\)$"):
        Multidissection("A", 6, {AEdge(1, 2): 1, AEdge(2, 5): 1, AEdge(3, 6): 1})


def test_foreign_edge_rejected_at_zero_multiplicity():
    # membership is checked before a zero multiplicity is dropped
    with pytest.raises(ValueError, match="not valid for family C"):
        Multidissection("C", 3, {AEdge(1, 3): 0})
    with pytest.raises(ValueError, match="not valid for family classicalA"):
        Multidissection("classicalA", 6, {AEdge(1, 2): 0})  # boundary edge


@pytest.mark.parametrize("family,n,support", [
    ("A", 4, {AEdge(1, 2): 1.5}),
    ("classicalA", 5, {AEdge(1, 3): 0.5}),
    ("A", 4, {AEdge(1, 2): 2.0}),
    ("A", 4, {AEdge(1, 2): True}),
    ("A", 4, {AEdge(1, 2): "1"}),
])
def test_non_integer_multiplicity_rejected(family, n, support):
    # a multiplicity is a count: nothing is truncated or coerced to int
    with pytest.raises(ValueError, match="is not an integer"):
        Multidissection(family, n, support)


def test_multidissection_weighted_count_and_key():
    md = Multidissection("D", 3, {DPairSeg(1, 3): 1, DDiameter(1, SOLID): 2})
    assert md.edge_count() == 4
    same = Multidissection("D", 3, {DDiameter(1, SOLID): 2, DPairSeg(1, 3): 1})
    assert md.key() == same.key()
    assert [e for e, _ in same.items()] == sorted(same.support, key=edge_sort_key)
    assert md == same
    assert len({md, same}) == 1
    # keys are orderable across same-family multidissections
    all_keys = [m.key() for m in enumerate_multidissections("D", 2, 2)]
    assert sorted(all_keys) == sorted(set(all_keys))


def test_enumeration_has_no_duplicates():
    for family, n, k in [("A", 5, 3), ("C", 3, 3), ("D", 3, 3)]:
        mds = enumerate_multidissections(family, n, k)
        assert len({m.key() for m in mds}) == len(mds)
        for md in mds:
            assert md.edge_count() == k


# --- reference enumerator -----------------------------------------------------

def reference_weighted_assignments(weights, target, crossing_pairs, max_mult):
    """The enumerator before crossing masks: each candidate edge is tested
    against every chosen edge through the set of crossing index pairs."""
    chosen = []

    def rec(start, remaining):
        if remaining == 0:
            yield tuple(chosen)
            return
        for idx in range(start, len(weights)):
            w = weights[idx]
            if w == 0 or w > remaining:
                continue
            if any((j, idx) in crossing_pairs for j, _ in chosen):
                continue
            top = remaining // w
            if max_mult is not None:
                top = min(top, max_mult)
            chosen.append((idx, 0))
            for m in range(1, top + 1):
                chosen[-1] = (idx, m)
                yield from rec(idx + 1, remaining - m * w)
            chosen.pop()

    yield from rec(0, target)


@st.composite
def weighted_systems(draw):
    """Random weights (0 included) and a random crossing relation."""
    weights = draw(st.lists(st.integers(0, 3), max_size=9))
    pairs = list(combinations(range(len(weights)), 2))
    crossing = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return weights, crossing


@settings(max_examples=300, deadline=None)
@given(weighted_systems(), st.integers(0, 6), st.sampled_from([None, 1, 2]))
def test_mask_enumerator_matches_pair_reference(system, target, max_mult):
    weights, crossing = system
    crosses = [0] * len(weights)
    for i, j in crossing:
        crosses[i] |= 1 << j
        crosses[j] |= 1 << i
    assert list(iter_weighted_assignments(weights, target, crosses, max_mult)) \
        == list(reference_weighted_assignments(weights, target, crossing, max_mult))


# --- oracle for the objects built without validation ------------------------

def small_cases(family):
    """(n, k) for the three smallest polygons of the family, k <= 3."""
    return [(n, k) for n in range(min_n(family), min_n(family) + 3)
            for k in range(4)]


@pytest.mark.parametrize("family", FAMILIES)
def test_enumerated_objects_pass_full_validation(family):
    for n, k in small_cases(family):
        for md in enumerate_multidissections(family, n, k):
            assert Multidissection(family, n, md.support) == md


@pytest.mark.parametrize("family", FAMILIES)
def test_rotated_objects_pass_full_validation(family):
    steps = (1, 2) if family == "classicalBC" else (None,)
    for n, k in small_cases(family):
        mds = enumerate_multidissections(family, n, k)
        for step in steps:
            for d in range(1, declared_group_order(family, n) + 1):
                for md in mds:
                    image = rotate_multidissection(md, d, step)
                    assert Multidissection(family, n, image.support) == image


def test_to_json_dict_shape():
    md = Multidissection("C", 2, {CDiameter(1): 1, CSegregated(1, 2): 2})
    d = md.to_json_dict()
    assert d["family"] == "C" and d["n"] == 2
    assert all(len(item) == 2 for item in d["edges"])
