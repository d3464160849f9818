"""Edge universes, crossing rules, and multidissection enumeration."""

import gc
import math
from collections import Counter
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
    edge_chords,
    edge_label,
    edge_table,
    edge_universe,
    edge_weight,
    edges_cross,
    enumerate_classical,
    enumerate_multidissections,
    iter_weighted_assignments,
    min_n,
    polygon_size,
    weighted_assignment_sum,
)
from sievelab.qseries import IntLaurentPoly


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


# --- reference edge labels ---------------------------------------------------

def reference_edge_label(e):
    """The per-class JSON label that the generic label replaced."""
    if isinstance(e, AEdge):
        return {"kind": "edge", "i": e.i, "j": e.j}
    if isinstance(e, CDiameter):
        return {"kind": "diameter", "a": e.a}
    if isinstance(e, CSegregated):
        return {"kind": "segregated", "a": e.a, "b": e.b}
    if isinstance(e, CIntegrated):
        return {"kind": "integrated", "a": e.a, "b": e.b}
    if isinstance(e, DDiameter):
        return {"kind": "diameter", "a": e.a, "color": e.color}
    if isinstance(e, DPairSeg):
        return {"kind": "cs_segregated", "a": e.a, "b": e.b}
    if isinstance(e, DPairInt):
        return {"kind": "cs_integrated", "a": e.a, "b": e.b}
    raise TypeError("not an edge: %r" % (e,))


@pytest.mark.parametrize("family", FAMILIES)
def test_edge_labels_match_reference(family):
    # key order is part of the JSON output, so items are compared in order
    for n in range(min_n(family), min_n(family) + 4):
        table = edge_table(family, n)
        for i, e in enumerate(table.edges):
            want = list(reference_edge_label(e).items())
            assert list(edge_label(e).items()) == want, e
            assert list(table.labels[i].items()) == want, e
            listed = Multidissection(family, n, {e: 1}).to_json_dict()
            assert list(listed["edges"][0]["edge"].items()) == want, e


def test_edge_label_rejects_non_edges():
    with pytest.raises(TypeError, match="not an edge"):
        edge_label((1, 2))


def test_json_labels_are_copies():
    table = edge_table("D", 3)
    first = Multidissection("D", 3, {DDiameter(1, SOLID): 2})
    second = Multidissection("D", 3, {DDiameter(1, SOLID): 1, DPairSeg(1, 3): 1})
    label = first.to_json_dict()["edges"][0]["edge"]
    label["kind"] = "changed"
    label["a"] = 99
    assert second.to_json_dict()["edges"][0]["edge"] \
        == {"kind": "diameter", "a": 1, "color": SOLID}
    assert first.to_json_dict()["edges"][0]["edge"]["kind"] == "diameter"
    assert table.labels[table.index[DDiameter(1, SOLID)]] \
        == {"kind": "diameter", "a": 1, "color": SOLID}


@pytest.mark.parametrize("family", FAMILIES)
def test_chord_index_finds_every_chord(family):
    for n in range(min_n(family), min_n(family) + 4):
        table = edge_table(family, n)
        for i, e in enumerate(table.edges):
            # a label names its shape, with a "cs_" prefix on D's pairs
            assert table.shapes[i] \
                == reference_edge_label(e)["kind"].removeprefix("cs_")
            for chord in edge_chords(family, n, e):
                assert table.chord_index[chord, getattr(e, "color", None)] == i


# --- edges of another family or polygon -------------------------------------

@pytest.mark.parametrize("rule,args", [
    (edge_chords, ("A", 4, AEdge(1, 9))),
    (edge_chords, ("C", 3, DDiameter(1, SOLID))),
    (edge_chords, ("classicalA", 6, AEdge(1, 2))),
    (edge_chords, ("D", 3, CSegregated(1, 2))),
    (edge_weight, ("D", CSegregated(1, 2))),
    (edge_weight, ("A", DPairSeg(1, 2))),
    (edge_weight, ("classicalBC", AEdge(1, 3))),
    (edges_cross, ("A", 4, AEdge(1, 3), CDiameter(1))),
    (edges_cross, ("A", 4, CDiameter(1), AEdge(1, 3))),
    (edges_cross, ("C", 3, CDiameter(1), CDiameter(4))),
    (edges_cross, ("D", 3, DDiameter(1, SOLID), CDiameter(1))),
], ids=lambda x: getattr(x, "__name__", None))
def test_foreign_edge_rejected_by_per_edge_rules(rule, args):
    # an edge of another family or polygon is rejected, never
    # reinterpreted through its fields
    with pytest.raises(ValueError, match="is not valid for family %s"
                                         % args[0]):
        rule(*args)


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


def test_multiplicity_reads_the_support_and_rejects_foreign_edges():
    md = Multidissection("A", 5, {AEdge(1, 3): 2, AEdge(3, 5): 1})
    assert md.multiplicity(AEdge(1, 3)) == 2
    assert md.multiplicity(AEdge(3, 5)) == 1
    assert md.multiplicity(AEdge(2, 4)) == 0  # an edge of the table, unused
    # an edge outside the object's table is an error, as in the constructor
    for e in (AEdge(1, 9), CDiameter(1)):
        with pytest.raises(ValueError, match="not valid for family A, n=5"):
            md.multiplicity(e)


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


def crossing_masks(size, crossing):
    """Bit j of entry i is set when (i, j) or (j, i) is a crossing pair."""
    crosses = [0] * size
    for i, j in crossing:
        crosses[i] |= 1 << j
        crosses[j] |= 1 << i
    return crosses


@settings(max_examples=300, deadline=None)
@given(weighted_systems(), st.integers(0, 6), st.sampled_from([None, 1, 2]))
def test_mask_enumerator_matches_pair_reference(system, target, max_mult):
    weights, crossing = system
    crosses = crossing_masks(len(weights), crossing)
    assert list(iter_weighted_assignments(weights, target, crosses, max_mult)) \
        == list(reference_weighted_assignments(weights, target, crossing, max_mult))


# --- weighted sums without listing --------------------------------------------

def listed_sum(weights, target, crosses, values, max_mult):
    """The per-support products summed over the listed supports."""
    total = 0
    for support in iter_weighted_assignments(weights, target, crosses, max_mult):
        term = 1
        for i, m in support:
            term = term * values[i] ** m
        total = total + term
    return total


laurent_values = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2),
                                 max_size=3).map(IntLaurentPoly)


def reference_weighted_sum(weights, target, crosses, values, max_mult):
    """The memoized sum before open sets: each call scans the edges from
    `start` on, skipping the weightless, the too heavy and the blocked, and
    memoizes on (start, remaining, blocked >> start)."""
    size = len(weights)
    memo = {}

    def rec(start, remaining, blocked):
        if remaining == 0:
            return 1
        chain = []
        total = 0
        for idx in range(start, size):
            if not 0 < weights[idx] <= remaining or blocked >> idx & 1:
                continue
            key = (idx, remaining, blocked >> idx)
            summed = memo.get(key)
            if summed is not None:
                total = summed
                break
            chain.append((idx, key))
        for idx, key in reversed(chain):
            w, value = weights[idx], values[idx]
            top = remaining // w
            if max_mult is not None:
                top = min(top, max_mult)
            below = blocked | crosses[idx]
            power = 1
            for m in range(1, top + 1):
                power = power * value
                total = total + power * rec(idx + 1, remaining - m * w, below)
            memo[key] = total
        return total

    return rec(0, target, 0)


@settings(max_examples=300, deadline=None)
@given(weighted_systems(), st.integers(0, 6), st.sampled_from([None, 1, 2]),
       st.data())
def test_weighted_sum_matches_listing(system, target, max_mult, data):
    weights, crossing = system
    crosses = crossing_masks(len(weights), crossing)
    size = len(weights)
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    polys = data.draw(st.lists(laurent_values, min_size=size, max_size=size))
    for values in (ints, polys):
        summed = weighted_assignment_sum(weights, target, crosses, values,
                                         max_mult)
        assert summed == listed_sum(weights, target, crosses, values, max_mult)
        assert summed == reference_weighted_sum(weights, target, crosses,
                                                values, max_mult)
    # at all-ones values the sum counts the supports
    assert weighted_assignment_sum(weights, target, crosses, [1] * size,
                                   max_mult) \
        == len(list(iter_weighted_assignments(weights, target, crosses,
                                              max_mult)))


class CountedReads(list):
    """A list that counts the reads of each index through []."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def test_searches_look_only_at_edges_that_fit():
    # the last edge weighs the whole target, so it fits only as the first
    # choice: neither search reads its weight again after a lighter edge
    # is taken, as a scan over every later edge would
    for search in (lambda w: list(iter_weighted_assignments(w, 3, [0] * 4)),
                   lambda w: weighted_assignment_sum(w, 3, [0] * 4, [1] * 4)):
        weights = CountedReads([1, 1, 1, 3])
        search(weights)
        assert weights.reads[3] == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_weighted_sum_counts_each_family(family):
    table = edge_table(family, min_n(family) + 2)
    max_mult = 1 if family.startswith("classical") else None
    for k in range(0, 5):
        assert weighted_assignment_sum(table.weights, k, table.crosses,
                                       [1] * len(table.edges), max_mult) \
            == len(enumerate_multidissections(family, min_n(family) + 2, k))


def test_weighted_sum_recursion_follows_the_chosen_edges():
    # far more edges than the recursion limit, none crossing: weight 2 is
    # a pair of distinct edges or one edge twice
    size = 3000
    assert weighted_assignment_sum([1] * size, 2, [0] * size, [1] * size) \
        == math.comb(size, 2) + size


class Live:
    """An int that counts its live instances."""

    count = 0

    def __init__(self, value):
        self.value = value
        Live.count += 1

    def __del__(self):
        Live.count -= 1

    def __add__(self, other):
        return Live(self.value + getattr(other, "value", other))

    def __mul__(self, other):
        return Live(self.value * getattr(other, "value", other))

    __radd__, __rmul__ = __add__, __mul__


def test_weighted_sum_frees_its_memo_on_return():
    # the memoized sums are freed when the call returns, not at a later
    # garbage collection
    size = 12
    values = [Live(1) for _ in range(size)]
    gc.disable()
    try:
        total = weighted_assignment_sum([1] * size, 4, [0] * size, values)
        assert total.value == math.comb(size + 3, 4)
        del total
        assert Live.count == size
    finally:
        gc.enable()


def test_weighted_sum_rejects_negative_weights():
    with pytest.raises(ValueError):
        weighted_assignment_sum([1, -1], 1, [0, 0], [1, 1])


# --- listing memory -----------------------------------------------------------

def assert_pairs_shared(supports):
    """Equal (edge index, multiplicity) pairs of the supports are one
    object; returns how many pairs the supports hold."""
    pairs = {}
    total = 0
    for support in supports:
        for pair in support:
            assert pairs.setdefault(pair, pair) is pair, pair
            total += 1
    return total


@settings(max_examples=100, deadline=None)
@given(weighted_systems(), st.integers(0, 6), st.sampled_from([None, 1, 2]))
def test_enumerator_shares_each_pair(system, target, max_mult):
    weights, crossing = system
    assert_pairs_shared(iter_weighted_assignments(
        weights, target, crossing_masks(len(weights), crossing), max_mult))


@pytest.mark.parametrize("family", FAMILIES)
def test_listing_holds_one_object_per_pair(family):
    listing = enumerate_multidissections(family, min_n(family) + 4, 3)
    # far more pairs than distinct ones, so sharing is what is tested
    assert assert_pairs_shared(md.index_items() for md in listing) \
        > 10 * len(edge_table(family, min_n(family) + 4).edges)


def test_sizes_and_edge_counts_must_be_ints():
    # the edge table is keyed by type, so a float n is rejected whether or
    # not the table for the int n is cached, and never lists objects whose
    # n is a float
    edge_table.cache_clear()
    for first in (False, True):
        if first:
            assert len(enumerate_multidissections("A", 4, 1)) == 6
        for call in (lambda: enumerate_multidissections("A", 4.0, 1),
                     lambda: enumerate_multidissections("A", True, 0),
                     lambda: enumerate_multidissections("A", 5, True),
                     lambda: enumerate_multidissections("A", 5, 1.0),
                     lambda: edge_table("A", 4.0)):
            with pytest.raises(TypeError):
                call()
    assert all(md.n == 4 and type(md.n) is int
               for md in enumerate_multidissections("A", 4, 1))


def test_listing_is_a_fresh_list():
    first = enumerate_multidissections("A", 5, 2)
    second = enumerate_multidissections("A", 5, 2)
    assert type(first) is list and first is not second and first == second
    first.clear()
    assert enumerate_multidissections("A", 5, 2) == second


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
