"""Semistandard and seminoncrossing tableaux, and the weight-preserving
bijection with type A multidissections."""

import math
from collections import Counter
from itertools import product

import pytest

from sievelab.polygons import (
    Multidissection,
    chords_cross,
    enumerate_multidissections,
)
from sievelab.tableaux import (
    SNCTableau,
    _content,
    content_equinumerosity,
    enumerate_sncr,
    enumerate_ssyt,
    multidissection_to_sncr,
    normalize_content,
    sncr_to_multidissection,
    ssyt_content_counts,
)


def reference_enumerate_sncr(shape, n):
    """Backtracking over columns (a, b), a < b, in weakly increasing
    lexicographic order, keeping each column that crosses no column
    already chosen; each column multiset appears once, independent of the
    polygon listing."""
    p, r = shape
    assert p == r
    all_cols = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out = []
    chosen = []

    def rec(start, remaining):
        if remaining == 0:
            out.append(SNCTableau(chosen))
            return
        for idx in range(start, len(all_cols)):
            col = all_cols[idx]
            if not any(chords_cross(col, prev) for prev in chosen):
                chosen.append(col)
                rec(idx, remaining - 1)
                chosen.pop()

    rec(0, p)
    return out


def brute_ssyt(shape, n):
    """Exhaustive filter over all entry tuples; independent of the package
    generator."""
    p, r = shape
    found = set()
    for row1 in product(range(1, n + 1), repeat=p):
        if any(row1[c] > row1[c + 1] for c in range(p - 1)):
            continue
        for row2 in product(range(1, n + 1), repeat=r):
            if any(row2[c] > row2[c + 1] for c in range(r - 1)):
                continue
            if all(row1[c] < row2[c] for c in range(r)):
                found.add((row1, row2))
    return found


BRUTE_FORCE_SHAPES = [
    ((1, 1), 3), ((2, 2), 3), ((2, 2), 4), ((3, 2), 3), ((2, 0), 4),
    ((3, 3), 4), ((2, 1), 5),
]


@pytest.mark.parametrize("shape,n", BRUTE_FORCE_SHAPES)
def test_enumerate_ssyt_matches_brute_force(shape, n):
    # the same row pairs, in lexicographic order
    assert enumerate_ssyt(shape, n) == sorted(brute_ssyt(shape, n))


@pytest.mark.parametrize("shape,n", BRUTE_FORCE_SHAPES)
def test_ssyt_content_counts_match_brute_force(shape, n):
    want = Counter(tuple(row1.count(x) + row2.count(x) for x in range(1, n + 1))
                   for row1, row2 in brute_ssyt(shape, n))
    assert ssyt_content_counts(shape, n) == tuple(sorted(want.items()))


def test_ssyt_rectangular_count_formula():
    # two-row rectangle count via the h-determinant at n ones
    def h(n, j):
        return math.comb(n + j - 1, j) if j >= 0 else 0
    for n in range(2, 7):
        for k in range(0, 4):
            want = h(n, k) ** 2 - h(n, k + 1) * h(n, k - 1)
            assert len(enumerate_ssyt((k, k), n)) == want
    assert len(enumerate_ssyt((2, 2), 3)) == 6


def test_enumerate_ssyt_rejects_bad_shape():
    with pytest.raises(ValueError):
        enumerate_ssyt((1, 2), 3)


def test_content_rejects_entries_outside_one_to_n():
    # an entry 0 must not land on vertex n through index -1, and an entry
    # above n is a ValueError, not an IndexError; a row pair's content is
    # that of its two rows' entries
    for entries in ((0, 2), (1, 5)):
        with pytest.raises(ValueError, match="outside 1..3"):
            SNCTableau([entries]).content(3)
    for row1, row2 in (((0,), (1,)), ((1, 1), (4,))):
        with pytest.raises(ValueError, match="outside 1..3"):
            _content(row1 + row2, 3)
    assert SNCTableau([(1, 3), (1, 3)]).content(3) == (2, 0, 2)
    assert _content((1, 3) + (3,), 3) == (1, 0, 2)


def test_is_valid_rejects_entries_below_one():
    assert not SNCTableau([(0, 2)]).is_valid()
    assert not SNCTableau([(-1, 2), (2, 3)]).is_valid()
    assert not SNCTableau([(2, 2)]).is_valid()
    assert SNCTableau([(1, 2), (2, 3)]).is_valid()


def test_ssyt_content_counts():
    counts = dict(ssyt_content_counts((2, 2), 3))
    # contents of the six tableaux on three letters
    assert counts[(2, 2, 0)] == 1
    assert counts[(1, 1, 2)] == 1
    assert counts[(1, 2, 1)] == 1
    assert sum(counts.values()) == 6


def test_columns_noncrossing():
    # columns as polygon chords: SNCTableau.is_valid reads chords_cross
    assert not chords_cross((1, 3), (1, 4))
    assert not chords_cross((1, 3), (3, 4))
    assert chords_cross((1, 3), (2, 4))
    assert chords_cross((2, 4), (1, 3))
    assert not chords_cross((1, 4), (2, 3))
    assert not chords_cross((1, 2), (1, 2))


def test_sncr_counts_match_multidissections():
    for n in range(3, 7):
        for k in range(0, 4):
            assert len(enumerate_sncr((k, k), n)) == \
                len(enumerate_multidissections("A", n, k))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(0, 5))
def test_enumerate_sncr_matches_reference(n, k):
    got = enumerate_sncr((k, k), n)
    want = reference_enumerate_sncr((k, k), n)
    assert len(got) == len(want)
    assert Counter(t.columns for t in got) == Counter(t.columns for t in want)


def test_enumerate_sncr_follows_the_listing_order():
    for n, k in [(4, 2), (6, 3)]:
        assert enumerate_sncr((k, k), n) == [
            multidissection_to_sncr(md)
            for md in enumerate_multidissections("A", n, k)]


def test_enumerate_sncr_below_the_polygon_sizes():
    # the polygon layer needs n >= 3; the digon has one column, the
    # single vertex none
    for k in range(0, 5):
        assert enumerate_sncr((k, k), 2) == [SNCTableau([(1, 2)] * k)]
        assert enumerate_sncr((k, k), 1) == ([SNCTableau([])] if k == 0 else [])


def test_enumerate_sncr_rejects_bad_sizes():
    with pytest.raises(ValueError, match="edge count must be >= 0"):
        enumerate_sncr((-1, -1), 4)
    for n in (0, -2):
        with pytest.raises(ValueError, match="need n >= 1"):
            enumerate_sncr((1, 1), n)


def test_sncr_validity_and_uniqueness():
    ts = enumerate_sncr((3, 3), 5)
    assert all(t.is_valid() for t in ts)
    assert len(set(ts)) == len(ts)


def test_sncr_rejects_non_rectangular():
    with pytest.raises(ValueError):
        enumerate_sncr((2, 1), 4)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_bijection_round_trip(n, k):
    mds = enumerate_multidissections("A", n, k)
    images = set()
    for md in mds:
        t = multidissection_to_sncr(md)
        assert t.is_valid()
        assert t.shape == (k, k)
        # weight preservation: column entries match edge endpoints
        assert t.content(n) == tuple(
            sum(m for e, m in md.items() if v in (e.i, e.j))
            for v in range(1, n + 1))
        images.add(t)
        back = sncr_to_multidissection(t, n)
        assert back == md
    assert len(images) == len(mds)
    # the image is exactly the seminoncrossing set
    assert images == set(reference_enumerate_sncr((k, k), n))


def test_bijection_rejects_other_families():
    from sievelab.polygons import CDiameter
    md = Multidissection("C", 2, {CDiameter(1): 1})
    with pytest.raises(ValueError):
        multidissection_to_sncr(md)


def test_sncr_to_multidissection_rejects_crossings():
    t = SNCTableau([(1, 3), (2, 4)])
    assert not t.is_valid()
    with pytest.raises(ValueError):
        sncr_to_multidissection(t, 4)


@pytest.mark.parametrize("shape,n", [
    ((1, 1), 4), ((2, 2), 3), ((2, 2), 4), ((3, 3), 4), ((3, 3), 5),
])
def test_content_equinumerosity(shape, n):
    cmp = content_equinumerosity(shape, n)
    assert cmp.passed
    assert all(a == b for a, b in cmp.table.values())
    total = sum(a for a, _ in cmp.table.values())
    assert total == len(enumerate_ssyt(shape, n))


def test_content_equinumerosity_table_is_nontrivial():
    cmp = content_equinumerosity((2, 2), 4)
    assert len(cmp.table) == 19


def test_normalize_content():
    assert normalize_content((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert normalize_content((0, 0)) == ()
