"""Two-row semistandard and seminoncrossing tableaux.

A two-row semistandard tableau of shape (p, r) with entries bounded by n
has weakly increasing rows and strictly increasing columns.  The
seminoncrossing variant keeps strict columns but replaces column
strictness ordering by a global pairwise noncrossing condition on the
multiset of columns; it is in weight-preserving bijection with the
multidissections of the n-gon.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

from .polygons import (
    AEdge, Multidissection, chords_cross, edge_count,
    enumerate_multidissections,
)
from .qseries import _exact_int


def _content(entries, n: int) -> tuple[int, ...]:
    """How often each of 1..n occurs; any other entry is a ValueError."""
    counts = [0] * n
    for x in entries:
        if not 1 <= x <= n:
            raise ValueError("entry %r is outside 1..%d" % (x, n))
        counts[x - 1] += 1
    return tuple(counts)


class TwoRowTableau:
    """Rows stored as tuples; the second row may be shorter."""

    __slots__ = ("row1", "row2")

    def __init__(self, row1, row2):
        self.row1 = tuple(row1)
        self.row2 = tuple(row2)
        if len(self.row2) > len(self.row1):
            raise ValueError("second row longer than first")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row1), len(self.row2))

    def columns(self) -> list[tuple[int, int]]:
        return [(self.row1[c], self.row2[c]) for c in range(len(self.row2))]

    def content(self, n: int) -> tuple[int, ...]:
        return _content(self.row1 + self.row2, n)

    def is_semistandard(self) -> bool:
        rows_ok = all(a <= b for a, b in zip(self.row1, self.row1[1:])) and \
            all(a <= b for a, b in zip(self.row2, self.row2[1:]))
        cols_ok = all(self.row1[c] < self.row2[c] for c in range(len(self.row2)))
        return rows_ok and cols_ok

    def key(self):
        return (self.row1, self.row2)

    def __eq__(self, other):
        if not isinstance(other, TwoRowTableau):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "TwoRowTableau(%r, %r)" % (list(self.row1), list(self.row2))


def enumerate_ssyt(shape: tuple[int, int], n: int) -> list[TwoRowTableau]:
    """All two-row semistandard tableaux of the shape with entries in 1..n,
    in lexicographic (row1, row2) order."""
    p, r = (_exact_int(part, "shape row") for part in shape)
    n = _exact_int(n, "n")
    if r > p or r < 0:
        raise ValueError("shape must satisfy first >= second >= 0")
    out = []
    for row1 in combinations_with_replacement(range(1, n + 1), p):
        for row2 in combinations_with_replacement(range(1, n + 1), r):
            if all(row1[c] < row2[c] for c in range(r)):
                out.append(TwoRowTableau(row1, row2))
    return out


def ssyt_content_counts(shape: tuple[int, int], n: int) -> tuple:
    """Distinct contents with multiplicities, in sorted order."""
    counter: dict[tuple[int, ...], int] = {}
    for t in enumerate_ssyt(shape, n):
        c = t.content(n)
        counter[c] = counter.get(c, 0) + 1
    return tuple(sorted(counter.items()))


class SNCTableau:
    """Multiset of strict, pairwise noncrossing columns, kept in sorted
    order so equal multisets compare equal."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(sorted(tuple(c) for c in columns))

    @property
    def shape(self) -> tuple[int, int]:
        k = len(self.columns)
        return (k, k)

    def content(self, n: int) -> tuple[int, ...]:
        return _content([x for col in self.columns for x in col], n)

    def is_valid(self) -> bool:
        """Every column (a, b) has 1 <= a < b, and no two cross as chords."""
        return all(1 <= a < b for a, b in self.columns) and not any(
            chords_cross(c1, c2) for c1, c2 in combinations(self.columns, 2))

    def __eq__(self, other):
        if not isinstance(other, SNCTableau):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return "SNCTableau(%r)" % (list(self.columns),)


def enumerate_sncr(shape: tuple[int, int], n: int) -> list[SNCTableau]:
    """All seminoncrossing tableaux of rectangular two-row shape (k, k)
    with entries in 1..n, one canonical representative per column multiset.

    For n >= 3 this is the image of `enumerate_multidissections("A", n, k)`
    under `multidissection_to_sncr`, in the listing's order.  Below the
    polygon's sizes, n = 2 has the one column (1, 2), repeated k times, and
    n = 1 has only the empty tableau.
    """
    p, r = (_exact_int(part, "shape row") for part in shape)
    if p != r:
        raise ValueError("seminoncrossing tableaux use rectangular shapes")
    k, n = edge_count(p), _exact_int(n, "n")
    if n < 1:
        raise ValueError("seminoncrossing tableaux need n >= 1")
    if n < 3:
        return [SNCTableau([(1, 2)] * k)] if n == 2 or k == 0 else []
    return [multidissection_to_sncr(md)
            for md in enumerate_multidissections("A", n, k)]


def multidissection_to_sncr(md: Multidissection) -> SNCTableau:
    """Edge (i, j) with multiplicity m becomes m copies of column (i, j)."""
    if md.family != "A":
        raise ValueError("only type A multidissections correspond to tableaux")
    cols = []
    for e, m in md.items():
        cols.extend([(e.i, e.j)] * m)
    return SNCTableau(cols)


def sncr_to_multidissection(t: SNCTableau, n: int) -> Multidissection:
    """Inverse of multidissection_to_sncr; crossing columns are rejected
    by the multidissection validator."""
    support: dict = {}
    for a, b in t.columns:
        e = AEdge(a, b)
        support[e] = support.get(e, 0) + 1
    return Multidissection("A", n, support)


def normalize_content(content) -> tuple[int, ...]:
    c = list(content)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class ContentComparison(NamedTuple):
    table: dict
    passed: bool


def content_equinumerosity(shape: tuple[int, int], n: int) -> ContentComparison:
    """Per-content counts (#SSYT, #SNCTableau) for the rectangular shape;
    passes iff the two counts agree for every content."""
    p, r = shape
    if p != r:
        raise ValueError("comparison is defined for rectangular shapes")
    table: dict[tuple[int, ...], list[int]] = {}
    for content, count in ssyt_content_counts(shape, n):
        table.setdefault(normalize_content(content), [0, 0])[0] += count
    for t in enumerate_sncr(shape, n):
        table.setdefault(normalize_content(t.content(n)), [0, 0])[1] += 1
    final = {c: (v[0], v[1]) for c, v in sorted(table.items())}
    return ContentComparison(final, all(a == b for a, b in final.values()))
