"""Polygon edge systems and multidissection enumeration.

Families:
  A           edges of a convex n-gon, unlimited multiplicity
  C           diameters plus centrally symmetric chord pairs of a 2n-gon
  D           colored diameters plus centrally symmetric pairs of a 2n-gon
  classicalA  single-use diagonals of the n-gon (no boundary)
  classicalBC single-use diameters / CS diagonal pairs (no boundary)
  classicalD  single-use colored diameters / CS diagonal pairs (no boundary)

Vertices are 0-indexed positions on the circle internally; public edge
labels use 1..n (and the "barred" copy n+1..2n internally maps to labels
with a bar).  Edge counts weigh a centrally symmetric pair of family D as
two edges; everything else weighs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

FAMILIES = ("A", "C", "D", "classicalA", "classicalBC", "classicalD")

SOLID = "solid"
DOTTED = "dotted"

# Edge kinds are distinct frozen classes on purpose: same-kind equality
# only, so e.g. a segregated and an integrated pair on the same indices
# never collide as dict keys.


@dataclass(frozen=True, slots=True)
class AEdge:
    i: int
    j: int


@dataclass(frozen=True, slots=True)
class CDiameter:
    a: int


@dataclass(frozen=True, slots=True)
class CSegregated:
    # chords ab and (a bar)(b bar)
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class CIntegrated:
    # chords a(b bar) and (a bar)b
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class DDiameter:
    a: int
    color: str


@dataclass(frozen=True, slots=True)
class DPairSeg:
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class DPairInt:
    a: int
    b: int


def is_classical(family: str) -> bool:
    return family.startswith("classical")


def base_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    return family[len("classical"):] if is_classical(family) else family


def _base_bc(family: str) -> str:
    # classicalBC shares the type-C edge universe
    b = base_family(family)
    return "C" if b == "BC" else b


def polygon_size(family: str, n: int) -> int:
    return n if _base_bc(family) == "A" else 2 * n


def min_n(family: str) -> int:
    base = _base_bc(family)
    if base == "A":
        return 3
    if family == "D":
        return 1  # digon convention
    return 2


def edge_weight(family: str, e) -> int:
    """Contribution of one unit of multiplicity to the edge count."""
    if family == "D" and isinstance(e, (DPairSeg, DPairInt)):
        return 2
    return 1


def edge_chords(family: str, n: int, e) -> tuple[tuple[int, int], ...]:
    """Constituent chords as sorted 0-indexed vertex pairs."""
    base = _base_bc(family)
    if base == "A":
        return ((e.i - 1, e.j - 1),)
    if isinstance(e, (CDiameter, DDiameter)):
        a = e.a
        return ((a - 1, n + a - 1),)
    if isinstance(e, (CSegregated, DPairSeg)):
        a, b = e.a, e.b
        return ((a - 1, b - 1), (n + a - 1, n + b - 1))
    if isinstance(e, (CIntegrated, DPairInt)):
        a, b = e.a, e.b
        return ((a - 1, n + b - 1), (b - 1, n + a - 1))
    raise TypeError("edge %r does not belong to family %s" % (e, family))


def chords_cross(m: int, c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Strict interleaving of endpoints; sharing an endpoint never crosses."""
    a, b = c1
    c, d = c2
    if len({a, b, c, d}) < 4:
        return False
    return a < c < b < d or c < a < d < b


def edges_cross(family: str, n: int, e1, e2) -> bool:
    if e1 == e2:
        return False
    if isinstance(e1, DDiameter) and isinstance(e2, DDiameter):
        # distinct same-color diameters and identical different-color
        # diameters do not cross; distinct different-color diameters do
        return e1.a != e2.a and e1.color != e2.color
    m = polygon_size(family, n)
    for c1 in edge_chords(family, n, e1):
        for c2 in edge_chords(family, n, e2):
            if chords_cross(m, c1, c2):
                return True
    return False


def _is_boundary_chord(m: int, chord: tuple[int, int]) -> bool:
    u, v = chord
    return v - u == 1 or v - u == m - 1


def is_boundary_edge(family: str, n: int, e) -> bool:
    m = polygon_size(family, n)
    return any(_is_boundary_chord(m, c) for c in edge_chords(family, n, e))


@lru_cache(maxsize=None)
def edge_universe(family: str, n: int) -> tuple:
    """All edges of the family on its polygon, in canonical order."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    if n < min_n(family):
        raise ValueError("family %s needs n >= %d" % (family, min_n(family)))
    base = _base_bc(family)
    edges: list = []
    if base == "A":
        edges = [AEdge(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    elif base == "C":
        edges = [CDiameter(a) for a in range(1, n + 1)]
        edges += [CSegregated(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        edges += [CIntegrated(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    else:
        edges = [DDiameter(a, color) for a in range(1, n + 1) for color in (SOLID, DOTTED)]
        edges += [DPairSeg(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        edges += [DPairInt(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if is_classical(family):
        edges = [e for e in edges if not is_boundary_edge(family, n, e)]
    return tuple(edges)


@lru_cache(maxsize=None)
def edge_index(family: str, n: int) -> dict:
    """Position of every edge in `edge_universe(family, n)`; canonical
    edge order is the order of these indices."""
    return {e: i for i, e in enumerate(edge_universe(family, n))}


class Multidissection:
    """A multiset of pairwise noncrossing edges of one family."""

    __slots__ = ("family", "n", "_support", "_key")

    def __init__(self, family: str, n: int, support: dict, validate: bool = True):
        self.family = family
        self.n = n
        self._support = {e: int(m) for e, m in support.items() if m}
        self._key = None
        if validate:
            self._validate()

    def _validate(self):
        index = edge_index(self.family, self.n)
        classical = is_classical(self.family)
        for e, m in self._support.items():
            if e not in index:
                raise ValueError("edge %r is not valid for family %s, n=%d"
                                 % (e, self.family, self.n))
            if m < 0:
                raise ValueError("negative multiplicity on %r" % (e,))
            if classical and m > 1:
                raise ValueError("classical families use multiplicity 0/1")
        crossing = _crossing_pairs(self.family, self.n)
        for pair in combinations(sorted(index[e] for e in self._support), 2):
            if pair in crossing:
                edges = edge_universe(self.family, self.n)
                raise ValueError("crossing edges %r and %r"
                                 % (edges[pair[0]], edges[pair[1]]))

    @property
    def support(self) -> dict:
        return dict(self._support)

    def multiplicity(self, e) -> int:
        return self._support.get(e, 0)

    def index_items(self) -> tuple:
        """Support as (edge index, multiplicity) pairs in canonical order."""
        index = edge_index(self.family, self.n)
        return tuple(sorted((index[e], m) for e, m in self._support.items()))

    def items(self):
        """Support in canonical edge order."""
        edges = edge_universe(self.family, self.n)
        return [(edges[i], m) for i, m in self.index_items()]

    def edge_count(self) -> int:
        return sum(m * edge_weight(self.family, e) for e, m in self._support.items())

    def key(self):
        """Hashable, totally ordered identity (family, n, sorted support)."""
        if self._key is None:
            self._key = (self.family, self.n, self.index_items())
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Multidissection):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Multidissection(%r, %d, %r)" % (self.family, self.n, dict(self.items()))

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "edge_count": self.edge_count(),
            "edges": [{"edge": edge_label(e), "multiplicity": m} for e, m in self.items()],
        }


def edge_label(e) -> dict:
    """Human-readable label for JSON output."""
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


@lru_cache(maxsize=None)
def _crossing_pairs(family: str, n: int) -> frozenset:
    edges = edge_universe(family, n)
    pairs = set()
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if edges_cross(family, n, edges[i], edges[j]):
                pairs.add((i, j))
    return frozenset(pairs)


def iter_weighted_assignments(edges, weights, target: int, crossing_pairs,
                              max_total: int | None = None,
                              max_mult: int | None = None) -> Iterator[dict]:
    """Backtrack over `edges` in order, assigning positive multiplicities to
    a pairwise-noncrossing support with sum(mult * weight) == target.

    `crossing_pairs` holds index pairs (i < j) that cross.  `max_total`
    optionally caps the total multiplicity, `max_mult` the per-edge one.
    All weights must be positive.
    """
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    n_edges = len(edges)
    chosen: list[int] = []
    assignment: dict = {}

    def rec(start: int, remaining: int, total: int):
        if remaining == 0:
            yield dict(assignment)
            return
        for idx in range(start, n_edges):
            w = weights[idx]
            if w > remaining:
                continue
            if any((j, idx) in crossing_pairs for j in chosen):
                continue
            top = remaining // w
            if max_total is not None:
                top = min(top, max_total - total)
            if max_mult is not None:
                top = min(top, max_mult)
            if top < 1:
                continue
            chosen.append(idx)
            e = edges[idx]
            for m in range(1, top + 1):
                assignment[e] = m
                yield from rec(idx + 1, remaining - m * w, total + m)
            del assignment[e]
            chosen.pop()

    yield from rec(0, target, 0)


@lru_cache(maxsize=None)
def _enumerate_cached(family: str, n: int, k: int) -> tuple:
    edges = edge_universe(family, n)
    weights = [edge_weight(family, e) for e in edges]
    crossing = _crossing_pairs(family, n)
    max_mult = 1 if is_classical(family) else None
    out = []
    for assignment in iter_weighted_assignments(edges, weights, k, crossing,
                                                max_mult=max_mult):
        out.append(Multidissection(family, n, assignment))
    return tuple(out)


def enumerate_multidissections(family: str, n: int, k: int) -> list[Multidissection]:
    """All k-edge multidissections of the family, in a deterministic order."""
    if k < 0:
        raise ValueError("edge count must be >= 0")
    return list(_enumerate_cached(family, n, k))


def enumerate_classical(family: str, n: int, k: int) -> list[Multidissection]:
    """Classical dissections: 0/1 multiplicities, boundary edges excluded."""
    if not is_classical(family):
        raise ValueError("expected a classical family, got %r" % family)
    return enumerate_multidissections(family, n, k)
