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

All per-edge facts of one (family, n) live in its `EdgeTable`: the
universe in canonical order, each edge's position, weights, crossing
masks and the one-vertex-step rotation, all by edge position.
`edge_table` builds it once and keeps the last few.
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


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Strict interleaving of the endpoints of chords a < b and c < d;
    chords that share an endpoint never interleave."""
    a, b = c1
    c, d = c2
    return a < c < b < d or c < a < d < b


def edges_cross(family: str, n: int, e1, e2) -> bool:
    if e1 == e2:
        return False
    if isinstance(e1, DDiameter) and isinstance(e2, DDiameter):
        # distinct same-color diameters and identical different-color
        # diameters do not cross; distinct different-color diameters do
        return e1.a != e2.a and e1.color != e2.color
    return any(chords_cross(c1, c2)
               for c1 in edge_chords(family, n, e1)
               for c2 in edge_chords(family, n, e2))


@dataclass(frozen=True)
class EdgeTable:
    """Everything fixed about the edge system of one (family, n).

    `edges` is the universe in canonical order, so an edge's position is
    its identity; `index` maps an edge back to that position.  `weights`
    are the per-edge edge-count contributions, bit j of `crosses[i]` is
    set when edges i and j cross, and `rotation` is one vertex step of
    the polygon (with every colored diameter swapping color) as a
    permutation of positions."""

    edges: tuple
    index: dict
    weights: tuple[int, ...]
    crosses: tuple[int, ...]
    rotation: tuple[int, ...]


def _universe(family: str, n: int) -> list:
    base = _base_bc(family)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if base == "A":
        edges = [AEdge(i, j) for i, j in pairs]
    elif base == "C":
        edges = [CDiameter(a) for a in range(1, n + 1)]
        edges += [CSegregated(a, b) for a, b in pairs]
        edges += [CIntegrated(a, b) for a, b in pairs]
    else:
        edges = [DDiameter(a, color) for a in range(1, n + 1) for color in (SOLID, DOTTED)]
        edges += [DPairSeg(a, b) for a, b in pairs]
        edges += [DPairInt(a, b) for a, b in pairs]
    if is_classical(family):
        # classical families leave out the polygon's sides
        m = polygon_size(family, n)
        edges = [e for e in edges
                 if all(v - u not in (1, m - 1) for u, v in edge_chords(family, n, e))]
    return edges


@lru_cache(maxsize=16)
def edge_table(family: str, n: int) -> EdgeTable:
    """The edge table of (family, n).  The last 16 tables are kept, which
    covers every (family, n) one task touches."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    if n < min_n(family):
        raise ValueError("family %s needs n >= %d" % (family, min_n(family)))
    edges = tuple(_universe(family, n))
    m = polygon_size(family, n)
    swap = {SOLID: DOTTED, DOTTED: SOLID}

    def chords(e, shift):
        return frozenset(tuple(sorted(((u + shift) % m, (v + shift) % m)))
                         for u, v in edge_chords(family, n, e))

    position = {(chords(e, 0), getattr(e, "color", None)): i
                for i, e in enumerate(edges)}
    crosses = [0] * len(edges)
    for i, j in combinations(range(len(edges)), 2):
        if edges_cross(family, n, edges[i], edges[j]):
            crosses[i] |= 1 << j
            crosses[j] |= 1 << i
    return EdgeTable(
        edges=edges,
        index={e: i for i, e in enumerate(edges)},
        weights=tuple(edge_weight(family, e) for e in edges),
        crosses=tuple(crosses),
        rotation=tuple(position[chords(e, 1), swap.get(getattr(e, "color", None))]
                       for e in edges))


def edge_universe(family: str, n: int) -> tuple:
    """All edges of the family on its polygon, in canonical order."""
    return edge_table(family, n).edges


class Multidissection:
    """A multiset of pairwise noncrossing edges of one family, stored as
    its (edge index, multiplicity) pairs in canonical edge order."""

    __slots__ = ("family", "n", "_items")

    def __init__(self, family: str, n: int, support: dict):
        table = edge_table(family, n)
        classical = is_classical(family)
        items = []
        for e, m in support.items():
            if e not in table.index:
                raise ValueError("edge %r is not valid for family %s, n=%d"
                                 % (e, family, n))
            if isinstance(m, bool) or not isinstance(m, int):
                raise ValueError("multiplicity %r on %r is not an integer"
                                 % (m, e))
            if m < 0:
                raise ValueError("negative multiplicity on %r" % (e,))
            if classical and m > 1:
                raise ValueError("classical families use multiplicity 0/1")
            if m:
                items.append((table.index[e], m))
        items.sort()
        later = sum(1 << i for i, _ in items)
        for i, _ in items:
            later ^= 1 << i
            hit = table.crosses[i] & later
            if hit:
                # the least crossing partner after i, as in pair order
                j = (hit & -hit).bit_length() - 1
                raise ValueError("crossing edges %r and %r"
                                 % (table.edges[i], table.edges[j]))
        self.family = family
        self.n = n
        self._items = tuple(items)

    @classmethod
    def _from_items(cls, family: str, n: int, items: tuple) -> "Multidissection":
        """An object from (edge index, multiplicity) pairs that are already
        sorted, positive and pairwise noncrossing; nothing is checked."""
        md = cls.__new__(cls)
        md.family = family
        md.n = n
        md._items = items
        return md

    @property
    def support(self) -> dict:
        return dict(self.items())

    def multiplicity(self, e) -> int:
        return self.support.get(e, 0)

    def index_items(self) -> tuple:
        """Support as (edge index, multiplicity) pairs in canonical order."""
        return self._items

    def items(self):
        """Support in canonical edge order."""
        edges = edge_universe(self.family, self.n)
        return [(edges[i], m) for i, m in self._items]

    def edge_count(self) -> int:
        weights = edge_table(self.family, self.n).weights
        return sum(m * weights[i] for i, m in self._items)

    def key(self):
        """Hashable, totally ordered identity (family, n, sorted support)."""
        return (self.family, self.n, self._items)

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


def iter_weighted_assignments(weights, target: int, crosses,
                              max_mult: int | None = None) -> Iterator[tuple]:
    """Backtrack over edge indices in order, yielding every pairwise
    noncrossing support with sum(mult * weight) == target as sorted
    (edge index, multiplicity) pairs.

    Bit j of `crosses[i]` is set when edges i and j cross, and `max_mult`
    optionally caps the per-edge multiplicity.  Edges of weight 0 are
    never chosen.
    """
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    chosen: list[tuple[int, int]] = []

    def rec(start: int, remaining: int, blocked: int):
        # `blocked` has a bit set for every edge crossing a chosen one
        if remaining == 0:
            yield tuple(chosen)
            return
        for idx in range(start, len(weights)):
            w = weights[idx]
            if w == 0 or w > remaining or blocked >> idx & 1:
                continue
            top = remaining // w
            if max_mult is not None:
                top = min(top, max_mult)
            below = blocked | crosses[idx]
            chosen.append((idx, 0))
            for m in range(1, top + 1):
                chosen[-1] = (idx, m)
                yield from rec(idx + 1, remaining - m * w, below)
            chosen.pop()

    yield from rec(0, target, 0)


@lru_cache(maxsize=1)
def _enumerate_cached(family: str, n: int, k: int) -> tuple:
    """The last enumeration is kept, so `invariant_multidissections` right
    after `orbit_sizes`, and the three character probes, enumerate once."""
    table = edge_table(family, n)
    max_mult = 1 if is_classical(family) else None
    return tuple(Multidissection._from_items(family, n, items)
                 for items in iter_weighted_assignments(
                     table.weights, k, table.crosses, max_mult))


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
