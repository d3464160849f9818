"""Polygon edge systems and multidissection enumeration.

Each family's rules are one row of `_FAMILY`, read through
`family_rules`.  Vertices are 0-indexed positions on the circle
internally; public edge labels use 1..n (and the "barred" copy n+1..2n
internally maps to labels with a bar).

All per-edge facts of one (family, n) live in its `EdgeTable`, by edge
position: the universe in canonical order, weights, crossing masks, the
one-vertex-step rotation, shapes, JSON labels and a chord index.
`edge_table` builds it once and keeps the last few.

`iter_weighted_assignments` lists the noncrossing supports of a given
weight; `weighted_assignment_sum` sums a per-edge product over the same
supports without listing them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple

from .qseries import _exact_int


class Family(NamedTuple):
    """One polygon family's rules: `base` ("A", "C" or "D") gives the edge
    universe and the cluster-monomial type; a `classical` family leaves out
    the polygon's sides and uses multiplicities 0/1; a centrally symmetric
    pair weighs `pair_weight` edges; the declared group order is `order`
    times n; `steps` are the accepted generator steps, the default first."""

    name: str
    base: str
    classical: bool
    min_n: int
    pair_weight: int
    order: int
    steps: tuple[int, ...] = (1,)


_FAMILY = {f.name: f for f in (
    # edges of a convex n-gon, unlimited multiplicity
    Family("A", "A", False, 3, 1, 1),
    # diameters plus centrally symmetric chord pairs of a 2n-gon
    Family("C", "C", False, 2, 1, 1),
    # colored diameters plus centrally symmetric pairs of a 2n-gon; n = 1
    # is the digon
    Family("D", "D", False, 1, 2, 2),
    # single-use diagonals of the n-gon
    Family("classicalA", "A", True, 3, 1, 1),
    # single-use diameters and diagonal pairs; two vertex steps by default
    Family("classicalBC", "C", True, 2, 1, 1, (2, 1)),
    # single-use colored diameters and diagonal pairs
    Family("classicalD", "D", True, 2, 1, 2),
)}
FAMILIES = tuple(_FAMILY)


def family_rules(family: str) -> Family:
    """The row of `family`; the one place an unknown family is rejected."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    return _FAMILY[family]


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


def polygon_size(family: str, n: int) -> int:
    n = _exact_int(n, "n")
    return n if family_rules(family).base == "A" else 2 * n


def min_n(family: str) -> int:
    return family_rules(family).min_n


def check_size(family: str, n: int) -> int:
    """n, checked as an int of at least the family's `min_n`."""
    if _exact_int(n, "n") < min_n(family):
        raise ValueError("family %s needs n >= %d" % (family, min_n(family)))
    return n


def edge_count(k: int) -> int:
    """k, checked as an int edge count of at least 0."""
    if _exact_int(k, "edge count") < 0:
        raise ValueError("edge count must be >= 0")
    return k


# Each edge class once: its base family, its shape and its JSON label
# kind.  Family D's classes share family C's shapes.
EDGE, DIAMETER, SEGREGATED, INTEGRATED = "edge", "diameter", "segregated", "integrated"
_KINDS = {
    AEdge: ("A", EDGE, "edge"),
    CDiameter: ("C", DIAMETER, "diameter"),
    CSegregated: ("C", SEGREGATED, "segregated"),
    CIntegrated: ("C", INTEGRATED, "integrated"),
    DDiameter: ("D", DIAMETER, "diameter"),
    DPairSeg: ("D", SEGREGATED, "cs_segregated"),
    DPairInt: ("D", INTEGRATED, "cs_integrated"),
}


def check_edge(family: str, e, n: int | None = None) -> None:
    """A ValueError unless e is an edge of the family, and of its polygon
    of parameter n when n is given."""
    if n is None:
        if _KINDS.get(type(e), ("",))[0] != family_rules(family).base:
            raise ValueError("edge %r is not valid for family %s" % (e, family))
    elif e not in edge_table(family, n).index:
        raise ValueError("edge %r is not valid for family %s, n=%d" % (e, family, n))


def edge_weight(family: str, e) -> int:
    """Contribution of one unit of multiplicity to the edge count."""
    check_edge(family, e)
    return 1 if _KINDS[type(e)][1] == DIAMETER else family_rules(family).pair_weight


def _chords(n: int, e) -> tuple[tuple[int, int], ...]:
    shape = _KINDS[type(e)][1]
    if shape == EDGE:
        return ((e.i - 1, e.j - 1),)
    if shape == DIAMETER:
        return ((e.a - 1, n + e.a - 1),)
    a, b = e.a - 1, e.b - 1
    if shape == SEGREGATED:
        return ((a, b), (n + a, n + b))
    return ((a, n + b), (b, n + a))


def edge_chords(family: str, n: int, e) -> tuple[tuple[int, int], ...]:
    """Constituent chords as sorted 0-indexed vertex pairs."""
    check_edge(family, e, n)
    return _chords(n, e)


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Strict interleaving of the endpoints of chords a < b and c < d;
    chords that share an endpoint never interleave."""
    a, b = c1
    c, d = c2
    return a < c < b < d or c < a < d < b


def _cross(n: int, e1, e2) -> bool:
    color1, color2 = getattr(e1, "color", None), getattr(e2, "color", None)
    if color1 and color2:
        # distinct same-color diameters and identical different-color
        # diameters do not cross; distinct different-color diameters do
        return e1.a != e2.a and color1 != color2
    return any(chords_cross(c1, c2)
               for c1 in _chords(n, e1) for c2 in _chords(n, e2))


def edges_cross(family: str, n: int, e1, e2) -> bool:
    check_edge(family, e1, n)
    check_edge(family, e2, n)
    return e1 != e2 and _cross(n, e1, e2)


@dataclass(frozen=True)
class EdgeTable:
    """Everything fixed about the edge system of one (family, n).

    `edges` is the universe in canonical order, so an edge's position is
    its identity; `index` maps an edge back to that position.  `weights`
    are the per-edge edge-count contributions, bit j of `crosses[i]` is
    set when edges i and j cross, and `rotation` is one vertex step of
    the polygon (with every colored diameter swapping color) as a
    permutation of positions.  `shapes` and `labels` are by position too;
    `chord_index` maps (chord, color or None) to the edge holding it."""

    edges: tuple
    index: dict
    weights: tuple[int, ...]
    crosses: tuple[int, ...]
    rotation: tuple[int, ...]
    shapes: tuple[str, ...]
    labels: tuple[dict, ...]
    chord_index: dict


def _universe(family: str, n: int) -> list:
    rules = family_rules(family)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if rules.base == "A":
        edges = [AEdge(i, j) for i, j in pairs]
    elif rules.base == "C":
        edges = [CDiameter(a) for a in range(1, n + 1)]
        edges += [CSegregated(a, b) for a, b in pairs]
        edges += [CIntegrated(a, b) for a, b in pairs]
    else:
        edges = [DDiameter(a, color) for a in range(1, n + 1) for color in (SOLID, DOTTED)]
        edges += [DPairSeg(a, b) for a, b in pairs]
        edges += [DPairInt(a, b) for a, b in pairs]
    if rules.classical:
        m = polygon_size(family, n)
        edges = [e for e in edges
                 if all(v - u not in (1, m - 1) for u, v in _chords(n, e))]
    return edges


@lru_cache(maxsize=16, typed=True)
def edge_table(family: str, n: int) -> EdgeTable:
    """The edge table of (family, n).  The last 16 tables are kept, which
    covers every (family, n) one task touches; keyed by type too, so a
    float or bool n misses and is rejected here."""
    check_size(family, n)
    edges = tuple(_universe(family, n))
    m = polygon_size(family, n)
    colors = [getattr(e, "color", None) for e in edges]
    chord_index = {(chord, color): i
                   for i, (e, color) in enumerate(zip(edges, colors))
                   for chord in _chords(n, e)}
    swap = {SOLID: DOTTED, DOTTED: SOLID, None: None}
    turned = [tuple(sorted((x + 1) % m for x in _chords(n, e)[0])) for e in edges]
    crosses = [0] * len(edges)
    for i, j in combinations(range(len(edges)), 2):
        if _cross(n, edges[i], edges[j]):
            crosses[i] |= 1 << j
            crosses[j] |= 1 << i
    return EdgeTable(
        edges=edges,
        index={e: i for i, e in enumerate(edges)},
        weights=tuple(edge_weight(family, e) for e in edges),
        crosses=tuple(crosses),
        rotation=tuple(chord_index[chord, swap[color]]
                       for chord, color in zip(turned, colors)),
        shapes=tuple(_KINDS[type(e)][1] for e in edges),
        labels=tuple(edge_label(e) for e in edges),
        chord_index=chord_index)


def edge_universe(family: str, n: int) -> tuple:
    """All edges of the family on its polygon, in canonical order."""
    return edge_table(family, n).edges


class Multidissection:
    """A multiset of pairwise noncrossing edges of one family, stored as
    its (edge index, multiplicity) pairs in canonical edge order."""

    __slots__ = ("family", "n", "_items")

    def __init__(self, family: str, n: int, support: dict):
        table = edge_table(family, n)
        classical = family_rules(family).classical
        items = []
        for e, m in support.items():
            check_edge(family, e, n)
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
        """The multiplicity of e, which must be an edge of this object's
        table."""
        check_edge(self.family, e, self.n)
        i = edge_table(self.family, self.n).index[e]
        return next((m for j, m in self._items if j == i), 0)

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
        labels = edge_table(self.family, self.n).labels
        return {
            "family": self.family,
            "n": self.n,
            "edge_count": self.edge_count(),
            "edges": [{"edge": labels[i].copy(), "multiplicity": m}
                      for i, m in self._items],
        }


def edge_label(e) -> dict:
    """Human-readable label for JSON output: kind, then the edge's fields."""
    if type(e) not in _KINDS:
        raise TypeError("not an edge: %r" % (e,))
    return {"kind": _KINDS[type(e)][2], **asdict(e)}


def iter_weighted_assignments(weights, target: int, crosses,
                              max_mult: int | None = None) -> Iterator[tuple]:
    """Backtrack over edge indices in order, yielding every pairwise
    noncrossing support with sum(mult * weight) == target as sorted
    (edge index, multiplicity) pairs.

    Bit j of `crosses[i]` is set when edges i and j cross, and `max_mult`
    optionally caps the per-edge multiplicity.  Edges of weight 0 are
    never chosen.  The arguments are checked when it is called.
    """
    target = edge_count(target)
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    # pairs[idx][m - 1] is the one (idx, m) pair every support shares;
    # an edge has a row up to its largest possible multiplicity
    cap = target if max_mult is None else max_mult
    pairs = [tuple((idx, m) for m in range(1, min(target // w, cap) + 1))
             if w else () for idx, w in enumerate(weights)]
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
            below = blocked | crosses[idx]
            chosen.append(None)
            for pair in pairs[idx][:remaining // w]:
                chosen[-1] = pair
                yield from rec(idx + 1, remaining - pair[1] * w, below)
            chosen.pop()

    return rec(0, target, 0)


def weighted_assignment_sum(weights, target: int, crosses, values,
                            max_mult: int | None = None):
    """The sum, over the supports `iter_weighted_assignments` yields, of
    the product of values[i] ** m over their (i, m) pairs, without listing
    them.

    The values may lie in any commutative ring whose elements add to and
    multiply with the ints 0 and 1; the empty support contributes 1.  The
    sum over the supports whose least edge is `start` or later depends on
    (start, remaining, blocked >> start) alone, so each such state is
    summed once; the memo is dropped when the call returns.  Recursion
    goes one level per chosen edge, so its depth stays within `target`.
    """
    target = edge_count(target)
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    size = len(weights)
    memo: dict[tuple, object] = {}

    def rec(start: int, remaining: int, blocked: int):
        if remaining == 0:
            return 1
        # the states of the edges that can still be taken, up to the
        # first one already summed; each is its own first choice plus the
        # state after it
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


def enumerate_multidissections(family: str, n: int, k: int) -> list[Multidissection]:
    """All k-edge multidissections of the family, in a deterministic order."""
    edge_count(k)
    table = edge_table(family, n)
    max_mult = 1 if family_rules(family).classical else None
    return [Multidissection._from_items(family, n, items)
            for items in iter_weighted_assignments(
                table.weights, k, table.crosses, max_mult)]


def enumerate_classical(family: str, n: int, k: int) -> list[Multidissection]:
    """Classical dissections: 0/1 multiplicities, boundary edges excluded."""
    if not family_rules(family).classical:
        raise ValueError("expected a classical family, got %r" % family)
    return enumerate_multidissections(family, n, k)
