"""Rotation actions on polygon edge systems.

Each family's generator is `generator_step` vertex steps of its polygon,
as its row in `polygons.family_rules` allows, with every colored diameter
swapping color at each step.  It is a power of the one-vertex-step
permutation of edge positions in the family's `EdgeTable`
(`polygons.edge_table`), so a rotated multidissection is its index tuple
permuted and re-sorted.

Also home to the folding bijection between multidissections invariant
under an even power of the colored rotation and multidissections of a
smaller polygon, and to the odd-power correspondence with the centrally
symmetric family.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .polygons import (
    DIAMETER, DOTTED, FAMILIES, SOLID, Multidissection, check_edge,
    check_size, edge_chords, edge_count, edge_table,
    enumerate_multidissections, family_rules, polygon_size,
    weighted_assignment_sum,
)
from .qseries import _exact_int


def declared_group_order(family: str, n: int) -> int:
    """Order of the acting cyclic group (which may exceed the exact order
    of the generator on the edge set)."""
    return family_rules(family).order * _exact_int(n, "n")


def resolve_step(family: str, generator_step: int | None) -> int:
    """The generator's vertex steps: the family's default for None, else one
    of its accepted steps as a plain int."""
    steps = family_rules(family).steps
    if generator_step is None:
        return steps[0]
    if len(steps) == 1:
        raise ValueError("generator_step applies to %s only" % ", ".join(
            f for f in FAMILIES if len(family_rules(f).steps) > 1))
    if type(generator_step) is not int or generator_step not in steps:
        raise ValueError("generator_step must be %s"
                         % " or ".join(map(str, sorted(steps))))
    return generator_step


def _orbits(perm: tuple) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation `perm` of range(len(perm)), each from
    its least point, in order of those points; the one permutation walk."""
    seen = [False] * len(perm)
    orbits = []
    for start in range(len(perm)):
        orbit, x = [], start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = perm[x]
        if orbit:
            orbits.append(tuple(orbit))
    return tuple(orbits)


@lru_cache(maxsize=32, typed=True)
def _permutation(family: str, n: int, d: int,
                 generator_step: int | None) -> tuple[int, ...]:
    """generator^d as a permutation of edge indices: each orbit of the
    one-vertex-step rotation turned d * step places, at a cost that does
    not grow with d.  The last 32 are kept, keyed by type too."""
    if _exact_int(d, "power") < 0:
        raise ValueError("power must be >= 0")
    shift = d * resolve_step(family, generator_step)
    turned = {x: orbit[(i + shift) % len(orbit)]
              for orbit in _orbits(edge_table(family, n).rotation)
              for i, x in enumerate(orbit)}
    return tuple(turned[x] for x in range(len(turned)))


def rotate_edge(family: str, n: int, e, generator_step: int | None = None):
    """One application of the family's generator to a single edge."""
    check_edge(family, e, n)
    table = edge_table(family, n)
    gen = _permutation(family, n, 1, generator_step)
    return table.edges[gen[table.index[e]]]


def _permuted(perm: tuple, items: tuple) -> tuple:
    """Sorted (edge index, multiplicity) pairs moved by the edge
    permutation `perm`; perm fixes the objects it gives back unchanged."""
    return tuple(sorted((perm[i], m) for i, m in items))


def rotate_multidissection(md: Multidissection, d: int = 1,
                           generator_step: int | None = None) -> Multidissection:
    perm = _permutation(md.family, md.n, d, generator_step)
    return Multidissection._from_items(
        md.family, md.n, _permuted(perm, md.index_items()))


def is_fixed(md: Multidissection, d: int,
             generator_step: int | None = None) -> bool:
    return rotate_multidissection(md, d, generator_step) == md


def action_order(family: str, n: int, generator_step: int | None = None) -> int:
    """Exact order of the generator: the lcm of its orbit lengths."""
    return lcm(*map(len, _orbits(_permutation(family, n, 1, generator_step))))


def _fixed_count(family: str, n: int, k: int, perm: tuple) -> int:
    """The k-edge multidissections that the edge permutation `perm` fixes,
    counted over unions of its orbits without listing them.

    perm fixes an object exactly when the multiplicity is constant on
    each of its orbits, so a fixed object is a noncrossing, weighted
    choice of whole orbits: an orbit weighs the sum of its edges'
    weights, two orbits conflict when any of their edges cross, and an
    orbit that crosses itself can never be chosen."""
    table = edge_table(family, n)
    orbits = _orbits(perm)
    orbit_of = {e: o for o, orbit in enumerate(orbits) for e in orbit}
    weights, crosses = [], []
    for orbit in orbits:
        edge_mask = 0
        for e in orbit:
            edge_mask |= table.crosses[e]
        mask = 0
        for e in range(len(perm)):
            if edge_mask >> e & 1:
                mask |= 1 << orbit_of[e]
        crosses.append(mask)
        self_crossing = mask >> orbit_of[orbit[0]] & 1
        weights.append(0 if self_crossing
                       else sum(table.weights[e] for e in orbit))
    return weighted_assignment_sum(weights, k, crosses, [1] * len(orbits),
                                   family_rules(family).max_mult)


@lru_cache(maxsize=1, typed=True)
def fixed_count_vector(family: str, n: int, k: int,
                       generator_step: int | None) -> tuple[int, ...]:
    """Entry d, for 0 <= d <= N, counts the k-edge multidissections fixed
    by generator^d, N being the generator's exact order; it depends only on
    gcd(d, N).  A proper divisor counts over the orbit unions of its power
    without listing; the total, where the power is the identity, is the
    length of the listing.  The last vector is kept, keyed by type too (a
    step True is not 1), so a task's polynomial and its checks count once."""
    edge_count(k)
    order = action_order(family, n, generator_step)
    by_divisor = {d: _fixed_count(family, n, k,
                                  _permutation(family, n, d, generator_step))
                  for d in range(1, order) if order % d == 0}
    by_divisor[order] = len(enumerate_multidissections(family, n, k))
    return tuple(by_divisor[gcd(d, order)] for d in range(order + 1))


def count_fixed(family: str, n: int, k: int, d: int,
                generator_step: int | None = None) -> int:
    """Number of k-edge multidissections fixed by generator^d."""
    if _exact_int(d, "power") < 0:
        raise ValueError("power must be >= 0")
    counts = fixed_count_vector(family, n, k, generator_step)
    return counts[gcd(d, len(counts) - 1)]


# ---------------------------------------------------------------------------
# Folding for even powers of the colored rotation
# ---------------------------------------------------------------------------
#
# For even d dividing 2n the d-th rotation power is a pure chord shift,
# and its invariant multidissections biject with multidissections of a
# smaller polygon with parameter p, where p = d when d | n and p = d/2
# otherwise.  Orbits of the shift fold onto single edges: a diameter
# orbit keeps its color and reduces its index mod p; a centrally
# symmetric orbit reduces a constituent chord mod 2p, except that chord
# classes at difference exactly p close up into an inscribed polygon and
# fold onto one diameter of each color.


def fold_target_param(n: int, d: int) -> int:
    n, d = check_size("D", n), _exact_int(d, "power")
    if d <= 0 or d % 2 or (2 * n) % d:
        raise ValueError("folding needs an even divisor of 2n")
    return d if n % d == 0 else d // 2


def _edge_of_chord(family: str, n: int, u: int, v: int, color=None):
    """The edge of (family, n) holding chord {u, v} (vertices mod the
    polygon size) with that color; a missing chord is an internal fault."""
    size = polygon_size(family, n)
    u, v = sorted((u % size, v % size))
    table = edge_table(family, n)
    idx = table.chord_index.get(((u, v), color))
    if idx is None:
        raise ArithmeticError("chord {%d, %d} is not an edge of family %s, "
                              "n=%d" % (u, v, family, n))
    return table.edges[idx]


def fold(n: int, d: int, f: Multidissection) -> Multidissection:
    """Image of an invariant multidissection in the smaller polygon."""
    p = fold_target_param(n, d)
    if f.family != "D" or f.n != n:
        raise ValueError("fold expects a colored multidissection of the 2n-gon")
    if not is_fixed(f, d):
        raise ValueError("multidissection is not invariant under power %d" % d)
    table = edge_table("D", n)
    least = {i: orbit[0] for orbit in _orbits(_permutation("D", n, d, None))
             for i in orbit}
    target: dict = {}
    for i, m in f.index_items():
        if least[i] != i:
            continue  # the orbit's least edge stands for all of it
        e = table.edges[i]
        u, v = edge_chords("D", n, e)[0]
        if table.shapes[i] == DIAMETER:
            images = [(u, u + p, e.color)]
        elif (v - u) % p:
            images = [(u, v, None)]
        elif (v - u) % (2 * p):
            # the chord class closes up into an inscribed polygon
            images = [(u, v, SOLID), (u, v, DOTTED)]
        else:
            # orbits folding to a point always self-cross; unreachable
            # from a valid noncrossing input
            raise ArithmeticError("degenerate fold of chord {%d, %d}" % (u, v))
        for u, v, color in images:
            te = _edge_of_chord("D", p, u, v, color)
            target[te] = target.get(te, 0) + m
    return Multidissection("D", p, target)


def unfold(n: int, d: int, g: Multidissection) -> Multidissection:
    """Inverse of fold: rebuild the invariant multidissection of the
    2n-gon from its image, each image edge lifted to the generator^d orbit
    of the 2n-gon edge holding its chord (distinct edges, disjoint orbits)."""
    p = fold_target_param(n, d)
    if g.family != "D" or g.n != p:
        raise ValueError("unfold expects a multidissection of the fold target")
    table = edge_table("D", n)
    orbit_of = {i: orbit for orbit in _orbits(_permutation("D", n, d, None))
                for i in orbit}
    support: dict = {}

    def lift(u: int, v: int, color, m: int) -> None:
        orbit = orbit_of[table.index[_edge_of_chord("D", n, u, v, color)]]
        support.update((table.edges[i], m) for i in orbit)

    image = edge_table("D", p)
    diameters: dict = {}
    for e, m in g.items():
        if image.shapes[image.index[e]] == DIAMETER:
            diameters[e.a, e.color] = m
        else:
            lift(*edge_chords("D", p, e)[-1], None, m)
    for (a, color), m in diameters.items():
        # below n, the balanced part of a bicolored diameter comes from an
        # inscribed polygon; the rest lifts diameter-wise
        both = min(diameters.get((a, SOLID), 0),
                   diameters.get((a, DOTTED), 0)) if p < n else 0
        if both and color == SOLID:
            lift(a - 1, a - 1 + p, None, both)
        lift(a - 1, a - 1 + n, color, m - both)

    lifted = Multidissection("D", n, support)
    if not is_fixed(lifted, d):
        raise ArithmeticError("unfolded multidissection lost invariance")
    return lifted


def invariant_multidissections(family: str, n: int, k: int, d: int,
                               generator_step: int | None = None) -> list[Multidissection]:
    """The k-edge multidissections that generator^d fixes, listed once."""
    perm = _permutation(family, n, d, generator_step)
    return [md for md in enumerate_multidissections(family, n, k)
            if _permuted(perm, md.index_items()) == md.index_items()]


def odd_power_correspondence(n: int, d: int, k: int) -> list[tuple[Multidissection, Multidissection]]:
    """Pair every colored multidissection invariant under an odd rotation
    power with a centrally symmetric one of half the edge count.

    Odd powers swap diameter colors, so invariance forces balanced
    solid/dotted multiplicities; a balanced diameter pair maps to one
    uncolored diameter, and centrally symmetric pairs map by kind.
    Nothing is invariant at odd k, so the list is empty there.
    """
    n, d, k = check_size("D", n), _exact_int(d, "power"), edge_count(k)
    if d % 2 == 0:
        raise ValueError("this correspondence is for odd powers")
    if k % 2:
        return []
    table = edge_table("D", n)
    out = []
    for f in invariant_multidissections("D", n, k, d):
        support: dict = {}
        balance: dict[tuple, dict[str, int]] = {}
        for e, m in f.items():
            chord = edge_chords("D", n, e)[0]
            if table.shapes[table.index[e]] == DIAMETER:
                balance.setdefault(chord, {})[e.color] = m
            else:
                support[_edge_of_chord("C", n, *chord)] = m
        for chord, colors in balance.items():
            if colors.get(SOLID, 0) != colors.get(DOTTED, 0):
                raise ArithmeticError("invariant multidissection is not "
                                      "diameter-balanced")
            support[_edge_of_chord("C", n, *chord)] = colors[SOLID]
        c = Multidissection("C", n, support)
        if c.edge_count() != k // 2 or not is_fixed(c, d):
            raise ArithmeticError("correspondence produced an invalid image")
        out.append((f, c))
    return out
