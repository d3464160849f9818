"""Rotation actions on polygon edge systems.

The generator of each family's cyclic action:
  A, classicalA    one vertex step on the n-gon
  C               one vertex step on the 2n-gon (bar labels renormalize)
  D, classicalD    one vertex step on the 2n-gon plus a color swap on
                   every diameter
  classicalBC      `generator_step` vertex steps on the 2n-gon (default 2)

Each generator is a power of the one-vertex-step permutation of edge
positions in the family's `EdgeTable` (`polygons.edge_table`), so a
rotated multidissection is its index tuple permuted and re-sorted.

Also home to the folding bijection between multidissections invariant
under an even power of the colored rotation and multidissections of a
smaller polygon, and to the odd-power correspondence with the centrally
symmetric family.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .polygons import (
    SOLID, DOTTED,
    CDiameter, CSegregated, CIntegrated,
    DDiameter, DPairSeg, DPairInt,
    Multidissection, edge_chords, edge_table, edge_universe,
    enumerate_multidissections,
)


def declared_group_order(family: str, n: int) -> int:
    """Order of the acting cyclic group (which may exceed the exact order
    of the generator on the edge set)."""
    return 2 * n if family in ("D", "classicalD") else n


def resolve_step(family: str, generator_step: int | None) -> int:
    """classicalBC admits a configurable vertex-step; everyone else is
    pinned to one application of the family generator."""
    if family == "classicalBC":
        if generator_step is None:
            return 2
        if generator_step not in (1, 2):
            raise ValueError("generator_step must be 1 or 2")
        return generator_step
    if generator_step is not None:
        raise ValueError("generator_step applies to classicalBC only")
    return 1


def _permutation(family: str, n: int, d: int,
                 generator_step: int | None) -> tuple[int, ...]:
    """generator^d as a permutation of edge indices."""
    if d < 0:
        raise ValueError("power must be >= 0")
    rotation = edge_table(family, n).rotation
    perm = tuple(range(len(rotation)))
    for _ in range(d * resolve_step(family, generator_step)):
        perm = tuple(rotation[i] for i in perm)
    return perm


def rotate_edge(family: str, n: int, e, generator_step: int | None = None):
    """One application of the family's generator to a single edge."""
    table = edge_table(family, n)
    if e not in table.index:
        raise ValueError("edge %r is not valid for family %s, n=%d"
                         % (e, family, n))
    gen = _permutation(family, n, 1, generator_step)
    return table.edges[gen[table.index[e]]]


def rotation_edge_map(family: str, n: int, d: int,
                      generator_step: int | None = None) -> tuple:
    """Pairs (edge, generator^d(edge)) over the whole edge universe."""
    edges = edge_universe(family, n)
    perm = _permutation(family, n, d, generator_step)
    return tuple((e, edges[j]) for e, j in zip(edges, perm))


def rotate_multidissection(md: Multidissection, d: int = 1,
                           generator_step: int | None = None) -> Multidissection:
    perm = _permutation(md.family, md.n, d, generator_step)
    return Multidissection._from_items(
        md.family, md.n, tuple(sorted((perm[i], m) for i, m in md.index_items())))


def is_fixed(md: Multidissection, d: int,
             generator_step: int | None = None) -> bool:
    return rotate_multidissection(md, d, generator_step) == md


def action_order(family: str, n: int, generator_step: int | None = None) -> int:
    """Exact order of the generator on the full edge set."""
    gen = _permutation(family, n, 1, generator_step)
    order, perm = 1, gen
    while perm != tuple(range(len(gen))):
        perm = tuple(gen[i] for i in perm)
        order += 1
    return order


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, increasing."""
    primes, p = [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def orbit_sizes(family: str, n: int, k: int,
                generator_step: int | None = None) -> list[int]:
    """Orbit size of every k-edge multidissection, in enumeration order.

    An orbit size divides the generator's exact order N.  Starting from
    N, each prime p dividing N is divided out while generator^(size/p)
    fixes the object, which leaves the least power that fixes it: one
    rotate-and-sort per prime factor of N for an object with a full
    orbit.  generator^d fixes an object exactly when its orbit size
    divides d."""
    order = action_order(family, n, generator_step)
    primes = _prime_factors(order)
    powers = {d: _permutation(family, n, d, generator_step)
              for d in range(1, order) if order % d == 0}
    sizes = []
    for md in enumerate_multidissections(family, n, k):
        items = md.index_items()
        size = order
        for p in primes:
            while size % p == 0:
                perm = powers[size // p]
                if tuple(sorted((perm[i], m) for i, m in items)) != items:
                    break
                size //= p
        sizes.append(size)
    return sizes


def fixed_counts(sizes, order: int) -> list[int]:
    """Entry d, for 0 <= d <= order, counts the orbit sizes dividing d:
    the objects fixed by generator^d, all of them at d = 0."""
    counts = [0] * (order + 1)
    for size, members in Counter(sizes).items():
        for d in range(0, order + 1, size):
            counts[d] += members
    return counts


def count_fixed(family: str, n: int, k: int, d: int,
                generator_step: int | None = None) -> int:
    """Number of k-edge multidissections fixed by generator^d."""
    # every orbit size s divides the order, so s | d exactly when
    # s | gcd(d, order)
    order = action_order(family, n, generator_step)
    return fixed_counts(orbit_sizes(family, n, k, generator_step),
                        order)[gcd(d, order)]


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
    if d <= 0 or d % 2 or (2 * n) % d:
        raise ValueError("folding needs an even divisor of 2n")
    return d if n % d == 0 else d // 2


def _d_pair_from_chord(m: int, u: int, v: int):
    """The centrally symmetric pair of the 2m-gon containing chord {u, v}
    (0-indexed, nondiameter)."""
    u %= 2 * m
    v %= 2 * m
    if u == v or (v - u) % (2 * m) == m:
        raise ValueError("chord {%d, %d} is degenerate in P_%d" % (u, v, 2 * m))
    u_barred, v_barred = u >= m, v >= m
    x = u - m + 1 if u_barred else u + 1
    y = v - m + 1 if v_barred else v + 1
    if u_barred == v_barred:
        return DPairSeg(min(x, y), max(x, y))
    return DPairInt(min(x, y), max(x, y))


def _orbits(md: Multidissection, emap: dict) -> list[tuple[tuple, int]]:
    """Support split into generator^d-orbits as (orbit edges, multiplicity)."""
    seen = set()
    out = []
    for e, m in md.items():
        if e in seen:
            continue
        orbit = [e]
        cur = emap[e]
        while cur != e:
            orbit.append(cur)
            cur = emap[cur]
        seen.update(orbit)
        out.append((tuple(orbit), m))
    return out


def fold(n: int, d: int, f: Multidissection) -> Multidissection:
    """Image of an invariant multidissection in the smaller polygon."""
    p = fold_target_param(n, d)
    if f.family != "D" or f.n != n:
        raise ValueError("fold expects a colored multidissection of the 2n-gon")
    if not is_fixed(f, d):
        raise ValueError("multidissection is not invariant under power %d" % d)
    emap = dict(rotation_edge_map("D", n, d))
    target: dict = {}
    for orbit, m in _orbits(f, emap):
        rep = orbit[0]
        if isinstance(rep, DDiameter):
            te = DDiameter((rep.a - 1) % p + 1, rep.color)
            target[te] = target.get(te, 0) + m
            continue
        u, v = edge_chords("D", n, rep)[0]
        diff = (v - u) % (2 * p)
        if diff == 0:
            # orbits folding to a point always self-cross; unreachable
            # from a valid noncrossing input
            raise ArithmeticError("degenerate fold of chord {%d, %d}" % (u, v))
        if diff == p:
            idx = u % p + 1
            for color in (SOLID, DOTTED):
                te = DDiameter(idx, color)
                target[te] = target.get(te, 0) + m
        else:
            te = _d_pair_from_chord(p, u, v)
            target[te] = target.get(te, 0) + m
    return Multidissection("D", p, target)


def _lift_chord_class(n: int, p: int, u: int, delta: int) -> set:
    """All centrally symmetric pairs of the 2n-gon meeting the chord
    translate class {u + jp, u + delta + jp}."""
    out = set()
    for j in range(2 * n // p):
        a = (u + j * p) % (2 * n)
        b = (u + delta + j * p) % (2 * n)
        out.add(_d_pair_from_chord(n, a, b))
    if len(out) != n // p:
        raise ArithmeticError("chord class lift produced a wrong orbit size")
    return out


def unfold(n: int, d: int, g: Multidissection) -> Multidissection:
    """Inverse of fold: rebuild the invariant multidissection of the
    2n-gon from its image."""
    p = fold_target_param(n, d)
    if g.family != "D" or g.n != p:
        raise ValueError("unfold expects a multidissection of the fold target")
    solid = {e.a: m for e, m in g.items()
             if isinstance(e, DDiameter) and e.color == SOLID}
    dotted = {e.a: m for e, m in g.items()
              if isinstance(e, DDiameter) and e.color == DOTTED}
    support: dict = {}

    if p < n:
        # bicolored diameters come from inscribed polygons; peel off the
        # balanced part before lifting leftover diameters orbit-wise
        for i in sorted(set(solid) & set(dotted)):
            m = min(solid[i], dotted[i])
            solid[i] -= m
            dotted[i] -= m
            for pair in _lift_chord_class(n, p, i - 1, p):
                support[pair] = support.get(pair, 0) + m

    for colored, color in ((solid, SOLID), (dotted, DOTTED)):
        for i, m in colored.items():
            if not m:
                continue
            for j in range(n // p):
                e = DDiameter(i + j * p, color)
                support[e] = support.get(e, 0) + m

    for e, m in g.items():
        if isinstance(e, DDiameter):
            continue
        if isinstance(e, DPairSeg):
            u, delta = e.a - 1, e.b - e.a
        else:
            u, delta = e.b - 1, p + e.a - e.b
        for pair in _lift_chord_class(n, p, u, delta):
            support[pair] = support.get(pair, 0) + m

    lifted = Multidissection("D", n, support)
    if not is_fixed(lifted, d):
        raise ArithmeticError("unfolded multidissection lost invariance")
    return lifted


def invariant_multidissections(family: str, n: int, k: int, d: int,
                               generator_step: int | None = None) -> list[Multidissection]:
    sizes = orbit_sizes(family, n, k, generator_step)
    return [md for md, s in zip(enumerate_multidissections(family, n, k), sizes)
            if d % s == 0]


def odd_power_correspondence(n: int, d: int, k: int) -> list[tuple[Multidissection, Multidissection]]:
    """Pair every colored multidissection invariant under an odd rotation
    power with a centrally symmetric one of half the edge count.

    Odd powers swap diameter colors, so invariance forces balanced
    solid/dotted multiplicities; a balanced diameter pair maps to one
    uncolored diameter, and centrally symmetric pairs map by kind.
    Nothing is invariant at odd k, so the list is empty there.
    """
    if d % 2 == 0:
        raise ValueError("this correspondence is for odd powers")
    if k % 2:
        return []
    out = []
    for f in invariant_multidissections("D", n, k, d):
        support: dict = {}
        balance: dict[int, dict[str, int]] = {}
        for e, m in f.items():
            if isinstance(e, DDiameter):
                balance.setdefault(e.a, {})[e.color] = m
            elif isinstance(e, DPairSeg):
                support[CSegregated(e.a, e.b)] = m
            else:
                support[CIntegrated(e.a, e.b)] = m
        for a, colors in balance.items():
            if colors.get(SOLID, 0) != colors.get(DOTTED, 0):
                raise ArithmeticError("invariant multidissection is not "
                                      "diameter-balanced")
            support[CDiameter(a)] = colors[SOLID]
        c = Multidissection("C", n, support)
        if c.edge_count() != k // 2 or not is_fixed(c, d):
            raise ArithmeticError("correspondence produced an invalid image")
        out.append((f, c))
    return out
