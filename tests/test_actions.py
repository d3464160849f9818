"""Rotation actions, invariants, folding, and the odd-power correspondence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.actions import (
    _edge_of_chord,
    _permutation,
    action_order,
    count_fixed,
    declared_group_order,
    fixed_count_vector,
    fold,
    fold_target_param,
    invariant_multidissections,
    is_fixed,
    odd_power_correspondence,
    resolve_step,
    rotate_edge,
    rotate_multidissection,
    unfold,
)
from sievelab.cspverify import orbit_polynomial, theorem_instance, verify
from sievelab.polygons import (
    DOTTED,
    FAMILIES,
    SOLID,
    AEdge,
    CDiameter,
    CIntegrated,
    CSegregated,
    DDiameter,
    DPairInt,
    DPairSeg,
    Multidissection,
    edge_table,
    edge_universe,
    enumerate_multidissections,
    min_n,
)
from sievelab.qseries import IntLaurentPoly


# --- reference rotation and fixed-point filter ----------------------------------
#
# The library rotates edges through a permutation of edge indices and counts
# fixed points over orbit unions.  These are the per-class rotation ladder,
# the enumerate-and-filter count and the orbit walk it replaced, kept as
# independent oracles.

def reference_shift_pair_once(n, segregated, a, b):
    """One vertex step for a centrally symmetric nondiameter pair with
    indices a < b, returning (segregated', a', b')."""
    if b < n:
        return (segregated, a + 1, b + 1)
    # index b sits at the seam: the pair flips kind and restarts at 1
    return (not segregated, 1, a + 1)


def reference_rotate_once(family, n, e):
    if isinstance(e, AEdge):
        i = e.i + 1 if e.i < n else 1
        j = e.j + 1 if e.j < n else 1
        return AEdge(min(i, j), max(i, j))
    if isinstance(e, CDiameter):
        return CDiameter(e.a + 1 if e.a < n else 1)
    if isinstance(e, DDiameter):
        a = e.a + 1 if e.a < n else 1
        return DDiameter(a, DOTTED if e.color == SOLID else SOLID)
    if isinstance(e, CSegregated):
        seg, a, b = reference_shift_pair_once(n, True, e.a, e.b)
        return CSegregated(a, b) if seg else CIntegrated(a, b)
    if isinstance(e, CIntegrated):
        seg, a, b = reference_shift_pair_once(n, False, e.a, e.b)
        return CSegregated(a, b) if seg else CIntegrated(a, b)
    if isinstance(e, DPairSeg):
        seg, a, b = reference_shift_pair_once(n, True, e.a, e.b)
        return DPairSeg(a, b) if seg else DPairInt(a, b)
    if isinstance(e, DPairInt):
        seg, a, b = reference_shift_pair_once(n, False, e.a, e.b)
        return DPairSeg(a, b) if seg else DPairInt(a, b)
    raise TypeError("not an edge: %r" % (e,))


def reference_rotate_edge(family, n, e, step):
    for _ in range(step):
        e = reference_rotate_once(family, n, e)
    return e


def reference_count_fixed(family, n, k, d, step):
    """Filter the enumeration for multidissections fixed by generator^d."""
    emap = {e: e for e in edge_universe(family, n)}
    for _ in range(d):
        emap = {e: reference_rotate_edge(family, n, img, step)
                for e, img in emap.items()}
    return sum(all(md.multiplicity(emap[e]) == m for e, m in md.support.items())
               for md in enumerate_multidissections(family, n, k))


def reference_orbit_sizes(family, n, k, step):
    """Rotate each object's (edge index, multiplicity) tuple by the
    generator until it comes back, counting the steps."""
    rotation = edge_table(family, n).rotation
    gen = tuple(range(len(rotation)))
    for _ in range(resolve_step(family, step)):
        gen = tuple(rotation[i] for i in gen)
    sizes = []
    for md in enumerate_multidissections(family, n, k):
        start = cur = md.index_items()
        size = 0
        while size == 0 or cur != start:
            cur = tuple(sorted((gen[i], m) for i, m in cur))
            size += 1
        sizes.append(size)
    return sizes


def reference_fixed_vector(family, n, k, step):
    """Entry d, for 0 <= d <= the exact order, counts the walked orbit
    sizes dividing d."""
    sizes = reference_orbit_sizes(family, n, k, step)
    return tuple(sum(d % s == 0 for s in sizes)
                 for d in range(action_order(family, n, step) + 1))


def reference_orbit_polynomial(family, n, k, step):
    """Coefficient i counts the walked orbits whose stabilizer order, in
    the declared group, divides i."""
    order = declared_group_order(family, n)
    sizes = reference_orbit_sizes(family, n, k, step)
    coeffs = [0] * order
    for size in set(sizes):
        for i in range(0, order, order // size):
            coeffs[i] += sizes.count(size) // size
    return IntLaurentPoly(dict(enumerate(coeffs)))


def family_cases(n_max):
    """(family, n, generator_step) for every family and size up to n_max
    (A and classicalA up to n_max + 2), with both classicalBC steps."""
    for family in FAMILIES:
        top = n_max + 2 if family in ("A", "classicalA") else n_max
        steps = (1, 2) if family == "classicalBC" else (None,)
        for n in range(min_n(family), top + 1):
            for step in steps:
                yield family, n, step


def test_declared_group_order():
    assert declared_group_order("A", 5) == 5
    assert declared_group_order("classicalA", 6) == 6
    assert declared_group_order("C", 3) == 3
    assert declared_group_order("classicalBC", 3) == 3
    assert declared_group_order("D", 3) == 6
    assert declared_group_order("classicalD", 3) == 6


def test_resolve_step():
    assert resolve_step("classicalBC", None) == 2
    assert resolve_step("classicalBC", 1) == 1
    assert resolve_step("A", None) == 1
    with pytest.raises(ValueError):
        resolve_step("A", 2)
    with pytest.raises(ValueError):
        resolve_step("classicalBC", 3)


def test_rotate_edge_A():
    assert rotate_edge("A", 4, AEdge(1, 2)) == AEdge(2, 3)
    assert rotate_edge("A", 4, AEdge(1, 4)) == AEdge(1, 2)
    assert rotate_edge("A", 4, AEdge(2, 4)) == AEdge(1, 3)


def test_rotate_edge_C_seam():
    # crossing the seam swaps segregated and integrated pairs
    assert rotate_edge("C", 2, CSegregated(1, 2)) == CIntegrated(1, 2)
    assert rotate_edge("C", 2, CIntegrated(1, 2)) == CSegregated(1, 2)
    assert rotate_edge("C", 3, CSegregated(1, 3)) == CIntegrated(1, 2)
    assert rotate_edge("C", 3, CIntegrated(2, 3)) == CSegregated(1, 3)
    assert rotate_edge("C", 3, CSegregated(1, 2)) == CSegregated(2, 3)
    assert rotate_edge("C", 3, CDiameter(3)) == CDiameter(1)
    assert rotate_edge("C", 3, CDiameter(1)) == CDiameter(2)


def test_rotate_edge_D_colors_swap_each_step():
    assert rotate_edge("D", 3, DDiameter(1, SOLID)) == DDiameter(2, DOTTED)
    assert rotate_edge("D", 3, DDiameter(3, SOLID)) == DDiameter(1, DOTTED)
    assert rotate_edge("D", 3, DDiameter(3, DOTTED)) == DDiameter(1, SOLID)
    assert rotate_edge("D", 3, DPairSeg(1, 3)) == DPairInt(1, 2)


def test_rotate_edge_two_steps():
    assert rotate_edge("classicalBC", 3, CDiameter(1)) == CDiameter(3)
    assert rotate_edge("classicalBC", 3, CDiameter(1), 1) == CDiameter(2)


@pytest.mark.parametrize("family,n,step", list(family_cases(5)))
def test_rotate_edge_matches_reference(family, n, step):
    for e in edge_universe(family, n):
        assert rotate_edge(family, n, e, step) == \
            reference_rotate_edge(family, n, e, resolve_step(family, step)), e


def test_rotate_edge_rejects_foreign_edges():
    with pytest.raises(ValueError):
        rotate_edge("classicalA", 6, AEdge(1, 2))  # boundary edge
    with pytest.raises(ValueError):
        rotate_edge("C", 3, AEdge(1, 2))
    with pytest.raises(ValueError):
        rotate_edge("A", 4, AEdge(1, 5))


def rotation_edge_map(family, n, d, generator_step=None):
    """Pairs (edge, generator^d(edge)) over the whole edge universe, read
    from the permutation the package composes."""
    edges = edge_universe(family, n)
    perm = _permutation(family, n, d, generator_step)
    return tuple((e, edges[j]) for e, j in zip(edges, perm))


def test_rotation_edge_map_is_permutation():
    for family, n in [("A", 5), ("C", 3), ("D", 3), ("classicalBC", 3)]:
        universe = edge_universe(family, n)
        mapping = dict(rotation_edge_map(family, n, 1))
        assert set(mapping) == set(universe)
        assert set(mapping.values()) == set(universe)


def test_rotate_multidissection_preserves_structure():
    for family, n, k in [("A", 5, 3), ("C", 3, 2), ("D", 3, 3)]:
        for md in enumerate_multidissections(family, n, k):
            r = rotate_multidissection(md)
            assert r.edge_count() == md.edge_count()
            # rotating through a full period returns the original
            order = action_order(family, n)
            assert rotate_multidissection(md, order) == md


@pytest.mark.parametrize("family,n,step,order", [
    ("A", 5, None, 5),
    ("A", 4, None, 4),
    ("classicalA", 4, None, 2),
    ("D", 2, None, 2),
    ("D", 3, None, 6),
    ("classicalBC", 2, None, 1),
    ("classicalBC", 3, 1, 3),
    ("classicalBC", 3, None, 3),
])
def test_action_order(family, n, step, order):
    assert action_order(family, n, step) == order
    assert declared_group_order(family, n) % order == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(family_cases(3))), st.integers(0, 12))
def test_generator_powers_preserve_the_edge_table(case, d):
    # generator^d, composed here from the table's one-vertex-step rotation,
    # permutes edge positions with an order dividing the group order, maps
    # every edge's crossing mask onto its image's mask and keeps every weight
    family, n, step = case
    table = edge_table(family, n)
    size = len(table.edges)
    perm = tuple(range(size))
    for _ in range(d * resolve_step(family, step)):
        perm = tuple(table.rotation[i] for i in perm)
    assert sorted(perm) == list(range(size))
    power, order = perm, 1
    while power != tuple(range(size)):
        power = tuple(perm[i] for i in power)
        order += 1
    assert declared_group_order(family, n) % order == 0
    # edges i and j cross exactly when perm[i] and perm[j] do
    assert all(sum(1 << perm[j] for j in range(size) if mask >> j & 1)
               == table.crosses[perm[i]]
               for i, mask in enumerate(table.crosses))
    assert all(table.weights[perm[i]] == w for i, w in enumerate(table.weights))
    assert rotation_edge_map(family, n, d, step) == \
        tuple((e, table.edges[j]) for e, j in zip(table.edges, perm))


def test_count_fixed_frozen():
    assert count_fixed("A", 4, 1, 1) == 0
    assert count_fixed("A", 4, 1, 2) == 2
    assert count_fixed("A", 4, 1, 4) == 6
    assert count_fixed("C", 2, 1, 1) == 0
    assert count_fixed("C", 2, 1, 2) == 4
    assert count_fixed("D", 2, 1, 1) == 0
    assert count_fixed("D", 2, 1, 2) == 4
    assert count_fixed("D", 2, 1, 4) == 4


@pytest.mark.parametrize("family,n,step", list(family_cases(5)))
def test_count_fixed_matches_reference_filter(family, n, step):
    # every power, divisors of the group order or not; verify's fixed
    # counts come from the same vector and must agree too
    order = declared_group_order(family, n)
    for k in range(0, 4):
        report = verify(theorem_instance("orbit-poly", n, k,
                                         generator_step=step, family=family))
        for d in range(1, order + 1):
            want = reference_count_fixed(family, n, k, d,
                                         resolve_step(family, step))
            assert count_fixed(family, n, k, d, step) == want, (k, d)
            assert report.checks[d - 1].fixed_count == want, (k, d)


def test_count_fixed_rejects_negative_power():
    # as is_fixed and invariant_multidissections do
    with pytest.raises(ValueError, match="power must be >= 0"):
        count_fixed("A", 5, 2, -1)


@pytest.mark.parametrize("family,n,step",
                         [c for c in family_cases(7) if c[1] <= 7])
def test_orbit_sizes_match_orbit_walk(family, n, step):
    # the vector counts exactly the walked orbit sizes dividing each power
    for k in range(0, 5):
        assert fixed_count_vector(family, n, k, step) == \
            reference_fixed_vector(family, n, k, step), k


def test_fixed_count_vector_is_a_kept_tuple():
    # the kept vector cannot be changed through its result
    vector = fixed_count_vector("A", 6, 3, None)
    assert type(vector) is tuple
    assert fixed_count_vector("A", 6, 3, None) is vector


# --- fixed counts over orbit unions, without listing ------------------------

def fixed_vector_cases():
    """(family, n, step) for every family and both classicalBC steps, five
    sizes each from the family's least."""
    for family in FAMILIES:
        low = max(min_n(family), 3 if family in ("A", "classicalA") else 1)
        for step in ((1, 2) if family == "classicalBC" else (None,)):
            for n in range(low, low + 5):
                yield family, n, step


FIXED_VECTOR_CASES = list(fixed_vector_cases())
FIXED_VECTOR_KS = range(0, 5)


def test_fixed_vector_case_count():
    # the listing comparison below covers at least 150 (family, n, k, step)
    assert len(FIXED_VECTOR_CASES) * len(FIXED_VECTOR_KS) >= 150


@pytest.mark.parametrize("family,n,step", FIXED_VECTOR_CASES)
def test_fixed_count_vector_matches_listing(family, n, step):
    # each power's entry is the listing filtered by that power
    order = action_order(family, n, step)
    for k in FIXED_VECTOR_KS:
        assert fixed_count_vector(family, n, k, step) == tuple(
            len(invariant_multidissections(family, n, k, d, step))
            for d in range(order + 1)), k


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(family_cases(4))), st.integers(0, 4), st.data())
def test_fixed_count_vector_matches_reference_filter(case, k, data):
    family, n, step = case
    vector = fixed_count_vector(family, n, k, step)
    assert len(vector) == action_order(family, n, step) + 1
    d = data.draw(st.integers(0, len(vector) - 1))
    assert vector[d] == reference_count_fixed(family, n, k, d,
                                              resolve_step(family, step))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(family_cases(4))), st.integers(0, 4))
def test_orbit_polynomial_matches_orbit_walk(case, k):
    # the orbits recovered from the fixed counts are the walked orbits
    family, n, step = case
    assert orbit_polynomial(family, n, k, step) == \
        reference_orbit_polynomial(family, n, k, step)


def test_fixed_count_vector_rejects_negative_k():
    with pytest.raises(ValueError):
        fixed_count_vector("A", 5, -1, None)


def test_powers_and_edge_counts_must_be_ints():
    # a bool is not read as 1, nor a float as the int it equals
    md = enumerate_multidissections("A", 5, 2)[3]
    for call in (lambda: count_fixed("A", 6, 2, True),
                 lambda: count_fixed("A", 6, 2, 2.0),
                 lambda: count_fixed("A", 6, True, 1),
                 lambda: fixed_count_vector("A", 6, 2.0, None),
                 lambda: rotate_multidissection(md, True),
                 lambda: rotate_multidissection(md, 1.0),
                 lambda: is_fixed(md, True)):
        with pytest.raises(TypeError):
            call()
    assert count_fixed("A", 6, 2, 1) == 0
    with pytest.raises(ValueError, match="power must be >= 0"):
        rotate_multidissection(md, -1)


def test_verify_lists_once_and_reads_the_vector(monkeypatch):
    # verify reads every power from the vector, whose total is one listing
    import sievelab.cspverify as cspverify
    import sievelab.polygons as polygons

    real_build = polygons.iter_weighted_assignments
    real_vector = cspverify.fixed_count_vector
    builds, vectors = [], []

    def build(*args):
        builds.append(args[1])
        return real_build(*args)

    def vector(*args):
        vectors.append(args)
        return real_vector(*args)

    fixed_count_vector.cache_clear()
    monkeypatch.setattr(polygons, "iter_weighted_assignments", build)
    monkeypatch.setattr(cspverify, "fixed_count_vector", vector)
    report = verify(theorem_instance("thm2.5", 5, 2))
    assert report.csp_holds
    assert builds == [2]
    assert vectors == [("A", 5, 2, None)]
    assert [c.fixed_count for c in report.checks] == \
        [real_vector("A", 5, 2, None)[d] for d in range(1, 6)]


def test_invariant_multidissections_consistency():
    # classicalBC with its default two-step generator: at n = 3 a diameter
    # is fixed by generator^3 but not by generator^1
    for family, n, k, d in [("A", 4, 2, 2), ("C", 3, 2, 3), ("D", 3, 2, 2),
                            ("classicalBC", 3, 1, 1), ("classicalBC", 3, 1, 3)]:
        inv = invariant_multidissections(family, n, k, d)
        assert len(inv) == count_fixed(family, n, k, d)
        for md in enumerate_multidissections(family, n, k):
            assert is_fixed(md, d) == (md in inv)


@pytest.mark.parametrize("family,n,step", list(family_cases(3)))
def test_invariants_list_once_and_match_orbit_sizes(monkeypatch, family,
                                                    n, step):
    import sievelab.polygons as polygons

    real = polygons.iter_weighted_assignments
    builds = []

    def build(*args):
        builds.append(args[1])
        return real(*args)

    # the walked orbit-size filter, listed before the spy goes in
    wanted = {}
    for k in range(0, 4):
        listing = enumerate_multidissections(family, n, k)
        sizes = reference_orbit_sizes(family, n, k, step)
        for d in range(0, declared_group_order(family, n) + 1):
            wanted[k, d] = [md for md, s in zip(listing, sizes) if d % s == 0]
    monkeypatch.setattr(polygons, "iter_weighted_assignments", build)
    for (k, d), want in wanted.items():
        builds.clear()
        assert invariant_multidissections(family, n, k, d, step) == want
        assert builds == [k], (k, d)
    # a negative power is rejected, as by is_fixed
    with pytest.raises(ValueError, match="power must be >= 0"):
        invariant_multidissections(family, n, 1, -1, step)


# --- folding ------------------------------------------------------------------

def test_fold_target_param():
    assert fold_target_param(3, 2) == 1
    assert fold_target_param(3, 6) == 3
    assert fold_target_param(4, 2) == 2
    assert fold_target_param(4, 4) == 4
    assert fold_target_param(6, 4) == 2
    for n, d in [(3, 3), (3, 4), (2, 3)]:
        with pytest.raises(ValueError):
            fold_target_param(n, d)


def test_fold_diameter_orbit():
    # a full orbit of solid diameters on the square folds to the digon pair
    f = Multidissection("D", 4, {DDiameter(a, SOLID): 1 for a in (1, 2, 3, 4)})
    g = fold(4, 2, f)
    assert g.n == 2
    assert dict(g.support) == {DDiameter(1, SOLID): 1, DDiameter(2, SOLID): 1}


def test_fold_inscribed_square_to_bicolored_diameter():
    f = Multidissection("D", 4, {DPairSeg(1, 3): 1, DPairInt(1, 3): 1})
    g = fold(4, 2, f)
    assert dict(g.support) == {DDiameter(1, SOLID): 1, DDiameter(1, DOTTED): 1}


def test_fold_pair_orbit():
    f = Multidissection("D", 4, {DPairSeg(1, 2): 1, DPairSeg(3, 4): 1})
    g = fold(4, 2, f)
    assert dict(g.support) == {DPairSeg(1, 2): 1}
    assert unfold(4, 2, g) == f


def test_unfold_example():
    g = Multidissection("D", 2, {DPairSeg(1, 2): 1})
    f = unfold(4, 2, g)
    assert dict(f.support) == {DPairSeg(1, 2): 1, DPairSeg(3, 4): 1}


def test_chord_lookup():
    # vertices are taken modulo the polygon size, in either order
    assert _edge_of_chord("D", 3, 4, 0) == DPairInt(1, 2)
    assert _edge_of_chord("D", 3, 7, 8) == DPairSeg(2, 3)
    assert _edge_of_chord("D", 3, 2, 5, DOTTED) == DDiameter(3, DOTTED)
    assert _edge_of_chord("C", 3, 0, 3) == CDiameter(1)


@pytest.mark.parametrize("family,n,u,v,color", [
    ("D", 3, 0, 3, None),  # a colored diameter asked without its color
    ("D", 3, 1, 1, None),  # a point
    ("C", 3, 0, 3, SOLID),  # an uncolored diameter asked with a color
    ("classicalA", 6, 0, 1, None),  # a side of the polygon
])
def test_chord_lookup_miss_is_an_internal_fault(family, n, u, v, color):
    # folding only asks for chords of the table, so a miss is a failed
    # invariant (exit 3), never a bare KeyError
    with pytest.raises(ArithmeticError, match="is not an edge of family"):
        _edge_of_chord(family, n, u, v, color)


def test_fold_rejects_non_invariant():
    md = Multidissection("D", 3, {DDiameter(1, SOLID): 1})
    with pytest.raises(ValueError):
        fold(3, 2, md)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fold_unfold_round_trip(n):
    for d in range(2, 2 * n + 1, 2):
        if (2 * n) % d:
            continue
        p = fold_target_param(n, d)
        for k in range(0, 5):
            inv = invariant_multidissections("D", n, k, d)
            images = set()
            for f in inv:
                g = fold(n, d, f)
                assert g.n == p
                assert unfold(n, d, g).key() == f.key()
                images.add(g.key())
            # folding is injective on invariants
            assert len(images) == len(inv)
            # weight scales exactly when any invariants exist
            for f in inv:
                g = fold(n, d, f)
                assert g.edge_count() * n == f.edge_count() * p


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unfold_fold_round_trip(n):
    for d in range(2, 2 * n + 1, 2):
        if (2 * n) % d:
            continue
        p = fold_target_param(n, d)
        for k in range(0, 4):
            for g in enumerate_multidissections("D", p, k):
                f = unfold(n, d, g)
                assert is_fixed(f, d)
                assert fold(n, d, f).key() == g.key()


# --- odd powers ---------------------------------------------------------------

def test_odd_power_correspondence_frozen():
    pairs = odd_power_correspondence(3, 3, 2)
    assert len(pairs) == 9
    supports = {tuple(sorted(dict(c.support).items(), key=repr)) for _, c in pairs}
    assert len(supports) == 9
    # balanced bicolored diameters map to plain diameters
    f = Multidissection("D", 3, {DDiameter(1, SOLID): 1, DDiameter(1, DOTTED): 1})
    match = [c for g, c in pairs if g == f]
    assert len(match) == 1
    assert dict(match[0].support) == {CDiameter(1): 1}


def test_odd_power_correspondence_empty_for_odd_weight():
    assert odd_power_correspondence(3, 3, 3) == []
    assert odd_power_correspondence(3, 1, 2) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_odd_power_correspondence_bijective(n):
    for d in range(1, 2 * n, 2):
        for k in range(0, 5):
            pairs = odd_power_correspondence(n, d, k)
            assert len(pairs) == len(invariant_multidissections("D", n, k, d))
            if k % 2 == 1:
                assert pairs == []
                continue
            image_keys = set()
            for f, c in pairs:
                assert is_fixed(f, d)
                assert c.family == "C"
                assert c.edge_count() == k // 2
                assert is_fixed(c, d)
                image_keys.add(c.key())
            assert len(image_keys) == len(pairs)


def test_odd_power_correspondence_rejects_even_power():
    with pytest.raises(ValueError):
        odd_power_correspondence(3, 2, 2)
