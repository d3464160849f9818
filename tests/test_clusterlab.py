"""Exact linear algebra over Gaussian rationals: cluster monomials, bases,
rotation equivariance, and the spanning conjecture audit."""

import gc
import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import clusterlab
from sievelab.actions import fixed_count_vector, rotate_multidissection
from sievelab.clusterlab import (
    GR_HALF,
    GR_I,
    GR_INV_2I,
    GR_ONE,
    GR_ZERO,
    GaussRat,
    VarSubstitution,
    XPoly,
    character_check_A,
    character_check_D,
    character_sum_A,
    character_sum_D,
    check_basis_A,
    check_basis_C,
    check_conjecture_D,
    cluster_monomial,
    dependency_witness,
    equivariance_discrepancy,
    expected_dim_D,
    j_generator,
    j_member,
    j_reduce,
    lemma_basis_multidissections,
    minor,
    rank,
    rotation_substitution,
    var_index,
    verify_equivariance,
    z_A,
    z_C,
    z_D,
)
from sievelab.clusterlab import _PRIME, _SQRT_M1, _factor_power, _rank_mod_p
from sievelab.cspverify import theorem_instance, verify
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
    enumerate_multidissections,
)
from sievelab.qseries import IntLaurentPoly
from sievelab.symfunc import (
    as_point, character_A, character_C, character_D, ones_point,
    principal_point, schur_eval,
)
from sievelab.tableaux import enumerate_ssyt


# --- Gaussian rationals -------------------------------------------------------

def test_gaussrat_field_ops_match_complex_floats():
    rng = random.Random(5)
    for _ in range(60):
        a = GaussRat(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
                     Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
        b = GaussRat(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
                     Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
        ca = complex(a.re) + 1j * complex(a.im)
        cb = complex(b.re) + 1j * complex(b.im)
        assert abs(complex((a + b).re) + 1j * complex((a + b).im) - (ca + cb)) < 1e-9
        assert abs(complex((a * b).re) + 1j * complex((a * b).im) - (ca * cb)) < 1e-9
        if b != GR_ZERO:
            q = a / b
            assert abs(complex(q.re) + 1j * complex(q.im) - ca / cb) < 1e-9
            assert q * b == a


def test_gaussrat_exactness_and_identities():
    assert GR_I * GR_I == GaussRat(-1)
    assert GaussRat(1, 2) * GaussRat(1, -2) == GaussRat(5)
    assert GaussRat(0, 1) / GaussRat(0, 1) == GR_ONE
    third = GaussRat(Fraction(1, 3))
    assert third + third + third == GR_ONE
    assert -GaussRat(2, -3) == GaussRat(-2, 3)
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_gaussrat_is_immutable_and_hashable():
    a = GaussRat(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert len({GaussRat(1, 2), GaussRat(1, 2), GaussRat(2, 1)}) == 2
    assert GaussRat(3) == GaussRat(Fraction(6, 2))
    # a real value hashes as the int or Fraction it equals
    assert len({GaussRat(3), 3, GaussRat(Fraction(6, 2))}) == 1
    assert len({GaussRat(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {Fraction(1, 2): "half"}[GaussRat(Fraction(1, 2))] == "half"


def assert_exact(g):
    # integral parts are plain ints, the others Fractions; never a float
    for part in (g.re, g.im):
        assert type(part) in (int, Fraction)
        if type(part) is Fraction:
            assert part.denominator != 1


def test_gaussrat_parts_stay_exact():
    third = GaussRat(1) / GaussRat(3)
    assert third.re == Fraction(1, 3) and type(third.re) is Fraction
    assert third.im == 0 and type(third.im) is int
    assert type(GaussRat(Fraction(6, 2)).re) is int
    assert GaussRat(4) / GaussRat(2) == GaussRat(2)
    rng = random.Random(9)
    for _ in range(200):
        a = GaussRat(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
                     rng.randrange(-6, 7))
        b = GaussRat(rng.randrange(-6, 7),
                     Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
        results = [a + b, a - b, a * b, -a, 2 * a, a - 1]
        if b:
            results += [a / b, 1 / b]
        for g in results:
            assert_exact(g)


def test_gaussrat_repr_is_unchanged():
    cases = [
        (GaussRat(3), "3"), (GaussRat(Fraction(6, 2)), "3"), (GaussRat(-2), "-2"),
        (GR_ZERO, "0"), (GaussRat(Fraction(-3, 2)), "-3/2"),
        (GaussRat(0, 1), "1*i"), (GaussRat(0, -1), "-1*i"),
        (GR_INV_2I, "-1/2*i"), (GaussRat(1, -2), "(1-2*i)"),
        (GaussRat(Fraction(3, 2), Fraction(1, 2)), "(3/2+1/2*i)"),
        (GaussRat(Fraction(-1, 2), -3), "(-1/2-3*i)"),
    ]
    for g, want in cases:
        assert repr(g) == want


# --- polynomials ---------------------------------------------------------------

def test_gaussrat_rejects_a_float():
    with pytest.raises(TypeError):
        GaussRat(0.1)


def test_xpoly_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        XPoly(1, {(1, 0): 0.5})


def test_character_check_rejects_a_float_value():
    with pytest.raises(TypeError):
        character_check_A(3, 1, [1, 2.5, 1])


def test_var_index_layout():
    assert var_index(1, 1, 4) == 0
    assert var_index(1, 2, 4) == 1
    assert var_index(2, 1, 4) == 2
    assert var_index(4, 2, 4) == 7


def random_xpoly(rng, nrows, max_terms=4):
    p = XPoly.zero(nrows)
    for _ in range(rng.randrange(max_terms + 1)):
        term = XPoly.const(nrows, GaussRat(rng.randrange(-5, 6),
                                           rng.randrange(-2, 3)))
        for _ in range(rng.randrange(3)):
            term = term * XPoly.variable(nrows, rng.randrange(1, nrows + 1),
                                         rng.randrange(1, 3))
        p = p + term
    return p


def random_point(rng, nrows):
    return [GaussRat(rng.randrange(-4, 5), rng.randrange(-2, 3))
            for _ in range(2 * nrows)]


def test_xpoly_arithmetic_is_ring_homomorphism_under_eval():
    rng = random.Random(31)
    for _ in range(40):
        nrows = rng.randrange(2, 5)
        a = random_xpoly(rng, nrows)
        b = random_xpoly(rng, nrows)
        pt = random_point(rng, nrows)
        assert (a + b).eval_at(pt) == a.eval_at(pt) + b.eval_at(pt)
        assert (a - b).eval_at(pt) == a.eval_at(pt) - b.eval_at(pt)
        assert (a * b).eval_at(pt) == a.eval_at(pt) * b.eval_at(pt)
        assert (a ** 2).eval_at(pt) == a.eval_at(pt) * a.eval_at(pt)


def test_minor_is_two_by_two_determinant():
    rng = random.Random(77)
    for _ in range(20):
        pt = random_point(rng, 4)
        for i in range(1, 4):
            for j in range(i + 1, 5):
                det = (pt[var_index(i, 1, 4)] * pt[var_index(j, 2, 4)]
                       - pt[var_index(i, 2, 4)] * pt[var_index(j, 1, 4)])
                assert minor(i, j, 4).eval_at(pt) == det


def test_xpoly_rejects_negative_and_non_integer_exponents():
    # a negative exponent would borrow from the neighbouring packed field
    for mono in [(-1, 0), (0, -2), (1.5, 0), (Fraction(1, 2), 0), ("1", 0)]:
        with pytest.raises(ValueError):
            XPoly(1, {mono: 1})
    with pytest.raises(ValueError):
        XPoly(1, {(1, 0, 0): 1})
    assert XPoly(1, {(2, 3): 1}).total_degree() == 5


def test_exponent_overflow_raises():
    x = XPoly.variable(2, 1, 1)
    y = XPoly.variable(2, 1, 2)
    top = x ** 127 * y ** 127
    assert top.monomials() == [(127, 127, 0, 0)]
    for build in (lambda: x ** 128, lambda: top * x, lambda: x ** 100 * x ** 28,
                  lambda: XPoly(2, {(128, 0, 0, 0): 1})):
        with pytest.raises(ArithmeticError):
            build()
    # the rewrite x21 x32 -> x22 x31 pushes x22 past the largest exponent
    n = 1
    p = XPoly(3, {(0, 0, 1, 127, 0, 1): 1})
    with pytest.raises(ArithmeticError):
        j_reduce(p, n)
    # no stored monomial can exceed the largest exponent
    assert top.coefficient((128, 0, 0, 0)) == GR_ZERO


def test_plucker_relation():
    # three-term quadratic relation among the six minors on four rows
    d = {(i, j): minor(i, j, 4) for i in range(1, 4) for j in range(i + 1, 5)}
    lhs = d[(1, 3)] * d[(2, 4)]
    rhs = d[(1, 2)] * d[(3, 4)] + d[(1, 4)] * d[(2, 3)]
    assert (lhs - rhs).is_zero()


# --- cluster monomials ----------------------------------------------------------

def test_z_A_is_minor_product():
    f = Multidissection("A", 4, {AEdge(1, 3): 2, AEdge(1, 4): 1})
    want = minor(1, 3, 4) * minor(1, 3, 4) * minor(1, 4, 4)
    assert z_A(f) == want


def test_cluster_monomial_dispatch():
    fa = Multidissection("A", 4, {AEdge(1, 3): 1})
    assert cluster_monomial("A", fa) == z_A(fa)
    fc = Multidissection("C", 2, {CDiameter(1): 1})
    assert cluster_monomial("C", fc) == z_C(fc)
    fd = Multidissection("D", 2, {DDiameter(1, SOLID): 1})
    assert cluster_monomial("D", fd) == z_D(fd)
    with pytest.raises(ValueError):
        cluster_monomial("A", fc)


# Degree helpers for the homogeneity checks below; nothing outside the
# tests needs them.
def row_degrees(p: XPoly) -> tuple[int, ...]:
    """The per-row degree vector shared by every monomial (weight of the
    diagonal torus action); raises when monomials disagree."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no weight")
    common = None
    for m in p._terms:
        exps = m.to_bytes(2 * p.nrows, "big")
        vec = tuple(map(add, exps[0::2], exps[1::2]))
        if common is None:
            common = vec
        elif vec != common:
            raise ValueError("monomials carry different row degrees")
    return common


def d_degree(p: XPoly, n: int) -> int:
    """Total exponent on rows 1..n, common to all monomials."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no degree")
    if p.nrows < n:
        raise ValueError("ring has fewer than %d rows" % n)
    common = None
    for m in p._terms:
        deg = sum(m.to_bytes(2 * p.nrows, "big")[:2 * n])
        if common is None:
            common = deg
        elif deg != common:
            raise ValueError("monomials carry different degrees on rows 1..%d" % n)
    return common


def test_z_A_weight_vector():
    f = Multidissection("A", 4, {AEdge(2, 4): 3})
    assert row_degrees(z_A(f)) == (0, 3, 0, 3)


def test_z_C_edge_images():
    rng = random.Random(3)
    n = 3
    for _ in range(10):
        pt = random_point(rng, n)
        x = lambda r, c: pt[var_index(r, c, n)]
        half = GaussRat(Fraction(1, 2))
        minus_i_half = GaussRat(0, Fraction(-1, 2))
        cases = [
            (Multidissection("C", n, {CDiameter(2): 1}), x(2, 1) * x(2, 2)),
            (Multidissection("C", n, {CIntegrated(1, 3): 1}),
             (x(1, 1) * x(3, 2) + x(1, 2) * x(3, 1)) * half),
            (Multidissection("C", n, {CSegregated(1, 3): 1}),
             (x(1, 1) * x(3, 2) - x(1, 2) * x(3, 1)) * minus_i_half),
        ]
        for f, want in cases:
            assert z_C(f).eval_at(pt) == want


def reference_z_C(f):
    """Product of the type C edge factors, each scaled on its own."""
    x = XPoly.variable
    n = f.n
    out = XPoly.const(n, 1)
    for e, m in f.items():
        if isinstance(e, CDiameter):
            factor = x(n, e.a, 1) * x(n, e.a, 2)
        else:
            plus = x(n, e.a, 1) * x(n, e.b, 2)
            swap = x(n, e.a, 2) * x(n, e.b, 1)
            factor = (plus + swap).scale(GR_HALF) \
                if isinstance(e, CIntegrated) else (plus - swap).scale(GR_INV_2I)
        out = out * factor ** m
    return out


def test_z_C_matches_per_edge_scaled_product():
    mds = enumerate_multidissections("C", 3, 2)
    assert len(mds) == 36
    for f in mds:
        got, want = z_C(f), reference_z_C(f)
        assert got == want
        assert repr(got) == repr(want)
        for mono in got.monomials():
            assert_exact(got.coefficient(mono))


def reference_z(f):
    """The cluster monomial as a product of per-edge factors multiplied in
    edge by edge, each factor built from minors."""
    if f.family in ("C", "classicalBC"):
        return reference_z_C(f)
    n = f.n
    if f.family in ("A", "classicalA"):
        out = XPoly.const(n, 1)
        for e, m in f.items():
            out = out * minor(e.i, e.j, n) ** m
        return out
    N = n + 2
    out = XPoly.const(N, 1)
    for e, m in f.items():
        if isinstance(e, DDiameter):
            factor = minor(e.a, N - 1 if e.color == SOLID else N, N)
        else:
            sign = 1 if isinstance(e, DPairSeg) else -1
            factor = minor(e.a, N - 1, N) * minor(e.b, N, N) \
                + minor(e.a, e.b, N).scale(sign)
        out = out * factor ** m
    return out


MONOMIAL_CASES = [
    ("A", 5, 3), ("A", 6, 2), ("classicalA", 6, 2), ("classicalA", 7, 3),
    ("C", 3, 3), ("C", 4, 2), ("classicalBC", 4, 2), ("classicalBC", 4, 3),
    ("D", 2, 3), ("D", 4, 2), ("classicalD", 4, 2), ("classicalD", 4, 3),
]


@pytest.mark.parametrize("family,n,k", MONOMIAL_CASES)
def test_monomials_match_per_edge_product(family, n, k):
    # every object in enumeration order, then every rotated object, which
    # is out of that order
    mds = enumerate_multidissections(family, n, k)
    for f in mds + [rotate_multidissection(f) for f in mds]:
        got = cluster_monomial(family, f)
        assert got == reference_z(f), f
        assert repr(got) == repr(reference_z(f))


def test_monomials_match_per_edge_product_interleaved():
    # families of one size share edge indices but not edges, so the
    # cached prefixes must be told apart by family and size
    lists = [(family, enumerate_multidissections(family, n, k))
             for family, n, k in MONOMIAL_CASES]
    clusterlab._prefix_product.cache_clear()
    for i in range(max(len(mds) for _, mds in lists)):
        for family, mds in lists:
            f = mds[i % len(mds)]
            for g in (f, rotate_multidissection(f, 2)):
                assert cluster_monomial(family, g) == reference_z(g), g


def test_z_D_matches_minor_product():
    n = 4
    f = Multidissection("D", n, {
        DPairSeg(2, 4): 1, DPairInt(1, 4): 2,
        DDiameter(2, SOLID): 1, DDiameter(2, DOTTED): 2})
    N = n + 2
    seg = minor(2, 5, N) * minor(4, 6, N) + minor(2, 4, N)
    integ = minor(1, 5, N) * minor(4, 6, N) - minor(1, 4, N)
    want = seg * integ * integ * minor(2, 5, N) * minor(2, 6, N) * minor(2, 6, N)
    assert z_D(f) == want


def test_d_degree():
    n = 4
    f = Multidissection("D", n, {
        DPairSeg(2, 4): 1, DPairInt(1, 4): 2,
        DDiameter(2, SOLID): 1, DDiameter(2, DOTTED): 2})
    # weighted edge count of the multidissection
    assert d_degree(z_D(f), n) == 9


def test_row_degrees_rejects_inhomogeneous():
    n = 3
    f = Multidissection("D", n, {DPairSeg(1, 3): 1})
    with pytest.raises(ValueError):
        row_degrees(z_D(f))


# --- ideal membership ------------------------------------------------------------

def test_j_reduce_and_membership():
    n = 3
    gen = j_generator(n)
    assert j_reduce(gen, n).is_zero()
    assert j_member(gen * minor(1, 2, n + 2), n)
    assert j_member(gen * gen + gen, n)
    assert not j_member(XPoly.const(n + 2, GR_ONE), n)
    assert not j_member(minor(1, 2, n + 2), n)
    assert not j_member(gen + XPoly.const(n + 2, GR_ONE), n)
    # reduction leaves nothing divisible by the leading product
    p = gen * minor(2, 4, n + 2) + minor(1, 3, n + 2)
    r = j_reduce(p, n)
    la, lb = var_index(n + 1, 1, n + 2), var_index(n + 2, 2, n + 2)
    for mono in r.monomials():
        assert not (mono[la] and mono[lb])


def test_j_member_zero():
    assert j_member(XPoly.zero(5), 3)


# --- the packed arithmetic against tuple-keyed references ------------------------
# XPoly arithmetic as it was before monomials were packed into ints: dicts
# from exponent tuples to GaussRat coefficients.

def reference_add(p, q):
    out = dict(p)
    for m, c in q.items():
        acc = out.get(m, GR_ZERO) + c
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)
    return out


def reference_mul(p, q):
    acc = {}
    right = [(m2, c2.re, c2.im) for m2, c2 in q.items()]
    for m1, c1 in p.items():
        a, b = c1.re, c1.im
        for m2, c, d in right:
            m = tuple(map(add, m1, m2))
            parts = acc.get(m)
            if parts is None:
                acc[m] = [a * c - b * d, a * d + b * c]
            else:
                parts[0] += a * c - b * d
                parts[1] += a * d + b * c
    return {m: GaussRat(re, im) for m, (re, im) in acc.items() if re or im}


def reference_pow(p, k, width):
    out = {(0,) * width: GR_ONE}
    for _ in range(k):
        out = reference_mul(out, p)
    return out


def reference_j_reduce(terms, n):
    N = n + 2
    lead_a = var_index(n + 1, 1, N)
    lead_b = var_index(n + 2, 2, N)
    tail_a = var_index(n + 1, 2, N)
    tail_b = var_index(n + 2, 1, N)
    terms = dict(terms)
    while True:
        target = None
        for mono in terms:
            if mono[lead_a] >= 1 and mono[lead_b] >= 1:
                target = mono
                break
        if target is None:
            break
        c = terms.pop(target)
        new = list(target)
        new[lead_a] -= 1
        new[lead_b] -= 1
        new[tail_a] += 1
        new[tail_b] += 1
        key = tuple(new)
        acc = terms.get(key, GR_ZERO) + c
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return terms


def reference_apply(images, terms, width):
    out = {}
    for mono, c in terms.items():
        term = {(0,) * width: c}
        for i, e in enumerate(mono):
            if e:
                term = reference_mul(term, reference_pow(images[i], e, width))
        out = reference_add(out, term)
    return out


def small_parts():
    return st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3),
                                          st.integers(1, 4))


def xpolys(nrows, max_exp=3):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * (2 * nrows)),
        st.builds(GaussRat, small_parts(), small_parts()), max_size=4,
    ).map(lambda terms: XPoly(nrows, terms))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(xpolys(r), xpolys(r))),
       st.integers(0, 3))
def test_packed_arithmetic_matches_reference(pq, k):
    p, q = pq
    width = 2 * p.nrows
    assert p.monomials() == sorted(p.terms)
    assert XPoly(p.nrows, p.terms) == p
    assert (p + q).terms == reference_add(p.terms, q.terms)
    assert (p - q).terms == reference_add(
        p.terms, {m: -c for m, c in q.terms.items()})
    assert (p * q).terms == reference_mul(p.terms, q.terms)
    assert (p ** k).terms == reference_pow(p.terms, k, width)
    assert repr(p * q) == repr(XPoly(p.nrows, reference_mul(p.terms, q.terms)))


def reference_rotation_images(family, n):
    """The image of every variable under one rotation step, written out
    family by family; an oracle independent of the one rule that
    rotation_substitution builds from."""
    x = XPoly.variable
    N = n + 2 if family in ("D", "classicalD") else n
    images = {}
    for i in range(1, n):
        images[(i, 1)] = x(N, i + 1, 1)
        images[(i, 2)] = x(N, i + 1, 2)
    if family in ("A", "classicalA"):
        images[(n, 1)] = -x(N, 1, 1)
        images[(n, 2)] = -x(N, 1, 2)
    elif family in ("C", "classicalBC"):
        images[(n, 1)] = x(N, 1, 1).scale(-GR_I)
        images[(n, 2)] = x(N, 1, 2).scale(GR_I)
    else:
        images[(n, 1)] = x(N, 1, 1)
        images[(n, 2)] = x(N, 1, 2)
        images[(n + 1, 1)] = x(N, n + 2, 1)
        images[(n + 1, 2)] = x(N, n + 2, 2)
        images[(n + 2, 1)] = x(N, n + 1, 1)
        images[(n + 2, 2)] = x(N, n + 1, 2)
    return [images[(i // 2 + 1, i % 2 + 1)] for i in range(2 * N)]


# each example draws a polynomial for all 24 (family, n) cases
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_substitution_matches_reference(data):
    for family in FAMILIES:
        for n in range(1, 5):
            sub = rotation_substitution(family, n)
            images = reference_rotation_images(family, n)
            assert sub.nrows == len(images) // 2
            for i, image in enumerate(images):
                variable = XPoly.variable(sub.nrows, i // 2 + 1, i % 2 + 1)
                assert sub.apply(variable) == image
            p = data.draw(xpolys(sub.nrows, max_exp=2))
            assert sub.apply(p).terms == reference_apply(
                [image.terms for image in images], p.terms, 2 * sub.nrows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), xpolys(n + 2))))
def test_j_reduce_matches_reference(case):
    n, p = case
    assert j_reduce(p, n).terms == reference_j_reduce(p.terms, n)
    # multiples of the generator reduce to zero
    assert j_reduce(p * j_generator(n), n).is_zero()


# --- rank and dependencies --------------------------------------------------------

def gf_div(a, b):
    # Fraction, not int: int / int would turn the oracle into floats
    na, nb = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    d = Fraction(b[0] * b[0] + b[1] * b[1])
    return (na / d, nb / d)


def oracle_rank(polys):
    """Dense Gaussian elimination over Q(i) with Fraction pairs."""
    monos = sorted({m for p in polys for m in p.monomials()})
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [(Fraction(0), Fraction(0))] * len(monos)
        for m in p.monomials():
            c = p.coefficient(m)
            row[col[m]] = (c.re, c.im)
        rows.append(row)
    r = 0
    for c in range(len(monos)):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != (0, 0):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != (0, 0):
                f = gf_div(rows[i][c], rows[r][c])
                rows[i] = [(a[0] - f[0] * b[0] + f[1] * b[1],
                            a[1] - f[0] * b[1] - f[1] * b[0])
                           for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def test_rank_matches_oracle_on_z_polynomials():
    rng = random.Random(202)
    pools = [
        [z_C(f) for f in enumerate_multidissections("C", 2, 2)],
        [z_A(f) for f in enumerate_multidissections("A", 4, 2)],
        [z_D(f) for f in enumerate_multidissections("D", 2, 2)],
    ]
    for pool in pools:
        assert rank(pool) == oracle_rank(pool)
        for _ in range(5):
            sub = rng.sample(pool, rng.randrange(1, len(pool) + 1))
            assert rank(sub) == oracle_rank(sub)


def test_rank_detects_crafted_dependencies():
    a = minor(1, 2, 4)
    b = minor(1, 3, 4)
    two_a = a + a
    assert rank([a, b]) == 2
    assert rank([a, two_a]) == 1
    assert rank([a, b, a + b]) == 2
    assert rank([XPoly.zero(4)]) == 0
    assert rank([]) == 0
    # scaling by i keeps the span one dimensional
    assert rank([a, a.scale(GR_I)]) == 1
    with pytest.raises(ValueError):
        rank([a, minor(1, 2, 3)])


def test_dependency_witness_sums_to_zero():
    a = minor(1, 2, 4)
    b = minor(1, 3, 4)
    polys = [a, b, a.scale(GR_I) + b + b]
    w = dependency_witness(polys)
    assert w is not None
    total = XPoly.zero(4)
    for idx, coeff in w:
        total = total + polys[idx].scale(coeff)
    assert total.is_zero()
    assert any(c != GR_ZERO for _, c in w)
    assert dependency_witness([a, b]) is None


# --- the mod-p rank certificate and its exact fallback ----------------------------

def test_certificate_prime_has_square_root_of_minus_one():
    p = _PRIME
    assert p % 4 == 1
    assert all(p % d for d in range(2, math.isqrt(p) + 1))
    assert _SQRT_M1 * _SQRT_M1 % p == p - 1


def test_rank_falls_back_when_deficient_mod_p():
    p = _PRIME
    a = minor(1, 2, 4)
    b = minor(1, 3, 4)
    # each list loses rank mod p, so only the exact elimination can answer
    cases = [
        ([a, a + b.scale(p)], 1, 2),
        ([a, a.scale(1 + p)], 1, 1),
        ([XPoly.const(4, p)], 0, 1),
        ([a, b.scale(GaussRat(p, p)), minor(2, 3, 4)], 2, 3),
    ]
    for polys, mod_p, exact in cases:
        assert _rank_mod_p(tuple(polys)) == mod_p
        assert rank(polys) == exact == oracle_rank(polys)
        assert (dependency_witness(polys) is None) == (exact == len(polys))


def test_rank_falls_back_when_p_divides_a_denominator():
    a = minor(1, 2, 4)
    b = minor(1, 3, 4)
    tiny = GaussRat(Fraction(1, _PRIME), Fraction(2, 3 * _PRIME))
    assert _rank_mod_p((a.scale(tiny), b)) is None
    assert rank([a.scale(tiny), b]) == 2
    assert rank([a, a.scale(tiny)]) == 1
    w = dependency_witness([a, a.scale(tiny)])
    assert (a.scale(w[0][1]) + a.scale(tiny).scale(w[1][1])).is_zero()


def test_exact_elimination_runs_only_when_certificate_fails(monkeypatch):
    calls = []
    real = clusterlab._eliminate

    def spy(polys):
        calls.append(len(polys))
        return real(polys)

    monkeypatch.setattr(clusterlab, "_eliminate", spy)
    a = minor(1, 2, 4)
    b = minor(1, 3, 4)
    assert rank([a, b]) == 2
    assert dependency_witness([a, b]) is None
    assert calls == []
    assert rank([a, a + b.scale(_PRIME)]) == 2
    assert calls == [2]
    assert rank([a, b, a + b]) == 2
    assert calls == [2, 3]


@pytest.mark.parametrize("family,n,k,check", [
    ("A", 4, 1, check_basis_A),
    ("D", 2, 1, check_conjecture_D),
])
def test_failed_audit_eliminates_once(monkeypatch, family, n, k, check):
    # a repeated multidissection makes the audit's list dependent
    mds = enumerate_multidissections(family, n, k)
    monkeypatch.setattr(clusterlab, "enumerate_multidissections",
                        lambda *args: mds + mds[:1])
    clusterlab._eliminate.cache_clear()
    rep = check(n, k)
    assert not rep.passed and rep.witness is not None
    # the repeated row cancels against its first copy
    assert rep.to_json_dict()["witness"] == [[0, "-1"], [len(mds), "1"]]
    assert clusterlab._eliminate.cache_info().misses == 1


def gaussian_rationals():
    # numerators and denominators near multiples of the certificate prime
    # reach both fallback triggers
    nums = st.integers(-3, 3) | st.sampled_from([_PRIME, -_PRIME, 1 + _PRIME])
    dens = st.sampled_from([1, 1, 2, 3, _PRIME])
    part = st.builds(Fraction, nums, dens)
    return st.builds(GaussRat, part, part)


small_xpolys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), gaussian_rationals(), max_size=4,
).map(lambda terms: XPoly(2, terms))


@settings(max_examples=300, deadline=None)
@given(st.lists(small_xpolys, max_size=5))
def test_rank_matches_oracle_property(polys):
    r = rank(polys)
    assert r == oracle_rank(polys)
    w = dependency_witness(polys)
    assert (w is None) == (r == len(polys))
    if w is not None:
        total = XPoly.zero(2)
        for idx, coeff in w:
            total = total + polys[idx].scale(coeff)
        assert total.is_zero()


# --- least-monomial pivoting ------------------------------------------------------
#
# Both eliminations key their rows by packed monomial and pivot on the
# least key.  These references number the monomials as columns first, in
# increasing monomial order, and pivot on the least column; ranks and
# witnesses must agree.

def reference_columns(polys):
    monos = sorted({m for p in polys for m in p._terms})
    return {m: i for i, m in enumerate(monos)}


def reference_rank_mod_p(polys):
    p, s = _PRIME, _SQRT_M1
    cols = reference_columns(polys)
    pivots = {}
    for poly in polys:
        row = {}
        for m, (re, im) in poly._terms.items():
            re, im = clusterlab._mod_p(re), clusterlab._mod_p(im)
            if re is None or im is None:
                return None
            v = (re + s * im) % p
            if v:
                row[cols[m]] = v
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[lead]
            for k, v in pivot.items():
                w = (row.get(k, 0) - f * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]
    return len(pivots)


def reference_eliminate(polys):
    cols = reference_columns(polys)
    pivots = {}
    witness = None
    for idx, poly in enumerate(polys):
        row = {cols[m]: GaussRat(*c) for m, c in poly._terms.items()}
        comb = {idx: GR_ONE} if witness is None else None
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = GR_ONE / row[lead]
                pivots[lead] = ({k: v * inv for k, v in row.items()},
                                None if comb is None
                                else {i: c * inv for i, c in comb.items()})
                break
            pivot, pivot_comb = pivots[lead]
            f = row[lead]
            for k, v in pivot.items():
                acc = row.get(k, GR_ZERO) - f * v
                if acc:
                    row[k] = acc
                else:
                    del row[k]
            if comb is not None:
                for i, c in pivot_comb.items():
                    acc = comb.get(i, GR_ZERO) - f * c
                    if acc:
                        comb[i] = acc
                    else:
                        comb.pop(i, None)
        if not row and comb is not None:
            witness = tuple(sorted(comb.items()))
    return len(pivots), witness


# few monomials and many rows, so that reductions take several steps and
# bring in columns below the ones a row started with
overlapping_xpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(GaussRat, st.integers(-2, 2), st.integers(-2, 2)), max_size=5,
).map(lambda terms: XPoly(1, terms))


@settings(max_examples=300, deadline=None)
@given(st.lists(overlapping_xpolys, max_size=10))
def test_eliminations_match_min_scan_reference(polys):
    polys = tuple(polys)
    assert clusterlab._rank_mod_p(polys) == reference_rank_mod_p(polys)
    assert clusterlab._eliminate.__wrapped__(polys) == reference_eliminate(polys)


@pytest.mark.parametrize("family,n,k", [
    pytest.param("D", 2, 3, id="2-3"), pytest.param("D", 3, 2, id="3-2"),
    ("A", 6, 3), ("C", 4, 3),
])
def test_eliminations_match_min_scan_reference_on_audit_lists(family, n, k):
    mds = enumerate_multidissections(family, n, k)
    polys = tuple(cluster_monomial(family, f) for f in mds)
    if family == "D":
        # the conjecture-D audit's list: z_D, then the lemma basis under z_A
        polys += tuple(z_A(f) for f in lemma_basis_multidissections(n, k))
    assert clusterlab._rank_mod_p(polys) == reference_rank_mod_p(polys)
    assert clusterlab._eliminate.__wrapped__(polys) == reference_eliminate(polys)


# --- bases -------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,count", [
    (3, 1, 3), (4, 1, 6), (4, 2, 20), (5, 1, 10), (5, 2, 50),
])
def test_basis_A_frozen(n, k, count):
    rep = check_basis_A(n, k)
    assert rep.passed
    assert rep.count == count and rep.rank == count
    assert rep.expected_dim == len(enumerate_ssyt((k, k), n))


@pytest.mark.parametrize("n,k,count", [
    (2, 1, 4), (2, 2, 9), (3, 1, 9), (3, 2, 36),
])
def test_basis_C_frozen(n, k, count):
    rep = check_basis_C(n, k)
    assert rep.passed
    assert rep.count == count and rep.rank == count


def test_audits_build_one_monomial_per_object(monkeypatch):
    calls = {}
    for name in ("z_A", "z_C", "z_D"):
        def counted(f, _name=name, _orig=getattr(clusterlab, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(f)
        monkeypatch.setattr(clusterlab, name, counted)
    rep = check_basis_A(5, 3)
    assert calls == {"z_A": rep.count}
    calls.clear()
    rep = check_basis_C(3, 2)
    assert calls == {"z_C": rep.count}
    calls.clear()
    rep = check_conjecture_D(3, 2)
    assert calls == {"z_D": rep.count, "z_A": rep.lemma_count}
    calls.clear()
    rep = verify_equivariance("D", 3, 2)
    assert calls == {"z_D": 2 * rep.total}


def test_basis_report_json():
    d = check_basis_A(3, 1).to_json_dict()
    assert d["pass"] is True
    assert d["count"] == d["rank"] == d["expected_dim"] == 3


# --- type D conjecture ----------------------------------------------------------------

def test_expected_dim_D():
    for n in range(2, 5):
        for k in range(0, 5):
            want = sum(
                (k - 2 * l + 1) *
                schur_eval((k - l, l), ones_point(n)).evaluate(1)
                for l in range(0, k // 2 + 1))
            assert expected_dim_D(n, k) == want


def test_expected_dim_D_rejects_negative_k():
    with pytest.raises(ValueError, match="edge count must be >= 0"):
        expected_dim_D(3, -1)


@pytest.mark.parametrize("n,k", [(0, 0), (0, 1), (-1, 1)])
def test_expected_dim_D_rejects_n_below_one(n, k):
    # family D needs n >= 1, as its edge table says
    with pytest.raises(ValueError, match="family D needs n >= 1"):
        expected_dim_D(n, k)


@pytest.mark.parametrize("n", range(1, 6))
def test_characters_at_all_ones_count_the_listings(n):
    # the identity half of the trace audit: each family's character at
    # all-ones is the number of its multidissections
    for k in range(0, 4):
        if n >= 3:
            assert character_A(k, ones_point(n)).constant_value() == \
                len(enumerate_multidissections("A", n, k))
        if n >= 2:
            assert character_C(k, ones_point(n), ones_point(n)) \
                .constant_value() == len(enumerate_multidissections("C", n, k))
        d = character_D(k, ones_point(n), ones_point(2)).constant_value()
        assert d == len(enumerate_multidissections("D", n, k))
        assert d == len(lemma_basis_multidissections(n, k))


def test_lemma_basis_multidissections():
    # weight-k type A multidissections of the two-larger polygon avoiding
    # the top edge
    for n, k in [(2, 1), (2, 2), (3, 2)]:
        got = lemma_basis_multidissections(n, k)
        for md in got:
            assert md.family == "A" and md.n == n + 2
            assert all(not (e.i == n + 1 and e.j == n + 2)
                       for e, _ in md.items())
        assert len({md.key() for md in got}) == len(got)
    assert len(lemma_basis_multidissections(2, 0)) == 1
    # against a filter of the full enumeration: every edge that avoids
    # (n+1, n+2) has d-degree >= 1, so at most k edges are used
    for n in range(1, 5):
        for k in range(0, 4):
            brute = set()
            for t in range(k + 1):
                for md in enumerate_multidissections("A", n + 2, t):
                    pairs = md.items()
                    if any(e.i == n + 1 and e.j == n + 2 for e, _ in pairs):
                        continue
                    if sum(m * ((e.i <= n) + (e.j <= n)) for e, m in pairs) == k:
                        brute.add(md.key())
            got = lemma_basis_multidissections(n, k)
            assert len(got) == len(brute)
            assert {md.key() for md in got} == brute


@pytest.mark.parametrize("n,k,count,rnk", [
    (2, 0, 1, 1), (2, 1, 4, 4), (2, 2, 10, 11), (3, 1, 6, 6),
    (3, 2, 21, 24), (3, 3, 56, 72),
])
def test_conjecture_D_frozen(n, k, count, rnk):
    rep = check_conjecture_D(n, k)
    assert rep.passed
    assert rep.count == count
    assert rep.rank == rnk
    assert rep.expected_dim == count
    assert rep.independent_mod_J and rep.spans
    assert "evidence" in rep.note
    d = rep.to_json_dict()
    assert d["pass"] is True and d["note"] == rep.note


def test_conjecture_D_rejects_small_n():
    with pytest.raises(ValueError):
        check_conjecture_D(1, 2)


# --- rotation equivariance ---------------------------------------------------------------

def test_rotation_substitution_A():
    sub = rotation_substitution("A", 4)
    assert sub.apply(minor(1, 4, 4)) == minor(1, 2, 4)
    assert sub.apply(minor(1, 2, 4)) == minor(2, 3, 4)
    # applying n times scales a degree-d monomial by (-1)^d
    p = minor(1, 3, 4)
    assert sub.apply_times(p, 4) == p
    with pytest.raises(ValueError):
        sub.apply(XPoly.variable(3, 1, 1))
    with pytest.raises(ValueError):
        rotation_substitution("B", 4)
    with pytest.raises(ValueError):
        VarSubstitution(1, (0, 0))


@pytest.mark.parametrize("cached", [
    lambda n: rotation_substitution("A", n),
    lambda n: _factor_power("A", n, 0, 1),
], ids=["rotation_substitution", "_factor_power"])
def test_cached_builders_reject_a_float_n_after_an_int(cached):
    # both caches are keyed by type, so an int n = 5 answer is never
    # handed back for 5.0
    rotation_substitution.cache_clear()
    _factor_power.cache_clear()
    with pytest.raises(TypeError):
        cached(5.0)
    cached(5)
    with pytest.raises(TypeError):
        cached(5.0)


def test_rotation_substitution_C():
    sub = rotation_substitution("C", 2)
    # wrapping the seam picks up -i on the first column, +i on the second
    assert sub.apply(XPoly.variable(2, 2, 1)) == \
        XPoly.variable(2, 1, 1).scale(GaussRat(0, -1))
    assert sub.apply(XPoly.variable(2, 2, 2)) == \
        XPoly.variable(2, 1, 2).scale(GaussRat(0, 1))
    assert sub.apply(XPoly.variable(2, 1, 1)) == XPoly.variable(2, 2, 1)


def test_rotation_substitution_D():
    sub = rotation_substitution("D", 2)
    assert sub.apply(minor(1, 3, 4)) == minor(2, 4, 4)
    # the two extra columns swap
    assert sub.apply(XPoly.variable(4, 3, 1)) == XPoly.variable(4, 4, 1)
    assert sub.apply(XPoly.variable(4, 4, 2)) == XPoly.variable(4, 3, 2)


@pytest.mark.parametrize("family,n,k", [
    ("A", 4, 1), ("A", 4, 2), ("A", 5, 2),
    ("C", 2, 1), ("C", 2, 2), ("C", 3, 2),
    ("classicalA", 4, 1), ("classicalA", 4, 2),
    ("classicalA", 5, 1), ("classicalA", 5, 2),
])
def test_equivariance_exact(family, n, k):
    rep = verify_equivariance(family, n, k)
    assert rep.passed and rep.mode == "exact"
    assert rep.failures == ()
    assert rep.total == len(enumerate_multidissections(family, n, k))


@pytest.mark.parametrize("n", range(3, 6))
@pytest.mark.parametrize("k", [2, 3])
def test_equivariance_classicalBC(n, k):
    # the classicalBC generator is two vertex steps, so the one-step
    # substitution has to be applied twice
    rep = verify_equivariance("classicalBC", n, k)
    assert rep.passed and rep.failures == ()


@pytest.mark.parametrize("family,n,k", [
    pytest.param("D", n, k, id="%d-%d" % (n, k))
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]
] + [("classicalD", n, k) for n in (4, 5) for k in (1, 2)])
def test_equivariance_D_mod_J(family, n, k):
    rep = verify_equivariance(family, n, k)
    assert rep.passed and rep.mode == "mod_J"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_D_pair_discrepancy_form(n):
    # for a chord pair the exact mismatch is a unit times the product of the
    # rotated-pair minor and the last-columns minor; wraparound pairs match
    # exactly
    N = n + 2
    units = [GR_ONE, -GR_ONE, GR_I, -GR_I]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for cls in (DPairSeg, DPairInt):
                f = Multidissection("D", n, {cls(a, b): 1})
                diff = equivariance_discrepancy("D", n, f)
                if b == n:
                    assert diff.is_zero()
                    continue
                target = minor(a + 1, b + 1, N) * minor(n + 1, n + 2, N)
                assert any(diff == target.scale(u) for u in units), (a, b, cls)
                assert j_member(diff, n)


def test_diameter_equivariance_exact_in_D():
    for n in (2, 3):
        for a in range(1, n + 1):
            for color in (SOLID, DOTTED):
                f = Multidissection("D", n, {DDiameter(a, color): 1})
                assert equivariance_discrepancy("D", n, f).is_zero()


# --- character identities ---------------------------------------------------------------

def test_character_A():
    for n, k in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)]:
        assert character_check_A(n, k, ones_point(n))
        assert character_check_A(n, k, principal_point(n))
        assert character_check_A(n, k, tuple(
            IntLaurentPoly.monomial(0, p) for p in (2, 3, 5, 7, 11)[:n]))


def test_character_A_frozen_weight_sum():
    # weight generating function over one-edge multidissections on the square
    n, k = 4, 1
    y = principal_point(n)
    total = sum(
        (y[e.i - 1] * y[e.j - 1] for f in enumerate_multidissections("A", n, k)
         for e, m in f.items()),
        IntLaurentPoly({}))
    assert total == IntLaurentPoly({1: 1, 2: 1, 3: 2, 4: 1, 5: 1})
    assert total == schur_eval((1, 1), y)


def test_character_D():
    two = IntLaurentPoly.monomial(0, 2)
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert character_check_D(n, k, ones_point(n), ones_point(2))
        assert character_check_D(n, k, principal_point(n, 2),
                                 (IntLaurentPoly.monomial(0),
                                  IntLaurentPoly.monomial(n)))
        assert character_check_D(n, k, ones_point(n), (two, two))


def reference_character_sum_A(n, k, y):
    """The weight sum object by object over the listed multidissections."""
    total = IntLaurentPoly(0)
    for f in enumerate_multidissections("A", n, k):
        weight = IntLaurentPoly(1)
        for e, m in f.items():
            weight = weight * (y[e.i - 1] * y[e.j - 1]) ** m
        total = total + weight
    return total


def reference_character_sum_D(n, k, y, z):
    total = IntLaurentPoly(0)
    for g in lemma_basis_multidissections(n, k):
        weight = IntLaurentPoly(1)
        for e, m in g.items():
            first = y[e.i - 1] if e.i <= n else z[e.i - n - 1]
            second = y[e.j - 1] if e.j <= n else z[e.j - n - 1]
            weight = weight * (first * second) ** m
        total = total + weight
    return total


def character_points(n):
    """Probe points with distinct values, so that a total over the wrong
    objects or with the wrong weights reads differently."""
    primes = as_point((2, 3, 5, 7, 11, 13, 17)[:n])
    mixed = tuple(IntLaurentPoly({i: 1, -1: i - 2}) for i in range(n))
    return [ones_point(n), principal_point(n), primes, mixed]


@pytest.mark.parametrize("n,k", [(3, 0), (3, 2), (4, 3), (5, 2), (5, 4),
                                 (6, 3), (7, 2)])
def test_character_sum_A_matches_per_object_loop(n, k):
    for y in character_points(n):
        total = character_sum_A(n, k, y)
        assert total == reference_character_sum_A(n, k, y)
        assert total == schur_eval((k, k), y)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 0), (2, 3), (3, 2), (4, 3),
                                 (5, 2)])
def test_character_sum_D_matches_per_object_loop(n, k):
    zs = [ones_point(2), as_point((31, 37)),
          (IntLaurentPoly({-1: 2}), IntLaurentPoly.monomial(n))]
    for y, z in zip(character_points(n), zs + zs):
        total = character_sum_D(n, k, y, z)
        assert total == reference_character_sum_D(n, k, y, z)
        assert character_check_D(n, k, y, z)


def test_character_check_fails_on_a_wrong_sum(monkeypatch):
    # the checks compare a total, so an off-by-one sum is a failure
    real = clusterlab.weighted_assignment_sum
    monkeypatch.setattr(clusterlab, "weighted_assignment_sum",
                        lambda *args: real(*args) + 1)
    assert not character_check_A(4, 2, principal_point(4))
    assert not character_check_D(3, 2, principal_point(3), ones_point(2))


def test_character_sums_reject_negative_k():
    with pytest.raises(ValueError):
        character_sum_A(4, -1, ones_point(4))
    with pytest.raises(ValueError):
        character_sum_D(3, -1, ones_point(3), ones_point(2))


def test_character_sum_D_rejects_n_below_one():
    # the sum runs on the (n+2)-gon; below n = 1 it names family D
    with pytest.raises(ValueError, match="family D needs n >= 1"):
        character_sum_D(0, 1, (), ones_point(2))


# --- listing memory -------------------------------------------------------------

def held_objects(family, n):
    """Listed objects of (family, n) that something still refers to."""
    gc.collect()
    return sum(isinstance(o, Multidissection) and o.family == family
               and o.n == n for o in gc.get_objects())


@pytest.mark.parametrize("call,held", [
    (lambda: enumerate_multidissections("C", 4, 3), [("C", 4)]),
    (lambda: verify(theorem_instance("thm3.4", 4, 3)), [("C", 4)]),
    (lambda: check_basis_A(5, 3), [("A", 5)]),
    (lambda: check_conjecture_D(3, 2), [("D", 3), ("A", 5)]),
], ids=["enumerate", "verify", "basis-A", "conjecture-D"])
def test_no_listing_outlives_its_call(call, held):
    # nothing keeps a listing once its caller returns; only the fixed
    # count vector is kept, so verify lists again after a clear
    fixed_count_vector.cache_clear()
    call()
    assert [held_objects(*h) for h in held] == [0] * len(held)


def test_conjecture_audit_lists_the_lemma_basis_once(monkeypatch):
    real = clusterlab.iter_weighted_assignments
    builds = []

    def build(*args):
        builds.append(args[1])
        return real(*args)

    monkeypatch.setattr(clusterlab, "iter_weighted_assignments", build)
    assert check_conjecture_D(3, 2).passed
    assert builds == [2]
