"""Symmetric function evaluations and the q-count polynomials."""
from itertools import combinations_with_replacement

import pytest

from sievelab.qseries import ONE, ZERO, IntLaurentPoly, q_binomial
from sievelab.symfunc import (
    as_point,
    build_X_thm11,
    build_X_typeA,
    build_X_typeC,
    build_X_typeD,
    character_A,
    character_C,
    character_D,
    homog_eval,
    ones_point,
    principal_point,
    schur_eval,
)

Q = IntLaurentPoly.monomial(1)


def brute_homog(k, point):
    total = ZERO
    idx = range(len(point))
    for combo in combinations_with_replacement(idx, k):
        term = ONE
        for i in combo:
            term = term * point[i]
        total = total + term
    return total


def brute_schur(shape, point, n):
    """Weight sum over explicitly generated semistandard tableaux."""
    from sievelab.tableaux import enumerate_ssyt
    total = ZERO
    for row1, row2 in enumerate_ssyt(shape, n):
        term = ONE
        for x in row1 + row2:
            term = term * point[x - 1]
        total = total + term
    return total


def test_points():
    assert ones_point(3) == (ONE, ONE, ONE)
    assert principal_point(3) == (ONE, Q, IntLaurentPoly.monomial(2))
    assert principal_point(3, 2) == (ONE, IntLaurentPoly.monomial(2),
                                     IntLaurentPoly.monomial(4))
    assert as_point([1, 5]) == (ONE, IntLaurentPoly.monomial(0, 5))


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("k", range(0, 5))
def test_homog_eval_matches_brute_force(n, k):
    pts = [ones_point(n), principal_point(n), principal_point(n, 2),
           as_point([2] * n)]
    for point in pts:
        assert homog_eval(k, point) == brute_homog(k, point)


def test_homog_eval_principal_is_gaussian_binomial():
    for n in range(1, 7):
        for k in range(0, 6):
            assert homog_eval(k, principal_point(n)) == q_binomial(n + k - 1, k)


def assert_schur_matches_tableau_sum(shape, n):
    for point in (ones_point(n), principal_point(n), principal_point(n, 2),
                  as_point([1, 3, 9, 27, 81][:n])):
        assert schur_eval(shape, point) == brute_schur(shape, point, n)


@pytest.mark.parametrize("shape", [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1),
                                   (2, 2), (3, 1), (3, 3)])
@pytest.mark.parametrize("n", range(1, 5))
def test_schur_eval_matches_tableau_sum(shape, n):
    assert_schur_matches_tableau_sum(shape, n)


def test_schur_eval_edge_cases():
    assert schur_eval((0, 0), ones_point(3)) == ONE
    # two rows need at least two variables
    assert schur_eval((2, 1), ones_point(1)) == ZERO
    assert schur_eval((3, 0), ones_point(1)) == ONE


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
@pytest.mark.parametrize("n", range(2, 6))
def test_jacobi_trudi(shape, n):
    # the determinant at the larger shapes and at n = 5
    assert_schur_matches_tableau_sum(shape, n)


def test_build_X_typeA_frozen():
    assert build_X_typeA(4, 1) == IntLaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert build_X_typeA(3, 0) == ONE
    got = build_X_typeA(3, 1)
    assert got.evaluate(1) == 3
    assert got.valuation() == 0
    # the rectangle at k = 4 against the tableau oracle
    for n in range(3, 7):
        want = brute_schur((4, 4), principal_point(n), n).shift(-4)
        assert build_X_typeA(n, 4) == want
    # q-count at 1 equals the plain count for a grid
    from sievelab.polygons import enumerate_multidissections
    for n in range(3, 7):
        for k in range(0, 4):
            assert build_X_typeA(n, k).evaluate(1) == \
                len(enumerate_multidissections("A", n, k))


def test_build_X_typeC_frozen():
    assert build_X_typeC(2, 1) == IntLaurentPoly({0: 1, 1: 2, 2: 1})
    from sievelab.polygons import enumerate_multidissections
    for n in range(2, 5):
        for k in range(0, 4):
            p = build_X_typeC(n, k)
            assert p == homog_eval(k, principal_point(n)) ** 2
            assert p.evaluate(1) == len(enumerate_multidissections("C", n, k))


def test_build_X_typeD_frozen():
    assert build_X_typeD(2, 1) == IntLaurentPoly({0: 1, 2: 2, 4: 1})
    from sievelab.polygons import enumerate_multidissections
    for n in range(2, 5):
        for k in range(0, 5):
            assert build_X_typeD(n, k).evaluate(1) == \
                len(enumerate_multidissections("D", n, k))
    for k in range(0, 8):
        assert build_X_typeD(1, k).evaluate(1) == k + 1


def test_build_X_typeD_structure():
    # sum over l of s_(k-l,l)(1, q^2, ..., q^(2n-2)) * h_(k-2l)(1, q^n)
    n, k = 3, 3
    small = principal_point(n, 2)
    big = as_point([ONE, IntLaurentPoly.monomial(n)])
    want = ZERO
    for l in range(0, k // 2 + 1):
        want = want + schur_eval((k - l, l), small) * homog_eval(k - 2 * l, big)
    assert build_X_typeD(n, k) == want


def test_characters_reject_negative_k():
    for call in (lambda: character_A(-1, ones_point(3)),
                 lambda: character_C(-1, ones_point(3), ones_point(3)),
                 lambda: character_D(-1, ones_point(3), ones_point(2)),
                 lambda: build_X_typeA(4, -1),
                 lambda: build_X_typeC(4, -1),
                 lambda: build_X_typeD(4, -1)):
        with pytest.raises(ValueError, match="edge count must be >= 0"):
            call()


def test_characters_match_their_formulas():
    # each character against its formula at a point with distinct values
    y = as_point([2, 3, 5])
    z = (IntLaurentPoly({-1: 2}), Q)
    for k in range(0, 5):
        assert character_A(k, y) == brute_schur((k, k), y, 3)
        assert character_C(k, y, z) == brute_homog(k, y) * brute_homog(k, z)
        assert character_D(k, y, z) == sum(
            (brute_schur((k - l, l), y, 3) * brute_homog(k - 2 * l, z)
             for l in range(k // 2 + 1)), ZERO)


def test_thm11_part1():
    # product of two Gaussian binomials divided exactly by a q-integer,
    # against the expand-and-divide oracle
    from qseries_oracle import exact_div, q_binomial_expanded
    from sievelab.qseries import q_int
    for n in range(4, 9):
        for k in range(0, n - 2):
            num = q_binomial_expanded(n + k, k + 1) * q_binomial_expanded(n - 3, k)
            want = exact_div(num, q_int(n + k))
            assert build_X_thm11(1, n, k) == want
    assert build_X_thm11(1, 6, 1).evaluate(1) == 9
    # out-of-range k gives the zero polynomial
    assert build_X_thm11(1, 5, 3).is_zero()


def test_thm11_part2_variants():
    printed = build_X_thm11(2, 2, 1, variant="printed")
    shifted = build_X_thm11(2, 2, 1, variant="shifted")
    assert printed.evaluate(1) == 12
    assert shifted.evaluate(1) == 2
    assert shifted == q_binomial(2, 1).subst_power(2)
    for n in range(2, 5):
        for k in range(0, n):
            s = build_X_thm11(2, n, k, variant="shifted")
            want = (q_binomial(n + k - 1, k) * q_binomial(n - 1, k)).subst_power(2)
            assert s == want
    with pytest.raises(ValueError):
        build_X_thm11(2, 3, 1, variant="bogus")


def test_thm11_part3_frozen():
    assert build_X_thm11(3, 2, 1) == IntLaurentPoly({0: 1, 2: 2, 4: 1})
    assert build_X_thm11(3, 2, 2) == IntLaurentPoly({0: 1, 2: 2, 4: 1})
    # counts classical centrally symmetric dissections at q = 1
    from sievelab.polygons import enumerate_classical
    for n in range(2, 5):
        for k in range(0, n + 1):
            assert build_X_thm11(3, n, k).evaluate(1) == \
                len(enumerate_classical("classicalD", n, k))


def test_thm11_rejects_bad_part():
    with pytest.raises(ValueError):
        build_X_thm11(4, 3, 1)


def test_degrees_sizes_and_parts_must_be_ints():
    # a bool is not read as 0 or 1, nor a float as the int it equals
    y = principal_point(3)
    for call in (lambda: homog_eval(True, y),
                 lambda: homog_eval(2.0, y),
                 lambda: schur_eval((True, 0), y),
                 lambda: schur_eval((2, 1.0), y),
                 lambda: character_A(True, y),
                 lambda: character_C(1.0, y, y),
                 lambda: character_D(False, y, y),
                 lambda: build_X_typeA(5, True),
                 lambda: build_X_typeA(5.0, 2),
                 lambda: build_X_typeC(True, 1),
                 lambda: build_X_typeD(4.0, 1),
                 lambda: build_X_thm11(True, 6, 1),
                 lambda: build_X_thm11(1, 6.0, 1),
                 lambda: build_X_thm11(2, 6, True),
                 lambda: principal_point(3.0),
                 lambda: principal_point(3, step=True)):
        with pytest.raises(TypeError):
            call()
    # the range checks keep their messages
    for call, message in (
            (lambda: homog_eval(-1, y), "homogeneous degree must be >= 0"),
            (lambda: schur_eval((1, 2), y), "shape rows must satisfy a >= b >= 0"),
            (lambda: schur_eval((1, -1), y), "shape rows must satisfy a >= b >= 0"),
            (lambda: build_X_typeA(2, 1), "family A needs n >= 3"),
            (lambda: build_X_typeC(1, 1), "family C needs n >= 2"),
            (lambda: build_X_typeD(0, 1), "family D needs n >= 1"),
            (lambda: build_X_thm11(1, 6, -1), "edge count must be >= 0"),
            (lambda: build_X_thm11(0, 6, 1), "part must be 1, 2, or 3")):
        with pytest.raises(ValueError, match=message):
            call()
