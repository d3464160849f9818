"""Exact Laurent polynomial arithmetic and root-of-unity evaluation."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievelab.qseries import (
    ONE,
    Q,
    ZERO,
    IntLaurentPoly,
    RootEvaluation,
    cyclotomic,
    _factor_steps,
    eval_at_unity_root,
    q_binomial,
    q_int,
)
from qseries_oracle import (
    cyclotomic_divided,
    exact_div,
    q_binomial_expanded,
    q_factorial,
)


def random_poly(rng, max_terms=6, span=8):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[rng.randrange(-span, span + 1)] = rng.randrange(-9, 10)
    return IntLaurentPoly(terms)


def test_constants_and_monomial():
    assert ZERO.is_zero()
    assert ONE.constant_value() == 1
    assert Q == IntLaurentPoly.monomial(1)
    assert IntLaurentPoly.monomial(3, -2).coefficient(3) == -2
    assert IntLaurentPoly.monomial(5, 0).is_zero()


# --- bad inputs are rejected, never reinterpreted ------------------------------

def test_float_coefficient_is_rejected():
    with pytest.raises(TypeError):
        IntLaurentPoly({0: 1.5})


def test_float_exponent_is_rejected():
    with pytest.raises(TypeError):
        IntLaurentPoly({0.7: 2})


def test_bool_coefficient_is_rejected():
    with pytest.raises(TypeError):
        IntLaurentPoly({0: True})


def test_float_constant_is_rejected():
    with pytest.raises(TypeError):
        IntLaurentPoly(2.5)


def test_arithmetic_results_match_checked_construction():
    # the arithmetic builds its results unchecked; they must equal the
    # checked constructor's, zero coefficients dropped
    rng = random.Random(11)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        for result in (a + b, a - b, a * b, -a, a.shift(3), a.subst_power(2),
                       a.fold_exponents(4), a * 0, a + 0):
            assert result == IntLaurentPoly(result.terms)
            assert all(type(e) is int and type(c) is int and c
                       for e, c in result.terms.items())


def test_arithmetic_matches_fraction_evaluation():
    rng = random.Random(20240)
    points = [2, -3, Fraction(1, 2), Fraction(-5, 3)]
    for _ in range(120):
        a = random_poly(rng)
        b = random_poly(rng)
        for x in points:
            assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
            assert (a - b).evaluate(x) == a.evaluate(x) - b.evaluate(x)
            assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
            assert (-a).evaluate(x) == -a.evaluate(x)


def test_ring_axioms_spot_checks():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + ZERO == a
        assert a * ONE == a


laurent_polys = st.dictionaries(st.integers(-6, 6), st.integers(-20, 20),
                                max_size=6).map(IntLaurentPoly)
fraction_points = st.fractions(min_value=-4, max_value=4,
                               max_denominator=7).filter(bool)


@settings(max_examples=200, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys, fraction_points)
def test_ring_laws_under_fraction_evaluation(a, b, c, x):
    # evaluation at a nonzero rational is a ring map, so every law is
    # checked both as polynomial equality and after evaluating
    def ev(p):
        return p.evaluate(x)

    assert ev(a + b) == ev(a) + ev(b)
    assert ev(a - b) == ev(a) - ev(b)
    assert ev(a * b) == ev(a) * ev(b)
    assert ev(-a) == -ev(a)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a - a == ZERO
    assert ev(a ** 3) == ev(a) ** 3


# small ranges, so that two draws are often equal
small_values = st.one_of(
    st.integers(-2, 2),
    st.dictionaries(st.integers(-1, 1), st.integers(-2, 2),
                    max_size=2).map(IntLaurentPoly))


@settings(max_examples=300, deadline=None)
@given(small_values, small_values)
@example(IntLaurentPoly(3), 3)
@example(ZERO, 0)
def test_equal_values_hash_equal(a, b):
    # a == b must imply hash(a) == hash(b), so that a set or a dict key
    # treats a constant polynomial and the int it equals as one value
    shuffled = (IntLaurentPoly(dict(reversed(a.terms.items())))
                if isinstance(a, IntLaurentPoly) else a)
    for x, y in ((a, b), (a, a + ZERO), (a * ONE, a), (shuffled, a)):
        if x == y:
            assert hash(x) == hash(y), (x, y)
            assert len({x, y}) == 1 and {y: "y"}[x] == "y", (x, y)


# tolerance of the float cross-check below, not used by the library
ROOT_TOLERANCE = 1e-9


@settings(max_examples=300, deadline=None)
@given(laurent_polys, st.integers(1, 12), st.integers(-12, 24))
def test_eval_at_unity_root_matches_complex_evaluation(p, m, d):
    ev = eval_at_unity_root(p, m, d)
    want = approx_root_value(p, m, d)
    if ev.is_integer:
        got = ev.value
    else:
        zeta = cmath.exp(2j * cmath.pi / ev.order)
        got = sum(c * zeta ** e for e, c in ev.residue.terms.items())
    assert abs(want - got) < ROOT_TOLERANCE


def test_degree_valuation_shift():
    p = IntLaurentPoly({-2: 3, 0: 1, 5: -4})
    assert p.valuation() == -2
    assert p.degree() == 5
    s = p.shift(2)
    assert s.valuation() == 0 and s.degree() == 7
    assert s.coefficient(0) == 3 and s.coefficient(7) == -4
    with pytest.raises(ValueError):
        ZERO.degree()


def test_subst_power_and_fold():
    p = IntLaurentPoly({0: 1, 1: 2, 3: 5})
    assert p.subst_power(2) == IntLaurentPoly({0: 1, 2: 2, 6: 5})
    # s = 0 means evaluating at q = 1
    assert p.subst_power(0) == IntLaurentPoly.monomial(0, 8)
    assert p.fold_exponents(3) == IntLaurentPoly({0: 6, 1: 2})
    assert IntLaurentPoly({-1: 1}).fold_exponents(3) == IntLaurentPoly({2: 1})


def test_exact_div():
    # the expand-and-divide oracle's long division
    rng = random.Random(99)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
    with pytest.raises(ArithmeticError):
        exact_div(Q + ONE, Q - ONE)
    with pytest.raises(ArithmeticError):
        # 2 is not divisible by 3 over the integers
        exact_div(IntLaurentPoly.monomial(0, 2), IntLaurentPoly.monomial(0, 3))


def test_q_int_factorial():
    assert q_int(4) == IntLaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_factorial(0) == ONE


def test_shift_subst_and_fold_take_only_ints():
    p = q_binomial(4, 2)
    for call in (lambda: p.shift(0.5), lambda: p.subst_power(1.5),
                 lambda: p.fold_exponents(2.5), lambda: p.shift(True),
                 lambda: p.subst_power(False), lambda: p.fold_exponents(True)):
        with pytest.raises(TypeError):
            call()
    # the range checks keep their messages
    with pytest.raises(ValueError, match="substitution power must be nonnegative"):
        p.subst_power(-1)
    with pytest.raises(ValueError, match="modulus must be positive"):
        p.fold_exponents(0)


def test_q_side_rejects_bools_and_floats():
    p = q_binomial(4, 2)
    for call in (lambda: q_binomial(5, True), lambda: q_binomial(True, 0),
                 lambda: q_binomial(5.0, 2), lambda: q_binomial(5, 2.0),
                 lambda: q_int(True), lambda: q_int(3.0),
                 lambda: eval_at_unity_root(p, True, 1),
                 lambda: eval_at_unity_root(p, 4, True),
                 lambda: eval_at_unity_root(p, 4.0, 1),
                 lambda: eval_at_unity_root(p, 4, 1.0)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="q_binomial needs 0 <= r <= m"):
        q_binomial(2, 3)
    with pytest.raises(ValueError, match="q_int needs m >= 0"):
        q_int(-1)
    with pytest.raises(ValueError, match="root order must be >= 1"):
        eval_at_unity_root(p, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, m))))
def test_q_binomial_matches_expand_and_divide(mr):
    m, r = mr
    assert q_binomial(m, r) == q_binomial_expanded(m, r)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200))
def test_cyclotomic_matches_divided_oracle(m):
    assert cyclotomic(m) == cyclotomic_divided(m)


polys = st.dictionaries(st.integers(0, 12), st.integers(-20, 20),
                        max_size=6).map(IntLaurentPoly)


@settings(max_examples=300, deadline=None)
@given(polys, st.lists(st.integers(1, 6), max_size=3),
       st.lists(st.integers(1, 6), max_size=3))
def test_factor_steps_match_long_division(p, ups, downs):
    # each step against the oracle: multiply out, then divide exactly
    want = p
    try:
        for i in range(max(len(ups), len(downs))):
            if i < len(ups):
                want = want * (ONE - IntLaurentPoly.monomial(ups[i]))
            if i < len(downs):
                want = exact_div(want, ONE - IntLaurentPoly.monomial(downs[i]))
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _factor_steps(p, ups, downs)
    else:
        assert _factor_steps(p, ups, downs) == want


def test_factor_steps_raise_on_a_remainder_or_a_laurent_input():
    with pytest.raises(ArithmeticError, match="non-exact division"):
        _factor_steps(ONE + Q, (), (2,))
    with pytest.raises(ArithmeticError, match="non-exact division"):
        # (1 - q^2) / (1 - q^3)
        _factor_steps(ONE + Q, (1,), (3,))
    assert _factor_steps(ONE + Q, (1,), (2,)) == ONE
    with pytest.raises(ValueError, match="exponents >= 0"):
        _factor_steps(IntLaurentPoly({-1: 1, 0: 1}), (1,), (1,))


@pytest.mark.parametrize("m", range(0, 9))
def test_q_binomial_row(m):
    for r in range(0, m + 1):
        b = q_binomial(m, r)
        assert b.evaluate(1) == math.comb(m, r)
        assert b == q_binomial(m, m - r)
        if 0 < r < m:
            # q-Pascal recursion
            assert b == q_binomial(m - 1, r - 1) + q_binomial(m - 1, r).shift(r)
        if not b.is_zero():
            assert b.valuation() == 0
            assert b.degree() == r * (m - r)
            # palindromic coefficients
            top = b.degree()
            assert all(b.coefficient(e) == b.coefficient(top - e)
                       for e in range(top + 1))
    with pytest.raises(ValueError):
        q_binomial(m, m + 1)
    with pytest.raises(ValueError):
        q_binomial(m, -1)


def test_cyclotomic_product():
    for m in range(1, 31):
        prod = ONE
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntLaurentPoly.monomial(m) - ONE
    assert cyclotomic(1) == Q - ONE
    assert cyclotomic(7) == q_int(7)
    assert cyclotomic(6) == IntLaurentPoly({0: 1, 1: -1, 2: 1})


def approx_root_value(p, m, d):
    z = cmath.exp(2j * cmath.pi * d / m)
    return sum(c * z ** e for e, c in p.terms.items())


def test_eval_at_unity_root_against_floats():
    rng = random.Random(4242)
    cases = [(q_binomial(m, r), m2, d)
             for m in range(1, 7) for r in range(m + 1)
             for m2 in range(1, 7) for d in range(m2 + 1)]
    cases += [(random_poly(rng), rng.randrange(1, 9), rng.randrange(0, 9))
              for _ in range(150)]
    for p, m, d in cases:
        ev = eval_at_unity_root(p, m, d)
        want = approx_root_value(p, m, d)
        if ev.is_integer:
            assert abs(want - ev.value) < 1e-8
        else:
            zz = cmath.exp(2j * cmath.pi / ev.order)
            got = sum(c * zz ** e for e, c in ev.residue.terms.items())
            assert abs(want - got) < 1e-8


def test_eval_at_unity_root_examples():
    # [4 2]_q at q = i vanishes, at q = -1 equals 2
    assert eval_at_unity_root(q_binomial(4, 2), 4, 1).value == 0
    assert eval_at_unity_root(q_binomial(4, 2), 4, 2).value == 2
    assert eval_at_unity_root(q_binomial(4, 2), 4, 4).value == 6
    # negative exponents: q^-1 at q = -1 is -1
    p = IntLaurentPoly.monomial(-1)
    assert eval_at_unity_root(p, 2, 1).value == -1
    # q + q^2 at a primitive cube root is not an integer
    ev = eval_at_unity_root(Q + Q * Q, 3, 1)
    assert ev.is_integer and ev.value == -1
    ev2 = eval_at_unity_root(Q - Q * Q, 3, 1)
    assert not ev2.is_integer
    assert ev2.order == 3


def test_root_evaluation_json():
    ev = RootEvaluation(5)
    assert ev.to_json_obj() == "5"
    ev2 = eval_at_unity_root(Q - Q * Q, 3, 1)
    obj = ev2.to_json_obj()
    assert obj["order"] == 3
    # q - q^2 reduced mod the third cyclotomic polynomial is 1 + 2q
    assert obj["residue"] == IntLaurentPoly({0: 1, 1: 2}).to_json_dict()


def test_poly_json_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng)
        assert IntLaurentPoly.from_json_dict(p.to_json_dict()) == p


def test_str_form():
    p = IntLaurentPoly({0: 1, 2: 2, 4: 1})
    assert str(p) == "1 + 2*q^2 + q^4"
    assert str(ZERO) == "0"
