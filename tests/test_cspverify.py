"""End-to-end sieving checks: fixed-point counts against root-of-unity values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievelab.cspverify as cspverify
from sievelab.cspverify import (
    THEOREM_SELECTORS,
    CspInstance,
    CspReport,
    homog_principal_root_check,
    orbit_polynomial,
    theorem_instance,
    theorem_rules,
    verify,
    verify_folding_consistency,
)
from sievelab.qseries import IntLaurentPoly, q_binomial
from sievelab.symfunc import build_X_typeA


def check_tuples(report):
    return [(c.d, c.fixed_count,
             c.evaluation.value if c.evaluation.is_integer else None)
            for c in report.checks]


def test_verify_A_square():
    rep = verify(theorem_instance("thm2.5", 4, 1))
    assert check_tuples(rep) == [(1, 0, 0), (2, 2, 2), (3, 0, 0), (4, 6, 6)]
    assert rep.csp_holds
    assert rep.failing() == []


def test_verify_checks_all_powers():
    # non-divisor powers are part of the contract, not just divisors of the
    # group order
    rep = verify(theorem_instance("thm2.5", 6, 1))
    assert [c.d for c in rep.checks] == [1, 2, 3, 4, 5, 6]


def test_verify_C_square():
    rep = verify(theorem_instance("thm3.4", 2, 2))
    assert check_tuples(rep) == [(1, 1, 1), (2, 9, 9)]
    assert rep.csp_holds


def test_verify_D_triangle():
    rep = verify(theorem_instance("thm4.6", 3, 3))
    assert check_tuples(rep) == [(1, 0, 0), (2, 2, 2), (3, 0, 0),
                                 (4, 2, 2), (5, 0, 0), (6, 56, 56)]
    assert rep.csp_holds


@pytest.mark.parametrize("selector,n_range,k_range", [
    ("thm2.5", range(3, 7), range(0, 4)),
    ("thm3.4", range(2, 5), range(0, 4)),
    ("thm4.6", range(2, 5), range(0, 4)),
    ("thm1.1-1", range(4, 7), range(0, 3)),
    ("thm1.1-3", range(2, 5), range(0, 4)),
])
def test_theorem_grids_hold(selector, n_range, k_range):
    for n in n_range:
        for k in k_range:
            rep = verify(theorem_instance(selector, n, k))
            assert rep.csp_holds, (selector, n, k, rep.failing())


def test_part2_printed_fails_at_smallest_case():
    # the printed q-count does not sieve: value 12 against 2 fixed points
    rep = verify(theorem_instance("thm1.1-2", 2, 1))
    assert not rep.csp_holds
    assert check_tuples(rep) == [(1, 2, 12), (2, 2, 12)]
    assert [c.d for c in rep.failing()] == [1, 2]


def test_part2_shifted_holds():
    for n in range(2, 6):
        for k in range(0, n):
            rep = verify(theorem_instance("thm1.1-2", n, k, variant="shifted"))
            assert rep.csp_holds, (n, k)


def test_part2_uses_two_step_generator():
    inst = theorem_instance("thm1.1-2", 3, 1, variant="shifted")
    assert inst.family == "classicalBC"
    assert inst.group_order == 3


def test_orbit_polynomial_frozen():
    assert orbit_polynomial("A", 4, 1) == IntLaurentPoly({0: 2, 1: 1, 2: 2, 3: 1})
    assert orbit_polynomial("C", 2, 1) == IntLaurentPoly({0: 2, 1: 2})


def test_orbit_polynomial_structure():
    # constant term counts all orbits; exponents stay below the group order
    from sievelab.actions import declared_group_order, rotate_multidissection
    from sievelab.polygons import enumerate_multidissections
    for family, n, k in [("A", 4, 2), ("C", 3, 2), ("D", 2, 2)]:
        p = orbit_polynomial(family, n, k)
        order = declared_group_order(family, n)
        orbits = set()
        for md in enumerate_multidissections(family, n, k):
            orbits.add(frozenset(rotate_multidissection(md, d).key()
                                 for d in range(order)))
        assert p.coefficient(0) == len(orbits)
        assert p.degree() <= order - 1


@pytest.mark.parametrize("family,n_range,k_range", [
    ("A", range(3, 6), range(0, 3)),
    ("C", range(2, 4), range(0, 3)),
    ("D", range(2, 4), range(0, 3)),
    ("classicalA", range(4, 7), range(0, 3)),
    ("classicalBC", range(2, 4), range(0, 3)),
    ("classicalD", range(2, 4), range(0, 3)),
])
def test_orbit_polynomial_always_sieves(family, n_range, k_range):
    for n in n_range:
        for k in k_range:
            rep = verify(theorem_instance("orbit-poly", n, k, family=family))
            assert rep.csp_holds, (family, n, k)


@pytest.mark.parametrize("family,step", [
    ("A", None), ("C", None), ("D", None), ("classicalA", None),
    ("classicalBC", 1), ("classicalBC", 2), ("classicalD", None),
])
def test_orbit_poly_task_lists_once(monkeypatch, family, step):
    # the polynomial and the fixed counts read one kept vector, whose
    # total is one listing
    import sievelab.actions as actions
    import sievelab.polygons as polygons

    real = polygons.iter_weighted_assignments
    builds = []

    def build(*args):
        builds.append(args[1])
        return real(*args)

    actions.fixed_count_vector.cache_clear()
    monkeypatch.setattr(polygons, "iter_weighted_assignments", build)
    rep = verify(theorem_instance("orbit-poly", 4, 3, generator_step=step,
                                  family=family))
    assert rep.csp_holds
    assert builds == [3]


def divisors(m):
    return [s for s in range(1, m + 1) if m % s == 0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_orbit_polynomial_inverts_any_fixed_vector(n, data):
    # any orbits, given only as the fixed counts of a generator whose order
    # divides the group order n, come back orbit size by orbit size
    order = data.draw(st.sampled_from(divisors(n)))
    orbits = {s: data.draw(st.integers(0, 5)) for s in divisors(order)}
    vector = tuple(sum(s * c for s, c in orbits.items() if d % s == 0)
                   for d in range(order + 1))
    want = {i: sum(c for s, c in orbits.items() if i % (n // s) == 0)
            for i in range(n)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cspverify, "fixed_count_vector", lambda *args: vector)
        assert orbit_polynomial("A", n, 1) == IntLaurentPoly(want)


def test_orbit_polynomial_rejects_partial_orbits(monkeypatch):
    # one object that the generator fixes and two that only its cube
    # fixes: two thirds of an orbit of size 3
    monkeypatch.setattr(cspverify, "fixed_count_vector",
                        lambda *args: (3, 1, 1, 3))
    with pytest.raises(ArithmeticError, match="do not make whole orbits"):
        orbit_polynomial("A", 3, 1)
    # one orbit of size 2 under a group of order 3
    monkeypatch.setattr(cspverify, "fixed_count_vector",
                        lambda *args: (2, 0, 2))
    with pytest.raises(ArithmeticError, match="does not divide the group"):
        orbit_polynomial("A", 3, 1)


def test_theorem_instance_validation():
    with pytest.raises(ValueError):
        theorem_instance("nope", 3, 1)
    with pytest.raises(ValueError):
        theorem_instance("orbit-poly", 3, 1)  # needs a family
    # the step applies to classicalBC only and is rejected elsewhere
    with pytest.raises(ValueError, match="applies to classicalBC only"):
        theorem_instance("thm2.5", 3, 1, generator_step=2)
    with pytest.raises(ValueError, match="applies to classicalBC only"):
        theorem_instance("orbit-poly", 4, 1, generator_step=1, family="C")
    # a family or a variant the selector does not read is rejected
    with pytest.raises(ValueError, match="family applies to orbit-poly only"):
        theorem_instance("thm2.5", 5, 2, family="C")
    with pytest.raises(ValueError, match="variant applies to thm1.1-2 only"):
        theorem_instance("thm3.4", 4, 2, variant="shifted")
    assert theorem_instance("thm1.1-2", 3, 1, variant="shifted").variant \
        == "shifted"
    assert set(THEOREM_SELECTORS) == {
        "thm2.5", "thm3.4", "thm4.6", "thm1.1-1", "thm1.1-2", "thm1.1-3",
        "orbit-poly"}


def _never_built(*args):
    raise AssertionError("built a polynomial for a rejected step")


@pytest.mark.parametrize("selector, family, step, builder", [
    ("thm1.1-1", None, 1, "build_X_thm11"),
    ("thm2.5", None, 2, "build_X_typeA"),
    ("orbit-poly", "C", 1, "orbit_polynomial"),
    ("orbit-poly", "classicalBC", 3, "orbit_polynomial"),
    ("thm1.1-2", None, 3, "build_X_thm11"),
])
def test_theorem_instance_rejects_a_step_before_building(
        monkeypatch, selector, family, step, builder):
    # at (80, 30) the thm1.1-1 polynomial alone takes most of a second
    monkeypatch.setattr(cspverify, builder, _never_built)
    with pytest.raises(ValueError, match="generator_step"):
        theorem_instance(selector, 80, 30, generator_step=step, family=family)


@pytest.mark.parametrize("selector, options, resolved", [
    ("thm2.5", {}, ("A", None)),
    ("thm1.1-2", {}, ("classicalBC", "printed")),
    ("thm1.1-2", {"variant": "shifted", "generator_step": 2},
     ("classicalBC", "shifted")),
    ("orbit-poly", {"family": "D"}, ("D", None)),
])
def test_theorem_rules_resolve_without_building(monkeypatch, selector,
                                               options, resolved):
    # the rules give the family and the default variant, and build nothing
    def build(*args):
        raise AssertionError("theorem_rules built a polynomial")

    for builder in ("build_X_typeA", "build_X_thm11", "orbit_polynomial"):
        monkeypatch.setattr(cspverify, builder, build)
    assert theorem_rules(selector, **options) == resolved


def test_csp_instance_validates_group_order():
    # the group order is the family's declared one, not an argument
    with pytest.raises(TypeError):
        CspInstance("A", 4, 1, build_X_typeA(4, 1), group_order=4)
    inst = CspInstance("A", 4, 1, build_X_typeA(4, 1))
    assert inst.group_order == 4
    assert isinstance(verify(inst), CspReport)


def test_report_json_shape():
    rep = verify(theorem_instance("thm2.5", 4, 1))
    d = rep.to_json_dict()
    assert d["family"] == "A" and d["n"] == 4 and d["k"] == 1
    assert d["csp_holds"] is True
    assert d["checks"][0] == {"d": 1, "fixed": 0, "eval": "0", "pass": True}


# --- folding consistency -------------------------------------------------------

def test_folding_report_frozen():
    rep = verify_folding_consistency(3, 2)
    assert rep.passed
    rows = [(e.d, e.parity, e.fixed, e.expected, e.target_param, e.target_k)
            for e in rep.entries]
    assert rows == [
        (1, "odd", 0, 0, None, None),
        (2, "even", 0, 0, 1, None),
        (3, "odd", 9, 9, None, None),
        (6, "even", 21, 21, 3, 2),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", range(0, 5))
def test_folding_consistency_grid(n, k):
    rep = verify_folding_consistency(n, k)
    assert rep.passed, (n, k, rep.entries)
    # every even divisor of 2n and every odd power appears exactly once
    ds = [e.d for e in rep.entries]
    assert ds == sorted(ds)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("k", range(0, 4))
def test_folding_rejects_n_below_two(n, k):
    # the odd powers compare with family C, which starts at n = 2
    with pytest.raises(ValueError, match="needs n >= 2"):
        verify_folding_consistency(n, k)


def test_folding_non_integer_weight_case():
    # d = 2 on the triangle requires weight divisible by 3; k = 2 is not
    rep = verify_folding_consistency(3, 2)
    entry = [e for e in rep.entries if e.d == 2][0]
    assert entry.fixed == 0 and entry.expected == 0
    assert entry.target_k is None


def test_folding_lists_each_fold_target_once(monkeypatch):
    # at n = 6 the powers 2 and 4 fold onto p = 2, and 6 and 12 onto p = 6
    import sievelab.cspverify as cspverify

    real = cspverify.enumerate_multidissections
    listed = []

    def spy(*args):
        listed.append(args)
        return real(*args)

    monkeypatch.setattr(cspverify, "enumerate_multidissections", spy)
    repeated = 0
    for n in range(2, 7):
        for k in range(0, 5):
            listed.clear()
            rep = verify_folding_consistency(n, k)
            assert rep.passed, (n, k)
            targets = [("D", e.target_param, e.target_k) for e in rep.entries
                       if e.target_k is not None]
            assert sorted(listed) == sorted(set(targets)), (n, k)
            repeated += len(targets) - len(set(targets))
    assert repeated > 0


# --- principal specialization at roots ------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_homog_principal_root_check(n):
    for d in range(1, n + 1):
        if n % d:
            continue
        for k in range(0, 9):
            assert homog_principal_root_check(n, k, d)


def test_homog_principal_root_check_rejects_non_divisor():
    with pytest.raises(ValueError):
        homog_principal_root_check(6, 2, 4)


@pytest.mark.parametrize("d", [0, -1, -2, -4])
def test_homog_principal_root_check_rejects_non_positive_d(d):
    # d = 0 is a usage error, not a ZeroDivisionError
    with pytest.raises(ValueError, match="d must divide n"):
        homog_principal_root_check(4, 2, d)


@pytest.mark.parametrize("d", [True, 2.0, 1.0])
def test_homog_principal_root_check_rejects_non_int_d(d):
    with pytest.raises(TypeError, match="d must be an int"):
        homog_principal_root_check(4, 2, d)


def test_homog_principal_root_values_match_binomials():
    # both branches at a primitive cube root of unity (n = 6, power n/d = 2):
    # weight divisible by 3 collapses to a plain count, otherwise vanishes
    from sievelab.qseries import eval_at_unity_root
    from sievelab.symfunc import homog_eval, principal_point
    p3 = homog_eval(3, principal_point(6))
    assert eval_at_unity_root(p3, 6, 2).value == \
        q_binomial(2 + 1 - 1, 1).evaluate(1)
    p4 = homog_eval(4, principal_point(6))
    assert eval_at_unity_root(p4, 6, 2).value == 0
