"""The input contract: every public entry point checks a size with
`polygons.check_size` (or `_exact_int` where it accepts any size), an
edge count with `polygons.edge_count`, and a power or a shape row with
`_exact_int`.  A bool or a float raises TypeError, whether or not a cache
already holds the equal int's answer."""

import pytest

from sievelab import actions, clusterlab, cspverify, polygons, qseries
from sievelab.actions import (
    count_fixed, declared_group_order, fixed_count_vector, fold_target_param,
    odd_power_correspondence,
)
from sievelab.clusterlab import (
    XPoly, _factor_power, character_sum_A, character_sum_D, check_conjecture_D,
    expected_dim_D, j_generator, j_member, j_reduce,
    lemma_basis_multidissections, minor, rotation_substitution, var_index,
)
from sievelab.cspverify import (
    homog_principal_root_check, verify_folding_consistency,
)
from sievelab.polygons import (
    check_size, edge_count, edge_table, enumerate_multidissections,
    iter_weighted_assignments, min_n, polygon_size, weighted_assignment_sum,
)
from sievelab.symfunc import (
    build_X_thm11, build_X_typeA, build_X_typeC, build_X_typeD,
    character_A, character_C, character_D, homog_eval, ones_point,
    principal_point,
)
from sievelab.tableaux import enumerate_sncr, enumerate_ssyt


def clear_caches():
    for module in (actions, clusterlab, cspverify, polygons, qseries):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# (id, the call with one checked argument replaced by v); every call is
# valid, or a ValueError, at v = 1 and v = 2
ENTRY_POINTS = [
    ("check_size", lambda v: check_size("D", v)),
    ("edge_count", lambda v: edge_count(v)),
    ("edge_table n", lambda v: edge_table("D", v)),
    ("enumerate n", lambda v: enumerate_multidissections("D", v, 1)),
    ("enumerate k", lambda v: enumerate_multidissections("D", 2, v)),
    ("iter_weighted_assignments target",
     lambda v: iter_weighted_assignments([1, 1], v, [0, 0])),
    ("weighted_assignment_sum target",
     lambda v: weighted_assignment_sum([1, 1], v, [0, 0], [1, 1])),
    ("declared_group_order n", lambda v: declared_group_order("D", v)),
    ("polygon_size n", lambda v: polygon_size("C", v)),
    ("fixed_count_vector n", lambda v: fixed_count_vector("D", v, 1, None)),
    ("fixed_count_vector k", lambda v: fixed_count_vector("D", 2, v, None)),
    ("count_fixed d", lambda v: count_fixed("D", 2, 1, v)),
    ("fold_target_param n", lambda v: fold_target_param(v, 2)),
    ("fold_target_param d", lambda v: fold_target_param(4, v)),
    ("odd_power_correspondence n",
     lambda v: odd_power_correspondence(v, 1, 2)),
    ("odd_power_correspondence d",
     lambda v: odd_power_correspondence(3, v, 2)),
    ("odd_power_correspondence k",
     lambda v: odd_power_correspondence(3, 1, v)),
    ("ones_point n", lambda v: ones_point(v)),
    ("principal_point n", lambda v: principal_point(v)),
    ("principal_point step", lambda v: principal_point(3, v)),
    ("character_A k", lambda v: character_A(v, ones_point(3))),
    ("character_C k", lambda v: character_C(v, ones_point(2), ones_point(2))),
    ("character_D k", lambda v: character_D(v, ones_point(2), ones_point(2))),
    ("build_X_typeA n", lambda v: build_X_typeA(v, 1)),
    ("build_X_typeA k", lambda v: build_X_typeA(4, v)),
    ("build_X_typeC n", lambda v: build_X_typeC(v, 1)),
    ("build_X_typeC k", lambda v: build_X_typeC(2, v)),
    ("build_X_typeD n", lambda v: build_X_typeD(v, 1)),
    ("build_X_typeD k", lambda v: build_X_typeD(2, v)),
    ("build_X_thm11 part", lambda v: build_X_thm11(v, 4, 1)),
    ("build_X_thm11 part 1 n", lambda v: build_X_thm11(1, v, 1)),
    ("build_X_thm11 part 2 n", lambda v: build_X_thm11(2, v, 1)),
    ("build_X_thm11 part 3 n", lambda v: build_X_thm11(3, v, 1)),
    ("build_X_thm11 k", lambda v: build_X_thm11(3, 4, v)),
    ("character_sum_A n", lambda v: character_sum_A(v, 1, ones_point(4))),
    ("character_sum_A k", lambda v: character_sum_A(4, v, ones_point(4))),
    ("character_sum_D n",
     lambda v: character_sum_D(v, 1, ones_point(2), ones_point(2))),
    ("character_sum_D k",
     lambda v: character_sum_D(2, v, ones_point(2), ones_point(2))),
    ("lemma_basis n", lambda v: lemma_basis_multidissections(v, 1)),
    ("lemma_basis k", lambda v: lemma_basis_multidissections(2, v)),
    ("expected_dim_D n", lambda v: expected_dim_D(v, 1)),
    ("expected_dim_D k", lambda v: expected_dim_D(2, v)),
    ("rotation_substitution n", lambda v: rotation_substitution("D", v)),
    ("var_index row", lambda v: var_index(v, 1, 2)),
    ("var_index column", lambda v: var_index(1, v, 2)),
    ("var_index rows", lambda v: var_index(1, 1, v)),
    ("XPoly.variable rows", lambda v: XPoly.variable(v, 1, 1)),
    ("XPoly.variable row", lambda v: XPoly.variable(2, v, 1)),
    ("XPoly.variable column", lambda v: XPoly.variable(2, 1, v)),
    ("minor i", lambda v: minor(v, 3, 3)),
    ("minor j", lambda v: minor(1, v, 3)),
    ("minor rows", lambda v: minor(1, 2, v)),
    ("j_generator n", lambda v: j_generator(v)),
    ("j_reduce n", lambda v: j_reduce(minor(1, 2, 3), v)),
    ("j_member n", lambda v: j_member(minor(1, 2, 3), v)),
    ("_factor_power n", lambda v: _factor_power("D", v, 0, 1)),
    ("enumerate_ssyt row 1", lambda v: enumerate_ssyt((v, 0), 3)),
    ("enumerate_ssyt row 2", lambda v: enumerate_ssyt((2, v), 3)),
    ("enumerate_ssyt n", lambda v: enumerate_ssyt((1, 1), v)),
    ("enumerate_sncr shape", lambda v: enumerate_sncr((v, v), 2)),
    ("enumerate_sncr row 2", lambda v: enumerate_sncr((1, v), 3)),
    ("enumerate_sncr n", lambda v: enumerate_sncr((1, 1), v)),
    ("homog_principal_root_check n",
     lambda v: homog_principal_root_check(v, 2, 1)),
    ("homog_principal_root_check d",
     lambda v: homog_principal_root_check(4, 2, v)),
    ("check_conjecture_D n", lambda v: check_conjecture_D(v, 2)),
    ("verify_folding_consistency n",
     lambda v: verify_folding_consistency(v, 2)),
]


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("call", [call for _, call in ENTRY_POINTS],
                         ids=[name for name, _ in ENTRY_POINTS])
def test_bool_and_float_are_type_errors(call, bad):
    clear_caches()
    with pytest.raises(TypeError):
        call(bad)
    # the equal int, whose answer any untyped cache would hand back
    try:
        call(int(bad))
    except ValueError:
        pass
    with pytest.raises(TypeError):
        call(bad)


def test_argument_order():
    # a bad edge count is reported before a point of the wrong length
    with pytest.raises(TypeError, match="edge count"):
        character_sum_A(4, True, ones_point(3))
    with pytest.raises(TypeError, match="edge count"):
        character_sum_D(2, 1.0, ones_point(3), ones_point(2))


@pytest.mark.parametrize("family, build", [
    ("A", build_X_typeA), ("C", build_X_typeC), ("D", build_X_typeD),
    ("classicalA", lambda n, k: build_X_thm11(1, n, k)),
    ("classicalBC", lambda n, k: build_X_thm11(2, n, k)),
    ("classicalD", lambda n, k: build_X_thm11(3, n, k)),
])
def test_builders_read_the_family_table(family, build):
    # each sieving polynomial starts where its family's edge table does,
    # with the edge table's message
    least = min_n(family)
    build(least, 1)
    message = "family %s needs n >= %d" % (family, least)
    with pytest.raises(ValueError, match=message):
        build(least - 1, 1)
    with pytest.raises(ValueError, match=message):
        edge_table(family, least - 1)


@pytest.mark.parametrize("n", [0, -1])
def test_family_D_sizes_below_one(n):
    for call in (lambda: lemma_basis_multidissections(n, 1),
                 lambda: fold_target_param(n, 2),
                 lambda: odd_power_correspondence(n, 1, 1)):
        with pytest.raises(ValueError, match="family D needs n >= 1"):
            call()


def test_negative_counts_in_the_weighted_searches():
    for call in (lambda: iter_weighted_assignments([1], -1, [0]),
                 lambda: weighted_assignment_sum([1], -1, [0], [1]),
                 lambda: lemma_basis_multidissections(2, -1),
                 lambda: odd_power_correspondence(3, 1, -1)):
        with pytest.raises(ValueError, match="edge count must be >= 0"):
            call()


@pytest.mark.parametrize("point", [principal_point, ones_point])
@pytest.mark.parametrize("n", [-1, -3])
def test_points_reject_negative_sizes(point, n):
    # a negative size is not the empty point, at which h_2 would read 0
    with pytest.raises(ValueError, match="n must be >= 0"):
        point(n)
    assert point(0) == ()
    assert homog_eval(2, point(0)) == 0
