"""The family table: every row against the name ladders it replaced, the
one unknown-family check, and the two inputs the ladders let through."""

import pytest

from sievelab.actions import (
    count_fixed, declared_group_order, resolve_step,
)
from sievelab.clusterlab import (
    cluster_monomial, equivariance_discrepancy, rotation_substitution,
)
from sievelab.cspverify import CspInstance
from sievelab.polygons import (
    DIAMETER, FAMILIES, Family, edge_table, edge_weight,
    enumerate_multidissections, family_rules, min_n, polygon_size,
)
from sievelab.qseries import IntLaurentPoly


def reference_family_rules(family: str) -> Family:
    """Each rule as the per-module name tests spelled it before the table:
    the classical prefix, the BC alias of the type C universe, the digon,
    the pair weight of family D only, the doubled order of the D families
    and the classicalBC step rule."""
    classical = family.startswith("classical")
    base = family[len("classical"):] if classical else family
    base = "C" if base == "BC" else base
    return Family(
        name=family,
        base=base,
        classical=classical,
        min_n=3 if base == "A" else 1 if family == "D" else 2,
        pair_weight=2 if family == "D" else 1,
        order=2 if family in ("D", "classicalD") else 1,
        steps=(2, 1) if family == "classicalBC" else (1,))


def test_families_in_order():
    assert FAMILIES == ("A", "C", "D", "classicalA", "classicalBC",
                        "classicalD")


@pytest.mark.parametrize("family", FAMILIES)
def test_row_matches_reference(family):
    rules, ref = family_rules(family), reference_family_rules(family)
    for name in Family._fields:
        assert getattr(rules, name) == getattr(ref, name), name


@pytest.mark.parametrize("family", FAMILIES)
def test_readers_match_reference(family):
    ref = reference_family_rules(family)
    n = max(ref.min_n, 5)
    assert min_n(family) == ref.min_n
    assert polygon_size(family, n) == (n if ref.base == "A" else 2 * n)
    assert declared_group_order(family, n) == ref.order * n
    assert resolve_step(family, None) == ref.steps[0]
    table = edge_table(family, n)
    assert table.weights == tuple(
        1 if shape == DIAMETER else ref.pair_weight
        for shape in table.shapes)
    assert table.weights == tuple(edge_weight(family, e) for e in table.edges)
    top = max(m for f in enumerate_multidissections(family, n, 2)
              for _, m in f.index_items())
    assert top == (1 if ref.classical else 2)


def _instance(family):
    return CspInstance(family, 3, 1, IntLaurentPoly(1))


def _monomial(family):
    return cluster_monomial(family, enumerate_multidissections("A", 4, 1)[0])


@pytest.mark.parametrize("call", [
    lambda family: declared_group_order(family, 3),
    lambda family: resolve_step(family, None),
    _instance,
    min_n,
    lambda family: polygon_size(family, 3),
    lambda family: edge_table(family, 3),
    lambda family: rotation_substitution(family, 3),
    _monomial,
], ids=["declared_group_order", "resolve_step", "CspInstance", "min_n",
        "polygon_size", "edge_table", "rotation_substitution",
        "cluster_monomial"])
@pytest.mark.parametrize("family", ["B", "classical", "classicalC", "a"])
def test_unknown_family_rejected(call, family):
    with pytest.raises(ValueError, match="unknown family"):
        call(family)


@pytest.mark.parametrize("family, f_family", [
    ("classicalBC", "C"), ("C", "classicalBC"), ("A", "classicalA"),
    ("classicalD", "D"), ("A", "C")])
def test_cluster_monomial_rejects_a_foreign_object(family, f_family):
    f = enumerate_multidissections(f_family, 4, 1)[-1]
    with pytest.raises(ValueError, match="expected a family %s" % family):
        cluster_monomial(family, f)
    with pytest.raises(ValueError, match="expected a family %s" % family):
        equivariance_discrepancy(family, 4, f)


@pytest.mark.parametrize("step", [True, False, 1.0, 2.0, "2", 3, 0, -1])
def test_resolve_step_takes_plain_ints_only(step):
    count_fixed("classicalBC", 3, 1, 1, generator_step=1)
    with pytest.raises(ValueError, match="generator_step must be 1 or 2"):
        resolve_step("classicalBC", step)
    with pytest.raises(ValueError, match="generator_step must be 1 or 2"):
        count_fixed("classicalBC", 3, 1, 1, generator_step=step)
