"""The sieving engine: fixed-point counts versus root-of-unity values.

A verification instance carries a family, a size, an edge count, a
candidate polynomial and the declared group order; `verify` compares the
number of multidissections fixed by every generator power with the exact
evaluation of the polynomial at the corresponding root of unity.  All
arithmetic stays in exact cyclotomic form, so a passing check is a
genuine integer identity, not a float coincidence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .actions import (
    declared_group_order, fixed_counts, fold_target_param, orbit_sizes,
    resolve_step,
)
from .polygons import enumerate_multidissections
from .qseries import IntLaurentPoly, RootEvaluation, eval_at_unity_root
from .symfunc import (
    build_X_thm11, build_X_typeA, build_X_typeC, build_X_typeD,
    homog_eval, ones_point, principal_point,
)

THEOREM_SELECTORS = ("thm2.5", "thm3.4", "thm4.6",
                     "thm1.1-1", "thm1.1-2", "thm1.1-3", "orbit-poly")


@dataclass(frozen=True)
class CspInstance:
    family: str
    n: int
    k: int
    polynomial: IntLaurentPoly
    group_order: int
    variant: str | None = None
    generator_step: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.group_order != declared_group_order(self.family, self.n):
            raise ValueError("group order %d does not match the declared "
                             "order of family %s" % (self.group_order, self.family))
        resolve_step(self.family, self.generator_step)


class CspCheck(NamedTuple):
    d: int
    fixed_count: int
    evaluation: RootEvaluation
    passed: bool

    def to_json_dict(self) -> dict:
        return {"d": self.d, "fixed": self.fixed_count,
                "eval": self.evaluation.to_json_obj(), "pass": self.passed}


@dataclass(frozen=True)
class CspReport:
    instance: CspInstance
    checks: tuple[CspCheck, ...]
    csp_holds: bool = field(init=False)

    def __post_init__(self):
        ok = all(c.passed and c.evaluation.is_integer for c in self.checks)
        object.__setattr__(self, "csp_holds", ok)

    def failing(self) -> list[CspCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        ins = self.instance
        return {
            "family": ins.family,
            "n": ins.n,
            "k": ins.k,
            "variant": ins.variant,
            "group_order": ins.group_order,
            "label": ins.label,
            "checks": [c.to_json_dict() for c in self.checks],
            "csp_holds": self.csp_holds,
        }


def verify(instance: CspInstance) -> CspReport:
    """Check the sieving identity at every power 1..group_order.

    Non-divisor powers are included on purpose: they are implied by the
    divisor checks for genuine cyclic actions but cheaply expose wrong
    generator orders.
    """
    counts = fixed_counts(orbit_sizes(instance.family, instance.n, instance.k,
                                      instance.generator_step),
                          instance.group_order)
    checks = []
    for d in range(1, instance.group_order + 1):
        fixed = counts[d]
        ev = eval_at_unity_root(instance.polynomial, instance.group_order, d)
        passed = ev.is_integer and ev.value == fixed
        checks.append(CspCheck(d, fixed, ev, passed))
    return CspReport(instance, tuple(checks))


def theorem_instance(selector: str, n: int, k: int, variant: str | None = None,
                     generator_step: int | None = None,
                     family: str | None = None) -> CspInstance:
    """Build the verification instance for a named result.  Only
    thm1.1-2 reads `variant`, and None there means "printed"."""
    if selector == "thm2.5":
        return CspInstance("A", n, k, build_X_typeA(n, k), n, label=selector)
    if selector == "thm3.4":
        return CspInstance("C", n, k, build_X_typeC(n, k), n, label=selector)
    if selector == "thm4.6":
        return CspInstance("D", n, k, build_X_typeD(n, k), 2 * n, label=selector)
    if selector == "thm1.1-1":
        return CspInstance("classicalA", n, k, build_X_thm11(1, n, k), n,
                           label=selector)
    if selector == "thm1.1-2":
        variant = "printed" if variant is None else variant
        return CspInstance("classicalBC", n, k, build_X_thm11(2, n, k, variant),
                           n, variant=variant, generator_step=generator_step,
                           label=selector)
    if selector == "thm1.1-3":
        return CspInstance("classicalD", n, k, build_X_thm11(3, n, k), 2 * n,
                           label=selector)
    if selector == "orbit-poly":
        if family is None:
            raise ValueError("orbit-poly needs an explicit family")
        step = generator_step if family == "classicalBC" else None
        return CspInstance(family, n, k, orbit_polynomial(family, n, k, step),
                           declared_group_order(family, n),
                           generator_step=step, label=selector)
    raise ValueError("unknown selector %r (expected one of %s)"
                     % (selector, ", ".join(THEOREM_SELECTORS)))


def orbit_polynomial(family: str, n: int, k: int,
                     generator_step: int | None = None) -> IntLaurentPoly:
    """The tautological sieving polynomial: coefficient a_i counts the
    orbits whose stabilizer order divides i, with a_0 counting all
    orbits.  Orbit sizes are measured against the declared group order."""
    order = declared_group_order(family, n)
    coeffs = [0] * order
    for size, members in Counter(orbit_sizes(family, n, k, generator_step)).items():
        if order % size:
            raise ArithmeticError("orbit size %d does not divide the group "
                                  "order %d" % (size, order))
        # members // size orbits, with stabilizer order order // size
        for i in range(0, order, order // size):
            coeffs[i] += members // size
    return IntLaurentPoly({i: c for i, c in enumerate(coeffs)})


class FoldingEntry(NamedTuple):
    d: int
    parity: str
    fixed: int
    expected: int
    passed: bool
    target_param: int | None = None
    target_k: int | None = None

    def to_json_dict(self) -> dict:
        out = {"d": self.d, "parity": self.parity, "fixed": self.fixed,
               "expected": self.expected, "pass": self.passed}
        if self.target_param is not None:
            out["target_param"] = self.target_param
            out["target_k"] = self.target_k
        return out


@dataclass(frozen=True)
class FoldingReport:
    n: int
    k: int
    entries: tuple[FoldingEntry, ...]
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(e.passed for e in self.entries))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k,
                "entries": [e.to_json_dict() for e in self.entries],
                "pass": self.passed}


def verify_folding_consistency(n: int, k: int) -> FoldingReport:
    """Counting form of the folding machinery, over all divisors of 2n.

    Even powers: the fixed multidissections match the enumeration of the
    fold target (empty when the scaled edge count is fractional).  Odd
    powers: they match the invariant centrally symmetric multidissections
    with half the edges (none when k is odd).
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    counts = fixed_counts(orbit_sizes("D", n, k), 2 * n)
    # odd powers compare with centrally symmetric objects of half the
    # edges, of which there are none at odd k
    half_counts = fixed_counts([] if k % 2 else orbit_sizes("C", n, k // 2),
                               2 * n)
    entries = []
    for d in range(1, 2 * n + 1):
        if (2 * n) % d:
            continue
        fixed = counts[d]
        if d % 2 == 0:
            p = fold_target_param(n, d)
            scaled = k * d // n if n % d == 0 else k * d // (2 * n)
            exact = k * d % n == 0 if n % d == 0 else k * d % (2 * n) == 0
            expected = len(enumerate_multidissections("D", p, scaled)) if exact else 0
            entries.append(FoldingEntry(d, "even", fixed, expected,
                                        fixed == expected, p, scaled if exact else None))
        else:
            expected = half_counts[d]
            entries.append(FoldingEntry(d, "odd", fixed, expected,
                                        fixed == expected))
    return FoldingReport(n, k, tuple(entries))


def homog_principal_root_check(n: int, k: int, d: int) -> bool:
    """Root-of-unity collapse of the principal h_k specialization: at a
    primitive d-th root (d | n) it equals the all-ones value of h_{k/d}
    in n/d variables when d | k, and vanishes otherwise."""
    if n % d:
        raise ValueError("d must divide n")
    left = eval_at_unity_root(homog_eval(k, principal_point(n)), n, n // d)
    if not left.is_integer:
        return False
    if k % d:
        return left.value == 0
    right = homog_eval(k // d, ones_point(n // d))
    return left.value == right.constant_value()
