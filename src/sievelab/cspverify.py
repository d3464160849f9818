"""The sieving engine: fixed-point counts versus root-of-unity values.

A verification instance carries a family, a size, an edge count, a
candidate polynomial and the declared group order; `verify` compares the
number of multidissections fixed by every generator power with the exact
evaluation of the polynomial at the corresponding root of unity.  All
arithmetic stays in exact cyclotomic form, so a passing check is a
genuine integer identity, not a float coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable, NamedTuple

from .actions import (
    declared_group_order, fixed_count_vector, fold_target_param, resolve_step,
)
from .polygons import check_size, enumerate_multidissections
from .qseries import (
    IntLaurentPoly, RootEvaluation, _exact_int, eval_at_unity_root,
)
from .symfunc import (
    THM11_VARIANTS, build_X_thm11, build_X_typeA, build_X_typeC,
    build_X_typeD, homog_eval, ones_point, principal_point,
)


class _Theorem(NamedTuple):
    """A selector's rules: its family (None where the caller names one),
    the variants it takes (the default first) and its polynomial from
    (family, n, k, variant, generator_step).  A builder looks its function
    up when called, so a rebound module global takes effect."""
    family: str | None
    variants: tuple[str, ...]
    build: Callable[..., IntLaurentPoly]


_THEOREMS = {
    "thm2.5": _Theorem("A", (), lambda family, n, k, variant, step:
                       build_X_typeA(n, k)),
    "thm3.4": _Theorem("C", (), lambda family, n, k, variant, step:
                       build_X_typeC(n, k)),
    "thm4.6": _Theorem("D", (), lambda family, n, k, variant, step:
                       build_X_typeD(n, k)),
    "thm1.1-1": _Theorem("classicalA", (), lambda family, n, k, variant, step:
                         build_X_thm11(1, n, k)),
    "thm1.1-2": _Theorem("classicalBC", THM11_VARIANTS,
                         lambda family, n, k, variant, step:
                         build_X_thm11(2, n, k, variant)),
    "thm1.1-3": _Theorem("classicalD", (), lambda family, n, k, variant, step:
                         build_X_thm11(3, n, k)),
    "orbit-poly": _Theorem(None, (), lambda family, n, k, variant, step:
                           orbit_polynomial(family, n, k, step)),
}
THEOREM_SELECTORS = tuple(_THEOREMS)
VARIANTS = tuple(v for row in _THEOREMS.values() for v in row.variants)


@dataclass(frozen=True)
class CspInstance:
    family: str
    n: int
    k: int
    polynomial: IntLaurentPoly
    group_order: int = field(init=False)
    variant: str | None = None
    generator_step: int | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "group_order",
                           declared_group_order(self.family, self.n))
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
    counts = fixed_count_vector(instance.family, instance.n, instance.k,
                                instance.generator_step)
    checks = []
    for d in range(1, instance.group_order + 1):
        fixed = counts[gcd(d, len(counts) - 1)]
        ev = eval_at_unity_root(instance.polynomial, instance.group_order, d)
        passed = ev.is_integer and ev.value == fixed
        checks.append(CspCheck(d, fixed, ev, passed))
    return CspReport(instance, tuple(checks))


def theorem_rules(selector: str, variant: str | None = None,
                  generator_step: int | None = None,
                  family: str | None = None) -> tuple[str, str | None]:
    """Check a request against its `_THEOREMS` row, building nothing: a
    `variant` only where the row lists some (None is the first), a `family`
    where the row has none and nowhere else, and a `generator_step` that
    the family takes.  Returns the resolved (family, variant)."""
    if selector not in THEOREM_SELECTORS:
        raise ValueError("unknown selector %r (expected one of %s)"
                         % (selector, ", ".join(THEOREM_SELECTORS)))
    row = _THEOREMS[selector]
    if variant is not None and not row.variants:
        raise ValueError("variant applies to %s only" % ", ".join(
            s for s, r in _THEOREMS.items() if r.variants))
    if family is not None and row.family is not None:
        raise ValueError("family applies to %s only" % ", ".join(
            s for s, r in _THEOREMS.items() if r.family is None))
    family = row.family or family
    if family is None:
        raise ValueError("%s needs an explicit family" % selector)
    resolve_step(family, generator_step)
    if variant is None and row.variants:
        variant = row.variants[0]
    return family, variant


def theorem_instance(selector: str, n: int, k: int, variant: str | None = None,
                     generator_step: int | None = None,
                     family: str | None = None) -> CspInstance:
    """Build the verification instance for a named result."""
    family, variant = theorem_rules(selector, variant, generator_step, family)
    polynomial = _THEOREMS[selector].build(family, n, k, variant,
                                           generator_step)
    return CspInstance(family, n, k, polynomial, variant=variant,
                       generator_step=generator_step, label=selector)


def orbit_polynomial(family: str, n: int, k: int,
                     generator_step: int | None = None) -> IntLaurentPoly:
    """The tautological sieving polynomial: coefficient a_i counts the
    orbits whose stabilizer order divides i, with a_0 counting all
    orbits.  Orbit sizes are measured against the declared group order.

    The objects of orbit size exactly s are those fixed by generator^s
    less those of every smaller orbit size t dividing s."""
    order = declared_group_order(family, n)
    fixed = fixed_count_vector(family, n, k, generator_step)
    coeffs = [0] * order
    exact: dict[int, int] = {}  # orbit size -> objects of that orbit size
    for size in (s for s in range(1, len(fixed)) if (len(fixed) - 1) % s == 0):
        members = exact[size] = fixed[size] - sum(
            m for t, m in exact.items() if size % t == 0)
        if not members:
            continue
        if order % size:
            raise ArithmeticError("orbit size %d does not divide the group "
                                  "order %d" % (size, order))
        if members % size:
            raise ArithmeticError("%d objects of orbit size %d do not make "
                                  "whole orbits" % (members, size))
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
    check_size("C", n)  # the odd powers read family C's tables
    counts = fixed_count_vector("D", n, k, None)
    # odd powers compare with centrally symmetric objects of half the
    # edges, of which there are none at odd k
    half_counts = (0,) * (2 * n + 1) if k % 2 \
        else fixed_count_vector("C", n, k // 2, None)
    entries = []
    targets: dict[int, int] = {}  # fold target parameter -> its count
    for d in range(1, 2 * n + 1):
        if (2 * n) % d:
            continue
        fixed = counts[gcd(d, len(counts) - 1)]
        if d % 2 == 0:
            p = fold_target_param(n, d)
            scaled, rest = divmod(k * p, n)
            if not rest and p not in targets:
                targets[p] = len(enumerate_multidissections("D", p, scaled))
            expected = 0 if rest else targets[p]
            entries.append(FoldingEntry(d, "even", fixed, expected,
                                        fixed == expected, p,
                                        None if rest else scaled))
        else:
            expected = half_counts[gcd(d, len(half_counts) - 1)]
            entries.append(FoldingEntry(d, "odd", fixed, expected,
                                        fixed == expected))
    return FoldingReport(n, k, tuple(entries))


def homog_principal_root_check(n: int, k: int, d: int) -> bool:
    """Root-of-unity collapse of the principal h_k specialization: at a
    primitive d-th root (d | n) it equals the all-ones value of h_{k/d}
    in n/d variables when d | k, and vanishes otherwise."""
    n, d = _exact_int(n, "n"), _exact_int(d, "d")
    if d <= 0 or n % d:
        raise ValueError("d must divide n")
    left = eval_at_unity_root(homog_eval(k, principal_point(n)), n, n // d)
    if not left.is_integer:
        return False
    if k % d:
        return left.value == 0
    right = homog_eval(k // d, ones_point(n // d))
    return left.value == right.constant_value()
