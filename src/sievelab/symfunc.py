"""Exact symmetric function evaluations and sieving polynomial builders.

Evaluation points are short lists of exact Laurent polynomials in q
(integers coerce), so every specialization here is exact integer
arithmetic.  Schur functions are restricted to two-row shapes and
evaluated by the Jacobi-Trudi determinant in the complete homogeneous
functions, s_(a,b) = h_a h_b - h_(a+1) h_(b-1).  The tests compare it
with a sum over semistandard tableaux.
"""

from __future__ import annotations

from typing import NamedTuple

from .qseries import IntLaurentPoly, ONE, ZERO, q_binomial, q_int


class TwoRowShape(NamedTuple):
    a: int
    b: int = 0


def _shape(shape) -> TwoRowShape:
    s = TwoRowShape(*shape) if not isinstance(shape, TwoRowShape) else shape
    if s.a < s.b or s.b < 0:
        raise ValueError("shape rows must satisfy a >= b >= 0")
    return s


def as_point(values) -> tuple[IntLaurentPoly, ...]:
    """Coerce a list of ints / Laurent polynomials into a SpecPoint."""
    out = []
    for v in values:
        out.append(v if isinstance(v, IntLaurentPoly) else IntLaurentPoly(v))
    return tuple(out)


def principal_point(n: int, step: int = 1) -> tuple[IntLaurentPoly, ...]:
    """The point (1, q^step, q^(2 step), ..., q^((n-1) step))."""
    return tuple(IntLaurentPoly.monomial(i * step) for i in range(n))


def ones_point(n: int) -> tuple[IntLaurentPoly, ...]:
    return as_point([1] * n)


def homog_eval(k: int, point) -> IntLaurentPoly:
    """Complete homogeneous symmetric function h_k at the point."""
    if k < 0:
        raise ValueError("homogeneous degree must be >= 0")
    xs = as_point(point)
    # DP over variables: h[i] accumulates multisets drawn from a prefix
    h = [ONE] + [ZERO] * k
    for x in xs:
        for i in range(1, k + 1):
            h[i] = h[i] + x * h[i - 1]
    return h[k]


def schur_eval(shape, point) -> IntLaurentPoly:
    """Two-row Schur function at the point, by the Jacobi-Trudi
    determinant h_a h_b - h_(a+1) h_(b-1), with h_(-1) = 0."""
    s = _shape(shape)
    xs = as_point(point)
    det = homog_eval(s.a, xs) * homog_eval(s.b, xs)
    if s.b >= 1:
        det = det - homog_eval(s.a + 1, xs) * homog_eval(s.b - 1, xs)
    return det


def build_X_typeA(n: int, k: int) -> IntLaurentPoly:
    """Sieving polynomial for k-edge multidissections of the n-gon under
    rotation: the rectangle Schur principal specialization shifted down
    by q^k.  The shift always lands in genuine polynomials."""
    if n < 3:
        raise ValueError("type A needs n >= 3")
    if k < 0:
        raise ValueError("edge count must be >= 0")
    p = schur_eval((k, k), principal_point(n)).shift(-k)
    if not p.is_zero() and p.valuation() < 0:
        raise ArithmeticError("specialization produced negative exponents")
    return p


def build_X_typeC(n: int, k: int) -> IntLaurentPoly:
    """Sieving polynomial for the centrally symmetric family: the square
    of h_k at (1, q, ..., q^(n-1))."""
    if n < 2:
        raise ValueError("type C needs n >= 2")
    if k < 0:
        raise ValueError("edge count must be >= 0")
    h = homog_eval(k, principal_point(n))
    return h * h


def build_X_typeD(n: int, k: int) -> IntLaurentPoly:
    """Sieving polynomial for the colored-diameter family:
    sum of schur((k-l, l)) at (1, q^2, ..., q^(2(n-1))) times
    h_(k-2l) at (1, q^n)."""
    if n < 1:
        raise ValueError("type D needs n >= 1")
    if k < 0:
        raise ValueError("edge count must be >= 0")
    even_point = principal_point(n, step=2)
    small_point = as_point([1, IntLaurentPoly.monomial(n)])
    total = ZERO
    for ell in range(k // 2 + 1):
        total = total + schur_eval((k - ell, ell), even_point) * \
            homog_eval(k - 2 * ell, small_point)
    return total


def _qbinom_or_zero(m: int, r: int) -> IntLaurentPoly:
    # zero extension used by the four-term classical formula
    if m < 0 or r < 0 or r > m:
        return ZERO
    return q_binomial(m, r)


def build_X_thm11(part: int, n: int, k: int, variant: str = "printed") -> IntLaurentPoly:
    """Classical single-use dissection sieving polynomials.

    part 1: plain polygon dissections, a q-Fuss-Catalan product whose
            division by [n+k] is exact.
    part 2: centrally symmetric dissections.  The printed binomial pair
            (n+k+1, n+1) fails its own cardinality check at small sizes,
            so a shifted variant (n+k-1, n-1) is provided; both are
            first-class and selected by `variant`.
    part 3: colored dissections, a four-term sum of q^2-binomials where
            out-of-range binomials vanish.
    """
    if variant not in ("printed", "shifted"):
        raise ValueError("variant must be 'printed' or 'shifted'")
    if k < 0:
        raise ValueError("edge count must be >= 0")
    if part == 1:
        if n < 3:
            raise ValueError("part 1 needs n >= 3")
        if k > n - 3:
            return ZERO
        num = q_binomial(n + k, k + 1) * q_binomial(n - 3, k)
        return num.exact_div(q_int(n + k))
    if part == 2:
        if n < 2:
            raise ValueError("part 2 needs n >= 2")
        if variant == "printed":
            p = _qbinom_or_zero(n + k + 1, k) * _qbinom_or_zero(n + 1, k)
        else:
            p = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 1, k)
        return p.subst_power(2)
    if part == 3:
        if n < 2:
            raise ValueError("part 3 needs n >= 2")
        qn = IntLaurentPoly.monomial(n)
        t1 = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 1, k)
        t2 = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 2, k - 1)
        t3 = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 2, k - 2)
        t4 = _qbinom_or_zero(n + k - 2, k) * _qbinom_or_zero(n - 2, k - 2)
        return (t1 + t3).subst_power(2) + ((t2 + t4).subst_power(2)) * qn
    raise ValueError("part must be 1, 2, or 3")
