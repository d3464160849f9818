"""Exact symmetric function evaluations and sieving polynomial builders.

Evaluation points are short lists of exact Laurent polynomials in q
(integers coerce), so every specialization here is exact integer
arithmetic.  Schur functions are restricted to two-row shapes and
evaluated by the Jacobi-Trudi determinant in the complete homogeneous
functions, s_(a,b) = h_a h_b - h_(a+1) h_(b-1).  The tests compare it
with a sum over semistandard tableaux.  Each family's character is one
function here; the sieving polynomials and the basis dimensions both
read it.
"""

from __future__ import annotations

from .polygons import check_size, edge_count
from .qseries import (
    IntLaurentPoly, ONE, ZERO, _exact_int, _factor_steps, q_binomial,
)


def as_point(values) -> tuple[IntLaurentPoly, ...]:
    """Coerce a list of ints / Laurent polynomials into a SpecPoint."""
    out = []
    for v in values:
        out.append(v if isinstance(v, IntLaurentPoly) else IntLaurentPoly(v))
    return tuple(out)


def principal_point(n: int, step: int = 1) -> tuple[IntLaurentPoly, ...]:
    """The point (1, q^step, q^(2 step), ..., q^((n-1) step))."""
    n, step = _exact_int(n, "n"), _exact_int(step, "step")
    return tuple(IntLaurentPoly.monomial(i * step) for i in range(n))


def ones_point(n: int) -> tuple[IntLaurentPoly, ...]:
    return as_point([1] * _exact_int(n, "n"))


def homog_eval(k: int, point) -> IntLaurentPoly:
    """Complete homogeneous symmetric function h_k at the point."""
    if _exact_int(k, "homogeneous degree") < 0:
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
    a, b = (_exact_int(part, "shape row") for part in shape)
    if a < b or b < 0:
        raise ValueError("shape rows must satisfy a >= b >= 0")
    xs = as_point(point)
    det = homog_eval(a, xs) * homog_eval(b, xs)
    if b >= 1:
        det = det - homog_eval(a + 1, xs) * homog_eval(b - 1, xs)
    return det


# Each family's character: the weight sum of the span of its degree-k
# cluster monomials.  At a principal point it is the family's sieving
# polynomial (up to a shift), and at all-ones its basis dimension.


def character_A(k: int, y) -> IntLaurentPoly:
    """Family A's character, the rectangle Schur function s_(k,k)(y)."""
    edge_count(k)
    return schur_eval((k, k), y)


def character_C(k: int, y, z) -> IntLaurentPoly:
    """Family C's character, the product h_k(y) h_k(z)."""
    edge_count(k)
    return homog_eval(k, y) * homog_eval(k, z)


def character_D(k: int, y, z) -> IntLaurentPoly:
    """Family D's character, the sum over 0 <= l <= k/2 of
    s_(k-l,l)(y) h_(k-2l)(z)."""
    edge_count(k)
    ys, zs = as_point(y), as_point(z)
    total = ZERO
    for ell in range(k // 2 + 1):
        total = total + schur_eval((k - ell, ell), ys) * \
            homog_eval(k - 2 * ell, zs)
    return total


def build_X_typeA(n: int, k: int) -> IntLaurentPoly:
    """Sieving polynomial for k-edge multidissections of the n-gon under
    rotation: `character_A` at (1, q, ..., q^(n-1)) shifted down by q^k.
    The shift always lands in genuine polynomials."""
    check_size("A", n)
    p = character_A(k, principal_point(n)).shift(-k)
    if not p.is_zero() and p.valuation() < 0:
        raise ArithmeticError("specialization produced negative exponents")
    return p


def build_X_typeC(n: int, k: int) -> IntLaurentPoly:
    """Sieving polynomial for the centrally symmetric family:
    `character_C` with both points (1, q, ..., q^(n-1))."""
    check_size("C", n)
    point = principal_point(n)
    return character_C(k, point, point)


def build_X_typeD(n: int, k: int) -> IntLaurentPoly:
    """Sieving polynomial for the colored-diameter family: `character_D`
    at y = (1, q^2, ..., q^(2(n-1))) and z = (1, q^n)."""
    check_size("D", n)
    return character_D(k, principal_point(n, step=2),
                       (ONE, IntLaurentPoly.monomial(n)))


def _qbinom_or_zero(m: int, r: int) -> IntLaurentPoly:
    # zero extension used by the four-term classical formula
    if m < 0 or r < 0 or r > m:
        return ZERO
    return q_binomial(m, r)


THM11_VARIANTS = ("printed", "shifted")  # part 2's pairs, the default first


def build_X_thm11(part: int, n: int, k: int,
                  variant: str = THM11_VARIANTS[0]) -> IntLaurentPoly:
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
    if variant not in THM11_VARIANTS:
        raise ValueError("variant must be 'printed' or 'shifted'")
    edge_count(k)
    part = _exact_int(part, "part")
    if part not in (1, 2, 3):
        raise ValueError("part must be 1, 2, or 3")
    n = check_size(("classicalA", "classicalBC", "classicalD")[part - 1], n)
    if part == 1:
        if k > n - 3:
            return ZERO
        num = q_binomial(n + k, k + 1) * q_binomial(n - 3, k)
        return _factor_steps(num, (1,), (n + k,))
    if part == 2:
        if variant == "printed":
            p = _qbinom_or_zero(n + k + 1, k) * _qbinom_or_zero(n + 1, k)
        else:
            p = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 1, k)
        return p.subst_power(2)
    qn = IntLaurentPoly.monomial(n)
    t1 = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 1, k)
    t2 = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 2, k - 1)
    t3 = _qbinom_or_zero(n + k - 1, k) * _qbinom_or_zero(n - 2, k - 2)
    t4 = _qbinom_or_zero(n + k - 2, k) * _qbinom_or_zero(n - 2, k - 2)
    return (t1 + t3).subst_power(2) + ((t2 + t4).subst_power(2)) * qn
