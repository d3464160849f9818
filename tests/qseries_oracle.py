"""Expand-and-divide reference versions of the q-side builders.

`sievelab.qseries` builds q-binomials by factor steps and divides only
by monic polynomials.  These are the long ways round, kept as oracles:
a general exact Laurent long division, q-factorials multiplied out, and
the q-binomial and cyclotomic polynomials built from them.
"""

from functools import lru_cache

from sievelab.qseries import ONE, ZERO, IntLaurentPoly, q_int


def exact_div(num: IntLaurentPoly, den: IntLaurentPoly) -> IntLaurentPoly:
    """Exact Laurent polynomial division; a nonzero remainder is an
    ArithmeticError."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return ZERO
    sv, ov = num.valuation(), den.valuation()
    work = {e - sv: c for e, c in num.terms.items()}
    dterms = {e - ov: c for e, c in den.terms.items()}
    ddeg = max(dterms)
    lead = dterms[ddeg]
    ndeg = max(work)
    if ndeg < ddeg:
        raise ArithmeticError("non-exact division: degree too small")
    quot = {}
    for e in range(ndeg - ddeg, -1, -1):
        c = work.get(e + ddeg, 0)
        if not c:
            continue
        qc, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact division: leading coefficient")
        quot[e] = qc
        for de, dc in dterms.items():
            ne = e + de
            v = work.get(ne, 0) - qc * dc
            if v:
                work[ne] = v
            else:
                work.pop(ne, None)
    if work:
        raise ArithmeticError("non-exact division: nonzero remainder")
    return IntLaurentPoly({e + sv - ov: c for e, c in quot.items()})


def q_factorial(m: int) -> IntLaurentPoly:
    """[m]!_q = [1]_q [2]_q ... [m]_q, multiplied out."""
    if m < 0:
        raise ValueError("q_factorial needs m >= 0")
    out = ONE
    for i in range(1, m + 1):
        out = out * q_int(i)
    return out


def q_binomial_expanded(m: int, r: int) -> IntLaurentPoly:
    """[m choose r]_q as [m]!_q / ([r]!_q [m-r]!_q)."""
    return exact_div(q_factorial(m), q_factorial(r) * q_factorial(m - r))


@lru_cache(maxsize=None)
def cyclotomic_divided(m: int) -> IntLaurentPoly:
    """q^m - 1 divided by the cyclotomic polynomial of every proper
    divisor of m."""
    p = IntLaurentPoly({m: 1, 0: -1})
    for d in range(1, m):
        if m % d == 0:
            p = exact_div(p, cyclotomic_divided(d))
    return p
