"""Exact q-analog arithmetic.

Integer Laurent polynomials in q, Gaussian binomials, cyclotomic
polynomials, and exact evaluation at roots of unity.  All arithmetic is
integer arithmetic; no floating point enters any verification path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import gcd


class IntLaurentPoly:
    """Sparse Laurent polynomial in q with integer coefficients.

    Terms map exponents (possibly negative) to nonzero arbitrary-precision
    integers.  Instances are treated as immutable and are hashable, so equal
    polynomials always have identical term maps.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[int, int] | int = 0):
        """From an exponent -> coefficient map or a constant.  Exponents
        and coefficients must be ints; a float or a bool is a TypeError,
        never truncated or read as 0/1."""
        if not hasattr(terms, "items"):
            terms = {0: terms}
        clean = {}
        for e, c in terms.items():
            e = _exact_int(e, "exponent")
            c = _exact_int(c, "coefficient")
            if c:
                clean[e] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _make(cls, terms: dict[int, int]) -> "IntLaurentPoly":
        """Wrap a map of int exponents to nonzero int coefficients,
        unchecked; the arithmetic builds every result this way."""
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "IntLaurentPoly":
        return IntLaurentPoly({exponent: coeff})

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the exponent -> coefficient map (no zero coefficients)."""
        return dict(self._terms)

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return self._terms.get(0, 0)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return IntLaurentPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return IntLaurentPoly._make({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return IntLaurentPoly._make(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, s: int) -> "IntLaurentPoly":
        """Multiply by q**s."""
        s = _exact_int(s, "shift")
        return IntLaurentPoly._make({e + s: c for e, c in self._terms.items()})

    def subst_power(self, s: int) -> "IntLaurentPoly":
        """Substitute q -> q**s.  s = 0 collapses to the value at q = 1."""
        s = _exact_int(s, "substitution power")
        if s < 0:
            raise ValueError("substitution power must be nonnegative")
        return self._regroup(lambda e: e * s)

    def fold_exponents(self, m: int) -> "IntLaurentPoly":
        """Reduce exponents mod m, i.e. the residue mod q**m - 1."""
        m = _exact_int(m, "modulus")
        if m <= 0:
            raise ValueError("modulus must be positive")
        return self._regroup(lambda e: e % m)

    def _regroup(self, key) -> "IntLaurentPoly":
        """The terms summed under exponent key(e), zero sums dropped."""
        out: dict[int, int] = {}
        for e, c in self._terms.items():
            e = key(e)
            out[e] = out.get(e, 0) + c
        return IntLaurentPoly._make({e: c for e, c in out.items() if c})

    def evaluate(self, x):
        """Evaluate at a concrete number (int, Fraction or complex).

        Used by tests for cross-checks only; verification paths stay in
        exact integer arithmetic.
        """
        if isinstance(x, int) and self._terms and min(self._terms) < 0:
            x = Fraction(x)
        total = 0
        for e, c in self._terms.items():
            total += c * x ** e
        return total

    def to_json_dict(self) -> dict[str, str]:
        """Exponent -> coefficient map with decimal-string coefficients."""
        return {str(e): str(c) for e, c in sorted(self._terms.items())}

    @staticmethod
    def from_json_dict(data: dict[str, str]) -> "IntLaurentPoly":
        return IntLaurentPoly({int(e): int(c) for e, c in data.items()})

    def __repr__(self) -> str:
        return "IntLaurentPoly(%r)" % (dict(sorted(self._terms.items())),)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                term = str(abs(c))
            else:
                qpow = "q" if e == 1 else "q^%d" % e
                term = qpow if abs(c) == 1 else "%d*%s" % (abs(c), qpow)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


def _exact_int(x, what: str) -> int:
    """x as a plain int; a bool, a float or anything else is a TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("%s must be an int, got %r" % (what, x))
    return int(x)


def _coerce(value) -> IntLaurentPoly | None:
    """An operand as a polynomial: itself, or an int (not a bool) as a
    constant; None for anything else."""
    if isinstance(value, IntLaurentPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return IntLaurentPoly(value)
    return None


ZERO = IntLaurentPoly(0)
ONE = IntLaurentPoly(1)
Q = IntLaurentPoly({1: 1})


def q_int(m: int) -> IntLaurentPoly:
    """[m]_q = 1 + q + ... + q^(m-1); [0]_q = 0."""
    if _exact_int(m, "m") < 0:
        raise ValueError("q_int needs m >= 0")
    return IntLaurentPoly._make({i: 1 for i in range(m)})


def _factor_steps(p: IntLaurentPoly, ups, downs) -> IntLaurentPoly:
    """p times (1 - q^a), then divided by (1 - q^b), for the i-th a of
    `ups` and the i-th b of `downs` in turn (all positive; the shorter
    list runs out first).  Each step is one pass over a dense coefficient
    list; a division that leaves a remainder is an ArithmeticError, and a
    negative exponent in p a ValueError."""
    terms = p._terms
    if terms and min(terms) < 0:
        raise ValueError("factor steps need exponents >= 0")
    c = [0] * (max(terms, default=-1) + 1)
    for e, v in terms.items():
        c[e] = v
    for a, b in zip_longest(ups, downs):
        if a:
            pad = [0] * a
            c = [x - y for x, y in zip(c + pad, pad + c)]
        if b:
            # 1/(1 - q^b) as a power series is a running sum along each
            # residue class mod b; the quotient is exact when the top b
            # coefficients of that sum vanish
            for r in range(min(b, len(c))):
                c[r::b] = accumulate(c[r::b])
            if any(c[-b:]):
                raise ArithmeticError("non-exact division by 1 - q^%d" % b)
            del c[-b:]
    return IntLaurentPoly._make({e: v for e, v in enumerate(c) if v})


def q_binomial(m: int, r: int) -> IntLaurentPoly:
    """Gaussian binomial [m choose r]_q, one factor step per i < r:
    times (1 - q^(m-i)), divided by (1 - q^(i+1)), which leaves
    [m choose i+1]_q.  It runs over the smaller of r and m - r."""
    m, r = _exact_int(m, "m"), _exact_int(r, "r")
    if r < 0 or m < 0 or r > m:
        raise ValueError("q_binomial needs 0 <= r <= m")
    r = min(r, m - r)
    return _factor_steps(ONE, range(m, m - r, -1), range(1, r + 1))


@lru_cache(maxsize=64, typed=True)
def cyclotomic(m: int) -> IntLaurentPoly:
    """m-th cyclotomic polynomial, q^m - 1 divided by the cyclotomic
    polynomial of every proper divisor of m.  The last 64 results are
    kept; building one reads those of every divisor of m."""
    if m < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = {m: 1, 0: -1}
    for dd in range(1, m):
        if m % dd == 0:
            p, rem = _divmod_monic(p, cyclotomic(dd))
            if rem:
                raise ArithmeticError("non-exact division by cyclotomic(%d)" % dd)
    return IntLaurentPoly._make(p)


def _divmod_monic(terms: dict[int, int], modulus: IntLaurentPoly
                  ) -> tuple[dict[int, int], dict[int, int]]:
    """Quotient and remainder of a polynomial with exponents >= 0 by a
    monic one, walking the exponents of the dividend downward."""
    mterms = modulus._terms
    mdeg = max(mterms)
    if mterms[mdeg] != 1:
        raise ValueError("modulus must be monic")
    lower = [(e, mc) for e, mc in mterms.items() if e != mdeg]
    work = dict(terms)
    quot = {}
    for s in range(max(work, default=-1) - mdeg, -1, -1):
        c = work.pop(s + mdeg, 0)
        if not c:
            continue
        quot[s] = c
        for e, mc in lower:
            ne = s + e
            v = work.get(ne, 0) - c * mc
            if v:
                work[ne] = v
            elif ne in work:
                del work[ne]
    return quot, work


@dataclass(frozen=True)
class RootEvaluation:
    """Value of a polynomial at a root of unity.

    Either an exact integer (value set, residue None) or a non-rational
    algebraic number, recorded as the nonzero residue mod the cyclotomic
    polynomial of order `order`.
    """

    value: int | None
    residue: IntLaurentPoly | None = None
    order: int | None = None

    @property
    def is_integer(self) -> bool:
        return self.value is not None

    @staticmethod
    def integer(v: int) -> "RootEvaluation":
        return RootEvaluation(value=int(v))

    @staticmethod
    def nonrational(residue: IntLaurentPoly, order: int) -> "RootEvaluation":
        return RootEvaluation(value=None, residue=residue, order=order)

    def to_json_obj(self):
        if self.is_integer:
            return str(self.value)
        return {"order": self.order, "residue": self.residue.to_json_dict()}

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.value)
        return "nonrational(order=%d, residue=%s)" % (self.order, self.residue)


def eval_at_unity_root(p: IntLaurentPoly, m: int, d: int) -> RootEvaluation:
    """Evaluate p at zeta**d where zeta = exp(2*pi*i/m), exactly.

    Reduce d/m to lowest terms d'/m', substitute q -> q**d', and reduce
    modulo the m'-th cyclotomic polynomial.  A constant residue is an exact
    integer value; anything else is reported as non-rational.
    """
    m, d = _exact_int(m, "root order"), _exact_int(d, "power")
    if m < 1:
        raise ValueError("root order must be >= 1")
    g = gcd(m, d)
    m2 = m // g
    d2 = d // g
    # zeta^d is a primitive m2-th root of unity, so exponents only matter
    # mod m2, before and after q -> q^d2 (this also clears negative ones)
    folded = p.fold_exponents(m2).subst_power(d2 % m2).fold_exponents(m2)
    _, rem = _divmod_monic(folded._terms, cyclotomic(m2))
    residue = IntLaurentPoly._make(rem)
    if residue.is_constant():
        return RootEvaluation.integer(residue.constant_value())
    return RootEvaluation.nonrational(residue, m2)
