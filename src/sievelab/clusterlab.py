"""Exact symbolic algebra over Gaussian rationals.

The ambient ring is C[x_{r,c}] for an N x 2 matrix of variables, with
N = n for families A and C and N = n + 2 for family D (the last two rows
play the role of the two colors).  Cluster-style monomials attached to
multidissections live here, together with rank computations, principal
ideal membership, rotation substitutions, and the character checks that
back the basis theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable

from .actions import resolve_step, rotate_multidissection
from .polygons import (
    DIAMETER, EDGE, INTEGRATED, SEGREGATED, SOLID,
    Multidissection, check_size, edge_count, edge_table, family_rules,
    enumerate_multidissections, iter_weighted_assignments,
    weighted_assignment_sum,
)
from .qseries import IntLaurentPoly, ZERO as Q_ZERO, _exact_int, _power
from .symfunc import (
    as_point, character_A, character_C, character_D, ones_point,
)


def _exact(x):
    """x as an exact rational: a plain int when integral, else a Fraction.
    Anything but an int or a Fraction, a float or a bool included, is a
    TypeError rather than a silently rounded value."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError("expected an int or a Fraction, got %r" % (x,))
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussRat:
    """Gaussian rational a + b*i.  Each part is exact: a plain int when
    it is integral, a Fraction otherwise, so that Gaussian-integer
    arithmetic never builds a Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _exact(re))
        object.__setattr__(self, "im", _exact(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def _coerce(v):
        if isinstance(v, GaussRat):
            return v
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return GaussRat(v)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # Fraction first: int / int would give a float
        return GaussRat(Fraction(self.re * o.re + self.im * o.im) / norm,
                        Fraction(self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other):
        return GaussRat(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes as that
        return hash((self.re, self.im) if self.im else self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%s*i" % self.im
        return "(%s%s%s*i)" % (self.re, "+" if self.im > 0 else "-", abs(self.im))


GR_ZERO = GaussRat()
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)
GR_HALF = GaussRat(Fraction(1, 2))
# 1/(2i) = -i/2
GR_INV_2I = GaussRat(0, Fraction(-1, 2))


def var_index(row: int, col: int, nrows: int) -> int:
    row, col, nrows = (_exact_int(row, "row"), _exact_int(col, "column"),
                       _exact_int(nrows, "row count"))
    if not (1 <= row <= nrows and col in (1, 2)):
        raise ValueError("variable x_{%d,%d} outside the %d x 2 matrix"
                         % (row, col, nrows))
    return 2 * (row - 1) + (col - 1)


# Packed monomials.  Each exponent is one byte of an int, variable 0 in
# the most significant byte, so the int order of packed monomials is the
# order of their exponent tuples, and multiplying monomials is adding
# their ints.  An exponent stays at or below _MAX_EXP, clear of its
# byte's top bit: two valid fields then add without carrying into the
# next field, and a set top bit shows an overflow.
_MAX_EXP = 127


def _check_fields(monos, width: int):
    """Raise ArithmeticError when a packed monomial, made by adding valid
    ones, has an exponent above _MAX_EXP: the top bit of some field is set."""
    if reduce(or_, monos, 0) & int.from_bytes(b"\x80" * width, "big"):
        raise ArithmeticError("an exponent exceeds %d, the largest a packed "
                              "monomial holds" % _MAX_EXP)


def _pack(mono, width: int) -> int:
    """The packed form of an exponent tuple."""
    if len(mono) != width:
        raise ValueError("monomial width %d does not match %d rows"
                         % (len(mono), width // 2))
    for e in mono:
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponents must be non-negative integers, got %r"
                             % (tuple(mono),))
        if e > _MAX_EXP:
            raise ArithmeticError("exponent %d exceeds %d, the largest a "
                                  "packed monomial holds" % (e, _MAX_EXP))
    return int.from_bytes(bytes(mono), "big")


def _unpack(m: int, width: int) -> tuple:
    return tuple(m.to_bytes(width, "big"))


def _unit(nrows: int, row: int, col: int) -> int:
    """The packed monomial x_{row,col}."""
    return 1 << 8 * (2 * nrows - 1 - var_index(row, col, nrows))


def _pair(c) -> tuple:
    """A scalar as an exact (re, im) pair."""
    if isinstance(c, GaussRat):
        return c.re, c.im
    return _exact(c), 0


def _merge(terms: dict, items) -> dict:
    """Add each (packed monomial, pair) of `items` into `terms`, dropping
    a monomial whose sum is zero; returns `terms`."""
    for m, pair in items:
        old = terms.get(m)
        if old is None:
            terms[m] = pair
            continue
        re, im = old[0] + pair[0], old[1] + pair[1]
        if re or im:
            terms[m] = (re, im)
        else:
            del terms[m]
    return terms


class XPoly:
    """Sparse polynomial over the Gaussian rationals in the variables of
    an nrows x 2 matrix.

    A monomial is stored packed into one int and a coefficient as an
    exact (re, im) pair, so arithmetic builds no per-term objects.  The
    public methods take and return dense exponent tuples of length
    2*nrows, ordered (row 1 col 1, row 1 col 2, ...), and GaussRat
    coefficients.  An exponent above 127 raises ArithmeticError."""

    __slots__ = ("nrows", "_terms")

    def __init__(self, nrows: int, terms=None):
        self.nrows = nrows
        clean: dict[int, tuple] = {}
        width = 2 * nrows
        for mono, c in (terms or {}).items():
            coeff = c if isinstance(c, GaussRat) else GaussRat(c)
            key = _pack(mono, width)
            if coeff:
                clean[key] = (coeff.re, coeff.im)
        self._terms = clean

    @classmethod
    def _make(cls, nrows: int, terms: dict) -> "XPoly":
        """Wrap packed terms with nonzero pairs, unchecked."""
        res = cls.__new__(cls)
        res.nrows = nrows
        res._terms = terms
        return res

    @classmethod
    def zero(cls, nrows: int) -> "XPoly":
        return cls._make(nrows, {})

    @classmethod
    def const(cls, nrows: int, c) -> "XPoly":
        re, im = _pair(c)
        return cls._make(nrows, {0: (re, im)} if re or im else {})

    @classmethod
    def variable(cls, nrows: int, row: int, col: int) -> "XPoly":
        return cls._make(nrows, {_unit(nrows, row, col): (1, 0)})

    @property
    def terms(self) -> dict:
        width = 2 * self.nrows
        return {_unpack(m, width): GaussRat(re, im)
                for m, (re, im) in self._terms.items()}

    def coefficient(self, mono: tuple) -> GaussRat:
        try:
            key = _pack(mono, 2 * self.nrows)
        except ArithmeticError:  # no stored monomial is that large
            return GR_ZERO
        pair = self._terms.get(key)
        return GR_ZERO if pair is None else GaussRat(*pair)

    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> list[tuple]:
        width = 2 * self.nrows
        return [_unpack(m, width) for m in sorted(self._terms)]

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        width = 2 * self.nrows
        return max(sum(m.to_bytes(width, "big")) for m in self._terms)

    def _check_ring(self, other: "XPoly"):
        if self.nrows != other.nrows:
            raise ValueError("mixed ambient rings (%d vs %d rows)"
                             % (self.nrows, other.nrows))

    def __add__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        self._check_ring(other)
        return XPoly._make(self.nrows,
                           _merge(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return XPoly._make(self.nrows, {m: (-re, -im) for m, (re, im)
                                        in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "XPoly":
        c, d = _pair(c)
        if not (c or d):
            return XPoly.zero(self.nrows)
        items = self._terms.items()
        # a real or an imaginary scalar skips the products with zero
        if not d:
            terms = {m: (a and a * c, b and b * c) for m, (a, b) in items}
        elif not c:
            terms = {m: (b and -b * d, a and a * d) for m, (a, b) in items}
        else:
            terms = {m: (a * c - b * d, a * d + b * c) for m, (a, b) in items}
        return XPoly._make(self.nrows, terms)

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            if isinstance(other, (int, Fraction, GaussRat)):
                return self.scale(other)
            return NotImplemented
        self._check_ring(other)
        acc: dict[int, tuple] = {}
        get = acc.get
        right = [(m2, c, d) for m2, (c, d) in other._terms.items()]
        for m1, (a, b) in self._terms.items():
            for m2, c, d in right:
                m = m1 + m2
                old = get(m)
                if old is None:
                    acc[m] = (a * c - b * d, a * d + b * c)
                else:
                    acc[m] = (old[0] + a * c - b * d, old[1] + a * d + b * c)
        _check_fields(acc, 2 * self.nrows)
        return XPoly._make(self.nrows, {m: v for m, v in acc.items()
                                        if v[0] or v[1]})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, XPoly.const(self.nrows, 1),
                      "negative power of a polynomial")

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.nrows == other.nrows and self._terms == other._terms

    def __hash__(self):
        return hash((self.nrows, frozenset(self._terms.items())))

    def eval_at(self, values: Iterable) -> GaussRat:
        vals = [v if isinstance(v, GaussRat) else GaussRat(v) for v in values]
        if len(vals) != 2 * self.nrows:
            raise ValueError("expected %d values" % (2 * self.nrows))
        total = GR_ZERO
        for m, c in self.terms.items():
            term = c
            for v, e in zip(vals, m):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        terms = self.terms
        for m in self.monomials():
            vars_ = "*".join(
                "x%d%d" % (i // 2 + 1, i % 2 + 1) + ("^%d" % e if e > 1 else "")
                for i, e in enumerate(m) if e)
            bits.append("%r%s" % (terms[m], "*" + vars_ if vars_ else ""))
        return " + ".join(bits)


def minor(i: int, j: int, nrows: int) -> XPoly:
    """The 2x2 minor on rows i < j: x_{i1} x_{j2} - x_{i2} x_{j1}."""
    i, j, nrows = (_exact_int(i, "row"), _exact_int(j, "row"),
                   _exact_int(nrows, "row count"))
    if not 1 <= i < j <= nrows:
        raise ValueError("minor needs 1 <= i < j <= %d, got (%d, %d)"
                         % (nrows, i, j))
    return _quadratic(nrows, ((i, 1, j, 2, 1), (i, 2, j, 1, -1)))


def _quadratic(nrows: int, terms) -> XPoly:
    """The sum of c * x_{r1,c1} x_{r2,c2} over (r1, c1, r2, c2, c) in terms,
    whose monomials are distinct."""
    return XPoly._make(nrows, {
        _unit(nrows, r1, c1) + _unit(nrows, r2, c2): (c, 0)
        for r1, c1, r2, c2, c in terms})


@lru_cache(maxsize=256, typed=True)
def _factor_power(family: str, n: int, idx: int, m: int) -> XPoly:
    """The m-th power of the factor of edge `idx` of the family's table: a
    minor in type A; in type C, x_{a1} x_{a2} for a diameter and
    x_{a1} x_{b2} +- x_{a2} x_{b1} for a chord pair, without its scalar;
    in type D, the (n+2)-row factor."""
    table = edge_table(family, n)
    e, shape = table.edges[idx], table.shapes[idx]
    type_c = family_rules(family).base == "C"
    if shape == EDGE:
        factor = minor(e.i, e.j, n)
    elif type_c and shape == DIAMETER:
        factor = _quadratic(n, ((e.a, 1, e.a, 2, 1),))
    elif type_c:
        sign = 1 if shape == INTEGRATED else -1
        factor = _quadratic(n, ((e.a, 1, e.b, 2, 1), (e.a, 2, e.b, 1, sign)))
    elif shape == DIAMETER:
        factor = minor(e.a, n + 1 if e.color == SOLID else n + 2, n + 2)
    else:
        cross = minor(e.a, n + 1, n + 2) * minor(e.b, n + 2, n + 2)
        inner = minor(e.a, e.b, n + 2)
        factor = cross + inner if shape == SEGREGATED else cross - inner
    return factor ** m


def _product(family: str, n: int, items: tuple) -> XPoly:
    """The product of the factor powers over nonempty (edge index,
    multiplicity) pairs: the product over all but the last pair, from
    `_prefix_product`, times the last one."""
    power = _factor_power(family, n, *items[-1])
    if len(items) == 1:
        return power
    return _prefix_product(family, n, items[:-1]) * power


# Objects in enumeration order share their prefixes, so a prefix's product
# is built once from its own prefix and kept while the search is below it.
_prefix_product = lru_cache(maxsize=64, typed=True)(_product)


def _monomial_product(f: Multidissection, nrows: int) -> XPoly:
    items = f.index_items()
    return _product(f.family, f.n, items) if items else XPoly.const(nrows, 1)


def z_A(f: Multidissection) -> XPoly:
    """Product of minors, one per edge with multiplicity."""
    if family_rules(f.family).base != "A":
        raise ValueError("expected a type A multidissection")
    return _monomial_product(f, f.n)


def z_C(f: Multidissection) -> XPoly:
    """Product of the edge factors: a diameter's is x_{a1} x_{a2}, a
    chord pair's is (x_{a1} x_{b2} +- x_{a2} x_{b1}) times 1/2 for an
    integrated pair and 1/(2i) for a segregated one.  The scalars are
    multiplied in once, after the integer product, as
    (-i)^(segregated pairs) / 2^(chord pairs)."""
    if family_rules(f.family).base != "C":
        raise ValueError("expected a type C multidissection")
    shapes = edge_table(f.family, f.n).shapes
    pairs = sum(m for i, m in f.index_items() if shapes[i] != DIAMETER)
    segregated = sum(m for i, m in f.index_items() if shapes[i] == SEGREGATED)
    re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[segregated % 4]
    return _monomial_product(f, f.n).scale(
        GaussRat(Fraction(re, 1 << pairs), Fraction(im, 1 << pairs)))


def z_D(f: Multidissection) -> XPoly:
    """Representative in the (n+2)-row ring of the class modulo the
    principal ideal generated by the last minor."""
    if family_rules(f.family).base != "D":
        raise ValueError("expected a type D multidissection")
    return _monomial_product(f, f.n + 2)


# ---------------------------------------------------------------------------
# Principal ideal membership and exact rank
# ---------------------------------------------------------------------------


def j_generator(n: int) -> XPoly:
    n = _exact_int(n, "n")
    return minor(n + 1, n + 2, n + 2)


def j_reduce(p: XPoly, n: int) -> XPoly:
    """Remainder of p under rewriting by the last minor, eliminating the
    monomial x_{n+1,1} x_{n+2,2}.  A single generator is a Groebner basis
    of its principal ideal, so the remainder vanishes exactly on ideal
    members.  A monomial holding the leading product t times is rewritten
    t times in one step: x_{n+1,1}^t x_{n+2,2}^t becomes
    x_{n+1,2}^t x_{n+2,1}^t, with the same coefficient."""
    N = _exact_int(n, "n") + 2
    if p.nrows != N:
        raise ValueError("expected the %d-row ambient ring" % N)
    lead_a, lead_b = _unit(N, n + 1, 1), _unit(N, n + 2, 2)
    shift_a, shift_b = lead_a.bit_length() - 1, lead_b.bit_length() - 1
    step = _unit(N, n + 1, 2) + _unit(N, n + 2, 1) - lead_a - lead_b
    terms = _merge({}, ((m + step * min((m >> shift_a) & 0xFF,
                                        (m >> shift_b) & 0xFF), pair)
                        for m, pair in p._terms.items()))
    _check_fields(terms, 2 * N)
    return XPoly._make(N, terms)


def j_member(p: XPoly, n: int) -> bool:
    """Exact divisibility by the last minor."""
    return j_reduce(p, n).is_zero()


# The rank certificate works in Z/p for this prime p = 2^30 - 35, below
# 2^30 so that residues stay single-digit Python ints.  As p = 1 (mod 4),
# -1 has the square root _SQRT_M1 mod p, and sending i to it is a ring
# map onto Z/p from the Gaussian rationals whose denominators p does not
# divide.
_PRIME = 1073741789
_SQRT_M1 = 140687844


def _mod_p(x) -> int | None:
    """An exact rational part reduced mod _PRIME; None when the prime
    divides its denominator."""
    if type(x) is int:
        return x
    if x.denominator % _PRIME == 0:
        return None
    return x.numerator * pow(x.denominator, -1, _PRIME)


def _rank_mod_p(polys: tuple) -> int | None:
    """Rank of the coefficient matrix mapped to Z/p, by elimination on
    plain-int dict rows keyed by packed monomial, pivoting on the least
    one; None when a coefficient has no image.  Equal to len(polys) only
    if some maximal minor is nonzero mod p, hence nonzero over Q(i)."""
    p, s = _PRIME, _SQRT_M1
    pivots: dict[int, dict] = {}
    for poly in polys:
        row = {}
        for m, (re, im) in poly._terms.items():
            if type(re) is not int or type(im) is not int:
                re, im = _mod_p(re), _mod_p(im)
                if re is None or im is None:
                    return None
            v = (re + s * im) % p
            if v:
                row[m] = v
        while row:
            # the least packed int is the least monomial
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[lead]
            for k, v in pivot.items():
                w = row.get(k)
                if w is None:
                    # nonzero: p is prime and f, v are nonzero mod p
                    row[k] = -f * v % p
                    continue
                w = (w - f * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]
    return len(pivots)


@lru_cache(maxsize=1, typed=True)
def _eliminate(polys: tuple) -> tuple[int, tuple | None]:
    """Exact rank over Q(i) and the first vanishing linear combination
    found, as sorted (index, coefficient) pairs, or None.  Rows are keyed
    by packed monomial, as in _rank_mod_p, and each reduced row pivots on
    its least one.  The last result is kept, so rank() and
    dependency_witness() on the same list eliminate once."""
    pivots: dict[int, tuple[dict, dict | None]] = {}
    witness = None
    for idx, poly in enumerate(polys):
        row = {m: GaussRat(*c) for m, c in poly._terms.items()}
        # combinations are tracked only until the first witness is found
        comb = {idx: GR_ONE} if witness is None else None
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = GR_ONE / row[lead]
                pivots[lead] = ({k: v * inv for k, v in row.items()},
                                None if comb is None
                                else {i: c * inv for i, c in comb.items()})
                break
            pivot, pivot_comb = pivots[lead]
            f = row[lead]
            for k, v in pivot.items():
                acc = row.get(k, GR_ZERO) - f * v
                if acc:
                    row[k] = acc
                else:
                    del row[k]
            if comb is not None:
                for i, c in pivot_comb.items():
                    acc = comb.get(i, GR_ZERO) - f * c
                    if acc:
                        comb[i] = acc
                    else:
                        comb.pop(i, None)
        if not row and comb is not None:
            witness = tuple(sorted(comb.items()))
    return len(pivots), witness


def _rank_and_witness(polys: Iterable[XPoly]) -> tuple[int, tuple | None]:
    """The mod-p certificate first; the exact elimination only when it
    falls short of the row count or cannot map a coefficient."""
    polys = tuple(polys)
    if len({p.nrows for p in polys}) > 1:
        raise ValueError("rank of polynomials from mixed ambient rings")
    if _rank_mod_p(polys) == len(polys):
        return len(polys), None
    return _eliminate(polys)


def rank(polys: Iterable[XPoly]) -> int:
    """Rank of the span over Q(i): full rank mod p certifies itself,
    anything else is decided by the exact elimination."""
    return _rank_and_witness(polys)[0]


def dependency_witness(polys: list[XPoly]) -> list[tuple[int, GaussRat]] | None:
    """First vanishing linear combination found during elimination, as
    (index, coefficient) pairs, or None if the list is independent."""
    witness = _rank_and_witness(polys)[1]
    return None if witness is None else list(witness)


# ---------------------------------------------------------------------------
# Rotation substitutions and equivariance
# ---------------------------------------------------------------------------


class VarSubstitution:
    """A signed permutation of the variables of the ambient ring: variable
    i goes to c_i times variable target[i].

    apply() moves each exponent to its target's field and multiplies in
    the scalars; a permutation of the fields maps distinct monomials to
    distinct monomials and keeps every exponent, so nothing merges or
    overflows."""

    __slots__ = ("nrows", "_source", "_scalars")

    def __init__(self, nrows: int, target, scalars=()):
        """target[i] is the index of variable i's image, and scalars lists
        (i, (re, im)) for every c_i other than 1."""
        width = 2 * nrows
        if sorted(target) != list(range(width)):
            raise ValueError("need a permutation of the %d variables" % width)
        source = [0] * width
        for i, j in enumerate(target):
            source[j] = i
        self.nrows = nrows
        self._source = tuple(source)
        self._scalars = tuple(scalars)

    def apply(self, p: XPoly) -> XPoly:
        if p.nrows != self.nrows:
            raise ValueError("substitution ring mismatch")
        width = 2 * self.nrows
        source, scalars = self._source, self._scalars
        terms = {}
        for m, (re, im) in p._terms.items():
            exps = m.to_bytes(width, "big")
            for i, (c, d) in scalars:
                for _ in range(exps[i]):
                    re, im = re * c - im * d, re * d + im * c
            terms[int.from_bytes(bytes(map(exps.__getitem__, source)),
                                 "big")] = (re, im)
        return XPoly._make(self.nrows, terms)

    def apply_times(self, p: XPoly, t: int) -> XPoly:
        out = p
        for _ in range(t):
            out = self.apply(out)
        return out


# The scalars row n picks up on its two columns as it wraps to row 1.
_WRAP_SCALARS = {"A": ((-1, 0), (-1, 0)), "C": ((0, -1), (0, 1)),
                 "D": ((1, 0), (1, 0))}


@lru_cache(maxsize=1, typed=True)
def rotation_substitution(family: str, n: int) -> VarSubstitution:
    """The substitution realizing one rotation step on cluster monomials.

    Rows 1..n-1 move down one row and row n wraps to row 1, its columns
    scaled by -1 and -1 in family A, by -i and +i in family C and by
    nothing in family D; family D also swaps its two color rows n+1 and
    n+2.  The last result is kept, keyed by type too, so an equivariance
    sweep builds it once and a float n is rejected after an int one.
    """
    n, base = _exact_int(n, "n"), family_rules(family).base
    rows = list(range(2, n + 1)) + [1]  # the image of each row, in order
    if base == "D":
        rows += [n + 2, n + 1]
    target = [2 * (row - 1) + col for row in rows for col in (0, 1)]
    scalars = [(2 * (n - 1) + col, pair)
               for col, pair in enumerate(_WRAP_SCALARS[base]) if pair != (1, 0)]
    return VarSubstitution(len(rows), target, scalars)


def cluster_monomial(family: str, f: Multidissection) -> XPoly:
    """The cluster monomial of f, which must be of `family`."""
    base = family_rules(family).base
    if f.family != family:
        raise ValueError("expected a family %s multidissection" % family)
    return z_A(f) if base == "A" else z_C(f) if base == "C" else z_D(f)


def equivariance_discrepancy(family: str, n: int, f: Multidissection) -> XPoly:
    """substitution(z(f)) - z(rotate(f)); zero for exact equivariance.
    The substitution is one vertex step, so it is applied once per vertex
    step of the family's generator (twice for classicalBC)."""
    sub = rotation_substitution(family, n)
    return sub.apply_times(cluster_monomial(family, f),
                           resolve_step(family, None)) - \
        cluster_monomial(family, rotate_multidissection(f))


@dataclass(frozen=True)
class EquivarianceReport:
    family: str
    n: int
    k: int
    mode: str
    total: int
    failures: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "k": self.k,
                "mode": self.mode, "total": self.total,
                "failures": [f.to_json_dict() for f in self.failures],
                "pass": self.passed}


def verify_equivariance(family: str, n: int, k: int) -> EquivarianceReport:
    """Exact equivariance for families A and C; equivariance modulo the
    principal ideal for family D."""
    mode = "mod_J" if family_rules(family).base == "D" else "exact"
    failures = []
    mds = enumerate_multidissections(family, n, k)
    for f in mds:
        diff = equivariance_discrepancy(family, n, f)
        ok = j_member(diff, n) if mode == "mod_J" else diff.is_zero()
        if not ok:
            failures.append(f)
    return EquivarianceReport(family, n, k, mode, len(mds), tuple(failures),
                              not failures)


# ---------------------------------------------------------------------------
# Basis checks and the type D conjecture audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisReport:
    family: str
    n: int
    k: int
    count: int
    rank: int
    expected_dim: int
    passed: bool
    witness: tuple | None = None

    def to_json_dict(self) -> dict:
        out = {"family": self.family, "n": self.n, "k": self.k,
               "count": self.count, "rank": self.rank,
               "expected_dim": self.expected_dim, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = [[i, repr(c)] for i, c in self.witness]
        return out


def _audit_rank(polys: list) -> tuple[int, tuple | None]:
    """`rank` of an audit's list, and its `dependency_witness` only when
    the rank falls short of the list."""
    r = rank(polys)
    return r, tuple(dependency_witness(polys)) if r < len(polys) else None


def _basis_report(family: str, n: int, k: int, dimension) -> BasisReport:
    """The basis audit of (family, n, k) against `dimension(ones_point(n))`,
    taken after the listing has checked n and k."""
    mds = enumerate_multidissections(family, n, k)
    expected = dimension(ones_point(n))
    polys = [cluster_monomial(family, f) for f in mds]
    r, witness = _audit_rank(polys)
    passed = len(polys) == r == expected
    return BasisReport(family, n, k, len(polys), r, expected, passed, witness)


def check_basis_A(n: int, k: int) -> BasisReport:
    """Monomials of k-edge multidissections against the rectangle Schur
    dimension."""
    return _basis_report(
        "A", n, k, lambda ones: character_A(k, ones).constant_value())


def check_basis_C(n: int, k: int) -> BasisReport:
    """Monomials of the centrally symmetric family against the square of
    the one-row dimension."""
    return _basis_report(
        "C", n, k, lambda ones: character_C(k, ones, ones).constant_value())


def lemma_basis_multidissections(n: int, k: int) -> tuple:
    """A-multidissections of the (n+2)-gon avoiding the edge (n+1, n+2)
    whose endpoint count inside 1..n, with multiplicity, is exactly k."""
    n, k = check_size("D", n), edge_count(k)
    table = edge_table("A", n + 2)
    return tuple(Multidissection._from_items("A", n + 2, items)
                 for items in iter_weighted_assignments(
                     _d_degrees(n), k, table.crosses))


def _d_degrees(n: int) -> list[int]:
    """The d-degree of every edge of the (n+2)-gon, in table order: its
    number of endpoints in 1..n."""
    return [(e.i <= n) + (e.j <= n) for e in edge_table("A", n + 2).edges]


def expected_dim_D(n: int, k: int) -> int:
    """Graded dimension: `character_D` at all-ones."""
    check_size("D", n)
    return character_D(k, ones_point(n), ones_point(2)).constant_value()


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    k: int
    count: int
    rank: int
    expected_dim: int
    lemma_count: int
    independent_mod_J: bool
    spans: bool
    passed: bool
    note: str
    witness: tuple | None = None

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "k": self.k, "count": self.count,
               "rank": self.rank, "expected_dim": self.expected_dim,
               "lemma_count": self.lemma_count,
               "independent_mod_J": self.independent_mod_J,
               "spans": self.spans, "pass": self.passed, "note": self.note}
        if self.witness is not None:
            out["witness"] = [[i, repr(c)] for i, c in self.witness]
        return out


def check_conjecture_D(n: int, k: int) -> ConjectureReport:
    """Audit the colored-monomial basis claim at one (n, k).

    Independence is tested modulo the principal ideal by adjoining an
    explicit spanning set of the ideal's matching graded piece; spanning
    is tested by dimension count against the proven reference basis.  A
    pass is evidence at this (n, k) only, never a proof.
    """
    if _exact_int(n, "n") < 2:
        raise ValueError("the audit needs n >= 2")
    mds = enumerate_multidissections("D", n, k)
    basis_d = [z_D(f) for f in mds]
    max_deg = max(p.total_degree() for p in basis_d)
    top = j_generator(n)
    basis_j = []
    lemma_basis = lemma_basis_multidissections(n, k)
    for g in lemma_basis:
        base = z_A(g)
        total_mult = sum(m for _, m in g.items())
        j = 1
        while 2 * (total_mult + j) <= max_deg:
            basis_j.append(base * top ** j)
            j += 1
    lemma_count = len(lemma_basis)
    expected = expected_dim_D(n, k)
    combined = basis_j + basis_d
    combined_rank, witness = _audit_rank(combined)
    independent = combined_rank == len(combined)
    spans = len(basis_d) == lemma_count == expected
    passed = independent and spans
    note = ("evidence for n=%d, k=%d only; a pass here is not a proof"
            % (n, k))
    return ConjectureReport(n, k, len(basis_d), combined_rank, expected,
                            lemma_count, independent, spans, passed, note,
                            witness)


# ---------------------------------------------------------------------------
# Weight-sum character checks
# ---------------------------------------------------------------------------


def _chord_sum(point, weights, k: int) -> IntLaurentPoly:
    """The sum over the multidissections of the len(point)-gon with
    weighted edge count k, by per-edge `weights`, of the products of
    (p_i p_j)^m over their edges (i, j) with multiplicity m, taken by
    `weighted_assignment_sum` without listing the objects."""
    table = edge_table("A", len(point))
    values = [point[e.i - 1] * point[e.j - 1] for e in table.edges]
    return Q_ZERO + weighted_assignment_sum(weights, k, table.crosses,
                                            values)


def character_sum_A(n: int, k: int, y) -> IntLaurentPoly:
    """The weight sum over k-edge multidissections of the n-gon at the
    point y."""
    n, k, ys = check_size("A", n), edge_count(k), as_point(y)
    if len(ys) != n:
        raise ValueError("expected %d values" % n)
    return _chord_sum(ys, edge_table("A", n).weights, k)


def character_check_A(n: int, k: int, y) -> bool:
    """Weight sum over k-edge multidissections against `character_A`; the
    monomials form a weight basis, so the sum is the diagonal character."""
    return character_sum_A(n, k, y) == character_A(k, y)


def character_sum_D(n: int, k: int, y, z) -> IntLaurentPoly:
    """The weight sum over the reference basis index set
    `lemma_basis_multidissections(n, k)`: multidissections of the
    (n+2)-gon weighted by d-degree, where vertex i <= n carries y_i and
    vertices n+1, n+2 carry z_1, z_2."""
    n, k, ys, zs = check_size("D", n), edge_count(k), as_point(y), as_point(z)
    if len(ys) != n or len(zs) != 2:
        raise ValueError("expected %d + 2 values" % n)
    return _chord_sum(ys + zs, _d_degrees(n), k)


def character_check_D(n: int, k: int, y, z) -> bool:
    """Weight sum over the reference basis index set against
    `character_D`."""
    return character_sum_D(n, k, y, z) == character_D(k, y, z)
