"""Exact arithmetic in the field Q(sqrt(2)).

Every number is stored as (an + bn*sqrt(2)) / d with Python integers an,
bn, d, where d > 0 and gcd(an, bn, d) == 1, so each value has exactly one
representation.  A sum or product is formed on the integers and reduced
by one three-way gcd, not by normalising two separate fractions; sums
over one denominator add their numerators directly, and a product with a
rational factor takes two integer products instead of four.  `a` and `b`
give the rational parts as exact `Fraction`s.

Signs and comparisons are decided exactly: for mixed-sign (an, bn) the
sign follows from comparing an^2 with 2*bn^2, which never ties because 2
is not a rational square.  This is the coefficient field for all
certified polynomial work; floating point appears only in `approx`,
which exists for display.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or a rational literal."""
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {x!r}")
    return x.numerator, x.denominator


class AlgebraicNumber:
    """Element a + b*sqrt(2) of Q(sqrt(2)), with exact rational a, b.

    Like `Fraction`, it is immutable by convention: the integer slots are
    private and are set only where a value is made.
    """

    __slots__ = ("_an", "_bn", "_d")

    def __init__(self, a=0, b=0):
        (an, da), (bn, db) = _ratio(a), _ratio(b)
        g = gcd(da, db)
        # over d = lcm(da, db) the triple is already reduced: a prime of d
        # takes its full power from one denominator, say da, and divides
        # neither a's numerator nor d // da, so not the new an
        self._an = an * (db // g)
        self._bn = bn * (da // g)
        self._d = da // g * db

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._an, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        return Fraction(self._bn, self._d)

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return format_algebraic(self)

    def __eq__(self, other) -> bool:
        if type(other) is not AlgebraicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._an == other._an and self._bn == other._bn and self._d == other._d

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        if self._bn == 0:
            return hash(Fraction(self._an, self._d))
        return hash((self._an, self._bn, self._d))

    def __add__(self, other) -> AlgebraicNumber:
        if type(other) is not AlgebraicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other._an, other._bn, other._d)

    __radd__ = __add__

    def __neg__(self) -> AlgebraicNumber:
        return _raw(-self._an, -self._bn, self._d)

    def __sub__(self, other) -> AlgebraicNumber:
        if type(other) is not AlgebraicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, -other._an, -other._bn, other._d)

    def __rsub__(self, other) -> AlgebraicNumber:
        return (-self) + other

    def __mul__(self, other) -> AlgebraicNumber:
        if type(other) is not AlgebraicNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        an, bn, d = self._an, self._bn, self._d
        cn, dn, e = other._an, other._bn, other._d
        # a rational factor (bn == 0) is the common case: two products
        if dn == 0:
            return _reduced(an * cn, bn * cn, d * e)
        if bn == 0:
            return _reduced(an * cn, an * dn, d * e)
        return _reduced(an * cn + 2 * bn * dn, an * dn + bn * cn, d * e)

    __rmul__ = __mul__

    def inverse(self) -> AlgebraicNumber:
        # ((an + bn*sqrt2)/d)^-1 = d*(an - bn*sqrt2) / (an^2 - 2 bn^2)
        an, bn, d = self._an, self._bn, self._d
        norm = an * an - 2 * bn * bn
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        if norm < 0:
            d, norm = -d, -norm
        return _reduced(d * an, -d * bn, norm)

    def __truediv__(self, other) -> AlgebraicNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> AlgebraicNumber:
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int) -> AlgebraicNumber:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def numerators(self) -> tuple[int, int, int]:
        """(an, bn, d) with the value (an + bn*sqrt2)/d in its canonical form,
        for kernels that work on integers and reduce once per result."""
        return self._an, self._bn, self._d

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        return _sign(self._an, self._bn)

    def _compare(self, other) -> int:
        """Sign of self - other, from numerators over a common (positive)
        denominator: no reduction needed."""
        if type(other) is not AlgebraicNumber:
            x = _coerce(other)
            if x is NotImplemented:
                raise TypeError(f"cannot compare AlgebraicNumber with {other!r}")
            other = x
        an, bn, d = self._an, self._bn, self._d
        cn, dn, e = other._an, other._bn, other._d
        if d == e:
            return _sign(an - cn, bn - dn)
        return _sign(an * e - cn * d, bn * e - dn * d)

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0

    def __le__(self, other) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other) -> bool:
        return self._compare(other) >= 0

    def __abs__(self) -> AlgebraicNumber:
        return -self if self.sign() < 0 else self

    def approx(self) -> float:
        """Float approximation; display only, never used in certificates."""
        # an / d is float(Fraction(an, d)): one correctly rounded division
        return self._an / self._d + self._bn / self._d * math.sqrt(2.0)


_new = object.__new__


def _raw(an: int, bn: int, d: int) -> AlgebraicNumber:
    """The number (an + bn*sqrt2)/d from an already canonical triple."""
    x = _new(AlgebraicNumber)
    x._an = an
    x._bn = bn
    x._d = d
    return x


def _reduced(an: int, bn: int, d: int) -> AlgebraicNumber:
    """The number (an + bn*sqrt2)/d for any d > 0, by one three-way gcd."""
    g = gcd(d, an, bn)
    if g != 1:
        return _raw(an // g, bn // g, d // g)
    return _raw(an, bn, d)


def from_numerators(an: int, bn: int, d: int) -> AlgebraicNumber:
    """The number (an + bn*sqrt2)/d for any integers with d > 0, in its
    canonical form."""
    return _reduced(an, bn, d)


def _sum(x: AlgebraicNumber, cn: int, dn: int, e: int) -> AlgebraicNumber:
    """x + (cn + dn*sqrt2)/e for a canonical triple (cn, dn, e)."""
    an, bn, d = x._an, x._bn, x._d
    if d == e:
        return _reduced(an + cn, bn + dn, d)
    g = gcd(d, e)
    if g == 1:
        # coprime denominators: a prime of d divides the new numerators
        # only where it divides x's, so the triple stays reduced
        return _raw(an * e + cn * d, bn * e + dn * d, d * e)
    # as in Fraction._add, a common factor of the result divides g
    s, t = d // g, e // g
    an, bn = an * t + cn * s, bn * t + dn * s
    g2 = gcd(g, an, bn)
    if g2 != 1:
        return _raw(an // g2, bn // g2, s * (e // g2))
    return _raw(an, bn, s * e)


def _sign(an: int, bn: int) -> int:
    """Exact sign of an + bn*sqrt(2)."""
    if bn == 0:
        return (an > 0) - (an < 0)
    if an == 0 or (an > 0) == (bn > 0):
        return 1 if bn > 0 else -1
    # opposite signs: |an| vs |bn|*sqrt(2) decided by an^2 vs 2 bn^2
    if an * an > 2 * bn * bn:
        return 1 if an > 0 else -1
    return 1 if bn > 0 else -1


def _coerce(x):
    if isinstance(x, AlgebraicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(x.numerator, 0, x.denominator)
    return NotImplemented


ZERO = AlgebraicNumber(0, 0)
ONE = AlgebraicNumber(1, 0)


def an_sign(x: AlgebraicNumber) -> int:
    """Exact sign of a + b*sqrt(2)."""
    return x.sign()


_RATIO = r"-?\d+(?:/\d+)?"  # str(Fraction): "n" or "n/d"
_RATIO_RE = re.compile(_RATIO)
_TERM_RE = re.compile(rf"^\s*({_RATIO})\s*(?:([+-])\s*(\d+(?:/\d+)?)\s*\*\s*sqrt2)?\s*$")


def format_algebraic(x: AlgebraicNumber) -> str:
    """Render as ``a/b + c/d*sqrt2`` (the certificate wire format)."""
    sign = "+" if x._bn >= 0 else "-"
    return f"{_ratio_str(x._an, x._d)} {sign} {_ratio_str(abs(x._bn), x._d)}*sqrt2"


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def parse_algebraic(text: str) -> AlgebraicNumber:
    """Parse the ``a/b + c/d*sqrt2`` format emitted by format_algebraic."""
    m = _TERM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse Q(sqrt(2)) literal: {text!r}")
    an, ad = _literal_ratio(m.group(1))
    if m.group(2) is None:
        return _reduced(an, 0, ad)
    bn, bd = _literal_ratio(m.group(3))
    if m.group(2) == "-":
        bn = -bn
    return _reduced(an * bd, bn * ad, ad * bd)


def parse_rational(text: str) -> Fraction:
    """Parse the ``n`` or ``n/d`` form str(Fraction) writes, and nothing
    else: no exponent, so no literal can ask for a huge power of ten."""
    if not _RATIO_RE.fullmatch(text):
        raise ValueError(f"cannot parse rational literal: {text!r}")
    return Fraction(*_literal_ratio(text))


def _literal_ratio(text: str) -> tuple[int, int]:
    """(numerator, denominator), unreduced, of an ``n`` or ``n/d`` literal;
    d > 0."""
    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return int(num), den


def sqrt_lower(x: Fraction, bits: int = 64) -> Fraction:
    """Rational lower bound on sqrt(x) for x >= 0, via integer isqrt."""
    if x < 0:
        raise ValueError("sqrt of negative rational")
    num, den = x.numerator, x.denominator
    scale = 1 << bits
    # sqrt(num/den) = sqrt(num*den)/den >= isqrt(num*den*scale^2)/(scale*den)
    return Fraction(math.isqrt(num * den * scale * scale), scale * den)
