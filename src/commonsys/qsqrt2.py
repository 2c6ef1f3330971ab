"""Exact arithmetic in the field Q(sqrt(2)).

Every number is stored as a + b*sqrt(2) with arbitrary-precision rational
a, b.  Signs and comparisons are decided exactly: for mixed-sign (a, b)
the sign follows from comparing a^2 with 2*b^2, which never ties because
2 is not a rational square.  This is the coefficient field for all
certified polynomial work; floating point appears only in `approx`,
which exists for display.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class AlgebraicNumber:
    """Element a + b*sqrt(2) of Q(sqrt(2)), with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicNumber is immutable")

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return format_algebraic(self)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other) -> AlgebraicNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> AlgebraicNumber:
        return AlgebraicNumber(-self.a, -self.b)

    def __sub__(self, other) -> AlgebraicNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(self.a - other.a, self.b - other.b)

    def __rsub__(self, other) -> AlgebraicNumber:
        return (-self) + other

    def __mul__(self, other) -> AlgebraicNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a rational factor (b == 0) is the common case: two products
        if other.b == 0:
            return AlgebraicNumber(self.a * other.a, self.b * other.a)
        if self.b == 0:
            return AlgebraicNumber(self.a * other.a, self.a * other.b)
        return AlgebraicNumber(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> AlgebraicNumber:
        # (a + b*sqrt2)^-1 = (a - b*sqrt2) / (a^2 - 2 b^2)
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return AlgebraicNumber(self.a / norm, -self.b / norm)

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

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        if self.b == 0:
            return 0 if self.a == 0 else (1 if self.a > 0 else -1)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt(2) decided by a^2 vs 2 b^2
        d = self.a * self.a - 2 * self.b * self.b
        if self.a > 0:
            return 1 if d > 0 else -1
        return -1 if d > 0 else 1

    def __lt__(self, other) -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - _coerce(other)).sign() >= 0

    def __abs__(self) -> AlgebraicNumber:
        return -self if self.sign() < 0 else self

    def approx(self) -> float:
        """Float approximation; display only, never used in certificates."""
        return float(self.a) + float(self.b) * math.sqrt(2.0)


def _coerce(x):
    if isinstance(x, AlgebraicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return AlgebraicNumber(x, 0)
    return NotImplemented


ZERO = AlgebraicNumber(0, 0)
ONE = AlgebraicNumber(1, 0)
SQRT2 = AlgebraicNumber(0, 1)


def an_sign(x: AlgebraicNumber) -> int:
    """Exact sign of a + b*sqrt(2)."""
    return x.sign()


_TERM_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*(?:([+-])\s*(\d+(?:/\d+)?)\s*\*\s*sqrt2)?\s*$")


def format_algebraic(x: AlgebraicNumber) -> str:
    """Render as ``a/b + c/d*sqrt2`` (the certificate wire format)."""
    sign = "+" if x.b >= 0 else "-"
    return f"{x.a} {sign} {abs(x.b)}*sqrt2"


def parse_algebraic(text: str) -> AlgebraicNumber:
    """Parse the ``a/b + c/d*sqrt2`` format emitted by format_algebraic."""
    m = _TERM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse Q(sqrt(2)) literal: {text!r}")
    a = Fraction(m.group(1))
    if m.group(2) is None:
        return AlgebraicNumber(a, 0)
    b = Fraction(m.group(3))
    if m.group(2) == "-":
        b = -b
    return AlgebraicNumber(a, b)


def sqrt_lower(x: Fraction, bits: int = 64) -> Fraction:
    """Rational lower bound on sqrt(x) for x >= 0, via integer isqrt."""
    if x < 0:
        raise ValueError("sqrt of negative rational")
    num, den = x.numerator, x.denominator
    scale = 1 << bits
    # sqrt(num/den) = sqrt(num*den)/den >= isqrt(num*den*scale^2)/(scale*den)
    return Fraction(math.isqrt(num * den * scale * scale), scale * den)


def sqrt_upper(x: Fraction, bits: int = 64) -> Fraction:
    """Rational upper bound on sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("sqrt of negative rational")
    num, den = x.numerator, x.denominator
    scale = 1 << bits
    r = math.isqrt(num * den * scale * scale)
    if r * r < num * den * scale * scale:
        r += 1
    return Fraction(r, scale * den)
