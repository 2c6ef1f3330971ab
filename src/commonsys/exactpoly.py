"""Exact polynomials over Q(sqrt(2)), univariate dense and sparse
multivariate, and certified sign claims.

Three certificate methods are produced here and re-checked by
`verify_certificate`, a separate pass that re-derives every recorded
quantity using only exact field arithmetic and comparisons:

* ``sturm``       -- sign of a polynomial on a closed rational interval,
                     witnessed by the Sturm chain and endpoint sign counts,
                     and for a root bracket by every bisection step;
* ``subdivision`` -- nonnegativity of a bivariate polynomial on a rational
                     box, witnessed by the subdivision tree with exact
                     interval bounds, or refuted by an exact witness point;
* ``rational_chain`` -- a list of exact comparisons, polynomial identities
                     and named elementary lemmas with checked premises.

The witness format is decided here alone: beside the producers, each
rational-chain step kind the checker reads has one writer (`cmp_step`,
`lemma_step`, ...), which takes exact values.

Every certificate a producer returns has already been checked: the
producers build it through one checked constructor, which returns it with
``verified`` True or raises VerificationFailed.  A certificate read back
with `Certificate.from_dict` is unverified until `check_certificate`
passes on it.  Floating point never enters a witness: a float
coefficient, evaluation point, interval or box end, precision or step
value raises TypeError.

The polynomial kernels -- `ExactPoly.eval`, `SparsePoly.eval`,
`SparsePoly.monomial_abs_bound` and `SparsePoly.shift` -- run on integer
numerators: the coefficients are brought over one common denominator and
the point or centre is an integer pair u + v*sqrt(2) over its own
denominator, so a Horner pass or a Taylor shift takes only integer
multiply-adds, and each result is reduced once, by one three-way gcd,
into its canonical AlgebraicNumber.  As every value has one canonical
form, the witnesses are the bytes per-operation arithmetic would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add

from .errors import (
    DepthExhausted,
    NotExactlyOneRoot,
    VerificationFailed,
    ZeroPolynomial,
)
from .qsqrt2 import (
    AlgebraicNumber,
    ZERO,
    an_sign,
    format_algebraic,
    from_numerators,
    parse_algebraic,
    parse_rational,
)

MAX_DEGREE = 64
MAX_SUBDIVISION_DEPTH = 40

STRICTLY_POSITIVE = "StrictlyPositive"
STRICTLY_NEGATIVE = "StrictlyNegative"
HAS_ROOT = "HasRoot"


def _an(x) -> AlgebraicNumber:
    """x itself, or the AlgebraicNumber of an int, a Fraction or a rational
    literal; like AlgebraicNumber, a float raises TypeError."""
    return x if isinstance(x, AlgebraicNumber) else AlgebraicNumber(x)


def _q(x) -> Fraction:
    """The Fraction of an int, a Fraction or a rational literal; a float
    raises TypeError, as in `_an`."""
    return AlgebraicNumber(x).a


class ExactPoly:
    """Univariate polynomial with AlgebraicNumber coefficients, low degree
    first.  Degree is capped at MAX_DEGREE; the cap exists so certified
    claims stay desk-checkable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_an(c) for c in coeffs]
        while cs and cs[-1] == ZERO:
            cs.pop()
        if len(cs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(cs) - 1} exceeds cap {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ExactPoly([{', '.join(format_algebraic(c) for c in self.coeffs)}])"

    def __add__(self, other: ExactPoly) -> ExactPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ExactPoly(out)

    def __neg__(self) -> ExactPoly:
        return ExactPoly([-c for c in self.coeffs])

    def __sub__(self, other: ExactPoly) -> ExactPoly:
        return self + (-other)

    def __mul__(self, other: ExactPoly) -> ExactPoly:
        if self.is_zero() or other.is_zero():
            return ExactPoly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExactPoly(out)

    def scale(self, k) -> ExactPoly:
        k = _an(k)
        return ExactPoly([c * k for c in self.coeffs])

    def derivative(self) -> ExactPoly:
        return ExactPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> AlgebraicNumber:
        """Exact value at x by one Horner pass on integers, reduced once.

        With coefficients (a_k + b_k*sqrt2)/D and x = g/w for the integer
        pair g = u + v*sqrt2, D w^K P(x) = sum_k (a_k + b_k*sqrt2) g^k w^(K-k)
        at degree K; the Horner accumulator is that sum's numerator pair.
        """
        if not self.coeffs:
            return ZERO
        nums, den = _over_common_denominator(self.coeffs)
        u, v, w = _an(x).numerators()
        a, b = nums[-1]
        scale = 1  # w^(K-k) at coefficient k
        for ca, cb in nums[-2::-1]:
            scale *= w
            if v:
                a, b = a * u + 2 * b * v + ca * scale, a * v + b * u + cb * scale
            else:
                a, b = a * u + ca * scale, b * u + cb * scale
        return from_numerators(a, b, den * scale)

    def divmod(self, divisor: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
        if divisor.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dlead = dcs[-1]
        quot = [ZERO] * max(0, len(rem) - len(dcs) + 1)
        for i in range(len(rem) - len(dcs), -1, -1):
            c = rem[i + len(dcs) - 1]
            if c == ZERO:
                continue
            q = c / dlead
            quot[i] = q
            for j, d in enumerate(dcs):
                rem[i + j] = rem[i + j] - q * d
        return ExactPoly(quot), ExactPoly(rem)

    def normalized(self) -> ExactPoly:
        """Divide by the positive rational content; signs are unchanged."""
        parts = [f for c in self.coeffs for f in (c.a, c.b) if f]
        if not parts:
            return self
        num = gcd(*(f.numerator for f in parts))
        den = lcm(*(f.denominator for f in parts))
        return self.scale(Fraction(den, num))

    def to_strings(self) -> list[str]:
        return [format_algebraic(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items) -> ExactPoly:
        return cls([parse_algebraic(s) for s in items])


# ---------------------------------------------------------------------------
# Sturm chains


def sturm_chain(poly: ExactPoly) -> list[ExactPoly]:
    if poly.is_zero():
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    chain = [poly.normalized()]
    d = poly.derivative()
    if not d.is_zero():
        chain.append(d.normalized())
        while True:
            _, rem = chain[-2].divmod(chain[-1])
            if rem.is_zero():
                break
            chain.append((-rem).normalized())
    return chain


def sign_sequence(chain, x) -> list[int]:
    return [an_sign(poly.eval(x)) for poly in chain]


def sign_variations(signs) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _sturm_witness(poly: ExactPoly, lo, hi) -> dict:
    """The Sturm witness fields of `poly` on [lo, hi]: endpoint values and
    sign sequences, and the root count and verdict they imply (a root at
    an endpoint gives HasRoot with no count).  ValueError unless lo < hi;
    ZeroPolynomial for the zero polynomial."""
    lo, hi = _q(lo), _q(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    chain = sturm_chain(poly)
    value_lo, value_hi = poly.eval(lo), poly.eval(hi)
    signs_lo, signs_hi = sign_sequence(chain, lo), sign_sequence(chain, hi)
    count = None
    if an_sign(value_lo) == 0 or an_sign(value_hi) == 0:
        verdict = HAS_ROOT
    else:
        count = sign_variations(signs_lo) - sign_variations(signs_hi)
        if count > 0:
            verdict = HAS_ROOT
        else:
            verdict = STRICTLY_POSITIVE if an_sign(value_lo) > 0 else STRICTLY_NEGATIVE
    return {
        "poly": poly.to_strings(),
        "interval": [str(lo), str(hi)],
        "chain": [q.to_strings() for q in chain],
        "signs_lo": signs_lo,
        "signs_hi": signs_hi,
        "root_count": count,
        "value_lo": format_algebraic(value_lo),
        "value_hi": format_algebraic(value_hi),
        "verdict": verdict,
    }


def sturm_sign_on_interval(poly: ExactPoly, lo, hi):
    """Certified sign classification of `poly` on the closed interval [lo, hi].

    Returns (verdict, Certificate).  StrictlyPositive/StrictlyNegative are
    claimed only when the Sturm root count on the interval is zero; a root
    anywhere on the closed interval (endpoints included) yields HasRoot.
    """
    witness = _sturm_witness(poly, lo, hi)
    verdict = witness["verdict"]
    claim = f"sign of polynomial on [{', '.join(witness['interval'])}] is {verdict}"
    return verdict, _certified(claim, "sturm", witness)


def square_factor_sign_on_interval(base: ExactPoly, center, lo, hi):
    """(verdict, Certificate) of the Sturm sign of base / (x - center)^2 on
    [lo, hi], with the square factor recorded for the checker to multiply
    back; StrictlyPositive certifies base >= 0 there.  VerificationFailed
    when (x - center)^2 does not divide base."""
    center = _q(center)
    quotient, rem = base.divmod(ExactPoly([center**2, -2 * center, 1]))
    if not rem.is_zero():
        raise VerificationFailed(f"(x - {center})^2 does not divide the polynomial")
    witness = _sturm_witness(quotient, lo, hi)
    witness["square_factor"] = {"base": base.to_strings(), "center": str(center)}
    verdict = witness["verdict"]
    claim = (
        f"sign of polynomial over (x - {center})^2 on [{', '.join(witness['interval'])}] "
        f"is {verdict}"
    )
    return verdict, _certified(claim, "sturm", witness)


def isolate_positive_root(poly: ExactPoly, search, precision):
    """Bisect down to the unique sign-changing root of `poly` in `search`.

    The Sturm count over the search interval must be exactly one, and the
    endpoint signs must differ.  Returns ((a, b), Certificate) with
    b - a <= precision and a sign change across [a, b].
    """
    precision = _q(precision)
    witness = _sturm_witness(poly, *search)
    count = witness["root_count"]
    if count is None:
        raise NotExactlyOneRoot("root at a search endpoint")
    if count != 1:
        raise NotExactlyOneRoot(f"Sturm count on search interval is {count}, not 1")
    # the chain starts at a positive multiple of poly: its first signs are poly's
    s_lo, s_hi = witness["signs_lo"][0], witness["signs_hi"][0]
    if s_lo == s_hi:
        raise NotExactlyOneRoot("no sign change across search interval (even multiplicity)")
    lo, hi = (Fraction(end) for end in witness["interval"])
    steps = []
    while hi - lo > precision:
        for mid in ((lo + hi) / 2, (2 * lo + hi) / 3, (lo + 2 * hi) / 3):
            s_mid = an_sign(poly.eval(mid))
            if s_mid != 0:
                break
        else:
            raise NotExactlyOneRoot("multiple exact rational roots in bracket")
        steps.append([str(mid), s_mid])
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    witness["bracket"] = [str(lo), str(hi)]
    witness["bracket_signs"] = [s_lo, s_hi]
    witness["bisection"] = steps
    claim = f"unique root of polynomial in [{', '.join(witness['interval'])}] lies in [{lo}, {hi}]"
    return (lo, hi), _certified(claim, "sturm", witness)


# ---------------------------------------------------------------------------
# Exact interval arithmetic and bivariate subdivision


@dataclass(frozen=True)
class ExactInterval:
    lo: AlgebraicNumber
    hi: AlgebraicNumber

    def __add__(self, other):
        return ExactInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        lo = hi = products[0]
        for p in products[1:]:
            if p < lo:
                lo = p
            if p > hi:
                hi = p
        return ExactInterval(lo, hi)

    @classmethod
    def point(cls, x):
        x = _an(x)
        return cls(x, x)

    @classmethod
    def bounds(cls, lo, hi):
        return cls(_an(lo), _an(hi))


class SparsePoly:
    """Polynomial in `nvars` variables over Q(sqrt(2)): an immutable map
    from exponent tuples to nonzero coefficients.  Terms may be given as
    (exponent, coefficient) pairs; repeated exponents add up.  Every
    exponent is capped at MAX_DEGREE, like ExactPoly's degree, so that no
    witness can ask the checker for x^200000."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        pairs = []
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            e = tuple(int(k) for k in e)
            if len(e) != nvars or not all(0 <= k <= MAX_DEGREE for k in e):
                raise ValueError(f"exponent {e} is not {nvars} integers in 0..{MAX_DEGREE}")
            pairs.append((e, _an(c)))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", _collect(pairs))

    @classmethod
    def _from_valid(cls, nvars: int, pairs) -> SparsePoly:
        """The polynomial of (exponent tuple, AlgebraicNumber) pairs whose
        exponents are already known valid: those of a valid polynomial, or
        lowered from them."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", _collect(pairs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def variable(cls, nvars: int, i: int) -> SparsePoly:
        return cls(nvars, {tuple(int(k == i) for k in range(nvars)): 1})

    def __eq__(self, other) -> bool:
        # the exponent length carries the arity of every nonzero polynomial
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def _lift(self, other) -> SparsePoly:
        if isinstance(other, SparsePoly):
            return other
        return SparsePoly(self.nvars, {(0,) * self.nvars: other})

    def __add__(self, other) -> SparsePoly:
        return SparsePoly._from_valid(
            self.nvars, [*self.terms.items(), *self._lift(other).terms.items()]
        )

    def __sub__(self, other) -> SparsePoly:
        return self + self._lift(other).scale(-1)

    def __rsub__(self, other) -> SparsePoly:
        return self.scale(-1) + other

    def __mul__(self, other) -> SparsePoly:
        lhs, rhs = self.terms.items(), self._lift(other).terms.items()
        products = [(tuple(map(add, e, f)), c * d) for e, c in lhs for f, d in rhs]
        return SparsePoly(self.nvars, products)

    def __pow__(self, k: int) -> SparsePoly:
        out = self._lift(1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, k) -> SparsePoly:
        k = _an(k)
        return SparsePoly._from_valid(self.nvars, [(e, c * k) for e, c in self.terms.items()])

    def diff(self, var: int) -> SparsePoly:
        terms = [(_put(e, var, e[var] - 1), c * e[var]) for e, c in self.terms.items() if e[var]]
        return SparsePoly._from_valid(self.nvars, terms)

    def shift(self, var: int, center) -> SparsePoly:
        """Substitute x_var -> center + x_var, by one Taylor shift on
        integers per group of terms that share their other exponents.

        A group is R(x) = sum_k (a_k + b_k*sqrt2)/D x^k of degree K in x_var.
        With center = g/w for the integer pair g = u + v*sqrt2,
        D w^K R(g/w + x) = S(w x), where S is the integer-pair polynomial
        sum_k (a_k + b_k*sqrt2) w^(K-k) z^k shifted by g.  Horner's scheme
        for the Taylor shift (von zur Gathen and Gerhard, 1997) forms S in
        K(K+1)/2 multiply-adds by g, and output coefficient j is
        s_j / (D w^(K-j)), reduced once.
        """
        u, v, w = _an(center).numerators()
        groups = {}
        for e, c in self.terms.items():
            groups.setdefault(_put(e, var, 0), {})[e[var]] = c
        terms = []
        for rest, row in groups.items():
            top = max(row)
            nums, den = _over_common_denominator(row.values())
            ra, rb = [0] * (top + 1), [0] * (top + 1)
            for k, (a, b) in zip(row, nums):
                scale = w ** (top - k)
                ra[k], rb[k] = a * scale, b * scale
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    a, b = ra[j + 1], rb[j + 1]
                    if v:
                        ra[j] += a * u + 2 * b * v
                        rb[j] += a * v + b * u
                    else:
                        ra[j] += a * u
                        rb[j] += b * u
            for j in range(top, -1, -1):
                terms.append((_put(rest, var, j), from_numerators(ra[j], rb[j], den)))
                den *= w
        return SparsePoly._from_valid(self.nvars, terms)

    def eval(self, *point) -> AlgebraicNumber:
        """Exact value at `point` by one pass on integers, reduced once.

        With coefficients (a + b*sqrt2)/D and x_i = g_i/w_i, every term is
        scaled by prod_i w_i^(K_i), K_i the top exponent of x_i: the factor
        x_i^k becomes the integer pair g_i^k w_i^(K_i - k), built once per
        coordinate, and the value is the sum of the terms' numerator pairs
        over D prod_i w_i^(K_i).
        """
        return _eval_integers(*self._integers(), point)

    def _integers(self) -> tuple[list, int, list]:
        """([(exponent, a, b), ...], D, tops): the terms over their common
        denominator D, and each variable's top exponent."""
        nums, den = _over_common_denominator(self.terms.values())
        terms = [(e, a, b) for e, (a, b) in zip(self.terms, nums)]
        return terms, den, [max(k) for k in zip(*self.terms)]

    def interval_eval(self, *intervals: ExactInterval) -> ExactInterval:
        """Interval range bound by dense Horner: the first variable is
        outermost and every power down to zero is stepped through, rows
        without terms included.  The accepted subdivision boxes, and so the
        certificate trees, depend on exactly this order."""
        if self.terms and len(intervals) != self.nvars:
            raise ValueError(f"{len(intervals)} intervals for {self.nvars} variables")
        zero_iv = ExactInterval(ZERO, ZERO)

        def horner(terms, k):
            if not terms:
                return zero_iv
            if k == len(intervals):
                return ExactInterval.point(terms[()])
            rows = {}
            for e, c in terms.items():
                rows.setdefault(e[0], {})[e[1:]] = c
            acc = zero_iv
            for i in range(max(rows), -1, -1):
                acc = acc * intervals[k] + horner(rows.get(i), k + 1)
            return acc

        return horner(self.terms, 0)

    def monomial_abs_bound(self, radii) -> AlgebraicNumber:
        """sum |c| * prod radii^exponents; bounds |P| when |x_i| <= radii[i].
        Evaluated like `eval`, on the numerator pairs of the terms with the
        signs of the negative ones flipped."""
        terms, den, tops = self._integers()
        flipped = [
            (e, a, b) if c.sign() >= 0 else (e, -a, -b)
            for (e, a, b), c in zip(terms, self.terms.values())
        ]
        return _eval_integers(flipped, den, tops, radii)

    def to_list(self) -> list:
        return [[list(e), format_algebraic(c)] for e, c in sorted(self.terms.items())]

    @classmethod
    def from_list(cls, rows) -> SparsePoly:
        """Read rows [e1, ..., ek, c] or [[e1, ..., ek], c]; every row must
        have the same k, which becomes nvars (0 for no rows)."""
        pairs = []
        for *e, c in rows:
            if len(e) == 1 and isinstance(e[0], (list, tuple)):
                e = e[0]
            pairs.append((e, parse_algebraic(c)))
        return cls(len(pairs[0][0]) if pairs else 0, pairs)


def _collect(pairs) -> dict:
    """Exponent -> coefficient, repeated exponents added up and zero
    coefficients dropped."""
    out = {}
    for e, c in pairs:
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c != ZERO}


def _over_common_denominator(values) -> tuple[list, int]:
    """([(a, b), ...], D): each AlgebraicNumber as (a + b*sqrt2)/D, over
    the lcm D of their denominators."""
    triples = [x.numerators() for x in values]
    den = lcm(*(d for _, _, d in triples))
    return [(a * (den // d), b * (den // d)) for a, b, d in triples], den


def _eval_integers(terms: list, den: int, tops: list, point) -> AlgebraicNumber:
    """The value at `point` of the terms [(exponent, a, b), ...] over `den`
    (`SparsePoly._integers`), as `SparsePoly.eval` describes."""
    if not terms:
        return ZERO
    if len(point) != len(tops):
        raise ValueError(f"{len(point)} coordinates for {len(tops)} variables")
    rows = []
    for x, top in zip(point, tops):
        row, w_top = _power_row(*_an(x).numerators(), top)
        rows.append(row)
        den *= w_top
    total_a = total_b = 0
    for e, a, b in terms:
        for row, k in zip(rows, e):
            pa, pb = row[k]
            if pb:
                a, b = a * pa + 2 * b * pb, a * pb + b * pa
            else:
                a, b = a * pa, b * pa
        total_a += a
        total_b += b
    return from_numerators(total_a, total_b, den)


def _power_row(u: int, v: int, w: int, top: int) -> tuple[list, int]:
    """([g^k w^(top-k) for k = 0..top], w^top) for the integer pair
    g = u + v*sqrt2, as integer pairs."""
    g_powers, w_powers = [(1, 0)], [1]
    for _ in range(top):
        a, b = g_powers[-1]
        g_powers.append((a * u + 2 * b * v, a * v + b * u))
        w_powers.append(w_powers[-1] * w)
    row = [(a * w_powers[top - k], b * w_powers[top - k]) for k, (a, b) in enumerate(g_powers)]
    return row, w_powers[-1]


def _put(e: tuple, var: int, k: int) -> tuple:
    """The exponent tuple e with entry `var` replaced by k."""
    return e[:var] + (k,) + e[var + 1 :]


def subdivision_positive_on_box(poly2: SparsePoly, box, max_depth: int):
    """Certify poly2 >= 0 on the rational box, or refute with a witness point.

    Returns (True, Certificate) on success, (False, Certificate) with an
    exact negative witness on refutation, and raises DepthExhausted when the
    depth cap is reached with the sign still unresolved.
    """
    if max_depth > MAX_SUBDIVISION_DEPTH:
        raise ValueError(f"max_depth capped at {MAX_SUBDIVISION_DEPTH}")
    x_lo, x_hi, y_lo, y_hi = (_q(v) for v in box)
    box0 = (x_lo, x_hi, y_lo, y_hi)

    def probe_points(b):
        bx_lo, bx_hi, by_lo, by_hi = b
        mx, my = (bx_lo + bx_hi) / 2, (by_lo + by_hi) / 2
        return [
            (mx, my),
            (bx_lo, by_lo),
            (bx_lo, by_hi),
            (bx_hi, by_lo),
            (bx_hi, by_hi),
        ]

    def build(b, depth):
        for pt in probe_points(b):
            value = poly2.eval(pt[0], pt[1])
            if an_sign(value) < 0:
                return {"negative_at": [str(pt[0]), str(pt[1])]}
        iv = poly2.interval_eval(
            ExactInterval.bounds(b[0], b[1]), ExactInterval.bounds(b[2], b[3])
        )
        node = {"box": [str(v) for v in b]}
        if an_sign(iv.lo) >= 0:
            node["status"] = "accepted"
            node["bound_lo"] = format_algebraic(iv.lo)
            return node
        if depth >= max_depth:
            raise DepthExhausted(
                f"sign of bivariate polynomial unresolved at depth {max_depth} on box {b}"
            )
        if b[1] - b[0] >= b[3] - b[2]:
            axis, mid = 0, (b[0] + b[1]) / 2
            children_boxes = [(b[0], mid, b[2], b[3]), (mid, b[1], b[2], b[3])]
        else:
            axis, mid = 1, (b[2] + b[3]) / 2
            children_boxes = [(b[0], b[1], b[2], mid), (b[0], b[1], mid, b[3])]
        node["status"] = "split"
        node["axis"] = axis
        children = []
        for cb in children_boxes:
            child = build(cb, depth + 1)
            if "negative_at" in child:
                return child
            children.append(child)
        node["children"] = children
        return node

    tree = build(box0, 0)
    # the poly2 witness keeps its flat [i, j, coefficient] rows
    witness = {"poly2": [[*e, c] for e, c in poly2.to_list()], "box": [str(v) for v in box0]}
    if "negative_at" in tree:
        wx, wy = Fraction(tree["negative_at"][0]), Fraction(tree["negative_at"][1])
        witness["result"] = False
        witness["witness_point"] = [str(wx), str(wy)]
        witness["witness_value"] = format_algebraic(poly2.eval(wx, wy))
        claim = f"bivariate polynomial is NOT nonnegative on box {box0}"
        return False, _certified(claim, "subdivision", witness)
    witness["result"] = True
    witness["tree"] = tree
    claim = f"bivariate polynomial is nonnegative on box {box0}"
    return True, _certified(claim, "subdivision", witness)


# ---------------------------------------------------------------------------
# Certificates and the independent checker


@dataclass
class Certificate:
    claim: str
    method: str  # sturm | subdivision | rational_chain
    witness: dict = field(default_factory=dict)
    verified: bool = False

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "method": self.method,
            "witness": self.witness,
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, d) -> "Certificate":
        """A certificate read back from its document, unverified whatever
        the document says: only `check_certificate` makes it verified."""
        return cls(claim=d["claim"], method=d["method"], witness=d["witness"])


def _certified(claim: str, method: str, witness: dict) -> Certificate:
    """The one place a producer makes a Certificate: it is checked here and
    returned with verified=True, or VerificationFailed is raised."""
    cert = Certificate(claim=claim, method=method, witness=witness)
    check_certificate(cert)
    return cert


def rational_chain_certificate(claim: str, steps: list[dict]) -> Certificate:
    return _certified(claim, "rational_chain", {"steps": steps})


def check_certificate(cert: Certificate) -> None:
    """Re-verify a certificate from its witness alone and set `verified`
    to the outcome; raises VerificationFailed on failure, a malformed
    witness included."""
    # a witness is outside input (often read back from JSON): a missing
    # key, a wrong type, a bad literal or an out-of-range exponent is a
    # failed check, not a crash
    cert.verified = False
    try:
        if cert.method == "sturm":
            _check_sturm(cert)
        elif cert.method == "subdivision":
            _check_subdivision(cert)
        elif cert.method == "rational_chain":
            _check_chain(cert)
        else:
            raise VerificationFailed(f"unknown certificate method {cert.method!r}", cert)
    except (
        ArithmeticError, AttributeError, LookupError, TypeError, ValueError, ZeroPolynomial
    ) as err:
        _fail(cert, f"malformed witness: {err!r}")
    cert.verified = True


def verify_certificate(cert: Certificate) -> bool:
    try:
        check_certificate(cert)
        return True
    except VerificationFailed:
        return False


def _fail(cert, msg):
    raise VerificationFailed(f"{msg} (claim: {cert.claim})", cert)


def _is_positive_multiple(p: ExactPoly, q: ExactPoly) -> bool:
    """True when p == r*q for some positive rational r."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if p.degree != q.degree:
        return False
    # cross-multiply by leading coefficients and compare
    lp, lq = p.coeffs[-1], q.coeffs[-1]
    if an_sign(lp) * an_sign(lq) <= 0:
        return False
    return all(cp * lq == cq * lp for cp, cq in zip(p.coeffs, q.coeffs))


def _check_sturm(cert: Certificate) -> None:
    w = cert.witness
    poly = ExactPoly.from_strings(w["poly"])
    if "square_factor" in w:
        # claim reduces a nonnegativity statement to strict positivity of
        # the quotient by (x - center)^2; verify the exact factorization
        base = ExactPoly.from_strings(w["square_factor"]["base"])
        center = parse_rational(w["square_factor"]["center"])
        lin = ExactPoly([-center, 1])
        if not (poly * lin * lin == base):
            _fail(cert, "square-factor decomposition does not reproduce the base polynomial")
    lo, hi = parse_rational(w["interval"][0]), parse_rational(w["interval"][1])
    if not lo < hi:
        _fail(cert, "empty interval")
    chain = [ExactPoly.from_strings(cs) for cs in w["chain"]]
    if not chain or not _is_positive_multiple(chain[0], poly):
        _fail(cert, "chain does not start at the polynomial")
    if len(chain) > 1:
        if not _is_positive_multiple(chain[1], poly.derivative()):
            _fail(cert, "second chain entry is not the derivative")
        for k in range(2, len(chain)):
            _, rem = chain[k - 2].divmod(chain[k - 1])
            if rem.is_zero():
                _fail(cert, "chain extends past a zero remainder")
            if not _is_positive_multiple(chain[k], -rem):
                _fail(cert, f"chain entry {k} is not the negated remainder")
        _, final_rem = chain[-2].divmod(chain[-1])
        if not final_rem.is_zero():
            _fail(cert, "chain stops before the remainder sequence terminates")
    value_lo, value_hi = poly.eval(lo), poly.eval(hi)
    if format_algebraic(value_lo) != w["value_lo"] or format_algebraic(value_hi) != w["value_hi"]:
        _fail(cert, "endpoint values do not match the witness")
    signs_lo = sign_sequence(chain, lo)
    signs_hi = sign_sequence(chain, hi)
    if signs_lo != list(w["signs_lo"]) or signs_hi != list(w["signs_hi"]):
        _fail(cert, "endpoint sign sequences do not match the witness")
    verdict = w["verdict"]
    if an_sign(value_lo) == 0 or an_sign(value_hi) == 0:
        if verdict != HAS_ROOT:
            _fail(cert, "endpoint root but verdict is not HasRoot")
    else:
        count = sign_variations(signs_lo) - sign_variations(signs_hi)
        if w.get("root_count") is not None and count != w["root_count"]:
            _fail(cert, "recorded root count disagrees with sign variations")
        if count > 0:
            if verdict != HAS_ROOT:
                _fail(cert, "roots present but verdict is not HasRoot")
        elif count == 0:
            expect = STRICTLY_POSITIVE if an_sign(value_lo) > 0 else STRICTLY_NEGATIVE
            if verdict != expect:
                _fail(cert, f"verdict {verdict} inconsistent with root-free interval")
        else:
            _fail(cert, "negative Sturm count")
    if "bracket" in w:
        b_lo, b_hi = parse_rational(w["bracket"][0]), parse_rational(w["bracket"][1])
        if not (lo <= b_lo < b_hi <= hi):
            _fail(cert, "bracket not inside the search interval")
        s_a, s_b = an_sign(poly.eval(b_lo)), an_sign(poly.eval(b_hi))
        if s_a * s_b != -1:
            _fail(cert, "no sign change across the recorded bracket")
    if "bisection" in w:
        _check_bisection(cert, poly, lo, hi)


def _check_bisection(cert: Certificate, poly: ExactPoly, lo: Fraction, hi: Fraction) -> None:
    """Replay the recorded bisection of `isolate_positive_root` from the
    search interval [lo, hi] down to the recorded bracket."""
    w = cert.witness
    s_lo, s_hi = an_sign(poly.eval(lo)), an_sign(poly.eval(hi))
    if list(w["bracket_signs"]) != [s_lo, s_hi]:
        _fail(cert, "bracket signs are not the signs at the search endpoints")
    for idx, (mid, recorded) in enumerate(w["bisection"]):
        mid = parse_rational(mid)
        if not lo < mid < hi:
            _fail(cert, f"bisection step {idx}: {mid} is not inside ({lo}, {hi})")
        s_mid = an_sign(poly.eval(mid))
        if s_mid == 0 or recorded != s_mid:
            _fail(cert, f"bisection step {idx}: recorded sign {recorded!r} at {mid} is wrong")
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    if [lo, hi] != [parse_rational(b) for b in w["bracket"]]:
        _fail(cert, "bisection does not end at the recorded bracket")


def _check_subdivision(cert: Certificate) -> None:
    w = cert.witness
    poly2 = SparsePoly.from_list(w["poly2"])
    box = tuple(parse_rational(v) for v in w["box"])
    if not w["result"]:
        wx, wy = parse_rational(w["witness_point"][0]), parse_rational(w["witness_point"][1])
        if not (box[0] <= wx <= box[1] and box[2] <= wy <= box[3]):
            _fail(cert, "witness point outside the box")
        if an_sign(poly2.eval(wx, wy)) >= 0:
            _fail(cert, "witness point does not evaluate negative")
        return

    def walk(node, b, depth):
        if depth > MAX_SUBDIVISION_DEPTH:
            _fail(cert, f"tree deeper than the depth cap {MAX_SUBDIVISION_DEPTH}")
        if [str(v) for v in b] != node["box"]:
            _fail(cert, "tree box does not match the recorded split structure")
        if node["status"] == "accepted":
            iv = poly2.interval_eval(
                ExactInterval.bounds(b[0], b[1]), ExactInterval.bounds(b[2], b[3])
            )
            if an_sign(iv.lo) < 0:
                _fail(cert, f"interval bound on {b} is not nonnegative")
            if node["bound_lo"] != format_algebraic(iv.lo):
                _fail(cert, f"recorded bound on {b} is not the interval lower bound")
            return
        if node["status"] != "split":
            _fail(cert, f"unknown node status {node['status']!r}")
        axis = node["axis"]
        if axis == 0:
            mid = (b[0] + b[1]) / 2
            sub = [(b[0], mid, b[2], b[3]), (mid, b[1], b[2], b[3])]
        else:
            mid = (b[2] + b[3]) / 2
            sub = [(b[0], b[1], b[2], mid), (b[0], b[1], mid, b[3])]
        children = node.get("children", [])
        if len(children) != 2:
            _fail(cert, "split node without two children")
        for child, cb in zip(children, sub):
            walk(child, cb, depth + 1)

    walk(w["tree"], box, 0)


_LEMMAS = {
    # (1-x)^l >= 1 - l*x for 0 <= x <= 1, integer l >= 1
    "bernoulli_lower",
    # sum over even k <= 2J of C(l,k) x^k is a lower bound for (1+x)^l, x >= 0
    "even_binomial_lower_bound",
    # each even-k binomial term C(l,2j) (x2/l)^j is nondecreasing in l for l >= 2j
    "binomial_term_monotone_in_l",
    # x^(2m) >= 0
    "even_power_nonneg",
    # alternating series: 1 - y + y^2/2 - y^3/6 <= exp(-y) for 0 <= y <= 1
    "alternating_series_exp_lower",
    # |F(a) - F(c)| <= M |a - c| when |dF/da| <= M between a and c
    "mean_value_bound",
    # integer sqrt lower bounds are monotone in the radicand
    "isqrt_monotone",
    # x^k + (1-x)^k >= 2^(1-k): all odd powers of (x - 1/2) cancel in the
    # symmetric sum and the even ones are nonnegative
    "symmetric_power_sum_lower",
}


def even_binomial_sum(l: int, xsq: Fraction, terms: int) -> Fraction:
    """sum_{j=0}^{terms} C(l, 2j) xsq^j, exactly.  With xsq = a/d, the sum
    is taken on integers, C(l, 2j) a^j d^(terms - j), and divided by
    d^terms once, so no term pays a Fraction gcd."""
    a, d = xsq.numerator, xsq.denominator
    total = sum(comb(l, 2 * j) * a**j * d ** (terms - j) for j in range(terms + 1))
    return Fraction(total, d ** max(terms, 0))


# ---------------------------------------------------------------------------
# Rational-chain steps, one writer per kind `_check_chain` reads: values are
# coerced like coefficients (a float raises TypeError) and written as
# format_algebraic does, or as str(Fraction) where the checker reads a
# rational.


def _literal(x) -> str:
    return format_algebraic(_an(x))


def cmp_step(lhs, op: str, rhs) -> dict:
    """lhs op rhs, with op one of <, <=, ==, >=, >."""
    return {"kind": "cmp", "lhs": _literal(lhs), "op": op, "rhs": _literal(rhs)}


def lemma_step(name: str, premises=(), note: str = "") -> dict:
    """A lemma of `_LEMMAS` with `cmp_step` premises; `note` is free text."""
    step = {"kind": "lemma", "name": name, "premises": list(premises)}
    return {**step, "note": note} if note else step


def sqrt_lower_step(x, value) -> dict:
    """value <= sqrt(x), for rationals."""
    return {"kind": "sqrt_lower", "x": str(_q(x)), "value": str(_q(value))}


def poly_eval_step(poly: ExactPoly, point, value) -> dict:
    """poly(point) == value at a rational point."""
    return {"kind": "poly_eval", "poly": poly.to_strings(), "point": str(_q(point)),
            "value": _literal(value)}


def poly_identity_step(lhs, rhs) -> dict:
    """Two lists of (exponent tuple, coefficient) terms are one polynomial;
    repeated exponents add up, so a side may be an uncollected expansion."""
    lhs, rhs = ([[*e, _literal(c)] for e, c in terms] for terms in (lhs, rhs))
    return {"kind": "poly_identity", "lhs": lhs, "rhs": rhs}


def monomial_abs_bound_step(poly: SparsePoly, radii, bound) -> dict:
    """bound >= poly.monomial_abs_bound(radii)."""
    return {"kind": "monomial_abs_bound", "poly": poly.to_list(),
            "radii": [_literal(r) for r in radii], "bound": _literal(bound)}


def even_binomial_value_step(l: int, xsq, terms: int, value) -> dict:
    """value == even_binomial_sum(l, xsq, terms)."""
    return {"kind": "even_binomial_value", "l": l, "xsq": str(_q(xsq)), "terms": terms,
            "value": str(_q(value))}


def _check_chain(cert: Certificate) -> None:
    steps = cert.witness.get("steps", [])
    if not steps:
        _fail(cert, "empty chain")
    for idx, step in enumerate(steps):
        kind = step.get("kind")
        if kind == "cmp":
            _check_cmp(cert, step)
        elif kind == "poly_identity":
            # duplicate exponents add up, so recorded term lists may be
            # the uncollected distributive expansion
            if SparsePoly.from_list(step["lhs"]) != SparsePoly.from_list(step["rhs"]):
                _fail(cert, f"step {idx}: polynomial identity fails")
        elif kind == "lemma":
            if step.get("name") not in _LEMMAS:
                _fail(cert, f"step {idx}: unknown lemma {step.get('name')!r}")
            for premise in step.get("premises", []):
                if premise.get("kind") != "cmp":
                    _fail(cert, f"step {idx}: premise of kind {premise.get('kind')!r}, not 'cmp'")
                _check_cmp(cert, premise)
        elif kind == "sqrt_lower":
            x = parse_rational(step["x"])
            v = parse_rational(step["value"])
            if v < 0 or v * v > x:
                _fail(cert, f"step {idx}: {v} is not a lower bound for sqrt({x})")
        elif kind == "monomial_abs_bound":
            bound = parse_algebraic(step["bound"])
            radii = [parse_algebraic(r) for r in step["radii"]]
            total = SparsePoly.from_list(step["poly"]).monomial_abs_bound(radii)
            if an_sign(bound - total) < 0:
                _fail(cert, f"monomial bound {step['bound']} below the exact sum")
        elif kind == "even_binomial_value":
            l = int(step["l"])
            xsq = parse_rational(step["xsq"])
            value = parse_rational(step["value"])
            terms = int(step["terms"])
            if terms > MAX_DEGREE:
                _fail(cert, f"step {idx}: partial sum longer than {MAX_DEGREE} terms")
            if even_binomial_sum(l, xsq, terms) != value:
                _fail(cert, "even binomial partial sum does not match")
        elif kind == "poly_eval":
            poly = ExactPoly.from_strings(step["poly"])
            point = parse_rational(step["point"])
            value = parse_algebraic(step["value"])
            if poly.eval(point) != value:
                _fail(cert, f"step {idx}: recorded evaluation at {point} is wrong")
        else:
            _fail(cert, f"step {idx}: unknown step kind {kind!r}")


def _check_cmp(cert: Certificate, step: dict) -> None:
    lhs = parse_algebraic(str(step["lhs"]))
    rhs = parse_algebraic(str(step["rhs"]))
    op = step["op"]
    s = an_sign(lhs - rhs)
    ok = {
        "<": s < 0,
        "<=": s <= 0,
        "==": s == 0,
        ">=": s >= 0,
        ">": s > 0,
    }.get(op)
    if ok is None:
        _fail(cert, f"unknown comparison operator {op!r}")
    if not ok:
        _fail(cert, f"comparison fails: {step['lhs']} {op} {step['rhs']}")
