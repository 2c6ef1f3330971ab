import copy
from decimal import Decimal, getcontext
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonsys import exactpoly
from commonsys.errors import (
    DepthExhausted,
    NotExactlyOneRoot,
    VerificationFailed,
    ZeroPolynomial,
)
from commonsys.exactpoly import (
    HAS_ROOT,
    STRICTLY_NEGATIVE,
    STRICTLY_POSITIVE,
    Certificate,
    ExactPoly,
    SparsePoly,
    check_certificate,
    cmp_step,
    even_binomial_sum,
    even_binomial_value_step,
    isolate_positive_root,
    lemma_step,
    monomial_abs_bound_step,
    poly_eval_step,
    poly_identity_step,
    rational_chain_certificate,
    sqrt_lower_step,
    square_factor_sign_on_interval,
    sturm_sign_on_interval,
    subdivision_positive_on_box,
    verify_certificate,
)
from commonsys.qsqrt2 import (
    AlgebraicNumber,
    an_sign,
    format_algebraic,
    parse_algebraic,
    sqrt_lower,
)

F = Fraction
rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


# a two-Fraction model of Q(sqrt(2)), the oracle for AlgebraicNumber's
# integer-numerator representation: pairs (a, b) meaning a + b*sqrt(2)
def _o_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _o_inv(x):
    norm = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _o_pow(x, k):
    if k < 0:
        x, k = _o_inv(x), -k
    out = (F(1), F(0))
    for _ in range(k):
        out = _o_mul(out, x)
    return out


def _o_sign(x):
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


def _pair(x):
    return (x.a, x.b)


def _assert_canonical(x):
    assert type(x._an) is type(x._bn) is type(x._d) is int
    assert x._d > 0 and gcd(x._an, x._bn, x._d) == 1


class TestAlgebraicNumber:
    @given(rationals, rationals, rationals, rationals, st.integers(-4, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_two_fraction_oracle(self, a, b, c, d, k):
        x, y = AlgebraicNumber(a, b), AlgebraicNumber(c, d)
        X, Y = (a, b), (c, d)
        got = {
            "+": (x + y, (a + c, b + d)),
            "-": (x - y, (a - c, b - d)),
            "*": (x * y, _o_mul(X, Y)),
            "neg": (-x, (-a, -b)),
            "abs": (abs(x), (a, b) if _o_sign(X) >= 0 else (-a, -b)),
            "x*c": (x * c, (a * c, b * c)),
            "c-x": (c - x, (c - a, -b)),
            "int*x": (3 * x, (3 * a, 3 * b)),
        }
        if Y != (0, 0):
            got["/"] = (x / y, _o_mul(X, _o_inv(Y)))
            got["inv"] = (y.inverse(), _o_inv(Y))
            got["c/y"] = (a / y, _o_mul((a, F(0)), _o_inv(Y)))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        if X != (0, 0) or k >= 0:
            got["**"] = (x**k, _o_pow(X, k))
        else:
            with pytest.raises(ZeroDivisionError):
                x**k
        for name, (value, want) in got.items():
            assert _pair(value) == want, name
            assert type(value.a) is type(value.b) is F
            _assert_canonical(value)
        assert x.sign() == an_sign(x) == _o_sign(X)
        for other, want in ((y, (c, d)), (c, (c, F(0))), (c.numerator, (F(c.numerator), F(0)))):
            s = _o_sign((a - want[0], b - want[1]))
            assert (x < other, x <= other, x > other, x >= other) == (s < 0, s <= 0, s > 0, s >= 0)
            assert (x == other) == (s == 0)
        assert parse_algebraic(format_algebraic(x)) == x
        _assert_canonical(parse_algebraic(format_algebraic(x)))
        assert x.approx() == float(a) + float(b) * 2.0**0.5

    @given(rationals, rationals, st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_equal_values_built_differently_hash_alike(self, a, b, m):
        x = AlgebraicNumber(a, b)
        same = [
            x * m / m,
            (x * m - x * (m - 1)),
            x + AlgebraicNumber(0, F(1, m)) - AlgebraicNumber(0, F(1, m)),
            parse_algebraic(  # an unreduced literal
                f"{a.numerator * m}/{a.denominator * m} {'-' if b < 0 else '+'} "
                f"{abs(b.numerator) * m}/{b.denominator * m}*sqrt2"
            ),
            AlgebraicNumber(str(a), str(b)),
        ]
        for y in same:
            _assert_canonical(y)
            assert y == x and hash(y) == hash(x)
        r = AlgebraicNumber(a, 0)
        assert r == a and hash(r) == hash(a)
        assert AlgebraicNumber(a * m, 0) / m == a
        assert AlgebraicNumber(m) == m and hash(AlgebraicNumber(m)) == hash(m)
        assert (AlgebraicNumber(a, b) == AlgebraicNumber(a, b + 1)) is False

    def test_bad_literal_or_zero_norm_fails_the_check(self):
        assert isinstance(ZeroDivisionError(), ArithmeticError)
        with pytest.raises(ZeroDivisionError):
            AlgebraicNumber(0, 0).inverse()
        with pytest.raises(ZeroDivisionError):
            parse_algebraic("1/0")
        with pytest.raises(ZeroDivisionError):
            parse_algebraic("1 + 1/0*sqrt2")
        _, cert = sturm_sign_on_interval(ExactPoly([1, 0, 1]), 0, 1)
        for literal in ("1/0 + 0*sqrt2", "1 - 3/0*sqrt2"):
            broken = copy.deepcopy(cert)
            broken.witness["poly"][0] = literal
            assert verify_certificate(broken) is False
        for lhs, rhs in (("1/0", "1"), ("1", "0 + 1/0*sqrt2")):
            chain = Certificate(
                claim="division by zero in a literal",
                method="rational_chain",
                witness={"steps": [{"kind": "cmp", "lhs": lhs, "op": "<", "rhs": rhs}]},
            )
            assert verify_certificate(chain) is False

    def test_sign_examples(self):
        assert an_sign(AlgebraicNumber(3, -2)) == 1  # 9 > 8
        assert an_sign(AlgebraicNumber(-1, 0)) == -1
        assert an_sign(AlgebraicNumber(0, 0)) == 0
        assert an_sign(AlgebraicNumber(-3, 2)) == -1
        assert an_sign(AlgebraicNumber(0, -1)) == -1
        # near ties: the convergents p/q of sqrt(2) have p^2 - 2 q^2 = +-1
        getcontext().prec = 60
        sqrt2 = Decimal(2).sqrt()
        for p, q in ((1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (577, 408)):
            for a, b in ((p, -q), (-p, q)):
                for den in (1, 7):
                    x = AlgebraicNumber(F(a, den), F(b, den))
                    assert an_sign(x) == (1 if a + b * sqrt2 > 0 else -1), (a, b, den)
                    assert (x < 0) == (a + b * sqrt2 < 0)

    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c, d, e, f):
        x = AlgebraicNumber(a, b)
        y = AlgebraicNumber(c, d)
        z = AlgebraicNumber(e, f)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if y != AlgebraicNumber(0, 0):
            assert y * y.inverse() == AlgebraicNumber(1, 0)
            assert (x / y) * y == x

    def test_sign_against_high_precision_decimal(self):
        getcontext().prec = 60
        sqrt2 = Decimal(2).sqrt()
        rng = np.random.default_rng(123)
        for _ in range(10**4):
            a = F(int(rng.integers(-1000, 1001)), int(rng.integers(1, 100)))
            b = F(int(rng.integers(-1000, 1001)), int(rng.integers(1, 100)))
            x = AlgebraicNumber(a, b)
            approx = (
                Decimal(a.numerator) / Decimal(a.denominator)
                + Decimal(b.numerator) / Decimal(b.denominator) * sqrt2
            )
            want = 0 if approx == 0 else (1 if approx > 0 else -1)
            assert an_sign(x) == want

    def test_parse_format_round_trip(self):
        for x in (
            AlgebraicNumber(F(3, 7), F(-2, 5)),
            AlgebraicNumber(0, 0),
            AlgebraicNumber(F(-1, 3), 0),
            AlgebraicNumber(0, F(9, 2)),
        ):
            assert parse_algebraic(format_algebraic(x)) == x

    def test_power(self):
        s = AlgebraicNumber(0, 1)
        assert s**2 == AlgebraicNumber(2, 0)
        assert s**-2 == AlgebraicNumber(F(1, 2), 0)

    def test_sqrt_bounds(self):
        for x in (F(2), F(3, 7), F(1, 2**18), F(0)):
            lo = sqrt_lower(x)
            assert lo * lo <= x < (lo + F(1, 2**40)) ** 2


    @given(rationals, rationals, rationals, rationals)
    @settings(max_examples=80, deadline=None)
    def test_rational_factor_product_matches_general_formula(self, a, b, c, d):
        def general(x, y):
            return (x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a)

        cases = [
            ((a, 0), (c, d)),  # rational on the left
            ((a, b), (c, 0)),  # rational on the right
            ((a, 0), (c, 0)),  # both rational
            ((0, 0), (c, d)),  # zero
            ((a, b), (0, 0)),
            ((a, b), (c, d)),  # the general product itself
        ]
        for x, y in cases:
            x, y = AlgebraicNumber(*x), AlgebraicNumber(*y)
            for got in (x * y, y * x):
                assert (got.a, got.b) == general(x, y)
                assert type(got.a) is type(got.b) is F
        x = AlgebraicNumber(a, b)
        for k in (c, 3):
            want = general(x, AlgebraicNumber(k, 0))
            assert ((x * k).a, (x * k).b) == want == ((k * x).a, (k * x).b)


class TestExactPoly:
    def test_eval_constant_term(self):
        p = ExactPoly([F(5, 3), 1, 2])
        assert p.eval(0) == AlgebraicNumber(F(5, 3), 0)

    def test_eval_double_root(self):
        p = ExactPoly([1, -2, 1])  # (x-1)^2
        assert p.eval(1) == AlgebraicNumber(0, 0)

    def test_divmod_reconstructs(self):
        a = ExactPoly([1, 2, 0, 1, 5])
        b = ExactPoly([3, 1, 2])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_floats_are_refused(self):
        # a float would enter as its dyadic value, not the decimal it shows
        with pytest.raises(TypeError):
            ExactPoly([0.1])
        with pytest.raises(TypeError):
            ExactPoly([1]).eval(0.5)
        with pytest.raises(TypeError):
            SparsePoly(1, {(1,): 0.1})
        with pytest.raises(TypeError):
            SparsePoly(1, {(1,): 1}).scale(0.5)
        assert ExactPoly(["1/10", F(1, 3), 2]) == ExactPoly([F(1, 10), F(1, 3), 2])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ExactPoly([1] * 70)


class TestSparsePoly:
    def test_from_list_reads_every_row_form_and_adds_repeats(self):
        want = SparsePoly(2, {(1, 0): 3, (0, 2): F(1, 2)})
        flat = [[1, 0, "1"], [0, 2, "1/2 + 0*sqrt2"], [1, 0, "2"]]
        nested = [[[1, 0], "3 + 0*sqrt2"], [[0, 2], "1/2"]]
        assert SparsePoly.from_list(flat) == want
        assert SparsePoly.from_list(nested) == want
        assert SparsePoly.from_list(want.to_list()) == want

    def test_rejects_mixed_widths_and_out_of_range_exponents(self):
        for rows in ([[1, 0, "1"], [1, "1"]], [[65, 0, "1"]], [[-1, 0, "1"]]):
            with pytest.raises(ValueError):
                SparsePoly.from_list(rows)

    def test_algebra_agrees_with_pointwise_evaluation(self):
        x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
        sqrt2 = AlgebraicNumber(0, 1)
        p = (1 - x) ** 3 * y + x * 2 - y.scale(sqrt2)
        for a, b in ((F(1, 3), F(-2, 5)), (F(3), F(1, 7))):
            assert p.eval(a, b) == AlgebraicNumber((1 - a) ** 3 * b + 2 * a, -b)
            assert p.diff(0).eval(a, b) == AlgebraicNumber(-3 * (1 - a) ** 2 * b + 2, 0)
            assert p.shift(0, F(1, 2)).eval(a, b) == p.eval(a + F(1, 2), b)
        # |1 - sqrt2| y + 3|x y| + 3|x^2 y| + |x^3 y| + 2|x| at the unit radii
        bound = p.monomial_abs_bound([AlgebraicNumber(1, 0), AlgebraicNumber(1, 0)])
        assert bound == AlgebraicNumber(-1 + 3 + 3 + 1 + 2, 1)


    @staticmethod
    def _random_poly(rng, nvars):
        """Random sparse terms with exponent 0 and repeated exponents."""
        terms = []
        for _ in range(int(rng.integers(1, 12))):
            e = tuple(int(k) for k in rng.integers(0, 6, size=nvars))
            c = AlgebraicNumber(F(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                                F(int(rng.integers(-3, 4)), int(rng.integers(1, 5))))
            terms.append((e, c))
        terms.append(terms[0])  # a repeated exponent adds up
        terms.append(((0,) * nvars, AlgebraicNumber(F(1, 3), 0)))
        return terms

    @staticmethod
    def _random_point(rng, nvars):
        return [AlgebraicNumber(F(int(rng.integers(-7, 8)), int(rng.integers(1, 5))),
                                F(int(rng.integers(-2, 3)), 3) if rng.integers(0, 2) else 0)
                for _ in range(nvars)]

    def test_eval_matches_per_term_powers(self):
        rng = np.random.default_rng(70)
        for nvars in (1, 2, 3):
            for _ in range(15):
                terms = self._random_poly(rng, nvars)
                point = self._random_point(rng, nvars)
                want = AlgebraicNumber(0, 0)
                for e, c in terms:
                    for x, k in zip(point, e):
                        c = c * x**k
                    want = want + c
                assert SparsePoly(nvars, terms).eval(*point) == want
        assert SparsePoly(2, []).eval(F(1), F(2)) == AlgebraicNumber(0, 0)
        with pytest.raises(ValueError):
            SparsePoly(2, {(1, 0): 1}).eval(F(1))

    def test_shift_moves_the_argument_and_inverts(self):
        rng = np.random.default_rng(71)
        for nvars in (1, 2, 3):
            for _ in range(10):
                poly = SparsePoly(nvars, self._random_poly(rng, nvars))
                point = self._random_point(rng, nvars)
                var = int(rng.integers(0, nvars))
                center = F(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                shifted = poly.shift(var, center)
                moved = list(point)
                moved[var] = moved[var] - center
                assert shifted.eval(*moved) == poly.eval(*point)
                assert shifted.shift(var, -center) == poly


# per-term oracles for the integer-numerator kernels: one AlgebraicNumber
# operation per product, with its own reduction, and the binomial expansion
# of every term for the shift
def _oracle_shift(poly, var, center):
    terms = []
    for e, c in poly.terms.items():
        k = e[var]
        for j in range(k + 1):
            terms.append((e[:var] + (j,) + e[var + 1 :], c * comb(k, j) * center ** (k - j)))
    return SparsePoly(poly.nvars, terms)


def _oracle_eval(poly, point):
    acc = AlgebraicNumber(0, 0)
    for e, c in poly.terms.items():
        for x, k in zip(point, e):
            c = c * x**k
        acc = acc + c
    return acc


def _oracle_abs_bound(poly, radii):
    return _oracle_eval(SparsePoly(poly.nvars, {e: abs(c) for e, c in poly.terms.items()}), radii)


def _oracle_horner(poly, x):
    acc = AlgebraicNumber(0, 0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _assert_canonical_poly(poly):
    for c in poly.terms.values():
        assert c != 0
        _assert_canonical(c)


rationals_or_surds = st.builds(AlgebraicNumber, rationals, st.one_of(st.just(F(0)), rationals))


@st.composite
def sparse_polys(draw, max_vars=3):
    """A polynomial in 1..max_vars variables with mixed-sign Q(sqrt(2))
    coefficients; the last variable has no terms when `idle` is drawn."""
    nvars = draw(st.integers(1, max_vars))
    idle = draw(st.booleans()) and nvars > 1
    width = nvars - 1 if idle else nvars
    exponents = st.tuples(*[st.integers(0, 7)] * width).map(lambda e: e + (0,) * (nvars - width))
    terms = draw(st.lists(st.tuples(exponents, rationals_or_surds), max_size=10))
    return SparsePoly(nvars, terms)


class TestIntegerKernels:
    """The integer-numerator kernels against the per-term oracles above."""

    @given(sparse_polys(), st.data(), rationals_or_surds)
    @settings(max_examples=60, deadline=None)
    def test_shift_matches_the_binomial_oracle(self, poly, data, center):
        var = data.draw(st.integers(0, poly.nvars - 1))
        for c in (center, center.a, -center):  # Q(sqrt(2)), rational and negated centres
            shifted = poly.shift(var, c)
            assert shifted == _oracle_shift(poly, var, c)
            _assert_canonical_poly(shifted)

    @given(st.integers(1, 3), st.data(), rationals_or_surds, st.integers(0, 9), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_shift_cancels_to_the_monomial(self, nvars, data, center, k, m):
        # (x_var - c)^k * x_other^m shifted by c is x_var^k * x_other^m: every
        # other term of the expansion cancels to zero and must be dropped
        var = data.draw(st.integers(0, nvars - 1))
        other = (var + 1) % nvars
        x = SparsePoly.variable(nvars, var)
        poly = (x - center) ** k
        if other != var:
            poly = poly * SparsePoly.variable(nvars, other) ** m
        shifted = poly.shift(var, center)
        want = tuple(k * (i == var) + m * (i == other != var) for i in range(nvars))
        assert shifted.terms == {want: AlgebraicNumber(1, 0)}
        assert shifted == _oracle_shift(poly, var, center)

    @given(sparse_polys(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_eval_and_abs_bound_match_the_per_term_oracle(self, poly, data):
        point = data.draw(st.lists(rationals_or_surds, min_size=poly.nvars, max_size=poly.nvars))
        value = poly.eval(*point)
        assert value == _oracle_eval(poly, point)
        _assert_canonical(value)
        bound = poly.monomial_abs_bound(point)
        assert bound == _oracle_abs_bound(poly, point)
        _assert_canonical(bound)
        rational_point = [x.a for x in point]
        assert poly.eval(*rational_point) == _oracle_eval(poly, rational_point)

    def test_zero_polynomial_and_idle_variable(self):
        zero = SparsePoly(2, [])
        for c in (F(-3, 4), AlgebraicNumber(1, -1)):
            assert zero.shift(0, c) == zero
            assert zero.eval(c, c) == zero.monomial_abs_bound([c, c]) == AlgebraicNumber(0, 0)
        # x_1 does not occur: its shift is the identity and its coordinate a factor of 1
        poly = SparsePoly(2, {(3, 0): AlgebraicNumber(1, -1), (0, 0): F(-2, 3)})
        assert poly.shift(1, AlgebraicNumber(F(5, 7), 2)) == poly
        for y in (F(0), F(-9, 2), AlgebraicNumber(0, 3)):
            assert poly.eval(F(1, 2), y) == AlgebraicNumber(F(1, 8) - F(2, 3), F(-1, 8))
        assert poly.monomial_abs_bound([1, 5]) == AlgebraicNumber(-1 + F(2, 3), 1)
        assert ExactPoly([]).eval(AlgebraicNumber(2, 1)) == AlgebraicNumber(0, 0)

    @given(st.lists(rationals_or_surds, max_size=12), rationals_or_surds)
    @settings(max_examples=60, deadline=None)
    def test_exact_poly_eval_matches_horner(self, coeffs, x):
        poly = ExactPoly(coeffs)
        for point in (x, -x, x.a, x.a.numerator):
            value = poly.eval(point)
            assert value == _oracle_horner(poly, point)
            _assert_canonical(value)


class TestSturm:
    def test_product_margin_positive(self):
        s = ExactPoly([F(1, 1024), F(1, 256), -F(1, 8), -1])
        verdict, cert = sturm_sign_on_interval(s, 0, F(7, 100))
        assert verdict == STRICTLY_POSITIVE and cert.verified

    def test_low_mean_correction_negative_with_exact_endpoints(self):
        from commonsys.certify import low_mean_correction_poly

        q = low_mean_correction_poly()
        # endpoint values: q(0) = -1/(2 sqrt2), q(1/2) = 1/32 - 3 sqrt2/128
        assert q.eval(0) == AlgebraicNumber(0, -F(1, 4))
        assert q.eval(F(1, 2)) == AlgebraicNumber(F(1, 32), -F(3, 128))
        verdict, cert = sturm_sign_on_interval(q, 0, F(1, 2))
        assert verdict == STRICTLY_NEGATIVE and cert.verified

    def test_sqrt2_has_root(self):
        p = ExactPoly([-2, 0, 1])
        verdict, cert = sturm_sign_on_interval(p, 1, 2)
        assert verdict == HAS_ROOT and cert.verified

    def test_endpoint_root(self):
        p = ExactPoly([0, 1])
        verdict, _ = sturm_sign_on_interval(p, 0, 1)
        assert verdict == HAS_ROOT

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            sturm_sign_on_interval(ExactPoly([]), 0, 1)

    def test_counts_match_scanning_oracle(self):
        rng = np.random.default_rng(77)
        lo, hi = F(-8), F(8)
        for _ in range(25):
            deg = int(rng.choice([3, 5]))
            coeffs = [int(rng.integers(-9, 10)) for _ in range(deg)] + [
                int(rng.integers(1, 10))
            ]
            poly = ExactPoly(coeffs)
            if an_sign(poly.eval(lo)) == 0 or an_sign(poly.eval(hi)) == 0:
                continue
            _, cert = sturm_sign_on_interval(poly, lo, hi)
            count = cert.witness["root_count"]
            # independent oracle: sign changes of the float evaluation on a
            # fine grid; zeros (roots landing exactly on grid points) are
            # compressed out so the flip across them is still seen
            grid = np.linspace(-8, 8, 160001)
            vals = np.polyval(list(reversed([float(c) for c in coeffs])), grid)
            signs = np.sign(vals)
            signs = signs[signs != 0]
            flips = int(np.sum(signs[1:] * signs[:-1] < 0))
            assert count == flips


@pytest.mark.parametrize("produce", [
    lambda: sturm_sign_on_interval(ExactPoly([-2, 0, 1]), 2, 1),
    # (x - 1)^2 (x^2 + 1)
    lambda: square_factor_sign_on_interval(ExactPoly([1, -2, 2, -2, 1]), 1, 2, 0),
    lambda: isolate_positive_root(ExactPoly([-2, 0, 1]), (2, 1), F(1, 100)),
], ids=["sign", "square-factor", "isolate"])
def test_reversed_interval_is_an_input_error(produce):
    with pytest.raises(ValueError, match="lo < hi"):
        produce()


class TestIsolation:
    def test_sqrt2(self):
        p = ExactPoly([-2, 0, 1])
        (a, b), cert = isolate_positive_root(p, (1, 2), F(1, 1000))
        assert b - a <= F(1, 1000) and cert.verified
        assert a * a <= 2 <= b * b

    def test_binding_slice_root(self):
        p = ExactPoly([F(1, 243), -F(1, 81), 0, -1])
        (a, b), cert = isolate_positive_root(p, (0, 1), F(1, 10**6))
        assert b - a <= F(1, 10**6) and cert.verified
        assert an_sign(p.eval(a)) > 0 > an_sign(p.eval(b))

    def test_linear_through_zero(self):
        p = ExactPoly([0, 1])
        (a, b), _ = isolate_positive_root(p, (-1, 1), F(1, 100))
        assert a <= 0 <= b

    def test_no_root(self):
        p = ExactPoly([1, 0, 1])
        with pytest.raises(NotExactlyOneRoot):
            isolate_positive_root(p, (0, 1), F(1, 100))

    def test_two_roots(self):
        p = ExactPoly([F(1, 8), -F(3, 4), 1])  # roots ~0.19, ~0.56
        with pytest.raises(NotExactlyOneRoot):
            isolate_positive_root(p, (0, 1), F(1, 100))


class TestSubdivision:
    def test_constant_one_accepts_at_root(self):
        poly2 = SparsePoly(2, {(0, 0): 1})
        ok, cert = subdivision_positive_on_box(poly2, (0, 1, 0, 1), max_depth=0)
        assert ok and cert.verified
        assert cert.witness["tree"]["status"] == "accepted"

    def test_local_margin_fails_on_wide_box(self):
        from commonsys.certify import local_margin_poly2

        poly2 = local_margin_poly2()
        # exact witness at the corner: (1/3)^5 - (1/3)^4/2 - 1/8 < 0
        corner = poly2.eval(F(1, 3), F(1, 2))
        assert an_sign(corner) < 0
        ok, cert = subdivision_positive_on_box(
            poly2, (F(1, 3), F(2, 3), 0, F(1, 2)), max_depth=20
        )
        assert not ok and cert.verified
        wx, wy = (F(v) for v in cert.witness["witness_point"])
        assert an_sign(poly2.eval(wx, wy)) < 0

    def test_depth_exhausted_on_tangent_zero(self):
        # (x - y)^2 is nonnegative but vanishes on the diagonal, so interval
        # bounds straddle zero at every depth
        poly2 = SparsePoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
        with pytest.raises(DepthExhausted):
            subdivision_positive_on_box(poly2, (0, 1, 0, 1), max_depth=4)

    def test_interval_eval_bounds_sampling(self):
        rng = np.random.default_rng(42)
        poly2 = SparsePoly(
            2,
            {
                (i, j): F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                for i in range(3)
                for j in range(3)
            }
        )
        box = (F(-1, 2), F(1, 3), F(1, 5), F(4, 5))
        iv = poly2.interval_eval(
            exactpoly.ExactInterval.bounds(box[0], box[1]),
            exactpoly.ExactInterval.bounds(box[2], box[3]),
        )
        for _ in range(200):
            x = F(int(rng.integers(0, 65)), 64) * (box[1] - box[0]) + box[0]
            y = F(int(rng.integers(0, 65)), 64) * (box[3] - box[2]) + box[2]
            v = poly2.eval(x, y)
            assert an_sign(v - iv.lo) >= 0 and an_sign(iv.hi - v) >= 0


class TestCertificates:
    def test_tampered_sturm_fails(self):
        s = ExactPoly([F(1, 1024), F(1, 256), -F(1, 8), -1])
        _, cert = sturm_sign_on_interval(s, 0, F(7, 100))
        cert.witness["verdict"] = STRICTLY_NEGATIVE
        assert not verify_certificate(cert)

    def test_tampered_chain_entry_fails(self):
        p = ExactPoly([-2, 0, 1])
        _, cert = sturm_sign_on_interval(p, 1, 2)
        cert.witness["chain"][1] = ExactPoly([1, 1]).to_strings()
        assert not verify_certificate(cert)

    def test_tampered_bisection_fails(self):
        for poly, search in ((ExactPoly([-2, 0, 1]), (1, 2)), (ExactPoly([0, 1]), (-1, 1))):
            _, cert = isolate_positive_root(poly, search, F(1, 1000))
            assert verify_certificate(cert)
            w = cert.witness
            tampers = [
                lambda w: w.update(bisection=[["7", 1]], bracket_signs=[5, 5]),
                lambda w: w["bisection"][2].__setitem__(1, -w["bisection"][2][1]),
                lambda w: w["bisection"][0].__setitem__(1, 0),
                lambda w: w.update(bracket_signs=w["bracket_signs"][::-1]),
                lambda w: w["bisection"].pop(),  # ends short of the bracket
                lambda w: w["bisection"].append(list(w["bisection"][-1])),  # not inside
                lambda w: w["bisection"][0].__setitem__(0, str(search[1])),  # an endpoint
                lambda w: w.pop("bracket_signs"),
            ]
            for tamper in tampers:
                broken = Certificate.from_dict(copy.deepcopy(cert.to_dict()))
                tamper(broken.witness)
                assert not verify_certificate(broken)
            assert w["bisection"] and verify_certificate(cert)

    def test_tampered_subdivision_fails(self):
        poly2 = SparsePoly(2, {(0, 0): 1})
        _, cert = subdivision_positive_on_box(poly2, (0, 1, 0, 1), max_depth=0)
        cert.witness["poly2"] = SparsePoly(2, {(0, 0): -1}).to_list()
        assert not verify_certificate(cert)

    def test_chain_comparison_checked(self):
        cert = rational_chain_certificate(
            "1/2 < 1", [{"kind": "cmp", "lhs": "1/2", "op": "<", "rhs": "1"}]
        )
        assert cert.verified
        bad = Certificate(
            claim="1 < 1/2",
            method="rational_chain",
            witness={"steps": [{"kind": "cmp", "lhs": "1", "op": "<", "rhs": "1/2"}]},
        )
        with pytest.raises(VerificationFailed):
            check_certificate(bad)

    def test_failed_sturm_self_check_raises(self, monkeypatch):
        # a producer never hands out a certificate its own check rejected
        def failing_check(cert):
            raise VerificationFailed("forced failure", cert)

        monkeypatch.setattr(exactpoly, "_check_sturm", failing_check)
        with pytest.raises(VerificationFailed, match="forced failure"):
            sturm_sign_on_interval(ExactPoly([-2, 0, 1]), 0, 1)

    def test_false_chain_step_raises(self):
        with pytest.raises(VerificationFailed, match="comparison fails"):
            rational_chain_certificate(
                "1 < 1/2", [{"kind": "cmp", "lhs": "1", "op": "<", "rhs": "1/2"}]
            )

    def test_unknown_lemma_rejected(self):
        bad = Certificate(
            claim="nonsense",
            method="rational_chain",
            witness={"steps": [{"kind": "lemma", "name": "made_up", "premises": []}]},
        )
        assert not verify_certificate(bad)

    def test_steps_no_producer_writes_are_rejected(self):
        # both hold for these values, but no emitted certificate uses them
        for step in ({"kind": "sqrt_upper", "x": "2", "value": "3/2"},
                     {"kind": "lemma", "name": "amgm_pair", "premises": []}):
            cert = Certificate("unproduced step", "rational_chain", {"steps": [step]})
            assert not verify_certificate(cert), step

    def test_even_binomial_sum_matches_the_fraction_sum(self):
        from math import comb

        c5 = F(37, 10000)
        cases = [(l, 4 * c5 * c5 / l, 24) for l in (48, 100, 441562, 441563, 10**6)]
        cases += [(11, F(-3, 7), terms) for terms in (-1, 0, 1, 5)] + [(5, F(2), 3)]
        for l, xsq, terms in cases:
            want = sum(F(comb(l, 2 * j)) * xsq**j for j in range(terms + 1))
            assert even_binomial_sum(l, xsq, terms) == want, (l, xsq, terms)

    def test_even_binomial_step_checks_its_value(self):
        step = {"kind": "even_binomial_value", "l": 100, "xsq": "1/3", "terms": 4}
        value = even_binomial_sum(100, F(1, 3), 4)
        good = Certificate("partial sum", "rational_chain",
                           {"steps": [dict(step, value=str(value))]})
        bad = Certificate("partial sum", "rational_chain",
                          {"steps": [dict(step, value=str(value + F(1, 3**4)))]})
        assert verify_certificate(good) and not verify_certificate(bad)

    def test_round_trip_dict(self):
        p = ExactPoly([-2, 0, 1])
        _, cert = sturm_sign_on_interval(p, 1, 2)
        again = Certificate.from_dict(cert.to_dict())
        assert not again.verified
        check_certificate(again)
        assert again.verified

    def test_read_back_document_does_not_vouch_for_itself(self):
        _, cert = sturm_sign_on_interval(ExactPoly([-2, 0, 1]), 1, 2)
        document = copy.deepcopy(cert.to_dict())
        document["witness"]["verdict"] = STRICTLY_NEGATIVE
        assert document["verified"] is True
        tampered = Certificate.from_dict(document)
        assert tampered.verified is False
        assert verify_certificate(tampered) is False and tampered.verified is False

    def test_step_writers_use_the_wire_forms(self):
        h = F(1, 2)
        assert cmp_step(h, "<", AlgebraicNumber(0, 1)) == {
            "kind": "cmp", "lhs": "1/2 + 0*sqrt2", "op": "<", "rhs": "0 + 1*sqrt2"
        }
        assert lemma_step("isqrt_monotone", note="why") == {
            "kind": "lemma", "name": "isqrt_monotone", "premises": [], "note": "why"
        }
        assert sqrt_lower_step(2, F(7, 5)) == {"kind": "sqrt_lower", "x": "2", "value": "7/5"}
        poly = ExactPoly([-2, 0, 1])
        assert poly_eval_step(poly, h, F(-7, 4)) == {
            "kind": "poly_eval",
            "poly": poly.to_strings(),
            "point": "1/2",
            "value": "-7/4 + 0*sqrt2",
        }
        assert poly_identity_step([((1, 0), 1), ((1, 0), -h)], [((1, 0), h)]) == {
            "kind": "poly_identity",
            "lhs": [[1, 0, "1 + 0*sqrt2"], [1, 0, "-1/2 + 0*sqrt2"]],
            "rhs": [[1, 0, "1/2 + 0*sqrt2"]],
        }
        poly2 = SparsePoly(2, {(1, 0): -1, (0, 2): h})
        assert monomial_abs_bound_step(poly2, [h, AlgebraicNumber(0, 1)], 2) == {
            "kind": "monomial_abs_bound",
            "poly": poly2.to_list(),
            "radii": ["1/2 + 0*sqrt2", "0 + 1*sqrt2"],
            "bound": "2 + 0*sqrt2",
        }
        value = even_binomial_sum(100, F(1, 3), 4)
        assert even_binomial_value_step(100, F(1, 3), 4, value) == {
            "kind": "even_binomial_value", "l": 100, "xsq": "1/3", "terms": 4, "value": str(value)
        }
        # every step the writers make is one the checker accepts
        rational_chain_certificate("writers", [
            cmp_step(h, "<", AlgebraicNumber(0, 1)),
            lemma_step("bernoulli_lower", [cmp_step(h, ">=", 0)]),
            sqrt_lower_step(2, F(7, 5)),
            poly_eval_step(poly, h, F(-7, 4)),
            poly_identity_step([((1, 0), 1), ((1, 0), -h)], [((1, 0), h)]),
            monomial_abs_bound_step(poly2, [h, AlgebraicNumber(0, 1)], 2),
            even_binomial_value_step(100, F(1, 3), 4, value),
        ])

    def test_step_writers_refuse_floats(self):
        for write in (
            lambda: cmp_step(0.5, "<", 1),
            lambda: sqrt_lower_step(2.0, 1),
            lambda: poly_eval_step(ExactPoly([1]), 0.5, 1),
            lambda: poly_identity_step([((1,), 0.5)], [((1,), F(1, 2))]),
            lambda: monomial_abs_bound_step(SparsePoly(1, {(1,): 1}), [0.5], 1),
            lambda: even_binomial_value_step(10, 0.25, 2, 1),
        ):
            with pytest.raises(TypeError):
                write()

    def test_producers_refuse_floats(self):
        # Fraction(0.1) would certify the dyadic 3602879701896397/2^55, not 1/10
        poly = ExactPoly([1, 0, 1])
        square = ExactPoly([F(1, 4), -1, F(5, 4), -1, 1])  # (x - 1/2)^2 (x^2 + 1)
        box_poly = SparsePoly(2, {(0, 0): 1})
        for produce in (
            lambda: sturm_sign_on_interval(poly, 0.1, 1),
            lambda: sturm_sign_on_interval(poly, 0, 1.0),
            lambda: square_factor_sign_on_interval(square, 0.5, 0, 1),
            lambda: square_factor_sign_on_interval(square, F(1, 2), 0.0, 1),
            lambda: isolate_positive_root(ExactPoly([-2, 0, 1]), (1.0, 2), F(1, 100)),
            lambda: isolate_positive_root(ExactPoly([-2, 0, 1]), (1, 2), 0.01),
            lambda: subdivision_positive_on_box(box_poly, (0, 0.1, 0, 1), max_depth=2),
        ):
            with pytest.raises(TypeError):
                produce()
        verdict, cert = sturm_sign_on_interval(poly, "1/10", 1)
        assert verdict == STRICTLY_POSITIVE and cert.witness["interval"] == ["1/10", "1"]

    def test_square_factor_certificate(self):
        # (x - 1/2)^2 (x^2 + 1) >= 0 on [0, 1]
        base = ExactPoly([F(1, 4), -1, F(5, 4), -1, 1])
        verdict, cert = square_factor_sign_on_interval(base, F(1, 2), 0, 1)
        assert verdict == STRICTLY_POSITIVE and cert.verified
        assert cert.witness["square_factor"] == {"base": base.to_strings(), "center": "1/2"}
        assert cert.witness["poly"] == ExactPoly([1, 0, 1]).to_strings()
        broken = copy.deepcopy(cert)
        broken.witness["square_factor"]["center"] = "1/3"
        assert not verify_certificate(broken)
        with pytest.raises(VerificationFailed, match="does not divide"):
            square_factor_sign_on_interval(base, F(1, 3), 0, 1)
