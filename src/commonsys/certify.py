"""Certified constants for commonness of the rank-2 pair system under
free-variable extension.

The chain splits colourings into three regimes (balanced mean with flat
spectrum, balanced mean with a large Fourier coefficient, and unbalanced
mean) and produces exact rational constants:

* c0 -- uniform lower bound on the pair density at means >= 0.45;
* c1 -- spectral radius below which the density beats the mean-power bound;
* c2 -- half-width of the mean window where the product bound applies;
* c3 -- coefficient of the fourth spectral power in that product bound;
* C4 -- certified Lipschitz-style bound tying the product to its value at
        mean 1/2;
* c5, c6, l0 -- decay-rate and gain constants, and a threshold l0 above
        which every free-variable extension stays common.

Every constant carries a Certificate that re-verifies from the witness
alone; transcendental quantities (square roots, the exponential) enter
only through rational enclosures with directed rounding.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields
from decimal import Decimal
from fractions import Fraction
from math import comb

from .errors import NoSuchL, TooLarge, VerificationFailed
from .exactpoly import (
    Certificate,
    ExactPoly,
    STRICTLY_NEGATIVE,
    STRICTLY_POSITIVE,
    SparsePoly,
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
)
from .qsqrt2 import AlgebraicNumber, sqrt_lower

F = Fraction
INV_SQRT2 = AlgebraicNumber(0, F(1, 2))  # 1/sqrt(2)
INV_2SQRT2 = AlgebraicNumber(0, F(1, 4))  # 1/(2 sqrt(2))

L_SEARCH_CAP = 10**7
BINOMIAL_TERMS = 24  # truncation order of the even binomial lower bound


# ---------------------------------------------------------------------------
# Named polynomials of the derivation


def _binomial_poly(c0, c1, k: int) -> ExactPoly:
    """(c0 + c1 x)^k with rational c0, c1."""
    return ExactPoly([comb(k, j) * c0 ** (k - j) * c1**j for j in range(k + 1)])


def low_mean_correction_poly() -> ExactPoly:
    """x^5 - (1-x) x^4 / sqrt2 - (1-x)^5 / (2 sqrt2).

    Its sign on [0, 1/2] controls the worst-case spectral correction to
    the pair density at means below one half.
    """
    x5 = ExactPoly([0, 0, 0, 0, 0, 1])
    x4_minus_x5 = ExactPoly([0, 0, 0, 0, 1, -1])
    one_minus_x5 = _binomial_poly(F(1), F(-1), 5)
    return x5 - x4_minus_x5.scale(INV_SQRT2) - one_minus_x5.scale(INV_2SQRT2)


def prevalence_value_poly() -> ExactPoly:
    """x^9 + (1/2)(1-x)^4 * low_mean_correction_poly(x).

    Its value at 9/20 is the certified prevalence floor c0.
    """
    x9 = ExactPoly([0] * 9 + [1])
    window = _binomial_poly(F(1), F(-1), 4).scale(F(1, 2))
    return x9 + window * low_mean_correction_poly()


def product_margin_poly() -> ExactPoly:
    """2^-10 + 2^-8 x - 2^-3 x^2 - x^3; positive on [0, 0.07]."""
    return ExactPoly([F(1, 1024), F(1, 256), -F(1, 8), -1])


def local_margin_poly2() -> SparsePoly:
    """F(a, x) = a^5 - a^4 x - x^3 in (mean, spectral sup)."""
    return SparsePoly(2, {(5, 0): 1, (4, 1): -1, (0, 3): -1})


def convexity_floor_poly(k: int) -> ExactPoly:
    """x^k + (1-x)^k - 2^(1-k); nonnegative on [0,1], vanishing at 1/2."""
    xk = ExactPoly([0] * k + [1])
    return xk + _binomial_poly(F(1), F(-1), k) - ExactPoly([F(2) ** (1 - k)])


def pair_product_trivariate() -> SparsePoly:
    """The exact product of the two pair densities as a polynomial in
    (mean a, quad density T4, quintic density T5):

        (a^9 + a^5 T4 + a^4 T5 + T4 T5)
      * ((1-a)^9 + (1-a)^5 T4 - (1-a)^4 T5 - T4 T5).
    """
    a, t4, t5 = (SparsePoly.variable(3, i) for i in range(3))
    b = 1 - a
    u = a**9 + a**5 * t4 + a**4 * t5 + t4 * t5
    v = b**9 + b**5 * t4 - b**4 * t5 - t4 * t5
    return u * v


# ---------------------------------------------------------------------------
# Rounding helpers (all exactness-checked)


def _rational_below(v: AlgebraicNumber, digits: int = 10) -> Fraction:
    grid = 10**digits
    x = F(math.floor(v.approx() * grid), grid)
    while not AlgebraicNumber(x, 0) < v:
        x -= F(1, grid)
    return x


def _rational_above(v: AlgebraicNumber, digits: int = 10) -> Fraction:
    # approx() and the floor are odd functions, so this is the ceiling loop
    return -_rational_below(-v, digits)


# ---------------------------------------------------------------------------
# Lemma suite: the seven inequality/identity claims behind the argument


LEMMA_SUITE_NAMES = (
    "convexity_floor_deg9",
    "coefficient_drop_nonneg",
    "low_mean_correction_negative",
    "prevalence_value_positive",
    "local_margin_box",
    "product_margin_positive",
    "pair_product_factorization",
)


def _expect(result: tuple, expected, claim: str) -> Certificate:
    """The certificate of a producer's (outcome, Certificate) result, with
    its claim set to `claim`; VerificationFailed unless the outcome is
    `expected`."""
    outcome, cert = result
    cert.claim = claim
    if outcome != expected:
        raise VerificationFailed(f"{claim}: expected {expected}, got {outcome}", cert)
    return cert


def verify_lemma_suite() -> list[Certificate]:
    """Certify the seven claims; raises VerificationFailed on the first
    failure."""
    return _lemma_suite(derive_c1()[1]["box"])


def _lemma_suite(box_cert: Certificate) -> list[Certificate]:
    """The seven claims, with `derive_c1`'s local-margin box certificate
    as claim (v); raises VerificationFailed on the first failure."""
    certs: list[Certificate] = []

    # (i) degree-9 convexity floor, via the exact square factor at 1/2
    certs.append(_expect(
        square_factor_sign_on_interval(convexity_floor_poly(9), F(1, 2), 0, 1),
        STRICTLY_POSITIVE,
        "x^9 + (1-x)^9 - 2^(1-9) is nonnegative on [0,1] "
        "(it is (x-1/2)^2 times a strictly positive polynomial)",
    ))

    # (ii) a^5 + a^4 (1-a) collapses to a^4, which is nonnegative
    certs.append(rational_chain_certificate(
        "a^5 + a^4(1-a) equals a^4 and is nonnegative on [0, 1/2]",
        [
            poly_identity_step([((5,), 1), ((4,), 1), ((5,), -1)], [((4,), 1)]),
            lemma_step("even_power_nonneg"),
        ],
    ))

    # (iii) the low-mean correction polynomial is negative on [0, 1/2]
    certs.append(_expect(
        sturm_sign_on_interval(low_mean_correction_poly(), 0, F(1, 2)),
        STRICTLY_NEGATIVE,
        "the low-mean correction polynomial is strictly negative on [0, 1/2]",
    ))

    # (iv) the prevalence value polynomial is positive at 9/20
    poly = prevalence_value_poly()
    value = poly.eval(F(9, 20))
    certs.append(rational_chain_certificate(
        "the prevalence value polynomial is positive at 9/20",
        [poly_eval_step(poly, F(9, 20), value), cmp_step(value, ">", 0)],
    ))

    # (v) local margin box inequality up to the derived spectral radius c1
    certs.append(box_cert)

    # (vi) the product margin polynomial is positive on [0, 7/100]
    certs.append(_expect(
        sturm_sign_on_interval(product_margin_poly(), 0, F(7, 100)),
        STRICTLY_POSITIVE,
        "the product margin polynomial is strictly positive on [0, 7/100]",
    ))

    # (vii) the balanced product factorizes: uncollected distributive
    # expansions of both sides agree term by term
    h = F(1, 2)
    def expand(left, right):
        return [((i1 + i2, j1 + j2), ca * cb) for i1, j1, ca in left for i2, j2, cb in right]

    left_a = [(0, 0, h**9), (1, 0, h**5), (0, 1, h**4), (1, 1, F(1))]
    left_b = [(0, 0, h**9), (1, 0, h**5), (0, 1, -(h**4)), (1, 1, F(-1))]
    sq = [(0, 0, h**8), (1, 0, 2 * h**4), (2, 0, F(1))]
    last = [(0, 0, h**10), (0, 2, F(-1))]
    certs.append(rational_chain_certificate(
        "(2^-9 + 2^-5 T4 + 2^-4 T5 + T4 T5)(2^-9 + 2^-5 T4 - 2^-4 T5 - T4 T5) "
        "= (2^-4 + T4)^2 (2^-10 - T5^2) as polynomials in (T4, T5)",
        [poly_identity_step(expand(left_a, left_b), expand(sq, last))],
    ))

    return certs


# ---------------------------------------------------------------------------
# Constant derivations


def derive_c0() -> tuple[Fraction, Certificate]:
    """Rational lower bound on the prevalence value polynomial at 9/20."""
    poly = prevalence_value_poly()
    value = poly.eval(F(9, 20))
    c0 = _rational_below(value, digits=10)
    if c0 <= 0:
        raise VerificationFailed("prevalence floor is not positive")
    cert = rational_chain_certificate(
        f"c0 = {c0} is positive and below the prevalence polynomial value at 9/20",
        [
            poly_eval_step(poly, F(9, 20), value),
            cmp_step(c0, "<", value),
            cmp_step(c0, ">", 0),
        ],
    )
    return c0, cert


def spectral_radius_margin_poly() -> ExactPoly:
    """(1/3)^5 - (1/3)^4 x - x^3: the binding slice of the local margin."""
    return ExactPoly([F(1, 243), -F(1, 81), 0, -1])


def derive_c1() -> tuple[Fraction, dict[str, Certificate]]:
    """Spectral radius c1: a dyadic rational strictly below the unique
    positive root of the binding slice, certified on the full box."""
    slice_poly = spectral_radius_margin_poly()
    (bracket_lo, bracket_hi), root_cert = isolate_positive_root(
        slice_poly, (F(0), F(1)), F(1, 2**24)
    )
    c1 = F(math.floor(bracket_lo * 4096) - 1, 4096)
    box_cert = _expect(
        subdivision_positive_on_box(
            local_margin_poly2(), (F(1, 3), F(2, 3), F(0), c1), max_depth=34
        ),
        True,
        f"a^5 - a^4 x - x^3 >= 0 for all a in [1/3, 2/3] and x in [0, {c1}]",
    )
    below_cert = rational_chain_certificate(
        f"c1 = {c1} lies strictly below the positive root of the binding slice",
        [
            cmp_step(c1, "<", bracket_lo),
            cmp_step(slice_poly.eval(c1), ">", 0),
        ],
    )
    return c1, {"root": root_cert, "box": box_cert, "below": below_cert}


def derive_c2_c3_C4() -> tuple[Fraction, Fraction, Fraction, dict[str, Certificate]]:
    """Mean window c2, spectral coefficient c3, and derivative bound C4.

    c2 is the largest dyadic k/2^10 with T4max = (1/2+c2)^4/2 <= 7/100;
    c3 = 2^-3 times a certified floor of the product margin polynomial on
    [0, T4max]; C4 bounds |d/da| of the exact pair product over the
    admissible (mean, T4, T5) box, by strip-wise monomial bounds on the
    expansion about the strip centers, plus the exact coefficient of the
    pointwise T5^2 relaxation.
    """
    k = 0
    while (F(1, 2) + F(k + 1, 1024)) ** 4 / 2 <= F(7, 100):
        k += 1
    c2 = F(k, 1024)
    t4max = (F(1, 2) + c2) ** 4 / 2
    window_cert = rational_chain_certificate(
        f"c2 = {c2} is the largest dyadic with denominator 2^10 keeping "
        f"(1/2+c2)^4/2 <= 7/100",
        [
            cmp_step(t4max, "<=", F(7, 100)),
            cmp_step((F(1, 2) + c2 + F(1, 1024)) ** 4 / 2, ">", F(7, 100)),
        ],
    )

    # admissible T5 range: |T5| <= ((1/2+c2)/sqrt2 + 2 c2) T4max
    kappa = AlgebraicNumber(2 * c2, (F(1, 2) + c2) / 2)
    t5max = kappa * t4max
    admissible_cert = rational_chain_certificate(
        f"admissible box: 0 <= T4 <= {t4max} and |T5| <= kappa*T4max with "
        f"kappa = (1/2+c2)/sqrt2 + 2 c2",
        [
            cmp_step(t4max, "==", (F(1, 2) + c2) ** 4 / 2),
            cmp_step(t5max, "==", kappa * t4max),
            cmp_step(kappa, ">", 0),
        ],
    )

    # c3: certified floor of the product margin polynomial on [0, T4max],
    # rounded to a nine-digit decimal for a readable ledger
    margin = product_margin_poly()
    value_at_max = margin.eval(t4max).a
    floor_cert = None
    mu = None
    for attempt in range(12):
        target = value_at_max * (1 - F(1, 64 * 2**attempt))
        candidate = F(math.floor(target * 10**9), 10**9)
        if candidate <= 0:
            continue
        verdict, cert = sturm_sign_on_interval(
            margin - ExactPoly([candidate]), 0, t4max
        )
        if verdict == STRICTLY_POSITIVE:
            mu, floor_cert = candidate, cert
            break
    if mu is None:
        raise VerificationFailed("could not certify a floor for the product margin")
    floor_cert.claim = (
        f"the product margin polynomial exceeds {mu} on [0, {t4max}]"
    )
    c3 = mu / 8

    # C4: strip-wise monomial bound on the mean derivative of the product,
    # one bound c4a over all strips
    derivative = pair_product_trivariate().diff(0)
    n_strips, strips = 8, []
    for s in range(n_strips):
        lo = F(1, 2) - c2 + 2 * c2 * F(s, n_strips)
        hi = F(1, 2) - c2 + 2 * c2 * F(s + 1, n_strips)
        center, radius = (lo + hi) / 2, (hi - lo) / 2
        strips.append((derivative.shift(0, center), [radius, t4max, t5max]))
    worst = max(poly.monomial_abs_bound(radii) for poly, radii in strips)
    c4a = _rational_above(worst, digits=9)
    strip_steps = [monomial_abs_bound_step(poly, radii, c4a) for poly, radii in strips]
    # pointwise T5^2 relaxation: replacing T5^2 <= T4^2/8 costs at most
    # (2^-4 + T4max)^2 T4max^2 (1+c2)/2 per unit of |mean - 1/2|
    c4b = (F(1, 16) + t4max) ** 2 * t4max**2 * (1 + c2) / 2
    c4 = F(math.ceil((c4a + c4b) * 10**9), 10**9)
    c4_cert = rational_chain_certificate(
        f"C4 = {c4} bounds the mean-sensitivity of the pair product over the "
        f"admissible box (derivative part {c4a} plus relaxation part {c4b})",
        strip_steps
        + [
            lemma_step("mean_value_bound"),
            cmp_step(c4, ">=", c4a + c4b),
        ],
    )
    return c2, c3, c4, {
        "window": window_cert,
        "admissible": admissible_cert,
        "margin_floor": floor_cert,
        "derivative_bound": c4_cert,
    }


def _even_binomial_lower(l: int, c5: Fraction) -> Fraction:
    """Exact partial sum of the even binomial terms of (1 + 2 c5/sqrt(l))^l.

    Even powers of 2 c5/sqrt(l) are rational, every term is nonnegative,
    and each term is nondecreasing in l (for l >= 2j), so this is a
    certified, monotone-in-l lower bound.
    """
    return even_binomial_sum(l, 4 * c5 * c5 / l, BINOMIAL_TERMS)


@dataclass
class LConditions:
    """The four per-l conditions that close the three-regime argument."""

    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    C4: Fraction
    c5: Fraction
    c6: Fraction

    def margin(self) -> Fraction:
        return self.c3 * self.c1**4 / 2

    def slacks(self, l: int) -> dict[str, Fraction]:
        s_lo = sqrt_lower(F(l), bits=40)
        a = 4 * self.c5**2
        gain = (1 + 256 * self.c6) ** 2
        return {
            # mean window: c5/sqrt(l) <= min(c2, 1/6); also caps the
            # balanced regime inside [1/3, 2/3] so the three regimes cover
            "window": min(self.c2, F(1, 6)) * s_lo - self.c5,
            # derivative term: C4 c5/sqrt(l) <= half the spectral margin
            "derivative": self.margin() * s_lo - self.C4 * self.c5,
            # decay/gain balance via (1-a/l)^l >= 1-a
            "decay": (1 - a) * gain - 1,
            # prevalence growth: c0 * (1 + 2c5/sqrt(l))^l >= 2^-8
            "growth": self.c0 * _even_binomial_lower(l, self.c5) - F(1, 256),
        }

    def all_hold(self, l: int) -> bool:
        if l < 2 * BINOMIAL_TERMS:
            return False
        return all(v >= 0 for v in self.slacks(l).values())


def derive_l0(
    c0: Fraction, c1: Fraction, c2: Fraction, c3: Fraction, C4: Fraction
) -> tuple[Fraction, Fraction, int, dict[str, Certificate]]:
    """Decay rate c5, gain c6, and the certified threshold l0."""
    margin = c3 * c1**4 / 2
    radicand = F(1, 2**18) + margin
    root_lower = sqrt_lower(radicand, bits=100)
    exact_gain = 2 * root_lower - F(1, 256)
    c6 = F(math.floor(exact_gain * 10**12), 10**12)
    if c6 <= 0:
        raise VerificationFailed("gain constant c6 is not positive")
    c6_cert = rational_chain_certificate(
        f"c6 = {c6} is positive and below 2*sqrt(2^-18 + {margin}) - 2^-8",
        [
            sqrt_lower_step(radicand, root_lower),
            cmp_step(c6, "<=", 2 * root_lower - F(1, 256)),
            cmp_step(c6, ">", 0),
        ],
    )

    # pick c5 near the float balance point of the two binding conditions,
    # then certify the asymptotic feasibility via the alternating series
    ratio = float(F(1, 256) / c0)
    zstar = math.log(ratio + math.sqrt(ratio * ratio - 1.0))
    k2 = float(margin / C4)
    c5_float = math.sqrt(zstar * k2 / 2.0)
    c5 = F(Decimal(f"{c5_float:.1e}"))
    while True:
        y = 2 * c5 * c5
        series = 1 - y + y**2 / 2 - y**3 / 6
        if y <= 1 and series * (1 + 256 * c6) > 1:
            break
        c5 /= 2
    c5_cert = rational_chain_certificate(
        f"c5 = {c5}: the limiting factor exp(-2 c5^2)(1 + 2^8 c6) exceeds 1",
        [
            lemma_step(
                "alternating_series_exp_lower", [cmp_step(y, ">=", 0), cmp_step(y, "<=", 1)]
            ),
            cmp_step(series * (1 + 256 * c6), ">", 1),
        ],
    )

    conditions = LConditions(c0, c1, c2, c3, C4, c5, c6)
    if not conditions.all_hold(L_SEARCH_CAP):
        raise NoSuchL(
            f"conditions do not all hold at the search cap {L_SEARCH_CAP}; "
            "the derivation chain is inconsistent"
        )
    # every condition is monotone in l: the first l that passes all of them
    first = 2 * BINOMIAL_TERMS
    l0 = first + bisect.bisect_left(
        range(first, L_SEARCH_CAP + 1), True, key=conditions.all_hold
    )
    slacks = conditions.slacks(l0)
    s_lo = sqrt_lower(F(l0), bits=40)
    a = 4 * c5 * c5
    growth_value = _even_binomial_lower(l0, c5)
    cond_certs = {
        "condition_window": rational_chain_certificate(
            f"for all l >= l0={l0}: c5/sqrt(l) <= min(c2, 1/6) "
            f"(so the three mean regimes cover [0,1])",
            [
                sqrt_lower_step(l0, s_lo),
                cmp_step(c5, "<=", min(c2, F(1, 6)) * s_lo),
                lemma_step(
                    "isqrt_monotone",
                    note="sqrt lower bounds grow with l, so the condition persists",
                ),
            ],
        ),
        "condition_derivative": rational_chain_certificate(
            f"for all l >= l0={l0}: C4 c5/sqrt(l) <= c3 c1^4 / 2",
            [
                sqrt_lower_step(l0, s_lo),
                cmp_step(C4 * c5, "<=", margin * s_lo),
                lemma_step("isqrt_monotone"),
            ],
        ),
        "condition_decay": rational_chain_certificate(
            f"for all l >= {l0}: (1 - 4c5^2/l)^(l/2) (1 + 2^8 c6) >= 1, "
            f"via (1-a/l)^l >= 1-a",
            [
                lemma_step("bernoulli_lower", [cmp_step(a, ">=", 0), cmp_step(a, "<=", 1)]),
                cmp_step((1 - a) * (1 + 256 * c6) ** 2, ">=", 1),
            ],
        ),
        "condition_growth": rational_chain_certificate(
            f"for all l >= l0={l0}: c0 (1 + 2c5/sqrt(l))^l >= 2^-8, via the "
            f"even binomial lower bound with {BINOMIAL_TERMS} terms",
            [
                even_binomial_value_step(l0, 4 * c5 * c5 / l0, BINOMIAL_TERMS, growth_value),
                lemma_step("even_binomial_lower_bound"),
                lemma_step(
                    "binomial_term_monotone_in_l", [cmp_step(l0, ">=", 2 * BINOMIAL_TERMS)]
                ),
                cmp_step(c0 * growth_value, ">=", F(1, 256)),
            ],
        ),
        "case1_convexity": rational_chain_certificate(
            f"x^(l+9) + (1-x)^(l+9) >= 2^(-l-8) on [0,1] for every l >= 0: "
            f"odd powers of (x-1/2) cancel in the symmetric sum",
            [lemma_step("symmetric_power_sum_lower", [cmp_step(l0 + 9, ">=", 2)])],
        ),
        "gain_c6": c6_cert,
        "decay_rate_c5": c5_cert,
    }
    if not all(v >= 0 for v in slacks.values()):
        raise VerificationFailed("conditions do not hold at the selected l0")
    return c5, c6, l0, cond_certs


# ---------------------------------------------------------------------------
# Ledger


@dataclass
class ConstantLedger(LConditions):
    """The seven constants with the threshold l0 and every certificate."""

    l0: int
    certificates: dict[str, Certificate] = field(default_factory=dict)

    def _constants(self) -> list[tuple[str, Fraction]]:
        """(name, value) of c0 ... c6 in ledger order."""
        return [(f.name, getattr(self, f.name)) for f in fields(LConditions)]

    def replay(self, l: int) -> list[dict]:
        """Exact per-condition slacks at a given l; all must be >= 0."""
        rows = []
        if l < 2 * BINOMIAL_TERMS:
            rows.append(
                {
                    "condition": "domain",
                    "satisfied": False,
                    "slack": str(l - 2 * BINOMIAL_TERMS),
                }
            )
            return rows
        for name, slack in self.slacks(l).items():
            try:
                approx = float(slack)
            except OverflowError:  # the growth slack passes 1e308 near l = 10^20
                approx = math.inf if slack > 0 else -math.inf
            try:
                text = str(slack)
            except ValueError:  # beyond the interpreter's int-to-str digit limit
                raise TooLarge(f"the {name} slack has too many digits to print") from None
            rows.append(
                {
                    "condition": name,
                    "satisfied": slack >= 0,
                    "slack": text,
                    "slack_float": approx,
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            **{name: str(value) for name, value in self._constants()},
            "l0": self.l0,
            "approx": {name: float(value) for name, value in self._constants()},
            "conditions_at_l0": self.replay(self.l0),
            "certificates": {k: v.to_dict() for k, v in self.certificates.items()},
        }

    def summary(self) -> str:
        lines = ["constant  exact                    approx"]
        lines += [f"{name:<10}{value}   {float(value):.6e}" for name, value in self._constants()]
        lines += [f"l0        {self.l0}", "", f"conditions at l0={self.l0}:"]
        lines += [_replay_line(row) for row in self.replay(self.l0)]
        return "\n".join(lines)


def _replay_line(row: dict) -> str:
    """One row of `ConstantLedger.replay` as printed by `summary` and by
    `constants --check-l`."""
    mark = "ok " if row["satisfied"] else "FAIL"
    return f"  {mark} {row['condition']:<12} slack {row.get('slack_float', 0.0):.3e}"


def derive_all() -> ConstantLedger:
    """Run the four derivations in dependency order, gated on the lemma
    suite (which shares c1's box certificate); fully deterministic."""
    c0, c0_cert = derive_c0()
    c1, c1_certs = derive_c1()
    _lemma_suite(c1_certs["box"])
    c2, c3, C4, mid_certs = derive_c2_c3_C4()
    c5, c6, l0, l_certs = derive_l0(c0, c1, c2, c3, C4)
    certificates = {"prevalence_floor_c0": c0_cert}
    certificates.update({f"spectral_radius_c1_{k}": v for k, v in c1_certs.items()})
    mid_names = {
        "window": "mean_window_c2",
        "admissible": "admissible_box_c2",
        "margin_floor": "margin_floor_c3",
        "derivative_bound": "derivative_bound_C4",
    }
    certificates.update({mid_names[k]: v for k, v in mid_certs.items()})
    certificates.update(l_certs)
    ledger = ConstantLedger(
        c0=c0, c1=c1, c2=c2, c3=c3, C4=C4, c5=c5, c6=c6, l0=l0,
        certificates=certificates,
    )
    invariants = (
        ledger.c0 > 0
        and ledger.c1 > 0
        and 0 < ledger.c2 <= F(1, 6)
        and ledger.c3 > 0
        and ledger.C4 >= 0
        and ledger.c5 > 0
        and ledger.c6 > 0
        and 1 <= ledger.l0 <= L_SEARCH_CAP
    )
    if not invariants:
        raise VerificationFailed("ledger invariants violated")
    if not all(row["satisfied"] for row in ledger.replay(ledger.l0)):
        raise VerificationFailed("conditions do not replay at l0")
    return ledger
