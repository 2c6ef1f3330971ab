import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonsys import harmonic, linsys
from commonsys.errors import MalformedDocument, NotCentered, NotOddPrime, TooLarge
from commonsys.harmonic import (
    GroupFunction,
    Spectrum,
    character_bump,
    constant,
    coset_indicator,
    dft,
    function_from_binary,
    function_from_json,
    function_to_binary,
    function_to_json,
    indicator,
    spectral_sup,
)


def naive_dft(f: GroupFunction) -> np.ndarray:
    """O(p^2n) reference transform built from first principles."""
    p, n, size = f.p, f.n, f.size
    out = np.zeros(size, dtype=complex)
    for h in range(size):
        hd = harmonic.index_to_point(h, p, n)
        acc = 0j
        for x in range(size):
            xd = harmonic.index_to_point(x, p, n)
            dot = sum(a * b for a, b in zip(hd, xd)) % p
            acc += f.values[x] * np.exp(-2j * np.pi * dot / p)
        out[h] = acc / size
    return out


class TestMean:
    def test_constant(self):
        assert constant(3, 2, Fraction(1, 2)).mean() == 0.5

    def test_point_indicator(self):
        assert indicator(3, 1, [0]).mean() == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("member", [-1, 3, 7, 1 << 70])
    def test_indicator_member_out_of_range(self, member):
        # -1 must not wrap around to the last point through numpy indexing,
        # and a member beyond int64 is an input error, not an OverflowError
        with pytest.raises(MalformedDocument):
            indicator(3, 1, [0, member])

    def test_coset_density(self):
        f = coset_indicator(3, 2, [1, 0], 1)
        assert f.mean() == pytest.approx(1 / 3, abs=1e-15)


class TestDft:
    def test_constant_spectrum(self):
        s = dft(constant(3, 2, Fraction(1, 2)))
        assert abs(s.coeffs[0] - 0.5) < 1e-12
        assert np.max(np.abs(s.coeffs[1:])) < 1e-12

    def test_point_mass(self):
        s = dft(indicator(3, 1, [0]))
        assert np.allclose(s.coeffs, 1 / 3, atol=1e-12)

    def test_matches_naive_oracle_f5_cubed(self):
        rng = np.random.default_rng(5)
        f = GroupFunction(5, 3, rng.uniform(0, 1, 125))
        got = dft(f).coeffs
        want = naive_dft(f)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_leading_batch_axes_match_naive_oracle(self):
        rng = np.random.default_rng(6)
        stack = rng.uniform(0, 1, (2, 3, 27))
        got = harmonic._dft_rows(stack, 3, 3)
        assert got.shape == stack.shape
        for i in range(2):
            for j in range(3):
                want = naive_dft(GroupFunction(3, 3, stack[i, j]))
                assert np.max(np.abs(got[i, j] - want)) < 1e-12
        back = harmonic._idft_rows(got, 3, 3)
        assert np.max(np.abs(back - stack)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for p, n in ((3, 3), (5, 2), (7, 1)):
            f = GroupFunction(p, n, rng.uniform(0, 1, p**n))
            s = dft(f)
            assert abs(np.sum(np.abs(s.coeffs) ** 2) - np.mean(f.values**2)) < 1e-9

    def test_conjugate_symmetry_exact_indices(self):
        rng = np.random.default_rng(9)
        f = GroupFunction(5, 2, rng.uniform(0, 1, 25))
        s = dft(f)
        neg = harmonic._form_table(((4,),), 5, range(2))[0]  # the dilation by -1
        assert np.max(np.abs(s.coeffs[neg] - np.conj(s.coeffs))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(13)
        f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        g = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        mix = GroupFunction(3, 2, 2.0 * f.values - 0.5 * g.values)
        lhs = dft(mix).coeffs
        rhs = 2.0 * dft(f).coeffs - 0.5 * dft(g).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def idft(s):
    """The inverse transform of a spectrum, real part: f(x) = sum_h fhat(h) e(x.h / p)."""
    return harmonic._idft_rows(s.coeffs, s.p, s.n).real


class TestIdft:
    def test_constant_round_trip(self):
        f = constant(3, 1, Fraction(1, 2))
        assert np.allclose(idft(dft(f)), 0.5, atol=1e-12)

    def test_zero_spectrum(self):
        z = Spectrum(3, 2, np.zeros(9, dtype=complex))
        assert np.all(idft(z) == 0.0)

    def test_random_round_trip_f7_squared(self):
        rng = np.random.default_rng(3)
        f = GroupFunction(7, 2, rng.uniform(0, 1, 49))
        back = idft(dft(f))
        assert np.max(np.abs(back - f.values)) < 1e-10


class TestSpectralSup:
    def test_zero_function(self):
        assert spectral_sup(GroupFunction(3, 1, np.zeros(3))) == 0.0

    def test_coset_deviation(self):
        f = coset_indicator(3, 2, [1, 0], 0)
        g = f.centered()
        # the two coefficients at h = e1 and h = 2*e1 have modulus 1/3
        assert spectral_sup(g) == pytest.approx(1 / 3, abs=1e-12)
        got = np.abs(naive_dft(g))
        assert got.max() == pytest.approx(1 / 3, abs=1e-12)

    def test_requires_centered(self):
        with pytest.raises(NotCentered):
            spectral_sup(constant(3, 1, Fraction(1, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sup_bounded_by_inf_norm(self, seed):
        rng = np.random.default_rng(seed)
        p, n = (3, 2) if seed % 2 else (5, 1)
        f = GroupFunction(p, n, rng.uniform(0, 1, p**n))
        g = f.centered()
        sup = spectral_sup(g)
        assert sup <= np.max(np.abs(g.values)) / math.sqrt(2) + 1e-9
        assert 2 * sup**2 <= np.mean(g.values**2) + 1e-9


class TestCharacterBump:
    def test_spectrum_support(self):
        f = character_bump(5, 1, 2, 1, 0.3)
        s = dft(f).coeffs
        assert abs(s[0] - 0.5) < 1e-12
        # mass (eps/2) e(+-k/p) sits at h and -h
        assert abs(abs(s[2]) - 0.15) < 1e-12
        assert abs(abs(s[3]) - 0.15) < 1e-12
        assert abs(s[1]) < 1e-12 and abs(s[4]) < 1e-12

    @pytest.mark.parametrize("p, n", [(3, 1), (5, 2), (3, 0)])
    def test_index_range(self, p, n):
        # an index past p^n - 1 used to wrap silently onto its low n digits
        for bad in (-1, p**n, p**n + 2):
            with pytest.raises(MalformedDocument):
                character_bump(p, n, bad, 0, 0.3)
        for h in (0, p**n - 1):
            f = character_bump(p, n, h, 1, 0.3)
            assert f.values.shape == (p**n,)
        if n:
            assert not np.array_equal(
                character_bump(p, n, p**n - 1, 0, 0.3).values,
                character_bump(p, n, 0, 0, 0.3).values,
            )


def _point_dot(a, b, p):
    return sum(x * y for x, y in zip(a, b)) % p


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
class TestPointIndexing:
    """The vectorized builders against per-point `index_to_point` oracles."""

    def test_coset_indicator(self, p, n):
        rng = np.random.default_rng(p * 10 + n)
        for _ in range(4):
            coefficients = [int(c) for c in rng.integers(-p, 2 * p, n)]
            residue = int(rng.integers(-p, 2 * p))
            f = coset_indicator(p, n, coefficients, residue)
            want = [
                int(_point_dot(coefficients, harmonic.index_to_point(x, p, n), p) == residue % p)
                for x in range(p**n)
            ]
            assert f.values.tolist() == want
            assert f.exact == tuple(Fraction(v) for v in want)

    def test_character_bump_bits(self, p, n):
        for h in range(0, p**n, max(1, p**n // 5)):
            for phase in range(p):
                f = character_bump(p, n, h, phase, 0.37)
                hd = harmonic.index_to_point(h, p, n)
                want = np.array([
                    0.5 + 0.37 * np.cos(
                        2.0 * np.pi * ((_point_dot(hd, harmonic.index_to_point(x, p, n), p)
                                        + phase) % p) / p
                    )
                    for x in range(p**n)
                ])
                assert np.array_equal(f.values.view(np.int64), want.view(np.int64))

    def test_negation_permutation(self, p, n):
        # the dilation table of -1, at which the gradient kernel gathers
        want = []
        for x in range(p**n):
            neg = [(-d) % p for d in harmonic.index_to_point(x, p, n)]
            want.append(sum(d * p**i for i, d in enumerate(neg)))
        assert harmonic._form_table(((p - 1,),), p, range(n))[0].tolist() == want


class TestFiles:
    def test_json_round_trip_exact(self):
        f = GroupFunction(
            3, 1, np.array([0.5, 0.25, 1.0]), (Fraction(1, 2), Fraction(1, 4), Fraction(1))
        )
        again = function_from_json(function_to_json(f))
        assert again.exact == f.exact
        assert np.all(again.values == f.values)

    def test_json_literal_decimals(self):
        f = function_from_json('{"p": 3, "n": 1, "values": [0.1, "1/3", 1]}')
        assert f.exact == (Fraction(1, 10), Fraction(1, 3), Fraction(1))

    def test_json_errors(self):
        for text in (
            "[]",
            '{"p": 3, "n": 1}',
            '{"p": 3, "n": 1, "values": [1, 2]}',
            '{"p": 3, "n": 1, "values": [1, 2, "x"]}',
        ):
            with pytest.raises(MalformedDocument):
                function_from_json(text)

    def test_binary_round_trip(self):
        rng = np.random.default_rng(1)
        f = GroupFunction(5, 2, rng.uniform(0, 1, 25))
        blob = function_to_binary(f)
        assert blob[:4] == b"GFPN" and len(blob) == 16 + 8 * 25
        again = function_from_binary(blob)
        assert np.all(again.values == f.values)

    def test_binary_errors(self):
        with pytest.raises(MalformedDocument):
            function_from_binary(b"BAD!" + b"\x00" * 20)
        good = function_to_binary(constant(3, 1, Fraction(1, 2)))
        with pytest.raises(MalformedDocument):
            function_from_binary(good[:-8])

    def test_load_dispatch(self, tmp_path):
        f = constant(3, 1, Fraction(1, 3))
        jpath = tmp_path / "f.json"
        bpath = tmp_path / "f.gfpn"
        harmonic.save_function(f, str(jpath))
        harmonic.save_function(f, str(bpath))
        assert harmonic.load_function(str(jpath)).exact == f.exact
        assert np.all(harmonic.load_function(str(bpath)).values == f.values)


class TestCheckedSize:
    def test_cap_boundary(self):
        assert harmonic.checked_size(2, 24) == harmonic.MAX_POINTS
        with pytest.raises(TooLarge):
            harmonic.checked_size(2, 25)
        with pytest.raises(TooLarge):
            harmonic.checked_size(3, 16)
        assert harmonic.checked_size(3, 2, cap=9) == 9
        with pytest.raises(TooLarge):
            harmonic.checked_size(3, 3, cap=9)

    def test_huge_n_rejected_before_the_power(self):
        with pytest.raises(TooLarge):
            harmonic.checked_size(3, 10**6)
        with pytest.raises(TooLarge):
            GroupFunction(3, 10**6, np.zeros(1))

    def test_negative_n(self):
        with pytest.raises(MalformedDocument):
            harmonic.checked_size(3, -1)


class TestModulus:
    def test_unsupported_modulus_rejected(self):
        for p in (0, 1, 2, 4, 37):
            with pytest.raises(NotOddPrime):
                GroupFunction(p, 1, np.zeros(max(p, 1)))
            with pytest.raises(NotOddPrime):
                constant(p, 1, Fraction(1, 2))
            with pytest.raises(NotOddPrime):
                function_from_json('{"p": %d, "n": 1, "values": [0]}' % p)
            with pytest.raises(NotOddPrime):
                function_from_binary(b"GFPN" + bytes([p]) + bytes(11) + bytes(8))

    def test_every_supported_modulus_accepted(self):
        for p in linsys.SUPPORTED_PRIMES:
            assert GroupFunction(p, 1, np.zeros(p)).size == p

