import math
from fractions import Fraction

import numpy as np
import pytest

from commonsys import counting, harmonic, linsys
from commonsys.counting import (
    alon_witness,
    defect,
    t_brute,
    t_fourier,
    t_gradient,
)
from commonsys.errors import (
    DegenerateT,
    LTooSmall,
    MalformedDocument,
    MeanConstraintViolated,
    MissingL,
    TooLarge,
)
from commonsys.harmonic import GroupFunction, constant, coset_indicator, indicator

F = Fraction
PHI = linsys.preset("phi")
A4 = linsys.preset("a4")
A5 = linsys.preset("a5")


def random_rational_function(rng, p, n, q=64):
    ks = rng.integers(0, q + 1, size=p**n)
    exact = tuple(F(int(k), q) for k in ks)
    return GroupFunction(p, n, np.array([float(v) for v in exact]), exact)


def random_system(rng, p, n, cap=10**5, max_t=9):
    while True:
        m = int(rng.integers(1, 3))
        max_d = 0
        while (p**n) ** (max_d + 1) <= cap and m + max_d + 1 <= max_t:
            max_d += 1
        if max_d == 0:
            continue
        d = int(rng.integers(1, max_d + 1))
        rows = rng.integers(0, p, size=(m, m + d)).tolist()
        try:
            return linsys.LinearSystem.from_matrix(p, rows)
        except Exception:
            continue


class TestBrute:
    def test_a4_point_indicator(self):
        # only the all-zero solution lies in {0}: 1 of 27 kernel points
        assert t_brute(A4, indicator(3, 1, [0])) == F(1, 27)

    def test_all_ones(self):
        assert t_brute(PHI, constant(3, 1, 1)) == 1

    def test_constant_is_power(self):
        for name in ("a4", "schur", "phi"):
            s = linsys.preset(name)
            assert t_brute(s, constant(3, 1, F(1, 3))) == F(1, 3) ** s.t

    def test_too_large(self):
        with pytest.raises(TooLarge):
            t_brute(PHI, constant(3, 4, F(1, 2)))

    def test_object_path_high_precision_denominators(self):
        # denominators large enough to overflow the int64 fast path
        exact = tuple(F(k, 10**6) for k in (999999, 123457, 500001))
        f = GroupFunction(3, 1, np.array([float(v) for v in exact]), exact)
        got = t_brute(linsys.preset("schur"), f)
        ref = sum(
            exact[x] * exact[y] * exact[(x + y) % 3]
            for x in range(3)
            for y in range(3)
        ) / 9
        assert got == ref


class TestFourier:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            p = int(rng.choice([3, 5]))
            n = int(rng.integers(1, 3))
            s = random_system(rng, p, n)
            f = random_rational_function(rng, p, n)
            tb = t_brute(s, f)
            tf = t_fourier(s, f)
            assert abs(tf - float(tb)) <= 1e-9 * max(1.0, abs(float(tb)))

    def test_quad_density_is_fourth_power_sum(self):
        rng = np.random.default_rng(4)
        f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        g = f.centered()
        coeffs = harmonic.dft(g).coeffs
        assert t_fourier(A4, g) == pytest.approx(np.sum(np.abs(coeffs) ** 4), abs=1e-12)
        assert t_fourier(A4, g) >= -1e-12

    def test_quintic_density_value_and_imag(self):
        rng = np.random.default_rng(6)
        f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        g = f.centered()
        coeffs = harmonic.dft(g).coeffs
        want = np.sum(np.abs(coeffs) ** 4 * coeffs)
        (columns,) = counting._block_columns(A5)
        (got,) = counting._block_sums(columns, coeffs[None], 3, 2)
        assert abs(got.imag) <= 1e-9
        assert got.real == pytest.approx(want.real, abs=1e-12)

    def test_constant_half(self):
        assert t_fourier(PHI, constant(3, 1, F(1, 2))) == pytest.approx(2**-9, abs=1e-12)

    def test_quintic_bounded_by_spectral_sup(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
            g = f.centered()
            lhs = abs(t_fourier(A5, g))
            rhs = harmonic.spectral_sup(g) * t_fourier(A4, g)
            assert lhs <= rhs + 1e-9

    def test_rank_one_decomposition(self):
        rng = np.random.default_rng(10)
        f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        alpha = f.mean()
        g = f.centered()
        assert t_fourier(A4, f) == pytest.approx(alpha**4 + t_fourier(A4, g), abs=1e-9)

    def test_pair_identity_in_mean_and_deviation(self):
        # T(f) + T(1-f) decomposes through the two block densities
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = GroupFunction(3, 1, rng.uniform(0, 1, 3))
            alpha = f.mean()
            g = f.centered()
            t4, t5 = t_fourier(A4, g), t_fourier(A5, g)
            lhs = t_fourier(PHI, f) + t_fourier(PHI, f.complement())
            rhs = (
                alpha**9
                + (1 - alpha) ** 9
                + (alpha**5 + (1 - alpha) ** 5) * t4
                + (alpha**4 - (1 - alpha) ** 4) * t5
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_mismatched_modulus(self):
        with pytest.raises(MalformedDocument):
            t_fourier(PHI, constant(5, 1, F(1, 2)))


def pair_closed_form(f):
    """T_phi(f) = T_a4(f) T_a5(f) = (sum |fhat|^4) * Re(sum |fhat|^4 fhat)."""
    coeffs = harmonic.dft(f).coeffs
    quartic = np.abs(coeffs) ** 4
    return float(np.sum(quartic)) * float(np.sum(quartic * coeffs).real)


class TestProduct:
    """`t_fourier` factors over variable-disjoint blocks; these check the
    product against closed forms and the unfactored enumeration."""

    def test_constant_half(self):
        assert t_fourier(PHI, constant(3, 1, F(1, 2))) == pytest.approx(
            (1 / 16) * (1 / 32), abs=1e-12
        )

    def test_coset_kills_quintic_block(self):
        f = coset_indicator(3, 1, [1], 1)
        assert t_fourier(A5, f) == pytest.approx(0.0, abs=1e-12)
        assert t_fourier(A4, f) > 0
        assert t_fourier(PHI, f) == pytest.approx(0.0, abs=1e-12)
        assert t_brute(PHI, f) == 0

    def test_single_block_equals_fourier(self):
        rng = np.random.default_rng(14)
        f = GroupFunction(3, 1, rng.uniform(0, 1, 3))
        (columns,) = counting._block_columns(A5)
        (block,) = counting._block_sums(columns, harmonic.dft(f).coeffs[None], 3, 1)
        assert t_fourier(A5, f) == block.real
        assert t_fourier(PHI, f) == pytest.approx(t_fourier(A4, f) * t_fourier(A5, f), abs=1e-12)

    def test_matches_closed_form_on_pair(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
            assert t_fourier(PHI, f) == pytest.approx(pair_closed_form(f), abs=1e-12)

    def test_pair_at_n9_beyond_unfactored_cap(self):
        # the unfactored row space would have 3^18 > ENUMERATION_CAP terms
        assert 3**18 > counting.ENUMERATION_CAP
        rng = np.random.default_rng(17)
        f = GroupFunction(3, 9, rng.uniform(0, 1, 3**9))
        want = pair_closed_form(f)
        assert t_fourier(PHI, f) == pytest.approx(want, rel=1e-12, abs=1e-15)
        # the gradient integrates to the first variation along a constant shift
        grad = t_gradient(PHI, f).values
        eps = 1e-6
        plus = pair_closed_form(GroupFunction(3, 9, f.values + eps))
        minus = pair_closed_form(GroupFunction(3, 9, f.values - eps))
        assert grad.mean() == pytest.approx((plus - minus) / (2 * eps), rel=1e-6)

    def test_free_variable_blocks_contribute_mean(self):
        ext = linsys.add_free_variables(linsys.preset("schur"), 2)
        rng = np.random.default_rng(18)
        f = GroupFunction(3, 1, rng.uniform(0, 1, 3))
        expect = t_fourier(linsys.preset("schur"), f) * f.mean() ** 2
        assert t_fourier(ext, f) == pytest.approx(expect, abs=1e-12)
        assert t_fourier(ext, f) == pytest.approx(float(t_brute(ext, f)), abs=1e-12)

    def test_brute_is_unfactored(self, monkeypatch):
        # the exact oracle never goes through the block decomposition
        monkeypatch.setattr(counting, "factor_disjoint", None)
        f = constant(3, 1, F(1, 2))
        assert t_brute(PHI, f) == F(1, 2**9)


class TestGradient:
    def test_constant_function(self):
        g = t_gradient(A4, constant(3, 1, F(1, 3)))
        assert np.allclose(g.values, 4 * (1 / 3) ** 3, atol=1e-12)

    def test_zero_function(self):
        g = t_gradient(A4, constant(3, 1, 0))
        assert np.allclose(g.values, 0.0, atol=1e-15)

    def test_finite_difference_contract(self):
        rng = np.random.default_rng(20)
        f = GroupFunction(3, 2, rng.uniform(0.1, 0.9, 9))
        grad = t_gradient(A4, f).values
        size = f.size
        eps = 1e-5
        for x in range(size):
            delta = np.zeros(size)
            delta[x] = 1.0
            plus = t_fourier(A4, GroupFunction(3, 2, f.values + eps * delta))
            minus = t_fourier(A4, GroupFunction(3, 2, f.values - eps * delta))
            fd = (plus - minus) / (2 * eps)
            assert fd == pytest.approx(grad[x] / size, rel=1e-6, abs=1e-12)

    def test_finite_difference_pair_n2(self):
        rng = np.random.default_rng(23)
        f = GroupFunction(3, 2, rng.uniform(0.2, 0.8, 9))
        grad = t_gradient(PHI, f).values
        eps = 1e-5
        for x in range(9):
            delta = np.zeros(9)
            delta[x] = 1.0
            plus = t_fourier(PHI, GroupFunction(3, 2, f.values + eps * delta))
            minus = t_fourier(PHI, GroupFunction(3, 2, f.values - eps * delta))
            fd = (plus - minus) / (2 * eps)
            assert fd == pytest.approx(grad[x] / 9, rel=1e-6, abs=1e-12)

    def test_free_variable_blocks(self):
        # a zero-row block is one lambda-term: its factor is mean^width
        ext = linsys.add_free_variables(linsys.preset("schur"), 2)
        rng = np.random.default_rng(25)
        f = GroupFunction(3, 1, rng.uniform(0.2, 0.8, 3))
        grad = t_gradient(ext, f).values
        eps = 1e-6
        for x in range(3):
            delta = np.zeros(3)
            delta[x] = 1.0
            plus = t_fourier(ext, GroupFunction(3, 1, f.values + eps * delta))
            minus = t_fourier(ext, GroupFunction(3, 1, f.values - eps * delta))
            assert (plus - minus) / (2 * eps) == pytest.approx(grad[x] / 3, rel=1e-6)

    def test_finite_difference_rank_two(self):
        rng = np.random.default_rng(22)
        f = GroupFunction(3, 1, rng.uniform(0.2, 0.8, 3))
        grad = t_gradient(PHI, f).values
        eps = 1e-5
        for x in range(3):
            delta = np.zeros(3)
            delta[x] = 1.0
            plus = t_fourier(PHI, GroupFunction(3, 1, f.values + eps * delta))
            minus = t_fourier(PHI, GroupFunction(3, 1, f.values - eps * delta))
            fd = (plus - minus) / (2 * eps)
            assert fd == pytest.approx(grad[x] / 3, rel=1e-6, abs=1e-12)


class TestBatchedRows:
    """The row-batched kernel behind `t_fourier`/`t_gradient` and the defects."""

    @staticmethod
    def _systems(p):
        return (
            linsys.preset("a4", p),
            linsys.preset("phi", p),
            linsys.add_free_variables(linsys.preset("schur", p), 2),  # a block with no rows
        )

    def test_pair_batch_matches_one_row(self):
        rng = np.random.default_rng(40)
        for p in (3, 5):
            for n in (1, 2, 3):
                f = GroupFunction(p, n, rng.uniform(0, 1, p**n))
                g = GroupFunction(p, n, rng.uniform(0, 1, p**n))
                rows = np.stack([f.values, 1.0 - f.values, g.values])
                singles = (f, f.complement(), g)
                for system in self._systems(p):
                    ts = counting._t_rows(system, rows, n)
                    grads, gts = counting._gradient_rows(system, rows, n)
                    for r, h in enumerate(singles):
                        want = t_fourier(system, h)
                        assert ts[r] == pytest.approx(want, abs=1e-12)
                        assert gts[r] == pytest.approx(want, abs=1e-12)
                        one = t_gradient(system, h).values
                        assert np.max(np.abs(grads[r] - one)) <= 1e-12

    def test_row_bits_independent_of_stack(self):
        # the optimizer batches any number of restarts, so a row's T and G
        # must be the same bits whatever else shares its stack
        rng = np.random.default_rng(42)
        for p in (3, 5):
            for n in (1, 2, 3):
                rows = rng.uniform(0, 1, (5, p**n))
                for system in self._systems(p):
                    ts = counting._t_rows(system, rows, n)
                    grads, gts = counting._gradient_rows(system, rows, n)
                    for r in (1, 2, 4):
                        assert np.array_equal(counting._t_rows(system, rows[:r], n), ts[:r])
                        got, got_ts = counting._gradient_rows(system, rows[:r], n)
                        assert np.array_equal(got, grads[:r])
                        assert np.array_equal(got_ts, gts[:r])

    def test_multi_chunk_tables_agree(self, monkeypatch):
        rng = np.random.default_rng(41)
        f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        exact = random_rational_function(rng, 3, 1)
        rows = counting._pair_rows(f)
        cases = [(s, counting._t_rows(s, rows, 2), counting._gradient_rows(s, rows, 2))
                 for s in self._systems(3)]
        brute = t_brute(PHI, exact)
        monkeypatch.setattr(counting, "CHUNK", 4)  # 9 lambda-terms per block: 3 chunks
        for system, ts, (grads, gts) in cases:
            assert np.allclose(counting._t_rows(system, rows, 2), ts, rtol=0, atol=1e-15)
            got, got_ts = counting._gradient_rows(system, rows, 2)
            assert np.allclose(got, grads, rtol=0, atol=1e-14)
            assert np.allclose(got_ts, gts, rtol=0, atol=1e-15)
        assert t_brute(PHI, exact) == brute

    def test_index_tables_cached_read_only_and_bounded(self, monkeypatch):
        cache = counting._index_table
        f = GroupFunction(3, 2, np.full(9, 0.5))
        t_fourier(PHI, f)
        before = cache.cache_info()
        t_fourier(PHI, f)
        t_gradient(PHI, f)
        after = cache.cache_info()
        assert after.misses == before.misses and after.hits > before.hits
        (columns, _) = counting._block_columns(PHI)
        for table in counting._form_indices(columns, 3, 2, "p^(nm)"):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
        # a long kernel scan streams past the bounded cache and pins nothing
        monkeypatch.setattr(counting, "CHUNK", 64)
        t_brute(PHI, constant(3, 1, F(1, 3)))  # 3^7 tuples: 35 chunks
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert (info.misses, info.currsize) == (after.misses, after.currsize)
        tables = list(counting._form_indices(PHI.kernel, 3, 1, "p^(nD)"))
        assert len(tables) == 35 and not any(t.flags.writeable for t in tables)


class TestDefect:
    def test_common_balanced_is_zero_exact(self):
        rep = defect(PHI, constant(3, 1, F(1, 2)), "common", method="brute")
        assert rep.value == 0

    def test_sidorenko_coset_witness(self):
        rep = defect(PHI, coset_indicator(3, 1, [1], 1), "sidorenko", method="brute")
        assert rep.value == -F(1, 3**9)
        assert rep.t_f == 0
        assert rep.violated()

    def test_alon_balanced_three_term(self):
        rep = defect(
            linsys.preset("ap3"), constant(3, 1, F(1, 2)), "alon", l=1, method="brute"
        )
        assert rep.value == 0

    def test_missing_l(self):
        with pytest.raises(MissingL):
            defect(PHI, constant(3, 1, F(1, 2)), "alon")

    def test_geometric_needs_balanced_mean(self):
        with pytest.raises(MeanConstraintViolated):
            defect(PHI, constant(3, 1, F(1, 3)), "geometric")

    def test_geometric_balanced(self):
        rep = defect(PHI, constant(3, 1, F(1, 2)), "geometric", method="brute")
        assert rep.value == 0

    def test_prevalence_records_density(self):
        f = coset_indicator(3, 1, [1], 1)
        rep = defect(linsys.preset("schur"), f, "prevalence", method="brute")
        assert rep.value == 0 and rep.alpha == F(1, 3)

    def test_requires_unit_box(self):
        with pytest.raises(MalformedDocument):
            defect(PHI, constant(3, 1, 2), "common")

    def test_value_recomputable_from_fields(self):
        rng = np.random.default_rng(24)
        f = GroupFunction(3, 1, rng.uniform(0, 1, 3))
        rep = defect(PHI, f, "alon", l=3)
        redo = (
            rep.alpha**3 * rep.t_f + (1 - rep.alpha) ** 3 * rep.t_1mf - 2.0 ** (1 - rep.t - 3)
        )
        assert rep.value == pytest.approx(redo, abs=1e-15)

    def test_huge_l_is_cheap(self):
        rep = defect(PHI, constant(3, 1, F(1, 2)), "alon", l=10**6, method="brute")
        # exact closed form: 2 * (1/2)^l * 2^-9 - 2^(1-9-l) = 0
        assert rep.value == 0

    def test_exact_power_is_capped(self):
        third = constant(3, 1, F(1, 3))
        with pytest.raises(TooLarge):
            defect(PHI, third, "alon", l=10**9, method="brute")
        # the float route has no such cap: every term underflows to 0
        assert defect(PHI, third, "alon", l=10**9).value == 0.0

    def test_free_variable_formula_matches_enlarged_system(self):
        rng = np.random.default_rng(26)
        s = linsys.preset("ap3")
        for l in (1, 2):
            enlarged = linsys.add_free_variables(s, l)
            f = random_rational_function(rng, 3, 1)
            via_formula = defect(s, f, "alon", l=l, method="brute")
            alpha = f.exact_mean()
            t_f = t_brute(enlarged, f)
            t_1mf = t_brute(enlarged, f.complement())
            direct = t_f + t_1mf - F(2) ** (1 - enlarged.t)
            assert via_formula.value == direct

    def test_report_serialization(self):
        rep = defect(PHI, constant(3, 1, F(1, 2)), "common", method="brute")
        d = rep.to_dict()
        assert d["exact"] is True
        assert d["value"] == "0"
        assert d["system_digest"] and d["function_digest"] and d["tool_version"]

    def test_pair_common_exhaustive_on_value_grid(self):
        # every colouring with values in {0, 1/4, 1/2, 3/4, 1} on F_3 has
        # nonnegative common defect, exactly; the balanced constant is tight
        from itertools import product as iproduct

        levels = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        worst = None
        for vals in iproduct(levels, repeat=3):
            f = GroupFunction(3, 1, np.array([float(v) for v in vals]), tuple(vals))
            value = defect(PHI, f, "common", method="brute").value
            assert value >= 0, vals
            if worst is None or value < worst:
                worst = value
        assert worst == 0

    def test_character_bump_defect_phase_table(self):
        # for the quadruple equation over F_5 the defect of a bump at
        # frequency h with amplitude eps is 4 (eps/2)^4 cos(8 pi k / 5)
        s5 = linsys.LinearSystem.from_matrix(5, [[1, 1, 1, 1]])
        eps = 0.45
        for k in range(5):
            bump = harmonic.character_bump(5, 1, 1, k, eps)
            value = defect(s5, bump, "common").value
            predicted = 4 * (eps / 2) ** 4 * math.cos(2 * math.pi * 4 * k / 5)
            assert value == pytest.approx(predicted, abs=1e-12)


class TestAlonWitness:
    def _balanced(self, rng, p, n):
        from commonsys.optimize import project_box_mean

        return project_box_mean(rng.uniform(0, 1, p**n), p, n, alpha=0.5)

    def test_symmetric_case_returns_input(self):
        f = constant(3, 1, F(1, 2))
        out = alon_witness(f, PHI, l=10)
        assert np.all(out.values == f.values)

    def test_contract_on_random_inputs(self):
        rng = np.random.default_rng(30)
        done = 0
        while done < 25:
            p, n = (3, int(rng.integers(1, 3)))
            f = self._balanced(rng, p, n)
            t_f = t_fourier(PHI, f)
            t_1mf = t_fourier(PHI, f.complement())
            if min(t_f, t_1mf) <= 0:
                continue
            c = 0.5 * math.log(max(t_f, t_1mf) / min(t_f, t_1mf))
            l = max(1, math.ceil(45 * c / 4)) + int(rng.integers(0, 5))
            out = alon_witness(f, PHI, l)
            assert out.in_unit_box(tol=1e-12)
            assert out.mean() == pytest.approx(0.5 + c / (2 * l), abs=1e-9)
            base = f if t_1mf >= t_f else f.complement()
            support = int((base.values <= 0.9).sum())
            assert support >= (4 / 9) * p**n
            bump = np.max(out.values - base.values)
            assert bump <= 0.1 + 1e-12
            done += 1

    def test_threshold_ties_join_the_support(self):
        f = GroupFunction(3, 2, np.array([0.9, 0.9, 1.0, 1.0, 0.7, 0.0, 0.0, 0.0, 0.0]))
        t_f = t_fourier(PHI, f)
        t_1mf = t_fourier(PHI, f.complement())
        base = f if t_1mf >= t_f else f.complement()
        out = alon_witness(f, PHI, 10)
        # every point of the base at or below 9/10 receives the bump
        moved = out.values > base.values
        assert np.array_equal(moved, base.values <= 0.9)

    def test_mean_must_be_balanced(self):
        with pytest.raises(MeanConstraintViolated):
            alon_witness(constant(3, 1, F(1, 3)), PHI, 10)

    def test_degenerate_density(self, monkeypatch):
        # a mean-1/2 function with zero pair density cannot exist at these
        # sizes (half the mass forces solutions), so force the guard
        monkeypatch.setattr(counting, "_t_rows", lambda s, rows, n: np.zeros(len(rows)))
        with pytest.raises(DegenerateT):
            alon_witness(constant(3, 1, F(1, 2)), PHI, 10)

    def test_l_too_small(self):
        # strongly imbalanced mean-1/2 colouring: c ~ 0.112, 45c/4 ~ 1.26
        f = GroupFunction(3, 2, np.array([1, 1, 1, 1, 0.5, 0, 0, 0, 0]))
        t_f = t_fourier(PHI, f)
        t_1mf = t_fourier(PHI, f.complement())
        c = 0.5 * abs(math.log(max(t_f, t_1mf) / min(t_f, t_1mf)))
        assert 45 * c / 4 > 1
        with pytest.raises(LTooSmall):
            alon_witness(f, PHI, 1)
        out = alon_witness(f, PHI, 2)
        assert out.in_unit_box(tol=1e-12)
