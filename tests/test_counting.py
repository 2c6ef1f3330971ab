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


def naive_points(forms, p, n):
    """The point of F_p^n that each form takes at each parameter tuple, by
    plain enumeration in digit-position-major order: tuple digit t is
    digit t // k of parameter t % k (k = len(forms[0])), least significant
    first, and adds c_(t % k) y_t to point digit t // k.  Point index
    sum_d x_d p^d; points add through a table built from digit lists."""
    size = p**n
    digits = [[(x // p**d) % p for d in range(n)] for x in range(size)]
    index = {tuple(d): x for x, d in enumerate(digits)}
    add = [[index[tuple((a + b) % p for a, b in zip(da, db))] for db in digits] for da in digits]
    k = len(forms[0])
    rows = []
    for form in forms:
        row = [0]  # over the high tuple digits first; tuple digit 0 varies fastest
        for t in reversed(range(n * k)):
            d, j = divmod(t, k)
            row = [add[acc][form[j] * y % p * p**d] for acc in row for y in range(p)]
        rows.append(row)
    return rows


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


def loo_block_gradient(columns, fhat, p, n):
    """The per-column kernel that the dilation kernel replaced, kept as its
    oracle: one gather of fhat per column at the block's index tables,
    leave-one-out products from prefix and suffix `cumprod` scans, and a
    `bincount` scatter onto the frequencies they omit.  Returns the block
    sum of each row and dB/dfhat(h) at every frequency h."""
    rows, size = fhat.shape
    offsets = (np.arange(rows) * size)[:, None, None]
    sums = np.zeros(rows, dtype=np.complex128)
    acc = np.zeros(rows * size, dtype=np.complex128)
    for table in counting._form_indices(columns, p, n, "p^(nm)"):
        gathered = fhat[:, table]
        prefix = np.empty_like(gathered)
        prefix[:, 0] = 1.0
        np.cumprod(gathered[:, :-1], axis=1, out=prefix[:, 1:])
        suffix = np.empty_like(gathered)
        suffix[:, -1] = 1.0
        np.cumprod(gathered[:, :0:-1], axis=1, out=suffix[:, -2::-1])
        sums += (prefix[:, -1] * gathered[:, -1]).sum(axis=-1)
        loo = (prefix * suffix).ravel()
        where = (table + offsets).ravel()
        acc += np.bincount(where, loo.real, rows * size)
        acc += 1j * np.bincount(where, loo.imag, rows * size)
    return sums, acc.reshape(rows, size)


def loo_rows(system, values, n):
    """(G, T) of each row of `values` by the per-column oracle kernel, the
    blocks joined by the product rule as in `counting._gradient_rows`."""
    p = system.p
    fhat = harmonic._dft_rows(values, p, n)
    acc = np.zeros(fhat.shape, dtype=np.complex128)
    t_prev = np.ones(fhat.shape[0], dtype=np.complex128)
    for columns in counting._block_columns(system):
        t_b, acc_b = loo_block_gradient(columns, fhat, p, n)
        acc = acc * t_b[:, None] + t_prev[:, None] * acc_b
        t_prev = t_prev * t_b
    negation = harmonic._form_table(((p - 1,),), p, range(n))[0]
    return harmonic._idft_rows(acc[:, negation], p, n).real, t_prev.real


def kernel_rows(system, values, n):
    """(T, G, T) of each row of an (R, p^n) stack of functions, through
    its spectra: T from `counting._t_rows`, then G and T from
    `counting._gradient_rows`, G inverted as `t_gradient` inverts it."""
    fhat = harmonic._dft_rows(values, system.p, n)
    ghat, gts = counting._gradient_rows(system, fhat, n)
    return counting._t_rows(system, fhat, n), harmonic._idft_rows(ghat, system.p, n).real, gts


# one block with m = 2 and three directions, (1,0) and (0,1) holding two
# coefficients each: columns (1,0), (2,0), (0,1), (0,3), (1,1)
COUPLED = linsys.LinearSystem.from_matrix(5, [[1, 2, 0, 0, 1], [0, 0, 1, 3, 1]])


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
        (got,) = counting._block_sums(columns, {1: coeffs[None]}, 3, 2)
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
        (block,) = counting._block_sums(columns, {1: harmonic.dft(f).coeffs[None]}, 3, 1)
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
                    ts, grads, gts = kernel_rows(system, rows, n)
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
                    ts, grads, gts = kernel_rows(system, rows, n)
                    for r in (1, 2, 4):
                        got_t, got, got_ts = kernel_rows(system, rows[:r], n)
                        assert np.array_equal(got_t, ts[:r])
                        assert np.array_equal(got, grads[:r])
                        assert np.array_equal(got_ts, gts[:r])

    def test_complement_spectrum_is_the_transform_of_the_complement(self):
        # (1 - f)^ = e_0 - f^ holds exactly; in floats the two sides agree
        # to a few ulps of the largest coefficient, 1
        rng = np.random.default_rng(46)
        for p, n in ((3, 1), (3, 2), (3, 4), (5, 2), (7, 2)):
            rows = rng.uniform(0, 1, (4, p**n))
            spectra = counting._spectra(rows, p, n, True)
            assert np.array_equal(spectra[:4], harmonic._dft_rows(rows, p, n))
            assert np.array_equal(counting._spectra(rows, p, n, False), spectra[:4])
            want = harmonic._dft_rows(1.0 - rows, p, n)
            assert np.max(np.abs(spectra[4:] - want)) <= 4 * np.finfo(np.float64).eps

    def test_strided_stack_rows_match_their_batch_of_one(self):
        # the lambda-sums are plain sums along C-contiguous rows; a strided
        # stack of functions reaches them only as the fresh spectra of its
        # forward transform, so each row keeps its batch-of-one bits
        rng = np.random.default_rng(45)
        for p, n in ((3, 2), (3, 3), (5, 2)):
            wide = rng.uniform(0, 1, (8, 2 * p**n))
            strided = (wide[::2, : p**n], np.asfortranarray(wide[:4, : p**n]), wide[4:, ::2])
            for system in self._systems(p):
                for prop, l in (("common", None), ("sidorenko", None), ("alon", 3)):
                    for rows in strided:
                        assert not rows.flags.c_contiguous
                        assert counting._spectra(rows, p, n, True).flags.c_contiguous
                        values = counting._defect_rows(system, prop, l, rows, n)
                        grads = counting._defect_gradient(system, prop, l, rows, n)
                        ts, gs, gts = kernel_rows(system, rows, n)
                        for r, row in enumerate(rows):
                            one = np.array(row)[None]
                            assert counting._defect_rows(system, prop, l, one, n)[0] == values[r]
                            got = counting._defect_gradient(system, prop, l, one, n)[0]
                            assert np.array_equal(got, grads[r])
                            got_t, got_g, got_gt = kernel_rows(system, one, n)
                            assert (got_t[0], got_gt[0]) == (ts[r], gts[r])
                            assert np.array_equal(got_g[0], gs[r])

    def test_multi_chunk_tables_agree(self, monkeypatch):
        rng = np.random.default_rng(41)
        f = GroupFunction(3, 2, rng.uniform(0, 1, 9))
        exact = random_rational_function(rng, 3, 1)
        rows = np.stack([f.values, 1.0 - f.values])
        cases = [(s, kernel_rows(s, rows, 2)) for s in self._systems(3)]
        brute = t_brute(PHI, exact)
        monkeypatch.setattr(counting, "CHUNK", 4)  # 9 lambda-terms per block: 3 chunks
        for system, (ts, grads, gts) in cases:
            got_t, got, got_ts = kernel_rows(system, rows, 2)
            assert np.allclose(got_t, ts, rtol=0, atol=1e-15)
            assert np.allclose(got, grads, rtol=0, atol=1e-14)
            assert np.allclose(got_ts, gts, rtol=0, atol=1e-15)
        assert t_brute(PHI, exact) == brute

    def test_index_tables_cached_read_only_and_bounded(self, monkeypatch):
        cache = counting._index_table
        f = GroupFunction(3, 2, np.full(9, 0.5))
        t_fourier(PHI, f)
        t_gradient(PHI, f)
        before = cache.cache_info()
        built, handed = [], []
        form_table = counting._form_table
        monkeypatch.setattr(counting, "_form_table", lambda *a: built.append(a) or form_table(*a))
        monkeypatch.setattr(counting, "_index_table", lambda *a: handed.append(cache(*a)) or handed[-1])
        # repeat evaluations on phi build no table: its dilations are cached
        t_fourier(PHI, f)
        t_gradient(PHI, f)
        assert built == [] and handed and cache.cache_info().misses == before.misses
        # every table the cache hands out, to a rank-1 or a wider block, is read-only
        rng = np.random.default_rng(43)
        t_gradient(COUPLED, GroupFunction(5, 1, rng.uniform(0, 1, 5)))
        assert any(table.shape[0] == 3 for table in handed)  # the coupled block's directions
        for table in handed:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
        monkeypatch.undo()
        # a long kernel scan streams past the bounded cache and pins nothing
        after = cache.cache_info()
        monkeypatch.setattr(counting, "CHUNK", 64)
        t_brute(PHI, constant(3, 1, F(1, 3)))  # 3^7 tuples, 54 a chunk
        tables = list(counting._form_indices(PHI.kernel, 3, 1, "p^(nD)"))
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert (info.misses, info.currsize) == (after.misses, after.currsize)
        assert len(tables) > 1 and all(t.shape[1] <= 64 for t in tables)
        whole = counting._index_table.__wrapped__(PHI.kernel, 3, 1)
        assert not whole.flags.writeable
        assert np.array_equal(np.concatenate(tables, axis=1), whole)


class TestDilationKernel:
    """The row-space kernel against the per-column oracle `loo_rows`, and
    what it no longer does."""

    # the F_5 quadruple; a single equation whose coefficients include p - 1
    # twice; a4 and phi at p = 3 and 5; free variables beside schur, a block
    # with no rows; a block of one column
    SYSTEMS = [
        linsys.LinearSystem.from_matrix(5, [[1, 1, 1, 1]]),
        linsys.LinearSystem.from_matrix(7, [[1, 6, 2, 6, 3]]),
        linsys.preset("a4", 3),
        linsys.preset("a4", 5),
        PHI,
        linsys.preset("phi", 5),
        linsys.add_free_variables(linsys.preset("schur"), 2),
        linsys.LinearSystem.from_matrix(3, [[1, 0, 0], [0, 1, 1]]),
    ]

    @staticmethod
    def _check(system, n, rng):
        rows = rng.uniform(0, 1, (3, system.p**n))
        want_g, want_t = loo_rows(system, rows, n)
        ts, grads, gts = kernel_rows(system, rows, n)
        assert np.max(np.abs(ts - want_t) / np.abs(want_t)) <= 1e-12
        assert np.max(np.abs(gts - want_t) / np.abs(want_t)) <= 1e-12
        assert np.max(np.abs(grads - want_g)) <= 1e-12 * np.max(np.abs(want_g))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: str(s.p) + ":" + str(s.matrix))
    def test_matches_the_per_column_oracle(self, system, n):
        self._check(system, n, np.random.default_rng([system.p, system.t, n]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coupled_block_matches_the_per_column_oracle(self, n):
        self._check(COUPLED, n, np.random.default_rng([5, n]))

    def test_coupled_block_streams(self, monkeypatch):
        # 25^2 lambda-tuples in chunks of 16, and dilation tables past CHUNK
        rng = np.random.default_rng(44)
        rows = rng.uniform(0, 1, (3, 25))
        want = kernel_rows(COUPLED, rows, 2)
        monkeypatch.setattr(counting, "CHUNK", 16)
        assert len(list(counting._form_indices(((1, 0), (0, 1), (1, 1)), 5, 2, "p^(nm)"))) > 1
        got = kernel_rows(COUPLED, rows, 2)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        self._check(COUPLED, 2, rng)

    def test_block_plan_groups_columns_by_direction(self):
        (columns,) = counting._block_columns(COUPLED)
        directions, groups = counting._block_plan(columns, 5)
        assert directions == ((1, 0), (0, 1), (1, 1))
        assert groups == (((1, 1), (2, 1)), ((1, 1), (3, 1)), ((1, 1),))
        a4, a5 = counting._block_columns(PHI)
        assert counting._block_plan(a4, 3) == (((1,),), (((1, 2), (2, 2)),))
        assert counting._block_plan(a5, 3) == (((1,),), (((1, 3), (2, 2)),))

    def test_rank_one_gradient_neither_scans_nor_scatters(self, monkeypatch):
        calls = []
        for name in ("bincount", "cumprod"):
            real = getattr(np, name)
            monkeypatch.setattr(
                np, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k)
            )
        rng = np.random.default_rng(45)
        t_gradient(PHI, GroupFunction(3, 2, rng.uniform(0, 1, 9)))
        assert calls == []
        # a wider block scatters once per direction, real and imaginary part
        t_gradient(COUPLED, GroupFunction(5, 1, rng.uniform(0, 1, 5)))
        assert calls == ["bincount"] * 6


class TestCoupledBlock:
    """T and G of COUPLED against exact enumeration and finite differences."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_brute(self, n):
        rng = np.random.default_rng([46, n])
        f = random_rational_function(rng, 5, n)
        assert t_fourier(COUPLED, f) == pytest.approx(float(t_brute(COUPLED, f)), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_finite_difference(self, n):
        rng = np.random.default_rng([47, n])
        size = 5**n
        f = GroupFunction(5, n, rng.uniform(0.2, 0.8, size))
        grad = t_gradient(COUPLED, f).values
        eps = 1e-5
        for x in range(size):
            delta = np.zeros(size)
            delta[x] = 1.0
            plus = t_fourier(COUPLED, GroupFunction(5, n, f.values + eps * delta))
            minus = t_fourier(COUPLED, GroupFunction(5, n, f.values - eps * delta))
            fd = (plus - minus) / (2 * eps)
            assert fd == pytest.approx(grad[x] / size, rel=1e-6, abs=1e-12)


def surjection_index(rng, p, k, n):
    """For a random linear map pi: F_p^n -> F_p^k of rank k (checked mod p
    by `linsys._rref_mod_p`), the index of pi(x) at every point x, by plain
    digit arithmetic: g o pi has values g.values[index]."""
    while True:
        matrix = rng.integers(0, p, size=(k, n))
        if len(linsys._rref_mod_p(matrix.tolist(), p)[1]) == k:
            break
    digits = (np.arange(p**n)[:, None] // p ** np.arange(n)) % p
    return (digits @ matrix.T % p) @ p ** np.arange(k)


class TestLift:
    """For a surjective linear pi: F_p^n -> F_p^k, T_n(g o pi) = T_k(g) and
    G_(g o pi) = G_g o pi, as pi maps the solutions over F_p^n uniformly
    onto those over F_p^k.  So the kernel is checked against exact
    enumeration at k = 2 up to the n where searches run.  An invertible
    pi (k = n) is a bijection of the solutions: T(f o A) = T(f) and
    G_(f o A) = G_f o A for A in GL_n(F_p)."""

    SYSTEMS = [
        PHI,
        linsys.LinearSystem.from_matrix(3, np.random.default_rng(48).integers(1, 3, (1, 6)).tolist()),
    ]
    # one connected rank-2 block of four directions, (1, 2) with two
    # coefficients: at n = 6 its 3^12 lambda-tuples pass CHUNK, so the
    # streamed tables and the bincount scatter run
    WIDE = linsys.LinearSystem.from_matrix(3, [[1, 2, 0, 1, 1], [0, 1, 1, 2, 1]])

    PROPERTIES = (("geometric", None), ("alon", 3), ("sidorenko", None))

    @staticmethod
    def _chain_scale(system, prop, l, g):
        """The largest term the defect gradient at g sums, |dD/dalpha|,
        |dD/dT(f)| max|G_f| or |dD/dT(1-f)| max|G_(1-f)|: the float
        gradient is good to a few ulps of it, not of a sum that cancels
        (sidorenko's G - t alpha^(t-1) is ~4e-3 from terms of ~1.2 here)."""
        c = g.complement()
        d_f, d_c, d_alpha = counting.defect_partials(
            prop, np.array(t_fourier(system, g)), np.array(t_fourier(system, c)),
            np.array(g.mean()), system.t, l,
        )
        return max(abs(float(d_alpha)),
                   abs(float(d_f)) * np.max(np.abs(t_gradient(system, g).values)),
                   abs(float(d_c)) * np.max(np.abs(t_gradient(system, c).values)))

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: str(s.matrix))
    def test_t_and_gradient_lift(self, system):
        self._check_lift(system, (4, 6, 8, 10))

    def test_wide_block_lift(self):
        (columns,) = counting._block_columns(self.WIDE)
        assert len(counting._block_plan(columns, 3)[0]) == 4 and 3 ** (6 * 2) > counting.CHUNK
        self._check_lift(self.WIDE, (6,))

    def _check_lift(self, system, ns):
        rng = np.random.default_rng([49, system.t])
        p, k = 3, 2
        g = random_rational_function(rng, p, k)
        want_t = float(t_brute(system, g))
        want_g = t_gradient(system, g).values
        want_d = [(prop, l, p**k * counting._defect_gradient(system, prop, l, g.values[None], k)[0],
                   self._chain_scale(system, prop, l, g)) for prop, l in self.PROPERTIES]
        for n in ns:
            index = surjection_index(rng, p, k, n)
            f = GroupFunction(p, n, g.values[index])
            assert abs(t_fourier(system, f) - want_t) <= 1e-13 * want_t
            got = t_gradient(system, f).values
            assert np.max(np.abs(got - want_g[index])) <= 1e-13 * np.max(np.abs(want_g))
            for prop, l, want, scale in want_d:
                got = p**n * counting._defect_gradient(system, prop, l, f.values[None], n)[0]
                assert np.max(np.abs(got - want[index])) <= 1e-13 * scale

    @pytest.mark.parametrize("system", [*SYSTEMS, WIDE], ids=lambda s: str(s.matrix))
    def test_general_linear_invariance(self, system):
        rng = np.random.default_rng([51, system.t])
        p = 3
        for n in (2, 4, 6):
            f = GroupFunction(p, n, rng.uniform(0.0, 1.0, p**n))
            index = surjection_index(rng, p, n, n)  # rank n: A is invertible
            moved = GroupFunction(p, n, f.values[index])
            want_t, want_g = t_fourier(system, f), t_gradient(system, f).values
            assert abs(t_fourier(system, moved) - want_t) <= 1e-13 * want_t
            got = t_gradient(system, moved).values
            assert np.max(np.abs(got - want_g[index])) <= 1e-13 * np.max(np.abs(want_g))


class TestBruteRows:
    """`_brute_rows`: exact T of several functions from one kernel scan."""

    @staticmethod
    def _bound(system, rows):
        """max|N|^t, N the rows' values over the lcm of all their
        denominators: `_brute_rows` takes int64 below 2^62, else Python ints."""
        exact = [h.exact_values() for h in rows]
        den = math.lcm(*(v.denominator for row in exact for v in row))
        return int(max(abs(v) * den for row in exact for v in row)) ** system.t

    def test_rows_match_separate_scans_on_both_paths(self):
        rng = np.random.default_rng(60)
        f = random_rational_function(rng, 3, 1)  # 64^9 = 2^54: int64
        # 3^20 denominators: far past 2^62 on both routes, so the object path
        deep = tuple(F(int(k), 3**20) for k in rng.integers(0, 3**20, size=3))
        g = GroupFunction(3, 1, np.array([float(v) for v in deep]), deep)
        rows = [f, f.complement(), g]
        want = [t_brute(PHI, h) for h in rows]
        assert counting._brute_rows(PHI, rows) == want
        assert self._bound(PHI, rows[:2]) < 1 << 62 <= self._bound(PHI, [g])

    def test_one_row_crosses_the_int64_bound(self, monkeypatch):
        rng = np.random.default_rng(61)
        f = random_rational_function(rng, 3, 1)
        ks = [128, 1, int(rng.integers(0, 129))]  # 1 and 1/128: the bound is 128^9 = 2^63
        exact = tuple(F(k, 128) for k in ks)
        g = GroupFunction(3, 1, np.array([float(v) for v in exact]), exact)
        want = [t_brute(PHI, f), t_brute(PHI, g)]
        monkeypatch.setattr(counting, "CHUNK", 64)  # 3^7 tuples: 41 chunks
        assert counting._brute_rows(PHI, [f, g]) == want
        # f alone scans on int64; beside g, its stack takes Python ints
        assert self._bound(PHI, [f]) < 1 << 62 <= self._bound(PHI, [f, g])

    def test_all_zero_row(self):
        rng = np.random.default_rng(62)
        f = random_rational_function(rng, 3, 1)
        zero = constant(3, 1, 0)
        got = counting._brute_rows(PHI, [zero, f, zero.complement()])
        assert got == [F(0), t_brute(PHI, f), F(1)]
        assert counting._brute_rows(PHI, [zero, zero]) == [F(0), F(0)]

    def test_multi_chunk_scan(self, monkeypatch):
        rng = np.random.default_rng(63)
        f = random_rational_function(rng, 3, 2)
        g = random_rational_function(rng, 3, 2, q=1000)
        rows = [f, f.complement(), g]
        want = counting._brute_rows(A4, rows)
        monkeypatch.setattr(counting, "CHUNK", 4)  # 9^3 tuples: 243 chunks
        assert counting._brute_rows(A4, rows) == want
        assert [t_brute(A4, h) for h in rows] == want

    def test_streamed_scan_adds_no_cache_entry(self, monkeypatch):
        cache = counting._index_table
        rng = np.random.default_rng(64)
        f = random_rational_function(rng, 3, 1)
        monkeypatch.setattr(counting, "CHUNK", 64)  # 3^7 tuples: 41 chunks
        before = cache.cache_info()
        counting._brute_rows(PHI, [f, f.complement()])
        after = cache.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    # (p, n, forms, CHUNK): one position wider than the real CHUNK, cut
    # inside; a cut position 0 whose high part runs on into position 1;
    # cuts with runs of two and of one high tuple per chunk; whole
    # positions, carry-free across many chunks, of one and of two
    # parameters; CHUNK below p, so the low table is empty
    SCANS = [
        (5, 1, ((1, 0, 4, 2, 3, 1, 1), (2, 3, 1, 0, 0, 4, 1), (0, 0, 0, 0, 0, 0, 0)), None),
        (5, 2, ((1, 0, 4), (2, 3, 1), (4, 4, 4)), 16),
        (7, 1, ((1, 6, 3, 2), (0, 5, 0, 1)), 1000),
        (3, 2, ((1, 2, 0, 1), (2, 2, 1, 0), (1, 1, 1, 1)), 30),
        (7, 3, ((3,), (6,), (1,)), 100),
        (3, 3, ((1, 2), (2, 2), (0, 1)), 30),
        (5, 1, ((1, 2), (3, 4)), 4),
    ]

    @pytest.mark.parametrize("p, n, forms, chunk", SCANS)
    def test_scan_tables_match_naive_enumeration(self, monkeypatch, p, n, forms, chunk):
        if chunk is not None:
            monkeypatch.setattr(counting, "CHUNK", chunk)
        tables = list(counting._form_indices(forms, p, n, "p^(nD)"))
        assert len(tables) > 1
        assert all(t.dtype == np.int64 and t.shape[1] <= counting.CHUNK for t in tables)
        assert np.concatenate(tables, axis=1).tolist() == naive_points(forms, p, n)

    def test_index_table_matches_naive_enumeration(self):
        forms = ((1, 0, 4), (2, 3, 1), (0, 0, 0), (4, 4, 4))
        got = counting._index_table.__wrapped__(forms, 5, 2)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == naive_points(forms, 5, 2)

    # (system over F_p, n, CHUNK): 5^7 kernel tuples at the real CHUNK, and
    # 25^3 with CHUNK below p^n
    BRUTE_SCANS = [
        (linsys.LinearSystem.from_matrix(5, [[1, 2, 3, 4, 1, 2, 3, 4]]), 1, None),
        (linsys.LinearSystem.from_matrix(7, [[1, 3, 5, 2]]), 1, 50),
        (linsys.LinearSystem.from_matrix(5, [[1, 1, 2, 4]]), 2, 16),
    ]

    @pytest.mark.parametrize("system, n, chunk", BRUTE_SCANS)
    def test_brute_rows_match_naive_enumeration(self, monkeypatch, system, n, chunk):
        p, t = system.p, system.t
        rng = np.random.default_rng([p, n])
        # the largest power-of-two denominator whose products stay on int64
        f = random_rational_function(rng, p, n, q=2 ** (61 // t))
        deep = tuple(F(int(k), 5**30) for k in rng.integers(0, 5**25, size=p**n))
        g = GroupFunction(p, n, np.array([float(v) for v in deep]), deep)
        zero = constant(p, n, 0)
        if chunk is not None:
            monkeypatch.setattr(counting, "CHUNK", chunk)
        points = naive_points(system.kernel, p, n)
        width = next(iter(counting._form_indices(system.kernel, p, n, "p^(nD)"))).shape[1]
        stacks = [f, f.complement(), zero], [g, zero]
        # an int64 stack summed in more than one slice per chunk, and an
        # object stack
        bound = self._bound(system, stacks[0])
        assert bound < 1 << 62 and (1 << 62) // bound < width
        assert self._bound(system, stacks[1]) >= 1 << 62
        for rows in stacks:
            want = []
            for h in rows:
                exact = h.exact_values()
                den = math.lcm(*(v.denominator for v in exact))
                numer = [int(v * den) for v in exact]
                total = sum(math.prod(numer[x] for x in column) for column in zip(*points))
                want.append(F(total, den**t * (p**n) ** system.num_params))
            assert counting._brute_rows(system, rows) == want
            assert want[-1] == 0

    def test_brute_defect_scans_the_kernel_once(self, monkeypatch):
        calls = []
        form_indices = counting._form_indices

        def spy(forms, p, n, label):
            calls.append(label)
            return form_indices(forms, p, n, label)

        monkeypatch.setattr(counting, "_form_indices", spy)
        rng = np.random.default_rng(65)
        f = random_rational_function(rng, 3, 1)
        rep = defect(PHI, f, "common", method="brute")
        assert calls == ["p^(nD)"]
        assert (rep.t_f, rep.t_1mf) == (t_brute(PHI, f), t_brute(PHI, f.complement()))


class TestDefect:
    def test_common_balanced_is_zero_exact(self):
        rep = defect(PHI, constant(3, 1, F(1, 2)), "common", method="brute")
        assert rep.value == 0

    def test_sidorenko_coset_witness(self):
        rep = defect(PHI, coset_indicator(3, 1, [1], 1), "sidorenko", method="brute")
        assert rep.value == -F(1, 3**9)
        assert rep.t_f == 0
        assert rep.value < 0

    def test_alon_balanced_three_term(self):
        rep = defect(
            linsys.preset("ap3"), constant(3, 1, F(1, 2)), "alon", l=1, method="brute"
        )
        assert rep.value == 0

    def test_missing_l(self):
        with pytest.raises(MissingL):
            defect(PHI, constant(3, 1, F(1, 2)), "alon")

    @pytest.mark.parametrize("prop, l", [("common", None), ("geometric", None), ("sidorenko", None),
                                         ("alon", 0), ("alon", 3), ("prevalence", None)])
    def test_partials_are_the_derivatives_of_the_defect(self, prop, l):
        t, h = 5, 1e-6
        # T(f), T(1 - f) and alpha of two functions; alpha = 1 is an end of [0, 1]
        point = [np.array([0.03, 0.2]), np.array([0.02, 0.1]), np.array([0.4, 1.0])]
        if prop not in counting.READS_COMPLEMENT:
            point[1] = None  # neither the defect nor its partials may read it
        partials = counting.defect_partials(prop, *point, t, l)
        for i, partial in enumerate(partials):
            if point[i] is None:
                assert partial == 0.0
                continue
            up, down = list(point), list(point)
            up[i] = point[i] + h
            down[i] = point[i] - h
            slope = (counting.defect_value(prop, *up, t, l, 1.0)
                     - counting.defect_value(prop, *down, t, l, 1.0)) / (2 * h)
            np.testing.assert_allclose(np.broadcast_to(partial, slope.shape), slope,
                                       rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("prop, l", [("sidorenko", None), ("alon", 3)])
    def test_partials_take_scalar_powers(self, prop, l):
        # numpy's vectorized power can differ from the scalar one in the last bit
        t = 5
        t_f, t_1mf, alpha = np.random.default_rng(3).uniform(0, 1, (3, 64))
        got = [np.broadcast_to(d, alpha.shape).tolist()
               for d in counting.defect_partials(prop, t_f, t_1mf, alpha, t, l)]
        for i, (x, y, a) in enumerate(zip(t_f.tolist(), t_1mf.tolist(), alpha.tolist())):
            if prop == "sidorenko":
                want = (1.0, 0.0, -t * a ** (t - 1))
            else:
                want = (a**l, (1.0 - a) ** l, l * a ** (l - 1) * x - l * (1.0 - a) ** (l - 1) * y)
            assert tuple(column[i] for column in got) == want

    def test_geometric_needs_balanced_mean(self):
        with pytest.raises(MeanConstraintViolated):
            defect(PHI, constant(3, 1, F(1, 3)), "geometric")

    def test_geometric_balanced(self):
        rep = defect(PHI, constant(3, 1, F(1, 2)), "geometric", method="brute")
        assert rep.value == 0

    def test_brute_complement_of_float_function_is_exact(self):
        # each 1 - v read as its own shortest decimal would give [1, 1/2, 9/10]
        values = np.array([1e-20, 0.5, 0.1])
        exact = (F(1, 10**20), F(1, 2), F(1, 10))
        complement = GroupFunction(3, 1, 1.0 - values, tuple(1 - v for v in exact))
        rep = defect(PHI, GroupFunction(3, 1, values), "common", method="brute")
        assert rep.t_f == t_brute(PHI, GroupFunction(3, 1, values, exact))
        assert rep.t_1mf == t_brute(PHI, complement)
        assert rep.value == rep.t_f + rep.t_1mf - F(1, 2**8)

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

    def test_alon_digit_bound_is_a_lower_bound(self):
        rng = np.random.default_rng(27)
        ap3 = linsys.preset("ap3")
        third = constant(3, 1, F(1, 3))
        # mean 1/3 from values over 4: the 2-adic floor of T is below 0
        odd = GroupFunction(3, 1, np.array([0.25, 0.25, 0.5]), (F(1, 4), F(1, 4), F(1, 2)))
        cases = [(ap3, third), (PHI, third), (ap3, odd), (PHI, random_rational_function(rng, 3, 1))]
        bounded = 0
        for system, f in cases:
            rows = [f, f.complement()]
            for l in (0, 3, 40, 1000, 5000):
                rep = defect(system, f, "alon", l=l, method="brute")
                bound = counting._alon_denominator_digits(system, rows, rep.alpha, l)
                assert rep.value.denominator >= 10 ** (bound - 1)  # at least `bound` digits
                bounded += bound > 0
        assert bounded >= 8
        half = constant(3, 1, F(1, 2))  # even denominator: no bound
        assert counting._alon_denominator_digits(PHI, [half, half.complement()], F(1, 2), 10**6) == 0

    def test_unprintable_exact_alon_refused_before_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned the kernel")

        monkeypatch.setattr(counting, "_brute_rows", no_scan)
        with pytest.raises(TooLarge, match="digits"):
            defect(linsys.preset("ap3"), constant(3, 1, F(1, 3)), "alon", l=2 * 10**6,
                   method="brute")

    def test_scanned_digit_bound_is_a_lower_bound(self):
        rng = np.random.default_rng(28)
        systems = [PHI, linsys.preset("ap3"), linsys.preset("a4")]
        bounded = 0
        for q in (2, 4, 6, 8, 12, 64, 96, 3, 9):
            for _ in range(4):
                system = systems[int(rng.integers(len(systems)))]
                f = random_rational_function(rng, 3, 1, q=q)
                rows = counting._brute_rows(system, [f, f.complement()])
                alpha = f.exact_mean()
                for l in (0, 1, 3, 40, 1000):
                    value = counting.defect_value("alon", *rows, alpha, system.t, l, F(1))
                    bound = counting._alon_scanned_digits(*rows, alpha, system.t, l)
                    assert value.denominator >= 10 ** (bound - 1), (q, l)
                    bounded += bound > 0
        assert bounded >= 100
        # mean 1/2 at a constant: the two terms cancel the last one, no bound
        half = [F(1, 2**9)] * 2
        assert counting._alon_scanned_digits(*half, F(1, 2), 9, 10**6) == 0

    def test_unprintable_exact_alon_at_an_even_mean_refused_before_the_power(self, monkeypatch):
        def no_power(*args):
            raise AssertionError("formed alpha^l")

        monkeypatch.setattr(counting, "defect_value", no_power)
        with pytest.raises(TooLarge, match="digits"):
            defect(PHI, constant(3, 1, F(1, 4)), "alon", l=10**6, method="brute")

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
