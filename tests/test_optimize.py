from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonsys import counting, linsys, optimize
from commonsys.errors import InfeasibleMean, MalformedDocument, MissingL, TooLarge
from commonsys.optimize import (
    SearchConfig,
    SearchResult,
    minimize_defect,
    project_box_mean,
    scan_alpha,
)

F = Fraction
PHI = linsys.preset("phi")


def _exact_projection(v, alpha):
    """Exact Euclidean projection of v onto [0,1]^N with mean alpha: mu is
    solved from the coordinates interior on the segment between adjacent
    breakpoints where sum clip(v - mu, 0, 1) crosses N alpha."""
    v = [F(x) for x in v]
    target = len(v) * F(alpha)

    def mass(mu):
        return sum(min(max(x - mu, 0), 1) for x in v)

    points = sorted(set(v) | {x - 1 for x in v})
    lo, hi = next((a, b) for a, b in zip(points, points[1:]) if mass(a) >= target >= mass(b))
    mid = (lo + hi) / 2
    interior = [x for x in v if 0 < x - mid < 1]
    at_one = sum(1 for x in v if x - mid >= 1)
    mu = (at_one + sum(interior) - target) / len(interior) if interior else mid
    return [min(max(x - mu, 0), 1) for x in v]


class TestProjection:
    def test_inside_box_unchanged(self):
        v = np.array([0.2, 0.7, 0.5])
        out = project_box_mean(v, 3, 1)
        assert np.all(out.values == v)

    def test_constant_overflow_with_mean(self):
        out = project_box_mean(np.full(9, 2.0), 3, 2, alpha=0.5)
        assert np.allclose(out.values, 0.5, atol=1e-10)

    def test_random_with_mean_third(self):
        rng = np.random.default_rng(0)
        v = rng.normal(0.0, 3.0, 27)
        out = project_box_mean(v, 3, 3, alpha=1 / 3)
        assert abs(out.mean() - 1 / 3) <= 1e-10
        assert out.in_unit_box()

    def test_infeasible_mean(self):
        with pytest.raises(InfeasibleMean):
            project_box_mean(np.zeros(3), 3, 1, alpha=1.5)

    @given(st.integers(0, 2**32 - 1), st.fractions(min_value=0, max_value=1, max_denominator=20))
    @settings(max_examples=50, deadline=None)
    def test_kkt_pattern_on_ten_points(self, seed, alpha):
        # oracle: some shift mu clips v so the mean lands on alpha; interior
        # coordinates move by exactly mu, saturated ones satisfy the
        # one-sided conditions
        rng = np.random.default_rng(seed)
        v = rng.normal(0.5, 1.5, 10)
        alpha = float(alpha)
        w = optimize._project_values(v, alpha)
        assert abs(w.mean() - alpha) <= 1e-10
        interior = (w > 1e-9) & (w < 1 - 1e-9)
        if interior.any():
            mus = v[interior] - w[interior]
            mu = mus.mean()
            assert np.max(np.abs(mus - mu)) <= 1e-8
            assert np.all(v[w <= 1e-9] - mu <= 1e-8)
            assert np.all(v[w >= 1 - 1e-9] - mu >= 1 - 1e-8)

    @pytest.mark.parametrize("alpha", [0, F(1, 2), 1, F(1, 3), F(9, 10)])
    @pytest.mark.parametrize(
        "v",
        [
            [0.7],  # N = 1
            [0.25, 0.25, 0.25, 0.25],  # all equal
            [2.0, 2.0, 2.0],  # all equal, outside the box
            [0.3, 0.3, 0.3, 2.0, 2.0, -1.0, -1.0],  # ties
            [0.0, 1.0, 0.5, 1.5, -0.5],  # breakpoints that coincide across coordinates
            list(np.random.default_rng(5).normal(0.5, 1.0, 9)),
            list(np.random.default_rng(6).normal(0.5, 3.0, 50)),
        ],
    )
    def test_matches_exact_oracle(self, v, alpha):
        w = optimize._project_values(np.array(v), float(alpha))
        want = _exact_projection(v, alpha)
        assert np.max(np.abs(w - np.array([float(x) for x in want]))) <= 1e-12

    def test_row_stack_matches_single_rows(self):
        rng = np.random.default_rng(8)
        stack = rng.normal(0.5, 1.5, (6, 27))
        stack[1] = 0.4  # an all-equal row
        stack[2, :10] = stack[2, 10:20]  # ties
        for alpha in (None, 0.0, 0.5, 1.0, 1 / 3):
            out = optimize._project_values(stack, alpha)
            assert out.shape == stack.shape
            for row, got in zip(stack, out):
                assert np.array_equal(optimize._project_values(row, alpha), got)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([0.0, 5e-324, 1e-300, 2.0**-60, 1.0 - 2.0**-53, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rounding_edge_near_zero_and_one(self, seed, size, alpha):
        # at a target mean of (almost) 0 or 1 every right end of a segment can
        # round to just above the target; mu must still land on the last one
        v = np.random.default_rng(seed).normal(0.5, 2.0, size)
        w = optimize._project_values(v, alpha)
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert abs(w.mean() - alpha) <= 1e-12
        if alpha in (0.0, 1.0):
            assert np.all(w == alpha)
        want = _exact_projection(list(v), F(alpha))
        assert np.max(np.abs(w - np.array([float(x) for x in want]))) <= 1e-12


class TestSearchConfig:
    def test_invalid_restarts(self):
        with pytest.raises(MalformedDocument):
            SearchConfig(property="common", p=3, n=1, restarts=0)

    def test_negative_seed(self):
        with pytest.raises(MalformedDocument):
            SearchConfig(property="common", p=3, n=1, seed=-1)

    def test_alon_requires_l(self):
        with pytest.raises(MissingL):
            SearchConfig(property="alon", p=3, n=1)

    def test_prevalence_requires_mean(self):
        with pytest.raises(MalformedDocument):
            SearchConfig(property="prevalence", p=3, n=1)

    def test_search_cap(self):
        with pytest.raises(TooLarge):
            SearchConfig(property="common", p=3, n=13)
        with pytest.raises(TooLarge):
            SearchConfig(property="common", p=3, n=10**6)

    def test_round_trip(self):
        cfg = SearchConfig(property="common", p=3, n=2, restarts=4, seed=9)
        assert SearchConfig.from_dict(cfg.to_dict()) == cfg


class TestObjectiveGradient:
    @pytest.mark.parametrize(
        "prop, l", [("common", None), ("geometric", None), ("sidorenko", None),
                    ("alon", 3), ("prevalence", None)],
    )
    def test_finite_difference(self, prop, l):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.2, 0.8, 9)
        obj = optimize._Objective(PHI, prop, l, 2)
        grad = obj.gradient(values[None])[0]
        eps = 1e-5
        shifts = eps * np.eye(9)
        plus = obj.value(values + shifts)
        minus = obj.value(values - shifts)
        for x in range(9):
            assert (plus[x] - minus[x]) / (2 * eps) == pytest.approx(grad[x], rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize(
        "prop, l, pair", [("common", None, True), ("geometric", None, True),
                          ("alon", 3, True), ("sidorenko", None, False),
                          ("prevalence", None, False)],
    )
    def test_complements_only_where_the_defect_reads_them(self, prop, l, pair, monkeypatch):
        seen = []

        def spy(kernel):
            def wrapped(system, values, n):
                seen.append(len(values))
                return kernel(system, values, n)
            return wrapped

        monkeypatch.setattr(optimize, "_t_rows", spy(counting._t_rows))
        monkeypatch.setattr(optimize, "_gradient_rows", spy(counting._gradient_rows))
        stack = np.random.default_rng(9).uniform(0.2, 0.8, (3, 9))
        obj = optimize._Objective(PHI, prop, l, 2)
        values, grads = obj.value(stack), obj.gradient(stack)
        assert seen == ([6, 6] if pair else [3, 3])
        # each row as a stack of its own gives the same bits
        for r in range(3):
            assert obj.value(stack[r : r + 1])[0] == values[r]
            assert np.array_equal(obj.gradient(stack[r : r + 1])[0], grads[r])


class TestMinimize:
    def test_pair_system_stays_common(self):
        cfg = SearchConfig(property="common", p=3, n=1, restarts=8, max_iters=120, seed=5)
        res = minimize_defect(PHI, cfg)
        assert res.best_defect >= -1e-6
        assert not res.violation

    def test_uncommon_equation_found(self):
        s = linsys.LinearSystem.from_matrix(5, [[1, 1, 1, 1]])
        cfg = SearchConfig(property="common", p=5, n=1, restarts=16, max_iters=200, seed=3)
        res = minimize_defect(s, cfg)
        assert res.violation and res.best_defect <= -1e-4

    def test_seed_determinism_bit_identical(self):
        cfg = SearchConfig(property="common", p=3, n=2, restarts=6, max_iters=60, seed=11)
        r1 = minimize_defect(PHI, cfg)
        r2 = minimize_defect(PHI, cfg)
        assert r1.best_defect == r2.best_defect
        assert np.all(r1.best.values == r2.best.values)
        assert r1.to_dict() == r2.to_dict()

    def test_best_is_lexicographic_minimum_over_restarts(self):
        cfg = SearchConfig(property="common", p=3, n=1, restarts=6, max_iters=60, seed=2)
        res = minimize_defect(PHI, cfg)
        outcomes = [optimize._run_restart(PHI, cfg, [k])[0] for k in range(cfg.restarts)]
        val, k, f, _, converged = min(outcomes, key=lambda r: (r[0], r[1]))
        assert res.restart_index == k
        assert res.best_defect == val
        assert np.all(res.best.values == f.values)
        assert res.converged == converged
        assert res.iterations == sum(r[3] for r in outcomes)

    def test_monotone_descent_trace(self):
        cfg = SearchConfig(property="common", p=3, n=2, restarts=4, max_iters=80, seed=13)
        traces = [[] for _ in range(cfg.restarts)]
        outcomes = optimize._run_restart(PHI, cfg, range(cfg.restarts), trace=traces)
        for trace, (val, _, _, iters, _) in zip(traces, outcomes):
            assert len(trace) == iters + 1 and trace[-1] == val
            assert np.all(np.diff(np.array(trace)) <= 0)

    @pytest.mark.parametrize(
        "system, prop, l, mean",
        [(PHI, "common", None, None), (PHI, "geometric", None, None),
         (PHI, "sidorenko", None, None), (PHI, "alon", 3, None),
         (PHI, "common", None, 1 / 3), (linsys.preset("schur"), "prevalence", None, 1 / 3)],
    )
    @pytest.mark.parametrize("eta0", [0.1, 1000.0])  # 1000: most steps backtrack
    def test_each_batched_restart_matches_its_batch_of_one(self, system, prop, l, mean, eta0):
        cfg = SearchConfig(property=prop, p=3, n=2, l=l, mean=mean, restarts=5,
                           max_iters=25, eta0=eta0, seed=31)
        batch = optimize._run_restart(system, cfg, range(cfg.restarts))
        for k, (val, kk, f, iters, converged) in enumerate(batch):
            (one_val, _, one_f, one_iters, one_converged), = optimize._run_restart(
                system, cfg, [k]
            )
            assert kk == k
            assert val == one_val and iters == one_iters and converged == one_converged
            assert np.array_equal(f.values, one_f.values)

    @pytest.mark.parametrize("mean", [None, 0.5])
    def test_batch_bound_leaves_the_result_unchanged(self, mean, monkeypatch):
        cfg = SearchConfig(property="common", p=3, n=2, mean=mean, restarts=7,
                           max_iters=40, seed=3)
        results = []
        for rows in (1, 3, cfg.restarts):
            monkeypatch.setattr(optimize, "_batch_rows", lambda system, n, rows=rows: rows)
            results.append(minimize_defect(PHI, cfg).to_dict())
        assert results[0] == results[1] == results[2]

    def test_restarts_run_in_bounded_batches(self, monkeypatch):
        assert optimize._batch_rows(PHI, 2) == counting.CHUNK // 45  # a5's table: 5 x 9
        assert optimize._batch_rows(PHI, 12) == 1  # 3^12 points exceed CHUNK
        sizes = []
        run = optimize._run_restart

        def spy(system, cfg, ks, trace=None):
            sizes.append(list(ks))
            return run(system, cfg, ks, trace)

        monkeypatch.setattr(optimize, "_run_restart", spy)
        monkeypatch.setattr(optimize, "_batch_rows", lambda system, n: 3)
        cfg = SearchConfig(property="common", p=3, n=1, restarts=7, max_iters=5, seed=1)
        minimize_defect(PHI, cfg)
        assert sizes == [[0, 1, 2], [3, 4, 5], [6]]

    def test_reported_defect_revalidates(self):
        cfg = SearchConfig(property="common", p=3, n=1, restarts=4, max_iters=60, seed=21)
        res = minimize_defect(PHI, cfg)
        rep = counting.defect(PHI, res.best, "common")
        assert abs(rep.value - res.best_defect) <= 1e-10

    def test_schur_prevalence_collapses_at_third(self):
        cfg = SearchConfig(
            property="prevalence", p=3, n=1, mean=1 / 3, restarts=8, max_iters=100, seed=1
        )
        res = minimize_defect(linsys.preset("schur"), cfg)
        assert res.best_defect <= 1e-6

    def test_prevalence_monotone_in_mean(self):
        schur = linsys.preset("schur")
        mins = []
        for alpha in (1 / 3, 1 / 2):
            cfg = SearchConfig(
                property="prevalence", p=3, n=1, mean=alpha, restarts=6, max_iters=80, seed=4
            )
            mins.append(minimize_defect(schur, cfg).best_defect)
        assert mins[0] <= mins[1] + 1e-6

    def test_result_round_trip(self):
        cfg = SearchConfig(property="common", p=3, n=1, restarts=2, max_iters=30, seed=8)
        res = minimize_defect(PHI, cfg)
        again = SearchResult.from_dict(res.to_dict())
        assert again.best_defect == res.best_defect
        assert np.all(again.best.values == res.best.values)


class TestScanAlpha:
    def test_geometric_grid_must_be_half(self):
        with pytest.raises(MalformedDocument):
            scan_alpha(PHI, "geometric", [F(1, 3)], restarts=1, max_iters=5)

    def test_geometric_single_row(self):
        rows = scan_alpha(PHI, "geometric", [F(1, 2)], restarts=2, max_iters=30, seed=6)
        assert len(rows) == 1 and rows[0]["alpha"] == 0.5

    def test_three_term_progression_stays_common(self):
        rows = scan_alpha(
            linsys.preset("ap3"),
            "common",
            optimize.alpha_grid(5),
            restarts=4,
            max_iters=80,
            seed=17,
        )
        assert len(rows) == 5
        assert all(r["best_defect"] >= -1e-6 for r in rows)

    def test_grid_resolution_floor(self):
        with pytest.raises(MalformedDocument):
            optimize.alpha_grid(2)
