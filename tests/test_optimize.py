from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonsys import counting, linsys, optimize
from commonsys.errors import InfeasibleMean, MalformedDocument, MissingL, TooLarge
from commonsys.harmonic import GroupFunction
from commonsys.optimize import (
    SearchConfig,
    SearchResult,
    minimize_defect,
    project_box_mean,
    scan_alpha,
)

F = Fraction
PHI = linsys.preset("phi")


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


class TestSearchConfig:
    def test_invalid_restarts(self):
        with pytest.raises(MalformedDocument):
            SearchConfig(property="common", p=3, n=1, restarts=0)

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
        obj = optimize._Objective(PHI, prop, l)
        grad = obj.gradient(GroupFunction(3, 2, values))
        eps = 1e-5
        for x in range(9):
            delta = np.zeros(9)
            delta[x] = eps
            plus = obj.value(GroupFunction(3, 2, values + delta))
            minus = obj.value(GroupFunction(3, 2, values - delta))
            assert (plus - minus) / (2 * eps) == pytest.approx(grad[x], rel=1e-6, abs=1e-12)


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
        outcomes = [optimize._run_restart(PHI, cfg, k) for k in range(cfg.restarts)]
        val, k, f, _, converged = min(outcomes, key=lambda r: (r[0], r[1]))
        assert res.restart_index == k
        assert res.best_defect == val
        assert np.all(res.best.values == f.values)
        assert res.converged == converged
        assert res.iterations == sum(r[3] for r in outcomes)

    def test_monotone_descent_trace(self):
        cfg = SearchConfig(property="common", p=3, n=2, restarts=1, max_iters=80, seed=13)
        for k in range(4):
            trace = []
            optimize._run_restart(PHI, cfg, k, trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 0)

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
