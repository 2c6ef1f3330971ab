import ast
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonsys import counting, harmonic, linsys, optimize
from commonsys.errors import InfeasibleMean, MalformedDocument, MissingL, TooLarge
from commonsys.optimize import (
    SearchConfig,
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

    def test_geometric_mean_must_be_half(self):
        with pytest.raises(MalformedDocument):
            SearchConfig(property="geometric", p=3, n=1, mean=0.3)
        assert counting.check_mean("geometric", 0.5 + 1e-12) == 0.5
        assert counting.check_mean("geometric", None) == 0.5

    def test_mean_outside_the_unit_interval_is_refused_when_built(self):
        for mean in (1.5, -0.25, float("nan")):
            with pytest.raises(InfeasibleMean):
                SearchConfig(property="common", p=3, n=1, mean=mean)


class TestInitialPoint:
    @pytest.mark.parametrize("p, n", [(3, 1), (3, 3), (5, 2), (7, 2), (3, 9)])
    def test_structured_families_reuse_the_harmonic_builders(self, p, n):
        cfg = SearchConfig(property="common", p=p, n=n)
        for k in [4 * j + family for j in range(10) for family in (2, 3)]:
            got = optimize._initial_point(cfg, k, np.random.default_rng([3, k]))
            rng = np.random.default_rng([3, k])
            if k % 4 == 2:
                coord, residue = int(rng.integers(n)), int(rng.integers(p))
                unit = [int(i == coord) for i in range(n)]
                want = harmonic.coset_indicator(p, n, unit, residue).values
            else:
                h, phase = int(rng.integers(1, p**n)), int(rng.integers(p))
                eps = 0.45 * float(rng.uniform(0.6, 1.0))
                want = harmonic.character_bump(p, n, h, phase, eps).values
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


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

    def test_alon_at_l0_is_common_at_every_mean(self):
        # alpha^(l-1) is undefined at alpha = 0 or 1 when l = 0
        stack = np.vstack([np.zeros(9), np.ones(9), np.random.default_rng(5).uniform(size=9)])
        alon, common = (optimize._Objective(PHI, prop, l, 2)
                        for prop, l in (("alon", 0), ("common", None)))
        assert np.array_equal(alon.gradient(stack), common.gradient(stack))

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
        # the nonmonotone rule's guarantee: each accepted value lies strictly
        # below the largest of the previous M, so that maximum never rises
        cfg = SearchConfig(property="common", p=3, n=2, restarts=4, max_iters=80, seed=13)
        traces = [[] for _ in range(cfg.restarts)]
        outcomes = optimize._run_restart(PHI, cfg, range(cfg.restarts), trace=traces)
        for trace, (val, _, _, iters, _) in zip(traces, outcomes):
            assert len(trace) == iters + 1 and trace[-1] == val
            assert max(trace) == trace[0]
            for j in range(1, len(trace)):
                assert trace[j] < max(trace[max(0, j - optimize._MEMORY) : j])

    @pytest.mark.parametrize("n", [1, 2])
    def test_pair_system_restarts_converge_before_the_cap(self, n):
        cfg = SearchConfig(property="common", p=3, n=n, restarts=16, max_iters=300, seed=2024)
        for _, _, _, iters, converged in optimize._run_restart(PHI, cfg, range(cfg.restarts)):
            assert converged and iters < cfg.max_iters

    @pytest.mark.parametrize(
        "system, prop, l, mean",
        [(PHI, "common", None, None), (PHI, "geometric", None, None),
         (PHI, "sidorenko", None, None), (PHI, "alon", 3, None),
         (PHI, "common", None, 1 / 3), (linsys.preset("schur"), "prevalence", None, 1 / 3)],
    )
    @pytest.mark.parametrize("eta0", [0.1, 1000.0])  # 1000: most steps backtrack
    def test_each_batched_restart_matches_its_batch_of_one(self, system, prop, l, mean, eta0,
                                                           monkeypatch):
        monkeypatch.setattr(optimize, "_ETA0", eta0)
        cfg = SearchConfig(property=prop, p=3, n=2, l=l, mean=mean, restarts=5,
                           max_iters=25, seed=31)
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
        assert optimize._batch_rows(PHI, 2) == counting.CHUNK // 9  # rank 1: one direction on 9 points
        coupled = linsys.LinearSystem.from_matrix(5, [[1, 2, 0, 0, 1], [0, 0, 1, 3, 1]])
        assert optimize._batch_rows(coupled, 2) == counting.CHUNK // (3 * 25**2)  # 3 directions
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

    def test_memory_does_not_grow_with_the_restart_count(self, monkeypatch):
        # each batch is folded into a running best, so only one batch's
        # outcomes are alive at a time whatever the number of restarts
        monkeypatch.setattr(optimize, "_batch_rows", lambda system, n: 8)
        peaks = []
        for restarts in (64, 512, 64, 512):  # the first two runs fill the caches
            cfg = SearchConfig(property="common", p=3, n=1, restarts=restarts, max_iters=0)
            tracemalloc.start()
            try:
                minimize_defect(PHI, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[3] < 2 * peaks[2], peaks

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


class TestScanAlpha:
    def test_geometric_grid_must_be_half(self):
        cfg = SearchConfig(property="geometric", p=3, n=1, restarts=1, max_iters=5)
        with pytest.raises(MalformedDocument):
            scan_alpha(PHI, cfg, [F(1, 3)])

    def test_geometric_single_row(self):
        cfg = SearchConfig(property="geometric", p=3, n=1, restarts=2, max_iters=30, seed=6)
        rows = scan_alpha(PHI, cfg, [F(1, 2)])
        assert len(rows) == 1 and rows[0]["alpha"] == 0.5

    def test_search_i_is_the_config_at_mean_i_and_seed_plus_i(self):
        cfg = SearchConfig(property="prevalence", p=3, n=2, mean=0.5, restarts=2,
                           max_iters=20, seed=5)
        alphas = [F(1, 4), F(1, 2)]
        for i, row in enumerate(scan_alpha(PHI, cfg, alphas)):
            result = minimize_defect(PHI, replace(cfg, mean=float(alphas[i]), seed=5 + i))
            assert row == {"alpha": float(alphas[i]), "best_defect": result.best_defect,
                           "violation": result.violation}

    def test_three_term_progression_stays_common(self):
        cfg = SearchConfig(property="common", p=3, n=1, restarts=4, max_iters=80, seed=17)
        rows = scan_alpha(linsys.preset("ap3"), cfg, optimize.alpha_grid(5))
        assert len(rows) == 5
        assert all(r["best_defect"] >= -1e-6 for r in rows)

    def test_grid_resolution_floor(self):
        with pytest.raises(MalformedDocument):
            optimize.alpha_grid(2)

    def test_grid_resolution_cap(self):
        cap = optimize.MAX_GRID_POINTS
        assert len(optimize.alpha_grid(3)) == 3
        with pytest.raises(TooLarge):
            optimize.alpha_grid(cap + 1)


def test_optimize_names_no_property():
    # every property rule comes from counting, so a new property or a new
    # mean rule needs no optimizer change
    constants = {"COMMON", "GEOMETRIC", "SIDORENKO", "ALON", "PREVALENCE"}
    named = []
    for node in ast.walk(ast.parse(Path(optimize.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and node.id in constants:
            named.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in constants:
            named.append(node.attr)
        elif isinstance(node, ast.alias) and node.name in constants:
            named.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value in counting.PROPERTIES:
            named.append(repr(node.value))
    assert not named, named
