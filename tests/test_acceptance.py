"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the
per-criterion lines as they complete).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from commonsys import certify, linsys
from commonsys.counting import alon_witness, defect, t_brute, t_fourier
from commonsys.harmonic import GroupFunction, character_bump, coset_indicator, spectral_sup
from commonsys.optimize import SearchConfig, minimize_defect, project_box_mean

F = Fraction
PHI = linsys.preset("phi")


@pytest.fixture(scope="module")
def ledger():
    return certify.derive_all()


def _report(number, description, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {number} ({elapsed:.1f}s <= {budget}s): {description}")


def _random_feasible_system(rng, p, n, cap=2 * 10**4, max_t=9):
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


def _random_rational_function(rng, p, n, q=64):
    ks = rng.integers(0, q + 1, size=p**n)
    exact = tuple(F(int(k), q) for k in ks)
    return GroupFunction(p, n, np.array([float(v) for v in exact]), exact)


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        system = _random_feasible_system(rng, p, n)
        f = _random_rational_function(rng, p, n)
        exact = t_brute(system, f)
        fast = t_fourier(system, f)
        assert abs(fast - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))
    _report(1, "fourier matches exact enumeration on 200 random instances", started, 60)


def test_criterion_02_pair_system_commonness():
    started = time.monotonic()
    for n in (1, 2):
        cfg = SearchConfig(
            property="common", p=3, n=n, restarts=64, max_iters=300, seed=2024
        )
        result = minimize_defect(PHI, cfg)
        assert result.best_defect >= -1e-6, (n, result.best_defect)
        assert result.converged, n
    _report(2, "64-restart search finds no commonness violation for the pair system", started, 300)


def test_criterion_03_non_sidorenko_witness():
    started = time.monotonic()
    report = defect(PHI, coset_indicator(3, 1, [1], 1), "sidorenko", method="brute")
    assert report.t_f == 0
    assert report.value == -F(1, 3) ** 9
    _report(3, "coset colouring gives exact sidorenko defect -(1/3)^9", started, 1)


def test_criterion_04_uncommon_single_equation():
    started = time.monotonic()
    system = linsys.LinearSystem.from_matrix(5, [[1, 1, 1, 1]])
    cfg = SearchConfig(property="common", p=5, n=1, restarts=32, max_iters=300, seed=4)
    result = minimize_defect(system, cfg)
    assert result.best_defect <= -1e-4
    # independent seeded construction: phase 2 puts the fourth power of the
    # off-center coefficient on the negative real axis side
    bump = character_bump(5, 1, 1, 2, 0.45)
    oracle = defect(system, bump, "common")
    assert oracle.value < 0
    _report(4, "quadruple equation over F_5 violates commonness (search + seeded bump)", started, 60)


def test_criterion_05_lemma_suite():
    started = time.monotonic()
    certs = certify.verify_lemma_suite()
    assert len(certs) == 7
    assert all(c.verified for c in certs)
    _report(5, "seven lemma certificates verify in exact arithmetic", started, 30)


def test_criterion_06_constant_ledger():
    started = time.monotonic()
    fresh = certify.derive_all()
    assert fresh.c0 > 0 and fresh.c1 > 0 and fresh.c3 > 0
    assert fresh.c5 > 0 and fresh.c6 > 0
    assert fresh.C4 > 0
    assert 1 <= fresh.l0 <= 10**7
    for l in (fresh.l0, 2 * fresh.l0, 10 * fresh.l0):
        rows = fresh.replay(l)
        assert all(r["satisfied"] for r in rows), (l, rows)
        assert all(F(r["slack"]) >= 0 for r in rows)
    _report(6, f"ledger derives and replays at l0={fresh.l0}, 2*l0, 10*l0", started, 600)


def test_criterion_07_prevalence_sampling(ledger):
    started = time.monotonic()
    rng = np.random.default_rng(7007)
    floor = float(ledger.c0) - 1e-9
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        target = float(rng.uniform(0.45, 0.97))
        f = project_box_mean(rng.uniform(0, 1, 3**n), 3, n, alpha=target)
        assert t_fourier(PHI, f) >= floor
    _report(7, "1000 random colourings with mean >= 0.45 stay above c0", started, 120)


def test_criterion_08_product_bound_sampling(ledger):
    started = time.monotonic()
    rng = np.random.default_rng(8008)
    c2, c3, C4 = float(ledger.c2), float(ledger.c3), float(ledger.C4)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        delta = float(rng.uniform(-c2, c2))
        f = project_box_mean(rng.uniform(0, 1, 3**n), 3, n, alpha=0.5 + delta)
        alpha = f.mean()
        sup = spectral_sup(f.centered())
        lhs = t_fourier(PHI, f) * t_fourier(PHI, f.complement())
        rhs = 2.0**-18 + c3 * sup**4 - C4 * abs(alpha - 0.5) - 1e-8
        assert lhs >= rhs
    _report(8, "1000 balanced colourings satisfy the product lower bound", started, 120)


def test_criterion_09_witness_contract():
    started = time.monotonic()
    rng = np.random.default_rng(9009)
    done = 0
    while done < 50:
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        if p == 5 and n == 2:
            n = 1
        f = project_box_mean(rng.uniform(0, 1, p**n), p, n, alpha=0.5)
        t_f = t_fourier(PHI_FOR[p], f)
        t_1mf = t_fourier(PHI_FOR[p], f.complement())
        if min(t_f, t_1mf) <= 0:
            continue
        c = 0.5 * math.log(max(t_f, t_1mf) / min(t_f, t_1mf))
        l = max(1, math.ceil(45 * c / 4)) + int(rng.integers(0, 10))
        out = alon_witness(f, PHI_FOR[p], l)
        assert out.in_unit_box(tol=1e-12)
        assert abs(out.mean() - (0.5 + c / (2 * l))) <= 1e-9
        base = f if t_1mf >= t_f else f.complement()
        support = int((base.values <= 0.9).sum())
        assert support >= (4 / 9) * p**n
        done += 1
    _report(9, "perturbation witness contract holds on 50 random inputs", started, 30)


PHI_FOR = {3: linsys.preset("phi", 3), 5: linsys.preset("phi", 5)}


def test_criterion_10_prevalence_failures():
    started = time.monotonic()
    schur = linsys.preset("schur", 3)
    cfg = SearchConfig(
        property="prevalence", p=3, n=1, mean=1 / 3, restarts=16, max_iters=150, seed=10
    )
    result = minimize_defect(schur, cfg)
    assert result.best_defect <= 1e-6
    cfg_phi = SearchConfig(
        property="prevalence", p=3, n=1, mean=1 / 3, restarts=16, max_iters=150, seed=11
    )
    result_phi = minimize_defect(PHI, cfg_phi)
    assert result_phi.best_defect <= 1e-6
    _report(10, "density collapses at mean 1/3 for the Schur and pair systems", started, 120)
