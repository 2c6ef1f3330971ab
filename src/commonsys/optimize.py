"""Search for colourings that violate commonness-type properties.

Projected gradient descent on a property's defect over the box
{f : F_p^n -> [0,1]}, optionally intersected with a fixed-mean slice.
Restarts cycle through four initialization families (constant-plus-noise,
uniform noise, coset indicators, character bumps); character bumps are
the extremizers suggested by the Fourier form of the functionals, so
they are seeded deliberately.

Everything is deterministic given the config seed: restart k draws from
default_rng([seed, k]) and the cross-restart reduction is lexicographic
in (defect, restart index).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import counting
from .counting import (
    ALON,
    COMMON,
    GEOMETRIC,
    PREVALENCE,
    SIDORENKO,
    _gradient_rows,
    _pair_rows,
    _t_rows,
    defect_value,
)
from .errors import InfeasibleMean, MalformedDocument, MissingL
from .harmonic import GroupFunction, checked_size
from .linsys import LinearSystem

MAX_SEARCH_POINTS = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    """Objective and budget for one defect-minimization run."""

    property: str
    p: int
    n: int
    l: int | None = None
    mean: float | None = None  # pin E f to this value when set
    restarts: int = 16
    max_iters: int = 300
    eta0: float = 0.1
    seed: int = 0
    grad_tol: float = 1e-8
    violation_tol: float = -1e-6

    def __post_init__(self):
        if self.property not in counting.PROPERTIES:
            raise MalformedDocument(f"unknown property {self.property!r}")
        if self.restarts < 1:
            raise MalformedDocument("restarts must be >= 1")
        checked_size(self.p, self.n, MAX_SEARCH_POINTS)
        if self.property == ALON and self.l is None:
            raise MissingL("property 'alon' requires l")
        if self.property == PREVALENCE and self.mean is None:
            raise MalformedDocument("prevalence search requires a pinned mean")

    def pinned_mean(self) -> float | None:
        if self.property == GEOMETRIC:
            return 0.5
        return self.mean

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "p": self.p,
            "n": self.n,
            "l": self.l,
            "mean": self.mean,
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "eta0": self.eta0,
            "seed": self.seed,
            "grad_tol": self.grad_tol,
            "violation_tol": self.violation_tol,
        }

    @classmethod
    def from_dict(cls, d) -> "SearchConfig":
        return cls(**d)


@dataclass
class SearchResult:
    best: GroupFunction
    best_defect: float
    iterations: int
    converged: bool
    violation: bool
    restart_index: int = 0

    def to_dict(self) -> dict:
        return {
            "best_values": [float(v) for v in self.best.values],
            "p": self.best.p,
            "n": self.best.n,
            "best_defect": self.best_defect,
            "iterations": self.iterations,
            "converged": self.converged,
            "violation": self.violation,
            "restart_index": self.restart_index,
        }

    @classmethod
    def from_dict(cls, d) -> "SearchResult":
        best = GroupFunction(d["p"], d["n"], np.array(d["best_values"]))
        return cls(
            best=best,
            best_defect=d["best_defect"],
            iterations=d["iterations"],
            converged=d["converged"],
            violation=d["violation"],
            restart_index=d.get("restart_index", 0),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _project_values(v: np.ndarray, alpha: float | None) -> np.ndarray:
    if alpha is None:
        return np.clip(v, 0.0, 1.0)
    if not 0.0 <= alpha <= 1.0:
        raise InfeasibleMean(f"target mean {alpha} outside [0, 1]")
    lo = float(v.min()) - 1.0
    hi = float(v.max())
    # mean(clip(v - mu)) is nonincreasing in mu; bisect mu to width 1e-12
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # float resolution floor
            break
        if float(np.clip(v - mid, 0.0, 1.0).mean()) > alpha:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


def project_box_mean(v, p: int, n: int, alpha: float | None = None) -> GroupFunction:
    """Euclidean projection onto [0,1]^(p^n), optionally with mean alpha."""
    arr = np.asarray(v, dtype=np.float64)
    return GroupFunction(p, n, _project_values(arr, alpha))


class _Objective:
    """Defect value and Euclidean gradient for one property."""

    def __init__(self, system: LinearSystem, property: str, l: int | None):
        self.system = system
        self.property = property
        self.l = l
        self.t = system.t

    def value(self, f: GroupFunction) -> float:
        t_f, t_1mf = _t_rows(self.system, _pair_rows(f), f.n).tolist()
        return defect_value(self.property, t_f, t_1mf, f.mean(), self.t, self.l, 1.0)

    def gradient(self, f: GroupFunction) -> np.ndarray:
        """Gradient of the defect, from one gradient pass over [f, 1 - f]
        that also yields T(f) and T(1 - f)."""
        size = f.size
        prop = self.property
        (g_f, g_c), (t_f, t_1mf) = _gradient_rows(self.system, _pair_rows(f), f.n)
        if prop == PREVALENCE:
            return g_f / size
        if prop == COMMON:
            return (g_f - g_c) / size
        alpha = f.mean()
        t = self.t
        if prop == GEOMETRIC:
            return (t_1mf * g_f - t_f * g_c) / size
        if prop == SIDORENKO:
            return (g_f - t * alpha ** (t - 1)) / size
        # alon: alpha enters through the l-th power weights
        l = self.l
        scalar = l * alpha ** (l - 1) * t_f - l * (1.0 - alpha) ** (l - 1) * t_1mf
        return (scalar + alpha**l * g_f - (1.0 - alpha) ** l * g_c) / size


def _initial_point(cfg: SearchConfig, k: int, rng) -> np.ndarray:
    size = cfg.p**cfg.n
    family = k % 4
    if family == 0:
        return 0.5 + 0.02 * rng.standard_normal(size)
    if family == 1:
        return rng.uniform(0.0, 1.0, size)
    if family == 2:
        coord = int(rng.integers(cfg.n))
        residue = int(rng.integers(cfg.p))
        idx = np.arange(size)
        digits = (idx // cfg.p**coord) % cfg.p
        return (digits == residue).astype(np.float64)
    h = int(rng.integers(1, size))
    phase = int(rng.integers(cfg.p))
    eps = 0.45 * float(rng.uniform(0.6, 1.0))
    idx = np.arange(size)
    dot = np.zeros(size, dtype=np.int64)
    v = idx.copy()
    hh = h
    for _ in range(cfg.n):
        dot += (v % cfg.p) * (hh % cfg.p)
        v //= cfg.p
        hh //= cfg.p
    return 0.5 + eps * np.cos(2.0 * np.pi * ((dot + phase) % cfg.p) / cfg.p)


def _run_restart(system: LinearSystem, cfg: SearchConfig, k: int, trace: list | None = None):
    rng = np.random.default_rng([cfg.seed, k])
    alpha = cfg.pinned_mean()
    obj = _Objective(system, cfg.property, cfg.l)
    f = GroupFunction(cfg.p, cfg.n, _project_values(_initial_point(cfg, k, rng), alpha))
    val = obj.value(f)
    if trace is not None:
        trace.append(val)
    iters = 0
    converged = False
    for _ in range(cfg.max_iters):
        if val < cfg.violation_tol:
            break
        grad = obj.gradient(f)
        pg = f.values - _project_values(f.values - grad, alpha)
        if float(np.linalg.norm(pg)) < cfg.grad_tol:
            converged = True
            break
        step = cfg.eta0
        accepted = False
        while step >= 1e-12:
            cand = GroupFunction(cfg.p, cfg.n, _project_values(f.values - step * grad, alpha))
            cand_val = obj.value(cand)
            if cand_val <= val:
                f, val = cand, cand_val
                accepted = True
                iters += 1
                if trace is not None:
                    trace.append(val)
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
    return val, k, f, iters, converged


def minimize_defect(system: LinearSystem, cfg: SearchConfig) -> SearchResult:
    """Best colouring found over all restarts; defect re-validated by a
    fresh evaluation before reporting."""
    if system.p != cfg.p:
        raise MalformedDocument("config modulus differs from the system modulus")
    outcomes = [_run_restart(system, cfg, k) for k in range(cfg.restarts)]
    best = min(outcomes, key=lambda r: (r[0], r[1]))
    val, k, f, _, converged = best
    total_iters = sum(r[3] for r in outcomes)
    obj = _Objective(system, cfg.property, cfg.l)
    revalidated = obj.value(f)
    return SearchResult(
        best=f,
        best_defect=revalidated,
        iterations=total_iters,
        converged=converged,
        violation=revalidated < cfg.violation_tol,
        restart_index=k,
    )


def scan_alpha(
    system: LinearSystem,
    property: str,
    alphas,
    n: int = 1,
    restarts: int = 8,
    max_iters: int = 200,
    seed: int = 0,
    l: int | None = None,
) -> list[dict]:
    """Minimize the defect with the mean pinned to each grid value."""
    rows = []
    for i, alpha in enumerate(alphas):
        alpha = float(alpha)
        if property == GEOMETRIC and abs(alpha - 0.5) > 1e-12:
            raise MalformedDocument(
                "the geometric property is defined only at mean 1/2"
            )
        cfg = SearchConfig(
            property=property,
            p=system.p,
            n=n,
            l=l,
            mean=alpha,
            restarts=restarts,
            max_iters=max_iters,
            seed=seed + i,
        )
        result = minimize_defect(system, cfg)
        rows.append(
            {
                "alpha": alpha,
                "best_defect": result.best_defect,
                "violation": result.violation,
            }
        )
    return rows


def alpha_grid(resolution: int):
    """Evenly spaced means including both endpoints; resolution >= 3."""
    if resolution < 3:
        raise MalformedDocument("grid resolution must be >= 3")
    return [Fraction(i, resolution - 1) for i in range(resolution)]
