"""Search for colourings that violate commonness-type properties.

Projected gradient descent on a property's defect over the box
{f : F_p^n -> [0,1]}, optionally intersected with a fixed-mean slice.
Restarts cycle through four initialization families (constant-plus-noise,
uniform noise, coset indicators, character bumps); character bumps are
the extremizers suggested by the Fourier form of the functionals, so
they are seeded deliberately.

The restarts run in lockstep as the rows of one array: each outer step
takes one gradient pass over the rows still running, and each
backtracking round evaluates every row still searching at once, while
each row keeps its own step size and stop state.  A batch holds at most
CHUNK // widest rows (widest: p^n or the widest block index table), so
memory stays bounded at large p^n.  The projection onto a fixed-mean
slice is exact: a breakpoint search per row (Kiwiel 2008), not a
bisection.

Everything is deterministic given the config seed: restart k draws from
default_rng([seed, k]), a row's arithmetic does not depend on the other
rows of its batch, and the cross-restart reduction is lexicographic in
(defect, restart index).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import counting
from .counting import (
    ALON,
    CHUNK,
    COMMON,
    GEOMETRIC,
    PREVALENCE,
    SIDORENKO,
    _block_columns,
    _gradient_rows,
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
        if self.seed < 0:
            raise MalformedDocument("seed must be >= 0")
        checked_size(self.p, self.n, MAX_SEARCH_POINTS)
        if self.property == ALON and self.l is None:
            raise MissingL("property 'alon' requires l")
        if self.l is not None and self.l < 0:
            raise MalformedDocument("l must be >= 0")
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
    """Euclidean projection of each row of `v` (or of a single 1-D vector)
    onto [0,1]^N, intersected with {mean = alpha} when alpha is set."""
    if alpha is None:
        return np.clip(v, 0.0, 1.0)
    if not 0.0 <= alpha <= 1.0:
        raise InfeasibleMean(f"target mean {alpha} outside [0, 1]")
    alpha = float(alpha)
    if alpha in (0.0, 1.0):  # the slice is the single constant function
        return np.full(v.shape, alpha)
    return _breakpoint_projection(np.atleast_2d(v), alpha).reshape(v.shape)


def _breakpoint_projection(rows: np.ndarray, alpha: float) -> np.ndarray:
    """clip(v - mu, 0, 1) per row, with mu solving sum clip(v - mu, 0, 1) =
    N alpha for 0 < alpha < 1 (Kiwiel 2008, breakpoint search).

    The sum is continuous, nonincreasing and linear between the sorted
    breakpoints v_i - 1 (coordinate i leaves 1) and v_i (it reaches 0).
    The segment where it crosses N alpha holds mu, which is then solved
    from that segment's interior coordinates.
    """
    r, size = rows.shape
    points = np.concatenate([rows - 1.0, rows], axis=1)
    order = np.argsort(points, axis=1, kind="stable")  # a tie puts v_i - 1 first
    row = np.arange(r)[:, None]
    points = points[row, order]
    leaves_one = order < size
    # right of breakpoint j: `interior` coordinates strictly inside (0, 1),
    # and `mass` = (coordinates still at 1) + (sum of the interior v_i)
    passed = np.cumsum(leaves_one, axis=1)
    interior = 2 * passed - np.arange(1, 2 * size + 1)
    mass = size - passed + np.cumsum(np.where(leaves_one, points + 1.0, -points), axis=1)
    target = size * alpha
    right_end = mass[:, :-1] - interior[:, :-1] * points[:, 1:]
    # the sum is nonincreasing, so mu lies on the segment whose index counts
    # the right ends above the target; rounding can leave every right end
    # slightly above a tiny target, and then mu is on the last segment,
    # never past the last breakpoint
    seg = np.minimum(np.count_nonzero(right_end > target, axis=1), 2 * size - 2)[:, None]
    lo, hi, count = points[row, seg], points[row, seg + 1], interior[row, seg]
    mu = np.where(count > 0, (mass[row, seg] - target) / np.maximum(count, 1), hi)
    return np.clip(rows - np.clip(mu, lo, hi), 0.0, 1.0)


def project_box_mean(v, p: int, n: int, alpha: float | None = None) -> GroupFunction:
    """Euclidean projection onto [0,1]^(p^n), optionally with mean alpha."""
    arr = np.asarray(v, dtype=np.float64)
    return GroupFunction(p, n, _project_values(arr, alpha))


class _Objective:
    """Defect value and Euclidean gradient for one property, for each row
    of an (R, p^n) stack of functions."""

    def __init__(self, system: LinearSystem, property: str, l: int | None, n: int):
        self.system = system
        self.property = property
        self.l = l
        self.n = n
        self.t = system.t
        # sidorenko and prevalence never read T(1 - f)
        self.pair = property not in (SIDORENKO, PREVALENCE)

    def _stack(self, values: np.ndarray) -> np.ndarray:
        """[F; 1 - F] where the defect needs the complements, else F."""
        return np.concatenate([values, 1.0 - values]) if self.pair else values

    def value(self, values: np.ndarray) -> np.ndarray:
        rows = len(values)
        t_all = _t_rows(self.system, self._stack(values), self.n).tolist()
        t_c = t_all[rows:] if self.pair else [None] * rows
        means = values.mean(axis=1).tolist()
        return np.array(
            [
                defect_value(self.property, t_f, t_1mf, alpha, self.t, self.l, 1.0)
                for t_f, t_1mf, alpha in zip(t_all[:rows], t_c, means)
            ]
        )

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Gradient of the defect per row, from one gradient pass that also
        yields T of every row of the stack."""
        rows, size = values.shape
        prop = self.property
        grads, ts = _gradient_rows(self.system, self._stack(values), self.n)
        g_f = grads[:rows]
        if prop == PREVALENCE:
            return g_f / size
        alphas = values.mean(axis=1).tolist()
        t = self.t
        if prop == SIDORENKO:
            shift = np.array([t * alpha ** (t - 1) for alpha in alphas])
            return (g_f - shift[:, None]) / size
        g_c = grads[rows:]
        if prop == COMMON:
            return (g_f - g_c) / size
        t_f, t_1mf = ts[:rows], ts[rows:]
        if prop == GEOMETRIC:
            return (t_1mf[:, None] * g_f - t_f[:, None] * g_c) / size
        # alon: alpha enters through the l-th power weights
        l = self.l
        terms = [
            (
                l * alpha ** (l - 1) * a - l * (1.0 - alpha) ** (l - 1) * b,
                alpha**l,
                (1.0 - alpha) ** l,
            )
            for alpha, a, b in zip(alphas, t_f.tolist(), t_1mf.tolist())
        ]
        scalar, w_f, w_c = np.array(terms).T[:, :, None]
        return (scalar + w_f * g_f - w_c * g_c) / size


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


def _batch_rows(system: LinearSystem, n: int) -> int:
    """Restarts per lockstep batch: at most CHUNK // widest rows, where
    widest is the larger of p^n and the widest block index table, so a
    batch's stacks stay within a few CHUNK-sized arrays."""
    size = system.p**n
    widest = max(
        [size]
        + [len(cols) * min(size ** len(cols[0]), CHUNK) for cols in _block_columns(system)]
    )
    return max(1, CHUNK // widest)


def _run_restart(system: LinearSystem, cfg: SearchConfig, ks, trace: list | None = None):
    """Run the restarts `ks` in lockstep, one row of one array each.

    Each row keeps its own step size and stop state; one gradient pass
    serves every row still running, and each backtracking round evaluates
    every row still searching at once.  Returns (defect, k, colouring,
    accepted steps, converged) per restart.  With `trace`, one list per
    restart receives its starting and accepted defects.
    """
    ks = list(ks)
    alpha = cfg.pinned_mean()
    obj = _Objective(system, cfg.property, cfg.l, cfg.n)
    x = _project_values(
        np.stack([_initial_point(cfg, k, np.random.default_rng([cfg.seed, k])) for k in ks]),
        alpha,
    )
    val = obj.value(x)
    iters = np.zeros(len(ks), dtype=np.int64)
    converged = np.zeros(len(ks), dtype=bool)
    running = np.ones(len(ks), dtype=bool)
    if trace is not None:
        for row, v in zip(trace, val.tolist()):
            row.append(v)
    for _ in range(cfg.max_iters):
        running &= ~(val < cfg.violation_tol)
        live = np.flatnonzero(running)
        if not live.size:
            break
        grad = obj.gradient(x[live])
        pg = x[live] - _project_values(x[live] - grad, alpha)
        # the 1-D norm of each row, as np.linalg.norm(row) computes it
        flat = np.sqrt([row @ row for row in pg]) < cfg.grad_tol
        converged[live[flat]] = True
        running[live[flat]] = False
        live, grad = live[~flat], grad[~flat]
        step = np.full(live.size, cfg.eta0)
        while True:
            stalled = step < 1e-12
            converged[live[stalled]] = True
            running[live[stalled]] = False
            live, grad, step = live[~stalled], grad[~stalled], step[~stalled]
            if not live.size:
                break
            cand = _project_values(x[live] - step[:, None] * grad, alpha)
            cand_val = obj.value(cand)
            ok = cand_val <= val[live]
            taken = live[ok]
            x[taken] = cand[ok]
            val[taken] = cand_val[ok]
            iters[taken] += 1
            if trace is not None:
                for i, v in zip(taken.tolist(), cand_val[ok].tolist()):
                    trace[i].append(v)
            live, grad, step = live[~ok], grad[~ok], step[~ok] * 0.5
    return [
        (float(val[i]), k, GroupFunction(cfg.p, cfg.n, x[i]), int(iters[i]), bool(converged[i]))
        for i, k in enumerate(ks)
    ]


def minimize_defect(system: LinearSystem, cfg: SearchConfig) -> SearchResult:
    """Best colouring found over all restarts; defect re-validated by a
    fresh evaluation before reporting."""
    if system.p != cfg.p:
        raise MalformedDocument("config modulus differs from the system modulus")
    rows = _batch_rows(system, cfg.n)
    outcomes = []
    for start in range(0, cfg.restarts, rows):
        outcomes += _run_restart(system, cfg, range(start, min(start + rows, cfg.restarts)))
    val, k, f, _, converged = min(outcomes, key=lambda r: (r[0], r[1]))
    total_iters = sum(r[3] for r in outcomes)
    obj = _Objective(system, cfg.property, cfg.l, cfg.n)
    revalidated = float(obj.value(f.values[None])[0])
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
