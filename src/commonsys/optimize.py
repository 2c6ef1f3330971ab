"""Search for colourings that violate commonness-type properties.

Nonmonotone spectral projected gradient (SPG; Birgin, Martinez and
Raydan 2000, "Nonmonotone spectral projected gradient methods on convex
sets") on a property's defect over the box {f : F_p^n -> [0,1]},
optionally intersected with a fixed-mean slice.  From x with gradient g
and step length lam, one outer step projects once, d = P(x - lam g) - x,
and backtracks t = 1, 1/2, ... along the feasible segment x + t d until
the defect is at most the largest of the last M accepted values plus
1e-4 t (g . d).  The first lam is `_ETA0`; after each accepted step s with
gradient change y, lam = s.s / s.y (Barzilai and Borwein 1988), clamped to
[1e-10, 1e10], or 1e10 when s.y <= 0.  A restart stops when the projected
gradient x - P(x - g) is below `_GRAD_TOL`, when t falls below 1e-12, or
at a violation (a defect below `_VIOLATION_TOL`).

Restarts cycle through four initialization families (constant-plus-noise,
uniform noise, coset indicators, character bumps); character bumps are
the extremizers suggested by the Fourier form of the functionals, so
they are seeded deliberately.

The restarts run in lockstep as the rows of one array: each outer step
takes one gradient call into `counting` over the rows still running, and
each backtracking round one value call on every row still searching,
while each row keeps its own step length, value history and stop state.
A batch holds at most CHUNK // widest rows (widest: p^n, or a block's
directions times its lambda-tuples per chunk), so memory stays bounded at
large p^n.  The projection onto a fixed-mean slice is exact: a breakpoint
search per row (Kiwiel 2008), not a bisection.

Everything is deterministic given the config seed: restart k draws from
default_rng([seed, k]), a row's arithmetic does not depend on the other
rows of its batch (each sum runs along one C-contiguous row), and the
cross-restart reduction is lexicographic in (defect, restart index).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import counting
from .counting import CHUNK, _defect_gradient, _defect_rows
from .errors import InfeasibleMean, MalformedDocument, TooLarge
from .harmonic import GroupFunction, character_bump, checked_size, coset_indicator
from .linsys import LinearSystem

MAX_SEARCH_POINTS = 1 << 20
# means in one `alpha_grid`; each costs a Fraction (about 120 bytes) before
# any search runs, and every one of them is then a full search
MAX_GRID_POINTS = 10**5

# spectral projected gradient: value memory M of the nonmonotone test, its
# sufficient-decrease factor, the first step, the Barzilai-Borwein clamp, and
# the stops (projected-gradient norm, violating defect)
_MEMORY = 10
_SUFFICIENT_DECREASE = 1e-4
_ETA0 = 0.1
_LAMBDA_MIN, _LAMBDA_MAX = 1e-10, 1e10
_GRAD_TOL = 1e-8
_VIOLATION_TOL = -1e-6


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
    seed: int = 0

    def __post_init__(self):
        counting.check_property(self.property, self.l)
        if self.restarts < 1:
            raise MalformedDocument("restarts must be >= 1")
        if self.max_iters < 0:
            raise MalformedDocument("max_iters must be >= 0")
        if self.seed < 0:
            raise MalformedDocument("seed must be >= 0")
        if self.n < 1:
            raise MalformedDocument("n must be >= 1")
        checked_size(self.p, self.n, MAX_SEARCH_POINTS)
        _check_unit(self.mean)
        counting.check_mean(self.property, self.mean)


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


def _project_values(v: np.ndarray, alpha: float | None) -> np.ndarray:
    """Euclidean projection of each row of `v` (or of a single 1-D vector)
    onto [0,1]^N, intersected with {mean = alpha} when alpha is set."""
    if alpha is None:
        return np.clip(v, 0.0, 1.0)
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


def _check_unit(mean) -> None:
    """Refuse a mean outside [0, 1]; run where a mean enters, not per projection."""
    if mean is not None and not 0.0 <= mean <= 1.0:
        raise InfeasibleMean(f"target mean {mean} outside [0, 1]")


def project_box_mean(v, p: int, n: int, alpha: float | None = None) -> GroupFunction:
    """Euclidean projection onto [0,1]^(p^n), optionally with mean alpha."""
    _check_unit(alpha)
    arr = np.asarray(v, dtype=np.float64)
    return GroupFunction(p, n, _project_values(arr, alpha))


class _Objective:
    """Defect value and Euclidean gradient for one property, for each row
    of an (R, p^n) stack of functions, from `counting`."""

    def __init__(self, system: LinearSystem, property: str, l: int | None, n: int):
        self.system = system
        self.property = property
        self.l = l
        self.n = n

    def value(self, values: np.ndarray) -> np.ndarray:
        return _defect_rows(self.system, self.property, self.l, values, self.n)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        return _defect_gradient(self.system, self.property, self.l, values, self.n)


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
        unit = [int(i == coord) for i in range(cfg.n)]
        return coset_indicator(cfg.p, cfg.n, unit, residue).values
    h = int(rng.integers(1, size))
    phase = int(rng.integers(cfg.p))
    eps = 0.45 * float(rng.uniform(0.6, 1.0))
    return character_bump(cfg.p, cfg.n, h, phase, eps).values


def _batch_rows(system: LinearSystem, n: int) -> int:
    """Restarts per lockstep batch: at most CHUNK // widest rows, where
    widest is the larger of p^n and the kernel's widest gather
    (`counting._widest_table`), so each of a batch's stacks, spectra,
    dilated spectra and powers, or one chunk of gathered power products,
    holds at most CHUNK entries."""
    widest = max(system.p**n, counting._widest_table(system, n))
    return max(1, CHUNK // widest)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row i: a sum along C-contiguous rows, so a row's
    value does not depend on the other rows of its batch."""
    return (a * b).sum(axis=-1)


def _run_restart(system: LinearSystem, cfg: SearchConfig, ks, trace: list | None = None):
    """Run the restarts `ks` in lockstep, one row of one array each, by
    nonmonotone spectral projected gradient.

    Each row keeps its own step length, value history and stop state; one
    gradient pass serves every row still running, and each backtracking
    round evaluates every row still searching at once.  Returns (defect,
    k, colouring, accepted steps, converged) per restart.  With `trace`,
    one list per restart receives its starting and accepted defects.
    """
    ks = list(ks)
    alpha = counting.check_mean(cfg.property, cfg.mean)
    obj = _Objective(system, cfg.property, cfg.l, cfg.n)
    x = _project_values(
        np.stack([_initial_point(cfg, k, np.random.default_rng([cfg.seed, k])) for k in ks]),
        alpha,
    )
    val = obj.value(x)
    grad = np.empty_like(x)  # the gradient at each row's accepted point
    moved = np.empty_like(x)  # each row's last accepted step s
    lam = np.full(len(ks), _ETA0)
    history = np.full((len(ks), _MEMORY), -np.inf)  # ring buffer of accepted values
    history[:, 0] = val
    iters = np.zeros(len(ks), dtype=np.int64)
    converged = np.zeros(len(ks), dtype=bool)
    running = np.ones(len(ks), dtype=bool)
    if trace is not None:
        for row, v in zip(trace, val.tolist()):
            row.append(v)
    for outer in range(cfg.max_iters):
        running &= ~(val < _VIOLATION_TOL)
        live = np.flatnonzero(running)
        if not live.size:
            break
        g = obj.gradient(x[live])
        if outer:  # every live row accepted a step last round: Barzilai-Borwein
            s = moved[live]
            ss, sy = _row_dots(s, s), _row_dots(s, g - grad[live])
            curved = sy > 0
            lam[live] = _LAMBDA_MAX
            lam[live[curved]] = np.clip(ss[curved] / sy[curved], _LAMBDA_MIN, _LAMBDA_MAX)
        grad[live] = g
        pg = x[live] - _project_values(x[live] - g, alpha)
        flat = np.sqrt(_row_dots(pg, pg)) < _GRAD_TOL
        converged[live[flat]] = True
        running[live[flat]] = False
        live, g = live[~flat], g[~flat]
        # x + t d stays feasible for t in [0, 1], so backtracking never projects
        d = _project_values(x[live] - lam[live, None] * g, alpha) - x[live]
        slope = _SUFFICIENT_DECREASE * _row_dots(g, d)
        ref = history[live].max(axis=1)
        t = 1.0  # every row still searching has halved its t as often
        while live.size and t >= 1e-12:
            cand = x[live] + t * d
            cand_val = obj.value(cand)
            ok = cand_val <= ref + t * slope
            taken = live[ok]
            moved[taken] = cand[ok] - x[taken]
            x[taken] = cand[ok]
            val[taken] = cand_val[ok]
            iters[taken] += 1
            history[taken, iters[taken] % _MEMORY] = cand_val[ok]
            if trace is not None:
                for i, v in zip(taken.tolist(), cand_val[ok].tolist()):
                    trace[i].append(v)
            keep = ~ok
            live, d, slope, ref = live[keep], d[keep], slope[keep], ref[keep]
            t *= 0.5
        converged[live] = True  # stalled
        running[live] = False
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
    best, total_iters = None, 0  # a running minimum: each batch is dropped once folded
    for start in range(0, cfg.restarts, rows):
        batch = _run_restart(system, cfg, range(start, min(start + rows, cfg.restarts)))
        total_iters += sum(r[3] for r in batch)
        best = min(batch if best is None else [best, *batch], key=lambda r: (r[0], r[1]))
    val, k, f, _, converged = best
    obj = _Objective(system, cfg.property, cfg.l, cfg.n)
    revalidated = float(obj.value(f.values[None])[0])
    return SearchResult(
        best=f,
        best_defect=revalidated,
        iterations=total_iters,
        converged=converged,
        violation=revalidated < _VIOLATION_TOL,
        restart_index=k,
    )


def scan_alpha(system: LinearSystem, cfg: SearchConfig, alphas) -> list[dict]:
    """Minimize the defect with the mean pinned to each grid value: search i
    is `cfg` with mean alphas[i] and seed cfg.seed + i."""
    rows = []
    for i, alpha in enumerate(alphas):
        alpha = float(alpha)
        result = minimize_defect(system, replace(cfg, mean=alpha, seed=cfg.seed + i))
        rows.append({"alpha": alpha, "best_defect": result.best_defect,
                     "violation": result.violation})
    return rows


def alpha_grid(resolution: int):
    """Evenly spaced means including both endpoints; 3 <= resolution <=
    MAX_GRID_POINTS (TooLarge above it)."""
    if resolution < 3:
        raise MalformedDocument("grid resolution must be >= 3")
    if resolution > MAX_GRID_POINTS:
        raise TooLarge(f"grid resolution {resolution} exceeds the cap {MAX_GRID_POINTS}")
    return [Fraction(i, resolution - 1) for i in range(resolution)]
