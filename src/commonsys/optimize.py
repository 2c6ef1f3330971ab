"""Search for colourings that violate commonness-type properties.

Nonmonotone spectral projected gradient (SPG; Birgin, Martinez and
Raydan 2000, "Nonmonotone spectral projected gradient methods on convex
sets") on a property's defect over the box {f : F_p^n -> [0,1]},
optionally intersected with a fixed-mean slice.  From x with gradient g
and step length lam, one outer step makes one projection call, on the
stack of x - g and x - lam g: the first half gives the stop test's
projected gradient x - P(x - g), the second the step d = P(x - lam g) - x.
A restart stops when that projected gradient is below `_GRAD_TOL`;
otherwise it backtracks t = 1, 1/2, ... along the feasible segment x + t d
until the defect is at most the largest of the last M accepted values
plus 1e-4 t (g . d).  The first lam is `_ETA0`; after each accepted step s
with gradient change y, lam = s.s / s.y (Barzilai and Borwein 1988),
clamped to [1e-10, 1e10], or 1e10 when s.y <= 0.  A restart also stops
when t falls below 1e-12, or at a violation (a defect below
`_VIOLATION_TOL`).

Restarts cycle through four initialization families (constant-plus-noise,
uniform noise, coset indicators, character bumps); character bumps are
the extremizers suggested by the Fourier form of the functionals, so
they are seeded deliberately.

The restarts of every mean run in lockstep as the rows of one array, so
`minimize_defect` is the one-mean case of a scan.  One kernel pass into
`counting` gives the defect and gradient of the start points, and one
per backtracking round those of every row still searching; an accepted
row keeps both, so each point is evaluated once.  Each row keeps its own
mean, step length and value history; the state holds the running rows
only, and a row that stops leaves it once.
A batch holds at most `counting._batch_rows` rows, the bound that keeps
each of the kernel's stacks within one chunk, so memory stays bounded at
large p^n.  The projection onto a fixed-mean slice is exact: a breakpoint
search per row (Kiwiel 2008), not a bisection.

Everything is deterministic given the config seed: restart k of mean i
draws from default_rng([seed + i, k]), a row's arithmetic does not depend
on the other rows of its batch (each sum runs along one C-contiguous
row), and each mean's reduction is lexicographic in (defect, restart).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from . import counting
from .counting import _defect_gradient
from .errors import InfeasibleMean, MalformedDocument, TooLarge
from .harmonic import GroupFunction, character_bump, checked_size, coset_indicator
from .linsys import LinearSystem

MAX_SEARCH_POINTS = 1 << 20
# means in one scan; before any search each costs a Fraction, a float and one
# check, and then its restarts join the rows of the one search
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
        counting.check_mean(self.property, _check_unit(self.mean))


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


def _project_values(v: np.ndarray, alpha: float | np.ndarray | None) -> np.ndarray:
    """Euclidean projection of each row of `v` (or of a single 1-D vector)
    onto [0,1]^N, intersected with {mean = alpha} when alpha, a float or a
    column of one mean per row, is set."""
    if alpha is None:
        return v.clip(0.0, 1.0)
    out = _breakpoint_projection(np.atleast_2d(v), alpha).reshape(v.shape)
    ends = (alpha == 0.0) | (alpha == 1.0)  # the slice is the single constant function
    return np.where(ends, alpha, out) if np.any(ends) else out


def _breakpoint_projection(rows: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """clip(v - mu, 0, 1) per row, with mu solving sum clip(v - mu, 0, 1) =
    N alpha for 0 < alpha < 1, one alpha or one per row (Kiwiel 2008).

    The sum is continuous, nonincreasing and linear between the sorted
    breakpoints v_i - 1 (coordinate i leaves 1) and v_i (it reaches 0).
    The segment where it crosses N alpha holds mu, which is then solved
    from that segment's interior coordinates.

    Of the (R, 2N) temporaries, at most four are alive at once: the sort
    order is freed once `leaves_one` is read from it, the summands of
    `mass` are built, summed and shifted in one buffer, `interior` is
    formed in the buffer of the running count `passed`, and `right_end`
    takes one buffer of its own, freed before the final clip.
    """
    r, size = rows.shape
    points = np.concatenate([rows - 1.0, rows], axis=1)
    order = np.argsort(points, axis=1, kind="stable")  # a tie puts v_i - 1 first
    row = np.arange(r)[:, None]
    points = points[row, order]
    leaves_one = order < size
    del order
    # right of breakpoint j: `interior` coordinates strictly inside (0, 1),
    # and `mass` = (coordinates still at 1) + (sum of the interior v_i)
    passed = np.cumsum(leaves_one, axis=1)
    mass = np.negative(points)
    np.add(points, 1.0, out=mass, where=leaves_one)
    del leaves_one
    np.cumsum(mass, axis=1, out=mass)
    mass += size - passed
    interior = np.multiply(passed, 2, out=passed)
    interior -= np.arange(1, 2 * size + 1)
    target = size * alpha
    right_end = np.multiply(interior[:, :-1], points[:, 1:])
    np.subtract(mass[:, :-1], right_end, out=right_end)
    # the sum is nonincreasing, so mu lies on the segment whose index counts
    # the right ends above the target; rounding can leave every right end
    # slightly above a tiny target, and then mu is on the last segment,
    # never past the last breakpoint
    seg = np.minimum(np.count_nonzero(right_end > target, axis=1), 2 * size - 2)[:, None]
    del right_end
    lo, hi, count = points[row, seg], points[row, seg + 1], interior[row, seg]
    mu = np.where(count > 0, (mass[row, seg] - target) / np.maximum(count, 1), hi)
    return (rows - mu.clip(lo, hi)).clip(0.0, 1.0)


def _check_unit(mean):
    """Refuse a mean outside [0, 1], else return it; run where a mean enters."""
    if mean is not None and not 0.0 <= mean <= 1.0:
        raise InfeasibleMean(f"target mean {mean} outside [0, 1]")
    return mean


def project_box_mean(v, p: int, n: int, alpha: float | None = None) -> GroupFunction:
    """Euclidean projection onto [0,1]^(p^n), optionally with mean alpha."""
    alpha = None if alpha is None else float(_check_unit(alpha))
    return GroupFunction(p, n, _project_values(np.asarray(v, dtype=np.float64), alpha))


class _Objective:
    """Defect value and Euclidean gradient for one property, for each row
    of an (R, p^n) stack of functions, from one `counting` pass: `gradient`
    gives both, and `value` is its first half."""

    def __init__(self, system: LinearSystem, property: str, l: int | None, n: int):
        self.system = system
        self.property = property
        self.l = l
        self.n = n

    def value(self, values: np.ndarray) -> np.ndarray:
        return _defect_gradient(self.system, self.property, self.l, values, self.n)[0]

    def gradient(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row i: a sum along C-contiguous rows, so a row's
    value does not depend on the other rows of its batch."""
    return (a * b).sum(axis=-1)


def _run_restart(system: LinearSystem, cfg: SearchConfig, rows, trace: list | None = None):
    """Run the restarts `rows`, one row of one array each, in lockstep by
    nonmonotone spectral projected gradient: row (mean, seed, k) is restart
    k of `cfg` from default_rng([seed, k]), pinned to `mean` (None on every
    row, or a float on every row).  One kernel pass gives the defect and
    gradient of the start points, and one more those of each backtracking
    round's candidates; an accepted row keeps both and sets its
    Barzilai-Borwein step then.  The start points take one projection call,
    and each outer step one, on the 2m rows x - g, x - lam g of its m
    running rows; rows project independently, so stacking moves no bits.
    The cost: a row that passes the stop test had its step projected for
    nothing, at most once per row.

    The state (x, gradient, defect, step length, value history, steps, the
    row's index in `rows` and the pinned column, doubled for the stacked
    projection) holds the running rows only.  A row that stops, at a
    violation, a flat projected gradient or a stalled line search, is
    written to the outcome and compacted out of the state once, so a step
    gathers no running rows; where every row takes its first candidate, the
    candidates become the state.  Returns (defect, k, colouring, accepted
    steps, converged) per row; with `trace`, one list per row receives its
    starting and accepted defects.
    """
    pinned = None if rows[0][0] is None else np.array([row[:1] for row in rows], dtype=np.float64)
    obj = _Objective(system, cfg.property, cfg.l, cfg.n)
    x = _project_values(
        np.stack([_initial_point(cfg, k, np.random.default_rng([seed, k])) for _, seed, k in rows]),
        pinned,
    )
    val, grad = obj.gradient(x)  # each row's defect and gradient at its accepted point
    out_x, out_val = np.empty_like(x), np.empty(len(rows))
    out_iters, out_converged = np.empty(len(rows), dtype=np.int64), np.empty(len(rows), dtype=bool)
    lam = np.full(len(rows), _ETA0)
    history = np.full((len(rows), _MEMORY), -np.inf)  # ring buffer of accepted values
    history[:, 0] = val
    iters = np.zeros(len(rows), dtype=np.int64)
    order = np.arange(len(rows))
    doubled = None if pinned is None else np.concatenate([pinned, pinned])
    if trace is not None:
        for row, v in zip(trace, val.tolist()):
            row.append(v)

    def stop(done, converged):
        """Write the state's rows `done` to the outcome; the state without them."""
        at, keep = order[done], ~done
        out_x[at], out_val[at], out_iters[at] = x[done], val[done], iters[done]
        out_converged[at] = converged
        return ([a[keep] for a in (x, grad, val, lam, history, iters, order)]
                + [None if doubled is None else doubled[np.concatenate([keep, keep])]])

    for _ in range(cfg.max_iters):
        violation = val < _VIOLATION_TOL
        if violation.any():
            x, grad, val, lam, history, iters, order, doubled = stop(violation, False)
        m = len(order)
        if not m:
            break
        # the stop test's P(x - g) and the step's P(x - lam g) in one call
        projected = _project_values(np.concatenate([x - grad, x - lam[:, None] * grad]), doubled)
        pg = x - projected[:m]
        # x + t d stays feasible for t in [0, 1], so backtracking never projects
        d = projected[m:] - x
        flat = np.sqrt(_row_dots(pg, pg)) < _GRAD_TOL
        if flat.any():
            d = d[~flat]
            x, grad, val, lam, history, iters, order, doubled = stop(flat, True)
        slope = _SUFFICIENT_DECREASE * _row_dots(grad, d)
        ref = history.max(axis=1)
        # the rows still backtracking: their index in the state, point and gradient
        live, at, g = np.arange(len(order)), x, grad
        t = 1.0  # every row still searching has halved its t as often
        while live.size and t >= 1e-12:
            cand = at + t * d
            cand_val, cand_grad = obj.gradient(cand)
            ok = cand_val <= ref + t * slope
            s = cand - at  # Barzilai-Borwein, from the step and the gradient change
            ss, sy = _row_dots(s, s), _row_dots(s, cand_grad - g)
            step = np.divide(ss, sy, out=np.full(len(ss), _LAMBDA_MAX), where=sy > 0)
            step = step.clip(_LAMBDA_MIN, _LAMBDA_MAX)
            rest = ~ok
            backtrack = rest.any()
            taken = live
            if backtrack:
                taken, step, cand, cand_grad, cand_val = (
                    live[ok], step[ok], cand[ok], cand_grad[ok], cand_val[ok])
            if len(taken) == len(x):  # every row took its step: the candidates are the state
                lam, x, grad, val = step, cand, cand_grad, cand_val
            else:
                lam[taken], x[taken], grad[taken], val[taken] = step, cand, cand_grad, cand_val
            iters[taken] += 1
            history[taken, iters[taken] % _MEMORY] = cand_val
            if trace is not None:
                for i, v in zip(order[taken].tolist(), cand_val.tolist()):
                    trace[i].append(v)
            if not backtrack:
                break
            live, at, g, d, slope, ref = (
                live[rest], at[rest], g[rest], d[rest], slope[rest], ref[rest])
            t *= 0.5
        else:  # stalled
            stalled = np.zeros(len(order), dtype=bool)
            stalled[live] = True
            x, grad, val, lam, history, iters, order, doubled = stop(stalled, True)
    stop(np.ones(len(order), dtype=bool), False)
    return [
        (float(out_val[i]), k, GroupFunction(cfg.p, cfg.n, out_x[i]), int(out_iters[i]),
         bool(out_converged[i]))
        for i, (_, _, k) in enumerate(rows)
    ]


def _search(system: LinearSystem, cfg: SearchConfig, means):
    """Yield, for each mean i, the result of `cfg` at mean means[i] (None:
    unpinned) and seed cfg.seed + i.  Every mean is checked, then more than
    MAX_GRID_POINTS means refused; then the (mean, restart) rows run in
    batches of at most `counting._batch_rows`, each outcome folded into its
    mean's running best, which is re-validated by a fresh evaluation once
    the mean's last restart is in."""
    if system.p != cfg.p:
        raise MalformedDocument("config modulus differs from the system modulus")
    pinned = [counting.check_mean(cfg.property, _check_unit(mean)) for mean in means]
    if len(pinned) > MAX_GRID_POINTS:
        raise TooLarge(f"{len(pinned)} means exceed the cap {MAX_GRID_POINTS}")
    rows = ((mean, cfg.seed + i, k) for i, mean in enumerate(pinned) for k in range(cfg.restarts))
    size = counting._batch_rows(system, cfg.n)
    obj = _Objective(system, cfg.property, cfg.l, cfg.n)
    while batch := list(islice(rows, size)):
        for outcome in _run_restart(system, cfg, batch):
            if outcome[1] == 0:
                best, total_iters = outcome, 0
            best = min(best, outcome, key=lambda r: (r[0], r[1]))
            total_iters += outcome[3]
            if outcome[1] == cfg.restarts - 1:
                _, k, f, _, converged = best
                revalidated = float(obj.value(f.values[None])[0])
                yield SearchResult(best=f, best_defect=revalidated, iterations=total_iters,
                                   converged=converged, violation=revalidated < _VIOLATION_TOL,
                                   restart_index=k)


def minimize_defect(system: LinearSystem, cfg: SearchConfig) -> SearchResult:
    """Best colouring found over all restarts (`_search` at the one mean
    cfg.mean); defect re-validated by a fresh evaluation before reporting."""
    (result,) = _search(system, cfg, [cfg.mean])
    return result


def scan_alpha(system: LinearSystem, cfg: SearchConfig, alphas) -> list[dict]:
    """Minimize the defect with the mean pinned to each grid value: search i
    is `cfg` with mean alphas[i] and seed cfg.seed + i.  Every mean is
    checked, and more than MAX_GRID_POINTS refused, before the first
    search, and every (mean, restart) row runs in one lockstep search."""
    means = [float(alpha) for alpha in alphas]
    return [{"alpha": alpha, "best_defect": result.best_defect, "violation": result.violation}
            for alpha, result in zip(means, _search(system, cfg, means))]


def alpha_grid(resolution: int):
    """Evenly spaced means including both endpoints; 3 <= resolution <=
    MAX_GRID_POINTS (TooLarge above it)."""
    if resolution < 3:
        raise MalformedDocument("grid resolution must be >= 3")
    if resolution > MAX_GRID_POINTS:
        raise TooLarge(f"grid resolution {resolution} exceeds the cap {MAX_GRID_POINTS}")
    return [Fraction(i, resolution - 1) for i in range(resolution)]
