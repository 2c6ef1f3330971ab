"""Solution-density functionals of linear systems.

For a system S with kernel forms psi_1..psi_t in D parameters, the
density of f-weighted solutions is

    T(f) = E_{y in (F_p^n)^D} f(psi_1(y)) ... f(psi_t(y)).

Two evaluation routes are kept deliberately independent:

* `t_brute`   -- exact rational enumeration over the kernel
                 parameterization of the whole system, never factored;
* `t_fourier` -- summation over the row space of the coefficient matrix,
                 T(f) = sum over lambda in (F_p^n)^m of
                 prod_i fhat(sum_r lambda_r M[r][i]),
                 taken per variable-disjoint block (`factor_disjoint`)
                 and multiplied, as T of disjoint blocks factors.

`t_gradient` gives the first variation of T, assembled on the Fourier
side over the same blocks by the product rule, and `defect` turns T
values into the signed slack of a chosen colouring property (negative
slack certifies a violation) via `defect_value`, shared with the
optimizer.

Both Fourier routes run on an (R, p^n) stack of functions: one transform
pass per stack, one gather per block, and a `np.bincount` scatter for the
gradient.  Every defect is a function of the pair (T(f), T(1 - f)), so
`defect`, `alon_witness` and the optimizer evaluate [f, 1 - f] as one
stack; `t_fourier`/`t_gradient` are its one-row case.  The point-index
tables of each chunk of lambdas (or kernel parameters) come from a small
bounded cache of read-only arrays, so repeated evaluations on the same
blocks build them once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateT,
    LTooSmall,
    MalformedDocument,
    MeanConstraintViolated,
    MissingL,
    TooLarge,
)
from .harmonic import GroupFunction, _dft_rows, _idft_rows, negation_permutation
from .linsys import LinearSystem, factor_disjoint

ENUMERATION_CAP = 10**8
# cap on l * bits(denominator of alpha) for the exact alon defect: its alpha^l
# terms are exact rationals, and their arithmetic grows quadratically in size
EXACT_POWER_BITS = 1 << 22
CHUNK = 1 << 16

COMMON = "common"
GEOMETRIC = "geometric"
SIDORENKO = "sidorenko"
ALON = "alon"
PREVALENCE = "prevalence"
PROPERTIES = (COMMON, GEOMETRIC, SIDORENKO, ALON, PREVALENCE)

METHOD_BRUTE = "BruteExact"
METHOD_FOURIER = "Fourier"


def _check_compat(system: LinearSystem, f: GroupFunction) -> None:
    if system.p != f.p:
        raise MalformedDocument(
            f"system has p={system.p} but function has p={f.p}"
        )


def _digit_matrix(indices: np.ndarray, p: int, n: int) -> np.ndarray:
    """Base-p digits of point indices, shape (len, n)."""
    out = np.empty((indices.size, n), dtype=np.int64)
    v = indices.copy()
    for i in range(n):
        out[:, i] = v % p
        v //= p
    return out


def _recompose(digits: np.ndarray, p: int) -> np.ndarray:
    idx = np.zeros(digits.shape[0], dtype=np.int64)
    for i in range(digits.shape[1] - 1, -1, -1):
        idx = idx * p + digits[:, i]
    return idx


@lru_cache(maxsize=4)
def _index_table(forms, p: int, n: int, start: int, stop: int) -> np.ndarray:
    """Point indices of every linear form over the parameter tuples
    start..stop-1 of (F_p^n)^k, k = len(forms[0]), as a read-only
    (len(forms), stop - start) array.

    forms[i] gives the F_p coefficients of form i; tuples are enumerated
    as base-p^n integers.  The cache holds the one-chunk tables of the few
    blocks a search evaluates on every call.
    """
    base = p**n
    rest = np.arange(start, stop, dtype=np.int64)
    param_digits = []
    for _ in range(len(forms[0])):
        param_digits.append(_digit_matrix(rest % base, p, n))
        rest //= base
    table = np.empty((len(forms), stop - start), dtype=np.int64)
    for row, coeffs in zip(table, forms):
        acc = np.zeros((stop - start, n), dtype=np.int64)
        for c, dig in zip(coeffs, param_digits):
            if c:
                acc += c * dig
        row[:] = _recompose(acc % p, p)
    table.flags.writeable = False
    return table


def _form_indices(forms, p: int, n: int, label: str):
    """The index tables of `forms` over all of (F_p^n)^k, one CHUNK of
    parameter tuples at a time.  The size cap is checked before any chunk."""
    total = (p**n) ** len(forms[0])
    if total > ENUMERATION_CAP:
        raise TooLarge(f"{label} = {total} exceeds cap {ENUMERATION_CAP}")
    # a longer scan would miss on every chunk of the LRU cache and leave its
    # last chunks (len(forms) * CHUNK * 8 bytes each) pinned, so it streams
    build = _index_table if total <= CHUNK else _index_table.__wrapped__
    return (
        build(forms, p, n, start, min(start + CHUNK, total))
        for start in range(0, total, CHUNK)
    )


def t_brute(system: LinearSystem, f: GroupFunction) -> Fraction:
    """Exact normalized solution density, by kernel enumeration.

    Function values are taken as exact rationals (decimal literals are
    interpreted exactly); the result is an exact fraction.  The whole
    kernel is enumerated, never factored, so this stays an independent
    oracle for the row-space route.
    """
    _check_compat(system, f)
    chunks = _form_indices(system.kernel, f.p, f.n, "p^(nD)")
    exact = f.exact_values()
    denom_lcm = 1
    for v in exact:
        denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm, v.denominator)
    numerators = [int(v * denom_lcm) for v in exact]
    max_abs = max(abs(a) for a in numerators) if numerators else 0
    t = system.t
    bound = max_abs**t if max_abs else 0
    use_int64 = 0 < bound < (1 << 62)
    if max_abs == 0:
        return Fraction(0)
    numer_arr = np.array(numerators, dtype=np.int64 if use_int64 else object)
    total = 0
    for var_idx in chunks:
        prod = numer_arr[var_idx[0]].copy()
        for vi in var_idx[1:]:
            prod *= numer_arr[vi]
        total += _exact_sum(prod, bound if use_int64 else None)
    return Fraction(total, denom_lcm**t * f.size**system.num_params)


def _exact_sum(prod: np.ndarray, per_item_bound) -> int:
    if per_item_bound is None:
        return int(sum(prod.tolist()))
    block = max(1, (1 << 62) // per_item_bound)
    if block >= prod.size:
        return int(prod.sum())
    pad = (-prod.size) % block
    padded = np.concatenate([prod, np.zeros(pad, dtype=np.int64)])
    partial = padded.reshape(-1, block).sum(axis=1)
    return int(sum(int(x) for x in partial))


@lru_cache(maxsize=None)
def _block_columns(system: LinearSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coefficient-matrix columns of each variable-disjoint block of the
    system; a block with no rows has empty columns (one lambda-term)."""
    blocks, _ = factor_disjoint(system)
    return tuple(
        tuple(tuple(row[i] for row in block.matrix) for i in range(block.t))
        for block in blocks
    )


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sum along the last axis.  A running sum fixes the
    order, so each row's bits do not depend on how many rows share the
    stack; the order of `sum` follows the memory layout, which does."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _block_sums(columns, fhat: np.ndarray, p: int, n: int) -> np.ndarray:
    """Row-space sum of one block for each row of fhat:
    sum over lambda of prod_i fhat(lambda . column_i)."""
    total = np.zeros(fhat.shape[0], dtype=np.complex128)
    for table in _form_indices(columns, p, n, "p^(nm)"):
        total += _row_sums(fhat[:, table].prod(axis=1))
    return total


def _t_rows(system: LinearSystem, values: np.ndarray, n: int) -> np.ndarray:
    """T of each row of an (R, p^n) stack of functions: the product of the
    block lambda-sums over the variable-disjoint blocks, real part."""
    fhat = _dft_rows(values, system.p, n)
    total = np.ones(values.shape[0], dtype=np.complex128)
    for columns in _block_columns(system):
        total *= _block_sums(columns, fhat, system.p, n)
    return total.real


def _block_gradient(columns, fhat: np.ndarray, p: int, n: int):
    """Block sums per row, and the Fourier-side first variation of each
    (the sum over lambda of the leave-one-out products, scattered onto
    the frequencies they omit)."""
    rows, size = fhat.shape
    offsets = (np.arange(rows) * size)[:, None, None]
    sums = np.zeros(rows, dtype=np.complex128)
    acc = np.zeros(rows * size, dtype=np.complex128)
    for table in _form_indices(columns, p, n, "p^(nm)"):
        gathered = fhat[:, table]
        # leave-one-out products via prefix/suffix scans
        prefix = np.ones_like(gathered)
        np.cumprod(gathered[:, :-1], axis=1, out=prefix[:, 1:])
        suffix = np.ones_like(gathered)
        np.cumprod(gathered[:, :0:-1], axis=1, out=suffix[:, -2::-1])
        sums += _row_sums(prefix[:, -1] * gathered[:, -1])
        loo = (prefix * suffix).ravel()
        where = (table + offsets).ravel()
        acc += np.bincount(where, loo.real, rows * size)
        acc += 1j * np.bincount(where, loo.imag, rows * size)
    return sums, acc.reshape(rows, size)


def _gradient_rows(system: LinearSystem, values: np.ndarray, n: int):
    """(G, T) for each row of an (R, p^n) stack; G as in `t_gradient`,
    assembled block by block with the product rule."""
    p = system.p
    fhat = _dft_rows(values, p, n)
    acc = np.zeros(fhat.shape, dtype=np.complex128)
    t_prev = np.ones(fhat.shape[0], dtype=np.complex128)
    for columns in _block_columns(system):
        t_b, acc_b = _block_gradient(columns, fhat, p, n)
        acc = acc * t_b[:, None] + t_prev[:, None] * acc_b
        t_prev = t_prev * t_b
    flipped = acc[:, negation_permutation(p, n)]
    return _idft_rows(flipped, p, n).real, t_prev.real


def _pair_rows(f: GroupFunction) -> np.ndarray:
    """The (2, p^n) stack [f, 1 - f] that every defect is a function of."""
    return np.stack([f.values, 1.0 - f.values])


def t_fourier(system: LinearSystem, f: GroupFunction) -> float:
    """Row-space evaluation of T(f): the product of the block lambda-sums
    over the variable-disjoint blocks, real part."""
    _check_compat(system, f)
    return float(_t_rows(system, f.values[None], f.n)[0])


def t_gradient(system: LinearSystem, f: GroupFunction) -> GroupFunction:
    """First variation G of T at f, as a (non-clamped) function:

        T(f + eps*delta) - T(f) = (eps / p^n) * sum_x G(x) delta(x) + O(eps^2).

    Assembled on the Fourier side block by block with the product rule.
    """
    _check_compat(system, f)
    grads, _ = _gradient_rows(system, f.values[None], f.n)
    return GroupFunction(f.p, f.n, grads[0])


# ---------------------------------------------------------------------------
# Property defects


@dataclass(frozen=True)
class DefectReport:
    """Signed slack of a colouring property at one function.

    Negative `value` certifies a violation of the property at `f`.  The
    value is recomputable from (t_f, t_1mf, alpha, l, t) via the formula
    of the property.
    """

    system: str
    property: str
    alpha: object
    value: object
    t_f: object
    t_1mf: object
    method: str
    t: int
    l: int | None = None
    system_digest: str = ""
    function_digest: str = ""

    def violated(self) -> bool:
        return self.value < 0

    def to_dict(self) -> dict:
        from . import __version__

        def plain(x):
            if not isinstance(x, Fraction):
                return x
            try:
                return str(x)
            except ValueError:  # beyond the interpreter's int-to-str digit limit
                raise TooLarge(f"an exact value of the {self.property} defect has "
                               "too many digits to print") from None

        return {
            "system": self.system,
            "property": self.property,
            "l": self.l,
            "alpha": plain(self.alpha),
            "value": plain(self.value),
            "t_f": plain(self.t_f),
            "t_1mf": plain(self.t_1mf),
            "method": self.method,
            "t": self.t,
            "exact": isinstance(self.value, Fraction),
            "tool_version": __version__,
            "system_digest": self.system_digest,
            "function_digest": self.function_digest,
        }


def defect_value(property: str, t_f, t_1mf, alpha, t: int, l: int | None, one):
    """Signed slack of `property` from the two densities and the mean.

    `one` (1.0 or Fraction(1)) fixes the arithmetic, so exact inputs give
    an exact value and float inputs a float.
    """
    two = 2 * one
    if property == COMMON:
        return t_f + t_1mf - two ** (1 - t)
    if property == GEOMETRIC:
        return t_f * t_1mf - two ** (-2 * t)
    if property == ALON:
        return alpha**l * t_f + (one - alpha) ** l * t_1mf - two ** (1 - t - l)
    if property == SIDORENKO:
        return t_f - alpha**t
    return t_f  # prevalence: the density itself, with the mean recorded


def function_digest(f: GroupFunction) -> str:
    return hashlib.sha256(f.values.tobytes()).hexdigest()[:12]


def defect(
    system: LinearSystem,
    f: GroupFunction,
    property: str,
    l: int | None = None,
    method: str = "fourier",
) -> DefectReport:
    """Evaluate the chosen property's defect at f.

    method "fourier" uses double precision; "brute" is exact rational.
    The free-variable (alon) defect always goes through the closed form
    alpha^l T(f) + (1-alpha)^l T(1-f) - 2^(1-t-l), never through an
    enlarged system, so l may be arbitrarily large; the exact method
    raises TooLarge once alpha^l would pass EXACT_POWER_BITS.
    """
    if property not in PROPERTIES:
        raise MalformedDocument(f"unknown property {property!r}")
    if not f.in_unit_box(tol=1e-12):
        raise MalformedDocument("function values must lie in [0, 1]")
    if property == ALON and l is None:
        raise MissingL("property 'alon' requires l")
    if property == ALON and l < 0:
        raise MalformedDocument("l must be >= 0")
    _check_compat(system, f)
    t = system.t
    if method == "brute":
        alpha = f.exact_mean()
        if property == ALON and l * alpha.denominator.bit_length() > EXACT_POWER_BITS:
            raise TooLarge(f"exact alpha^l at l={l} exceeds {EXACT_POWER_BITS} bits")
        t_f = t_brute(system, f)
        t_1mf = t_brute(system, f.complement())
        one = Fraction(1)
        method_name = METHOD_BRUTE
    elif method == "fourier":
        t_f, t_1mf = _t_rows(system, _pair_rows(f), f.n).tolist()
        alpha = f.mean()
        one = 1.0
        method_name = METHOD_FOURIER
    else:
        raise MalformedDocument(f"unknown method {method!r}")
    if property == GEOMETRIC and abs(alpha - Fraction(1, 2)) > Fraction(1, 10**9):
        raise MeanConstraintViolated(
            f"geometric defect needs mean 1/2, got {float(alpha)}"
        )
    value = defect_value(property, t_f, t_1mf, alpha, t, l, one)
    return DefectReport(
        system=system.ident(),
        property=property,
        alpha=alpha,
        value=value,
        t_f=t_f,
        t_1mf=t_1mf,
        method=method_name,
        t=t,
        l=l,
        system_digest=system.digest(),
        function_digest=function_digest(f),
    )


def alon_witness(f: GroupFunction, system: LinearSystem, l: int) -> GroupFunction:
    """Perturb a mean-1/2 function to exhibit free-variable uncommonness.

    Adds mass (p^n/|S|)(c/2l) on S = {x : f(x) <= 9/10}, where
    c = log sqrt(T(1-f)/T(f)) after swapping so T(f) <= T(1-f).  Requires
    l >= 45c/4; the result stays in [0,1] and has mean 1/2 + c/(2l).
    """
    if abs(f.mean() - 0.5) > 1e-9:
        raise MeanConstraintViolated(f"witness needs mean 1/2, got {f.mean()}")
    if l < 1:
        raise LTooSmall("l must be a positive integer")
    _check_compat(system, f)
    t_f, t_1mf = _t_rows(system, _pair_rows(f), f.n).tolist()
    base = f if t_1mf >= t_f else f.complement()
    small, big = min(t_f, t_1mf), max(t_f, t_1mf)
    if small <= 0.0:
        raise DegenerateT("T(f) = 0, the perturbation size is undefined")
    c = 0.5 * math.log(big / small)
    if c == 0.0:
        return base
    if l < 45.0 * c / 4.0:
        raise LTooSmall(f"need l >= 45c/4 = {45.0 * c / 4.0:.6g}, got {l}")
    mask = base.values <= 0.9
    support = int(mask.sum())
    bump = (f.size / support) * (c / (2.0 * l))
    values = base.values + bump * mask
    return GroupFunction(f.p, f.n, values)
