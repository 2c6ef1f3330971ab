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
slack certifies a violation) via `defect_value`.  Each property's
formula, its partial derivatives (`defect_partials`) and the means it is
defined at, with the mean a search pins (`check_mean`), live only here;
the optimizer takes the defect and its gradient per row from one kernel
pass (`_defect_gradient`), the pinned mean and the rows per batch
(`_batch_rows`) from here and names no property.  Every float route, eval
and search alike, runs that one kernel, `_gradient_rows`, and reads a
colouring through one reader, `_pair_floats`, as the Python floats
(T(f), T(1 - f), alpha) with alpha = f^(0), so `defect` gives a search's
value for the same colouring bit for bit.

The kernel runs on an (R, p^n) stack of spectra.  `_block_plan`
groups a block's columns by direction up to a scalar: a column c*d reads
fhat(c (lambda . d)), which is (D_c fhat)(lambda . d) for the spectrum
D_c fhat permuted by the dilation x -> c x.  So the block sum is the sum
over lambda of prod_d P_d(lambda . d), where P_d is the product of
(D_c fhat)^m_c over the m_c columns equal to c*d.  Every preset block
and every single equation is rank 1: its one direction has
lambda . d = lambda, so its sum is the sum of P_d, and each term of its
gradient is moved back by the dilation by -1/c, which also takes the
negation the inverse transform needs.  A wider block gathers each P_d at
its direction's index table and scatters its gradient once per
direction.  A colouring is real, so the dilation by -1 is a conjugate
(`_dilate`), and coefficients +-1 (every preset at p = 3) gather
nothing.  Powers are repeated elementwise multiplication, and gathers
and lambda-sums run along C-contiguous rows, so a row's bits do not
depend on its stack.  Every defect is a function of the pair
(T(f), T(1 - f)); a colouring is one row of the stack, and a rank-1
block reads 1 - f from f's own sum and gradient (`_gradient_rows`).
A gradient forms its chain rule on the Fourier side and inverts once per
colouring.

The exact route pairs f and 1 - f in one scan: `defect(method="brute")`
reads both over one denominator L (1 - a/b keeps the denominator b) as
one integer stack [N; L - N], whose one bound picks int64 or Python
ints.  `t_brute` is the one-row case.  The scan takes the t forms in
runs of g consecutive forms (`_scan_group`): a run's product table,
entry sum_j x_j (p^n)^j = prod_j N(x_j), holds at most CHUNK entries
per row, and a run's key at a tuple is sum_j (p^n)^j psi_j(y), so each
chunk makes one gather per run, not one per form.  Each entry is a
product of at most t numerators, within the one bound.

Every route reads f through index tables, which give the point of F_p^n
that each form takes at each parameter tuple (kernel parameters, or
lambdas), and `_form_indices` is the one scan that yields them, at most
CHUNK tuples per table.  Tuples are enumerated digit-position-major:
tuple digit t is digit t // k of parameter t % k, so a point's digit d
depends only on the tuple digits of position d, and
`harmonic._form_table` is the one builder, over any range of tuple
digits.  A table that fits in one chunk (a dilation table up to
p^n = CHUNK, a wider block's table up to p^(nm) = CHUNK) comes from a
small bounded cache of read-only arrays, so repeated evaluations on the
same blocks build it once.  A longer scan streams past the cache: each
chunk is the table of the low digits, built once per scan, plus the
point of each high tuple, in one broadcast add; the exact scan adds
run keys the same way (`_group_keys`).  The two parts share a point
digit only when one position is wider than CHUNK, and there the carry
is taken back with a masked subtract per form.
"""

from __future__ import annotations

import hashlib
import math
import sys
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
from .harmonic import GroupFunction, _dft_rows, _form_table, _idft_rows
from .linsys import (
    ALON, COMMON, GEOMETRIC, PREVALENCE, PROPERTIES, SIDORENKO, SUPPORTED_PRIMES, LinearSystem,
    factor_disjoint,
)

ENUMERATION_CAP = 10**8
# cap on l * bits(denominator of alpha) for the exact alon defect: its alpha^l
# terms are exact rationals, and their arithmetic grows quadratically in size
EXACT_POWER_BITS = 1 << 22
CHUNK = 1 << 16
# the forms x -> c x for c = 1 .. p - 1: one index table holds every dilation
_DILATIONS = {p: tuple((c,) for c in range(1, p)) for p in SUPPORTED_PRIMES}

# the properties whose defect reads T(1 - f); sidorenko and prevalence do not
READS_COMPLEMENT = (COMMON, GEOMETRIC, ALON)
# the geometric property is defined at mean 1/2; a mean this close, as a
# float or a colouring's rounded values give it, counts as 1/2
GEOMETRIC_MEAN_TOL = Fraction(1, 10**9)
_HALF = Fraction(1, 2)

METHOD_BRUTE = "BruteExact"
METHOD_FOURIER = "Fourier"


def _check_compat(system: LinearSystem, f: GroupFunction) -> None:
    if system.p != f.p:
        raise MalformedDocument(
            f"system has p={system.p} but function has p={f.p}"
        )


@lru_cache(maxsize=4)
def _index_table(forms, p: int, n: int, group: int = 1) -> np.ndarray:
    """Point indices of every linear form over all parameter tuples of
    (F_p^n)^k, k = len(forms[0]), in the digit-position-major order of
    `harmonic._form_table`, as a read-only (len(forms), p^(nk)) array; with
    `group` > 1, the keys of each run of that many forms (`_group_keys`).

    The cache holds the one-chunk tables a search uses on every call: the
    dilation tables of F_p^n (one entry, `_DILATIONS`) and the tables of
    a wider block; a longer scan streams through `_chunk_tables`.
    """
    table = _group_keys(_form_table(forms, p, range(n * len(forms[0]))), group, p**n)
    table.flags.writeable = False
    return table


def _group_keys(table: np.ndarray, group: int, size: int) -> np.ndarray:
    """Row G is sum_j size^j table[G group + j], the index into the product
    table of a run of forms (`_group_products`); the table itself at group
    1.  Point indices are below size, so a key is below size^group, and a
    whole position adds to it with no carry.  The sum runs over the slots j
    of a run, each a strided slice of the table."""
    if group == 1:
        return table
    keys = table[::group].copy()
    for j in range(1, group):
        rows = table[j::group]
        keys[:len(rows)] += size**j * rows
    return keys


def _chunk_tables(forms, p: int, n: int, group: int):
    """The key tables of `forms` (`_group_keys`) over runs of at most CHUNK
    consecutive parameter tuples, in tuple order.

    The low tuple digits get one table per scan: as many whole positions
    as fit in CHUNK, or, when one position is wider than CHUNK, as many
    of its digits as fit.  Each chunk adds to its keys the keys of a run
    of high tuples.  Whole positions add with no carry.  A cut position is
    position 0, whose point digit both parts share, so wherever form j's
    two digits sum past p - 1, p is taken back from its point, which is
    p size^(j mod group) from its run's key."""
    k, size = len(forms[0]), p**n
    low = 0
    while p ** (low + 1) <= CHUNK:
        low += 1
    if low >= k:
        low -= low % k
    table = _form_table(forms, p, range(low))
    high = _form_table(forms, p, range(low, n * k))
    keys, high_keys = _group_keys(table, group, size), _group_keys(high, group, size)
    run = CHUNK // table.shape[1]
    for start in range(0, high.shape[1], run):
        out = keys[:, None, :] + high_keys[:, start:start + run, None]
        if low % k:
            room = (p - high[:, start:start + run] % p)[:, :, None]
            for j, carry in enumerate(table[:, None, :] >= room):
                key = out[j // group]
                np.subtract(key, p * size ** (j % group), out=key, where=carry)
        yield out.reshape(len(keys), -1)


def _form_indices(forms, p: int, n: int, label: str, group: int = 1):
    """The index tables of `forms` over all of (F_p^n)^k, at most CHUNK
    parameter tuples each, or with `group` > 1 the keys of their runs of
    that many forms.  The size cap is checked before any table."""
    total = (p**n) ** len(forms[0])
    if total > ENUMERATION_CAP:
        raise TooLarge(f"{label} = {total} exceeds cap {ENUMERATION_CAP}")
    if total <= CHUNK:
        return (_index_table(forms, p, n, group),)
    # through the LRU cache, a longer scan would miss on every chunk and
    # leave its last chunks (a row of CHUNK int64 per form or run) pinned
    return _chunk_tables(forms, p, n, group)


def t_brute(system: LinearSystem, f: GroupFunction) -> Fraction:
    """Exact normalized solution density, by kernel enumeration.

    Function values are taken as exact rationals (decimal literals are
    interpreted exactly); the result is an exact fraction.  The whole
    kernel is enumerated, never factored, so this stays an independent
    oracle for the row-space route.
    """
    return _brute_rows(system, [f])[0]


def _scan_group(t: int, size: int, total: int) -> int:
    """Forms per product table in a scan of `total` kernel tuples of t forms
    on F_p^n (size = p^n): the fewest runs whose tables hold at most
    min(CHUNK, total) entries per row, each as short as that count of runs
    allows, so that no table is wider than a chunk or than the scan."""
    widest = 1
    while widest < t and size ** (widest + 1) <= min(CHUNK, total):
        widest += 1
    runs = -(-t // widest)
    return -(-t // runs)


def _group_products(stack: np.ndarray, t: int, group: int) -> list:
    """The product table of `stack` for each run of `group` consecutive
    forms of t, the last run perhaps shorter: for a run of g forms, entry
    sum_j x_j size^j of row r is prod_j stack[r, x_j], the x_j point indices
    (`_group_keys`).  A table depends only on the length of its run."""
    tables = [stack]
    while len(tables) < group:
        tables.append((stack[:, :, None] * tables[-1][:, None, :]).reshape(len(stack), -1))
    return [tables[min(group, t - start) - 1] for start in range(0, t, group)]


def _brute_rows(system: LinearSystem, fs) -> list[Fraction]:
    """`t_brute` of each function of `fs` (all on the same F_p^n), from one
    scan of the kernel over one integer stack: the numerators N over L, the
    lcm of every value denominator.  Below 2^62 the bound max|N|^t keeps
    the products int64, summed in column slices of 2^62 // bound so no sum
    overflows; else they are Python ints, one slice per chunk.  The forms
    are taken in runs (`_scan_group`): each chunk gathers each run's
    product table at its keys and multiplies the runs."""
    for f in fs:
        _check_compat(system, f)
    p, n, t = fs[0].p, fs[0].n, system.t
    group = _scan_group(t, p**n, fs[0].size**system.num_params)
    chunks = _form_indices(system.kernel, p, n, "p^(nD)", group)
    exact = [f.exact_values() for f in fs]
    denom = math.lcm(*(v.denominator for row in exact for v in row))
    stack = [[v.numerator * (denom // v.denominator) for v in row] for row in exact]
    bound = max(abs(a) for row in stack for a in row) ** t
    totals = [0] * len(fs)
    if bound:  # an all-zero stack has T = 0 and skips the scan
        small = bound < 1 << 62
        tables = _group_products(np.array(stack, dtype=np.int64 if small else object), t, group)
        step = (1 << 62) // bound if small else CHUNK
        for keys in chunks:
            prod = np.take(tables[0], keys[0], axis=1)
            for table, key in zip(tables[1:], keys[1:]):
                prod *= np.take(table, key, axis=1)
            partial = np.add.reduceat(prod, range(0, prod.shape[1], step), axis=1)
            totals = [a + sum(row) for a, row in zip(totals, partial.tolist())]
    scale = denom**t * fs[0].size**system.num_params
    return [Fraction(total, scale) for total in totals]


@lru_cache(maxsize=None)
def _block_columns(system: LinearSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coefficient-matrix columns of each variable-disjoint block of the
    system; a block with no rows has empty columns (one lambda-term)."""
    blocks, _ = factor_disjoint(system)
    return tuple(
        tuple(tuple(row[i] for row in block.matrix) for i in range(block.t))
        for block in blocks
    )


@lru_cache(maxsize=None)
def _block_plan(columns, p: int):
    """A block's columns grouped by direction up to a scalar: the directions
    in order of first appearance, each scaled so that its first nonzero
    entry is 1, and for each direction d its (c, m_c) pairs, m_c the number
    of columns equal to c * d.  The empty columns of a block with no rows
    share the empty direction, with c = 1."""
    groups: dict = {}
    for column in columns:
        lead = next((v for v in column if v), 1)
        inverse = pow(lead, p - 2, p)
        counts = groups.setdefault(tuple(v * inverse % p for v in column), {})
        counts[lead] = counts.get(lead, 0) + 1
    return tuple(groups), tuple(tuple(counts.items()) for counts in groups.values())


def _dilate(x: np.ndarray, c: int, p: int, n: int) -> np.ndarray:
    """D_c x: each row of x read at c*h for every point h of F_p^n (x
    itself at c = 1).  Every row the kernel dilates is Hermitian,
    x(-h) = conj x(h): a spectrum of a real function, or a product, gradient
    term or scatter weight built from such spectra.  So D_(-1) x is the
    conjugate, and any other c is one gather at the dilation table: up to
    p^n = CHUNK the tables of every c in F_p^* are one entry of the
    bounded cache, and past CHUNK the one table is built afresh."""
    c %= p
    if c == 1:
        return x
    if c == p - 1:
        return x.conj()
    if p**n > CHUNK:
        return x.take(_form_table(((c,),), p, range(n))[0], axis=1)
    return x.take(_index_table(_DILATIONS[p], p, n)[c - 1], axis=1)


def _product(factors):
    """Left-to-right elementwise product of the arrays in `factors`, where
    None stands for 1; None when every factor is None."""
    out = None
    for x in factors:
        if x is not None:
            out = x if out is None else out * x
    return out


def _others(factors: list) -> list:
    """For each i, the product of the factors other than factors[i] (None
    for 1): the running product of those before it times that of those
    after it, so k factors take about 3k multiplications, not k^2."""
    before, after = [None], [None]
    for x in factors[:-1]:
        before.append(_product([before[-1], x]))
    for x in factors[:0:-1]:
        after.append(_product([x, after[-1]]))
    return [_product([a, b]) for a, b in zip(before, reversed(after))]


def _block_gradient(columns, spectra: dict, p: int, n: int):
    """Row-space sum of one block for each row of fhat = spectra[1],
    sum over lambda of prod_d P_d(lambda . d) by direction d, and the
    Fourier-side first variation of each, dB/dfhat at -h for every
    frequency h.  `spectra` maps each coefficient c to D_c fhat; one
    missing is made once and kept, so blocks share it.

    With R_d(x) the sum, over the lambda with lambda . d = x, of the other
    directions' power products (1 for a rank-1 block), the derivative is
    sum over d and c of Q_(d,c)(-h / c), where
    Q_(d,c) = m_c (D_c fhat)^(m_c - 1) prod_(c' != c) (D_c' fhat)^m_c' R_d;
    so each term is the dilation by -1/c.  A wider block gathers each P_d
    at its direction's index table and scatters R_d once per direction."""
    directions, groups = _block_plan(columns, p)
    factors, products = [], []  # per direction: (c, m_c, low, power) terms; P_d
    for group in groups:
        row = []
        for c, m in group:
            x = spectra.get(c)
            if x is None:
                x = spectra[c] = _dilate(spectra[1], c, p, n)
            low = _product([x] * (m - 1))  # (D_c fhat)^(m_c - 1) by repeated multiplication
            row.append((c, m, low, x if low is None else low * x))
        factors.append(row)
        products.append(_product(power for *_, power in row))
    rows, size = spectra[1].shape
    if len(directions[0]) == 1:
        sums = products[0].sum(axis=-1)
        weights = [None]
    else:
        sums = np.zeros(rows, dtype=np.complex128)
        flat = [np.zeros(rows * size, dtype=np.complex128) for _ in directions]
        offsets = (np.arange(rows) * size)[:, None]
        for table in _form_indices(directions, p, n, "p^(nm)"):
            gathered = [x.take(idx, axis=1) for x, idx in zip(products, table)]
            sums += _product(gathered).sum(axis=-1)
            for d, (acc, others) in enumerate(zip(flat, _others(gathered))):
                if others is None:  # a block with no rows: one direction
                    others = np.ones_like(gathered[d])
                where = (table[d] + offsets).ravel()
                acc += np.bincount(where, others.real.ravel(), rows * size)
                acc += 1j * np.bincount(where, others.imag.ravel(), rows * size)
        weights = [acc.reshape(rows, size) for acc in flat]
    grad = None
    for row, weight in zip(factors, weights):
        others = _others([power for *_, power in row])
        for (c, m, low, _), rest in zip(row, others):
            q = _product([low, rest, weight])
            if q is None:  # a rank-1 block of one column
                q = np.ones_like(spectra[1])
            term = _dilate(q, -pow(c, p - 2, p), p, n)
            if m > 1:
                term = m * term
            grad = term if grad is None else grad + term
    return sums, grad


def _gradient_rows(system: LinearSystem, fhat: np.ndarray, n: int, pair: bool = False):
    """(Ghat, T) of each row of an (R, p^n) stack of spectra, where Ghat is
    the Fourier side of `t_gradient`: its G is `_idft_rows(Ghat).real`.

    With `pair`, rows R .. 2R - 1 of both are those of 1 - f, whose
    spectrum is e_0 - f^.  A rank-1 block of t columns reads f^(0) only at
    lambda = 0, so B(1 - f) = (1 - alpha)^t + (-1)^t (B(f) - alpha^t), and
    its Ghat is -(-1)^t times f's but at h = 0, t (1 - alpha)^(t - 1).  A
    wider block, or one with no rows, runs `_block_gradient` once more, on
    e_0 - f^.  The blocks of each side are joined by the product rule, and
    the two sides stacked once at the end."""
    spectra, complement = {1: fhat}, {}
    alpha = fhat[:, 0].real
    beta = 1.0 - alpha
    sides = None
    for columns in _block_columns(system):
        sums, grad = _block_gradient(columns, spectra, system.p, n)
        blocks = [(sums, grad)]
        if pair and len(columns[0]) == 1:
            t = len(columns)
            sign, low = (-1) ** t, beta ** (t - 1)
            grad = -sign * grad
            grad[:, 0] = t * low
            blocks.append((low * beta + sign * (sums - alpha**t), grad))
        elif pair:
            if not complement:
                complement[1] = -fhat
                complement[1][:, 0] += 1.0
            blocks.append(_block_gradient(columns, complement, system.p, n))
        if sides is None:
            sides = blocks
        else:
            sides = [(t_prev * t_b, acc * t_b[:, None] + t_prev[:, None] * acc_b)
                     for (t_prev, acc), (t_b, acc_b) in zip(sides, blocks)]
    ts, ghat = zip(*sides)
    return np.concatenate(ghat), np.concatenate(ts).real


def t_fourier(system: LinearSystem, f: GroupFunction) -> float:
    """Row-space evaluation of T(f): the product of the block lambda-sums
    over the variable-disjoint blocks, real part, from the one kernel pass
    `_gradient_rows`."""
    _check_compat(system, f)
    return float(_gradient_rows(system, _dft_rows(f.values[None], f.p, f.n), f.n)[1][0])


def t_gradient(system: LinearSystem, f: GroupFunction) -> GroupFunction:
    """First variation G of T at f, as a (non-clamped) function:

        T(f + eps*delta) - T(f) = (eps / p^n) * sum_x G(x) delta(x) + O(eps^2).

    Assembled on the Fourier side block by block with the product rule.
    """
    _check_compat(system, f)
    ghat, _ = _gradient_rows(system, _dft_rows(f.values[None], f.p, f.n), f.n)
    return GroupFunction(f.p, f.n, _idft_rows(ghat, f.p, f.n)[0].real)


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


def check_property(property: str, l: int | None) -> None:
    """Reject an unknown property, alon without l, and a negative l."""
    if property not in PROPERTIES:
        raise MalformedDocument(f"unknown property {property!r}")
    if property == ALON and l is None:
        raise MissingL("property 'alon' requires l")
    if l is not None and l < 0:
        raise MalformedDocument("l must be >= 0")


def check_mean(property: str, mean) -> float | None:
    """Reject a mean the property is not defined at: geometric needs 1/2
    (within GEOMETRIC_MEAN_TOL), and prevalence needs a pinned mean, with
    `mean` None for an unpinned one.  Returns the mean a search pins: 0.5
    for geometric, else `mean`."""
    if mean is None:
        if property == PREVALENCE:
            raise MeanConstraintViolated("the prevalence property requires a pinned mean")
    elif property == GEOMETRIC and abs(mean - _HALF) > GEOMETRIC_MEAN_TOL:
        raise MeanConstraintViolated(
            f"the geometric property is defined only at mean 1/2, got {float(mean)}"
        )
    return 0.5 if property == GEOMETRIC else mean


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


def defect_partials(property: str, t_f, t_1mf, alpha, t: int, l: int | None):
    """(dD/dT(f), dD/dT(1 - f), dD/dalpha) of `defect_value` at one
    function's floats; t_1mf is read only for READS_COMPLEMENT."""
    if property == COMMON:
        return 1.0, 1.0, 0.0
    if property == GEOMETRIC:
        return t_1mf, t_f, 0.0
    if property == SIDORENKO:
        return 1.0, 0.0, -t * alpha ** (t - 1)
    if property == ALON:
        if not l:  # the weights are 1, and alpha^(l-1) is undefined at 0 and 1
            return 1.0, 1.0, 0.0
        beta = 1.0 - alpha
        return alpha**l, beta**l, l * alpha ** (l - 1) * t_f - l * beta ** (l - 1) * t_1mf
    return 1.0, 0.0, 0.0  # prevalence


def _pair_floats(fhat: np.ndarray, ts: np.ndarray) -> list[tuple]:
    """(T(f), T(1 - f), alpha) of each row of the stack of spectra `fhat` as
    Python floats, from the T that `_gradient_rows` gives for it: T(1 - f)
    is None where the pass formed no complements, and alpha is f^(0), the
    mean as every float route reads it."""
    rows, ts = len(fhat), ts.tolist()
    return list(zip(ts[:rows], ts[rows:] or [None] * rows, fhat[:, 0].real.tolist()))


def _defect_gradient(system: LinearSystem, property: str, l: int | None, values, n: int):
    """The float defect of `property` and its Euclidean gradient at each
    row of an (R, p^n) stack, from one `_gradient_rows` pass.  f(x) moves
    T(f) by G_f(x) / p^n, T(1 - f) by -G_(1-f)(x) / p^n and the mean by
    1 / p^n.  The chain rule d_f G_f - d_c G_(1-f) is linear, so it is
    formed on the Fourier side, one inverse per row, with each row's
    partials (`defect_partials`) as a column."""
    pair = property in READS_COMPLEMENT
    p, (rows, size) = system.p, values.shape
    fhat = _dft_rows(values, p, n)
    ghat, ts = _gradient_rows(system, fhat, n, pair)
    floats = _pair_floats(fhat, ts)
    d_f, d_c, d_alpha = np.array([defect_partials(property, *row, system.t, l)
                                  for row in floats]).T[:, :, None]
    chain = d_f * ghat[:rows]
    if pair:
        chain -= d_c * ghat[rows:]
    value = np.array([defect_value(property, *row, system.t, l, 1.0) for row in floats])
    return value, (d_alpha + _idft_rows(chain, p, n).real) / size


def _batch_rows(system: LinearSystem, n: int) -> int:
    """Functions per stack of a lockstep search on F_p^n: CHUNK // widest,
    at least 1, widest the larger of p^n and the kernel's widest gather, a
    block's directions times at most CHUNK lambda-tuples (p^n for a rank-1
    block).  So in a batch of more than one row each (R, p^n) array of a
    pass (spectra, dilations, powers, gradient terms, scatter weights, of
    f^ or e_0 - f^), and a chunk of a wider block's gathers, all directions
    together, holds at most CHUNK entries; the pair `_gradient_rows`
    returns, (2R, p^n), holds twice that."""
    size, p = system.p**n, system.p
    widest = max([size] + [len(_block_plan(cols, p)[0]) * min(size ** len(cols[0]), CHUNK)
                           for cols in _block_columns(system)])
    return max(1, CHUNK // widest)


def function_digest(f: GroupFunction) -> str:
    return hashlib.sha256(f.values.tobytes()).hexdigest()[:12]


def _alon_denominator_digits(system: LinearSystem, rows, alpha: Fraction, l: int) -> int:
    """A lower bound on the decimal digits of the denominator of the exact
    alon defect alpha^l T(f) + (1 - alpha)^l T(1 - f) - 2^(1-t-l), with
    `rows` = [f, 1 - f]; 0 where none is known.

    Each T is an integer over L^t p^(nD), L the one denominator
    `_brute_rows` reads both rows over, and p is odd, so its 2-adic
    valuation is at least -t v_2(L).  If alpha's denominator is odd, alpha
    and 1 - alpha have valuation >= 0, so the first two terms are bounded
    the same way; once the last term's valuation 1 - t - l lies below that
    bound, it is the defect's, and 2^(l+t-1) divides the denominator."""
    if alpha.denominator % 2 == 0:
        return 0
    bound = system.t * _v2(math.lcm(*(v.denominator for f in rows for v in f.exact_values())))
    power = l + system.t - 1
    return _power_digits(power) if power > bound else 0


def _alon_scanned_digits(t_f: Fraction, t_1mf: Fraction, alpha: Fraction, t: int, l: int) -> int:
    """A bound of the same kind for any alpha = a/d, from the scanned
    T(f) = x/X and T(1 - f) = y/Y, without forming alpha^l: the first two
    terms sum to N / (d^l X Y), N = a^l x Y + (d - a)^l y X, and N mod 2^k
    (from pow(., l, 2^k)) gives v_2(N) when it is below k.  Where that
    sum's valuation differs from the last term's, 1 - t - l, the smaller is
    the defect's; 0 where they may cancel."""
    (a, d), (x, big_x), (y, big_y) = (r.as_integer_ratio() for r in (alpha, t_f, t_1mf))
    k = 64 + _v2(big_x * big_y)
    shift = l * _v2(d) + _v2(big_x * big_y)
    n = (pow(a, l, 1 << k) * x * big_y + pow(d - a, l, 1 << k) * y * big_x) % (1 << k)
    last = 1 - t - l
    if n:
        v = _v2(n) - shift
        return 0 if v == last else _power_digits(-min(v, last))
    return _power_digits(-last) if k - shift > last else 0  # v2(N) >= k


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def _refuse_unprintable(digits: int, l: int) -> None:
    """TooLarge once the exact alon defect is sure to have more digits than
    the interpreter's int-to-str limit prints."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise TooLarge(f"the exact alon defect at l={l} has more than {limit} "
                       "digits, too many to print")


def _power_digits(power: int) -> int:
    """Digits of 2^power (floor(power log10 2) + 1), 0 for power <= 0."""
    return power * 30102 // 100000 + 1 if power > 0 else 0


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
    raises TooLarge once alpha^l would pass EXACT_POWER_BITS, or once the
    value is sure to have more digits than the interpreter's int-to-str
    limit prints, before computing either (`_alon_denominator_digits` before
    the scan, `_alon_scanned_digits` after it).
    The float method reads alpha as f^(0), as a search does
    (`_pair_floats`).  The mean is checked (`check_mean`) before either,
    and before any T, so an input the property is not defined at is
    refused without a scan, also where the scan would pass the size cap.
    """
    check_property(property, l)
    if not f.in_unit_box(tol=1e-12):
        raise MalformedDocument("function values must lie in [0, 1]")
    _check_compat(system, f)
    t = system.t
    if method == "brute":
        # fix f's exact values once, so that 1 - f is their exact complement
        f = GroupFunction(f.p, f.n, f.values, f.exact_values())
        alpha = f.exact_mean()
        check_mean(property, alpha)
        rows = [f, f.complement()]
        if property == ALON:
            if l * alpha.denominator.bit_length() > EXACT_POWER_BITS:
                raise TooLarge(f"exact alpha^l at l={l} exceeds {EXACT_POWER_BITS} bits")
            _refuse_unprintable(_alon_denominator_digits(system, rows, alpha, l), l)
        t_f, t_1mf = _brute_rows(system, rows)
        if property == ALON:
            _refuse_unprintable(_alon_scanned_digits(t_f, t_1mf, alpha, t, l), l)
        one = Fraction(1)
        method_name = METHOD_BRUTE
    elif method == "fourier":
        fhat = _dft_rows(f.values[None], f.p, f.n)
        check_mean(property, float(fhat[0, 0].real))  # f^(0), before any T
        (t_f, t_1mf, alpha), = _pair_floats(fhat, _gradient_rows(system, fhat, f.n, True)[1])
        one = 1.0
        method_name = METHOD_FOURIER
    else:
        raise MalformedDocument(f"unknown method {method!r}")
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
    fhat = _dft_rows(f.values[None], f.p, f.n)
    alpha = float(fhat[0, 0].real)
    if abs(alpha - 0.5) > 1e-9:
        raise MeanConstraintViolated(f"witness needs mean 1/2, got {alpha}")
    if l < 1:
        raise LTooSmall("l must be a positive integer")
    _check_compat(system, f)
    (t_f, t_1mf, _), = _pair_floats(fhat, _gradient_rows(system, fhat, f.n, True)[1])
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
