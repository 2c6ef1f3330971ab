"""Homogeneous linear systems over F_p: validation, kernel
parameterization, free variables, and factorization into
variable-disjoint blocks; also the exact decimal reader that function
documents and the CLI's rational flags share, kept here free of numpy.

A system is an m x t full-rank matrix over F_p with t > m.  Its solution
set is parameterized by D = t - m free parameters; the i-th variable is
the linear form `kernel[i]` applied to the parameter vector.  The kernel
basis comes from the reduced row echelon form with deterministic pivots
(leftmost column, smallest row), so parameterizations are reproducible.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedDocument, NoFreeVariables, NotOddPrime, RankDeficient, TooLarge

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# the commonness-type properties a defect is taken of (`counting.defect`)
COMMON = "common"
GEOMETRIC = "geometric"
SIDORENKO = "sidorenko"
ALON = "alon"
PREVALENCE = "prevalence"
PROPERTIES = (COMMON, GEOMETRIC, SIDORENKO, ALON, PREVALENCE)

# the most rows or columns of a system: row reduction is cubic and the kernel
# holds t (t - m) entries, so a larger one is refused first (presets: t <= 9)
MAX_SYSTEM_SIZE = 64


# decimal literals in documents and rational flags may carry an exponent of
# at most this magnitude; Fraction would otherwise form 10**|exponent|
# exactly, which for an exponent in the millions takes seconds
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([+-]?[\d_]+)")


def _exact_decimal(text: str) -> Fraction:
    """A decimal or "num/den" literal as an exact fraction; the exponent is
    bounded before any power of ten is formed."""
    match = _EXPONENT.search(text)
    try:
        if match and abs(int(match.group(1))) > MAX_DECIMAL_EXPONENT:
            raise MalformedDocument(
                f"bad value {text[:40]!r}: exponent beyond +-{MAX_DECIMAL_EXPONENT}"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument(f"bad value {text[:40]!r}") from exc


def _check_modulus(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise NotOddPrime(f"p={p} is not an odd prime in the supported range 3..31")


def _rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot columns)."""
    rows = [[v % p for v in row] for row in rows]
    m = len(rows)
    t = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(t):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _kernel_forms(rref: list[list[int]], pivots: list[int], t: int, p: int) -> tuple:
    """Linear forms expressing each variable in the D free parameters."""
    free_cols = [c for c in range(t) if c not in pivots]
    col_of_param = {c: j for j, c in enumerate(free_cols)}
    forms = []
    for i in range(t):
        vec = [0] * len(free_cols)
        if i in col_of_param:
            vec[col_of_param[i]] = 1
        else:
            r = pivots.index(i)
            for c, j in col_of_param.items():
                vec[j] = (-rref[r][c]) % p
        forms.append(tuple(vec))
    return tuple(forms)


@dataclass(frozen=True)
class LinearSystem:
    """Immutable homogeneous system over F_p with its kernel parameterization."""

    p: int
    t: int
    matrix: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]
    name: str | None = None

    @property
    def m(self) -> int:
        return len(self.matrix)

    @property
    def num_params(self) -> int:
        return self.t - self.m

    @classmethod
    def from_matrix(cls, p, rows, name: str | None = None) -> "LinearSystem":
        if not isinstance(p, int) or isinstance(p, bool):
            raise MalformedDocument("modulus p must be an integer")
        _check_modulus(p)
        rows = _validate_rows(rows)
        t = len(rows[0])
        m = len(rows)
        if max(m, t) > MAX_SYSTEM_SIZE:
            raise TooLarge(f"a {m} x {t} system exceeds the size cap {MAX_SYSTEM_SIZE}")
        rows = [[v % p for v in row] for row in rows]
        rref, pivots = _rref_mod_p(rows, p)
        if len(pivots) < m:
            raise RankDeficient(f"rank {len(pivots)} < m={m}")
        if t <= m:
            raise NoFreeVariables(f"t={t} <= m={m}: only the trivial solution")
        kernel = _kernel_forms(rref, pivots, t, p)
        return cls(
            p=p,
            t=t,
            matrix=tuple(tuple(row) for row in rows),
            kernel=kernel,
            name=name,
        )

    def digest(self) -> str:
        payload = json.dumps({"p": self.p, "matrix": [list(r) for r in self.matrix]})
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def ident(self) -> str:
        return self.name or f"system:{self.digest()}"


def _validate_rows(rows) -> list[list[int]]:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise MalformedDocument("matrix must be a nonempty array of rows")
    out = []
    width = None
    for row in rows:
        if not isinstance(row, (list, tuple)) or not row:
            raise MalformedDocument("matrix rows must be nonempty arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MalformedDocument("matrix rows must all have the same length")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise MalformedDocument(f"matrix entry {v!r} is not an integer")
        out.append(list(row))
    return out


def parse_system(document: str, name: str | None = None) -> LinearSystem:
    """Parse a JSON system document with fields "p" and "matrix"."""
    try:  # JSONDecodeError, or an integer literal past the digit limit
        data = json.loads(document)
    except ValueError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "p" not in data or "matrix" not in data:
        raise MalformedDocument('document must be an object with "p" and "matrix"')
    return LinearSystem.from_matrix(data["p"], data["matrix"], name=name)


def add_free_variables(system: LinearSystem, l: int) -> LinearSystem:
    """Append l variables constrained by nothing; D grows by l."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        return system
    rows = [list(row) + [0] * l for row in system.matrix]
    return LinearSystem.from_matrix(system.p, rows)


def factor_disjoint(system: LinearSystem) -> tuple[list[LinearSystem], list[int]]:
    """Split into blocks on connected components of the row/variable graph.

    Returns (blocks, column_permutation): blocks ordered by smallest
    variable index, and the original column index for each column of the
    concatenated blocks.  Variables in no equation become width-1 blocks
    with zero rows (their density factor is the mean of f).
    """
    t = system.t
    parent = list(range(t))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    supports = [[i for i, v in enumerate(row) if v] for row in system.matrix]
    for support in supports:
        for i in support[1:]:
            union(support[0], i)
    components: dict[int, list[int]] = {}
    for i in range(t):
        components.setdefault(find(i), []).append(i)
    blocks: list[LinearSystem] = []
    permutation: list[int] = []
    for root in sorted(components):
        cols = components[root]
        rows = [
            [system.matrix[r][c] for c in cols]
            for r, support in enumerate(supports)
            if support and find(support[0]) == root
        ]
        permutation.extend(cols)
        blocks.append(_block_system(system.p, rows, len(cols)))
    return blocks, permutation


def _block_system(p: int, rows: list[list[int]], width: int) -> LinearSystem:
    """Construct a factor block directly; blocks may have t == m or m == 0."""
    if not rows:
        kernel = tuple(
            tuple(1 if j == i else 0 for j in range(width)) for i in range(width)
        )
        return LinearSystem(p=p, t=width, matrix=(), kernel=kernel)
    rref, pivots = _rref_mod_p([list(r) for r in rows], p)
    if len(pivots) != len(rows):
        raise RankDeficient("factor block of a full-rank system lost rank")
    kernel = _kernel_forms(rref, pivots, width, p)
    return LinearSystem(
        p=p,
        t=width,
        matrix=tuple(tuple(v % p for v in row) for row in rows),
        kernel=kernel,
    )


_PRESET_ROWS = {
    # additive quadruple x1 - x2 + x3 - x4 = 0
    "a4": lambda p: [[1, p - 1, 1, p - 1]],
    # five-variable alternating equation x1 - x2 + x3 - x4 + x5 = 0
    "a5": lambda p: [[1, p - 1, 1, p - 1, 1]],
    # the rank-2 pair: a4 on variables 1..4, a5 on variables 5..9
    "phi": lambda p: [
        [1, p - 1, 1, p - 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, p - 1, 1, p - 1, 1],
    ],
    # three-term progression x - 2y + z = 0
    "ap3": lambda p: [[1, p - 2, 1]],
    # Schur equation x + y - z = 0
    "schur": lambda p: [[1, 1, p - 1]],
}

PRESETS = tuple(sorted(_PRESET_ROWS))


def preset(name: str, p: int = 3) -> LinearSystem:
    """Canonical named systems: phi, a4, a5, ap3, schur."""
    try:
        rows = _PRESET_ROWS[name](p)
    except KeyError:
        raise MalformedDocument(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    return LinearSystem.from_matrix(p, rows, name=f"{name}(p={p})")


def load_system(source: str, p: int = 3) -> LinearSystem:
    """Resolve a preset name or a path to a system document."""
    if source in _PRESET_ROWS:
        return preset(source, p)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedDocument(f"cannot read system {source!r}: {exc}") from exc
    return parse_system(text, name=source)

