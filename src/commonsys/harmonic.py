"""Dense real functions on F_p^n and the discrete Fourier transform.

Points of F_p^n are indexed little-endian: index(x) = sum_i x_i p^i with
coordinate 0 the least significant digit.  The transform convention puts
the mean on the forward side,

    fhat(h) = E_x f(x) e(-h.x / p),      f(x) = sum_h fhat(h) e(x.h / p),

implemented as n rounds of radix-p matrix transforms; the p-th roots of
unity come from a single table built once per modulus.  Double-precision
complex arithmetic throughout; the exact rational path lives in
`counting`.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import MalformedDocument, NotCentered, TooLarge
from .linsys import _check_modulus

MAX_POINTS = 1 << 24
GFPN_MAGIC = b"GFPN"
# decimal literals in function documents may carry an exponent of at most
# this magnitude; Fraction would otherwise form 10**|exponent| exactly,
# which for an exponent in the millions takes seconds
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([+-]?[\d_]+)")


def checked_size(p: int, n: int, cap: int = MAX_POINTS) -> int:
    """p^n, or TooLarge when it exceeds `cap`.

    An n too large for any modulus >= 2 is rejected before the power is
    formed, so a hostile dimension never builds a huge integer.
    """
    if n < 0:
        raise MalformedDocument(f"dimension n={n} is negative")
    if p >= 2 and n >= cap.bit_length():
        raise TooLarge(f"p^n = {p}^{n} exceeds the cap {cap}")
    size = p**n
    if size > cap:
        raise TooLarge(f"p^n = {size} exceeds the cap {cap}")
    return size


@lru_cache(maxsize=None)
def _root_table(p: int) -> np.ndarray:
    """e(-r/p) for r in 0..p-1, from one cos/sin evaluation of 2*pi/p."""
    angles = 2.0 * np.pi * np.arange(p) / p
    return np.cos(angles) - 1j * np.sin(angles)


@lru_cache(maxsize=None)
def _forward_matrix(p: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    return _root_table(p)[(j * k) % p]


@lru_cache(maxsize=None)
def _inverse_matrix(p: int) -> np.ndarray:
    return np.conj(_forward_matrix(p))


@lru_cache(maxsize=None)
def negation_permutation(p: int, n: int) -> np.ndarray:
    """Index permutation sending x to -x (coordinatewise mod p)."""
    idx = np.arange(p**n)
    out = np.zeros_like(idx)
    v = idx.copy()
    for i in range(n):
        out += ((p - v % p) % p) * p**i
        v //= p
    out.flags.writeable = False
    return out


def index_to_point(index: int, p: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        digits.append(index % p)
        index //= p
    return tuple(digits)


@dataclass(frozen=True)
class GroupFunction:
    """Real-valued function on F_p^n stored densely.

    `exact` optionally carries the same values as exact rationals; it is
    set when the function was built from exact data (decimal documents,
    constants, indicators) and feeds the exact counting path.
    """

    p: int
    n: int
    values: np.ndarray
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        _check_modulus(self.p)
        size = checked_size(self.p, self.n)
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (size,):
            raise MalformedDocument(f"expected {size} values, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.exact is not None and len(self.exact) != size:
            raise MalformedDocument("exact values length mismatch")

    @property
    def size(self) -> int:
        return self.p**self.n

    def mean(self) -> float:
        return float(self.values.mean())

    def exact_values(self) -> tuple[Fraction, ...]:
        """Exact rational view: stored exact values, else each float read as
        its shortest round-trip decimal literal."""
        if self.exact is not None:
            return self.exact
        return tuple(Fraction(repr(float(v))) for v in self.values)

    def exact_mean(self) -> Fraction:
        vals = self.exact_values()
        return Fraction(sum(vals), len(vals))

    def complement(self) -> "GroupFunction":
        exact = None
        if self.exact is not None:
            exact = tuple(1 - v for v in self.exact)
        return GroupFunction(self.p, self.n, 1.0 - self.values, exact)

    def centered(self) -> "GroupFunction":
        return GroupFunction(self.p, self.n, self.values - self.values.mean())

    def in_unit_box(self, tol: float = 0.0) -> bool:
        return bool(
            (self.values >= -tol).all() and (self.values <= 1.0 + tol).all()
        )


def constant(p: int, n: int, value) -> GroupFunction:
    frac = Fraction(value) if not isinstance(value, float) else None
    size = checked_size(p, n)
    fill = float(frac) if frac is not None else float(value)
    exact = (frac,) * size if frac is not None else None
    return GroupFunction(p, n, np.full(size, fill), exact)


def indicator(p: int, n: int, members) -> GroupFunction:
    """Indicator of a set given as an iterable of indices."""
    size = p**n
    values = np.zeros(size)
    members = set(int(m) for m in members)
    for m in members:
        values[m] = 1.0
    exact = tuple(Fraction(1 if i in members else 0) for i in range(size))
    return GroupFunction(p, n, values, exact)


def coset_indicator(p: int, n: int, coefficients, residue: int) -> GroupFunction:
    """Indicator of the affine coset {x : sum_i coefficients[i] x_i = residue}."""
    coefficients = list(coefficients)
    if len(coefficients) != n:
        raise MalformedDocument(f"expected {n} coefficients, got {len(coefficients)}")
    members = []
    for idx in range(checked_size(p, n)):
        x = index_to_point(idx, p, n)
        if sum(c * xi for c, xi in zip(coefficients, x)) % p == residue % p:
            members.append(idx)
    return indicator(p, n, members)


def character_bump(p: int, n: int, h_index: int, phase: int, eps: float) -> GroupFunction:
    """f(x) = 1/2 + eps * cos(2 pi (h.x + phase) / p); extremal for the
    Fourier expressions that drive the defect functionals."""
    size = p**n
    values = np.empty(size)
    h = index_to_point(h_index, p, n)
    for idx in range(size):
        x = index_to_point(idx, p, n)
        r = (sum(hi * xi for hi, xi in zip(h, x)) + phase) % p
        values[idx] = 0.5 + eps * np.cos(2.0 * np.pi * r / p)
    return GroupFunction(p, n, values)


def from_values(p: int, n: int, values, exact=None) -> GroupFunction:
    return GroupFunction(p, n, np.asarray(values, dtype=np.float64), exact)


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients indexed like the function domain."""

    p: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.p**self.n,):
            raise MalformedDocument("spectrum has the wrong number of coefficients")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def sup(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def _axis_transform(values: np.ndarray, p: int, n: int, matrix: np.ndarray) -> np.ndarray:
    """Apply the radix-p `matrix` along each of the n coordinates of the
    last axis of `values`; leading axes are a batch of functions.

    Each round transforms the least significant digit of the index and
    rotates it to the most significant place, so after n rounds every
    coordinate is transformed and the index order is restored.
    """
    v = values.reshape(-1, values.shape[-1])
    batch = v.shape[0]
    for _ in range(n):
        v = (v.reshape(batch, -1, p) @ matrix.T).transpose(0, 2, 1)
    return v.reshape(values.shape)


def _dft_rows(values: np.ndarray, p: int, n: int) -> np.ndarray:
    """Fourier coefficients along the last axis of `values`, as `dft`;
    leading axes are a batch of functions."""
    return _axis_transform(values.astype(np.complex128), p, n, _forward_matrix(p)) / p**n


def _idft_rows(coeffs: np.ndarray, p: int, n: int) -> np.ndarray:
    """Unnormalized complex inversion along the last axis of `coeffs`."""
    return _axis_transform(coeffs, p, n, _inverse_matrix(p))


def dft(f: GroupFunction) -> Spectrum:
    return Spectrum(f.p, f.n, _dft_rows(f.values, f.p, f.n))


def idft(s: Spectrum) -> GroupFunction:
    return GroupFunction(s.p, s.n, _idft_rows(s.coeffs, s.p, s.n).real)


def spectral_sup(g: GroupFunction, tol: float = 1e-9) -> float:
    """Max of |ghat(h)| over all h, for centered g."""
    if abs(g.values.mean()) > tol:
        raise NotCentered(f"mean {g.values.mean():.3e} exceeds {tol}")
    return dft(g).sup()


# ---------------------------------------------------------------------------
# Function documents: JSON with exact decimals, or raw binary GFPN


def function_to_json(f: GroupFunction) -> str:
    if f.exact is not None:
        vals = [_exact_json_value(v) for v in f.exact]
    else:
        vals = [float(v) for v in f.values]
    return json.dumps({"p": f.p, "n": f.n, "values": vals})


def _exact_json_value(v: Fraction):
    if v.denominator == 1:
        return v.numerator
    if _fraction_is_float_exact(v):
        return float(v)
    # fractions with no exact decimal form are emitted as "num/den" strings
    return str(v)


def _fraction_is_float_exact(v: Fraction) -> bool:
    try:
        return Fraction(repr(float(v))) == v
    except (OverflowError, ValueError):
        return False


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


def function_from_json(text: str) -> GroupFunction:
    """Parse a JSON function document; decimal literals are read exactly."""
    try:
        data = json.loads(text, parse_float=_exact_decimal)
    except (json.JSONDecodeError, ValueError) as exc:
        raise MalformedDocument(f"not a valid function document: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedDocument("function document must be a JSON object")
    try:
        p, n, raw = int(data["p"]), int(data["n"]), data["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"missing or bad field: {exc}") from exc
    if not isinstance(raw, list):
        raise MalformedDocument('"values" must be an array')
    exact = []
    for v in raw:
        if isinstance(v, Fraction):
            exact.append(v)
        elif isinstance(v, int) and not isinstance(v, bool):
            exact.append(Fraction(v))
        elif isinstance(v, str):
            exact.append(_exact_decimal(v))
        else:
            raise MalformedDocument(f"bad value {v!r}")
    _check_modulus(p)
    size = checked_size(p, n)
    if size != len(exact):
        raise MalformedDocument(f"expected p^n = {size} values, got {len(exact)}")
    try:
        values = np.array([float(v) for v in exact])
    except OverflowError as exc:
        raise MalformedDocument(f"a value is beyond the double range: {exc}") from exc
    return GroupFunction(p, n, values, tuple(exact))


def function_to_binary(f: GroupFunction) -> bytes:
    header = GFPN_MAGIC + struct.pack("<III", f.p, f.n, 0)
    return header + f.values.astype("<f8").tobytes()


def function_from_binary(blob: bytes) -> GroupFunction:
    if len(blob) < 16 or blob[:4] != GFPN_MAGIC:
        raise MalformedDocument("not a GFPN function file")
    p, n, _reserved = struct.unpack("<III", blob[4:16])
    _check_modulus(p)
    size = checked_size(p, n)
    body = blob[16:]
    if len(body) != 8 * size:
        raise MalformedDocument(
            f"GFPN body has {len(body)} bytes, expected {8 * size}"
        )
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise MalformedDocument("GFPN values must be finite")
    # binary doubles are exact dyadic rationals
    exact = tuple(Fraction(float(v)) for v in values)
    return GroupFunction(int(p), int(n), values, exact)


def load_function(path: str) -> GroupFunction:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == GFPN_MAGIC:
        return function_from_binary(blob)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"cannot decode {path!r}") from exc
    return function_from_json(text)


def save_function(f: GroupFunction, path: str) -> None:
    if path.endswith(".gfpn") or path.endswith(".bin"):
        with open(path, "wb") as fh:
            fh.write(function_to_binary(f))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(function_to_json(f))
