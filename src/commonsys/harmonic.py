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
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import MalformedDocument, NotCentered, TooLarge
from .linsys import MAX_DECIMAL_EXPONENT, _check_modulus, _exact_decimal

MAX_POINTS = 1 << 24
GFPN_MAGIC = b"GFPN"


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


def _outer_sum(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """out[i, a*S + s] = high[i, a] + low[i, s], S = low.shape[1]."""
    return (high[:, :, None] + low[:, None, :]).reshape(len(high), -1)


def _form_table(forms, p: int, digits: range) -> np.ndarray:
    """The point of F_p^n that each linear form takes at each parameter
    tuple of (F_p^n)^k, k = len(forms[0]), over all values of the tuple
    digits in `digits` with every other digit zero, as a
    (len(forms), p^len(digits)) int64 array.

    Tuples are enumerated digit-position-major: tuple digit t is digit
    t // k of parameter t % k, least significant first.  Digit d of form
    i's point is sum_j forms[i][j] y_(j,d) mod p, so it depends only on
    the tuple digits of position d, and different positions add with no
    carry.  The table is an outer sum over positions, highest outermost,
    of each position's mod-p outer sum over its parameters, weighted by
    p^d.  A range that cuts a position keeps the part sum mod p of the
    parameters it covers there."""
    coefficients = np.array(forms, dtype=np.int64) % p
    k = coefficients.shape[1]
    values = np.arange(p)
    table = np.zeros((len(forms), 1), dtype=np.int64)
    t = digits.start
    while t < digits.stop:
        d, j = divmod(t, k)
        t = min(digits.stop, (d + 1) * k)
        position = np.zeros((len(forms), 1), dtype=np.int64)
        for column in coefficients[:, j:t - d * k].T:
            position = _outer_sum(np.outer(column, values), position)
        table = _outer_sum(position % p * p**d, table)
    return table


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
    """Indicator of a set given as an iterable of indices in 0..p^n-1."""
    size = checked_size(p, n)
    members = set(int(m) for m in members)
    outside = sorted(m for m in members if not 0 <= m < size)
    if outside:
        raise MalformedDocument(f"indicator member {outside[0]} outside 0..{size - 1}")
    inside = np.zeros(size, dtype=bool)
    inside[list(members)] = True
    return _mask_indicator(p, n, inside)


def _mask_indicator(p: int, n: int, inside: np.ndarray) -> GroupFunction:
    """Indicator of the points where the boolean array `inside` is set; the
    exact values share one Fraction(0) and one Fraction(1)."""
    bits = (Fraction(0), Fraction(1))
    exact = tuple(bits[b] for b in inside.tolist())
    return GroupFunction(p, n, inside.astype(np.float64), exact)


def coset_indicator(p: int, n: int, coefficients, residue: int) -> GroupFunction:
    """Indicator of the affine coset {x : sum_i coefficients[i] x_i = residue}."""
    coefficients = list(coefficients)
    if len(coefficients) != n:
        raise MalformedDocument(f"expected {n} coefficients, got {len(coefficients)}")
    checked_size(p, n)
    # sum_i c_i x_i mod p at every x: one form over n one-digit parameters
    values = _form_table(([c % p for c in coefficients],), p, range(n))[0]
    return _mask_indicator(p, n, values == residue % p)


def character_bump(p: int, n: int, h_index: int, phase: int, eps: float) -> GroupFunction:
    """f(x) = 1/2 + eps * cos(2 pi (h.x + phase) / p); extremal for the
    Fourier expressions that drive the defect functionals.  h is the point
    of index `h_index`, which must lie in 0..p^n - 1 (MalformedDocument
    otherwise)."""
    size = checked_size(p, n)
    if not 0 <= h_index < size:
        raise MalformedDocument(f"character index {h_index} outside 0..{size - 1}")
    r = (_form_table((index_to_point(h_index, p, n),), p, range(n))[0] + phase) % p
    return GroupFunction(p, n, 0.5 + eps * np.cos(2.0 * np.pi * r / p))


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


def spectral_sup(g: GroupFunction, tol: float = 1e-9) -> float:
    """Max of |ghat(h)| over all h, for centered g."""
    if abs(g.values.mean()) > tol:
        raise NotCentered(f"mean {g.values.mean():.3e} exceeds {tol}")
    return dft(g).sup()


# ---------------------------------------------------------------------------
# Function documents: JSON with exact decimals, or raw binary GFPN


def function_to_json(f: GroupFunction, manifest_digest: str | None = None) -> str:
    """The JSON function document of f, ending with the digest of the run
    that made it when one is given."""
    if f.exact is not None:
        vals = [_exact_json_value(v) for v in f.exact]
    else:
        vals = [float(v) for v in f.values]
    doc = {"p": f.p, "n": f.n, "values": vals}
    if manifest_digest is not None:
        doc["manifest_digest"] = manifest_digest
    return json.dumps(doc)


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


def function_from_json(text: str) -> GroupFunction:
    """Parse a JSON function document; decimal literals are read exactly."""
    try:
        data = json.loads(text, parse_float=_exact_decimal)
    except (json.JSONDecodeError, ValueError) as exc:
        raise MalformedDocument(f"not a valid function document: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedDocument("function document must be a JSON object")
    p, n, raw = data.get("p"), data.get("n"), data.get("values")
    for name, v in (("p", p), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise MalformedDocument(f'"{name}" must be an integer, got {str(v)[:40]!r}')
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
    # `exact_values` reads each double as its shortest round-trip decimal
    return GroupFunction(int(p), int(n), values)


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


def save_function(f: GroupFunction, path: str, manifest_digest: str | None = None) -> None:
    """Write f as GFPN binary to a .gfpn or .bin path, else as a JSON
    document; the binary header has no room for the manifest digest."""
    if path.endswith(".gfpn") or path.endswith(".bin"):
        with open(path, "wb") as fh:
            fh.write(function_to_binary(f))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(function_to_json(f, manifest_digest))
