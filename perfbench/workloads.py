"""Workloads: seeded CLI argument lists and an independent check per op.

Each workload is a cycle of ops; an op is one `commonsys` subcommand.
Input files go to a work directory inside the checkout.  Every check
returns None when the op's output is right and a reason string when it is
not; output it cannot parse raises KeyError, TypeError, ValueError or
IndexError, which the runner also counts as a failure.  The oracles are
written here, not taken from the package, except that certificates are
re-checked with the package's `verify_certificate`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# the ledger `constants` derives; the derivation is exact and deterministic,
# so any other value is a regression
EXPECTED_CONSTANTS = {
    "c0": "142941/2500000000",
    "c1": "551/4096",
    "c2": "57/512",
    "c3": "29451/800000000",
    "C4": "1077227/1000000000",
    "c5": "37/10000",
    "c6": "24101/7812500000",
    "l0": 441563,
}
PHI_BLOCKS = ([1, 2, 1, 2], [1, 2, 1, 2, 1])  # phi over F_3: a4 on x1..x4, a5 on x5..x9
PHI_T = 9
QUAD_SYSTEM = {"p": 5, "matrix": [[1, 1, 1, 1]]}
# two variable-disjoint copies of a4 over F_3: t = 8, rank 2, so at n = 2
# t_brute enumerates 9^6 solutions (phi has 9^7, ten times the time)
A4A4_BLOCKS = ([1, 2, 1, 2], [1, 2, 1, 2])
A4A4_SYSTEM = {"p": 3, "matrix": [[1, 2, 1, 2, 0, 0, 0, 0], [0, 0, 0, 0, 1, 2, 1, 2]]}
RATIONAL_DENOMINATOR = 64  # 64^8 < 2^62, so t_brute takes its int64 path


@dataclass
class Op:
    name: str  # op kind; per-op statistics are keyed by it
    argv: list[str]
    check: Callable[[str], str | None]
    files: tuple[str, ...] = ()  # outputs that must also repeat byte for byte


# ---------------------------------------------------------------------------
# Exact oracles (pure Python)


def _point_tables(p: int, n: int):
    """Addition and scalar-multiple tables on F_p^n in little-endian indexing."""
    size = p**n
    digits = [[(i // p**k) % p for k in range(n)] for i in range(size)]

    def index(ds):
        return sum(d * p**k for k, d in enumerate(ds))

    add = [[index([(a + b) % p for a, b in zip(digits[i], digits[j])]) for j in range(size)]
           for i in range(size)]
    mul = [[index([(c * a) % p for a in digits[i]]) for i in range(size)] for c in range(p)]
    return add, mul


def exact_equation_density(coeffs, p: int, n: int, values) -> Fraction:
    """E over solutions of sum_i c_i x_i = 0 in F_p^n of prod_i f(x_i).

    `values` are exact rationals indexed little-endian; the last variable is
    solved for, so the loop runs over (p^n)^(t-1) tuples.
    """
    add, mul = _point_tables(p, n)
    size = p**n
    *free, last = [c % p for c in coeffs]
    solve = mul[(-pow(last, -1, p)) % p]
    denominator = math.lcm(*(v.denominator for v in values))
    numer = [int(v * denominator) for v in values]
    total = 0
    tuples = [(0, 1)]  # (sum_i c_i x_i, product of numerators) over free prefixes
    for c in free:
        scaled = mul[c]
        tuples = [
            (add[acc][scaled[x]], prod * numer[x]) for acc, prod in tuples for x in range(size)
        ]
    for acc, prod in tuples:
        total += prod * numer[solve[acc]]
    return Fraction(total, denominator ** len(coeffs) * size ** len(free))


def exact_density(blocks, p: int, n: int, values) -> Fraction:
    """T(f) of a product of variable-disjoint equations: the product of their T."""
    out = Fraction(1)
    for coeffs in blocks:
        out *= exact_equation_density(coeffs, p, n, values)
    return out


def fft_density(blocks, p: int, n: int, values: np.ndarray) -> float:
    out = 1.0 + 0j
    for coeffs in blocks:
        out *= fft_equation_density(coeffs, p, n, values)
    return out.real


def fft_equation_density(coeffs, p: int, n: int, values: np.ndarray) -> complex:
    """sum_h prod_i fhat(c_i h) with fhat from numpy's FFT (mean on the forward side)."""
    fhat = np.fft.fftn(values.reshape((p,) * n)) / values.size
    grid = np.indices((p,) * n).reshape(n, -1)
    flat = fhat.reshape(-1)
    out = np.ones(values.size, dtype=np.complex128)
    strides = np.array([p ** (n - 1 - k) for k in range(n)])
    for c in coeffs:
        out *= flat[((c * grid) % p * strides[:, None]).sum(axis=0)]
    return complex(out.sum())


# ---------------------------------------------------------------------------
# Checks


def _relative_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_eval_exact(blocks, values: list[Fraction], n: int):
    t = sum(len(coeffs) for coeffs in blocks)
    t_f = exact_density(blocks, 3, n, values)
    t_c = exact_density(blocks, 3, n, [1 - v for v in values])
    expected = (t_f, t_c, t_f + t_c - Fraction(2) ** (1 - t))

    def check(stdout: str):
        doc = json.loads(stdout)
        brute, fourier = doc["reports"]
        if brute["method"] != "BruteExact" or fourier["method"] != "Fourier":
            return f"unexpected methods {brute['method']}, {fourier['method']}"
        got = (Fraction(brute["t_f"]), Fraction(brute["t_1mf"]), Fraction(brute["value"]))
        if got != expected:
            return f"exact route {got} differs from the enumeration oracle {expected}"
        if not _relative_close(fourier["value"], float(expected[2]), 1e-9):
            return f"fourier value {fourier['value']} vs exact {float(expected[2])}"
        if not doc["discrepancy"] <= 1e-9:
            return f"discrepancy {doc['discrepancy']} above 1e-9"
        return None

    return check


def check_eval_fourier(values: np.ndarray, n: int):
    t_f = fft_density(PHI_BLOCKS, 3, n, values)
    t_c = fft_density(PHI_BLOCKS, 3, n, 1.0 - values)
    value = t_f + t_c - 2.0 ** (1 - PHI_T)

    def check(stdout: str):
        (report,) = json.loads(stdout)["reports"]
        for key, want in (("t_f", t_f), ("t_1mf", t_c)):
            if not _relative_close(report[key], want, 1e-9):
                return f"{key} {report[key]} vs FFT oracle {want}"
        if abs(report["value"] - value) > 1e-9 * (t_f + t_c):
            return f"value {report['value']} vs FFT oracle {value}"
        return None

    return check


def check_search_no_violation(p: int, n: int):
    def check(stdout: str):
        doc = json.loads(stdout)
        result = doc["result"]
        if (result["p"], result["n"], len(result["best_values"])) != (p, n, p**n):
            return "best colouring has the wrong shape"
        if result["violation"] or result["best_defect"] < -1e-6:
            return f"phi is common, but the search reports defect {result['best_defect']}"
        return None

    return check


def check_search_violation(saved: Path):
    def check(stdout: str):
        doc = json.loads(stdout)
        result = doc["result"]
        if not result["violation"]:
            return f"no violation found (best defect {result['best_defect']})"
        try:
            text = saved.read_text(encoding="utf-8")
        except OSError as exc:
            return f"saved colouring unreadable: {exc}"
        colouring = json.loads(text, parse_float=Fraction)
        values = [Fraction(v) for v in colouring["values"]]
        blocks, n = QUAD_SYSTEM["matrix"], colouring["n"]
        exact = (exact_density(blocks, 5, n, values)
                 + exact_density(blocks, 5, n, [1 - v for v in values])
                 - Fraction(1, 8))  # 2^(1-t) with t = 4
        if exact >= 0:
            return f"float violation not confirmed: exact defect {exact}"
        if abs(float(exact) - result["best_defect"]) > 1e-9:
            return f"exact defect {float(exact)} vs reported {result['best_defect']}"
        return None

    return check


def check_scan(alphas: list[float]):
    corner = 1.0 - 2.0 ** (1 - PHI_T)  # T(0) + T(1) - 2^(1-t) at a constant 0 or 1

    def check(stdout: str):
        lines = stdout.splitlines()
        if len(lines) != 2 + len(alphas) or not lines[0].startswith("# commonsys "):
            return "scan table has the wrong shape"
        if lines[1] != "alpha\tbest_defect\tviolation":
            return f"unexpected header {lines[1]!r}"
        for alpha, line in zip(alphas, lines[2:]):
            a, d, v = line.split("\t")
            a, d = float(a), float(d)
            if a != alpha or v != "False":
                return f"row {line!r}"
            # phi is common, so at mean 1/2 the minimum defect is 0 (constant 1/2)
            want_lo, want_hi = (-1e-6, 1e-4) if 0 < alpha < 1 else (corner - 1e-9, corner + 1e-9)
            if not want_lo <= d <= want_hi:
                return f"defect {d} at alpha {alpha} outside [{want_lo}, {want_hi}]"
        return None

    return check


def check_verify(out: Path):
    from commonsys.exactpoly import Certificate, verify_certificate

    def check(stdout: str):
        lines = [ln for ln in stdout.splitlines() if ln.startswith("certificate ")]
        if len(lines) != 7 or not all(" verified: " in ln for ln in lines):
            return f"expected 7 verified certificate lines, got {len(lines)}"
        try:
            certs = json.loads(out.read_text(encoding="utf-8"))["certificates"]
        except OSError as exc:
            return f"certificate file unreadable: {exc}"
        if len(certs) != 7:
            return f"{len(certs)} certificates written"
        failed = [c["claim"] for c in certs if not verify_certificate(Certificate.from_dict(c))]
        return f"certificates do not re-check: {failed}" if failed else None

    return check


def check_constants(out: Path):
    def check(stdout: str):
        try:
            ledger = json.loads(out.read_text(encoding="utf-8"))
        except OSError as exc:
            return f"ledger unreadable: {exc}"
        got = {k: ledger.get(k) for k in EXPECTED_CONSTANTS}
        if got != EXPECTED_CONSTANTS:
            return f"ledger {got} differs from {EXPECTED_CONSTANTS}"
        if f"l0        {EXPECTED_CONSTANTS['l0']}" not in stdout:
            return "summary does not report l0"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads


def _write_function(path: Path, p: int, n: int, values) -> None:
    path.write_text(json.dumps({"p": p, "n": n, "values": values}), encoding="utf-8")


def _small(argv: list[str]) -> list[str]:
    """The same search at a tiny budget (argparse keeps the last value)."""
    return argv + ["--restarts", "1", "--max-iters", "5"]


def search_small(seed: int, work: Path):
    quad = work / "quad_f5.json"
    quad.write_text(json.dumps(QUAD_SYSTEM), encoding="utf-8")
    saved = work / "quad_best.json"
    ops = [
        Op(
            "search",
            ["search", "--system", "phi", "--n", "2", "--property", "common",
             "--restarts", "2", "--max-iters", "300", "--seed", str(seed)],
            check_search_no_violation(3, 2),
        ),
        Op(
            "search_violation",
            ["search", "--system", str(quad), "--property", "common",
             "--restarts", "16", "--seed", str(seed), "--save-function", str(saved)],
            check_search_violation(saved),
            files=(str(saved),),
        ),
    ]
    return ops, [_small(op.argv) for op in ops]


def scan_pinned(seed: int, work: Path):
    ops = [
        Op(
            "scan",
            ["scan-alpha", "--system", "phi", "--n", "2", "--property", "common",
             "--grid", "3", "--restarts", "4", "--max-iters", "100", "--seed", str(seed)],
            check_scan([0.0, 0.5, 1.0]),
        )
    ]
    return ops, [_small(op.argv) for op in ops]


def eval_certify(seed: int, work: Path):
    rng = np.random.default_rng([seed, 1])
    q = RATIONAL_DENOMINATOR
    ks = [int(k) for k in rng.integers(0, q + 1, size=9)]
    a4a4 = work / "a4a4_f3.json"
    a4a4.write_text(json.dumps(A4A4_SYSTEM), encoding="utf-8")
    rational = work / "f3_n2_rational.json"
    _write_function(rational, 3, 2, [f"{k}/{q}" for k in ks])
    floats = rng.uniform(0.0, 1.0, size=3**6)
    real = work / "phi_n6_float.json"
    _write_function(real, 3, 6, [float(v) for v in floats])
    certs, ledger = work / "certificates.json", work / "ledger.json"
    ops = [
        Op(
            "eval_exact",
            ["eval", "--system", str(a4a4), "--function", str(rational), "--property", "common",
             "--method", "both"],
            check_eval_exact(A4A4_BLOCKS, [Fraction(k, q) for k in ks], 2),
        ),
        Op(
            "eval_fourier",
            ["eval", "--system", "phi", "--function", str(real), "--property", "common",
             "--method", "fourier"],
            check_eval_fourier(floats, 6),
        ),
        Op("verify", ["verify", "--out", str(certs)], check_verify(certs), files=(str(certs),)),
        Op("constants", ["constants", "--out", str(ledger)], check_constants(ledger),
           files=(str(ledger),)),
    ]
    warmup = [
        ["eval", "--system", "phi", "--const", "1/2", "--n", "1", "--property", "common",
         "--method", "both"],
        ["verify"],
    ]
    return ops, warmup


# each returns (ops of one cycle, warm-up argv lists run once before timing)
WORKLOADS = {
    "search-small": search_small,
    "scan-pinned": scan_pinned,
    "eval-certify": eval_certify,
}
