"""Command-line entry point.

Subcommands: eval (defect of one colouring), scan-alpha (optimizer sweep
over pinned means), search (one optimizer run), verify (lemma suite),
constants (derive the certified ledger).  Every run writes a manifest of
resolved inputs, seed and tool version; output files reference the
manifest digest so reruns are reproducible byte for byte apart from
timestamps.

Exit codes: 0 success, 2 input error, 3 verification failure, 4 size cap;
every failure prints ``error: ...`` to stderr.  Input errors are found
first: `eval` checks the colouring's mean against the property (exit 2)
before it counts, so an invalid mean exits 2 even where the count would
also pass the size cap, and `scan-alpha` checks its search settings at
the first mean (0 for a grid) before it forms the grid.  Rational flags
(--const, --alpha, --alphas) are read like document values: exactly, as a
decimal or "num/den", with |exponent| <= 1000, and must lie in [0, 1].
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__, certify, counting, harmonic, linsys, optimize
from .errors import (
    CommonsysError,
    MalformedDocument,
    NoSuchL,
    TooLarge,
    VerificationFailed,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_SIZE = 4


@dataclass
class RunManifest:
    subcommand: str
    args: dict
    inputs: dict = field(default_factory=dict)
    seed: int | None = None
    tool_version: str = __version__
    outputs: list = field(default_factory=list)

    def digest(self) -> str:
        """Digest of the resolved run; the outputs it wrote are not part of it."""
        fields = asdict(self)
        del fields["outputs"]
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {**asdict(self), "digest": self.digest()}


def _build_manifest(
    args: argparse.Namespace, skip=("out", "func", "save_function")
) -> RunManifest:
    plain = {
        k: v for k, v in vars(args).items() if k not in skip and not callable(v)
    }
    return RunManifest(
        subcommand=args.subcommand,
        args=plain,
        seed=getattr(args, "seed", None),
    )


def _load_system(args, manifest: RunManifest) -> linsys.LinearSystem:
    system = linsys.load_system(args.system, p=args.p)
    manifest.args["p"] = system.p  # a system document's own p overrides --p
    manifest.inputs["system"] = system.digest()
    return system


_COSET_TERM = re.compile(r"([+-]?\d*)\s*x(\d+)")


def _parse_coset(expr: str, p: int, n: int) -> harmonic.GroupFunction:
    """Parse constraints like "x1=1" or "x1+2x3=2" into a coset indicator."""
    harmonic.checked_size(p, n)  # before the n coefficients are allocated
    if "=" not in expr:
        raise MalformedDocument(f"coset expression {expr!r} needs '='")
    lhs, rhs = expr.split("=", 1)
    try:  # int() also refuses a literal past the interpreter's digit limit
        residue = int(rhs.strip())
        terms = [
            (1 if coeff in ("", "+") else -1 if coeff == "-" else int(coeff), int(index))
            for coeff, index in _COSET_TERM.findall(lhs)
        ]
    except ValueError as exc:
        raise MalformedDocument(f"bad coset expression {expr[:40]!r}: {exc}") from exc
    coefficients = [0] * n
    for coeff, index in terms:
        if not 1 <= index <= n:
            raise MalformedDocument(
                f"coset variable x{index} outside 1..{n}; pass a larger --n"
            )
        coefficients[index - 1] = (coefficients[index - 1] + coeff) % p
    if not terms:
        raise MalformedDocument(f"no variables found in coset expression {expr!r}")
    return harmonic.coset_indicator(p, n, coefficients, residue)


def _resolve_function(args, p: int, manifest: RunManifest) -> harmonic.GroupFunction:
    sources = [s for s in (args.function, args.const, args.coset) if s is not None]
    if len(sources) != 1:
        raise MalformedDocument("give exactly one of --function / --const / --coset")
    if args.function is not None:
        f = harmonic.load_function(args.function)
        manifest.inputs["function"] = counting.function_digest(f)
        if f.p != p:
            raise MalformedDocument(f"function has p={f.p}, system has p={p}")
        return f
    if args.const is not None:
        f = harmonic.constant(p, args.n, _unit_fraction(args.const))
    else:
        f = _parse_coset(args.coset, p, args.n)
    manifest.inputs["function"] = counting.function_digest(f)
    return f


def _unit_fraction(text: str) -> Fraction:
    """A rational flag read like a document value, checked to lie in [0, 1]
    before any float is formed."""
    value = harmonic._exact_decimal(text)
    if not 0 <= value <= 1:
        raise MalformedDocument(f"value {text[:40]!r} outside [0, 1]")
    return value


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(payload: dict, manifest: RunManifest, out: str | None) -> None:
    payload = {"manifest": manifest.to_dict(), **payload}
    text = json.dumps(payload, indent=2)
    if out:
        _write(out, text + "\n")
    print(text)


def _emit_table(rows: list[dict], columns: list[str], manifest: RunManifest, out) -> None:
    lines = [
        f"# commonsys {__version__} manifest={manifest.digest()}",
        "\t".join(columns),
    ]
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in columns))
    text = "\n".join(lines)
    if out:
        _write(out, text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_eval(args) -> int:
    manifest = _build_manifest(args)
    system = _load_system(args, manifest)
    f = _resolve_function(args, system.p, manifest)
    methods = ["brute", "fourier"] if args.method == "both" else [args.method]
    reports = [
        counting.defect(system, f, args.property, l=args.l, method=m) for m in methods
    ]
    payload = {"reports": [r.to_dict() for r in reports]}
    if len(reports) == 2:
        payload["discrepancy"] = abs(float(reports[0].value) - float(reports[1].value))
    _emit_json(payload, manifest, args.out)
    return EXIT_OK


def _search_config(args, p: int, mean: float | None) -> optimize.SearchConfig:
    """The search `search` and `scan-alpha` describe, checked when built."""
    return optimize.SearchConfig(
        property=args.property, p=p, n=args.n, l=args.l, mean=mean,
        restarts=args.restarts, max_iters=args.max_iters, seed=args.seed,
    )


def cmd_scan_alpha(args) -> int:
    manifest = _build_manifest(args)
    system = _load_system(args, manifest)
    # the config is checked at the first mean, before a grid is formed
    if args.alphas is not None:
        alphas = [_unit_fraction(a) for a in args.alphas.split(",")]
        cfg = _search_config(args, system.p, float(alphas[0]))
    else:
        cfg = _search_config(args, system.p, 0.0)
        alphas = optimize.alpha_grid(args.grid)
    rows = optimize.scan_alpha(system, cfg, alphas)
    _emit_table(rows, ["alpha", "best_defect", "violation"], manifest, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    manifest = _build_manifest(args)
    system = _load_system(args, manifest)
    cfg = _search_config(args, system.p, args.alpha)
    result = optimize.minimize_defect(system, cfg)
    if args.save_function:
        harmonic.save_function(result.best, args.save_function, manifest_digest=manifest.digest())
        manifest.outputs.append(args.save_function)
    payload = {"config": asdict(cfg), "result": result.to_dict()}
    _emit_json(payload, manifest, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    manifest = _build_manifest(args)
    certs = certify.verify_lemma_suite()
    for i, cert in enumerate(certs, 1):
        print(f"certificate {i}/{len(certs)} verified: {cert.claim}")
    payload = {"certificates": [c.to_dict() for c in certs]}
    if args.out:
        _write(args.out, json.dumps({"manifest": manifest.to_dict(), **payload}, indent=2))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_constants(args) -> int:
    manifest = _build_manifest(args)
    ledger = certify.derive_all()
    print(ledger.summary())
    if args.out:
        _write(args.out, json.dumps({"manifest": manifest.to_dict(), **ledger.to_dict()}, indent=2))
        print(f"wrote {args.out}")
    if args.check_l is not None:
        rows = ledger.replay(args.check_l)
        print(f"\nconditions at l={args.check_l}:")
        for row in rows:
            print(certify._replay_line(row))
        if not all(row["satisfied"] for row in rows):
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------


def _rational_arg(text: str) -> float:
    """`_unit_fraction` for argparse, which turns only ArgumentTypeError,
    TypeError and ValueError into its usage exit (2)."""
    try:
        return float(_unit_fraction(text))
    except MalformedDocument as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commonsys",
        description="Solution-density functionals of linear systems over F_p^n: "
        "evaluation, counterexample search, and certified constants.",
    )
    parser.add_argument("--version", action="version", version=f"commonsys {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_system_args(p):
        p.add_argument("--system", required=True, help="preset name or system file")
        p.add_argument("--p", type=int, default=3, help="modulus for presets (default 3)")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here as well")

    p_eval = sub.add_parser("eval", help="evaluate a property defect at one colouring")
    add_system_args(p_eval)
    p_eval.add_argument("--function", default=None, help="function file (JSON or GFPN)")
    p_eval.add_argument("--const", default=None, help="constant colouring value, e.g. 0.5")
    p_eval.add_argument("--coset", default=None, help='coset indicator, e.g. "x1=1"')
    p_eval.add_argument("--n", type=int, default=1, help="dimension for --const/--coset")
    p_eval.add_argument(
        "--property", required=True, choices=counting.PROPERTIES
    )
    p_eval.add_argument("--l", type=int, default=None, help="free variables for alon")
    p_eval.add_argument("--method", choices=["brute", "fourier", "both"], default="fourier")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_scan = sub.add_parser("scan-alpha", help="optimizer sweep over pinned means")
    add_system_args(p_scan)
    p_scan.add_argument("--n", type=int, default=1)
    p_scan.add_argument("--property", required=True, choices=counting.PROPERTIES)
    p_scan.add_argument("--l", type=int, default=None)
    p_scan.add_argument("--grid", type=int, default=11, help="grid resolution (3 to 10^5)")
    p_scan.add_argument("--alphas", default=None, help="explicit grid, e.g. 0.5 or 1/3,1/2")
    p_scan.add_argument("--restarts", type=int, default=8)
    p_scan.add_argument("--max-iters", type=int, default=200)
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan_alpha)

    p_search = sub.add_parser("search", help="one defect-minimization run")
    add_system_args(p_search)
    p_search.add_argument("--n", type=int, default=1)
    p_search.add_argument("--property", required=True, choices=counting.PROPERTIES)
    p_search.add_argument("--l", type=int, default=None)
    p_search.add_argument("--alpha", type=_rational_arg, default=None, help="pin the mean (decimal or a/b)")
    p_search.add_argument("--restarts", type=int, default=16)
    p_search.add_argument("--max-iters", type=int, default=300)
    p_search.add_argument("--save-function", default=None, help="save the best colouring")
    add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="certify the lemma suite")
    p_verify.add_argument("--out", default=None, help="certificate report file")
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="derive the certified constant ledger")
    p_const.add_argument("--out", default=None, help="ledger report file")
    p_const.add_argument("--check-l", type=int, default=None, help="replay conditions at l")
    p_const.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (VerificationFailed, NoSuchL) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except CommonsysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
