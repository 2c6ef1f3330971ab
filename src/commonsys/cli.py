"""Command-line entry point.

Subcommands: eval (defect of one colouring), scan-alpha (optimizer sweep
over pinned means), search (one optimizer run), verify (lemma suite),
constants (derive the certified ledger).  Every run writes a manifest of
resolved inputs, seed and tool version; output files reference the
manifest digest so reruns are reproducible byte for byte apart from
timestamps.

Exit codes: 0 success, 2 input error, 3 verification failure, 4 size cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
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
        payload = json.dumps(
            {
                "subcommand": self.subcommand,
                "args": self.args,
                "inputs": self.inputs,
                "seed": self.seed,
                "tool_version": self.tool_version,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "args": self.args,
            "inputs": self.inputs,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "outputs": self.outputs,
            "digest": self.digest(),
        }


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
    manifest.inputs["system"] = system.digest()
    return system


_COSET_TERM = re.compile(r"([+-]?\d*)\s*x(\d+)")


def _parse_coset(expr: str, p: int, n: int) -> harmonic.GroupFunction:
    """Parse constraints like "x1=1" or "x1+2x3=2" into a coset indicator."""
    harmonic.checked_size(p, n)  # before the n coefficients are allocated
    if "=" not in expr:
        raise MalformedDocument(f"coset expression {expr!r} needs '='")
    lhs, rhs = expr.split("=", 1)
    try:
        residue = int(rhs.strip())
    except ValueError as exc:
        raise MalformedDocument(f"bad coset residue {rhs!r}") from exc
    coefficients = [0] * n
    matched = 0
    for match in _COSET_TERM.finditer(lhs):
        coeff_text, var_text = match.group(1), match.group(2)
        coeff = 1 if coeff_text in ("", "+") else (-1 if coeff_text == "-" else int(coeff_text))
        index = int(var_text)
        if not 1 <= index <= n:
            raise MalformedDocument(
                f"coset variable x{index} outside 1..{n}; pass a larger --n"
            )
        coefficients[index - 1] = (coefficients[index - 1] + coeff) % p
        matched += 1
    if matched == 0:
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
        f = harmonic.constant(p, args.n, _fraction(args.const, "constant"))
    else:
        f = _parse_coset(args.coset, p, args.n)
    manifest.inputs["function"] = counting.function_digest(f)
    return f


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument(f"bad {what} {text!r}") from exc


def _emit_json(payload: dict, manifest: RunManifest, out: str | None) -> None:
    payload = {"manifest": manifest.to_dict(), **payload}
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        manifest.outputs.append(out)
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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


def cmd_scan_alpha(args) -> int:
    manifest = _build_manifest(args)
    system = _load_system(args, manifest)
    if args.alphas:
        alphas = [_fraction(a, "alpha") for a in args.alphas.split(",")]
    else:
        alphas = optimize.alpha_grid(args.grid)
    rows = optimize.scan_alpha(
        system,
        args.property,
        alphas,
        n=args.n,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        l=args.l,
    )
    _emit_table(rows, ["alpha", "best_defect", "violation"], manifest, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    manifest = _build_manifest(args)
    system = _load_system(args, manifest)
    cfg = optimize.SearchConfig(
        property=args.property,
        p=system.p,
        n=args.n,
        l=args.l,
        mean=args.alpha,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = optimize.minimize_defect(system, cfg)
    if args.save_function:
        _save_function_with_digest(result.best, args.save_function, manifest)
        manifest.outputs.append(args.save_function)
    payload = {"config": cfg.to_dict(), "result": result.to_dict()}
    _emit_json(payload, manifest, args.out)
    return EXIT_OK


def _save_function_with_digest(f, path: str, manifest: RunManifest) -> None:
    """JSON function documents carry the run digest as an extra field; the
    binary format has a fixed header and cannot reference it."""
    if path.endswith(".gfpn") or path.endswith(".bin"):
        harmonic.save_function(f, path)
        return
    doc = json.loads(harmonic.function_to_json(f))
    doc["manifest_digest"] = manifest.digest()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cmd_verify(args) -> int:
    manifest = _build_manifest(args)
    try:
        certs = certify.verify_lemma_suite()
    except VerificationFailed as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    for i, cert in enumerate(certs, 1):
        print(f"certificate {i}/{len(certs)} verified: {cert.claim}")
    payload = {"certificates": [c.to_dict() for c in certs]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"manifest": manifest.to_dict(), **payload}, fh, indent=2)
        manifest.outputs.append(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_constants(args) -> int:
    manifest = _build_manifest(args)
    try:
        certify.verify_lemma_suite()
        ledger = certify.derive_all()
    except (VerificationFailed, NoSuchL) as exc:
        print(f"derivation FAILED: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    print(ledger.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"manifest": manifest.to_dict(), **ledger.to_dict()}, fh, indent=2)
        manifest.outputs.append(args.out)
        print(f"wrote {args.out}")
    if args.check_l is not None:
        rows = ledger.replay(args.check_l)
        print(f"\nconditions at l={args.check_l}:")
        ok = True
        for row in rows:
            mark = "ok " if row["satisfied"] else "FAIL"
            print(f"  {mark} {row['condition']:<12} slack {row.get('slack_float', 0.0):.3e}")
            ok = ok and row["satisfied"]
        if not ok:
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------


def _rational_arg(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


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
    p_scan.add_argument("--grid", type=int, default=11, help="grid resolution (>= 3)")
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
