import hashlib
import json
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from commonsys import certify, cli, counting, harmonic, linsys, optimize
from commonsys.exactpoly import Certificate, verify_certificate


def run_main(capsys, *argv):
    """Exit code, stdout and stderr of cli.main(argv), counting an argparse
    rejection as its exit code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_balanced_constant_has_zero_defect(self, capsys):
        code, out, _ = run_main(
            capsys,
            "eval", "--system", "phi", "--const", "0.5",
            "--property", "common", "--method", "brute",
        )
        assert code == 0
        payload = json.loads(out)
        report = payload["reports"][0]
        assert report["value"] == "0" and report["exact"] is True

    def test_coset_sidorenko_witness(self, capsys):
        code, out, _ = run_main(
            capsys,
            "eval", "--system", "phi", "--coset", "x1=1",
            "--property", "sidorenko", "--method", "brute",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert Fraction(report["value"]) == -Fraction(1, 3**9)

    def test_three_term_one_free_balanced(self, capsys):
        code, out, _ = run_main(
            capsys,
            "eval", "--system", "ap3", "--const", "0.5",
            "--property", "alon", "--l", "1", "--method", "brute",
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["value"] == "0"

    def test_both_methods_report_discrepancy(self, capsys):
        code, out, _ = run_main(
            capsys,
            "eval", "--system", "a4", "--const", "0.25",
            "--property", "common", "--method", "both",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 2
        assert payload["discrepancy"] <= 1e-9

    def test_function_file_input(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"p": 3, "n": 1, "values": [0.5, 0.5, 0.5]}')
        code, out, _ = run_main(
            capsys,
            "eval", "--system", "phi", "--function", str(path),
            "--property", "common", "--method", "brute",
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["value"] == "0"

    def test_json_and_gfpn_give_one_exact_defect(self, capsys, tmp_path):
        # a double is read as its shortest round-trip decimal in either format
        f = harmonic.GroupFunction(3, 1, [0.1, 0.7, 0.3])
        values = []
        for name in ("f.json", "f.gfpn"):
            harmonic.save_function(f, str(tmp_path / name))
            code, out, _ = run_main(
                capsys,
                "eval", "--system", "a4", "--function", str(tmp_path / name),
                "--property", "common", "--method", "brute",
            )
            assert code == 0
            values.append(json.loads(out)["reports"][0]["value"])
        assert values == ["976/16875", "976/16875"]

    def test_unknown_system_is_input_error(self, capsys):
        code, _, err = run_main(
            capsys,
            "eval", "--system", "missing", "--const", "0.5", "--property", "common",
        )
        assert code == 2 and "error" in err

    def test_size_cap_exit(self, capsys):
        code, _, err = run_main(
            capsys,
            "eval", "--system", "phi", "--const", "0.5", "--n", "9",
            "--property", "common", "--method", "brute",
        )
        assert code == 4

    # an invalid mean exits 2 before any count, also where the count would
    # pass the size cap (phi at n = 3: p^(nD) = 3^21); a valid one still
    # reaches the count, and its cap
    @pytest.mark.parametrize("method, scan", [("brute", "_brute_rows"), ("fourier", "_t_rows")])
    @pytest.mark.parametrize("const, n, code", [("0.3", "2", 2), ("0.3", "3", 2), ("0.5", "3", 4)])
    def test_mean_is_checked_before_the_count(self, capsys, monkeypatch, method, scan, const, n,
                                              code):
        if method == "fourier" and code == 4:
            code = 0  # the row-space sum has no cap at this size
        calls = []
        real = getattr(counting, scan)
        monkeypatch.setattr(counting, scan, lambda *a: calls.append(a) or real(*a))
        got, _, err = run_main(
            capsys,
            "eval", "--system", "phi", "--const", const, "--n", n,
            "--property", "geometric", "--method", method,
        )
        assert got == code
        assert len(calls) == (code != 2)
        if code == 2:
            assert "mean 1/2" in err

    def test_conflicting_function_sources(self, capsys):
        code, _, _ = run_main(
            capsys,
            "eval", "--system", "phi", "--const", "0.5", "--coset", "x1=1",
            "--property", "common",
        )
        assert code == 2

    def test_manifest_digest_is_stable(self, capsys):
        args = (
            "eval", "--system", "phi", "--const", "0.5", "--property", "common",
        )
        _, out1, _ = run_main(capsys, *args)
        _, out2, _ = run_main(capsys, *args)
        d1 = json.loads(out1)["manifest"]["digest"]
        d2 = json.loads(out2)["manifest"]["digest"]
        assert d1 == d2

    def test_output_file_references_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            capsys,
            "eval", "--system", "phi", "--const", "0.5",
            "--property", "common", "--out", str(out_path),
        )
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["manifest"]["digest"] == json.loads(out)["manifest"]["digest"]


class TestScan:
    def test_geometric_single_row(self, capsys):
        code, out, _ = run_main(
            capsys,
            "scan-alpha", "--system", "phi", "--property", "geometric",
            "--alphas", "1/2", "--restarts", "2", "--max-iters", "20",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0].split("\t") == ["alpha", "best_defect", "violation"]
        assert len(lines) == 2

    def test_manifest_header(self, capsys):
        code, out, _ = run_main(
            capsys,
            "scan-alpha", "--system", "ap3", "--property", "common",
            "--alphas", "0.5", "--restarts", "1", "--max-iters", "10",
        )
        assert code == 0
        assert out.startswith("# commonsys")


class TestSearch:
    def test_search_writes_function(self, capsys, tmp_path):
        save = tmp_path / "best.json"
        code, out, _ = run_main(
            capsys,
            "search", "--system", "phi", "--property", "common",
            "--restarts", "2", "--max-iters", "20", "--save-function", str(save),
        )
        assert code == 0
        payload = json.loads(out)
        assert "result" in payload and save.exists()

    def test_manifest_records_the_document_p(self, capsys, tmp_path):
        path = tmp_path / "q5.json"
        path.write_text('{"p": 5, "matrix": [[1, 1, 1, 1]]}')
        code, out, _ = run_main(capsys, "search", "--system", str(path), "--property",
                                "common", "--restarts", "1", "--max-iters", "5")
        payload = json.loads(out)
        assert code == 0 and payload["result"]["p"] == 5
        assert payload["manifest"]["args"]["p"] == payload["config"]["p"] == 5

    @pytest.mark.parametrize("alpha, code", [("0.3", 2), ("1/2", 0)])
    def test_geometric_mean_is_checked(self, capsys, alpha, code):
        got, out, err = run_main(
            capsys,
            "search", "--system", "phi", "--property", "geometric", "--alpha", alpha,
            "--restarts", "2", "--max-iters", "10",
        )
        assert got == code
        if code == 0:
            assert json.loads(out)["result"]["best_values"]
        else:
            assert "mean 1/2" in err

    @pytest.mark.parametrize("mean, code", [("0.5000000001", 0), ("0.500001", 2)])
    def test_eval_and_search_share_the_geometric_mean_rule(self, capsys, mean, code):
        # 1/2 + 1e-10 is within the one tolerance and 1/2 + 1e-6 is not, for
        # a colouring's mean in eval and a pinned mean in search alike
        evaluated, _, _ = run_main(
            capsys, "eval", "--system", "phi", "--const", mean, "--property", "geometric",
        )
        searched, _, _ = run_main(
            capsys, "search", "--system", "phi", "--property", "geometric", "--alpha", mean,
            "--restarts", "1", "--max-iters", "1",
        )
        assert evaluated == searched == code


# p^GIANT_N is a multi-megabyte integer, so a traced peak below 1 MB shows
# that a giant n was refused before the power was formed
GIANT_N = 10**7


def _run_traced(argv):
    """Exit code of cli.main(argv), counting an argparse rejection as its
    exit code, and the peak of traced allocations during the run."""
    tracemalloc.start()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return code, peak


def _refused_before_power(capsys, *argv):
    """Assert the size-cap exit, with a traced peak far below the bytes
    p^n itself would take."""
    code, peak = _run_traced(argv)
    assert code == 4 and "exceeds" in capsys.readouterr().err
    assert peak < 1 << 20, peak


class TestOversizedDimension:
    """A huge n is refused with the size-cap exit before p^n is formed."""

    BIG_N = GIANT_N  # n coset coefficients would take 80 MB

    def test_json_function_document(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"p": 3, "n": self.BIG_N, "values": [0.5]}))
        _refused_before_power(
            capsys, "eval", "--system", "phi", "--function", str(path), "--property", "common"
        )

    def test_gfpn_header(self, capsys, tmp_path):
        path = tmp_path / "f.gfpn"
        path.write_bytes(harmonic.GFPN_MAGIC + struct.pack("<III", 3, self.BIG_N, 0) + bytes(8))
        _refused_before_power(
            capsys, "eval", "--system", "phi", "--function", str(path), "--property", "common"
        )

    def test_constant(self, capsys):
        _refused_before_power(
            capsys, "eval", "--system", "phi", "--const", "0.5", "--n", str(self.BIG_N),
            "--property", "common",
        )

    def test_coset(self, capsys):
        _refused_before_power(
            capsys, "eval", "--system", "phi", "--coset", "x1=1", "--n", str(self.BIG_N),
            "--property", "common",
        )

    def test_search(self, capsys):
        _refused_before_power(
            capsys, "search", "--system", "phi", "--n", str(self.BIG_N), "--property", "common",
        )


class TestOversizedSystem:
    """A system document with more than `linsys.MAX_SYSTEM_SIZE` rows or
    columns is refused with the size-cap exit before row reduction, whose
    cost is cubic, and before the t x (t - m) kernel is formed."""

    @pytest.mark.parametrize("m, t", [(1, 20000), (20000, 2), (300, 301)])
    def test_refused_before_row_reduction(self, capsys, tmp_path, monkeypatch, m, t):
        reduced = []
        rref = linsys._rref_mod_p
        monkeypatch.setattr(linsys, "_rref_mod_p", lambda *a: reduced.append(a) or rref(*a))
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"p": 3, "matrix": [[1] * t for _ in range(m)]}))
        code, peak = _run_traced(["eval", "--system", str(path), "--const", "1/2",
                                  "--property", "common"])
        assert code == 4 and "exceeds" in capsys.readouterr().err
        assert not reduced and peak < 1 << 23, peak


def test_scan_grid_past_the_cap_is_refused_before_it_is_formed(capsys):
    # valid settings: the one refusal is the grid's, and its 10^5 Fractions
    # would take about 12 MB had it been formed
    grid = optimize.MAX_GRID_POINTS + 1
    code, peak = _run_traced(["scan-alpha", "--system", "phi", "--property", "common",
                              "--grid", str(grid)])
    assert code == 4 and "grid resolution" in capsys.readouterr().err
    assert peak < 1 << 20, peak


def test_parser_is_built_once_and_carries_nothing_between_runs(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["eval", "--system", "phi", "--const", "0.5", "--property", "common"]
    code, out, _ = run_main(capsys, *argv, "--seed", "7", "--method", "brute")
    assert code == 0 and json.loads(out)["manifest"]["seed"] == 7
    assert run_main(capsys, *argv[:-1], "bogus")[0] == 2
    code, out, _ = run_main(capsys, *argv)
    manifest = json.loads(out)["manifest"]
    assert code == 0 and (manifest["seed"], manifest["args"]["method"]) == (0, "fourier")


class TestHostileDocuments:
    """Bad values and moduli in function documents exit 2, never with a traceback."""

    def _eval(self, capsys, path):
        return run_main(
            capsys, "eval", "--system", "phi", "--function", str(path), "--property", "common"
        )

    def test_bad_values(self, capsys, tmp_path):
        past = f"1e{harmonic.MAX_DECIMAL_EXPONENT + 1}"
        for values in ('0.5, 0.5, "1/0"', f"{past}, 0, 0", f'"{past}", 0, 0',
                       f'"1e-{harmonic.MAX_DECIMAL_EXPONENT + 1}", 0, 0',
                       "1e400, 0, 0", '"1e400", 0, 0', f"1{'0' * 400}, 0, 0"):
            path = tmp_path / "f.json"
            path.write_text('{"p": 3, "n": 1, "values": [%s]}' % values)
            code, _, err = self._eval(capsys, path)
            assert code == 2 and "error" in err, values

    def test_decimal_within_the_exponent_bound_is_exact(self, capsys, tmp_path):
        tiny = f"1e-{harmonic.MAX_DECIMAL_EXPONENT}"
        path = tmp_path / "f.json"
        path.write_text('{"p": 3, "n": 1, "values": [%s, 0.5, 1]}' % tiny)
        f = harmonic.load_function(str(path))
        assert f.exact[0] == Fraction(1, 10**harmonic.MAX_DECIMAL_EXPONENT)
        code, _, _ = self._eval(capsys, path)
        assert code == 0

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        huge = "1" * 5000
        system = tmp_path / "s.json"
        system.write_text('{"p": 3, "matrix": [[1, 2, %s]]}' % huge)
        code, _, err = run_main(capsys, "eval", "--system", str(system), "--const", "1/2",
                                "--property", "common")
        assert code == 2 and "error" in err
        function = tmp_path / "f.json"
        function.write_text('{"p": 3, "n": %s, "values": [0]}' % huge)
        code, _, err = self._eval(capsys, function)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("field, value", [
        ("p", "3.9"), ("n", "1.5"), ("p", "true"), ("n", "true"), ("p", '"3"'), ("n", '"1"'),
    ])
    def test_size_fields_must_be_integers(self, capsys, tmp_path, field, value):
        document = {"p": "3", "n": "1", "values": "[0.5, 0.5, 0.5]", field: value}
        path = tmp_path / "f.json"
        path.write_text("{%s}" % ", ".join(f'"{k}": {v}' for k, v in document.items()))
        code, _, err = self._eval(capsys, path)
        assert code == 2 and "must be an integer" in err

    def test_unsupported_modulus(self, capsys, tmp_path):
        for p in (0, 1, 2, 4):
            path = tmp_path / "f.json"
            path.write_text(json.dumps({"p": p, "n": 1, "values": [0.5] * max(p, 1)}))
            code, _, err = self._eval(capsys, path)
            assert code == 2 and "supported" in err, p
            path = tmp_path / "f.gfpn"
            path.write_bytes(
                harmonic.GFPN_MAGIC + struct.pack("<III", p, 1, 0) + bytes(8 * max(p, 1))
            )
            code, _, err = self._eval(capsys, path)
            assert code == 2 and "supported" in err, p


class TestFileErrors:
    """A file that cannot be read or written is an input error (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--system", "phi", "--function", "{missing}", "--property", "common"],
        ["eval", "--system", "phi", "--function", "{dir}", "--property", "common"],
        ["verify", "--out", "{missing}"],
        ["eval", "--system", "phi", "--const", "1/2", "--property", "common",
         "--out", "{missing}"],
        ["search", "--system", "a4", "--property", "common", "--restarts", "1",
         "--max-iters", "1", "--save-function", "{missing}"],
    ], ids=["read-missing", "read-directory", "verify-out", "eval-out", "save-function"])
    def test_exits_two_without_a_traceback(self, tmp_path, argv):
        paths = {"missing": tmp_path / "no" / "x.json", "dir": tmp_path}
        proc = subprocess.run(
            [sys.executable, "-m", "commonsys.cli", *(a.format(**paths) for a in argv)],
            capture_output=True, text=True, env=TestProcessLevel.ENV, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


class TestHostileArguments:
    """Argument values that used to end in a traceback (exit 1)."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["scan-alpha", "--system", "phi", "--property", "common", "--alphas", "1/0"], 2),
            (["scan-alpha", "--system", "phi", "--property", "common", "--alphas", "x"], 2),
            (["search", "--system", "phi", "--property", "common", "--seed", "-1"], 2),
            (["search", "--system", "ap3", "--property", "alon", "--l", "-1"], 2),
            (["eval", "--system", "ap3", "--const", "0", "--property", "alon", "--l", "-1",
              "--method", "brute"], 2),
            (["eval", "--system", "ap3", "--const", "1/3", "--property", "alon",
              "--l", str(10**9), "--method", "brute"], 4),
            (["eval", "--system", "ap3", "--const", "1/3", "--property", "alon",
              "--l", "10000", "--method", "brute"], 4),
            # rational flags: out of [0, 1] before a float overflows, and an
            # exponent past the document bound before 10^k is built
            (["eval", "--system", "phi", "--const", "1e400", "--property", "common"], 2),
            (["eval", "--system", "phi", "--const", "1e-1001", "--property", "common"], 2),
            (["search", "--system", "phi", "--property", "common", "--alpha", "1e400"], 2),
            (["search", "--system", "phi", "--property", "common", "--alpha", "1e-1001",
              "--restarts", "1", "--max-iters", "1"], 2),
            (["scan-alpha", "--system", "phi", "--property", "common", "--alphas", "1e400"], 2),
            (["scan-alpha", "--system", "phi", "--property", "common", "--alphas", "1e-1001",
              "--restarts", "1", "--max-iters", "1"], 2),
            (["scan-alpha", "--system", "phi", "--property", "common", "--alphas", "",
              "--restarts", "1", "--max-iters", "1"], 2),
            # n = 0 reaches the coset and character starts from the third restart
            (["search", "--system", "phi", "--property", "common", "--n", "0",
              "--restarts", "4", "--max-iters", "1"], 2),
            (["scan-alpha", "--system", "phi", "--property", "common", "--n", "0",
              "--alphas", "1/2", "--restarts", "4", "--max-iters", "1"], 2),
            (["search", "--system", "phi", "--property", "common", "--max-iters", "-1",
              "--restarts", "1"], 2),
            (["eval", "--system", "phi", "--const", "1/2", "--property", "common",
              "--l", "-3"], 2),
            # a coset coefficient or variable index past the int digit limit
            (["eval", "--system", "phi", "--coset", "1" * 5000 + "x1=1",
              "--property", "common"], 2),
            (["eval", "--system", "phi", "--coset", "x" + "1" * 5000 + "=1",
              "--property", "common"], 2),
            # scan-alpha checks its settings at the grid's first mean, 0,
            # so an input error wins over the grid cap (exit 4)
            (["scan-alpha", "--system", "phi", "--property", "common", "--n", "0",
              "--grid", "100001"], 2),
            (["scan-alpha", "--system", "phi", "--property", "common", "--restarts", "0",
              "--grid", "100001"], 2),
            (["scan-alpha", "--system", "phi", "--property", "geometric",
              "--grid", "100001"], 2),
        ],
    )
    def test_documented_exit(self, capsys, argv, code):
        got, _, err = run_main(capsys, *argv)
        assert got == code and "error" in err

    def test_unprintable_exact_alon_refused_up_front(self, capsys):
        start = time.perf_counter()
        code, out, err = run_main(capsys, "eval", "--system", "ap3", "--const", "1/3",
                                  "--property", "alon", "--l", "2000000", "--method", "brute")
        assert (code, out) == (4, "") and "digits" in err
        assert time.perf_counter() - start < 1.0

    def test_unprintable_exact_alon_at_an_even_mean_refused_after_the_scan(self, capsys):
        # mean 1/4: no bound before the scan, and alpha^l alone passes no cap
        start = time.perf_counter()
        code, out, err = run_main(capsys, "eval", "--system", "phi", "--const", "0.25",
                                  "--property", "alon", "--l", "1000000", "--method", "brute")
        assert (code, out) == (4, "") and "digits" in err
        assert time.perf_counter() - start < 1.0

    def test_exact_alon_at_an_even_mean_and_small_l(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--system", "phi", "--const", "0.25",
                                "--property", "alon", "--l", "3", "--method", "brute")
        # (1/4)^3 / 4^9 + (3/4)^3 3^9 / 4^9 - 2^-11
        assert code == 0 and json.loads(out)["reports"][0]["value"] == "261625/8388608"

    def test_exact_value_beyond_the_print_limit(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"p": 3, "n": 1, "values": [1e-1000, 0.5, 1]}')
        code, _, err = run_main(capsys, "eval", "--system", "phi", "--function", str(path),
                                "--property", "common", "--method", "brute")
        assert code == 4 and "digits" in err

    def test_non_finite_gfpn_values(self, capsys, tmp_path):
        path = tmp_path / "f.gfpn"
        for bad in (float("inf"), float("nan")):
            path.write_bytes(harmonic.GFPN_MAGIC + struct.pack("<III3d", 3, 1, 0, 0.5, bad, 0.5))
            code, _, err = run_main(capsys, "eval", "--system", "phi", "--function", str(path),
                                    "--property", "common")
            assert code == 2 and "finite" in err


def _recheck(document) -> bool:
    """Re-verify a written certificate from its JSON alone."""
    return verify_certificate(Certificate.from_dict(document))


class TestVerifyAndConstants:
    def test_verify_writes_seven_certificates(self, capsys, tmp_path):
        out_path = tmp_path / "certs.json"
        code, out, _ = run_main(capsys, "verify", "--out", str(out_path))
        assert code == 0
        assert out.count("verified:") == 7
        saved = json.loads(out_path.read_text())
        assert len(saved["certificates"]) == 7
        assert all(c["verified"] for c in saved["certificates"])
        assert all(_recheck(c) for c in saved["certificates"])

    def test_constants_ledger(self, capsys, tmp_path):
        out_path = tmp_path / "ledger.json"
        code, out, _ = run_main(capsys, "constants", "--out", str(out_path))
        assert code == 0
        saved = json.loads(out_path.read_text())
        for key in ("c0", "c1", "c2", "c3", "C4", "c5", "c6"):
            assert Fraction(saved[key]) > 0
        assert 1 <= saved["l0"] <= 10**7
        assert all(r["satisfied"] for r in saved["conditions_at_l0"])
        assert all(_recheck(c) for c in saved["certificates"].values())

    def test_written_files_are_pinned(self, capsys, tmp_path):
        # SHA-256 of the files themselves: the certificate and ledger bytes
        # on disk must not move, not only their parsed content
        pins = {
            "verify": "b15f36914d79a3d1cb2c0c7aee2296cb3f9b8fc83ce8a3aa2ffb863a35db1550",
            "constants": "ae6da240a16d563cb4956602d8ac2da0aff99e9fa19807cbd9268e357029f709",
        }
        for subcommand, want in pins.items():
            out_path = tmp_path / f"{subcommand}.json"
            code, _, _ = run_main(capsys, subcommand, "--out", str(out_path))
            assert code == 0
            assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want, subcommand

    @pytest.mark.parametrize("subcommand", ["verify", "constants"])
    def test_c1_derived_once(self, capsys, monkeypatch, subcommand):
        calls = []
        derive_c1 = certify.derive_c1

        def spy():
            calls.append(1)
            return derive_c1()

        monkeypatch.setattr(certify, "derive_c1", spy)
        code, _, _ = run_main(capsys, subcommand)
        assert code == 0
        assert len(calls) == 1

    def test_check_l_below_threshold_fails(self, capsys):
        code, out, _ = run_main(capsys, "constants", "--check-l", "100")
        assert code == 3
        assert "FAIL" in out

    def test_check_l_past_the_float_range(self, capsys):
        # the growth slack passes 1e308 near l = 10^20: shown as inf
        code, out, _ = run_main(capsys, "constants", "--check-l", str(10**20))
        assert code == 0
        assert "growth       slack inf" in out.splitlines()[-1]
        # at 10^200 its exact value passes the int-to-str digit limit
        code, _, err = run_main(capsys, "constants", "--check-l", str(10**200))
        assert code == 4 and "digits" in err


class TestProcessLevel:
    # the child interpreter imports the same package source as this process
    ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def test_console_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "commonsys.cli", "--help"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert proc.returncode == 0
        assert "eval" in proc.stdout and "constants" in proc.stdout

    def test_bad_property_exits_two(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "commonsys.cli",
                "eval", "--system", "phi", "--const", "0.5",
                "--property", "bogus",
            ],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert proc.returncode == 2

    def _fresh(self, script: str) -> str:
        """stdout of `script` run in a fresh interpreter on this package."""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=self.ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("argv", [
        ["verify"], ["constants"], ["--version"], ["--help"],
        ["search", "--system", "phi", "--property", "bogus"],
        ["search", "--system", "phi", "--alpha", "1/3", "--property", "bogus"],
    ])
    def test_exact_half_and_usage_start_without_numpy(self, argv):
        out = self._fresh(
            "import contextlib, io, sys\n"
            "from commonsys import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    try: cli.main({argv!r})\n"
            "    except SystemExit: pass\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.split() == ["False"]

    PUBLIC = (
        "AlgebraicNumber Certificate ConstantLedger DefectReport ExactPoly GroupFunction "
        "LinearSystem SearchConfig SearchResult SparsePoly Spectrum add_free_variables "
        "alon_witness an_sign defect derive_all dft factor_disjoint isolate_positive_root "
        "minimize_defect parse_system preset project_box_mean scan_alpha spectral_sup "
        "sturm_sign_on_interval subdivision_positive_on_box t_brute t_fourier t_gradient "
        "verify_certificate verify_lemma_suite"
    ).split()

    def test_package_surface_is_lazy(self):
        out = self._fresh(
            "import sys\n"
            "import commonsys\n"
            "print('numpy' in sys.modules)\n"
            "print(' '.join(commonsys.__all__))\n"
            "for name in commonsys.__all__[1:]:\n"
            "    value = getattr(commonsys, name)\n"
            "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
            "namespace = {}\n"
            "exec('from commonsys import *', namespace)\n"
            "for name in commonsys.__all__:\n"
            "    assert namespace[name] is getattr(commonsys, name), name\n"
            "try:\n"
            "    commonsys.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print('no_such_name' in str(exc))\n"
        )
        unloaded, public, refused = out.splitlines()
        assert (unloaded, refused) == ("False", "True")
        assert public.split() == ["__version__", *self.PUBLIC]

    def test_dir_lists_every_public_name_before_any_is_loaded(self):
        out = self._fresh(
            "import commonsys\n"
            "names = dir(commonsys)\n"
            "print(all(name in names for name in commonsys.__all__))\n"
            "print(sorted(set(commonsys.__all__) & set(vars(commonsys))))\n"
        )
        assert out.split("\n")[:2] == ["True", "['__version__']"]


# ---------------------------------------------------------------------------
# Fuzzed documents and argument combinations

_VALUES = st.one_of(
    st.floats(-0.5, 1.5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**30), 10**30),
    st.sampled_from(["1/3", "1/0", "1e400", "1e-1000", "1e-1001", "0x1", "", "nan", "2/4"]),
    st.booleans(),
    st.none(),
)
_MODULI = st.one_of(st.sampled_from([3, 5, 7]), st.integers(-3, 12))


@st.composite
def _function_document(draw):
    """(document bytes, the n its header gives)"""
    p = draw(_MODULI)
    n = draw(st.one_of(st.integers(-2, 1), st.just(GIANT_N)))
    size = p**n if 0 < p and 0 <= n <= 1 else 1
    kind = draw(st.sampled_from(["json", "gfpn", "bytes"]))
    if kind == "json":
        values = draw(st.one_of(st.lists(_VALUES, min_size=size, max_size=size),
                                st.lists(_VALUES, max_size=12)))
        doc = draw(st.sampled_from([{"p": p, "n": n, "values": values},
                                    {"p": p, "values": values}, [p, n, values]]))
        return json.dumps(doc).encode(), n
    if kind == "gfpn":
        count = draw(st.sampled_from([size, 0, size + 1]))
        body = draw(st.lists(st.floats(allow_nan=True), min_size=count, max_size=count))
        header = struct.pack("<III", p % 2**32, n % 2**32, draw(st.integers(0, 2**32 - 1)))
        return harmonic.GFPN_MAGIC + header + struct.pack(f"<{count}d", *body), n
    return draw(st.binary(max_size=40)), None


@st.composite
def _system_argument(draw, tmp):
    pick = draw(st.integers(0, 9))
    if pick < 6:
        return draw(st.sampled_from(["phi", "a4", "a5", "ap3", "schur"]))
    if pick == 9:
        return draw(st.sampled_from(["bogus", str(tmp)]))
    doc = draw(st.one_of(
        st.fixed_dictionaries({
            "p": _MODULI,
            "matrix": st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
                               min_size=1, max_size=3),
        }),
        st.fixed_dictionaries({"p": _MODULI, "matrix": st.sampled_from(["x", [], [[]], [[1, "a"]]])}),
    ))
    path = tmp / "system.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _flag(draw, name, valid, hostile=(), optional=True):
    """Leave an optional flag out (1 in 5), give it a hostile value (1 in
    10), or a valid one."""
    pick = draw(st.integers(0, 9))
    if pick < 2 and optional:
        return []
    pool = hostile if pick == 9 and hostile else valid
    return [name, draw(st.sampled_from(pool))]


@st.composite
def _argv(draw, tmp):
    """(argv, whether the dimension it runs at is GIANT_N)"""
    sub = draw(st.sampled_from(["eval", "search", "scan-alpha"]))
    argv = [sub, "--system", draw(_system_argument(tmp))]
    argv += _flag(draw, "--p", ["3", "5", "7"], ["2", "4", "0", "x"])
    argv += _flag(draw, "--n", ["1", "2"], ["-1", "0", "x", str(GIANT_N)])
    giant = str(GIANT_N) in argv
    argv += _flag(draw, "--property", list(counting.PROPERTIES), ["bogus"], optional=False)
    argv += _flag(draw, "--l", ["1", "3"], ["-1", "0", str(10**9), "x"])
    if sub == "eval":
        source = draw(st.sampled_from(["--const", "--coset", "--function", "two"]))
        if source in ("--const", "two"):
            argv += _flag(draw, "--const", ["0.5", "1/3", "0", "1"],
                          ["2", "-1", "1/0", "x", "1e400", "1e-1001"], optional=False)
        if source in ("--coset", "two"):
            argv += _flag(draw, "--coset", ["x1=1", "x1+2x2=2"], ["x9=0", "=1", "x1", "y"],
                          optional=False)
        if source == "--function":
            path = tmp / draw(st.sampled_from(["f.json", "f.gfpn"]))
            blob, n = draw(_function_document())
            path.write_bytes(blob)
            argv += ["--function", str(path)]
            giant = n == GIANT_N
        argv += _flag(draw, "--method", ["fourier", "brute", "both"], ["bogus"])
    else:
        argv += _flag(draw, "--restarts", ["1", "2", "4"], ["-1", "0"])
        argv += _flag(draw, "--max-iters", ["0", "1", "3"], ["-2", "x"])
        argv += _flag(draw, "--seed", ["0", "7"], ["-1", "x"])
        if sub == "search":
            argv += _flag(draw, "--alpha", ["0.5", "1/3", "0", "1"],
                          ["2", "-1", "1/0", "x", "1e400", "1e-1001"])
        else:
            argv += _flag(draw, "--grid", ["3"], ["2", "x"])
            argv += _flag(draw, "--alphas", ["0.5", "1/3,1/2", "0,1"],
                          ["2", "1/0", "x", "1e400", "1e-1001"])
    return argv, giant


def _affordable(argv) -> bool:
    """Leave out valid runs that are merely slow: exact counting at n = 2
    (phi enumerates 9^7 kernel points) and searches with default budgets."""
    def value(name):
        return argv[argv.index(name) + 1] if name in argv else None

    if argv[0] == "eval":
        return value("--method") in (None, "fourier", "bogus") or value("--n") != "2"
    return value("--restarts") is not None and value("--max-iters") is not None


class TestFuzzedInputs:
    """Any document or argument combination ends in a documented exit code,
    never a traceback, and a giant n is refused before p^n is formed."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes(self, data, tmp_path, capsys):
        argv, giant = data.draw(_argv(tmp_path))
        assume(_affordable(argv))
        code, peak = _run_traced(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if giant:
            assert peak < 1 << 20, (argv, peak)
