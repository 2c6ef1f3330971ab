import json
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from commonsys import cli, harmonic


def run_main(capsys, *argv):
    code = cli.main(list(argv))
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


class TestOversizedDimension:
    """A huge n is refused with the size-cap exit before p^n is formed."""

    BIG_N = 10**6

    def test_json_function_document(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"p": 3, "n": self.BIG_N, "values": [0.5]}))
        code, _, err = run_main(
            capsys, "eval", "--system", "phi", "--function", str(path), "--property", "common"
        )
        assert code == 4 and "exceeds" in err

    def test_gfpn_header(self, capsys, tmp_path):
        path = tmp_path / "f.gfpn"
        path.write_bytes(harmonic.GFPN_MAGIC + struct.pack("<III", 3, self.BIG_N, 0) + bytes(8))
        code, _, err = run_main(
            capsys, "eval", "--system", "phi", "--function", str(path), "--property", "common"
        )
        assert code == 4 and "exceeds" in err

    def test_constant(self, capsys):
        code, _, err = run_main(
            capsys, "eval", "--system", "phi", "--const", "0.5", "--n", str(self.BIG_N),
            "--property", "common",
        )
        assert code == 4 and "exceeds" in err

    def test_coset(self, capsys):
        code, _, err = run_main(
            capsys, "eval", "--system", "phi", "--coset", "x1=1", "--n", str(self.BIG_N),
            "--property", "common",
        )
        assert code == 4 and "exceeds" in err

    def test_search(self, capsys):
        code, _, err = run_main(
            capsys, "search", "--system", "phi", "--n", str(self.BIG_N), "--property", "common",
        )
        assert code == 4 and "exceeds" in err


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


class TestVerifyAndConstants:
    def test_verify_writes_seven_certificates(self, capsys, tmp_path):
        out_path = tmp_path / "certs.json"
        code, out, _ = run_main(capsys, "verify", "--out", str(out_path))
        assert code == 0
        assert out.count("verified:") == 7
        saved = json.loads(out_path.read_text())
        assert len(saved["certificates"]) == 7
        assert all(c["verified"] for c in saved["certificates"])

    def test_constants_ledger(self, capsys, tmp_path):
        out_path = tmp_path / "ledger.json"
        code, out, _ = run_main(capsys, "constants", "--out", str(out_path))
        assert code == 0
        saved = json.loads(out_path.read_text())
        for key in ("c0", "c1", "c2", "c3", "C4", "c5", "c6"):
            assert Fraction(saved[key]) > 0
        assert 1 <= saved["l0"] <= 10**7
        assert all(r["satisfied"] for r in saved["conditions_at_l0"])

    def test_check_l_below_threshold_fails(self, capsys):
        code, out, _ = run_main(capsys, "constants", "--check-l", "100")
        assert code == 3
        assert "FAIL" in out


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
