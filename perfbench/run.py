"""Benchmark for commonsys: drives `commonsys.cli.main(argv)` in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload search-small --seed 1 --seconds 30 --trace 0

One caller runs the workload's cycle of ops in a closed loop until the
time budget is used, checks every op's output against an independent
oracle and against the first run of the same argv (byte for byte), and
prints one JSON result as the last line of stdout.  `--trace 0` reports
the end-to-end metrics, timing every op on the program against the same
op on a frozen control copy of the package (`control/`), run back to back;
`--trace 1` alternates untraced cycles with traced
cycles that wrap the package's functions, and reports per-layer metrics
per traced cycle.  Spans of the latest traced run of each workload are
written to `.bench_out/`.  Exits 2 without a
result when the checkout has no `src/commonsys`.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported (also inherited by
# the set-up subprocesses)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative, so op outputs do not name the checkout
SETUP_REPEATS = 3  # pairs before and again after the timed loop, so the median spans the run
# A frozen copy of the package as it was when this benchmark was defined.
# Every timed op also runs on it, right before or after the program's run
# of the same op, so that `cycle_ratio` compares the two on the same
# stretch of a shared machine whose speed drifts.
CONTROL = Path(__file__).resolve().parent / "control"
# Typical start-up time of the control copy (`python -m commonsys_control.cli
# --version`) on the machine the trajectory was recorded on (2-vCPU x86-64
# VM, Python 3.11, numpy 2.4; run medians of 0.26-0.35 s).  `setup_s` is
# the program's start-up time relative to the control's, in seconds at
# that speed.
CONTROL_SETUP_S = 0.30

OPS = ("search", "search_violation", "scan", "eval_exact", "eval_fourier", "verify", "constants")
LAYER_FUNCTIONS = (
    "counting.t_fourier",
    "counting.t_gradient",
    "counting.t_brute",
    "harmonic.dft",
    "harmonic.idft_complex",
    "harmonic.load_function",
    "optimize.project",
    "certify.verify_lemma_suite",
    "certify.derive_all",
    "exactpoly.verify_certificate",
    "exactpoly.sturm_sign_on_interval",
    "exactpoly.subdivision_positive_on_box",
)


class Run:
    """Counts, timings and reference outputs of one benchmark run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[int, tuple] = {}  # op index -> (stdout, file bytes)
        self.discrepancy = 0.0

    def invoke(self, argv, cli=None):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = (cli or self.cli).main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an op that crashes is a failed op; keep measuring
                code = "exception:\n" + traceback.format_exc()
        return code, time.perf_counter() - start, out.getvalue(), err.getvalue()

    def execute(self, index: int, op, check: bool, times: dict) -> float:
        """Run one op, record its time in `times` and its outcome; returns its wall time."""
        code, elapsed, stdout, stderr = self.invoke(op.argv)
        self.attempted += 1
        times.setdefault(op.name, []).append(elapsed)
        produced = (stdout, tuple(_read_bytes(f) for f in op.files))
        reason = None
        if code != 0:
            reason = f"exit {code}: {stderr.strip()[-500:]}"
        elif index not in self.reference:
            self.reference[index] = produced
        elif produced != self.reference[index]:
            reason = "output differs from the first run of the same argv"
        if reason is None and check:
            try:
                reason = op.check(stdout)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"unexpected output: {exc!r}"
            if reason is None and op.name == "eval_exact":
                self.discrepancy = max(self.discrepancy, json.loads(stdout)["discrepancy"])
        if reason:
            self.failures.append(f"{op.name} {' '.join(op.argv)}: {reason}")
        return elapsed

    def cycle(self, ops, times: dict, check: bool, before_op=None) -> float:
        """One pass over the workload's ops; returns the sum of their wall times."""
        total = 0.0
        for index, op in enumerate(ops):
            if before_op:
                before_op()
            total += self.execute(index, op, check, times)
        return total

    def control_op(self, control_cli, op, times: dict) -> float:
        """Run one op on the control copy; returns its wall time."""
        code, elapsed, _, stderr = self.invoke(op.argv, control_cli)
        times.setdefault(op.name, []).append(elapsed)
        if code != 0:
            self.failures.append(f"control {op.name}: exit {code}: {stderr.strip()[-500:]}")
        return elapsed

    def paired_cycle(self, ops, control_cli, control_ops, times, control_times, program_first):
        """One pass in which every op runs on the program and on the control
        copy back to back; returns (program wall time, control wall time)."""
        program = control = 0.0
        for index, (op, twin) in enumerate(zip(ops, control_ops)):
            if program_first:
                program += self.execute(index, op, True, times)
                control += self.control_op(control_cli, twin, control_times)
            else:
                control += self.control_op(control_cli, twin, control_times)
                program += self.execute(index, op, True, times)
        return program, control


def closed_loop(seconds: float, min_passes: int, one_pass) -> None:
    """Call `one_pass` until the next call would likely overrun `seconds`."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            return


def _read_bytes(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def start_interpreter(package: str, path: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a fresh interpreter running `<package>.cli --version`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(path), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", f"{package}.cli", "--version"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    return time.perf_counter() - start, proc


def measure_setup(run: Run, version: str, repeats: int) -> list[tuple[float, float]]:
    """(program, control) start-up times, the two taking turns to go first."""
    pairs = []
    for i in range(repeats):
        if i % 2 == 0:
            program, proc = start_interpreter("commonsys", SRC)
            control, control_proc = start_interpreter("commonsys_control", CONTROL)
        else:
            control, control_proc = start_interpreter("commonsys_control", CONTROL)
            program, proc = start_interpreter("commonsys", SRC)
        pairs.append((program, control))
        run.attempted += 1
        if proc.returncode != 0 or proc.stdout.strip() != f"commonsys {version}":
            run.failures.append(f"setup: exit {proc.returncode}, stdout {proc.stdout!r}")
        if control_proc.returncode != 0:
            run.failures.append(f"control setup: exit {control_proc.returncode}")
    return pairs


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "commonsys").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def op_summary(times: dict[str, list[float]]) -> dict:
    """Per op kind: sample count, median, and the largest sample (the
    highest percentile a sample this small supports)."""
    return {
        name: {"n": len(v), "median_s": statistics.median(v), "max_s": max(v)}
        for name, v in times.items()
    }


def per_layer_metrics(run: Run, tracer, untraced_times, traced_cycles, untraced_cycles) -> dict:
    k = len(traced_cycles)
    m = {}
    for name in OPS:
        samples = untraced_times.get(name)
        m[f"op.{name}_s"] = (statistics.median(samples), "s") if samples else (0.0, "s")
    for layer in ("cli",) + spans.LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer) / k, "s")
    for fn in LAYER_FUNCTIONS:
        m[f"{fn}.calls"] = (tracer.calls(fn) / k, "count")
        m[f"{fn}.self_s"] = (tracer.self_s(fn) / k, "s")
        m[f"{fn}.us_per_call"] = (tracer.us_per_call(fn), "us")
    m["counting.discrepancy"] = (run.discrepancy, "abs")
    restarts = tracer.calls("optimize.run_restart")
    values = tracer.calls("optimize.value")
    line_search = values - restarts - tracer.calls("optimize.minimize_defect")
    m["optimize.restarts"] = (restarts / k, "count")
    m["optimize.steps_accepted"] = (tracer.steps_accepted / k, "count")
    m["optimize.value_calls"] = (values / k, "count")
    m["optimize.gradient_calls"] = (tracer.calls("optimize.gradient") / k, "count")
    m["optimize.accept_ratio"] = (
        tracer.steps_accepted / line_search if line_search > 0 else 0.0, "ratio"
    )
    overhead = statistics.median(traced_cycles) / statistics.median(untraced_cycles) - 1.0
    m["trace.overhead"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commonsys" / "cli.py").is_file():
        print(f"no package source at {SRC / 'commonsys'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from commonsys import __version__, cli
    import commonsys

    if Path(commonsys.__file__).resolve().parent != (SRC / "commonsys").resolve():
        print(f"imported commonsys from {commonsys.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**32
    ops, warmup = workloads.WORKLOADS[args.workload](seed, work)
    run = Run(cli)
    setup = [] if args.trace else measure_setup(run, __version__, SETUP_REPEATS)
    for argv in warmup:
        run.invoke(argv)
    if not args.trace:
        sys.path.insert(0, str(CONTROL))
        from commonsys_control import cli as control_cli

        control_work = OUT / "control-work"
        control_work.mkdir(parents=True, exist_ok=True)
        control_ops, control_warmup = workloads.WORKLOADS[args.workload](seed, control_work)
        for argv in control_warmup:
            run.invoke(argv, control_cli)

    info = {"workload": args.workload, "seed": args.seed, "environment": environment()}
    if args.trace:
        # untraced and traced cycles alternate, so the overhead compares
        # cycles run close together in time
        tracer = spans.Tracer()
        untraced, traced = [], []
        untraced_times, traced_times = {}, {}

        def one_pass():
            if len(untraced) <= len(traced):
                untraced.append(run.cycle(ops, untraced_times, check=True))
                return
            tracer.install()
            try:
                traced.append(run.cycle(ops, traced_times, check=False, before_op=tracer.next_op))
            finally:
                tracer.uninstall()

        closed_loop(args.seconds, 2, one_pass)
        metrics = per_layer_metrics(run, tracer, untraced_times, traced, untraced)
        span_file = OUT / f"spans-{args.workload}.json"
        tracer.dump(span_file)
        info.update(untraced_ops=op_summary(untraced_times), traced_ops=op_summary(traced_times),
                    traced_cycles=len(traced), spans=len(tracer.spans), span_file=str(span_file))
    else:
        # the program and the control copy alternate which runs an op first
        cycles, times, control_times = [], {}, {}
        closed_loop(args.seconds, 2, lambda: cycles.append(run.paired_cycle(
            ops, control_cli, control_ops, times, control_times, len(cycles) % 2 == 0)))
        setup += measure_setup(run, __version__, SETUP_REPEATS)
        metrics = {
            "cycle_ratio": (statistics.median(p / c for p, c in cycles), "ratio"),
            "setup_s": (statistics.median(p / c for p, c in setup) * CONTROL_SETUP_S, "s"),
        }
        info.update(cycles=len(cycles), cycle_s=[p for p, _ in cycles],
                    control_cycle_s=[c for _, c in cycles], setup_s=[p for p, _ in setup],
                    control_setup_s=[c for _, c in setup],
                    ops=op_summary(times), control_ops=op_summary(control_times))
    info["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info["failures"] = run.failures
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
