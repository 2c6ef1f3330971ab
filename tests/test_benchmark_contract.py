"""The benchmark's span tracer (perfbench/spans.py) wraps private package
names by string.  A rename must fail here, not in a traced benchmark run.
The tracer source is only read, never imported as a package module, so
nothing is written under perfbench/."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from commonsys import cli, linsys, optimize  # noqa: F401  (cli, optimize: all seven layers)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
RUN = SPANS.with_name("run.py")
# names the benchmark still lists after the function was deleted
STALE_LAYER_FUNCTIONS = {"harmonic.idft_complex"}


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def _resolve(layer: str, dotted: str):
    owner = sys.modules[f"commonsys.{layer}"]
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_and_restores_every_extra_name():
    spans = _load_spans()
    originals = {key: _resolve(*key) for key in spans.EXTRA}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            assert _resolve(*key) is not original, key
        cfg = optimize.SearchConfig(property="common", p=3, n=1, mean=0.5, restarts=2,
                                    max_iters=3, seed=1)
        optimize.minimize_defect(linsys.preset("phi"), cfg)
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert _resolve(*key) is original, key
    # a search reaches every wrapped name, so no per-layer metric reads 0
    for name in list(spans.EXTRA.values()) + ["optimize.minimize_defect"]:
        assert tracer.calls(name) > 0, name


@pytest.mark.parametrize("argv", [
    ["eval", "--system", "phi", "--const", "0.5", "--property", "common"],
    ["search", "--system", "phi", "--property", "common", "--restarts", "1", "--max-iters", "2"],
])
def test_one_numeric_subcommand_loads_every_traced_layer(argv):
    """`Tracer.install` reads every layer from sys.modules before the first
    traced cycle, which may run nothing but eval or search: in a fresh
    interpreter, one of them through `cli.main` must load all seven."""
    layers = [f"commonsys.{layer}" for layer in _load_spans().LAYERS]
    script = (
        "import contextlib, io, sys\n"
        "from commonsys import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"print([name for name in {layers!r} if name not in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_layer_function_is_traced():
    """Each name of run.py's LAYER_FUNCTIONS is a public function of its
    layer, which the tracer wraps, or a span name of spans.EXTRA; else its
    per-layer metrics read 0.  run.py is parsed, never imported."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    (names,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]]
    extra = set(_load_spans().EXTRA.values())
    untraced = set()
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"commonsys.{layer}")
        fn = getattr(module, attr, None)
        public = (not attr.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__)
        if not public and name not in extra:
            untraced.add(name)
    assert "counting.t_brute" in names
    assert untraced == STALE_LAYER_FUNCTIONS
