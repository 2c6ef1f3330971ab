"""In-memory span tracer that wraps the package's functions from outside.

`Tracer.install` replaces every public module-level function of the layer
modules (plus a few private names the optimizer calls) with a wrapper that
records a span: id, parent span, op number, name, start and end in
nanoseconds.  Every module attribute that refers to the same function
object is replaced, so names imported with `from .x import f` are traced
too.  `uninstall` restores the originals.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "commonsys"
LAYERS = ("linsys", "harmonic", "counting", "optimize", "qsqrt2", "exactpoly", "certify")

# private names whose work the per-layer metrics report by name
EXTRA = {
    ("optimize", "_project_values"): "optimize.project",
    ("optimize", "_run_restart"): "optimize.run_restart",
    ("optimize", "_Objective.value"): "optimize.value",
    ("optimize", "_Objective.gradient"): "optimize.gradient",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns)
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive_ns, self_ns]
        self.steps_accepted = 0
        self.op = 0
        self._stack: list[list] = []  # [id, child_ns]
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- spans ---------------------------------------------------------------

    def next_op(self) -> None:
        """Start a new op: spans recorded from here on share its number."""
        self.op += 1

    def wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        stats = self.stats.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns
        record_steps = name == "optimize.minimize_defect"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                spans.append((span_id, parent, self.op, name, start, end))
            if record_steps:
                self.steps_accepted += result.iterations
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS + ("cli",)
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for (layer, dotted), name in EXTRA.items():
            owner = modules[layer]
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if inspect.isclass(owner):
                self._patch(owner, attr, self.wrap(name, original))
            else:
                wrappers[id(original)] = self.wrap(name, original)
        wrappers[id(modules["cli"].main)] = self.wrap("cli.main", modules["cli"].main)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == PACKAGE]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def us_per_call(self, name: str) -> float:
        calls, inclusive, _ = self.stats.get(name, [0, 0, 0])
        return inclusive / calls / 1e3 if calls else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix)) / 1e9

    def dump(self, path) -> None:
        """Write per-name totals and every span as one JSON document; span
        names are stored as indices into `names`."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "stats": {
                        n: {"calls": c, "inclusive_s": t / 1e9, "self_s": st / 1e9}
                        for n, (c, t, st) in sorted(self.stats.items())
                    },
                    "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                    "names": names,
                    "spans": [
                        [s[0], s[1], s[2], index[s[3]], s[4], s[5]] for s in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
