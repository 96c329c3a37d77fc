"""In-process traced pass over the gtyang CLI, for the per-layer metrics.

The wrappers are installed only here, for the length of one pass, around the
public functions of each gtyang module. Every binding of a target is patched:
the defining module or class, each gtyang module that imported the name (for
example ``gtyang.modes.amplitude_E`` as well as
``gtyang.amplitudes.amplitude_E``) and dict tables such as
``gtyang.cli.COMMANDS``. Spans are kept in memory with their parent ids and
written out when the pass ends. A layer's self time is the duration of its
spans minus the part covered by their child spans; time spent by the
counting hooks below is taken out of every span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import traceback
from array import array
from collections import Counter

# layer -> "module:qualname" targets. The time metric of a layer is
# "<layer>.s" ("cli.self_s" for the command layer) and its call count
# "<layer>.calls".
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg.mul": ("gtyang.linalg:RationalMatrix.__mul__",),
    "linalg.elementwise": (
        "gtyang.linalg:RationalMatrix.__add__",
        "gtyang.linalg:RationalMatrix.__sub__",
        "gtyang.linalg:RationalMatrix.scaled",
        "gtyang.linalg:RationalMatrix.max_abs",
    ),
    "linalg.kernel": ("gtyang.linalg:kernel_basis", "gtyang.linalg:rank"),
    "crystal.fixed_point": ("gtyang.crystal:fixed_point_matrices",),
    "localization.complex": (
        "gtyang.localization:DeformationComplex.__init__",
        "gtyang.localization:DeformationComplex.kernel_sector",
        "gtyang.localization:DeformationComplex.gauge_rank_sector",
        "gtyang.localization:DeformationComplex.gauge_injective",
    ),
    "localization.incidence": ("gtyang.localization:incidence_tangent_graded",),
    "localization.tangent": (
        "gtyang.localization:tangent_graded",
        "gtyang.localization:amplitudes_via_localization",
    ),
    "rational.make": ("gtyang.rational:FactoredRatFunc.make",),
    "rational.series": ("gtyang.rational:FactoredRatFunc.series_at_infinity",),
    "amplitudes.psi_closed": ("gtyang.amplitudes:psi_closed_form",),
    "amplitudes.psi_generic": ("gtyang.amplitudes:psi_generic",),
    "amplitudes.amp": ("gtyang.amplitudes:amplitude_E", "gtyang.amplitudes:amplitude_F"),
    "patterns.enumerate": ("gtyang.patterns:enumerate_patterns",),
    "modes.build": ("gtyang.modes:build_mode_operators",),
    "modes.relations": ("gtyang.modes:verify_mode_relations",),
    "modes.serre": ("gtyang.modes:verify_serre",),
    "modes.scalar_suites": (
        "gtyang.modes:verify_constraints",
        "gtyang.modes:verify_hysteresis",
        "gtyang.modes:verify_pole_classification",
        "gtyang.modes:verify_dual_routes",
        "gtyang.modes:verify_gelfand",
    ),
    "modes.localization": ("gtyang.modes:verify_localization",),
    "cli": (
        "gtyang.cli:cmd_dims",
        "gtyang.cli:cmd_states",
        "gtyang.cli:cmd_psi",
        "gtyang.cli:cmd_amplitudes",
        "gtyang.cli:cmd_modes",
        "gtyang.cli:cmd_verify",
    ),
}

# Self time of the root span of each invocation: argparse and any code
# outside the wrapped functions.
ROOT_LAYER = "trace.unattributed"


def time_metric(layer: str) -> str:
    return "cli.self_s" if layer == "cli" else f"{layer}.s"


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("reuse"):
        return "ratio"
    return "count"


def _count_product(tracer, args, kwargs, result) -> None:
    a, b = args
    if not isinstance(b, type(a)):
        return
    tracer.counts["linalg.mul.dense_cells"] += a.rows * a.cols * b.cols
    col_nonzeros = [0] * a.cols
    for row in a.entries:
        for k, x in enumerate(row):
            if x:
                col_nonzeros[k] += 1
    tracer.counts["linalg.mul.useful"] += sum(
        c * sum(1 for x in row if x) for c, row in zip(col_nonzeros, b.entries)
    )


def _count_complex(tracer, args, kwargs, result) -> None:
    tracer.counts["localization.complex.builds"] += 1
    tracer.distinct["localization.complex"].add(args[1].pattern)


def _count_fixed_point(tracer, args, kwargs, result) -> None:
    all_framings = kwargs.get("all_framings", args[2] if len(args) > 2 else False)
    tracer.distinct["crystal.fixed_point"].add((args[0], all_framings))


def _count_uncalibrated(tracer, args, kwargs, result) -> None:
    tracer.counts["localization.uncalibrated"] += sum(
        1 for r in result if r.relation_id == "localization-uncalibrated"
    )


HOOKS = {
    "gtyang.linalg:RationalMatrix.__mul__": _count_product,
    "gtyang.localization:DeformationComplex.__init__": _count_complex,
    "gtyang.crystal:fixed_point_matrices": _count_fixed_point,
    "gtyang.modes:verify_localization": _count_uncalibrated,
}


class Tracer:
    """Spans as parallel arrays: parent span id, layer id, start, end."""

    def __init__(self):
        self.layers = [ROOT_LAYER, *LAYERS]
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.paused = 0.0
        self.counts = Counter()
        self.distinct = {"localization.complex": set(), "crystal.fixed_point": set()}

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def open(self, layer_id: int) -> int:
        span = len(self.start)
        self.parent.append(self.stack[-1])
        self.layer.append(layer_id)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.end[span] = self.clock()
        self.stack.pop()

    def wrap(self, layer_id: int, func, hook):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(layer_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                t0 = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer.paused += time.perf_counter() - t0
            return result

        return traced


class Patches:
    """Installs wrappers on every binding of each target and undoes them."""

    def __init__(self):
        self.undo: list[tuple] = []

    def install(self, tracer: Tracer) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gtyang"]
        for layer_id, targets in enumerate(LAYERS.values(), start=1):
            for target in targets:
                module_name, qualname = target.split(":")
                owner = sys.modules[module_name]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                traced = tracer.wrap(layer_id, func, HOOKS.get(target))
                if path:
                    new = staticmethod(traced) if isinstance(raw, staticmethod) else traced
                    self._set(owner, attr, new)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is func:
                            self._set(module, name, traced)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is func:
                                    self.undo.append((value.__setitem__, key, item))
                                    value[key] = traced

    def _set(self, owner, attr, new) -> None:
        self.undo.append((functools.partial(setattr, owner), attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for setter, key, old in reversed(self.undo):
            setter(key, old)
        self.undo.clear()


class TracedPass:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.outputs: list[tuple[tuple[str, ...], int, bytes]] = []
        self.invocations: list[dict] = []
        self.metrics: dict[str, float] = {}

    def self_times(self) -> list[float]:
        t = self.tracer
        own = [e - s for s, e in zip(t.start, t.end)]
        for span, parent in enumerate(t.parent):
            if parent >= 0:
                own[parent] -= t.end[span] - t.start[span]
        return own

    def summarize(self, wall: float) -> None:
        t = self.tracer
        self_time = Counter()
        calls = Counter()
        for layer_id, own in zip(t.layer, self.self_times()):
            self_time[layer_id] += own
            calls[layer_id] += 1
        m = self.metrics
        for layer_id, layer in enumerate(t.layers[1:], start=1):
            m[time_metric(layer)] = self_time[layer_id]
            m[f"{layer}.calls"] = calls[layer_id]
        cells = t.counts["linalg.mul.dense_cells"]
        builds = t.counts["localization.complex.builds"]
        fixed = m["crystal.fixed_point.calls"]
        m["linalg.mul.dense_cells"] = cells
        m["linalg.mul.useful_ratio"] = t.counts["linalg.mul.useful"] / cells if cells else 0.0
        m["localization.complex.builds"] = builds
        m["localization.complex.reuse"] = (
            sum(i["complex_patterns"] for i in self.invocations) / builds if builds else 0.0
        )
        m["localization.uncalibrated"] = t.counts["localization.uncalibrated"]
        m["crystal.fixed_point.reuse"] = (
            sum(i["fixed_point_patterns"] for i in self.invocations) / fixed if fixed else 0.0
        )
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = self_time[0]

    def breakdown(self) -> list[str]:
        lines = []
        for inv in self.invocations:
            counts = " ".join(f"{k}={v}" for k, v in sorted(inv["counts"].items()) if v)
            lines.append(
                f"traced {inv['wall']:9.3f} s  {inv['argv']}  "
                f"complex_patterns={inv['complex_patterns']} "
                f"fixed_point_patterns={inv['fixed_point_patterns']} {counts}"
            )
        return lines

    def write_spans(self, path: str) -> None:
        t = self.tracer
        with open(path, "w") as handle:
            json.dump(
                {
                    "layers": t.layers,
                    "invocations": self.invocations,
                    "parent": t.parent.tolist(),
                    "layer": t.layer.tolist(),
                    "start": t.start.tolist(),
                    "end": t.end.tolist(),
                },
                handle,
            )


def traced_pass(argvs, epsilon: str, src: str) -> TracedPass:
    """Run each CLI argv once in this process under the tracer."""
    if src not in sys.path:
        sys.path.insert(0, src)
    for module_name in sorted({t.split(":")[0] for targets in LAYERS.values() for t in targets}):
        importlib.import_module(module_name)
    cli = sys.modules["gtyang.cli"]

    tracer = Tracer()
    result = TracedPass(tracer)
    patches = Patches()
    patches.install(tracer)
    wall = 0.0
    try:
        for args in argvs:
            argv = [*args, "--epsilon", epsilon]
            before = Counter(tracer.counts)
            for seen in tracer.distinct.values():
                seen.clear()
            stdout = io.StringIO()
            start = time.perf_counter()
            root = tracer.open(0)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    exit_code = cli.run_cli(argv)
                except Exception:
                    traceback.print_exc(file=sys.__stderr__)
                    exit_code = 1
            tracer.close(root)
            elapsed = time.perf_counter() - start
            wall += elapsed
            result.outputs.append((tuple(args), exit_code, stdout.getvalue().encode("utf-8")))
            counts = Counter(tracer.counts)
            counts.subtract(before)
            result.invocations.append(
                {
                    "argv": " ".join(argv),
                    "wall": elapsed,
                    "first_span": root,
                    "end_span": len(tracer.start),
                    "complex_patterns": len(tracer.distinct["localization.complex"]),
                    "fixed_point_patterns": len(tracer.distinct["crystal.fixed_point"]),
                    "counts": dict(counts),
                }
            )
    finally:
        patches.remove()
    result.summarize(wall)
    return result
