"""The traced benchmark pass wraps the functions named in ``LAYERS`` of
``bench/tracing.py``; a rename in ``src``, or a change that makes the traced
pass print something else than the plain CLI, must fail here, not in the
bench."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from gtyang.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers() -> dict:
    return _tracing().LAYERS


@pytest.mark.parametrize(
    "target", sorted({t for targets in _layers().values() for t in targets})
)
def test_layer_target_resolves(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


GRID = ("--n", "3", "--p", "1", "--lambda", "2")

# the command shapes of the three benchmark workloads, on a tiny grid
WORKLOAD_SHAPES = (
    ("verify", "--suite", "modes", "--mode-cutoff", "3", *GRID, "--format", "csv"),
    ("verify", "--suite", "serre", *GRID, "--format", "csv"),
    ("verify", "--suite", "localization", *GRID, "--format", "csv"),
    ("verify", "--suite", "hysteresis", *GRID, "--format", "csv"),
    ("verify", "--suite", "gelfand", *GRID, "--format", "csv"),
    ("verify", "--suite", "constraints", *GRID, "--format", "csv"),
    ("psi", *GRID),
    ("amplitudes", "--format", "csv", *GRID),
)


def test_traced_pass_matches_untraced_cli():
    result = _tracing().traced_pass(WORKLOAD_SHAPES, "3/2", str(ROOT / "src"))
    assert [args for args, _, _ in result.outputs] == list(WORKLOAD_SHAPES)
    for args, exit_code, stdout in result.outputs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            untraced = run_cli([*args, "--epsilon", "3/2"])
        assert (exit_code, stdout) == (untraced, out.getvalue().encode("utf-8"))
    for layer in ("build", "relations", "serre", "localization", "scalar_suites"):
        assert result.metrics[f"modes.{layer}.calls"] >= 1, layer
