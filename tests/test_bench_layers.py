"""The traced benchmark pass wraps the functions named in ``LAYERS`` of
``bench/tracing.py``; a rename in ``src``, a change that makes the traced
pass print something else than the plain CLI, or an output that departs from
``bench/oracle.json``, must fail here, not in the bench."""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from gtyang.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _layers() -> dict:
    return _bench_module("tracing").LAYERS


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


def _cli_output(args) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        exit_code = run_cli(list(args))
    return exit_code, out.getvalue().encode("utf-8")


def test_traced_pass_matches_untraced_cli():
    result = _bench_module("tracing").traced_pass(WORKLOAD_SHAPES, "3/2", str(ROOT / "src"))
    assert [args for args, _, _ in result.outputs] == list(WORKLOAD_SHAPES)
    for args, exit_code, stdout in result.outputs:
        assert (exit_code, stdout) == _cli_output((*args, "--epsilon", "3/2"))
    for layer in ("build", "relations", "serre", "localization", "scalar_suites"):
        assert result.metrics[f"modes.{layer}.calls"] >= 1, layer


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bench_workloads_match_the_oracle(seed, monkeypatch):
    # bench/run.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(BENCH))
    run = _bench_module("run")
    epsilon = run.epsilon_for(seed)
    with open(run.ORACLE_PATH) as handle:
        oracle = json.load(handle)[epsilon]
    for args in (run.SETUP, *(a for shapes in run.WORKLOADS.values() for a in shapes)):
        exit_code, out = _cli_output((*args, "--epsilon", epsilon))
        ok, _, _ = run.check(oracle[run.oracle_key(args)], args, exit_code, out)
        assert ok, run.oracle_key(args)
