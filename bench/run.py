"""Benchmark of the gtyang command line on three fixed workloads.

Run from the repository root:

    python3 bench/run.py --workload modes-dense --seed 0 --seconds 40 --trace 0

Every invocation of the CLI runs in a fresh process (``python -m gtyang.cli``
with ``PYTHONPATH=src``), one at a time, and its output is checked against
``bench/oracle.json``. With ``--trace 0`` the workload is repeated for as
many whole passes as fit in ``--seconds``, on one core beside a reference
loop that measures the core's speed (see ``speed.py``), and the end-to-end
metrics are printed, their times rescaled to the reference speed. With
``--trace 1`` one untraced pass is followed by one in-process traced pass
(see ``tracing.py``) and the per-layer metrics are printed. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when an output departs from
the oracle and 2 when the checkout holds no ``src/gtyang``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracing
from speed import SpeedProbe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
ORACLE_PATH = os.path.join(BENCH_DIR, "oracle.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# The seed picks epsilon. Numerator and denominator size is the numeric
# precision dimension of an exact solver; seed 0 gives epsilon = 1, and all
# three give the same pass/fail tables on these grids.
EPSILONS = ("1", "3/2", "2/7")


def _grid(n: int, p: int, lam: int) -> tuple[str, ...]:
    return ("--n", str(n), "--p", str(p), "--lambda", str(lam))


def _verify(suite: str, *rest: str) -> tuple[str, ...]:
    return ("verify", "--suite", suite, *rest, "--format", "csv")


WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Dense mode and Serre relations at dim 20: dense matrix products over
    # Fraction dominate, the scalar layers are about 1%.
    "modes-dense": (
        _verify("modes", "--mode-cutoff", "3", *_grid(4, 2, 2)),
        _verify("serre", *_grid(4, 2, 2)),
    ),
    # Deformation complexes, fixed points and Bareiss kernels, with many
    # tiny matrix products; (5,2,2) keeps the 28 uncalibrated cells visible.
    "localization-cells": (
        _verify("localization", *_grid(4, 2, 2)),
        _verify("localization", *_grid(6, 3, 1)),
        _verify("localization", *_grid(5, 2, 2)),
    ),
    # Scalar rational-function and amplitude work at dim 175, no matrices.
    "scalar-grid": (
        _verify("hysteresis", *_grid(6, 3, 2)),
        _verify("gelfand", *_grid(6, 3, 2)),
        _verify("constraints", *_grid(6, 3, 2)),
        ("psi", *_grid(6, 3, 2)),
        ("amplitudes", "--format", "csv", *_grid(6, 3, 2)),
    ),
}

# A no-work invocation: interpreter start, `import gtyang` and argparse.
SETUP = ("dims", *_grid(3, 1, 1))
# Set-up invocations per set-up sample.
SETUP_BATCH = 8

VERIFY_HEADER = "relation,checks,max_residual,status"

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}


def epsilon_for(seed: int) -> str:
    return EPSILONS[seed % len(EPSILONS)]


def oracle_key(args: tuple[str, ...]) -> str:
    return " ".join(args)


@dataclass
class Invocation:
    args: tuple[str, ...]
    wall: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes


def invoke(args: tuple[str, ...], epsilon: str) -> Invocation:
    """Run the CLI once in a fresh process; wall time and peak RSS of that
    process come from ``os.wait4``."""
    cmd = [sys.executable, "-m", "gtyang.cli", *args, "--epsilon", epsilon]
    env = dict(os.environ, PYTHONPATH=SRC)
    # Like an installed package, the CLI imports from cached bytecode; the
    # set-up warm-up writes that cache once, under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    # stderr carries a few status lines or a traceback, far below the pipe
    # buffer, so reading stdout to the end first cannot deadlock.
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(args, wall, usage.ru_maxrss, proc.returncode, out, err)


def parse_verify_csv(out: bytes) -> dict[str, tuple[int, bool]] | None:
    """relation -> (checks, passed) from `verify --format csv`, or None when
    the table is malformed."""
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        return None
    table = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4 or not parts[1].isdigit() or parts[3] not in ("pass", "fail"):
            return None
        rel, checks, residual, status = parts
        if (status == "pass") != (residual == "0") or rel in table:
            return None
        table[rel] = (int(checks), status == "pass")
    return table


def record(args: tuple[str, ...], exit_code: int, out: bytes) -> dict:
    """Oracle entry for one invocation's output."""
    if args[0] == "verify":
        table = parse_verify_csv(out)
        if table is None:
            raise ValueError(f"malformed verify output for {oracle_key(args)}")
        return {
            "checks": {rel: c for rel, (c, _) in table.items()},
            "pass": sorted(rel for rel, (_, ok) in table.items() if ok),
        }
    return {"exit": exit_code, "sha256": hashlib.sha256(out).hexdigest()}


def check(ref: dict, args: tuple[str, ...], exit_code: int, out: bytes) -> tuple[bool, int, int]:
    """(matches the oracle, checks attempted, checks passed).

    A verify run matches when it makes as many checks as the oracle, every
    relation that passed there passes with at least as many checks, and the
    exit code agrees with its own table; so failing cells may turn into
    passes, but no check may be dropped and no pass may turn into a failure.
    Other commands must reproduce stdout and exit code exactly and count as
    one check. A departure counts all of the oracle's checks as failed.
    """
    if "sha256" in ref:
        ok = exit_code == ref["exit"] and hashlib.sha256(out).hexdigest() == ref["sha256"]
        return ok, 1, int(ok)
    expected = sum(ref["checks"].values())
    table = parse_verify_csv(out)
    if table is None:
        return False, expected, 0
    all_pass = all(ok for _, ok in table.values())
    ok = (
        sum(c for c, _ in table.values()) == expected
        and exit_code == (0 if all_pass else 1)
        and all(
            rel in table and table[rel][1] and table[rel][0] >= ref["checks"][rel]
            for rel in ref["pass"]
        )
    )
    if not ok:
        return False, expected, 0
    return True, expected, sum(c for c, passed in table.values() if passed)


class Runner:
    """Runs invocations for one epsilon and tallies them against the oracle."""

    def __init__(self, epsilon: str, oracle: dict):
        self.epsilon = epsilon
        self.oracle = oracle[epsilon]
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.passed = 0
        self.peak_rss_kb = 0

    def tally(self, args, exit_code: int, out: bytes, detail: bytes = b"") -> int:
        """Check one output; returns the checks it made."""
        ok, checks, passed = check(self.oracle[oracle_key(args)], args, exit_code, out)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"oracle mismatch (exit {exit_code}): {oracle_key(args)}", file=sys.stderr)
            sys.stderr.write(detail.decode("utf-8", "replace")[-2000:])
        if args != SETUP:
            self.checks += checks
            self.passed += passed
        return checks

    def run(self, args: tuple[str, ...]) -> tuple[Invocation, int]:
        inv = invoke(args, self.epsilon)
        if args != SETUP:
            self.peak_rss_kb = max(self.peak_rss_kb, inv.maxrss_kb)
        return inv, self.tally(args, inv.exit_code, inv.stdout, inv.stderr)


def run_pass(runner: Runner, workload: str) -> list[tuple[Invocation, int]]:
    return [runner.run(args) for args in WORKLOADS[workload]]


def end_to_end(runner: Runner, workload: str, seconds: float) -> dict[str, float]:
    with SpeedProbe() as probe:
        runner.run(SETUP)  # warm-up: fills the bytecode cache once
        walls, rates, setup = [], [], []
        start = time.perf_counter()
        # A pass starts only if it is expected to end within the run.
        while not walls or (time.perf_counter() - start) * (len(walls) + 1) / len(walls) <= seconds:
            mark = probe.mark()
            runs = run_pass(runner, workload)
            scale = probe.scale(mark)
            raw = sum(inv.wall for inv, _ in runs)
            verify = [(inv, checks) for inv, checks in runs if inv.args[0] == "verify"]
            walls.append(raw * scale)
            rates.append(sum(c for _, c in verify) / (sum(inv.wall for inv, _ in verify) * scale))
            print(f"pass {len(walls)}: wall {raw:.3f} s, core speed {scale:.3f}, rescaled {walls[-1]:.3f} s")
            # The set-up invocations are too short for the reference loop to
            # get CPU time among them, so they take the scale of the pass
            # just before; a batch after each pass spreads them over the run.
            setup += [runner.run(SETUP)[0].wall * scale for _ in range(SETUP_BATCH)]
    return {
        "wall_s": statistics.median(walls),
        "checks_per_s": statistics.median(rates),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
        "setup_s": statistics.median(setup),
        "pass_ratio": runner.passed / runner.checks,
    }


def per_layer(runner: Runner, workload: str, seed: int) -> dict[str, float]:
    untraced = sum(inv.wall for inv, _ in run_pass(runner, workload))
    result = tracing.traced_pass(WORKLOADS[workload], runner.epsilon, SRC)
    for args, exit_code, out in result.outputs:
        runner.tally(args, exit_code, out)
    metrics = result.metrics
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    os.makedirs(OUT_DIR, exist_ok=True)
    result.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))
    for line in result.breakdown():
        print(line)
    return metrics


def source_loc() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "gtyang", "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gtyang", "cli.py")):
        print(f"error: no gtyang sources under {SRC}", file=sys.stderr)
        return 2
    with open(ORACLE_PATH) as handle:
        oracle = json.load(handle)

    epsilon = epsilon_for(args.seed)
    runner = Runner(epsilon, oracle)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "epsilon": epsilon,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_loc": source_loc(),
    }
    if args.trace:
        metrics = per_layer(runner, args.workload, args.seed)
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(runner, args.workload, args.seconds)
        units = END_TO_END_UNITS
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:32} {value:>16.6f} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
