"""Regenerate ``bench/oracle.json`` from the sources in this checkout.

    python3 bench/make_oracle.py

For every epsilon the seed can pick, runs each CLI invocation of every
workload, plus the set-up invocation, once and records what ``run.py``
checks: per-relation check counts and passing relations for ``verify``, and
the exit code and SHA-256 of stdout for the other commands. The stored
oracle was generated from the commit that introduced the benchmark; rerun
this only when a change to the expected output is intended.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    invocations = [run.SETUP, *(args for runs in run.WORKLOADS.values() for args in runs)]
    oracle = {}
    for epsilon in run.EPSILONS:
        entries = {}
        for args in invocations:
            inv = run.invoke(args, epsilon)
            entries[run.oracle_key(args)] = run.record(args, inv.exit_code, inv.stdout)
            print(f"epsilon={epsilon} exit={inv.exit_code} {inv.wall:7.2f}s {run.oracle_key(args)}")
        oracle[epsilon] = entries
    with open(run.ORACLE_PATH, "w") as handle:
        json.dump(oracle, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
