import hashlib
import json
import subprocess
import sys

import pytest

from gtyang.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_prints_value(capsys):
    code, out, _ = run(capsys, "dims", "--n", "4", "--p", "2", "--lambda", "2")
    assert code == 0
    assert out.strip() == "20"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "states", "--n", "9", "--p", "0", "--lambda", "1")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "dims", "--n", "3")
    assert code == 2
    code, _, err = run(capsys, "dims", "--n", "3", "--p", "1", "--lambda", "2", "--epsilon", "0")
    assert code == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "dims", "--n", "3", "--p", "1", "--lambda", "2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_pattern_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "psi", "--n", "3", "--p", "1", "--lambda", "2", "--pattern", "a;0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_states_round_trip(capsys):
    code, out, _ = run(capsys, "states", "--n", "4", "--p", "2", "--lambda", "1")
    assert code == 0
    payload = json.loads(out)
    from gtyang.patterns import enumerate_patterns, format_pattern, parse_pattern

    states = enumerate_patterns(4, 2, 1)
    assert [s["pattern"] for s in payload["states"]] == [format_pattern(p) for p in states]
    for item in payload["states"]:
        assert parse_pattern(item["pattern"], 4, 2, 1) in states


def test_psi_single_pattern(capsys):
    code, out, _ = run(
        capsys, "psi", "--n", "3", "--p", "1", "--lambda", "2", "--pattern", "1;0"
    )
    assert code == 0
    payload = json.loads(out)
    rows = {entry["node"]: entry for entry in payload["psi"]}
    assert rows[1]["scalar"] == "-1"
    assert rows[1]["num_roots"] == ["-1", "2"]
    assert rows[1]["den_roots"] == ["0", "1"]


def test_amplitude_csv_columns(capsys):
    code, out, _ = run(
        capsys, "amplitudes", "--n", "3", "--p", "1", "--lambda", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "state_id,node,type,kind,value"
    assert any(line.endswith(",E,-1") for line in lines[1:])


def test_amplitude_methods_agree(capsys):
    args = ["amplitudes", "--n", "3", "--p", "1", "--lambda", "2"]
    code, closed, _ = run(capsys, *args, "--method", "closed")
    assert code == 0
    code, localized, _ = run(capsys, *args, "--method", "localization")
    assert code == 0
    assert json.loads(closed)["amplitudes"] == json.loads(localized)["amplitudes"]


def test_verify_all_passes(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--p", "1", "--lambda", "2", "--suite", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "PASS residue" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--p", "2", "--lambda", "1", "--suite", "serre"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(item["passed"] for item in payload["reports"])


def test_modes_output_deterministic(capsys):
    args = ["modes", "--n", "3", "--p", "1", "--lambda", "1", "--mode-cutoff", "1"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert {item["kind"] for item in payload["modes"]} == {"e", "f", "psi"}


# SHA-256 of the `modes` stdout, pinned from the earlier dense-matrix
# implementation so the operator dump from sparse rows stays byte-identical.
MODES_STDOUT_SHA256 = [
    (
        ["--n", "3", "--p", "1", "--lambda", "2", "--mode-cutoff", "2", "--epsilon", "3/2"],
        "c3514e63ddcf745307d77fbf48e57d669c7d40f0b363b016892f4d75eb3aaf98",
    ),
    (
        ["--n", "4", "--p", "2", "--lambda", "2", "--mode-cutoff", "3", "--epsilon", "2/7"],
        "9a99fa2165ab6f512c1163cb9094e2857eec92f402a4f8262ed659cff7619d1e",
    ),
    (
        ["--n", "5", "--p", "2", "--lambda", "1", "--mode-cutoff", "1"],
        "dfd71fc371d188a1d688c1a32a827a79befba61bcda464a7a161125db269bb5b",
    ),
]


@pytest.mark.parametrize("args,digest", MODES_STDOUT_SHA256)
def test_modes_stdout_pinned(capsys, args, digest):
    code, out, _ = run(capsys, "modes", *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_subprocess_byte_identical(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "gtyang.cli",
        "psi",
        "--n",
        "3",
        "--p",
        "1",
        "--lambda",
        "2",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    from fractions import Fraction

    import gtyang.cli as cli
    from gtyang.modes import RelationReport

    monkeypatch.setattr(
        cli, "_run_suites", lambda args, params: [RelationReport("fake", {}, Fraction(1, 3))]
    )
    code, out, err = run(capsys, "verify", "--n", "3", "--p", "1", "--lambda", "1")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "FAIL fake" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "bundle.json"
    code, out, _ = run(
        capsys, "states", "--n", "3", "--p", "1", "--lambda", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["states"]) == 3
