import argparse
import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gtyang.cli import NUMERIC_FLAGS, build_parser, run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _grid_args(grid, eps):
    n, p, lam = grid
    return ["--n", str(n), "--p", str(p), "--lambda", str(lam), f"--epsilon={eps}"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--format", "csv"],
        ["modes", "--format", "json"],
        ["dims", "--mode-cutoff", "1"],
        ["amplitudes", "--mode-cutoff", "1"],
    ],
)
def test_flag_not_read_by_the_command_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "3", "--p", "1", "--lambda", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: gtyang ")
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "dims", "--n", "3", "--p", "1", "--lambda", "2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_zero_denominator_is_a_bad_rational_literal(capsys):
    # Fraction("1/0") raises ZeroDivisionError; the CLI reports it as the
    # same usage error as any other malformed rational
    code, out, err = run(capsys, "psi", "--n", "3", "--p", "1", "--lambda", "2", "--epsilon", "1/0")
    assert (code, out, err) == (2, "", "error: bad rational literal '1/0'\n")


@pytest.mark.parametrize("flags", [[], ["--format", "csv"]])
def test_empty_out_path_is_a_usage_error(capsys, flags):
    # an empty path names no file; it must not fall back to stdout
    grid = ["--n", "3", "--p", "1", "--lambda", "2"]
    code, out, err = run(capsys, "dims", *grid, *flags, "--out", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write : ") and err.count("\n") == 1


def test_malformed_pattern_is_a_usage_error(capsys):
    for grid, pattern, message in [
        ((3, 1, 2), "a;0", "bad pattern entry 'a'"),
        # the total count is right, but row 1 holds two entries and row 2 one
        ((4, 2, 2), "1,1;0;1", "expected 1 entries in row 1, got 2"),
        ((3, 1, 2), "1;1,1", "expected 1 entries in row 2, got 2"),
    ]:
        code, out, err = run(capsys, "psi", *_grid_args(grid, "1"), "--pattern", pattern)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags",
    [
        ["--epsilon", "1_0"],
        ["--epsilon", " 3/2"],
        ["--epsilon", "3/2 "],
        ["--epsilon", "3/-2"],
        ["--epsilon", "+3"],
        ["--h", "0_0"],
        ["--pattern", "+0;0"],
        ["--pattern", " 0;0"],
        ["--pattern", "0_0;0"],
        ["--n", "1_0"],
        ["--lambda", " 2"],
        ["--p", "+1"],
        ["--mode-cutoff", "0_1"],
        ["--n", "abc"],
        ["--n", "-1_0"],
        ["--epsilon", "-3/2_0"],
        ["--p", "-1_0"],
        ["--lambda", "-1_0"],
        ["--h", "-3/2_0"],
        ["--mode-cutoff", "-1_0"],
        ["--epsilon", "1/0"],
        ["--h", "-1/0"],
    ],
)
def test_malformed_numeric_literal_is_a_usage_error(capsys, flags):
    # an integer is -?[0-9]+, a rational -?[0-9]+(/[0-9]+)? and a pattern
    # entry [0-9]+, nothing else that int() would take
    command = ["verify", "--suite", "serre"] if flags[0] == "--mode-cutoff" else ["psi"]
    code, out, err = run(capsys, *command, "--n", "3", "--p", "1", "--lambda", "2", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_numeric_flags_table_covers_every_numeric_option():
    # every option a subcommand declares is either in the numeric table or
    # one of these, so a new numeric flag cannot skip its grammar
    other = {"-h", "--help", "--out", "--format", "--pattern", "--method", "--suite"}
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    assert set(NUMERIC_FLAGS) == declared - other


@pytest.mark.parametrize("flags", [["--eps", "3/2"], ["--eps", "-3/2"], ["--lam", "2"]])
def test_abbreviated_flag_is_unrecognized(capsys, flags):
    code, out, err = run(capsys, "dims", "--n", "3", "--p", "1", "--lambda", "2", *flags)
    assert (code, out) == (2, "")
    assert f"error: unrecognized arguments: {' '.join(flags)}" in err


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


def test_states_csv_quotes_the_pattern_field(capsys):
    import csv

    from gtyang.patterns import enumerate_patterns, parse_pattern

    argv = ["states", "--n", "4", "--p", "2", "--lambda", "2", "--format", "csv"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert header == ["id", "pattern"]
    assert all(len(row) == 2 for row in rows)
    assert [int(i) for i, _ in rows] == list(range(len(rows)))
    patterns = [parse_pattern(text, 4, 2, 2) for _, text in rows]
    assert patterns == list(enumerate_patterns(4, 2, 2))


# (4,2,3) holds the double-jump cells
@pytest.mark.parametrize("n,p,lam", [(3, 1, 2), (4, 2, 2), (4, 2, 3), (6, 3, 1)])
def test_amplitude_methods_agree(capsys, n, p, lam):
    args = ["amplitudes", "--n", str(n), "--p", str(p), "--lambda", str(lam)]
    code, closed, _ = run(capsys, *args, "--method", "closed")
    assert code == 0
    code, localized, _ = run(capsys, *args, "--method", "localization")
    assert code == 0
    assert closed == localized


def test_uncalibrated_amplitudes_exit_one_without_output(capsys):
    code, out, err = run(
        capsys, "amplitudes", "--n", "5", "--p", "2", "--lambda", "2", "--method", "localization"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # the first uncalibrated raising move in enumeration order
    assert "state 0;2,0;1,0;0, node 1, type 1 " in err


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
        ["modes", "--mode-cutoff", "2", *_grid_args((3, 1, 2), "3/2")],
        "c3514e63ddcf745307d77fbf48e57d669c7d40f0b363b016892f4d75eb3aaf98",
    ),
    (
        ["modes", "--mode-cutoff", "3", *_grid_args((4, 2, 2), "2/7")],
        "9a99fa2165ab6f512c1163cb9094e2857eec92f402a4f8262ed659cff7619d1e",
    ),
    (
        ["modes", "--mode-cutoff", "1", *_grid_args((5, 2, 1), "1")],
        "dfd71fc371d188a1d688c1a32a827a79befba61bcda464a7a161125db269bb5b",
    ),
]

# SHA-256 of `verify --format csv` for the mode and Serre suites, pinned from
# the implementation that passed the operators as a list and recomputed the
# Serre commutators; the table is the same for every epsilon.
MATRIX_VERIFY_CSV_SHA256 = {
    ("--suite modes --mode-cutoff 2", (4, 2, 2)):
        "314094086561e57615d7ec07420ad6ac7e28288d09dec56a74436363c8507c6b",
    ("--suite modes --mode-cutoff 2", (5, 2, 2)):
        "6ad816f0105223cfaca3e5e54efcc854e84b8860f9e3b51e175b5aaa150875da",
    ("--suite serre", (4, 2, 2)):
        "61efd76977850b94928139095c16ece7ab473ee0edfd83a267f8f6dd8dde7603",
    ("--suite serre", (5, 2, 2)):
        "3559e7f2489c86848e56d626844f455c9a3bae6d30cbd7ec6fee02427da132b4",
    ("--suite serre --mode-cutoff 0", (4, 2, 2)):
        "61efd76977850b94928139095c16ece7ab473ee0edfd83a267f8f6dd8dde7603",
    ("--suite serre --mode-cutoff 0", (5, 2, 2)):
        "3559e7f2489c86848e56d626844f455c9a3bae6d30cbd7ec6fee02427da132b4",
}
MODES_STDOUT_SHA256 += [
    (["verify", "--format", "csv", *suite.split(), *_grid_args(grid, eps)], digest)
    for (suite, grid), digest in MATRIX_VERIFY_CSV_SHA256.items()
    for eps in ("1", "-3/2", "2/7")
]

# SHA-256 of `verify --format csv --suite hysteresis`, pinned from the
# implementation that recomputed psi and the amplitudes in every scalar check
# and multiplied the ratio products as Fractions; the table is the same for
# every epsilon.
HYSTERESIS_VERIFY_CSV_SHA256 = {
    (3, 1, 2): "84326d176e8be81856c6cb2a787009e430fe03b033289a6b1a506e5777c33305",
    (4, 2, 2): "18a59113c964b11e6911672418e84d3e42ee9d403159e465fdf4f2c785048dce",
    (5, 2, 2): "cb41793b474eb1fd253524db0b4932a68c997caa37f315db2930715e20be5d25",
    (6, 3, 2): "e1fce3450a543944285855040c6a7d02dd9a2e93328349b374b905ef27a8d767",
}
# SHA-256 of the JSON `verify --suite all --mode-cutoff 1`, pinned from the
# same implementation, which also built the operator table once per matrix
# suite; the JSON header carries epsilon.
ALL_VERIFY_JSON_SHA256 = {
    ((4, 2, 2), "1"): "3c567975866978a87ea2b515667232b7a6fe420abf6db5bde9bbcf494016289f",
    ((4, 2, 2), "-3/2"): "3b995f4ccaa4cc0707f3dea04e12d312140b0a24f59f2c78399c82285b68a275",
    ((4, 2, 2), "2/7"): "8997f0f35d89ff81797526545f078cf17a4c4c6735eb5a3f5dc4a072eafc76a4",
    ((5, 2, 2), "1"): "018138c0ae196ab171f687191524752c32f4424c136962f8848ca7f152ccdb0d",
    ((5, 2, 2), "-3/2"): "380596941d06a1df3f0e87265a0f81be6bcbfa2cf558bd62017a03828718c2d2",
    ((5, 2, 2), "2/7"): "d53dfb5e119a2bcd9a8b36e30a5245e9baa74e4f65f2538f170f34f2e5ea1577",
}
MODES_STDOUT_SHA256 += [
    (["verify", "--format", "csv", "--suite", "hysteresis", *_grid_args(grid, eps)], digest)
    for grid, digest in HYSTERESIS_VERIFY_CSV_SHA256.items()
    for eps in ("1", "-3/2", "2/7")
] + [
    (["verify", "--suite", "all", "--mode-cutoff", "1", *_grid_args(grid, eps)], digest)
    for (grid, eps), digest in ALL_VERIFY_JSON_SHA256.items()
]

# SHA-256 of `verify --format csv` for the constraints, Gelfand and reduction
# suites, pinned from the implementation whose checks each took
# (n, p, lambda, params) instead of one ModuleData; the table is the same for
# every epsilon, and every run exits 0.
SCALAR_VERIFY_CSV_SHA256 = {
    ("constraints", (3, 1, 2)): "7ee8d866636f302dcf55c2b58e9c8e1b65451953b34d78a9b1e4d49e32a6f808",
    ("constraints", (4, 1, 2)): "e99a2c9713ba54106e9572873ec213616dbe31114f738ac3bdc5d3450f5995a2",
    ("constraints", (4, 2, 2)): "e99a2c9713ba54106e9572873ec213616dbe31114f738ac3bdc5d3450f5995a2",
    ("gelfand", (3, 1, 2)): "b4f8b867c1897f5c9e1e2e8deeec0ba203ce34fde402aeb5609da1797981a9be",
    ("gelfand", (4, 1, 2)): "7474b8f62f53d02471ed457bdd5519b58d860f114a2c68d3afcbf83d9c42a8f9",
    ("gelfand", (4, 2, 2)): "4e2fb7aa680dce606735e639994dddc2d3fbdf094fa344a050f358be44cac597",
    ("reductions", (3, 1, 2)): "1d1a95737ce44bc8dce93e5eb6553a29dd5003d4ddccb89c31c227db88195166",
    ("reductions", (4, 1, 2)): "892f787178160a5db6e65b9bfe1a34b61584c99bfe1806441b4a9b7c0f91176d",
}
MODES_STDOUT_SHA256 += [
    (["verify", "--format", "csv", "--suite", suite, *_grid_args(grid, eps)], digest)
    for (suite, grid), digest in SCALAR_VERIFY_CSV_SHA256.items()
    for eps in ("1", "-3/2", "2/7")
]
# the constraint residuals are symbolic in (eps, h): the same table at h != 0
MODES_STDOUT_SHA256 += [
    (["verify", "--format", "csv", "--suite", suite, "--h", "1/7", *_grid_args(grid, eps)], digest)
    for (suite, grid), digest in SCALAR_VERIFY_CSV_SHA256.items()
    if suite == "constraints"
    for eps in ("1", "-3/2", "2/7")
]

# exit code of the pinned invocations that do not exit 0: the uncalibrated
# localization cells of (5,2,2) fail `verify --suite all`
PINNED_EXIT_CODES = {
    ("verify", "--suite", "all", "--mode-cutoff", "1", *_grid_args((5, 2, 2), eps)): 1
    for eps in ("1", "-3/2", "2/7")
}


@pytest.mark.parametrize("args,digest", MODES_STDOUT_SHA256)
def test_modes_stdout_pinned(capsys, args, digest):
    code, out, _ = run(capsys, *args)
    assert code == PINNED_EXIT_CODES.get(tuple(args), 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of `psi` and `amplitudes --format csv`, pinned from the earlier
# implementation that built every psi root and amplitude as a Fraction, so the
# integer eps/2-unit roots stay byte-identical; the negative epsilon reverses
# the root order.
PSI_AMPLITUDES_STDOUT_SHA256 = [
    (
        ("psi", "4", "2", "2", "3/2"),
        "9b1428c345314a50388ab25a1a94f871ad6271df4438c91901cd3f5fb559ebcb",
    ),
    (
        ("psi", "4", "2", "2", "-3/2"),
        "075698a13560384ae1100e5a562b294434c452f824c8db53665b1f2a98224d62",
    ),
    (
        ("psi", "4", "2", "2", "2/7"),
        "2d9d97a9cb5e7b8a65feecddb893e58786fb22755301043edb7e8d23a2666eb2",
    ),
    (
        ("psi", "5", "2", "1", "3/2"),
        "5c6692ad933140a02d64cf8ceda7f55fa9386b889c4a7ae11471e52c39967be8",
    ),
    (
        ("psi", "5", "2", "1", "-3/2"),
        "561040762b2308ea8010f407dd0d6998eae980569b05f643956b6af9c87d43fe",
    ),
    (
        ("psi", "5", "2", "1", "2/7"),
        "63f5723a27dc9df47fd66b007c008cbd26a5a021bd76ccc98ba6693f875d31cd",
    ),
    (
        ("amplitudes", "4", "2", "2", "3/2"),
        "5a3152a2452de5d64129ade7a1645cce6f694537d4a921c16660f6d6b55ee9ac",
    ),
    (
        ("amplitudes", "4", "2", "2", "-3/2"),
        "1ea48021d9227a67c92dca8a68bf2512104746a09ecc5538a53c45aa1f2a4a75",
    ),
    (
        ("amplitudes", "4", "2", "2", "2/7"),
        "80b1fdbff406fd66e561bc7add9ac86a1b2829a4481eab405ae146e5d8b6ab1d",
    ),
    (
        ("amplitudes", "5", "2", "1", "3/2"),
        "8234ef7ad06a15f565ffbd303e018d2bf5509ff3f4f32edc5ad2c9e6f5c34315",
    ),
    (
        ("amplitudes", "5", "2", "1", "-3/2"),
        "a53342369d2745ce560ec00a21ea1b93f14fd51e65ef9f10b1103c9211dc1cb9",
    ),
    (
        ("amplitudes", "5", "2", "1", "2/7"),
        "5f56066e86af89d11e3ab21008e144ddfd5c9f3b539d1e9ba739dc06f9d10abf",
    ),
]


@pytest.mark.parametrize("case,digest", PSI_AMPLITUDES_STDOUT_SHA256)
def test_psi_amplitudes_stdout_pinned(capsys, case, digest):
    command, n, p, lam, eps = case
    args = [command, "--n", n, "--p", p, "--lambda", lam, f"--epsilon={eps}"]
    if command == "amplitudes":
        args += ["--format", "csv"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# (exit code, SHA-256 of stdout) of `verify --suite localization --format csv`,
# pinned from the earlier implementation that localized over Fractions, so the
# integer weights, rows and kernels keep every check count and verdict; (5,2,2)
# holds the uncalibrated jump cells and exits 1. The report is the same for
# every epsilon.
LOCALIZATION_VERIFY_CSV = {
    (4, 2, 2): (0, "a27634109abc952be102d63016c93d8ad914949a6fa9e787917771c34b576b05"),
    (4, 2, 3): (0, "a5319f8171d3826d41731381cbca4888c46597aa6b986563e7746ca0f334f620"),
    (6, 3, 1): (0, "cf13dc9de722ffa829be52f8f025948f66ecfc69124a73f25822527e116d66d0"),
    (5, 2, 2): (1, "6764723b3bfdd5854c55a331e905f55c2ea8e2e9bae2a0f4c2e2394ce42b30ed"),
}

# SHA-256 of `amplitudes --method localization --format csv`, pinned likewise.
LOCALIZATION_AMPLITUDES_CSV = {
    ((4, 2, 2), "1"): "bcfdb827289974c4c71184a9c07a63bc8e0fa5d67603ce0bad990289332a98dc",
    ((4, 2, 2), "-3/2"): "1ea48021d9227a67c92dca8a68bf2512104746a09ecc5538a53c45aa1f2a4a75",
    ((4, 2, 2), "2/7"): "80b1fdbff406fd66e561bc7add9ac86a1b2829a4481eab405ae146e5d8b6ab1d",
    ((4, 2, 3), "1"): "159927026bd8ed0a77f41d350caac541c21cc69ba2df4981c9bb6c1f20368014",
    ((4, 2, 3), "-3/2"): "d94f5191cb809df3c69d41a6196cdc9b777a6cb81003afcbbf5568a62579df38",
    ((4, 2, 3), "2/7"): "c25ded46753ec79436e669e330e556808077dac9afedd64f8a7d683e2a24a5f9",
}


@pytest.mark.parametrize("eps", ["1", "-3/2", "2/7"])
@pytest.mark.parametrize("grid", list(LOCALIZATION_VERIFY_CSV))
def test_localization_verify_stdout_pinned(capsys, grid, eps):
    code, out, _ = run(
        capsys, "verify", "--suite", "localization", "--format", "csv", *_grid_args(grid, eps)
    )
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == LOCALIZATION_VERIFY_CSV[grid]


@pytest.mark.parametrize("grid,eps", list(LOCALIZATION_AMPLITUDES_CSV))
def test_localization_amplitudes_stdout_pinned(capsys, grid, eps):
    code, out, _ = run(
        capsys, "amplitudes", "--method", "localization", "--format", "csv", *_grid_args(grid, eps)
    )
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == LOCALIZATION_AMPLITUDES_CSV[grid, eps]


# SHA-256 of stdout of the five scalar-suite invocations at (6,3,2), the
# hysteresis, Gelfand and constraints tables, `psi` and `amplitudes --format
# csv`, pinned from the implementation that kept every psi root and Gelfand
# factor as a Fraction; each exits 0. A negative epsilon reverses the root
# order, so only `psi` and `amplitudes` differ between the two.
_SCALAR_GRID = ("--n", "6", "--p", "3", "--lambda", "2")
SCALAR_GRID_STDOUT_SHA256 = {
    ("verify", "--suite", "hysteresis", *_SCALAR_GRID, "--format", "csv"): {
        "2/7": "e1fce3450a543944285855040c6a7d02dd9a2e93328349b374b905ef27a8d767",
        "-3/2": "e1fce3450a543944285855040c6a7d02dd9a2e93328349b374b905ef27a8d767",
    },
    ("verify", "--suite", "gelfand", *_SCALAR_GRID, "--format", "csv"): {
        "2/7": "00f43946d1f2b5058db479405b7a160b677c0d1bb04e2d72788fafbfc0447018",
        "-3/2": "00f43946d1f2b5058db479405b7a160b677c0d1bb04e2d72788fafbfc0447018",
    },
    ("verify", "--suite", "constraints", *_SCALAR_GRID, "--format", "csv"): {
        "2/7": "c37df48756096afc60661ed3e18b0e12a2943fe2a961321adf0cb76a5d8491dc",
        "-3/2": "c37df48756096afc60661ed3e18b0e12a2943fe2a961321adf0cb76a5d8491dc",
    },
    ("psi", *_SCALAR_GRID): {
        "2/7": "6987cbd1876b09c91b1010d47b4b7cb88ee0c13da6a775ed2c2843d6d9564fa2",
        "-3/2": "25019974faf2fe58aabc7f143abb7a78f8138e006b8f3851271575040cdc5a8f",
    },
    ("amplitudes", "--format", "csv", *_SCALAR_GRID): {
        "2/7": "4c3bc3028330a55cd3be1a514f03924f22711088f707a15e6c8503b54f99446d",
        "-3/2": "60de4e73a76ac6a536e5f236f530972a96db5439dfb84aaa6ebaa5992f69af99",
    },
}


@pytest.mark.parametrize("eps", ["2/7", "-3/2"])
@pytest.mark.parametrize("args", list(SCALAR_GRID_STDOUT_SHA256))
def test_scalar_grid_stdout_pinned(capsys, args, eps):
    code, out, _ = run(capsys, *args, f"--epsilon={eps}")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCALAR_GRID_STDOUT_SHA256[args][eps]


@pytest.mark.parametrize(
    "command", [["states"], ["psi"], ["verify", "--suite", "constraints", "--format", "csv"]]
)
def test_negative_rational_with_space(capsys, command):
    base = [command[0], "--n", "3", "--p", "1", "--lambda", "2", *command[1:]]
    if command[0] == "psi":
        spaced, joined = ["--epsilon", "-3/2"], ["--epsilon=-3/2"]
    else:
        spaced = ["--epsilon", "-3/2", "--h", "-1/2"]
        joined = ["--epsilon=-3/2", "--h=-1/2"]
    code_spaced, out_spaced, _ = run(capsys, *base, *spaced)
    code_joined, out_joined, _ = run(capsys, *base, *joined)
    assert code_spaced == code_joined == 0
    assert out_spaced == out_joined
    if command[0] != "verify":
        assert json.loads(out_spaced)["params"]["epsilon"] == "-3/2"


def test_verify_all_at_nonzero_h_runs_constraints_and_skips_the_rest(capsys):
    base = ["verify", "--n", "3", "--p", "1", "--lambda", "2", "--h", "1", "--format", "csv"]
    code_all, out_all, err_all = run(capsys, *base, "--suite", "all")
    code_one, out_one, err_one = run(capsys, *base, "--suite", "constraints")
    assert code_all == code_one == 0
    assert out_all == out_one
    skipped = ["hysteresis", "modes", "serre", "gelfand", "localization", "reductions"]
    assert err_all == "".join(f"SKIP {name} (needs h = 0)\n" for name in skipped) + err_one
    # reductions is not part of `all` unless p = 1, so it is not reported skipped
    _, _, err = run(capsys, "verify", "--n", "4", "--p", "2", "--lambda", "2", "--h", "1")
    assert "SKIP localization" in err and "SKIP reductions" not in err


def test_unknown_suite_lists_the_choices_in_order(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bogus", "--n", "3", "--p", "1", "--lambda", "2")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "gtyang verify: error: argument --suite: invalid choice: 'bogus' (choose from "
        "'constraints', 'hysteresis', 'modes', 'serre', 'gelfand', 'localization', "
        "'reductions', 'all')"
    )


H_REFUSAL = "error: modules are built at h = 0 (only the constraints suite runs at h != 0)\n"


def test_verify_single_suite_at_nonzero_h_is_a_usage_error(capsys):
    # at lambda = 0 there is no move, so no amplitude is computed: the
    # module's epsilon gate refuses h != 0 before any closed form runs
    from gtyang.modes import SUITES

    for lam in ("2", "0"):
        for suite in [name for name in SUITES if name != "constraints"]:
            argv = ["--n", "3", "--p", "1", "--lambda", lam, "--h", "1", "--suite", suite]
            assert run(capsys, "verify", *argv) == (2, "", H_REFUSAL), argv


def test_every_closed_form_command_refuses_nonzero_h_with_one_message(capsys):
    refused = [["psi"], ["amplitudes"], ["amplitudes", "--method", "localization"], ["modes"]]
    allowed = [["states"], ["dims"], ["verify", "--suite", "constraints"]]
    for lam in ("2", "0"):
        grid = ["--n", "3", "--p", "1", "--lambda", lam, "--h", "1"]
        for command in refused:
            assert run(capsys, *command, *grid) == (2, "", H_REFUSAL), command
        for command in allowed:
            assert run(capsys, *command, *grid)[0] == 0, command


GOLDEN = Path(__file__).resolve().parent / "golden"


# golden grid by the file's folder
GOLDEN_GRIDS = {
    "": ["--n", "3", "--p", "1", "--lambda", "2", "--epsilon=-3/2"],
    # two free entries in the middle row pin the sort order and the
    # lowering squares
    "4-2-2": ["--n", "4", "--p", "2", "--lambda", "2", "--epsilon=3/2"],
}


@pytest.mark.parametrize(
    "name, command",
    [
        ("states.json", ["states"]),
        ("psi.json", ["psi"]),
        ("amplitudes.csv", ["amplitudes", "--format", "csv"]),
        ("modes.json", ["modes", "--mode-cutoff", "1"]),
        ("verify.csv", ["verify", "--format", "csv", "--mode-cutoff", "1"]),
        ("4-2-2/states.json", ["states"]),
        ("4-2-2/psi.json", ["psi"]),
        ("4-2-2/amplitudes.csv", ["amplitudes", "--format", "csv"]),
        ("4-2-2/verify-hysteresis.csv", ["verify", "--suite", "hysteresis", "--format", "csv"]),
        ("4-2-2/verify-gelfand.csv", ["verify", "--suite", "gelfand", "--format", "csv"]),
    ],
)
def test_stdout_matches_the_golden_file(capsys, name, command):
    """Each file is the stdout of ``gtyang <command>`` on the grid of its
    folder in ``GOLDEN_GRIDS``; regenerate one only for a change meant to
    alter stdout."""
    grid = GOLDEN_GRIDS[Path(name).parent.name]
    code, out, _ = run(capsys, *command, *grid)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_verify_all_at_zero_h_stdout_pinned(capsys):
    # SHA-256 of stdout and stderr, pinned before `all` learned to skip suites
    # at h != 0
    code, out, err = run(
        capsys, "verify", "--n", "3", "--p", "1", "--lambda", "2", "--format", "csv", "--mode-cutoff", "2"
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3968c4946e69da259f1f2447a0cb7d7accdfb76e600696cd441570c5473463eb"
    )
    assert hashlib.sha256(err.encode("utf-8")).hexdigest() == (
        "1cf22197270b63460fdd6e7d7cd2fe5941700c5fca47e220fc990e22f3cda7a8"
    )


@pytest.mark.parametrize("grid", [("4", "2", "2"), ("5", "2", "2")])
def test_localization_verify_unchanged_under_optimize(cli_env, grid):
    # the invariants raise typed errors, not asserts, so `python -O` runs
    # every check and reports the same, uncalibrated (5,2,2) cells included
    n, p, lam = grid
    args = ["-m", "gtyang.cli", "verify", "--suite", "localization", "--format", "csv"]
    args += ["--n", n, "--p", p, "--lambda", lam]
    plain = subprocess.run([sys.executable, *args], capture_output=True, env=cli_env)
    optimized = subprocess.run([sys.executable, "-O", *args], capture_output=True, env=cli_env)
    assert plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_subprocess_byte_identical(cli_env):
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
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
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


def test_scaled_edge_fails_the_gelfand_suite(capsys, monkeypatch):
    # the Gelfand squares read E * F from the module's edge table: one wrong
    # lowering amplitude there must fail them
    import gtyang.modes as modes

    build = modes.amplitude_table

    def scaled(*args):
        table = build(*args)
        key = next(iter(table))
        e, f = table[key]
        table[key] = e, 3 * f
        return table

    monkeypatch.setattr(modes, "amplitude_table", scaled)
    grid = ["--n", "3", "--p", "1", "--lambda", "2"]
    code, out, err = run(capsys, "verify", "--suite", "gelfand", "--format", "csv", *grid)
    assert code == 1
    assert out.splitlines()[1:] == ["gelfand-square,24,4,fail"]
    assert err == "FAIL gelfand-square (24 checks)\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "bundle.json"
    code, out, _ = run(
        capsys, "states", "--n", "3", "--p", "1", "--lambda", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["states"]) == 3


def test_untrimmable_tangent_is_reported_not_raised(capsys):
    # the tangent excess of pattern (1,2,0,1) at (4,2,4) does not pair up: the
    # 7 moves into or out of it and 6 undecided jump cells are uncalibrated
    grid = ["--n", "4", "--p", "2", "--lambda", "4"]
    code, out, _ = run(capsys, "verify", "--suite", "localization", "--format", "csv", *grid)
    assert code == 1
    assert out == (
        "relation,checks,max_residual,status\n"
        "localization,227,0,pass\n"
        "localization-uncalibrated,13,1,fail\n"
    )
    code, out, _ = run(capsys, "verify", "--mode-cutoff", "1", "--format", "csv", *grid)
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith(",fail")] == [
        "localization-uncalibrated,13,1,fail"
    ]
    assert len(out.splitlines()) == 27
    code, out, err = run(capsys, "amplitudes", "--method", "localization", *grid)
    assert (code, out) == (1, "")
    assert err == (
        "error: localization leaves the move at state 0;2,0;1, node 1, type 1 "
        "undetermined: tangent excess at (1, 2, 0, 1) is not hyperbolic\n"
    )


@pytest.mark.parametrize("cutoff,built", [(None, [3]), ("1", [1]), ("0", [0, 1])])
def test_verify_all_builds_the_operator_table_once(capsys, monkeypatch, cutoff, built):
    # `modes` and `serre` read one table when the cutoff is at least 1; at
    # cutoff 0 Serre still needs mode 1, so it builds its own
    import gtyang.modes as modes

    cutoffs = []
    build = modes.build_mode_operators

    def recorded(data, cutoff):
        cutoffs.append(cutoff)
        return build(data, cutoff)

    monkeypatch.setattr(modes, "build_mode_operators", recorded)
    argv = ["verify", "--n", "4", "--p", "2", "--lambda", "2", "--format", "csv"]
    if cutoff is not None:
        argv += ["--mode-cutoff", cutoff]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert cutoffs == built


def test_verify_all_builds_the_closed_table_once(capsys, monkeypatch):
    # the hysteresis and localization suites compare against one closed-form
    # edge table
    import gtyang.modes as modes

    calls = []
    build = modes.amplitude_table

    def recorded(states, eps):
        calls.append(states[0][:3])  # the (n, p, lambda) of the module
        return build(states, eps)

    monkeypatch.setattr(modes, "amplitude_table", recorded)
    argv = ["verify", "--n", "4", "--p", "2", "--lambda", "2", "--mode-cutoff", "1"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [(4, 2, 2)]


def test_negative_cutoff_is_refused_by_the_serre_suite(capsys):
    # serre runs on modes 0 and 1 at any cutoff, but -1 is still no cutoff
    argv = ["verify", "--suite", "serre", "--mode-cutoff", "-1"]
    code, out, err = run(capsys, *argv, "--n", "3", "--p", "1", "--lambda", "2")
    assert (code, out, err) == (2, "", "error: cutoff must be non-negative\n")


def test_negative_cutoff_is_refused_before_any_suite_runs(capsys, monkeypatch):
    import gtyang.modes as modes

    calls = []
    check = modes.verify_constraints

    def recorded(data):
        calls.append(data)
        return check(data)

    monkeypatch.setattr(modes, "verify_constraints", recorded)
    argv = ["verify", "--mode-cutoff", "-1", "--n", "3", "--p", "1", "--lambda", "2"]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (2, "error: cutoff must be non-negative\n")
    assert calls == []


def _loaded_by_cli_import(env) -> set:
    """The modules a fresh interpreter holds after ``import gtyang.cli`` and
    not before it."""
    probe = "import sys; {} print(' '.join(sorted(sys.modules)))"

    def loaded(code):
        cmd = [sys.executable, "-c", probe.format(code)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
        return set(out.stdout.split())

    added = loaded("import gtyang.cli;") - loaded("")
    assert "gtyang.cli" in added
    return added


def test_cli_import_loads_no_dataclasses(cli_env):
    """Every CLI call pays the import of gtyang.cli, so it must not pull in
    ``dataclasses`` or the ``inspect`` module that comes with it."""
    assert not {"dataclasses", "inspect"} & _loaded_by_cli_import(cli_env)


def test_cli_import_loads_no_json(cli_env):
    # only JSON output imports it: CSV output and plain `dims` never pay for it
    assert "json" not in _loaded_by_cli_import(cli_env)


def test_named_tuples_hold_evaluated_annotations():
    """Under ``from __future__ import annotations`` a NamedTuple field's
    annotation is a string, which ``typing`` compiles into a ForwardRef at
    every import. Every record of every gtyang module is found here, so a new
    one in a module with postponed annotations fails too."""
    import importlib
    import pkgutil
    import typing

    import gtyang

    records = {}
    for info in pkgutil.iter_modules(gtyang.__path__):
        module = importlib.import_module(f"gtyang.{info.name}")
        for name, obj in vars(module).items():
            is_record = isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            if is_record and obj.__module__ == module.__name__:
                records[f"{module.__name__}.{name}"] = obj
    assert {"gtyang.patterns.GTPattern", "gtyang.modes.RelationReport"} <= set(records)
    unevaluated = [
        f"{qualname}.{field}"
        for qualname, record in records.items()
        for field, hint in vars(record).get("__annotations__", {}).items()
        if isinstance(hint, (str, typing.ForwardRef))
    ]
    assert unevaluated == []


def test_main_freezes_the_heap_and_run_cli_does_not(cli_env, capsys):
    """``main`` freezes every live object before ``sys.exit``, so the
    shutdown collections skip them; ``run_cli``, which tests and the bench's
    traced pass call in-process, leaves the collector as it found it."""
    probe = "\n".join(
        [
            "import atexit, gc, sys",
            "from gtyang import cli",
            "before = gc.get_freeze_count()",
            "atexit.register(lambda: print(before, gc.get_freeze_count() > 0, file=sys.stderr))",
            "sys.argv = ['gtyang', 'dims', '--n', '3', '--p', '1', '--lambda', '1']",
            "cli.main()",
        ]
    )
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env)
    assert (child.returncode, child.stdout, child.stderr) == (0, "3\n", "0 True\n")

    before = gc.get_freeze_count()
    assert run(capsys, "dims", "--n", "3", "--p", "1", "--lambda", "1") == (0, "3\n", "")
    assert gc.get_freeze_count() == before


def test_entry_point_exit_codes(cli_env):
    """``python -m gtyang.cli`` exits with the code of ``run_cli``: 0 on
    success, 1 when a check fails, 2 on a usage error."""

    def entry(*argv):
        cmd = [sys.executable, "-m", "gtyang.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=cli_env)

    done = entry("dims", "--n", "3", "--p", "1", "--lambda", "1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "3\n", "")
    # (5,2,2) has uncalibrated localization cells
    failed = entry("verify", "--suite", "localization", "--n", "5", "--p", "2", "--lambda", "2")
    assert (failed.returncode, json.loads(failed.stdout)["passed"]) == (1, False)
    assert "FAIL localization-uncalibrated (28 checks)\n" in failed.stderr
    refused = entry("dims", "--n", "x", "--p", "1", "--lambda", "1")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr == "error: bad integer literal 'x'\n"


def test_scaled_chain_edge_fails_the_reductions_suite(capsys, monkeypatch):
    # the chain restriction reads E and F from the module's edge table, not
    # from the closed forms directly
    import gtyang.modes as modes

    build = modes.amplitude_table

    def scaled(*args):
        table = build(*args)
        for (pat, k, j), (e, f) in table.items():
            if k == 1:
                table[pat, k, j] = 3 * e, 3 * f
        return table

    monkeypatch.setattr(modes, "amplitude_table", scaled)
    grid = ["--n", "3", "--p", "1", "--lambda", "2"]
    code, out, err = run(capsys, "verify", "--suite", "reductions", "--format", "csv", *grid)
    assert code == 1
    assert out.splitlines()[1:] == [
        "chain-lower,3,4,fail",
        "chain-psi,3,0,pass",
        "chain-raise,2,2,fail",
        "dim-conjugation,2,0,pass",
    ]
    assert "FAIL chain-raise (2 checks)\n" in err and "FAIL chain-lower (3 checks)\n" in err


def test_zeroed_edge_fails_the_vanishing_check(capsys, monkeypatch):
    # negative control: an in-cone raising amplitude of 0 in the edge table
    # must fail `vanishing`
    import gtyang.modes as modes

    build = modes.amplitude_table

    def zeroed(*args):
        table = build(*args)
        key = next(iter(table))
        table[key] = 0, table[key][1]
        return table

    monkeypatch.setattr(modes, "amplitude_table", zeroed)
    grid = ["--n", "3", "--p", "1", "--lambda", "2"]
    code, out, err = run(capsys, "verify", "--suite", "hysteresis", "--format", "csv", *grid)
    assert code == 1
    assert "vanishing,12,1,fail" in out.splitlines()
    assert "FAIL vanishing (12 checks)\n" in err
