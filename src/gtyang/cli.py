"""Command line interface with deterministic JSON/CSV output.

Subcommands expose state enumeration, eigenvalue functions, amplitude
tables (closed-form or localization route), mode matrices and the full
verification suites. Identical invocations produce byte-identical output;
every rational is rendered as an integer-or-P/Q string.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from fractions import Fraction

from gtyang import modes as modes_mod
from gtyang.patterns import format_pattern, parse_pattern, rectangular_dimension
from gtyang.quiver import EquivariantParams, InvalidParams

USAGE_ERROR = 2


# the one grammar of an integer, an optional minus and digits, and of a
# rational, an integer with optional /digits
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + r"(/[0-9]+)?")


def parse_rat(text: str) -> Fraction:
    try:
        if _RATIONAL.fullmatch(text):
            return Fraction(text)
    except ZeroDivisionError:
        pass
    raise InvalidParams(f"bad rational literal {text!r}")


def parse_int(text: str) -> int:
    if _INTEGER.fullmatch(text):
        return int(text)
    raise InvalidParams(f"bad integer literal {text!r}")


def parse_cutoff(text: str) -> int:
    # refused before any work: `serre` alone would run at a cutoff of 1
    cutoff = parse_int(text)
    if cutoff < 0:
        raise InvalidParams("cutoff must be non-negative")
    return cutoff


# every numeric flag, flag -> (dest, grammar), in the order they are parsed
NUMERIC_FLAGS = {
    "--n": ("n", parse_int),
    "--p": ("p", parse_int),
    "--lambda": ("lam", parse_int),
    "--mode-cutoff": ("mode_cutoff", parse_cutoff),
    "--epsilon": ("epsilon", parse_rat),
    "--h": ("h", parse_rat),
}


def _common_flags(sub):
    sub.add_argument("--n", required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument("--lambda", dest="lam", required=True)
    sub.add_argument("--epsilon", default="1")
    sub.add_argument("--h", default="0")
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtyang",
        description="exact rectangular modules of A-type quiver Yangians",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("dims", "states", "psi", "amplitudes", "modes", "verify"):
        # one spelling per flag: a prefix would bypass `_join_negative_values`
        sub = subs.add_parser(name, allow_abbrev=False)
        _common_flags(sub)
        if name in ("dims", "states", "amplitudes", "verify"):
            sub.add_argument("--format", choices=("json", "csv"), default="json")
        if name in ("modes", "verify"):
            sub.add_argument("--mode-cutoff", default="3")
        if name == "psi":
            sub.add_argument("--pattern", default=None)
        if name == "amplitudes":
            sub.add_argument("--method", choices=("closed", "localization"), default="closed")
        if name == "verify":
            sub.add_argument("--suite", choices=(*modes_mod.SUITES, "all"), default="all")
    return parser


def _bundle_header(data) -> dict:
    return {
        "n": data.n,
        "p": data.p,
        "lambda": data.lam,
        "epsilon": str(data.params.epsilon),
        "h": str(data.params.h),
    }


def _emit(args, text: str) -> None:
    if args.out is not None:
        # open, write and close errors alike are one usage error
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    import json  # here, so that CSV and plain output never load it
    _emit(args, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


# a CSV field that holds one of these is quoted
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(value) -> str:
    """RFC 4180: quoted, quotes doubled, when it holds a comma, quote or line break."""
    text = str(value)
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit_csv(args, header, rows) -> None:
    _emit(args, "".join(",".join(map(_csv_field, line)) + "\n" for line in (header, *rows)))


def _emit_bundle(args, data, **table) -> None:
    """The module's params and states, plus the command's table if any."""
    listed = [{"id": i, "pattern": format_pattern(pat)} for i, pat in enumerate(data.states)]
    _emit_json(args, {"params": _bundle_header(data), "states": listed, **table})


def cmd_dims(args, data) -> int:
    dim = rectangular_dimension(data.n, data.p, data.lam)
    if args.format == "csv":
        _emit_csv(args, ("n", "p", "lambda", "dimension"), [(data.n, data.p, data.lam, dim)])
    elif args.out is not None:
        _emit_json(args, {"params": _bundle_header(data), "dimension": dim})
    else:
        _emit(args, f"{dim}\n")
    return 0


def cmd_states(args, data) -> int:
    if args.format == "csv":
        _emit_csv(args, ("id", "pattern"), enumerate(map(format_pattern, data.states)))
    else:
        _emit_bundle(args, data)
    return 0


def _psi_entry(value, node, state_id) -> dict:
    return {
        "state": state_id,
        "node": node,
        "scalar": str(value.scalar),
        "num_roots": [str(r) for r in value.num_roots],
        "den_roots": [str(r) for r in value.den_roots],
    }


def cmd_psi(args, data) -> int:
    states = data.states
    picked = enumerate(states)
    if args.pattern is not None:
        chosen = parse_pattern(args.pattern, data.n, data.p, data.lam)
        picked = [(states.index(chosen), chosen)]
    rows = [_psi_entry(data.psi[pat, k], k, i) for i, pat in picked for k in range(1, data.n)]
    _emit_bundle(args, data, psi=rows)
    return 0


def _amplitude_rows(states, table) -> list:
    """(state, node, type, kind, value) rows, E then F per state and
    candidate move, read from an edge table by ``move_pair``."""
    rows = []
    for i, pat in enumerate(states):
        for k, j in pat.moves:
            e_val, f_val = modes_mod.move_pair(table, pat, k, j)
            rows.append((i, k, j, "E", str(e_val)))
            rows.append((i, k, j, "F", str(f_val)))
    return rows


def cmd_amplitudes(args, data) -> int:
    states = data.states
    if args.method == "localization":
        from gtyang.localization import UncalibratedCell, localize_module

        data.epsilon  # the h = 0 gate, read although this route keeps h symbolic
        table = localize_module(states, data.params)
        for (pat, k, j), cell in table.items():
            if isinstance(cell, UncalibratedCell):
                # a valid input whose value the route cannot determine: no
                # partial table, and not a usage error
                print(
                    f"error: localization leaves the move at state {format_pattern(pat)}, "
                    f"node {k}, type {j} undetermined: {cell}",
                    file=sys.stderr,
                )
                return 1
    else:
        table = data.table
    rows = _amplitude_rows(states, table)
    if args.format == "csv":
        _emit_csv(args, ("state_id", "node", "type", "kind", "value"), rows)
    else:
        keys = ("state", "node", "type", "kind", "value")
        _emit_bundle(args, data, amplitudes=[dict(zip(keys, row)) for row in rows])
    return 0


def cmd_modes(args, data) -> int:
    payload = []
    for (kind, node, mode), matrix in data.operators(args.mode_cutoff).items():
        entries = [[r, c, str(v)] for r, c, v in matrix.nonzeros()]
        payload.append({"kind": kind, "node": node, "mode": mode, "entries": entries})
    _emit_bundle(args, data, modes=payload)
    return 0


def _run_suites(args, data) -> list:
    names = [args.suite]
    if args.suite == "all":
        # the reduction suite is defined only at p = 1
        names = [name for name in modes_mod.SUITES if name != "reductions" or data.p == 1]
        if data.params.h != 0:
            # `all` runs what is defined at this h; a suite named alone still
            # refuses h != 0 as a usage error
            for name in names:
                if name != "constraints":
                    print(f"SKIP {name} (needs h = 0)", file=sys.stderr)
            names = ["constraints"]
    return [r for name in names for r in modes_mod.SUITES[name](data, args.mode_cutoff)]


def cmd_verify(args, data) -> int:
    grouped: dict[str, tuple[int, Fraction]] = {}
    unseen = (0, Fraction(0))
    for report in _run_suites(args, data):
        count, worst = grouped.get(report.relation_id, unseen)
        if report.residual:  # a zero residual never raises the worst
            worst = max(worst, report.residual)
        grouped[report.relation_id] = (count + 1, worst)
    # (relation, checks, max residual, passed), sorted once for every output
    rows = [
        (rel, count, str(worst), worst == 0) for rel, (count, worst) in sorted(grouped.items())
    ]
    passed = all(ok for *_, ok in rows)
    if args.format == "csv":
        header = ("relation", "checks", "max_residual", "status")
        _emit_csv(args, header, [(*row, "pass" if ok else "fail") for *row, ok in rows])
    else:
        keys = ("relation", "checks", "max_residual", "passed")
        reports = [dict(zip(keys, row)) for row in rows]
        payload = {"params": _bundle_header(data), "suite": args.suite, "reports": reports}
        _emit_json(args, {**payload, "passed": passed})
    for rel_id, count, _, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {rel_id} ({count} checks)", file=sys.stderr)
    return 0 if passed else 1


COMMANDS = {
    "dims": cmd_dims,
    "states": cmd_states,
    "psi": cmd_psi,
    "amplitudes": cmd_amplitudes,
    "modes": cmd_modes,
    "verify": cmd_verify,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--epsilon -3/2`` as ``--epsilon=-3/2``, for every numeric
    flag, ``--pattern`` and ``--out`` whose value starts with a minus and a
    digit, so that a malformed value such as ``-1_0`` or ``-1;0`` meets the
    flag's grammar and a path such as ``-1.json`` is written, where argparse
    would take "-3/2", "-1;0" or "-1.json" for an option flag, since only
    integers and decimals look like negative numbers to it. A value with no
    digit after the minus, such as ``--out -x.json``, stays refused: it may
    be a forgotten value followed by a flag."""
    out: list[str] = []
    for token in argv:
        negative = re.match("-[0-9]", token)
        if out and (out[-1] in NUMERIC_FLAGS or out[-1] in ("--pattern", "--out")) and negative:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run_cli(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        for dest, grammar in NUMERIC_FLAGS.values():
            if hasattr(args, dest):
                setattr(args, dest, grammar(getattr(args, dest)))
        params = EquivariantParams(args.epsilon, args.h)
        data = modes_mod.ModuleData(args.n, args.p, args.lam, params)
        return COMMANDS[args.command](args, data)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    code = run_cli()
    # refcounting frees everything at exit anyway; the shutdown collections now
    # skip every live object (not in run_cli, which tests call in-process)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
