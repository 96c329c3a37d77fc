"""Command line interface with deterministic JSON/CSV output.

Subcommands expose state enumeration, eigenvalue functions, amplitude
tables (closed-form or localization route), mode matrices and the full
verification suites. Identical invocations produce byte-identical output;
every rational is rendered as an integer-or-P/Q string.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from gtyang import modes as modes_mod
from gtyang.amplitudes import amplitude_E, amplitude_F, psi_closed_form
from gtyang.patterns import (
    enumerate_patterns,
    format_pattern,
    parse_pattern,
    rectangular_dimension,
)
from gtyang.quiver import EquivariantParams, InvalidParams, cartan_matrix

USAGE_ERROR = 2


def fmt_rat(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"bad rational literal {text!r}") from exc


def _common_flags(sub, need_pattern=False):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--lambda", dest="lam", type=int, required=True)
    sub.add_argument("--epsilon", default="1")
    sub.add_argument("--h", default="0")
    sub.add_argument("--mode-cutoff", type=int, default=3)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None)
    if need_pattern:
        sub.add_argument("--pattern", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtyang",
        description="exact rectangular modules of A-type quiver Yangians",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, need_pattern in (
        ("dims", False),
        ("states", False),
        ("psi", True),
        ("amplitudes", False),
        ("modes", False),
        ("verify", False),
    ):
        sub = subs.add_parser(name)
        _common_flags(sub, need_pattern)
        if name == "amplitudes":
            sub.add_argument("--method", choices=("closed", "localization"), default="closed")
        if name == "verify":
            sub.add_argument(
                "--suite",
                choices=(
                    "constraints",
                    "hysteresis",
                    "modes",
                    "serre",
                    "gelfand",
                    "localization",
                    "reductions",
                    "all",
                ),
                default="all",
            )
    return parser


def _params(args) -> EquivariantParams:
    return EquivariantParams(parse_rat(args.epsilon), parse_rat(args.h))


def _bundle_header(args, params) -> dict:
    return {
        "n": args.n,
        "p": args.p,
        "lambda": args.lam,
        "epsilon": fmt_rat(params.epsilon),
        "h": fmt_rat(params.h),
    }


def _states_payload(states) -> list:
    return [{"id": i, "pattern": format_pattern(pat)} for i, pat in enumerate(states)]


def _emit(args, text: str) -> None:
    if args.out:
        try:
            handle = open(args.out, "w")
        except OSError as exc:
            raise InvalidParams(f"cannot write {args.out}: {exc.strerror}") from exc
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_dims(args) -> int:
    params = _params(args)
    dim = rectangular_dimension(args.n, args.p, args.lam)
    if args.format == "csv":
        _emit(args, "n,p,lambda,dimension\n" f"{args.n},{args.p},{args.lam},{dim}\n")
    elif args.out:
        _emit_json(args, {"params": _bundle_header(args, params), "dimension": dim})
    else:
        _emit(args, f"{dim}\n")
    return 0


def cmd_states(args) -> int:
    params = _params(args)
    states = enumerate_patterns(args.n, args.p, args.lam)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("id,pattern\n")
        for i, pat in enumerate(states):
            buf.write(f"{i},{format_pattern(pat)}\n")
        _emit(args, buf.getvalue())
    else:
        _emit_json(
            args,
            {"params": _bundle_header(args, params), "states": _states_payload(states)},
        )
    return 0


def _psi_entry(pat, node, params, state_id) -> dict:
    value = psi_closed_form(pat, node, params).value
    return {
        "state": state_id,
        "node": node,
        "scalar": fmt_rat(value.scalar),
        "num_roots": [fmt_rat(r) for r in value.num_roots],
        "den_roots": [fmt_rat(r) for r in value.den_roots],
    }


def cmd_psi(args) -> int:
    params = _params(args)
    if params.h != 0:
        raise InvalidParams("eigenvalue functions are computed at h = 0")
    states = enumerate_patterns(args.n, args.p, args.lam)
    if args.pattern is not None:
        chosen = parse_pattern(args.pattern, args.n, args.p, args.lam)
        index = {pat: i for i, pat in enumerate(states)}
        rows = [_psi_entry(chosen, k, params, index[chosen]) for k in range(1, args.n)]
    else:
        rows = [
            _psi_entry(pat, k, params, i)
            for i, pat in enumerate(states)
            for k in range(1, args.n)
        ]
    _emit_json(
        args,
        {
            "params": _bundle_header(args, params),
            "states": _states_payload(states),
            "psi": rows,
        },
    )
    return 0


def _amplitude_rows(args, params, states, localized=None) -> list:
    """E and F rows per state, node and type; with a localization table E is
    read from the state's own raising move and F from the move that raises
    into the state, 0 where no such move exists."""
    rows = []
    for i, pat in enumerate(states):
        for k in range(1, args.n):
            a, b = pat.window(k)
            for j in range(a, b + 1):
                if localized is None:
                    e_val = amplitude_E(pat, k, j, params).value
                    f_val = amplitude_F(pat, k, j, params).value
                else:
                    e_val = localized.get((pat, k, j), (0, 0))[0]
                    f_val = localized.get((pat.bumped(j, k, -1), k, j), (0, 0))[1]
                rows.append(
                    {"state": i, "node": k, "type": j, "kind": "E", "value": fmt_rat(e_val)}
                )
                rows.append(
                    {"state": i, "node": k, "type": j, "kind": "F", "value": fmt_rat(f_val)}
                )
    return rows


def cmd_amplitudes(args) -> int:
    params = _params(args)
    if params.h != 0:
        raise InvalidParams("amplitudes are computed at h = 0")
    states = enumerate_patterns(args.n, args.p, args.lam)
    localized = None
    if args.method == "localization":
        from gtyang.localization import UncalibratedCell, localize_module

        localized = localize_module(args.n, args.p, args.lam, params)
        for (pat, k, j), cell in localized.items():
            if isinstance(cell, UncalibratedCell):
                # a valid input whose value the route cannot determine: no
                # partial table, and not a usage error
                print(
                    f"error: localization leaves the move at state {format_pattern(pat)}, "
                    f"node {k}, type {j} undetermined: {cell}",
                    file=sys.stderr,
                )
                return 1
    rows = _amplitude_rows(args, params, states, localized)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("state_id,node,type,kind,value\n")
        for row in rows:
            buf.write(f"{row['state']},{row['node']},{row['type']},{row['kind']},{row['value']}\n")
        _emit(args, buf.getvalue())
    else:
        _emit_json(
            args,
            {
                "params": _bundle_header(args, params),
                "states": _states_payload(states),
                "amplitudes": rows,
            },
        )
    return 0


def cmd_modes(args) -> int:
    params = _params(args)
    if params.h != 0:
        raise InvalidParams("mode operators are computed at h = 0")
    states = enumerate_patterns(args.n, args.p, args.lam)
    ops = modes_mod.build_mode_operators(args.n, args.p, args.lam, params, args.mode_cutoff)
    payload = []
    for op in ops:
        entries = [[r, c, fmt_rat(v)] for r, c, v in op.matrix.nonzeros()]
        payload.append({"kind": op.kind, "node": op.node, "mode": op.mode, "entries": entries})
    payload.sort(key=lambda item: (item["kind"], item["node"], item["mode"]))
    _emit_json(
        args,
        {
            "params": _bundle_header(args, params),
            "states": _states_payload(states),
            "modes": payload,
        },
    )
    return 0


def _run_suites(args, params) -> list:
    n, p, lam = args.n, args.p, args.lam
    chosen = args.suite
    reports = []

    def want(name):
        return chosen in (name, "all")

    if want("constraints"):
        reports += modes_mod.verify_constraints(n, p, lam, params)
    if want("hysteresis"):
        reports += modes_mod.verify_hysteresis(n, p, lam, params)
        reports += modes_mod.verify_pole_classification(n, p, lam, params)
        reports += modes_mod.verify_dual_routes(n, p, lam, params)
    if want("modes"):
        ops = modes_mod.build_mode_operators(n, p, lam, params, args.mode_cutoff)
        reports += modes_mod.verify_mode_relations(ops, cartan_matrix(n), params)
    if want("serre"):
        ops = modes_mod.build_mode_operators(n, p, lam, params, max(args.mode_cutoff, 1))
        reports += modes_mod.verify_serre(ops, params)
    if want("gelfand"):
        reports += modes_mod.verify_gelfand(n, p, lam, params)
    if want("localization"):
        reports += modes_mod.verify_localization(n, p, lam, params)
    if want("reductions"):
        if p == 1:
            reports += modes_mod.verify_reductions(n, p, lam, params)
        elif chosen == "reductions":
            raise InvalidParams("the reduction suite needs p = 1")
    return reports


def cmd_verify(args) -> int:
    params = _params(args)
    reports = _run_suites(args, params)
    grouped: dict[str, tuple[int, Fraction]] = {}
    for report in reports:
        count, worst = grouped.get(report.relation_id, (0, Fraction(0)))
        grouped[report.relation_id] = (count + 1, max(worst, report.residual))
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("relation,checks,max_residual,status\n")
        for rel_id in sorted(grouped):
            count, worst = grouped[rel_id]
            status = "pass" if worst == 0 else "fail"
            buf.write(f"{rel_id},{count},{fmt_rat(worst)},{status}\n")
        _emit(args, buf.getvalue())
    else:
        payload = {
            "params": _bundle_header(args, params),
            "suite": args.suite,
            "reports": [
                {
                    "relation": rel_id,
                    "checks": grouped[rel_id][0],
                    "max_residual": fmt_rat(grouped[rel_id][1]),
                    "passed": grouped[rel_id][1] == 0,
                }
                for rel_id in sorted(grouped)
            ],
            "passed": all(worst == 0 for _, worst in grouped.values()),
        }
        _emit_json(args, payload)
    for rel_id in sorted(grouped):
        count, worst = grouped[rel_id]
        status = "PASS" if worst == 0 else "FAIL"
        print(f"{status} {rel_id} ({count} checks)", file=sys.stderr)
    return 0 if all(worst == 0 for _, worst in grouped.values()) else 1


COMMANDS = {
    "dims": cmd_dims,
    "states": cmd_states,
    "psi": cmd_psi,
    "amplitudes": cmd_amplitudes,
    "modes": cmd_modes,
    "verify": cmd_verify,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
