"""Finite mode-operator matrices and the exact relation verifier.

Every generator of the algebra acts on a rectangular module as an exact
matrix over the pattern basis; modes come from expanding the pole ansatz.
All verifications here are exact matrix identities with rational entries,
reported relation by relation with their worst residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from gtyang.amplitudes import amplitude_E, amplitude_F, psi_closed_form, psi_generic
from gtyang.linalg import RationalMatrix
from gtyang.patterns import enumerate_patterns, lower_pole, raise_pole, rectangular_dimension
from gtyang.quiver import EquivariantParams, InvalidParams, build_quiver, bond_factor
from gtyang.rational import FactoredRatFunc

Rat = Fraction


@dataclass(frozen=True)
class ModeOperator:
    kind: str  # "e", "f" or "psi"
    node: int
    mode: int
    matrix: RationalMatrix


@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    params: dict = field(compare=False)
    residual: Rat = Fraction(0)

    @property
    def passed(self) -> bool:
        return self.residual == 0


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)


def build_mode_operators(
    n: int, p: int, lam: int, params: EquivariantParams, cutoff: int
) -> list[ModeOperator]:
    """Sparse matrices of every mode: raising/lowering through ``cutoff``,
    diagonal modes through ``2 * cutoff`` so products stay checkable. Each
    raising/lowering mode is assembled from its (row, col, amplitude *
    pole**mode) triples."""
    if params.h != 0:
        raise InvalidParams("mode operators are defined at h = 0")
    if cutoff < 0:
        raise InvalidParams("cutoff must be non-negative")
    states = enumerate_patterns(n, p, lam)
    index = {pat: i for i, pat in enumerate(states)}
    dim = len(states)
    ops: list[ModeOperator] = []
    for node in range(1, n):
        raises = []  # (row, col, amplitude, pole)
        lowers = []
        for col, pat in enumerate(states):
            a, b = pat.window(node)
            for j in range(a, b + 1):
                up = pat.bumped(j, node, +1)
                if up is not None:
                    raises.append(
                        (index[up], col, amplitude_E(pat, node, j, params).value,
                         raise_pole(pat, node, j, params))
                    )
                down = pat.bumped(j, node, -1)
                if down is not None:
                    lowers.append(
                        (index[down], col, amplitude_F(pat, node, j, params).value,
                         lower_pole(pat, node, j, params))
                    )
        for mode in range(cutoff + 1):
            for kind, moves in (("e", raises), ("f", lowers)):
                mat = RationalMatrix.from_triples(
                    dim, dim, ((row, col, amp * pole**mode) for row, col, amp, pole in moves)
                )
                ops.append(ModeOperator(kind, node, mode, mat))
        series = [
            psi_closed_form(pat, node, params).value.series_at_infinity(2 * cutoff)
            for pat in states
        ]
        for mode in range(2 * cutoff + 1):
            diag = [s.coefficients[mode] for s in series]
            ops.append(ModeOperator("psi", node, mode, RationalMatrix.diagonal(diag)))
    return ops


def _op_table(ops) -> dict:
    return {(op.kind, op.node, op.mode): op.matrix for op in ops}


def _comm(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a * b - b * a


def _detect_sign(candidates) -> int | None:
    """Uniform sign s with lhs = s * rhs, read off the first nonzero entry
    (row-major) of the first nonzero rhs."""
    for lhs, rhs in candidates:
        for r, c, v in rhs.nonzeros():
            ratio = lhs[r, c] / v
            return int(ratio) if ratio in (1, -1) else None
    return None


def verify_mode_relations(ops, cartan, params: EquivariantParams) -> list[RelationReport]:
    """Quadratic relations in Cartan-matrix form, the pairing of raising
    against lowering modes, and the boundary action of the zeroth diagonal
    mode (whose global sign is detected and reported, not assumed).

    Every product of two operators, keyed by their (kind, node, mode), is
    computed once per call and shared by all the checks that use it."""
    table = _op_table(ops)
    nodes = sorted({node for _, node, _ in table})
    cutoff = max(mode for kind, _, mode in table if kind == "e")
    eps = params.epsilon
    reports: list[RelationReport] = []
    products: dict[tuple, RationalMatrix] = {}

    def prod(x, y) -> RationalMatrix:
        if (x, y) not in products:
            products[(x, y)] = table[x] * table[y]
        return products[(x, y)]

    def comm(x, y) -> RationalMatrix:
        return prod(x, y) - prod(y, x)

    def anti(x, y) -> RationalMatrix:
        return prod(x, y) + prod(y, x)

    def emit(rel_id, residual, **info):
        reports.append(RelationReport(rel_id, info, residual))

    half = eps / 2
    for a in nodes:
        for b in nodes:
            coupling = half * cartan[a - 1][b - 1]
            for n_mode in range(cutoff):
                for k_mode in range(cutoff):
                    for x_kind, kind, sign in (
                        ("e", "e", 1), ("f", "f", -1), ("psi", "e", 1), ("psi", "f", -1)
                    ):
                        x_n, x_n1 = (x_kind, a, n_mode), (x_kind, a, n_mode + 1)
                        y_k, y_k1 = (kind, b, k_mode), (kind, b, k_mode + 1)
                        res = (
                            comm(x_n1, y_k)
                            - comm(x_n, y_k1)
                            - anti(x_n, y_k).scaled(sign * coupling)
                        )
                        emit(f"{x_kind}{kind}", res.max_abs(), a=a, b=b, n=n_mode, k=k_mode)
            for n_mode in range(cutoff + 1):
                for k_mode in range(cutoff + 1):
                    res = comm(("psi", a, n_mode), ("psi", b, k_mode))
                    emit("psipsi", res.max_abs(), a=a, b=b, n=n_mode, k=k_mode)

    # pairing sign: [e_n, f_k] = sign * psi_{n+k} on the diagonal node pair
    pairing = []
    for a in nodes:
        for n_mode in range(cutoff + 1):
            for k_mode in range(cutoff + 1):
                lhs = comm(("e", a, n_mode), ("f", a, k_mode))
                pairing.append((lhs, table[("psi", a, n_mode + k_mode)]))
    pairing_sign = _detect_sign(pairing) or 1
    idx = 0
    for a in nodes:
        for n_mode in range(cutoff + 1):
            for k_mode in range(cutoff + 1):
                lhs, rhs = pairing[idx]
                idx += 1
                emit(
                    "ef-pairing",
                    (lhs - rhs.scaled(pairing_sign)).max_abs(),
                    a=a,
                    b=a,
                    n=n_mode,
                    k=k_mode,
                    sign=pairing_sign,
                )
        for b in nodes:
            if b == a:
                continue
            for n_mode in range(cutoff + 1):
                for k_mode in range(cutoff + 1):
                    res = comm(("e", a, n_mode), ("f", b, k_mode))
                    emit("ef-offdiag", res.max_abs(), a=a, b=b, n=n_mode, k=k_mode)

    # boundary: [psi_0, e_k] = s * A_ab e_k and [psi_0, f_k] = -s * A_ab f_k
    boundary = []
    for a in nodes:
        for b in nodes:
            for k_mode in range(cutoff + 1):
                lhs = comm(("psi", a, 0), ("e", b, k_mode))
                boundary.append((lhs, table[("e", b, k_mode)].scaled(cartan[a - 1][b - 1])))
    boundary_sign = _detect_sign(boundary) or 1
    for a in nodes:
        for b in nodes:
            coupling = cartan[a - 1][b - 1]
            for k_mode in range(cutoff + 1):
                res_e = comm(("psi", a, 0), ("e", b, k_mode)) - table[
                    ("e", b, k_mode)
                ].scaled(boundary_sign * coupling)
                emit("boundary-e", res_e.max_abs(), a=a, b=b, k=k_mode, sign=boundary_sign)
                res_f = comm(("psi", a, 0), ("f", b, k_mode)) + table[
                    ("f", b, k_mode)
                ].scaled(boundary_sign * coupling)
                emit("boundary-f", res_f.max_abs(), a=a, b=b, k=k_mode, sign=boundary_sign)
    return reports


def verify_serre(ops, params: EquivariantParams, modes=(0, 1)) -> list[RelationReport]:
    """Symmetrized nested commutators: triple for neighbouring nodes,
    plain commutators for distance two or more."""
    table = _op_table(ops)
    nodes = sorted({node for _, node, _ in table})
    reports = []
    for kind in ("e", "f"):
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                if abs(a - b) == 1:
                    for n1 in modes:
                        for n2 in modes:
                            for m in modes:
                                total = None
                                for s1, s2 in ((n1, n2), (n2, n1)):
                                    term = _comm(
                                        table[(kind, a, s1)],
                                        _comm(table[(kind, a, s2)], table[(kind, b, m)]),
                                    )
                                    total = term if total is None else total + term
                                reports.append(
                                    RelationReport(
                                        f"serre-{kind}",
                                        {"a": a, "b": b, "modes": (n1, n2, m)},
                                        total.max_abs(),
                                    )
                                )
                else:
                    for n1 in modes:
                        for m in modes:
                            res = _comm(table[(kind, a, n1)], table[(kind, b, m)])
                            reports.append(
                                RelationReport(
                                    f"serre-{kind}-far",
                                    {"a": a, "b": b, "modes": (n1, m)},
                                    res.max_abs(),
                                )
                            )
    return reports


def _bond_parts(spec, a, b, x, params) -> tuple[Rat, Rat]:
    """Exchange function at argument x as an exact (numerator, denominator)
    pair, so coincident poles stay cross-multipliable."""
    phi = bond_factor(spec, a, b, params)
    num = phi.scalar
    den = Fraction(1)
    for r in phi.num_roots:
        num *= x - r
    for r in phi.den_roots:
        den *= x - r
    return num, den


def verify_hysteresis(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    """The four consistency identities tying amplitudes, bond factors and
    residues together, checked on every state and every admissible pair."""
    spec = build_quiver(n, p, lam)
    states = enumerate_patterns(n, p, lam)
    reports = []

    def E(pat, k, j):
        return amplitude_E(pat, k, j, params).value

    def Fv(pat, k, j):
        return amplitude_F(pat, k, j, params).value

    for pat in states:
        movelist = []
        for k in range(1, n):
            a, b = pat.window(k)
            movelist.extend((k, j) for j in range(a, b + 1))
        psi = {k: psi_closed_form(pat, k, params).value for k in range(1, n)}
        for k, j in movelist:
            up = pat.bumped(j, k, +1)
            if up is None:
                continue
            product = E(pat, k, j) * Fv(up, k, j)
            residual = product - psi[k].residue_simple(raise_pole(pat, k, j, params))
            reports.append(
                RelationReport("residue", {"state": pat.free_values, "move": (k, j)}, abs(residual))
            )
        for k1, j1 in movelist:
            up1 = pat.bumped(j1, k1, +1)
            if up1 is None:
                continue
            for k2, j2 in movelist:
                if (k1, j1) == (k2, j2):
                    continue
                both = up1.bumped(j2, k2, +1)
                lhs = E(up1, k2, j2) * Fv(both, k1, j1) if both is not None else Fraction(0)
                rhs = Fv(up1, k1, j1) * E(pat, k2, j2)
                reports.append(
                    RelationReport(
                        "exchange",
                        {"state": pat.free_values, "moves": ((k1, j1), (k2, j2))},
                        abs(lhs - rhs),
                    )
                )
                up2 = pat.bumped(j2, k2, +1)
                if up2 is None or both is None:
                    continue
                x = raise_pole(pat, k1, j1, params) - raise_pole(pat, k2, j2, params)
                num, den = _bond_parts(spec, k1, k2, x, params)
                lhs = E(pat, k1, j1) * E(up1, k2, j2) * num
                rhs = E(pat, k2, j2) * E(up2, k1, j1) * den
                reports.append(
                    RelationReport(
                        "raise-ratio",
                        {"state": pat.free_values, "moves": ((k1, j1), (k2, j2))},
                        abs(lhs - rhs),
                    )
                )
                lhs = Fv(both, k2, j2) * Fv(up1, k1, j1) * num
                rhs = Fv(both, k1, j1) * Fv(up2, k2, j2) * den
                reports.append(
                    RelationReport(
                        "lower-ratio",
                        {"state": pat.free_values, "moves": ((k1, j1), (k2, j2))},
                        abs(lhs - rhs),
                    )
                )
    return reports


def verify_pole_classification(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    """Poles of the cancelled eigenvalue function against candidate moves,
    and exact vanishing of amplitudes toward invalid patterns."""
    from gtyang.patterns import add_remove_sets

    reports = []
    for pat in enumerate_patterns(n, p, lam):
        for k in range(1, n):
            add, rem = add_remove_sets(pat, k, params)
            expected = sorted(pole for _, pole in add + rem)
            value = psi_closed_form(pat, k, params).value
            match = sorted(value.den_roots) == expected
            reports.append(
                RelationReport(
                    "pole-set", {"state": pat.free_values, "node": k}, Fraction(0 if match else 1)
                )
            )
            a, b = pat.window(k)
            for j in range(a, b + 1):
                e_val = amplitude_E(pat, k, j, params).value
                f_val = amplitude_F(pat, k, j, params).value
                ok_e = (e_val != 0) == (pat.bumped(j, k, +1) is not None)
                ok_f = (f_val != 0) == (pat.bumped(j, k, -1) is not None)
                reports.append(
                    RelationReport(
                        "vanishing",
                        {"state": pat.free_values, "move": (k, j)},
                        Fraction(0 if (ok_e and ok_f) else 1),
                    )
                )
    return reports


def verify_reductions(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    """Chain restriction onto the one-node module and the conjugation
    symmetry of the state counts."""
    if p != 1:
        raise InvalidParams("the chain restriction starts from p = 1")
    eps = params.epsilon
    reports = []
    for m in range(lam + 1):
        free = [m] + [0] * sum(
            b - a + 1 for a, b in ((max(1, k - p + 1), min(n - p, k)) for k in range(2, n))
        )
        from gtyang.patterns import build_pattern

        pat = build_pattern(n, p, lam, free)
        if m < lam:
            e_val = amplitude_E(pat, 1, 1, params).value
            reports.append(
                RelationReport("chain-raise", {"n": m}, abs(e_val - Fraction(-1) / eps))
            )
        f_val = amplitude_F(pat, 1, 1, params).value
        expected_f = -m * (lam - m + 1) * eps
        reports.append(RelationReport("chain-lower", {"n": m}, abs(f_val - expected_f)))
        psi = psi_closed_form(pat, 1, params).value
        chain_form = FactoredRatFunc.make(
            1, [lam * eps, -eps], [m * eps, (m - 1) * eps]
        )
        match = psi.scaled(-eps) == chain_form
        reports.append(RelationReport("chain-psi", {"n": m}, Fraction(0 if match else 1)))
    for q in range(1, n):
        same = rectangular_dimension(n, q, lam) == rectangular_dimension(n, n - q, lam)
        reports.append(RelationReport("dim-conjugation", {"p": q}, Fraction(0 if same else 1)))
    return reports


def verify_dual_routes(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    """Atom-product route against the level-free closed form, per state/node."""
    reports = []
    for pat in enumerate_patterns(n, p, lam):
        for k in range(1, n):
            same = psi_generic(pat, k, params).value == psi_closed_form(pat, k, params).value
            reports.append(
                RelationReport(
                    "psi-routes", {"state": pat.free_values, "node": k}, Fraction(0 if same else 1)
                )
            )
    return reports


def verify_gelfand(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    from gtyang.amplitudes import gelfand_squared, gelfand_squared_closed_form

    reports = []
    for pat in enumerate_patterns(n, p, lam):
        for k in range(1, n):
            a, b = pat.window(k)
            for j in range(a, b + 1):
                for direction in ("raise", "lower"):
                    lhs = gelfand_squared(pat, k, j, direction, params)
                    rhs = gelfand_squared_closed_form(pat, k, j, direction, params)
                    reports.append(
                        RelationReport(
                            "gelfand-square",
                            {"state": pat.free_values, "move": (k, j, direction)},
                            abs(lhs - rhs),
                        )
                    )
    return reports


def verify_localization(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    from gtyang.localization import UncalibratedCell, localize_module

    reports = []
    for (pat, k, j), cell in localize_module(n, p, lam, params).items():
        if isinstance(cell, UncalibratedCell):
            res = Fraction(1)
            rel_id = "localization-uncalibrated"
        else:
            e_loc, f_loc = cell
            target = pat.bumped(j, k, +1)
            res = abs(e_loc - amplitude_E(pat, k, j, params).value) + abs(
                f_loc - amplitude_F(target, k, j, params).value
            )
            rel_id = "localization"
        reports.append(RelationReport(rel_id, {"state": pat.free_values, "move": (k, j)}, res))
    return reports


def verify_constraints(n, p, lam, params: EquivariantParams) -> list[RelationReport]:
    from gtyang.quiver import check_constraints

    spec = build_quiver(n, p, lam, all_framings=True)
    report = check_constraints(spec, params)
    out = []
    for idx, form, _ in report.loop_weight_residuals:
        out.append(
            RelationReport("loop-weight", {"loop": idx}, abs(form.c_eps) + abs(form.c_h))
        )
    for idx, r in report.loop_rcharge_residuals:
        out.append(RelationReport("loop-rcharge", {"loop": idx}, Fraction(abs(r))))
    total_eps = sum(form.c_eps for _, form, _ in report.vertex_residuals)
    total_h = sum(form.c_h for _, form, _ in report.vertex_residuals)
    out.append(RelationReport("vertex-sum", {}, abs(total_eps) + abs(total_h)))
    return out
