"""Finite mode-operator matrices and the exact relation verifier.

Every generator of the algebra acts on a rectangular module as an exact
matrix over the pattern basis; modes come from expanding the pole ansatz.
All verifications here are exact matrix identities with rational entries,
reported relation by relation with their worst residual.
"""

# no postponed annotations: NamedTuple compiles a ForwardRef per string field at import

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

from gtyang.amplitudes import (
    amplitude_table,
    gelfand_squared_closed_form,
    psi_closed_form,
    psi_generic,
)
from gtyang.linalg import RationalMatrix
from gtyang.patterns import GTPattern, enumerate_patterns, pole_units, rectangular_dimension
from gtyang.quiver import (
    ZERO_FORM,
    EquivariantParams,
    InvalidParams,
    InvariantViolation,
    build_quiver,
    check_constraints,
    exchange_roots,
)
from gtyang.rational import FactoredRatFunc, NotAPole, NotASimplePole

Rat = Fraction

# modes of every generator that the Serre relations are checked on
SERRE_MODES = (0, 1)

# shared residuals: every passing check reads ZERO, a check that fails
# outright ONE
ZERO, ONE = Fraction(0), Fraction(1)

# the (E, F) that a move with no edge in the table reads as
NO_EDGE = (ZERO, ZERO)


class RelationReport(NamedTuple):
    relation_id: str
    params: dict
    residual: Rat = ZERO

    @property
    def passed(self) -> bool:
        return self.residual == 0


class ModuleData:
    """One module and its closed-form data, the input of every suite and
    command. Each field is computed at most once, on its first read: the
    states, the edge table of ``amplitude_table``, ``psi_closed_form`` per
    (state, node), the raising pole of each edge (``pole_units`` times
    eps/2, the one pole table that the checks and the modes read), the
    exchange roots of each pair of gauge nodes and the mode-operator table
    of each cutoff. The closed forms are written at h = 0 and take
    ``epsilon``, the one gate that refuses a nonzero h; the states need
    none, and the bonds are read from the quiver at ``params``, whatever h
    is. No independent route reads a closed-form field: ``localize_module`` reads ``states``, ``psi_generic``
    and ``gelfand_squared_closed_form`` nothing."""

    def __init__(self, n: int, p: int, lam: int, params: EquivariantParams):
        self.n = n
        self.p = p
        self.lam = lam
        self.params = params

    @functools.cached_property
    def states(self) -> list[GTPattern]:
        return enumerate_patterns(self.n, self.p, self.lam)

    @functools.cached_property
    def epsilon(self) -> Rat:
        if self.params.h != 0:
            raise InvalidParams(
                "modules are built at h = 0 (only the constraints suite runs at h != 0)"
            )
        return self.params.epsilon

    @functools.cached_property
    def table(self) -> dict[tuple[GTPattern, int, int], tuple[Rat, Rat]]:
        return amplitude_table(self.states, self.epsilon)

    @functools.cached_property
    def psi(self) -> dict[tuple[GTPattern, int], FactoredRatFunc]:
        return {
            (pat, k): psi_closed_form(pat, k, self.epsilon)
            for pat in self.states
            for k in range(1, self.n)
        }

    @functools.cached_property
    def poles(self) -> dict[tuple[GTPattern, int, int], Rat]:
        unit = self.epsilon / 2  # pole_units counts in eps/2
        return {edge: pole_units(*edge) * unit for edge in self.table}

    @functools.cached_property
    def bonds(self) -> dict[tuple[int, int], tuple[tuple[Rat, ...], tuple[Rat, ...]]]:
        """(a, b) -> the numerator and denominator roots of the exchange
        function phi_ab(u) of two gauge nodes, from ``exchange_roots`` at
        ``params``. On the chain two nodes share at most one arrow each way,
        so each bag holds at most one root, and an empty pair is phi = 1."""
        spec, nodes = build_quiver(self.n, self.p, self.lam), range(1, self.n)
        bonds = {}
        for a, b in itertools.product(nodes, nodes):
            bags = exchange_roots(spec, a).get(b, ((), ()))
            if max(map(len, bags)) > 1:
                raise InvariantViolation(f"nodes {a} and {b} share more than one arrow one way")
            bonds[a, b] = tuple(tuple(r.value(self.params) for r in bag) for bag in bags)
        return bonds

    @functools.cached_property
    def operators(self):
        """``operators(cutoff)`` is ``build_mode_operators(self, cutoff)``,
        built once per cutoff."""
        return functools.cache(lambda cutoff: build_mode_operators(self, cutoff))


def move_pair(table, pat: GTPattern, k: int, j: int) -> tuple[Rat, Rat]:
    """(E, F) of the move of type j at node k on ``pat``, read from an edge
    table: E from the state's own raising edge, F from the edge that raises
    its lowering back into the state, 0 where there is no such edge."""
    down = pat.bumped(j, k, -1)
    return table.get((pat, k, j), NO_EDGE)[0], table.get((down, k, j), NO_EDGE)[1]


def build_mode_operators(
    data: ModuleData, cutoff: int
) -> dict[tuple[str, int, int], RationalMatrix]:
    """Sparse matrices of every mode, keyed ``(kind, node, mode)`` in sorted
    order, kind ``"e"``, ``"f"`` or ``"psi"``: raising/lowering through
    ``cutoff``, diagonal modes through ``2 * cutoff`` so products stay
    checkable. Each raising/lowering mode is assembled from the module's
    edges as (row, col, amplitude * pole**mode) triples."""
    if cutoff < 0:
        raise InvalidParams("cutoff must be non-negative")
    states, table, poles = data.states, data.table, data.poles
    index = {pat: i for i, pat in enumerate(states)}
    dim = len(states)
    ops = {}
    # each edge pat -> up has one pole: lowering up sits where raising pat does
    by_node = {node: [] for node in range(1, data.n)}  # (index of up, index of pat, E, F, pole)
    for col, pat in enumerate(states):
        for node, j, up in pat.raises():
            e, f = table[pat, node, j]
            by_node[node].append((index[up], col, e, f, poles[pat, node, j]))
    for node, edges in by_node.items():
        for mode in range(cutoff + 1):
            ops["e", node, mode] = RationalMatrix.from_triples(
                dim, dim, ((hi, lo, e * pole**mode) for hi, lo, e, _, pole in edges)
            )
            ops["f", node, mode] = RationalMatrix.from_triples(
                dim, dim, ((lo, hi, f * pole**mode) for hi, lo, _, f, pole in edges)
            )
        series = [data.psi[pat, node].series_at_infinity(2 * cutoff) for pat in states]
        for mode in range(2 * cutoff + 1):
            ops["psi", node, mode] = RationalMatrix.diagonal([s.coefficients[mode] for s in series])
    return dict(sorted(ops.items()))


def _commutator(x, y, *extra) -> RationalMatrix:
    """``x y - y x`` plus the ``extra`` terms of ``RationalMatrix.combination``,
    as one combination: no product is stored."""
    return RationalMatrix.combination(((1, x, y), (-1, y, x), *extra))


def verify_mode_relations(ops, data: ModuleData) -> list[RelationReport]:
    """Quadratic relations in exchange-function form, the pairing
    [e_n, f_k] = -psi_{n+k} of raising against lowering modes, and the boundary
    action [psi_0, e_k] = -A_ab e_k, [psi_0, f_k] = A_ab f_k of psi_0.

    The exchange function of nodes a and b is
    phi_ab(u) = (u - alpha)/(u - beta), its roots read from
    ``data.bonds[a, b]``; a pair with no arrow (phi = 1) reads
    alpha = beta = 0. The residual of (x, y) = (e, e) and (psi, e) is
    [x_{n+1}, y_k] - [x_n, y_{k+1}] - beta x_n y_k + alpha y_k x_n, alpha and
    beta trade places for (f, f) and (psi, f), and A_ab = (beta - alpha)/eps.

    Each residual is one linear combination of products of two operators
    (and of one operator, for the pairing and boundary), each product added
    into the residual entry by entry, so no product or commutator is stored."""
    nodes = sorted({node for _, node, _ in ops})
    cutoff = max(mode for kind, _, mode in ops if kind == "e")
    modes = range(cutoff + 1)
    reports: list[RelationReport] = []

    def emit(rel_id, residual, **info):
        reports.append(RelationReport(rel_id, info, residual.max_abs()))

    for a, b in itertools.product(nodes, nodes):
        # each bag holds at most one root; an empty one reads 0
        alpha, beta = (sum(bag, ZERO) for bag in data.bonds[a, b])
        a_ab = (beta - alpha) / data.params.epsilon
        forms = (
            ("e", "e", -beta, alpha), ("f", "f", -alpha, beta),
            ("psi", "e", -beta, alpha), ("psi", "f", -alpha, beta),
        )
        for n, k in itertools.product(range(cutoff), range(cutoff)):
            for x_kind, kind, c_xy, c_yx in forms:
                x_n, x_n1 = ops[x_kind, a, n], ops[x_kind, a, n + 1]
                y_k, y_k1 = ops[kind, b, k], ops[kind, b, k + 1]
                # [x_n1, y_k] - [x_n, y_k1] + c_xy x_n y_k + c_yx y_k x_n
                res = _commutator(
                    x_n1, y_k,
                    (-1, x_n, y_k1), (1, y_k1, x_n), (c_xy, x_n, y_k), (c_yx, y_k, x_n),
                )
                emit(f"{x_kind}{kind}", res, a=a, b=b, n=n, k=k)
        for n, k in itertools.product(modes, modes):
            emit("psipsi", _commutator(ops["psi", a, n], ops["psi", b, k]), a=a, b=b, n=n, k=k)
            # pairing on the diagonal node pair, zero off it
            pairing = [(1, ops["psi", a, n + k])] if a == b else []
            rel_id = "ef-pairing" if a == b else "ef-offdiag"
            res = _commutator(ops["e", a, n], ops["f", b, k], *pairing)
            emit(rel_id, res, a=a, b=b, n=n, k=k)
        # boundary action of the zeroth diagonal mode
        for k in modes:
            e_k, f_k = ops["e", b, k], ops["f", b, k]
            emit("boundary-e", _commutator(ops["psi", a, 0], e_k, (a_ab, e_k)), a=a, b=b, k=k)
            emit("boundary-f", _commutator(ops["psi", a, 0], f_k, (-a_ab, f_k)), a=a, b=b, k=k)
    return reports


def verify_serre(ops) -> list[RelationReport]:
    """Symmetrized nested commutators on the modes in ``SERRE_MODES``: triple
    for neighbouring nodes, plain commutators for distance two or more. Each
    inner commutator c = [X_{a,s}, X_{b,m}] is computed once as a matrix, and
    each symmetrized sum is one linear combination of the four products
    X_{a,s1} c and c X_{a,s1}, added entry by entry and never stored."""
    nodes = sorted({node for _, node, _ in ops})
    pairs = list(itertools.product(SERRE_MODES, SERRE_MODES))
    reports = []
    for kind, a, b in itertools.product(("e", "f"), nodes, nodes):
        if a == b:
            continue
        inner = {(s, m): _commutator(ops[kind, a, s], ops[kind, b, m]) for s, m in pairs}
        if abs(a - b) > 1:
            for (n1, m), res in inner.items():
                info = {"a": a, "b": b, "modes": (n1, m)}
                reports.append(RelationReport(f"serre-{kind}-far", info, res.max_abs()))
            continue
        # [X_{a,n1}, [X_{a,n2}, X_{b,m}]] + [X_{a,n2}, [X_{a,n1}, X_{b,m}]]
        for n1, n2, m in itertools.product(SERRE_MODES, SERRE_MODES, SERRE_MODES):
            x1, x2 = ops[kind, a, n1], ops[kind, a, n2]
            total = _commutator(x1, inner[n2, m], (1, x2, inner[n1, m]), (-1, inner[n1, m], x2))
            info = {"a": a, "b": b, "modes": (n1, n2, m)}
            reports.append(RelationReport(f"serre-{kind}", info, total.max_abs()))
    return reports


def _product_gap(xs, ys) -> Rat:
    """``abs(prod(xs) - prod(ys))`` for rationals: the numerators and the
    denominators are multiplied as ints, and equal cross products give 0
    without building a ``Fraction``."""
    x_num = x_den = y_num = y_den = 1
    for x in xs:
        x_num *= x.numerator
        x_den *= x.denominator
    for y in ys:
        y_num *= y.numerator
        y_den *= y.denominator
    if x_num * y_den == y_num * x_den:
        return ZERO
    return abs(Fraction(x_num, x_den) - Fraction(y_num, y_den))


def verify_hysteresis(data: ModuleData) -> list[RelationReport]:
    """The four consistency identities tying amplitudes, exchange functions
    and residues together, checked on every state and every admissible pair.
    Amplitudes, psi and poles are read from ``data``; a move that leaves the
    cone has no edge and reads as zero. The ratio checks read phi_ab at the
    pole difference x as num = x - alpha over den = x - beta, the roots from
    ``data.bonds``, each side 1 where its bag is empty."""
    states, bonds = data.states, data.bonds
    table, psi, poles = data.table, data.psi, data.poles
    reports = []
    for pat in states:
        state = pat.free_values
        ups = {(k, j): up for k, j, up in pat.raises()}
        for (k1, j1), up1 in ups.items():
            e1, f1 = table[pat, k1, j1]
            try:
                gap = _product_gap((e1, f1), (psi[pat, k1].residue_simple(poles[pat, k1, j1]),))
            except NotAPole:  # the residue at a regular point is 0
                gap = abs(e1 * f1)
            except NotASimplePole:
                gap = ONE
            reports.append(RelationReport("residue", {"state": state, "move": (k1, j1)}, gap))
            for k2, j2 in pat.moves:
                if (k1, j1) == (k2, j2):
                    continue
                info = {"state": state, "moves": ((k1, j1), (k2, j2))}
                up2 = ups.get((k2, j2))
                # the edges of the square pat -> up1, up2 -> both
                e2, f2 = table.get((pat, k2, j2), NO_EDGE)
                e12, f12 = table.get((up1, k2, j2), NO_EDGE)
                e21, f21 = table.get((up2, k1, j1), NO_EDGE)
                gap = _product_gap((e12, f21), (f1, e2))
                reports.append(RelationReport("exchange", info, gap))
                if up2 is None or (up1, k2, j2) not in table:
                    continue
                x = poles[pat, k1, j1] - poles[pat, k2, j2]
                alphas, betas = bonds[k1, k2]
                num = x - alphas[0] if alphas else ONE
                den = x - betas[0] if betas else ONE
                gap = _product_gap((e1, e12, num), (e2, e21, den))
                reports.append(RelationReport("raise-ratio", info, gap))
                gap = _product_gap((f12, f1, num), (f21, f2, den))
                reports.append(RelationReport("lower-ratio", info, gap))
    return reports


def verify_pole_classification(data: ModuleData) -> list[RelationReport]:
    """Poles of the cancelled eigenvalue function against candidate moves,
    and vanishing of amplitudes toward invalid patterns. ``bumped`` decides
    the cone for both. The poles expected at (state, node) are read from
    ``data.poles``: the pole of each raise that stays in the cone, and for
    each lowering the pole of the edge that raises the state below back
    into the state; an edge missing from the table fails the row. The
    ``move_pair`` of each move is nonzero exactly where it stays in the cone."""
    table, poles = data.table, data.poles
    reports = []
    for pat in data.states:
        state = pat.free_values
        for k in range(1, data.n):
            a, b = pat.window(k)
            # (type, raises in the cone, the state one below or None)
            moves = [
                (j, pat.bumped(j, k, +1) is not None, pat.bumped(j, k, -1))
                for j in range(a, b + 1)
            ]
            edges = [(pat, k, j) for j, up, _ in moves if up]
            edges += [(down, k, j) for j, _, down in moves if down is not None]
            expected = sorted(poles[edge] for edge in edges if edge in poles)
            # the poles of psi are its sorted den_ints over its root_den
            psi = data.psi[pat, k]
            match = len(psi.den_ints) == len(expected) == len(edges) and all(
                root * pole.denominator == pole.numerator * psi.root_den
                for root, pole in zip(psi.den_ints, expected)
            )
            reports.append(
                RelationReport("pole-set", {"state": state, "node": k}, ZERO if match else ONE)
            )
            for j, up, down in moves:
                e_val, f_val = move_pair(table, pat, k, j)
                ok_e = (e_val != 0) == up
                ok_f = (f_val != 0) == (down is not None)
                info = {"state": state, "move": (k, j)}
                reports.append(RelationReport("vanishing", info, ZERO if ok_e and ok_f else ONE))
    return reports


def verify_reductions(data: ModuleData) -> list[RelationReport]:
    """Chain restriction onto the one-node module and the conjugation
    symmetry of the state counts. E, F and psi of the chain states are read
    from ``data``."""
    n, lam = data.n, data.lam
    if data.p != 1:
        raise InvalidParams("the reduction suite needs p = 1")
    eps = data.epsilon
    reports = []
    # the chain: every free entry below row 1 is zero, m ascending
    for pat in data.states:
        m, *below = pat.free_values
        if any(below):
            continue
        e_val, f_val = move_pair(data.table, pat, 1, 1)
        if m < lam:
            reports.append(
                RelationReport("chain-raise", {"n": m}, abs(e_val - Fraction(-1) / eps))
            )
        expected_f = -m * (lam - m + 1) * eps
        reports.append(RelationReport("chain-lower", {"n": m}, abs(f_val - expected_f)))
        psi = data.psi[pat, 1]
        chain_form = FactoredRatFunc.make(
            1, [lam * eps, -eps], [m * eps, (m - 1) * eps]
        )
        match = psi.scaled(-eps) == chain_form
        reports.append(RelationReport("chain-psi", {"n": m}, ZERO if match else ONE))
    for q in range(1, n):
        same = rectangular_dimension(n, q, lam) == rectangular_dimension(n, n - q, lam)
        reports.append(RelationReport("dim-conjugation", {"p": q}, ZERO if same else ONE))
    return reports


def verify_dual_routes(data: ModuleData) -> list[RelationReport]:
    """Atom-product route against the level-free closed form, per state/node;
    the closed form is read from ``data``, the atom product never is."""
    reports = []
    for pat in data.states:
        state = pat.free_values
        for k in range(1, data.n):
            same = psi_generic(pat, k, data.epsilon) == data.psi[pat, k]
            reports.append(
                RelationReport(
                    "psi-routes", {"state": state, "node": k}, ZERO if same else ONE
                )
            )
    return reports


def verify_gelfand(data: ModuleData) -> list[RelationReport]:
    """E * F of every move against the classical raising square at the
    move's source state: a raise reads the state's own edge, a lower the edge
    that raises back into the state, and both sides are 0 with no source."""
    table = data.table
    reports = []
    for pat in data.states:
        state = pat.free_values
        for k, j in pat.moves:
            for direction, source in (("raise", pat), ("lower", pat.bumped(j, k, -1))):
                e, f = table.get((source, k, j), NO_EDGE)
                rhs = ZERO if source is None else gelfand_squared_closed_form(source, k, j)
                reports.append(
                    RelationReport(
                        "gelfand-square",
                        {"state": state, "move": (k, j, direction)},
                        _product_gap((e, f), (rhs,)),
                    )
                )
    return reports


def verify_localization(data: ModuleData) -> list[RelationReport]:
    from gtyang.localization import UncalibratedCell, localize_module

    reports = []
    closed = data.table
    table = localize_module(data.states, data.params)
    states = {pat: pat.free_values for pat in dict.fromkeys(pat for pat, _, _ in table)}
    for (pat, k, j), cell in table.items():
        if isinstance(cell, UncalibratedCell):
            res = ONE
            rel_id = "localization-uncalibrated"
        else:
            (e_loc, f_loc), (e, f) = cell, closed[pat, k, j]
            res = abs(e_loc - e) + abs(f_loc - f)
            rel_id = "localization"
        reports.append(RelationReport(rel_id, {"state": states[pat], "move": (k, j)}, res))
    return reports


def verify_constraints(data: ModuleData) -> list[RelationReport]:
    spec = build_quiver(data.n, data.p, data.lam)
    report = check_constraints(spec)

    out = []
    for idx, form in report.loop_weight_residuals:
        out.append(RelationReport("loop-weight", {"loop": idx}, Fraction(form.magnitude(), 2)))
    for idx, r in report.loop_rcharge_residuals:
        out.append(RelationReport("loop-rcharge", {"loop": idx}, Fraction(abs(r))))
    total = sum((form for _, form in report.vertex_residuals), ZERO_FORM)
    out.append(RelationReport("vertex-sum", {}, Fraction(total.magnitude(), 2)))
    return out


# Every verify suite, in `verify --suite all` order: a function of (module data,
# mode cutoff). Entries look their checks up when called, so wrappers apply.
SUITES = {
    "constraints": lambda data, cutoff: verify_constraints(data),
    "hysteresis": lambda data, cutoff: (
        verify_hysteresis(data) + verify_pole_classification(data) + verify_dual_routes(data)
    ),
    "modes": lambda data, cutoff: verify_mode_relations(data.operators(cutoff), data),
    # Serre runs on modes 0 and 1 whatever the cutoff
    "serre": lambda data, cutoff: verify_serre(data.operators(max(cutoff, 1))),
    "gelfand": lambda data, cutoff: verify_gelfand(data),
    "localization": lambda data, cutoff: verify_localization(data),
    "reductions": lambda data, cutoff: verify_reductions(data),
}
