import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from gtyang import amplitudes, patterns
from gtyang.amplitudes import (
    IndexOutOfRange,
    amplitude_E,
    amplitude_F,
    amplitude_table,
    gelfand_squared_closed_form,
    psi_closed_form,
    psi_generic,
)
from gtyang.patterns import GTPattern, build_pattern, enumerate_patterns
from gtyang.localization import localize_module
from gtyang.modes import ModuleData, move_pair, verify_dual_routes
from gtyang.quiver import (
    EquivariantParams,
    InvalidParams,
    LinearForm,
    build_quiver,
)
from gtyang.rational import FactoredRatFunc

F = Fraction
EPS1 = EquivariantParams(1)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtyang"


def ratio(num_roots, den_roots, scalar=-1):
    return FactoredRatFunc.make(scalar, num_roots, den_roots)


# ---------------------------------------------------------------------------
# frozen eigenvalue functions
# ---------------------------------------------------------------------------


def test_psi_rank_two_chain():
    lam = 1
    pat = build_pattern(3, 1, lam, [0, 0])
    assert psi_generic(pat, 1, EPS1.epsilon) == ratio([1], [0])

    lam = 2
    pat = build_pattern(3, 1, lam, [1, 0])
    assert psi_generic(pat, 1, EPS1.epsilon) == ratio([2, -1], [1, 0])

    for n1, n2 in [(0, 0), (1, 0), (2, 1), (2, 2)]:
        pat = build_pattern(3, 1, lam, [n1, n2])
        expected1 = ratio([lam, n2 - 1], [n1, n1 - 1])
        expected2 = ratio(
            [F(-3, 2), n1 - F(1, 2)], [n2 - F(1, 2), n2 - F(3, 2)]
        )
        assert psi_closed_form(pat, 1, EPS1.epsilon) == expected1
        assert psi_closed_form(pat, 2, EPS1.epsilon) == expected2


def test_psi_rank_three_edge_framing():
    lam = 2
    for n1, n2, n3 in [(0, 0, 0), (2, 1, 0), (2, 2, 1)]:
        pat = build_pattern(4, 1, lam, [n1, n2, n3])
        expected3 = ratio([-2, n2 - 1], [n3 - 1, n3 - 2])
        assert psi_closed_form(pat, 3, EPS1.epsilon) == expected3


def test_psi_rank_three_middle_framing():
    lam = 2
    for n1, m1, m2, n3 in [(0, 0, 0, 0), (1, 1, 0, 1), (1, 2, 1, 1), (2, 2, 2, 2)]:
        pat = build_pattern(4, 2, lam, [n1, m1, m2, n3])
        expected1 = ratio(
            [m1 - F(1, 2), m2 - F(3, 2)], [n1 - F(1, 2), n1 - F(3, 2)]
        )
        expected2 = ratio(
            [lam, -2, n1 - 1, n3 - 1], [m1, m1 - 1, m2 - 1, m2 - 2]
        )
        assert psi_closed_form(pat, 1, EPS1.epsilon) == expected1
        assert psi_closed_form(pat, 2, EPS1.epsilon) == expected2


def test_psi_cancellation_example():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    value = psi_generic(pat, 2, EPS1.epsilon)
    assert sorted(set(value.den_roots)) == [-1, 1]
    assert value == ratio([2, 0], [1, -1])


def test_dual_routes_agree_on_grid():
    eps = F(2, 3)
    for n, p, lam in [(3, 1, 3), (4, 2, 2), (5, 2, 1), (5, 3, 2)]:
        for pat in enumerate_patterns(n, p, lam):
            for k in range(1, n):
                assert psi_generic(pat, k, eps) == psi_closed_form(pat, k, eps)


def test_psi_constant_at_infinity():
    for pat in enumerate_patterns(5, 2, 2):
        for k in range(1, 5):
            f = psi_closed_form(pat, k, EPS1.epsilon)
            assert len(f.num_roots) == len(f.den_roots)
            assert f.scalar == -1  # -1/eps at eps = 1


def test_psi_poles_match_candidate_moves():
    # each edge pat -> up at node k puts its pole in psi_k of both ends: the
    # atom it adds to pat is the atom it removes from up
    for n, p, lam in [(3, 1, 3), (4, 2, 2), (5, 2, 1)]:
        data = ModuleData(n, p, lam, EPS1)
        expected = {(pat, k): [] for pat in data.states for k in range(1, n)}
        for (pat, k, j), pole in data.poles.items():
            expected[pat, k].append(pole)
            expected[pat.bumped(j, k, +1), k].append(pole)
        for (pat, k), poles in expected.items():
            f = psi_closed_form(pat, k, EPS1.epsilon)
            assert sorted(f.den_roots) == sorted(poles)
            assert len(set(f.den_roots)) == len(f.den_roots)


def test_psi_requires_h_zero():
    # the states need no h; every closed-form field of the module reads the
    # one epsilon gate
    data = ModuleData(3, 1, 2, EquivariantParams(1, F(1, 2)))
    assert len(data.states) == 6
    refused = "modules are built at h = 0"
    for field in ("epsilon", "table", "psi", "poles"):
        with pytest.raises(InvalidParams, match=refused):
            getattr(data, field)
    with pytest.raises(InvalidParams, match=refused):
        data.operators(1)


def _definitions(tree, prefix=""):
    """(qualified name, first line, last line) of every function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node, prefix + node.name + ".")
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node.lineno, node.end_lineno


def test_closed_forms_take_epsilon_and_one_gate_checks_h():
    # h = 0 is a contract of the closed-form signatures: none can be handed
    # an h it would ignore, and only the gate and the `all` skip test h
    for module in (amplitudes, patterns):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                assert "params" not in inspect.signature(fn).parameters, name
    owners = set()
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        spans = list(_definitions(ast.parse(text)))
        for lineno, line in enumerate(text.splitlines(), 1):
            if "h != 0" in line:
                inside = [name for name, first, last in spans if first <= lineno <= last]
                owners.update(inside or [f"{path.name}:{lineno}"])
    assert owners == {"ModuleData.epsilon", "_run_suites"}


# ---------------------------------------------------------------------------
# frozen amplitude tables
# ---------------------------------------------------------------------------


def moves(pat, k):
    a, b = pat.window(k)
    return range(a, b + 1)


def expect(pat, k, j, step, formula):
    """Printed table value; a move that leaves the cone has no edge and
    reads as zero."""
    if pat.bumped(j, k, step) is None:
        return F(0)
    return formula()


def raising(table, pat, k, j):
    return move_pair(table, pat, k, j)[0]


def lowering(table, pat, k, j):
    return move_pair(table, pat, k, j)[1]


def test_rank_two_chain_tables():
    lam = 3
    table = amplitude_table(enumerate_patterns(3, 1, lam), EPS1.epsilon)
    for pat in enumerate_patterns(3, 1, lam):
        n1, n2 = pat.free_values
        assert raising(table, pat, 1, 1) == expect(pat, 1, 1, +1, lambda: F(-1))
        assert raising(table, pat, 2, 2) == expect(
            pat, 2, 2, +1, lambda: F(n1 - n2, 1) / (n2 - F(1, 2))
        )
        assert lowering(table, pat, 1, 1) == expect(
            pat, 1, 1, -1, lambda: -(n1 - n2) * (lam - n1 + 1)
        )
        assert lowering(table, pat, 2, 2) == expect(
            pat, 2, 2, -1, lambda: n2 * (n2 - F(3, 2))
        )


def test_rank_three_edge_tables():
    # the printed node-3 entries are singular where the move pole crosses
    # the origin (n3 = 1 raising, n3 = 2 lowering); there the vanishing
    # pole factor is dropped and the rest of the table entry survives
    lam = 2
    table = amplitude_table(enumerate_patterns(4, 1, lam), EPS1.epsilon)
    for pat in enumerate_patterns(4, 1, lam):
        n1, n2, n3 = pat.free_values
        assert raising(table, pat, 1, 1) == expect(pat, 1, 1, +1, lambda: F(-1))
        assert raising(table, pat, 2, 2) == expect(
            pat, 2, 2, +1, lambda: F(n1 - n2, 1) / (n2 - F(1, 2))
        )
        assert raising(table, pat, 3, 3) == expect(
            pat, 3, 3, +1,
            lambda: F(n2 - n3, 1) if n3 == 1 else F(n2 - n3, 1) / (n3 - 1),
        )
        assert lowering(table, pat, 1, 1) == expect(
            pat, 1, 1, -1, lambda: -(n1 - n2) * (lam - n1 + 1)
        )
        assert lowering(table, pat, 2, 2) == expect(
            pat, 2, 2, -1, lambda: (n2 - n3) * (n2 - F(3, 2))
        )
        assert lowering(table, pat, 3, 3) == expect(
            pat, 3, 3, -1, lambda: F(n3) if n3 == 2 else n3 * (n3 - 2)
        )


def test_rank_three_middle_tables():
    lam = 2
    table = amplitude_table(enumerate_patterns(4, 2, lam), EPS1.epsilon)
    for pat in enumerate_patterns(4, 2, lam):
        n1, m1, m2, n3 = pat.free_values
        assert raising(table, pat, 1, 1) == expect(
            pat, 1, 1, +1, lambda: F(m1 - n1, 1) / (n1 - F(1, 2))
        )
        assert raising(table, pat, 2, 1) == expect(pat, 2, 1, +1, lambda: F(-1))
        assert raising(table, pat, 2, 2) == expect(
            pat, 2, 2, +1,
            lambda: -F((n1 - m2) * (n3 - m2), (m1 - m2) * (m1 - m2 + 1)),
        )
        assert raising(table, pat, 3, 2) == expect(
            pat, 3, 2, +1, lambda: F(m1 - n3, 1) / (n3 - F(1, 2))
        )
        assert lowering(table, pat, 1, 1) == expect(
            pat, 1, 1, -1, lambda: (n1 - m2) * (n1 - F(3, 2))
        )
        assert lowering(table, pat, 2, 1) == expect(
            pat, 2, 1, -1,
            lambda: -F((m1 + 1) * (lam - m1 + 1) * (m1 - n1) * (m1 - n3),
                       (m1 - m2 + 1) * (m1 - m2)),
        )
        assert lowering(table, pat, 2, 2) == expect(
            pat, 2, 2, -1, lambda: -m2 * (lam - m2 + 2)
        )
        assert lowering(table, pat, 3, 2) == expect(
            pat, 3, 2, -1, lambda: (n3 - m2) * (n3 - F(3, 2))
        )


def test_middle_framing_spot_values():
    table = amplitude_table(enumerate_patterns(4, 2, 2), EPS1.epsilon)
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    assert raising(table, pat, 2, 2) == F(-1, 2)
    assert lowering(table, pat, 2, 1) == 0  # m1 == n1 blocks the move: no edge


def test_amplitudes_vanish_iff_target_valid():
    eps = F(3, 2)
    for n, p, lam in [(3, 1, 2), (4, 2, 2), (5, 2, 1)]:
        table = amplitude_table(enumerate_patterns(n, p, lam), eps)
        for pat in enumerate_patterns(n, p, lam):
            for k in range(1, n):
                for j in moves(pat, k):
                    e, f = move_pair(table, pat, k, j)
                    assert (e != 0) == (pat.bumped(j, k, +1) is not None)
                    assert (f != 0) == (pat.bumped(j, k, -1) is not None)


def test_amplitude_table_bumps_once_per_window_move(monkeypatch):
    # the raising walk is the one cone test per edge: the closed forms do
    # not re-bump the state or its raise. The states are handed in, so the
    # bumps that grow them from the vacuum are not counted
    states = enumerate_patterns(6, 3, 2)
    calls = []
    bumped = GTPattern.bumped

    def counted(pat, *args):
        calls.append(args)
        return bumped(pat, *args)

    monkeypatch.setattr(GTPattern, "bumped", counted)
    amplitude_table(states, EPS1.epsilon)
    window_moves = sum(len(moves(pat, k)) for pat in states for k in range(1, 6))
    assert len(calls) == window_moves == 1575


def test_hysteresis_residue_identity():
    eps = EPS1.epsilon
    for n, p, lam in [(3, 1, 3), (4, 2, 2)]:
        for (pat, k, j), pole in ModuleData(n, p, lam, EPS1).poles.items():
            up = pat.bumped(j, k, +1)
            product = amplitude_E(pat, k, j, eps) * amplitude_F(up, k, j, eps)
            assert product == psi_closed_form(pat, k, eps).residue_simple(pole)


def test_residue_example_rank_two():
    pat = build_pattern(3, 1, 2, [1, 0])
    up = pat.bumped(1, 1, +1)
    value = amplitude_E(pat, 1, 1, EPS1.epsilon) * amplitude_F(up, 1, 1, EPS1.epsilon)
    assert value == 2
    assert value == psi_closed_form(pat, 1, EPS1.epsilon).residue_simple(1)


def test_uncorrected_edge_factor_breaks_residues():
    pat = build_pattern(3, 1, 2, [1, 0])
    up = pat.bumped(1, 1, +1)
    # the marked-node factor l(1,2) - l(1,1) + 1 of F with the shift of 1 dropped
    t = up.shifted(1, 2) - up.shifted(1, 1)
    broken = amplitude_F(up, 1, 1, EPS1.epsilon) * F(t, t + 1)
    res = psi_closed_form(pat, 1, EPS1.epsilon).residue_simple(1)
    assert amplitude_E(pat, 1, 1, EPS1.epsilon) * broken != res


def squared(table, pat, k, j, direction):
    """E * F of a move read from an edge table: a raise from the state's own
    edge, a lower from the edge that raises back into it, 0 off the cone."""
    source = pat if direction == "raise" else pat.bumped(j, k, -1)
    e, f = table.get((source, k, j), (0, 0))
    return e * f


def test_gelfand_squares():
    lam = 2
    table = amplitude_table(enumerate_patterns(3, 1, lam), EPS1.epsilon)
    for pat in enumerate_patterns(3, 1, lam):
        n1, n2 = pat.free_values
        assert squared(table, pat, 1, 1, "raise") == (lam - n1) * (n1 - n2 + 1)
        assert squared(table, pat, 2, 2, "raise") == (n1 - n2) * (n2 + 1)
        assert squared(table, pat, 1, 1, "lower") == (n1 - n2) * (lam - n1 + 1)
        assert squared(table, pat, 2, 2, "lower") == n2 * (n1 - n2 + 1)
    table = amplitude_table(enumerate_patterns(4, 1, lam), EPS1.epsilon)
    for pat in enumerate_patterns(4, 1, lam):
        n1, n2, n3 = pat.free_values
        assert squared(table, pat, 2, 2, "raise") == (n1 - n2) * (n2 - n3 + 1)
        assert squared(table, pat, 3, 3, "lower") == n3 * (n2 - n3 + 1)


def test_gelfand_square_closed_form_matches_product_route():
    for n, p, lam in [(3, 1, 2), (4, 2, 2), (5, 2, 1)]:
        table = amplitude_table(enumerate_patterns(n, p, lam), EPS1.epsilon)
        for pat in enumerate_patterns(n, p, lam):
            for k in range(1, n):
                for j in moves(pat, k):
                    for direction in ("raise", "lower"):
                        source = pat if direction == "raise" else pat.bumped(j, k, -1)
                        want = 0 if source is None else gelfand_squared_closed_form(source, k, j)
                        assert squared(table, pat, k, j, direction) == want


def fraction_gelfand_square(pat, k, j, direction):
    """The classical square as a running Fraction product and quotient, the
    form the closed form had before it multiplied ints."""
    step = +1 if direction == "raise" else -1
    if pat.bumped(j, k, step) is None:
        return F(0)
    l = pat.shifted
    x = l(j, k) if step > 0 else l(j, k) - 1
    value = F(-1)
    for i in range(1, k + 2):
        value *= l(i, k + 1) - x
    for i in range(1, k):
        value *= l(i, k - 1) - x - 1
    for i in range(1, k + 1):
        if i != j:
            value /= (l(i, k) - x) * (l(i, k) - x - 1)
    return value


@pytest.mark.parametrize("grid", [(5, 2, 3), (6, 3, 2)])
def test_gelfand_square_int_product_matches_the_fraction_loop(grid):
    # the oracle keeps the lowering branch x = l - 1, so the lowering square
    # is checked to be the raising square of the state one below
    n = grid[0]
    for pat in enumerate_patterns(*grid):
        for k in range(1, n):
            for j in moves(pat, k):
                below = pat.bumped(j, k, -1)
                for direction, got in (
                    ("raise", gelfand_squared_closed_form(pat, k, j)),
                    ("lower", F(0) if below is None else gelfand_squared_closed_form(below, k, j)),
                ):
                    assert got == fraction_gelfand_square(pat, k, j, direction)
                    assert isinstance(got, F)


def test_gelfand_invalid_target_and_direction():
    pat = build_pattern(3, 1, 2, [2, 0])
    assert gelfand_squared_closed_form(pat, 1, 1) == 0
    table = amplitude_table(enumerate_patterns(3, 1, 2), EPS1.epsilon)
    assert squared(table, pat, 1, 1, "raise") == 0
    with pytest.raises(IndexOutOfRange):
        gelfand_squared_closed_form(pat, 1, 2)


@pytest.mark.parametrize("k", [0, 3], ids=["node-0", "node-n"])
@pytest.mark.parametrize(
    "route",
    [
        lambda pat, k: psi_closed_form(pat, k, F(1)),
        lambda pat, k: psi_generic(pat, k, F(1)),
        lambda pat, k: amplitude_E(pat, k, 1, F(1)),
        lambda pat, k: gelfand_squared_closed_form(pat, k, 1),
    ],
    ids=["psi_closed_form", "psi_generic", "amplitude_E", "gelfand_squared_closed_form"],
)
def test_node_outside_the_gauge_nodes_is_refused(route, k):
    # the gauge nodes of n = 3 are 1 and 2
    with pytest.raises(IndexOutOfRange, match=f"^node {k} out of range$"):
        route(build_pattern(3, 1, 2, [1, 0]), k)


def test_epsilon_covariance():
    sigma = F(2)
    base, scaled = F(1), sigma
    base_table = amplitude_table(enumerate_patterns(4, 2, 2), base)
    scaled_table = amplitude_table(enumerate_patterns(4, 2, 2), scaled)
    for pat in enumerate_patterns(4, 2, 2):
        for k in range(1, 4):
            f1 = psi_closed_form(pat, k, base)
            f2 = psi_closed_form(pat, k, scaled)
            assert f2.scalar == f1.scalar / sigma
            assert f2.num_roots == tuple(sigma * r for r in f1.num_roots)
            assert f2.den_roots == tuple(sigma * r for r in f1.den_roots)
            for j in moves(pat, k):
                e, f = move_pair(base_table, pat, k, j)
                assert move_pair(scaled_table, pat, k, j) == (e / sigma, f * sigma)


@pytest.mark.parametrize("eps", [F(1), F(-3, 2), F(2, 7)])
def test_bond_units_match_quiver_bond_factor(eps):
    """At h = 0 the quiver's exchange function between nodes k and b is
    (u + eps*a_kb/2)/(u - eps*a_kb/2) with a the Cartan matrix: 1 off the
    Dynkin diagram, where a_kb = 0 and ModuleData.bonds holds no root."""
    params = EquivariantParams(eps)
    for n in range(2, 7):
        bonds = ModuleData(n, 1, 1, params).bonds
        for k in range(1, n):
            for b in range(1, n):
                a_kb = 2 if k == b else -1 if abs(k - b) == 1 else 0
                root = a_kb * eps / 2
                assert bonds[k, b] == (((-root,), (root,)) if a_kb else ((), ()))


def test_shifted_quiver_arrow_fails_the_psi_routes_at_its_nodes(monkeypatch):
    # negative control: the atom product reads its exchange roots from the
    # quiver and the closed form does not, so a wrong weight on A1 (node 1
    # to node 2) shows up as psi-routes failures at exactly those two nodes
    def shifted(*grid):
        spec = build_quiver(*grid)
        arrows = tuple(
            arr._replace(weight=arr.weight + LinearForm(2, 0)) if arr.name == "A1" else arr
            for arr in spec.arrows
        )
        return spec._replace(arrows=arrows)

    monkeypatch.setattr(amplitudes, "build_quiver", shifted)
    reports = verify_dual_routes(ModuleData(4, 2, 2, EPS1))
    assert {r.params["node"] for r in reports if not r.passed} == {1, 2}


# ---------------------------------------------------------------------------
# edge tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", [(3, 1, 2), (4, 2, 2), (5, 2, 2)])
def test_amplitude_table_covers_the_localization_edges(grid):
    n, p, lam = grid
    states = enumerate_patterns(n, p, lam)
    table = amplitude_table(states, EPS1.epsilon)
    assert list(table) == list(localize_module(states, EPS1))
    for (pat, k, j), value in table.items():
        up = pat.bumped(j, k, +1)
        assert value == (amplitude_E(pat, k, j, EPS1.epsilon), amplitude_F(up, k, j, EPS1.epsilon))
