import math
import tracemalloc
from fractions import Fraction

import pytest

from gtyang import modes
from gtyang.amplitudes import psi_closed_form
from gtyang.cli import run_cli
from gtyang.linalg import RationalMatrix
from gtyang.modes import (
    ModuleData,
    _product_gap,
    build_mode_operators,
    verify_constraints,
    verify_dual_routes,
    verify_gelfand,
    verify_hysteresis,
    verify_mode_relations,
    verify_pole_classification,
    verify_reductions,
    verify_serre,
)
from gtyang.patterns import build_pattern, enumerate_patterns
from gtyang.quiver import (
    EquivariantParams,
    InvalidParams,
    InvariantViolation,
    LinearForm,
    build_quiver,
)
from gtyang.rational import FactoredRatFunc

F = Fraction
EPS1 = EquivariantParams(1)


def test_mode_matrix_examples():
    ops = build_mode_operators(ModuleData(3, 1, 1, EPS1), cutoff=1)
    e0 = ops["e", 1, 0]
    # basis order (0,0), (1,0), (1,1): single raise from the bottom state
    assert e0 == RationalMatrix.from_triples(3, 3, [(1, 0, -1)])
    psi0 = ops["psi", 1, 0]
    assert [psi0.entries[i][i] for i in range(3)] == [1, -1, 0]


def test_operator_count_at_cutoff_zero():
    ops = build_mode_operators(ModuleData(4, 2, 1, EPS1), cutoff=0)
    assert len(ops) == 3 * (4 - 1)
    assert list(ops) == sorted(ops)


def test_mode_relations_small_grid():
    data = ModuleData(3, 1, 2, EPS1)
    reports = verify_mode_relations(build_mode_operators(data, cutoff=3), data)
    assert all(r.passed for r in reports)


def test_diagonal_modes_commute_and_offdiag_pairing_vanishes():
    data = ModuleData(4, 2, 1, EPS1)
    reports = verify_mode_relations(build_mode_operators(data, cutoff=2), data)
    assert all(r.passed for r in reports if r.relation_id == "psipsi")
    assert all(r.passed for r in reports if r.relation_id == "ef-offdiag")


def test_mode_relations_store_no_product():
    # each residual adds its products entry by entry: the peak is a few
    # residuals, not every product of two operators kept for the whole call
    data = ModuleData(4, 2, 2, EPS1)
    ops, _ = data.operators(2), data.bonds  # both built before tracing
    tracemalloc.start()
    try:
        reports = verify_mode_relations(ops, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 500_000, peak


def test_serre_small_grids():
    ops = build_mode_operators(ModuleData(3, 1, 2, EPS1), cutoff=1)
    assert all(r.passed for r in verify_serre(ops))
    ops = build_mode_operators(ModuleData(4, 2, 1, EPS1), cutoff=1)
    reports = verify_serre(ops)
    assert all(r.passed for r in reports)
    assert any(r.relation_id == "serre-e-far" for r in reports)


# (4,2,2) with the first nonzero entry (row-major) of one operator doubled:
# every failing relation of the mode and Serre suites as relation -> (checks,
# max residual), per (epsilon, cutoff) and operator. The cases at eps = 2/7
# were pinned while every matrix entry was a separate Fraction, and those at
# eps = -3/2 while the quadratic relations read the Cartan matrix.
DOUBLED_ENTRY_FAILURES = {
    (F(1), 2): {
        ("e", 1, 0): {
            "ee": (36, 3),
            "ef-offdiag": (54, 4),
            "ef-pairing": (27, 1),
            "psie": (36, 2),
            "serre-e": (32, 16),
            "serre-e-far": (8, 4),
        },
        ("f", 2, 1): {
            "ef-offdiag": (54, 4),
            "ef-pairing": (27, 2),
            "ff": (36, 8),
            "psif": (36, 8),
            "serre-f": (32, 2),
        },
        ("psi", 3, 1): {"ef-pairing": (27, F(1, 2)), "psie": (36, F(3, 2)), "psif": (36, F(3, 2))},
    },
    (F(2, 7), 3): {
        ("e", 1, 0): {
            "ee": (81, F(21, 2)),
            "ef-offdiag": (96, 4),
            "ef-pairing": (48, 1),
            "psie": (81, 2),
            "serre-e": (32, 686),
            "serre-e-far": (8, 49),
        },
        ("f", 2, 1): {
            "ef-offdiag": (96, F(8, 7)),
            "ef-pairing": (48, F(4, 7)),
            "ff": (81, F(64, 343)),
            "psif": (81, F(16, 49)),
            "serre-f": (32, F(32, 2401)),
        },
        ("psi", 3, 1): {"ef-pairing": (48, F(1, 7)), "psie": (81, 1), "psif": (81, F(4, 49))},
    },
    (F(-3, 2), 2): {
        ("e", 1, 0): {
            "ee": (36, 3),
            "ef-offdiag": (54, 9),
            "ef-pairing": (27, 1),
            "psie": (36, 2),
            "serre-e": (32, F(64, 9)),
            "serre-e-far": (8, F(16, 9)),
        },
        ("f", 2, 1): {
            "ef-offdiag": (54, 6),
            "ef-pairing": (27, F(27, 4)),
            "ff": (36, 27),
            "psif": (36, F(81, 2)),
            "serre-f": (32, F(81, 8)),
        },
        ("psi", 3, 1): {
            "ef-pairing": (27, F(3, 4)),
            "psie": (36, F(9, 4)),
            "psif": (36, F(243, 32)),
        },
    },
}


DOUBLED_ENTRY_KEYS = [
    (*grid, op) for grid, table in DOUBLED_ENTRY_FAILURES.items() for op in table
]


# each id names its case, e.g. "eps=2/7-cutoff=3-f-2-1", so a row added to
# the table renames no other case
@pytest.mark.parametrize(
    "key",
    DOUBLED_ENTRY_KEYS,
    ids=[f"eps={e}-cutoff={c}-{'-'.join(map(str, op))}" for e, c, op in DOUBLED_ENTRY_KEYS],
)
def test_doubled_operator_entry_fails_the_pinned_relations(key):
    eps, cutoff, op = key
    data = ModuleData(4, 2, 2, EquivariantParams(eps))
    ops = build_mode_operators(data, cutoff=cutoff)
    matrix = ops[op]
    r, c, v = next(matrix.nonzeros())
    ops[op] = matrix + RationalMatrix.from_triples(matrix.rows, matrix.cols, [(r, c, v)])
    reports = verify_mode_relations(ops, data) + verify_serre(ops)
    assert _failing(reports) == DOUBLED_ENTRY_FAILURES[eps, cutoff][op]


# (4,2,2) with every diagonal mode negated, per (epsilon, cutoff): the pairing
# and boundary relations hold at one fixed sign, so they fail; every other
# relation is linear in psi or quadratic in it, and still holds
NEGATED_PSI_FAILURES = {
    (F(3, 2), 2): {
        "ef-pairing": (27, F(81, 4)),
        "boundary-e": (27, F(32, 3)),
        "boundary-f": (27, F(81, 2)),
    },
    (F(2, 7), 3): {
        "ef-pairing": (48, 4),
        "boundary-e": (36, 56),
        "boundary-f": (36, F(32, 7)),
    },
}


@pytest.mark.parametrize(
    "eps,cutoff", list(NEGATED_PSI_FAILURES), ids=["eps=3/2", "eps=2/7"]
)
def test_negated_psi_fails_the_pairing_and_boundary_relations(eps, cutoff):
    data = ModuleData(4, 2, 2, EquivariantParams(eps))
    ops = build_mode_operators(data, cutoff=cutoff)
    ops = {key: m.scaled(-1) if key[0] == "psi" else m for key, m in ops.items()}
    assert _failing(verify_mode_relations(ops, data)) == NEGATED_PSI_FAILURES[eps, cutoff]


@pytest.mark.parametrize("eps", [F(1), F(3, 2), F(-3, 2)])
def test_swapped_exchange_roots_fail_the_quadratic_and_boundary_relations(eps):
    # negative control: the quadratic and boundary relations read the
    # exchange function of each node pair from data.bonds, so the bond of
    # nodes (1, 2) with its numerator and denominator roots swapped fails
    # exactly those relations, at that pair alone
    data = ModuleData(4, 2, 2, EquivariantParams(eps))
    data.bonds[1, 2] = data.bonds[1, 2][::-1]
    failed = {
        (r.relation_id, r.params["a"], r.params["b"])
        for r in verify_mode_relations(data.operators(2), data)
        if not r.passed
    }
    assert failed == {
        (rel, 1, 2) for rel in ("ee", "ff", "psie", "psif", "boundary-e", "boundary-f")
    }


def _failing(reports) -> dict:
    """relation -> (checks, max residual) of every relation that fails."""
    grouped = {}
    for rep in reports:
        count, worst = grouped.get(rep.relation_id, (0, 0))
        grouped[rep.relation_id] = (count + 1, max(worst, rep.residual))
    return {rel: found for rel, found in grouped.items() if found[1] != 0}


# (4,2,2) at eps = 1 with one field of the shared module data corrupted at the
# state with free entries (0,1,0,0), node 1: every failing relation of the
# hysteresis suite as relation -> (checks, max residual). Doubling psi there
# fails psi-routes, so the atom-product route does not read the shared psi;
# doubling the E of the type-1 move leaves lower-ratio, which reads no E,
# passing.
SHARED_DATA_FAILURES = {
    "psi": {"residue": (32, 1), "psi-routes": (60, 1)},
    "table": {"residue": (32, 1), "exchange": (96, 4), "raise-ratio": (30, 4)},
}


@pytest.mark.parametrize("field", list(SHARED_DATA_FAILURES))
def test_doubled_shared_data_fails_the_pinned_relations(field):
    data = ModuleData(4, 2, 2, EPS1)
    pat = build_pattern(4, 2, 2, [0, 1, 0, 0])
    if field == "psi":
        data.psi[pat, 1] = data.psi[pat, 1].scaled(2)
    else:
        e, f = data.table[pat, 1, 1]
        data.table[pat, 1, 1] = (2 * e, f)
    reports = verify_hysteresis(data) + verify_pole_classification(data)
    reports += verify_dual_routes(data)
    assert _failing(reports) == SHARED_DATA_FAILURES[field]


# (4,2,2) at eps = 1 with the edge table corrupted at the state with free
# entries (0,1,0,0): every failing gelfand-square row as (state, move,
# residual). Doubling the E of move (1,1) fails the row at each end of that
# edge, the raise out of the state and the lower back into the raised state,
# so each edge is read at both of its ends. A spurious edge for move (2,2),
# whose raise leaves the cone, fails the one off-cone raise row.
GELFAND_TABLE_FAILURES = {
    "doubled": {
        ((0, 1, 0, 0), (1, 1, "raise"), 1),
        ((1, 1, 0, 0), (1, 1, "lower"), 1),
    },
    "spurious": {((0, 1, 0, 0), (2, 2, "raise"), 1)},
}


@pytest.mark.parametrize("corruption", list(GELFAND_TABLE_FAILURES))
def test_corrupted_edge_table_fails_the_pinned_gelfand_rows(corruption):
    data = ModuleData(4, 2, 2, EPS1)
    pat = build_pattern(4, 2, 2, [0, 1, 0, 0])
    assert all(r.passed for r in verify_gelfand(data))
    if corruption == "doubled":
        e, f = data.table[pat, 1, 1]
        data.table[pat, 1, 1] = (2 * e, f)
    else:
        assert pat.bumped(2, 2, +1) is None
        data.table[pat, 2, 2] = (F(1), F(1))
    failed = {
        (r.params["state"], r.params["move"], r.residual)
        for r in verify_gelfand(data)
        if not r.passed
    }
    assert failed == GELFAND_TABLE_FAILURES[corruption]


def test_a_pair_with_no_arrow_reads_one_in_the_ratio_checks():
    # nodes 1 and 3 share no arrow, so the raise-ratio check of moves (1,1)
    # and (3,2) reads phi_13 = 1; their poles coincide (x = 0), where reading
    # an empty bag as the root 0 would give x/x = 0/0 and pass any amplitudes.
    # Doubling the E of (1,1) fails that row by 4.
    data = ModuleData(4, 2, 2, EPS1)
    pat = build_pattern(4, 2, 2, [0, 1, 0, 0])
    assert data.bonds[1, 3] == ((), ())
    assert data.poles[pat, 1, 1] == data.poles[pat, 3, 2]
    e, f = data.table[pat, 1, 1]
    data.table[pat, 1, 1] = (2 * e, f)
    (row,) = (
        r for r in verify_hysteresis(data)
        if r.relation_id == "raise-ratio"
        and r.params == {"state": (0, 1, 0, 0), "moves": ((1, 1), (3, 2))}
    )
    assert row.residual == 4


# (4,2,2) at eps = 1 with the two root bags of one node pair swapped in
# data.bonds: every failing relation of verify_hysteresis as relation ->
# (checks, max residual). Nodes 1 and 3 share no arrow, so swapping their
# empty bags changes nothing.
SWAPPED_BOND_FAILURES = {
    (1, 2): {"raise-ratio": (30, 6), "lower-ratio": (30, F(9, 2))},
    (1, 3): {},
}


@pytest.mark.parametrize("pair", list(SWAPPED_BOND_FAILURES))
def test_swapped_bond_fails_the_ratio_checks(pair):
    data = ModuleData(4, 2, 2, EPS1)
    data.bonds[pair] = data.bonds[pair][::-1]
    assert _failing(verify_hysteresis(data)) == SWAPPED_BOND_FAILURES[pair]


def test_two_arrows_one_way_between_two_nodes_is_an_invariant_violation(monkeypatch):
    # on the chain two nodes share at most one arrow each way; a second
    # numerator root is refused when the bonds are built (a typed exception,
    # so the check survives python -O)
    original = modes.exchange_roots

    def doubled(spec, a):
        roots = dict(original(spec, a))
        if a == 1:
            num, den = roots[2]
            roots[2] = (num * 2, den)
        return roots

    monkeypatch.setattr(modes, "exchange_roots", doubled)
    with pytest.raises(InvariantViolation, match="nodes 1 and 2"):
        ModuleData(4, 2, 2, EPS1).bonds


@pytest.mark.parametrize("eps", [F(1), F(3, 2), F(-3, 2), F(2, 7)])
def test_moved_pole_is_a_failed_residue_report_not_an_exception(eps):
    # negative control: the first raise pole of (4,2,2) moved by eps is not a
    # pole of its psi, where the residue is 0, so the check fails by |E * F|
    data = ModuleData(4, 2, 2, EquivariantParams(eps))
    key = next(iter(data.poles))
    data.poles[key] += eps
    pat, k, j = key
    e, f = data.table[key]
    failed = [r for r in verify_hysteresis(data) if r.relation_id == "residue" and not r.passed]
    assert [(r.params, r.residual) for r in failed] == [
        ({"state": pat.free_values, "move": (k, j)}, abs(e * f))
    ]


def test_double_pole_is_a_failed_residue_report_not_an_exception():
    # a psi whose pole at a move is double fails that move's residue check
    # with residual 1, as the 0/1 checks of pole-set do
    data = ModuleData(4, 2, 2, EPS1)
    (pat, k, j), pole = next(iter(data.poles.items()))
    data.psi[pat, k] = data.psi[pat, k] * FactoredRatFunc.make(1, [], [pole])
    residues = {
        r.params["move"]: r.residual
        for r in verify_hysteresis(data)
        if r.relation_id == "residue" and r.params["state"] == pat.free_values
    }
    assert residues[k, j] == 1


@pytest.mark.parametrize(
    "xs,ys",
    [
        ((F(2, 3), F(9, 4)), (F(3, 2), 1)),  # equal products
        ((F(1, 3), F(5, 7), F(-2)), (F(3, 4), F(-1, 6))),  # unequal
        ((F(0), F(5, 2)), (F(3), F(0))),  # a move with no edge reads 0
        ((F(0), F(5, 2)), (F(-3, 8), F(7, 5))),
        ((F(-3, 2), F(-4, 9)), (F(2, 3),)),  # negative factors, equal
        ((F(-3, 2), F(4, 9)), (F(2, 3), F(1))),  # signs differ
        ((), (F(-1, 5),)),
    ],
)
def test_product_gap_is_the_exact_difference(xs, ys):
    expected = abs(math.prod(xs, start=F(1)) - math.prod(ys, start=F(1)))
    gap = _product_gap(xs, ys)
    assert gap == expected and isinstance(gap, F)


def test_hysteresis_suite_computes_each_closed_form_psi_once(capsys, monkeypatch):
    # ModuleData reads psi_closed_form through gtyang.modes; the hysteresis
    # suite must not recompute it per check
    calls = []

    def counted(pat, k, eps):
        calls.append((pat, k))
        return psi_closed_form(pat, k, eps)

    monkeypatch.setattr(modes, "psi_closed_form", counted)
    argv = ["verify", "--suite", "hysteresis", "--n", "4", "--p", "2", "--lambda", "2"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == len(enumerate_patterns(4, 2, 2)) * (4 - 1)


def test_hysteresis_examples():
    reports = verify_hysteresis(ModuleData(3, 1, 2, EPS1))
    assert all(r.passed for r in reports)
    residue_checks = [r for r in reports if r.relation_id == "residue"]
    assert residue_checks
    reports = verify_hysteresis(ModuleData(4, 2, 1, EPS1))
    assert all(r.passed for r in reports)


def test_hysteresis_with_collisions():
    # origin-crossing poles appear on this grid; the identities must still
    # close exactly under the dropped-factor convention
    assert all(r.passed for r in verify_hysteresis(ModuleData(4, 1, 2, EPS1)))


def test_pole_classification():
    assert all(r.passed for r in verify_pole_classification(ModuleData(3, 1, 3, EPS1)))
    assert all(r.passed for r in verify_pole_classification(ModuleData(4, 2, 2, EPS1)))


# (4,2,2) with the module data corrupted at the state with free entries
# (0,1,0,0): every failing row of verify_pole_classification as (relation,
# state, node or move). The pole of the edge that raises move (1,1) is read by
# the pole-set rows at both ends of that edge, the raise out of the state and
# the lowering back into (1,1,0,0), so moving it by eps or dropping it fails
# those two rows; a psi root moved by eps fails its own row. A spurious edge
# for move (2,2), whose raise leaves the cone, fails the one vanishing row of
# that move: `bumped` decides the cone, not the keys of the table.
POLE_CHECK_FAILURES = {
    "moved-pole": {("pole-set", (0, 1, 0, 0), 1), ("pole-set", (1, 1, 0, 0), 1)},
    "missing-pole": {("pole-set", (0, 1, 0, 0), 1), ("pole-set", (1, 1, 0, 0), 1)},
    "moved-psi-root": {("pole-set", (0, 1, 0, 0), 1)},
    "spurious-edge": {("vanishing", (0, 1, 0, 0), (2, 2))},
}


@pytest.mark.parametrize("eps", [F(1), F(-3, 2)], ids=["eps=1", "eps=-3/2"])
@pytest.mark.parametrize("corruption", list(POLE_CHECK_FAILURES))
def test_corrupted_module_fails_the_pinned_pole_rows(corruption, eps):
    data = ModuleData(4, 2, 2, EquivariantParams(eps))
    pat = build_pattern(4, 2, 2, [0, 1, 0, 0])
    assert all(r.passed for r in verify_pole_classification(data))
    if corruption == "moved-pole":
        data.poles[pat, 1, 1] += eps
    elif corruption == "missing-pole":
        del data.poles[pat, 1, 1]
    elif corruption == "moved-psi-root":
        psi = data.psi[pat, 1]
        first, *rest = psi.den_roots
        data.psi[pat, 1] = FactoredRatFunc.make(psi.scalar, psi.num_roots, [first + eps, *rest])
    else:
        assert pat.bumped(2, 2, +1) is None
        data.table[pat, 2, 2] = (F(1), F(1))
    failed = {
        (r.relation_id, *r.params.values())
        for r in verify_pole_classification(data)
        if not r.passed
    }
    assert failed == POLE_CHECK_FAILURES[corruption]


@pytest.mark.parametrize("eps", [F(1), F(3, 2), F(-3, 2), F(2, 7)])
def test_moved_chain_psi_root_fails_its_chain_psi_row(eps):
    # negative control: one numerator root of the psi of the chain state
    # m = 1 of (4,1,3) moved by eps fails that state's chain-psi row alone
    data = ModuleData(4, 1, 3, EquivariantParams(eps))
    pat = build_pattern(4, 1, 3, [1, 0, 0])
    assert all(r.passed for r in verify_reductions(data))
    psi = data.psi[pat, 1]
    first, *rest = psi.num_roots
    data.psi[pat, 1] = FactoredRatFunc.make(psi.scalar, [first + eps, *rest], psi.den_roots)
    failed = [(r.relation_id, r.params) for r in verify_reductions(data) if not r.passed]
    assert failed == [("chain-psi", {"n": 1})]


# (4,2,2) with one field of arrow A1 changed in a copy of the quiver: every
# failing row of verify_constraints as (relation, loop). A1 sits in two
# superpotential loops, 0 and 2, so each change fails the rows of those loops;
# vertex-sum passes, since it sums to zero whatever the weights.
CHANGED_ARROW_FAILURES = {
    "weight": (LinearForm(2, 0), [("loop-weight", 0), ("loop-weight", 2)]),
    "r_charge": (1, [("loop-rcharge", 0), ("loop-rcharge", 2)]),
}


@pytest.mark.parametrize("field", list(CHANGED_ARROW_FAILURES))
def test_changed_arrow_fails_the_loop_rows_of_its_loops(monkeypatch, field):
    shift, expected = CHANGED_ARROW_FAILURES[field]

    def changed(*grid):
        spec = build_quiver(*grid)
        arrows = tuple(
            arr._replace(**{field: getattr(arr, field) + shift}) if arr.name == "A1" else arr
            for arr in spec.arrows
        )
        return spec._replace(arrows=arrows)

    monkeypatch.setattr(modes, "build_quiver", changed)
    reports = verify_constraints(ModuleData(4, 2, 2, EPS1))
    assert [(r.relation_id, *r.params.values()) for r in reports if not r.passed] == expected


def test_reductions():
    reports = verify_reductions(ModuleData(3, 1, 2, EPS1))
    assert all(r.passed for r in reports)
    lower = {r.params["n"]: r for r in reports if r.relation_id == "chain-lower"}
    assert lower[1].residual == 0  # -n(lam - n + 1) at n = 1 is -2
    assert all(r.passed for r in verify_reductions(ModuleData(4, 1, 2, EPS1)))
    with pytest.raises(InvalidParams):
        verify_reductions(ModuleData(4, 2, 1, EPS1))
    reports = verify_reductions(ModuleData(5, 1, 2, EPS1))
    conj = [r for r in reports if r.relation_id == "dim-conjugation"]
    assert all(r.passed for r in conj)


def test_cutoff_validation():
    with pytest.raises(InvalidParams):
        build_mode_operators(ModuleData(3, 1, 1, EPS1), cutoff=-1)
    with pytest.raises(InvalidParams):
        build_mode_operators(ModuleData(3, 1, 1, EquivariantParams(1, F(1, 2))), cutoff=1)
