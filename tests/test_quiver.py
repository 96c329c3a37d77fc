from collections import Counter
from fractions import Fraction

import pytest

from gtyang.modes import ModuleData
from gtyang.quiver import (
    FRAMING,
    EquivariantParams,
    InvalidParams,
    LinearForm,
    build_quiver,
    check_constraints,
    exchange_roots,
)

F = Fraction
EPS1 = EquivariantParams(1)


def framing_nodes(spec):
    ends = {(a.source, a.target) for a in spec.arrows if a.is_framing}
    return sorted({t if s == FRAMING else s for s, t in ends})


def arrow_count(spec, a, b):
    return sum(1 for arr in spec.arrows if (arr.source, arr.target) == (a, b))


def test_gauge_arrow_counts():
    for n in range(2, 8):
        spec = build_quiver(n, 1, 2)
        assert len(spec.gauge_arrows) == 3 * n - 5
        loops = [a for a in spec.gauge_arrows if a.source == a.target]
        assert len(loops) == n - 1


def test_build_examples():
    spec = build_quiver(3, 1, 2)
    assert len(spec.gauge_arrows) == 4
    words = {tuple(w) for _, w in spec.superpotential}
    assert ("A1", "C1", "B1") in words
    assert ("B1", "C2", "A1") in words
    assert ("C1", "C1", "R1", "S1") in words

    spec = build_quiver(4, 2, 1)
    assert len(spec.gauge_arrows) == 7
    assert framing_nodes(spec) == [1, 2, 3]

    spec = build_quiver(2, 1, 3)
    assert len(spec.gauge_arrows) == 1
    assert not [a for a in spec.gauge_arrows if a.source != a.target]
    assert framing_nodes(spec) == [1]


def test_invalid_build():
    with pytest.raises(InvalidParams):
        build_quiver(1, 1, 2)
    with pytest.raises(InvalidParams):
        build_quiver(4, 0, 2)
    with pytest.raises(InvalidParams):
        build_quiver(4, 4, 2)
    with pytest.raises(InvalidParams):
        build_quiver(3, 1, -1)


def test_params_coerce_to_fraction_and_refuse_zero_epsilon():
    params = EquivariantParams(3, h="1/2")
    assert (params.epsilon, params.h) == (F(3), F(1, 2))
    assert type(params.epsilon) is F and type(EquivariantParams(1).h) is F
    with pytest.raises(InvalidParams):
        EquivariantParams(F(0), 1)


def test_weight_table():
    spec = build_quiver(4, 2, 3)
    # in units of (eps/2, h)
    assert spec.arrow("C2").weight == LinearForm(2, 0)
    assert spec.arrow("A1").weight == LinearForm(-1, 1)
    assert spec.arrow("B2").weight == LinearForm(-1, -1)
    assert spec.arrow("R2").weight == LinearForm(0, 0)
    assert spec.arrow("S2").weight == LinearForm(-6, 0)
    assert spec.arrow("S1").weight == LinearForm(0, 0)  # zero cutoff off the marked node
    assert [spec.arrow(x).r_charge for x in ("C1", "A1", "B1", "R2", "S2")] == [0, 1, 1, 0, 2]


def test_bond_factor_examples():
    # ModuleData.bonds[a, b]: the (numerator, denominator) exchange roots
    bonds = ModuleData(3, 1, 2, EPS1).bonds
    assert bonds[1, 1] == ((-1,), (1,))
    bonds4 = ModuleData(4, 1, 1, EPS1).bonds
    assert bonds4[1, 2] == ((F(1, 2),), (F(-1, 2),))
    assert bonds4[1, 3] == ((), ())


def test_bond_factor_with_h():
    # the bonds are read at params, with no h = 0 gate
    bonds = ModuleData(3, 1, 2, EquivariantParams(1, F(1, 3))).bonds
    # forward: (z - eps/2 + h) / (z + eps/2 + h)
    assert bonds[1, 2] == ((F(1, 2) - F(1, 3),), (F(-1, 2) - F(1, 3),))
    assert bonds[2, 1] == ((F(1, 2) + F(1, 3),), (F(-1, 2) + F(1, 3),))


def test_bond_factor_reciprocity():
    # phi_ab(u) phi_ba(-u) = 1: each root of phi_ab is minus a root of phi_ba
    # on the other side
    params = EquivariantParams(F(2, 3), F(1, 5))
    for n in range(2, 7):
        bonds = ModuleData(n, 1, 1, params).bonds
        for a in range(1, n):
            for b in range(1, n):
                (num_ab, den_ab), (num_ba, den_ba) = bonds[a, b], bonds[b, a]
                assert num_ab == tuple(-r for r in den_ba)
                assert den_ab == tuple(-r for r in num_ba)


@pytest.mark.parametrize("grid", [(2, 1, 3), (4, 2, 2), (6, 3, 2), (5, 2, 0)])
def test_exchange_roots_share_no_root(grid):
    # a root in both bags cancels, with multiplicity: the label-0 framing
    # pairs leave no 0 over 0, and only a marked node of label > 0 keeps an
    # exchange with the framing node
    n, p, lam = grid
    spec = build_quiver(n, p, lam)
    for a in spec.gauge_nodes:
        roots = exchange_roots(spec, a)
        for b, (num, den) in roots.items():
            assert not Counter(num) & Counter(den), (a, b)
            assert num or den, (a, b)
        assert (FRAMING in roots) == (a == p and lam > 0), a


def assert_loops_vanish(report):
    assert all(form == LinearForm(0, 0) for _, form in report.loop_weight_residuals)
    assert all(r == 0 for _, r in report.loop_rcharge_residuals)


def test_constraints_all_zero_at_h0():
    report = check_constraints(build_quiver(3, 1, 2))
    assert_loops_vanish(report)
    assert all(form.value(EPS1) == 0 for _, form in report.vertex_residuals)


def test_vertex_residual_with_h():
    params = EquivariantParams(1, F(1, 7))
    report = check_constraints(build_quiver(3, 1, 2))
    assert_loops_vanish(report)  # loop sums vanish identically
    by_node = {node: form.value(params) for node, form in report.vertex_residuals}
    assert by_node[1] == F(-2, 7)
    assert by_node[2] == F(2, 7)


def test_loop_sums_identically_zero_and_rcharge_two():
    params = EquivariantParams(F(3, 2), F(5, 11))
    for n, p in [(2, 1), (3, 1), (4, 2), (5, 3), (6, 4)]:
        spec = build_quiver(n, p, 3)
        report = check_constraints(spec)
        assert_loops_vanish(report)
        assert all(form.value(params) == 0 for _, form in report.loop_weight_residuals)


def test_vertex_residuals_sum_to_zero_in_h():
    for n, p in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        spec = build_quiver(n, p, 2)
        report = check_constraints(spec)
        total_e = sum(form.e for _, form in report.vertex_residuals)
        total_h = sum(form.h for _, form in report.vertex_residuals)
        assert total_e == 0 and total_h == 0


def test_loop_constraint_matrix_full_rank():
    from gtyang.linalg import rank

    for n in range(3, 7):
        spec = build_quiver(n, 1, 2)
        gauge = {a.name for a in spec.gauge_arrows}
        # one sparse vector per loop without a framing arrow: arrow -> multiplicity
        rows = [Counter(factors) for _, factors in spec.superpotential if gauge >= set(factors)]
        assert len(rows) == 2 * (n - 2)
        assert rank(rows) == len(rows)


def test_non_chiral():
    spec = build_quiver(5, 2, 2)
    for a in range(1, 5):
        for b in range(1, 5):
            assert arrow_count(spec, a, b) == arrow_count(spec, b, a)
