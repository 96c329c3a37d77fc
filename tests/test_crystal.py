from fractions import Fraction

import pytest

from gtyang.crystal import (
    FixedPoint,
    atoms_at_node,
    fixed_point_matrices,
    verify_f_terms,
)
from gtyang.linalg import RationalMatrix
from gtyang.patterns import build_pattern, enumerate_patterns, vacuum_pattern
from gtyang.quiver import FRAMING, EquivariantParams, LinearForm, build_quiver

F = Fraction
EPS1 = EquivariantParams(1)
GENERIC = EquivariantParams(F(2, 3), F(1, 7))


def ico_identity(n: int, m: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j else 0 for j in range(m)] for i in range(n)], cols=m)


def ico_shift(n: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)], cols=n)


def ico_zero(n: int, m: int) -> RationalMatrix:
    return RationalMatrix.zeros(n, m)


def test_atom_examples_for_middle_framing():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    (one,) = atoms_at_node(pat, 1)
    assert one.weight == LinearForm(-1, -1) and one.r_charge == 1
    (three,) = atoms_at_node(pat, 3)
    assert three.weight == LinearForm(-1, 1) and three.r_charge == 1
    (two,) = atoms_at_node(pat, 2)
    assert two.weight == LinearForm(0, 0) and two.r_charge == 0


def test_atom_ladders_for_edge_framing():
    pat = build_pattern(3, 1, 2, [2, 1])
    node1 = atoms_at_node(pat, 1)
    assert [a.weight.e for a in node1] == [0, 2]
    assert all(a.weight.h == 0 and a.r_charge == 0 for a in node1)
    (node2,) = atoms_at_node(pat, 2)
    assert node2.weight == LinearForm(-1, 1) and node2.r_charge == 1


def test_vacuum_has_no_atoms():
    pat = vacuum_pattern(5, 2, 3)
    assert all(atoms_at_node(pat, k) == () for k in range(1, 5))


def test_atom_counts_and_no_overlap():
    for pat in enumerate_patterns(4, 2, 2):
        for k in range(1, 4):
            assert len(atoms_at_node(pat, k)) == pat.node_dimension(k)
        coords = [a.coordinate for k in range(1, 4) for a in atoms_at_node(pat, k)]
        assert len(coords) == len(set(coords))


def test_deep_path_weights():
    # two steps away from the framing node: double chain asymmetry, R = 2
    pat = build_pattern(4, 1, 1, [1, 1, 1])
    (a3,) = atoms_at_node(pat, 3)
    assert a3.weight == LinearForm(-2, 2)
    assert a3.r_charge == 2


@pytest.mark.parametrize("grid", [(3, 1, 2), (4, 2, 2), (5, 2, 2), (6, 3, 1)])
def test_every_weight_is_an_integer_lattice_pair(grid):
    # arrow and atom weights are (e, h) int pairs worth e * eps/2 + h * h
    weights = [
        arr.weight for framed in (False, True) for arr in build_quiver(*grid, framed).arrows
    ]
    weights += [
        a.weight
        for pat in enumerate_patterns(*grid)
        for k in range(1, pat.n)
        for a in atoms_at_node(pat, k)
    ]
    for w in weights:
        assert type(w.e) is int and type(w.h) is int
        assert w.value(GENERIC) == F(w.e, 2) * GENERIC.epsilon + w.h * GENERIC.h


def test_fixed_point_blocks_edge_framing():
    pat = build_pattern(3, 1, 2, [2, 1])
    fp = fixed_point_matrices(pat)
    assert fp.matrix("C1") == ico_shift(2)
    assert fp.matrix("C2") == ico_shift(1)
    assert fp.matrix("A1") == ico_identity(1, 2)
    assert fp.matrix("B1") == ico_zero(2, 1)
    assert fp.matrix("R1") == ico_identity(2, 1)
    assert fp.matrix("S1") == ico_zero(1, 2)


def test_fixed_point_blocks_middle_framing():
    pat = build_pattern(4, 2, 2, [2, 2, 2, 2])
    fp = fixed_point_matrices(pat)
    stacked = RationalMatrix([[0, 0], [0, 0], [1, 0], [0, 1]])
    assert fp.matrix("A1") == stacked
    side = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert fp.matrix("B1") == side
    assert fp.matrix("A2") == side
    assert fp.matrix("B2") == stacked
    block = RationalMatrix(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    assert fp.matrix("C2") == block
    assert fp.matrix("R2") == RationalMatrix([[1], [0], [0], [0]])


def pairwise_matrices(pat, all_framings):
    """Reference for ``fixed_point_matrices``: every (target, source) pair of
    atoms is compared, and the entry is 1 exactly where the target coordinate
    equals the source coordinate plus the arrow's (weight, r_charge)."""
    spec = build_quiver(pat.n, pat.p, pat.lam, all_framings=all_framings)

    def coords(node):
        return [(0, 0, 0)] if node == FRAMING else [a.coordinate for a in atoms_at_node(pat, node)]

    out = {}
    for arr in spec.arrows:
        disp = (*arr.weight, arr.r_charge)
        src = coords(arr.source)
        rows = [
            [1 if all(s + d == t for s, d, t in zip(sc, disp, tc)) else 0 for sc in src]
            for tc in coords(arr.target)
        ]
        out[arr.name] = RationalMatrix(rows, cols=len(src))
    return out


@pytest.mark.parametrize("all_framings", [False, True])
@pytest.mark.parametrize("grid", [(4, 2, 2), (5, 2, 2), (6, 3, 1)])
def test_fixed_point_matrices_match_pairwise_matching(grid, all_framings):
    for pat in enumerate_patterns(*grid):
        fp = fixed_point_matrices(pat, all_framings=all_framings)
        matrices = {name: fp.matrix(name) for name in fp.maps}
        assert matrices == pairwise_matrices(pat, all_framings)


def reachable_atoms(fp) -> set:
    """(node, atom index) of every atom that the arrow maps reach from the
    framing atom, the framing atom included."""
    seen = {(FRAMING, 0)}
    stack = [(FRAMING, 0)]
    while stack:
        node, i = stack.pop()
        for arr in fp.spec.arrows:
            j = fp.maps[arr.name].get(i)
            if arr.source == node and j is not None and (arr.target, j) not in seen:
                seen.add((arr.target, j))
                stack.append((arr.target, j))
    return seen


def gauge_atoms(fp) -> set:
    return {(k, i) for k in fp.spec.gauge_nodes for i in range(len(fp.node_atoms(k)))}


STABILITY_GRIDS = [(2, 1, 3), (3, 1, 2), (4, 2, 2), (5, 2, 2), (5, 3, 2), (6, 3, 1), (4, 2, 4)]


@pytest.mark.parametrize("all_framings", [False, True])
def test_every_atom_is_reachable_from_the_framing_atom(all_framings):
    # stability: the framing vector generates every node space under the arrows
    checked = 0
    for grid in STABILITY_GRIDS:
        for pat in enumerate_patterns(*grid):
            fp = fixed_point_matrices(pat, all_framings=all_framings)
            assert gauge_atoms(fp) <= reachable_atoms(fp), pat.free_values
            checked += 1
    assert checked == 255


def test_emptied_framing_map_leaves_atoms_unreachable():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    fp = fixed_point_matrices(pat)
    cut = fp._replace(maps={**fp.maps, "R2": {}})
    assert gauge_atoms(fp) <= reachable_atoms(fp)
    assert not gauge_atoms(cut) <= reachable_atoms(cut)


def test_vacuum_fixed_point_shapes():
    fp = fixed_point_matrices(vacuum_pattern(4, 2, 2))
    assert fp.matrix("R2").shape == (0, 1)
    assert fp.matrix("S2").shape == (1, 0)
    assert fp.matrix("A1").shape == (0, 0)


def test_cutoff_relation_shape():
    pat = build_pattern(3, 1, 2, [2, 1])
    fp = fixed_point_matrices(pat)
    climbed = fp.matrix("C1") * fp.matrix("C1") * fp.matrix("R1")
    assert climbed.shape == (2, 1)
    assert climbed == RationalMatrix.zeros(2, 1)


def test_f_terms_exhaustive_small_grid():
    # one symbolic fixed point holds at every (eps, h)
    for pat in enumerate_patterns(4, 2, 2):
        fp = fixed_point_matrices(pat)
        for params in (EPS1, GENERIC, EquivariantParams(F(-3, 2), F(1, 3))):
            assert verify_f_terms(fp, params).ok
    for pat in enumerate_patterns(2, 1, 3):
        assert verify_f_terms(fixed_point_matrices(pat), GENERIC).ok


def test_f_terms_with_all_framings():
    for pat in enumerate_patterns(3, 1, 2):
        fp = fixed_point_matrices(pat, all_framings=True)
        assert verify_f_terms(fp, GENERIC).ok


def hstack(left, right):
    if left.rows == 0 and right.rows == 0:
        return RationalMatrix.zeros(0, left.cols + right.cols)
    return RationalMatrix(
        [lr + rr for lr, rr in zip(left.entries, right.entries)],
        cols=left.cols + right.cols,
    )


def vstack(top, bottom):
    return RationalMatrix(top.entries + bottom.entries, cols=top.cols)


def test_block_forms_exhaustive_edge_framing():
    for pat in enumerate_patterns(4, 1, 2):
        n1, n2, n3 = pat.free_values
        fp = fixed_point_matrices(pat)
        assert fp.matrix("C1") == ico_shift(n1)
        assert fp.matrix("C2") == ico_shift(n2)
        assert fp.matrix("C3") == ico_shift(n3)
        assert fp.matrix("A1") == ico_identity(n2, n1)
        assert fp.matrix("A2") == ico_identity(n3, n2)
        assert fp.matrix("B1") == ico_zero(n1, n2)
        assert fp.matrix("B2") == ico_zero(n2, n3)
        assert fp.matrix("R1") == ico_identity(n1, 1)
        assert fp.matrix("S1") == ico_zero(1, n1)


def test_block_forms_exhaustive_middle_framing():
    for pat in enumerate_patterns(4, 2, 2):
        n1, m1, m2, n3 = pat.free_values
        fp = fixed_point_matrices(pat)
        assert fp.matrix("C1") == ico_shift(n1)
        assert fp.matrix("C3") == ico_shift(n3)
        blocked = vstack(
            hstack(ico_shift(m1), ico_zero(m1, m2)),
            hstack(ico_zero(m2, m1), ico_shift(m2)),
        )
        assert fp.matrix("C2") == blocked
        assert fp.matrix("A1") == vstack(ico_zero(m1, n1), ico_identity(m2, n1))
        assert fp.matrix("B1") == hstack(ico_identity(n1, m1), ico_zero(n1, m2))
        assert fp.matrix("A2") == hstack(ico_identity(n3, m1), ico_zero(n3, m2))
        assert fp.matrix("B2") == vstack(ico_zero(m1, n3), ico_identity(m2, n3))
        assert fp.matrix("R2") == ico_identity(m1 + m2, 1)
        assert fp.matrix("S2") == ico_zero(1, m1 + m2)


def test_corrupted_matrix_reports_nonzero():
    pat = build_pattern(3, 1, 2, [2, 1])
    fp = fixed_point_matrices(pat)
    bad = {0: 0, 1: 0}  # the matrix [[1, 1]]: an extra entry breaks the F-terms
    corrupted = FixedPoint(fp.pattern, fp.spec, fp.atoms, {**fp.maps, "A1": bad})
    report = verify_f_terms(corrupted, EPS1)
    assert not report.ok
    assert report.failures()
