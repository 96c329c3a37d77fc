from fractions import Fraction

import pytest

from gtyang.crystal import (
    FixedPoint,
    atoms_at_node,
    fixed_point_matrices,
    verify_f_terms,
)
from gtyang.patterns import build_pattern, enumerate_patterns, vacuum_pattern
from gtyang.quiver import FRAMING, EquivariantParams, LinearForm, build_quiver

F = Fraction
GENERIC = EquivariantParams(F(2, 3), F(1, 7))


def identity_map(n: int, m: int, row_offset: int = 0) -> dict:
    """The map of an n x m identity block whose rows start at ``row_offset``."""
    return {i: row_offset + i for i in range(min(n, m))}


def shift_map(n: int, offset: int = 0) -> dict:
    """The map of an n x n shift block on the atoms from ``offset`` on."""
    return {offset + j: offset + j + 1 for j in range(n - 1)}


def atom_counts(fp) -> list[int]:
    return [len(fp.atoms[k]) for k in fp.spec.gauge_nodes]


def index_maps(fp) -> dict:
    """Arrow name -> {source atom index: target atom index}: the block view
    of ``fp.maps``, atoms numbered in node order."""
    out = {}
    for arr in fp.spec.arrows:
        src, tgt = fp.atoms[arr.source], fp.atoms[arr.target]
        out[arr.name] = {src.index(s): tgt.index(t) for s, t in fp.maps[arr.name].items()}
    return out


def compose(maps, *names) -> dict:
    """The map of the product of the named arrows, the last acting first."""
    out = dict(maps[names[-1]])
    for name in reversed(names[:-1]):
        step = maps[name]
        out = {c: step[r] for c, r in out.items() if r in step}
    return out


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
        coords = [(a.weight, a.r_charge) for k in range(1, 4) for a in atoms_at_node(pat, k)]
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
    weights = [arr.weight for arr in build_quiver(*grid).arrows]
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
    maps = index_maps(fp)
    assert atom_counts(fp) == [2, 1]
    assert maps["C1"] == shift_map(2) == {0: 1}
    assert maps["C2"] == shift_map(1) == {}
    assert maps["A1"] == identity_map(1, 2) == {0: 0}
    assert maps["B1"] == {}
    assert maps["R1"] == identity_map(2, 1) == {0: 0}
    assert maps["S1"] == {}


def test_fixed_point_blocks_middle_framing():
    pat = build_pattern(4, 2, 2, [2, 2, 2, 2])
    fp = fixed_point_matrices(pat)
    maps = index_maps(fp)
    assert atom_counts(fp) == [2, 4, 2]
    stacked = {0: 2, 1: 3}  # the 4 x 2 matrix [[0, 0], [0, 0], [1, 0], [0, 1]]
    assert maps["A1"] == stacked
    side = {0: 0, 1: 1}  # the 2 x 4 matrix [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert maps["B1"] == side
    assert maps["A2"] == side
    assert maps["B2"] == stacked
    assert maps["C2"] == {0: 1, 2: 3}  # two 2 x 2 shift blocks
    assert maps["R2"] == {0: 0}


def pairwise_maps(pat):
    """Reference for ``fixed_point_matrices``: every (source, target) pair of
    atoms is compared, and the pair is kept exactly where the target
    coordinates (e, h, R-charge) equal the source coordinates plus the
    arrow's (weight, r_charge). A source atom with two matches would keep
    both pairs."""
    spec = build_quiver(pat.n, pat.p, pat.lam)

    def coordinates(atom):
        return (*atom.weight, atom.r_charge)

    out = {}
    for arr in spec.arrows:
        disp = (*arr.weight, arr.r_charge)
        out[arr.name] = {
            (s, t)
            for s in atoms_at_node(pat, arr.source)
            for t in atoms_at_node(pat, arr.target)
            if all(a + d == b for a, d, b in zip(coordinates(s), disp, coordinates(t)))
        }
    return out


@pytest.mark.parametrize("grid", [(4, 2, 2), (5, 2, 2), (6, 3, 1)])
def test_fixed_point_matrices_match_pairwise_matching(grid):
    for pat in enumerate_patterns(*grid):
        fp = fixed_point_matrices(pat)
        pairs = {name: set(m.items()) for name, m in fp.maps.items()}
        assert pairs == pairwise_maps(pat)
        # every atom names the node that holds it, the framing atom included
        for arr in fp.spec.arrows:
            for s, t in fp.maps[arr.name].items():
                assert (s.node, t.node) == (arr.source, arr.target), arr.name


def reachable_atoms(fp) -> set:
    """Every atom that the arrow maps reach from the framing atom, the
    framing atom included."""
    seen = set(fp.atoms[FRAMING])
    stack = list(seen)
    while stack:
        atom = stack.pop()
        for m in fp.maps.values():
            t = m.get(atom)
            if t is not None and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def gauge_atoms(fp) -> set:
    return {a for k in fp.spec.gauge_nodes for a in fp.atoms[k]}


STABILITY_GRIDS = [(2, 1, 3), (3, 1, 2), (4, 2, 2), (5, 2, 2), (5, 3, 2), (6, 3, 1), (4, 2, 4)]


def test_every_atom_is_reachable_from_the_framing_atom():
    # stability: the framing vector generates every node space under the arrows
    checked = 0
    for grid in STABILITY_GRIDS:
        for pat in enumerate_patterns(*grid):
            fp = fixed_point_matrices(pat)
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
    assert atom_counts(fp) == [0, 0, 0]
    assert len(fp.atoms[FRAMING]) == 1
    assert fp.maps["R2"] == fp.maps["S2"] == fp.maps["A1"] == {}


def test_cutoff_relation_shape():
    pat = build_pattern(3, 1, 2, [2, 1])
    fp = fixed_point_matrices(pat)
    # C1 C1 R1 runs from the framing atom to the two node-1 atoms
    assert atom_counts(fp)[0] == 2 and len(fp.atoms[FRAMING]) == 1
    maps = index_maps(fp)
    assert compose(maps, "C1", "R1") == {0: 1}
    assert compose(maps, "C1", "C1", "R1") == {}


def test_f_terms_exhaustive_small_grid():
    # every check is symbolic, so it holds at every (eps, h)
    checked = 0
    for grid in STABILITY_GRIDS:
        for pat in enumerate_patterns(*grid):
            report = verify_f_terms(fixed_point_matrices(pat))
            assert report.ok, (pat.free_values, report.failures())
            checked += 1
    assert checked == 255


def test_f_terms_with_all_framings():
    # every gauge node carries a framing pair, label-0 ones included, and
    # its F-terms and equivariance are among the relations checked
    checked = 0
    for grid in STABILITY_GRIDS:
        for pat in enumerate_patterns(*grid):
            report = verify_f_terms(fixed_point_matrices(pat))
            residuals = dict(report.residuals)
            for a in range(1, pat.n):
                for arrow in (f"R{a}", f"S{a}"):
                    assert residuals[f"dW/d{arrow}"] == 0, (pat.free_values, arrow)
                    assert residuals[f"equivariance[{arrow}]"] == 0, (pat.free_values, arrow)
            checked += 1
    assert checked == 255


def test_equivariance_is_symbolic():
    # a gap of weight h vanishes at h = 0 but is caught symbolically
    fp = fixed_point_matrices(build_pattern(3, 1, 2, [1, 1]))
    assert index_maps(fp)["A1"] == {0: 0}
    # the node-2 atoms, in the node and in every map, sit one h higher
    lift = {a: a._replace(weight=a.weight + LinearForm(0, 1)) for a in fp.atoms[2]}
    maps = {
        name: {lift.get(s, s): lift.get(t, t) for s, t in m.items()} for name, m in fp.maps.items()
    }
    report = verify_f_terms(fp._replace(atoms={**fp.atoms, 2: tuple(lift.values())}, maps=maps))
    assert ("equivariance[A1]", 2) in report.residuals
    assert "equivariance[A1]" in report.failures()


def test_block_forms_exhaustive_edge_framing():
    for pat in enumerate_patterns(4, 1, 2):
        n1, n2, n3 = pat.free_values
        fp = fixed_point_matrices(pat)
        maps = index_maps(fp)
        assert atom_counts(fp) == [n1, n2, n3]
        assert maps["C1"] == shift_map(n1)
        assert maps["C2"] == shift_map(n2)
        assert maps["C3"] == shift_map(n3)
        assert maps["A1"] == identity_map(n2, n1)
        assert maps["A2"] == identity_map(n3, n2)
        assert maps["B1"] == maps["B2"] == {}
        assert maps["R1"] == identity_map(n1, 1)
        assert maps["S1"] == {}


def test_block_forms_exhaustive_middle_framing():
    for pat in enumerate_patterns(4, 2, 2):
        n1, m1, m2, n3 = pat.free_values
        fp = fixed_point_matrices(pat)
        maps = index_maps(fp)
        assert atom_counts(fp) == [n1, m1 + m2, n3]
        assert maps["C1"] == shift_map(n1)
        assert maps["C3"] == shift_map(n3)
        # node 2 holds an m1 block, then an m2 block
        assert maps["C2"] == {**shift_map(m1), **shift_map(m2, offset=m1)}
        assert maps["A1"] == identity_map(m2, n1, row_offset=m1)
        assert maps["B1"] == identity_map(n1, m1)
        assert maps["A2"] == identity_map(n3, m1)
        assert maps["B2"] == identity_map(m2, n3, row_offset=m1)
        assert maps["R2"] == identity_map(m1 + m2, 1)
        assert maps["S2"] == {}


def test_corrupted_matrix_reports_nonzero():
    pat = build_pattern(3, 1, 2, [2, 1])
    fp = fixed_point_matrices(pat)
    pinned = {
        # the matrix [[1, 1]]: an extra entry breaks the F-terms
        ("A1", (0, 0), (1, 0)): ["dW/dB1", "equivariance[A1]"],
        # the identity on the bottom atom instead of the shift
        ("C1", (0, 0)): ["dW/dB1", "dW/dS1", "equivariance[C1]"],
    }
    for (name, *entries), failures in pinned.items():
        arr = fp.spec.arrow(name)
        src, tgt = fp.atoms[arr.source], fp.atoms[arr.target]
        m = {src[s]: tgt[t] for s, t in entries}
        corrupted = FixedPoint(fp.pattern, fp.spec, fp.atoms, {**fp.maps, name: m})
        report = verify_f_terms(corrupted)
        assert not report.ok
        assert report.failures() == failures
