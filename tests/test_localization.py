from fractions import Fraction
from math import factorial

import pytest

from gtyang.amplitudes import amplitude_E, amplitude_F, psi_closed_form
from gtyang.crystal import fixed_point_matrices
from gtyang.localization import (
    DeformationComplex,
    NotAdjacent,
    _regularize_tangent,
    amplitudes_via_localization,
    euler_class,
    incidence_euler,
    tangent_graded,
)
from gtyang.modes import verify_localization
from gtyang.patterns import build_pattern, enumerate_patterns, raise_pole, vacuum_pattern
from gtyang.quiver import EquivariantParams, InvariantViolation

F = Fraction
EPS1 = EquivariantParams(1)


def fp_of(pat, params=EPS1):
    return fixed_point_matrices(pat, params, all_framings=True)


def closed_form_euler(lam, n1, n2, eps=F(1)):
    """Rank-two chain norm table."""
    value = eps ** (2 * n1) * F(factorial(lam), factorial(lam - n1))
    value *= factorial(n1 - n2) * factorial(n2)
    for k in range(1, n2 + 1):
        value *= (F(2 * k - 3, 2) * eps) ** 2
    return value


def closed_form_euler_chain(lam, n, eps=F(1)):
    """One-node chain norm, the bottom of the reduction tower."""
    return F(factorial(n) * factorial(lam), factorial(lam - n)) * eps ** (2 * n)


def test_vacuum_tangent_is_empty():
    assert tangent_graded(fp_of(vacuum_pattern(3, 1, 2)), EPS1) == {}
    assert euler_class(fp_of(vacuum_pattern(4, 2, 2)), EPS1).value == 1


def test_rank_two_euler_table():
    for lam in range(4):
        for pat in enumerate_patterns(3, 1, lam):
            n1, n2 = pat.free_values
            got = euler_class(fp_of(pat), EPS1).value
            assert got == closed_form_euler(lam, n1, n2)


def test_rank_two_euler_table_scaled_coupling():
    eps = F(2, 3)
    params = EquivariantParams(eps)
    for pat in enumerate_patterns(3, 1, 2):
        n1, n2 = pat.free_values
        got = euler_class(fixed_point_matrices(pat, params, all_framings=True), params).value
        assert got == closed_form_euler(2, n1, n2, eps)


def test_one_node_chain_euler():
    for lam in range(4):
        for pat in enumerate_patterns(2, 1, lam):
            (n,) = pat.free_values
            assert euler_class(fp_of(pat), EPS1).value == closed_form_euler_chain(lam, n)


def test_euler_spot_values():
    assert euler_class(fp_of(build_pattern(3, 1, 2, [1, 0])), EPS1).value == 2
    assert euler_class(fp_of(build_pattern(3, 1, 2, [1, 1])), EPS1).value == F(1, 2)
    assert euler_class(fp_of(build_pattern(3, 1, 2, [2, 1])), EPS1).value == F(1, 2)


def test_incidence_spot_values():
    lam = 2
    vac = build_pattern(3, 1, lam, [0, 0])
    one = build_pattern(3, 1, lam, [1, 0])
    oneone = build_pattern(3, 1, lam, [1, 1])
    assert incidence_euler(fp_of(vac), fp_of(one), EPS1).value == -1
    assert incidence_euler(fp_of(one), fp_of(oneone), EPS1).value == -1
    # raising the first entry always scales the source norm by -eps
    for pat in enumerate_patterns(3, 1, lam):
        up = pat.bumped(1, 1, +1)
        if up is None:
            continue
        value = incidence_euler(fp_of(pat), fp_of(up), EPS1).value
        assert value == -euler_class(fp_of(pat), EPS1).value


def test_incidence_requires_adjacency():
    lam = 2
    a = build_pattern(3, 1, lam, [0, 0])
    b = build_pattern(3, 1, lam, [1, 1])
    with pytest.raises(NotAdjacent):
        incidence_euler(fp_of(a), fp_of(b), EPS1)
    with pytest.raises(NotAdjacent):
        incidence_euler(fp_of(a), fp_of(a), EPS1)


def test_amplitude_pairs_examples():
    lam = 2
    vac = build_pattern(3, 1, lam, [0, 0])
    one = build_pattern(3, 1, lam, [1, 0])
    assert amplitudes_via_localization(fp_of(vac), fp_of(one), EPS1) == (-1, -2)
    vac4 = build_pattern(4, 1, 1, [0, 0, 0])
    one4 = build_pattern(4, 1, 1, [1, 0, 0])
    e, _ = amplitudes_via_localization(fp_of(vac4), fp_of(one4), EPS1)
    assert e == -1


def grid_pairs(n, p, lam):
    for pat in enumerate_patterns(n, p, lam):
        for k in range(1, n):
            a, b = pat.window(k)
            for j in range(a, b + 1):
                target = pat.bumped(j, k, +1)
                if target is not None:
                    yield pat, target, k, j


@pytest.mark.parametrize("grid", [(3, 1, 2), (4, 1, 2), (4, 2, 2)])
def test_localization_matches_closed_forms(grid):
    n, p, lam = grid
    for pat, target, k, j in grid_pairs(n, p, lam):
        e_loc, f_loc = amplitudes_via_localization(fp_of(pat), fp_of(target), EPS1)
        assert e_loc == amplitude_E(pat, k, j, EPS1).value
        assert f_loc == amplitude_F(target, k, j, EPS1).value


def test_product_equals_residue_via_localization():
    for pat, target, k, j in grid_pairs(4, 2, 1):
        e_loc, f_loc = amplitudes_via_localization(fp_of(pat), fp_of(target), EPS1)
        psi = psi_closed_form(pat, k, EPS1).value
        assert e_loc * f_loc == psi.residue_simple(raise_pole(pat, k, j, EPS1))


def test_weight_preservation_and_gauge_inside_kernel():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    cx = DeformationComplex(fp_of(pat))
    # rows and gauge columns are built with homogeneity checks; touching
    # them here keeps the structural check on the record
    assert cx.rows
    assert cx.gauge_cols
    for w, image in cx.gauge_cols:
        kernel = cx.kernel_sector(w)
        idxs = sorted({i for vec in kernel for i in vec} | set(image))
        from gtyang.linalg import RationalMatrix, rank

        base = [[vec.get(i, 0) for i in idxs] for vec in kernel]
        assert rank(RationalMatrix(base + [[image.get(i, 0) for i in idxs]])) == rank(
            RationalMatrix(base)
        )


def test_reduced_framing_misses_the_table():
    # without the extra framing perturbations the rank-two norms come out
    # wrong, which is why the localization route keeps them all
    pat = build_pattern(3, 1, 2, [1, 1])
    fp = fixed_point_matrices(pat, EPS1, all_framings=False)
    assert euler_class(fp, EPS1).value != closed_form_euler(2, 1, 1)


def test_jump_cells_on_wider_grids_fail_loudly_not_silently():
    # beyond the calibrated grids the trimmed sign is undetermined; the
    # computation must refuse rather than return a wrong value
    from gtyang.localization import UncalibratedCell

    a = build_pattern(5, 2, 2, [1, 2, 1, 1, 0, 1])
    b = a.bumped(2, 3, +1)
    with pytest.raises(UncalibratedCell):
        amplitudes_via_localization(fp_of(a), fp_of(b), EPS1)


def test_double_jump_cells_match_closed_forms():
    # both endpoints jump here; the calibrated split is +larger/-smaller
    a = build_pattern(4, 2, 3, [1, 2, 0, 1])
    b = build_pattern(4, 2, 3, [1, 3, 0, 1])
    e_loc, f_loc = amplitudes_via_localization(fp_of(a), fp_of(b), EPS1)
    assert e_loc == amplitude_E(a, 2, 1, EPS1).value
    assert f_loc == amplitude_F(b, 2, 1, EPS1).value


def test_expected_dimension_is_twice_atom_count():
    for grid in [(3, 1, 3), (4, 2, 2), (4, 1, 2)]:
        n, p, lam = grid
        for pat in enumerate_patterns(n, p, lam):
            graded = tangent_graded(fp_of(pat), EPS1)
            atoms = sum(pat.node_dimension(k) for k in range(1, n))
            assert sum(graded.values()) == 2 * atoms


@pytest.mark.parametrize(
    "sectors",
    [{(F(1), F(0)): 1}, {(F(1), F(0)): 2}],
    ids=["odd-excess", "non-hyperbolic-excess"],
)
def test_untrimmable_excess_raises_typed_error(sectors):
    with pytest.raises(InvariantViolation):
        _regularize_tangent(sectors, 0)


def test_module_pass_builds_one_complex_per_pattern(monkeypatch):
    built = []
    init = DeformationComplex.__init__

    def counting_init(self, fp):
        built.append(fp.pattern)
        init(self, fp)

    monkeypatch.setattr(DeformationComplex, "__init__", counting_init)
    verify_localization(4, 2, 2, EPS1)
    assert len(built) == 20
    assert set(built) == set(enumerate_patterns(4, 2, 2))
