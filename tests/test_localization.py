import copy
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from euler_class import euler_class
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtyang.amplitudes import amplitude_E, amplitude_F, psi_closed_form
from gtyang.crystal import atom_map, fixed_point_matrices, verify_f_terms
from gtyang.linalg import RationalMatrix, rank
from gtyang.localization import (
    DeformationComplex,
    NotAdjacent,
    StabilityViolation,
    UncalibratedCell,
    _added_atom,
    _hom,
    _images,
    _incidence_solutions,
    _regularize_tangent,
    _sector_ratio,
    amplitudes_via_localization,
    incidence_tangent_graded,
    tangent_graded,
)
from gtyang.modes import ModuleData, verify_localization
from gtyang.patterns import build_pattern, enumerate_patterns, raise_pole, vacuum_pattern
from gtyang.quiver import FRAMING, ZERO_FORM, EquivariantParams, InvariantViolation, LinearForm

F = Fraction
EPS1 = EquivariantParams(1)


def fp_of(pat):
    return fixed_point_matrices(pat)


def grid_id(grid):
    return "-".join(map(str, grid))


def euler_of(pat, params=EPS1):
    return euler_class(tangent_graded(fp_of(pat)), params)


def incidence_euler_of(pat, up, params=EPS1):
    ends = DeformationComplex(fp_of(pat)), DeformationComplex(fp_of(up))
    return euler_class(incidence_tangent_graded(*ends), params)


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
    assert tangent_graded(fp_of(vacuum_pattern(3, 1, 2))) == {}
    assert euler_of(vacuum_pattern(4, 2, 2)) == 1


def test_rank_two_euler_table():
    for lam in range(4):
        for pat in enumerate_patterns(3, 1, lam):
            n1, n2 = pat.free_values
            got = euler_of(pat)
            assert got == closed_form_euler(lam, n1, n2)


def test_rank_two_euler_table_scaled_coupling():
    eps = F(2, 3)
    params = EquivariantParams(eps)
    for pat in enumerate_patterns(3, 1, 2):
        n1, n2 = pat.free_values
        got = euler_of(pat, params)
        assert got == closed_form_euler(2, n1, n2, eps)


def test_one_node_chain_euler():
    for lam in range(4):
        for pat in enumerate_patterns(2, 1, lam):
            (n,) = pat.free_values
            assert euler_of(pat) == closed_form_euler_chain(lam, n)


def test_euler_spot_values():
    assert euler_of(build_pattern(3, 1, 2, [1, 0])) == 2
    assert euler_of(build_pattern(3, 1, 2, [1, 1])) == F(1, 2)
    assert euler_of(build_pattern(3, 1, 2, [2, 1])) == F(1, 2)


def test_incidence_spot_values():
    lam = 2
    vac = build_pattern(3, 1, lam, [0, 0])
    one = build_pattern(3, 1, lam, [1, 0])
    oneone = build_pattern(3, 1, lam, [1, 1])
    assert incidence_euler_of(vac, one) == -1
    assert incidence_euler_of(one, oneone) == -1
    # raising the first entry always scales the source norm by -eps
    for pat in enumerate_patterns(3, 1, lam):
        up = pat.bumped(1, 1, +1)
        if up is None:
            continue
        assert incidence_euler_of(pat, up) == -euler_of(pat)


def test_incidence_requires_adjacency():
    lam = 2
    a = build_pattern(3, 1, lam, [0, 0])
    b = build_pattern(3, 1, lam, [1, 1])
    with pytest.raises(NotAdjacent):
        incidence_euler_of(a, b)
    with pytest.raises(NotAdjacent):
        incidence_euler_of(a, a)


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
        assert e_loc == amplitude_E(pat, k, j, EPS1.epsilon)
        assert f_loc == amplitude_F(target, k, j, EPS1.epsilon)


def test_product_equals_residue_via_localization():
    for pat, target, k, j in grid_pairs(4, 2, 1):
        e_loc, f_loc = amplitudes_via_localization(fp_of(pat), fp_of(target), EPS1)
        psi = psi_closed_form(pat, k, EPS1.epsilon)
        assert e_loc * f_loc == psi.residue_simple(raise_pole(pat, k, j, EPS1.epsilon))


def action(fp, fp_prime):
    """The linearized action for fixed points V, V' with atom maps q, q':
    the arrow slots Hom(V'_src, V_tgt), the directions Hom(V'_a, V_a) of the
    gauge nodes, and the image X q' - q X of each direction X in layout
    order, grouped by its weight. With V' = V it is the gauge action
    gamma q - q gamma, on the slots of the deformation complex."""
    spec, atoms, atoms_prime = fp.spec, fp.atoms, fp_prime.atoms
    slots = _hom(
        (arr.name, atoms[arr.target], atoms_prime[arr.source], arr.weight, arr.r_charge == 2)
        for arr in spec.arrows
    )
    directions = _hom(
        (node, atoms[node], atoms_prime[node], ZERO_FORM, False) for node in spec.gauge_nodes
    )
    terms = {}
    for arr in spec.arrows:  # X q'
        id_tgt = dict(zip(atoms[arr.target], atoms[arr.target]))
        preimage = {t: s for s, t in fp_prime.maps[arr.name].items()}
        terms.setdefault(arr.target, []).append((1, arr.name, id_tgt, preimage))
    for arr in spec.arrows:  # - q X
        id_src = dict(zip(atoms_prime[arr.source], atoms_prime[arr.source]))
        terms.setdefault(arr.source, []).append((-1, arr.name, fp.maps[arr.name], id_src))
    return slots, directions, _images(directions, slots, terms)


def tau_of(cx, cx_plus):
    """The intertwiner tau of a move, the reference the slot keys are
    checked against: node -> the atom map of zero displacement from the
    larger end's atoms onto the smaller end's, the framing node included,
    which is the identity on the atoms both ends hold."""
    return {
        node: atom_map(cx_plus.fp.atoms[node], cx.fp.atoms[node], ZERO_FORM, 0)
        for node in cx.fp.atoms
    }


def pushes(cx, cx_plus, tau, slots):
    """Slot maps of both ends into the intertwining slots of
    ``action(cx.fp, cx_plus.fp)``: dq -> dq tau from the smaller end,
    dq' -> tau dq' from the larger one, where tau has no row at the added
    atom. Every slot keeps its weight."""
    slot_weight, _ = slots
    ends = {arr.name: (arr.source, arr.target) for arr in cx.fp.spec.arrows}
    tau_pre = {node: {s: b for b, s in t.items()} for node, t in tau.items()}
    push = {(name, r, s): (name, r, tau_pre[ends[name][0]][s]) for name, r, s in cx.slot_weight}
    push_plus = {
        (name, b, c): (name, t_tgt[b], c)
        for name, b, c in cx_plus.slot_weight
        if b in (t_tgt := tau[ends[name][1]])
    }
    for end, step in ((cx, push), (cx_plus, push_plus)):
        kept = all(slot_weight[j] == end.slot_weight[i] for i, j in step.items())
        if not kept:
            raise InvariantViolation("push leaves its weight")
    return push, push_plus


def test_weight_preservation_and_gauge_inside_kernel():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    cx = DeformationComplex(fp_of(pat))
    # relation images and gauge columns are built with the homogeneity
    # check; touching them here keeps the structural check on the record
    assert any(image for images in cx.relations.values() for image in images)
    slots, _, gauge_cols = action(cx.fp, cx.fp)
    assert list(slots[0].items()) == list(cx.slot_weight.items())
    assert gauge_cols
    for w, images in gauge_cols.items():
        kernel = cx.kernel_sector(w)
        assert rank(images) == len(images) == cx.gauge_rank_sector(w)
        for image in images:
            assert rank(kernel + [image]) == rank(kernel)


def arrow_matrix(fp, name: str) -> RationalMatrix:
    """The 0/1 matrix of the named arrow's atom map, rows indexed by target atoms."""
    arr = {a.name: a for a in fp.spec.arrows}[name]
    src, tgt = fp.atoms[arr.source], fp.atoms[arr.target]
    return RationalMatrix.from_triples(
        len(tgt), len(src), ((tgt.index(t), src.index(s), 1) for s, t in fp.maps[name].items())
    )


def superpotential_derivative(spec, matrices: dict, name: str) -> RationalMatrix:
    """Cyclic derivative of the superpotential by the named arrow, every
    arrow valued by ``matrices`` (arrow name -> RationalMatrix)."""
    n_tgt, n_src = matrices[name].shape
    total = RationalMatrix(n_src, n_tgt, {})
    for sign, factors in spec.superpotential:
        for pos, factor in enumerate(factors):
            if factor != name:
                continue
            first, *rest = factors[pos + 1 :] + factors[:pos]
            term = matrices[first]
            for other in rest:
                term = term * matrices[other]
            total = total + term.scaled(sign)
    return total


def corrupted_copies(fp, rng):
    """One copy of the fixed point with an arrow entry deleted and one with
    an entry redirected to another atom of its target node, where possible."""
    arrows = [a for a in fp.spec.arrows if fp.maps[a.name]]
    if not arrows:
        return []
    arr = rng.choice(arrows)
    s = rng.choice(list(fp.maps[arr.name]))  # in source atom order
    deleted = {k: v for k, v in fp.maps[arr.name].items() if k != s}
    out = [fp._replace(maps={**fp.maps, arr.name: deleted})]
    others = [t for t in fp.atoms[arr.target] if t != fp.maps[arr.name][s]]
    if others:
        moved = {**fp.maps[arr.name], s: rng.choice(others)}
        out.append(fp._replace(maps={**fp.maps, arr.name: moved}))
    return out


@pytest.mark.parametrize("grid", [(4, 2, 2), (5, 2, 2), (6, 3, 1)])
def test_map_f_terms_match_the_matrix_derivative(grid):
    rng = random.Random(str(grid))
    broken = 0
    for pat in enumerate_patterns(*grid):
        fp = fp_of(pat)
        for case in [fp, *corrupted_copies(fp, rng)]:
            names = [arr.name for arr in case.spec.arrows]
            matrices = {name: arrow_matrix(case, name) for name in names}
            expected = [
                (f"dW/d{name}", superpotential_derivative(case.spec, matrices, name).max_abs())
                for name in names
            ]
            got = list(verify_f_terms(case).residuals[: len(names)])
            assert got == expected, (pat.free_values, case.maps)
            broken += case is not fp and any(value for _, value in expected)
    assert broken  # the corruptions reach the derivative


def superpotential_rows(fp):
    """Reference for ``DeformationComplex.relations``, transposed into rows:
    raise each slot of the fixed point by one unit and read off how every
    derivative of the words without framing arrows moves, one row per
    derivative entry, as (weight, slot -> coefficient) with the slots
    named as the complex names them."""
    cx = DeformationComplex(fp)
    framing = {a.name for a in fp.spec.arrows if a.is_framing}
    words = tuple(w for w in fp.spec.superpotential if framing.isdisjoint(w[1]))
    gauge_spec = fp.spec._replace(superpotential=words)
    arrows = {a.name: a for a in fp.spec.arrows}
    matrices = {name: arrow_matrix(fp, name) for name in arrows}
    entries = {}  # (derivative, row, col) -> {slot: coefficient}
    weights = {}  # (derivative, row, col) -> weights of those slots
    for q in fp.spec.gauge_arrows:
        base = superpotential_derivative(gauge_spec, matrices, q.name)
        for name in {a for _, f in words if q.name in f for a in f} - {q.name}:
            arr = arrows[name]
            m = matrices[name]
            tgt, src = fp.atoms[arr.target], fp.atoms[arr.source]
            for r, c in product(range(m.rows), range(m.cols)):
                bump = RationalMatrix.from_triples(m.rows, m.cols, [(r, c, 1)])
                moved = {**matrices, name: m + bump}
                delta = superpotential_derivative(gauge_spec, moved, q.name) - base
                weight = tgt[r].weight - src[c].weight - arr.weight
                slot = name, tgt[r], src[c]
                for rr, cc, v in delta.nonzeros():
                    entries.setdefault((q.name, rr, cc), {})[slot] = v
                    weights.setdefault((q.name, rr, cc), set()).add(weight)
    out = Counter()
    for key, row in entries.items():
        (weight,) = weights[key]
        out[weight, frozenset(row.items())] += 1
    return out


@pytest.mark.parametrize("grid", [(3, 1, 2), (4, 2, 2), (5, 2, 1)])
def test_relation_rows_are_the_superpotential_first_order(grid):
    for pat in enumerate_patterns(*grid):
        fp = fp_of(pat)
        cx = DeformationComplex(fp)
        # transpose the images of the slots into rows, one per relation cell
        rows = {}
        for w, images in cx.relations.items():
            for slot, image in zip(cx.slots_by_weight[w], images, strict=True):
                for cell, v in image.items():
                    rows.setdefault(cell, (w, {}))[1][slot] = v
        got = Counter((w, frozenset(row.items())) for w, row in rows.values())
        assert got == superpotential_rows(fp)


def off_weight_copies(fp, arrows):
    """Copies of the fixed point with one entry of one of the arrows
    redirected to an atom the arrow does not hit, of another weight than its
    own target."""
    for arr in arrows:
        m = fp.maps[arr.name]
        for s, t in m.items():
            for moved in fp.atoms[arr.target]:
                if moved in m.values() or moved.weight == t.weight:
                    continue
                yield fp._replace(maps={**fp.maps, arr.name: {**m, s: moved}})


def test_an_off_weight_arrow_entry_fails_the_image_weight_check():
    # negative control at (4,2,2): redirect one gauge-arrow entry to an atom
    # the arrow does not hit, of another weight than its own target
    corruptions = 0
    for pat in enumerate_patterns(4, 2, 2):
        fp = fp_of(pat)
        for bad in off_weight_copies(fp, fp.spec.gauge_arrows):
            with pytest.raises(InvariantViolation, match="image leaves its direction weight"):
                DeformationComplex(bad)
            corruptions += 1
    assert corruptions == 56


def test_an_off_weight_framing_entry_fails_the_image_weight_check():
    # the same for the framing arrows, which enter no relation image: the
    # arrow-entry check runs before the generation walk, which would refuse
    # these copies too, with another message
    corruptions = 0
    for pat in enumerate_patterns(4, 2, 2):
        fp = fp_of(pat)
        framing = [arr for arr in fp.spec.arrows if arr.is_framing]
        for bad in off_weight_copies(fp, framing):
            with pytest.raises(InvariantViolation, match="image leaves its direction weight"):
                DeformationComplex(bad)
            corruptions += 1
    assert corruptions == 20


def test_jump_cells_on_wider_grids_fail_loudly_not_silently():
    # beyond the calibrated grids the trimmed sign is undetermined; the
    # computation must refuse rather than return a wrong value
    from gtyang.localization import UncalibratedCell

    a = build_pattern(5, 2, 2, [1, 2, 1, 1, 0, 1])
    b = a.bumped(2, 3, +1)
    with pytest.raises(UncalibratedCell):
        amplitudes_via_localization(fp_of(a), fp_of(b), EPS1)


# the two incidence refusals of the pinned sign rule, on grids that no
# other localization test runs: (grid, state, move, message)
UNCALIBRATED_INCIDENCE_CELLS = [
    ((5, 2, 3), (1, 3, 0, 2, 0, 1), (1, 1), "incidence excess does not match the pair pool"),
    ((5, 2, 3), (2, 3, 1, 3, 0, 1), (4, 3), "incidence excess does not match the pair pool"),
    ((4, 2, 6), (3, 4, 1, 3), (2, 2), "calibrated sector missing from incidence"),
]


@pytest.mark.parametrize(
    "grid, state, move, message",
    UNCALIBRATED_INCIDENCE_CELLS,
    ids=["5-2-3-pool-node1", "5-2-3-pool-node4", "4-2-6-missing-sector"],
)
def test_uncalibrated_incidence_cells_pinned(grid, state, move, message):
    # a derived trim (ROADMAP item 4) that decides one of these cells
    # shows here which
    pat = build_pattern(*grid, state)
    k, j = move
    with pytest.raises(UncalibratedCell, match=f"^{message}$"):
        amplitudes_via_localization(fp_of(pat), fp_of(pat.bumped(j, k, +1)), EPS1)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: 8 decided cells at (4,2,5) differ from the closed forms",
)
def test_decided_cells_at_rank_three_match_the_closed_forms():
    # no UncalibratedCell is raised for these cells, yet their values are
    # wrong: the pinned sign rule does not reach (4,2,5)
    reports = verify_localization(ModuleData(4, 2, 5, EPS1))
    wrong = [r.params for r in reports if r.relation_id == "localization" and not r.passed]
    assert wrong == []


def test_double_jump_cells_match_closed_forms():
    # both endpoints jump here; the calibrated split is +larger/-smaller
    a = build_pattern(4, 2, 3, [1, 2, 0, 1])
    b = build_pattern(4, 2, 3, [1, 3, 0, 1])
    e_loc, f_loc = amplitudes_via_localization(fp_of(a), fp_of(b), EPS1)
    assert e_loc == amplitude_E(a, 2, 1, EPS1.epsilon)
    assert f_loc == amplitude_F(b, 2, 1, EPS1.epsilon)


def test_expected_dimension_is_twice_atom_count():
    for grid in [(3, 1, 3), (4, 2, 2), (4, 1, 2)]:
        n, p, lam = grid
        for pat in enumerate_patterns(n, p, lam):
            graded = tangent_graded(fp_of(pat))
            atoms = sum(pat.node_dimension(k) for k in range(1, n))
            assert sum(graded.values()) == 2 * atoms


@pytest.mark.parametrize(
    "sectors",
    [{LinearForm(2, 0): 1}, {LinearForm(2, 0): 2}],
    ids=["odd-excess", "non-hyperbolic-excess"],
)
def test_untrimmable_excess_raises_typed_error(sectors):
    # a typed error, which `python -O` keeps, naming the pattern
    pat = build_pattern(4, 2, 4, [1, 2, 0, 1])
    with pytest.raises(UncalibratedCell, match=r"excess at \(1, 2, 0, 1\)"):
        _regularize_tangent(sectors, 0, pat)


def test_tangent_undershoot_is_an_invariant_violation():
    # every framing pair keeps the kernel at or above the expected dimension,
    # so a shortfall is a bug, not a cell to leave untrimmed
    pat = build_pattern(4, 2, 4, [1, 2, 0, 1])
    with pytest.raises(InvariantViolation, match=r"\(1, 2, 0, 1\) undershoots"):
        _regularize_tangent({LinearForm(2, 0): 1}, 2, pat)


def test_an_emptied_framing_map_breaks_stability():
    # the cut of test_emptied_framing_map_leaves_atoms_unreachable: without
    # R2 no atom is reached from the framing atom, and the gauge action on
    # the fixed point is not free
    fp = fp_of(build_pattern(4, 2, 2, [1, 1, 0, 1]))
    assert DeformationComplex(fp).tangent
    cut = fp._replace(maps={**fp.maps, "R2": {}})
    with pytest.raises(StabilityViolation, match="framing atom does not generate the fixed point"):
        DeformationComplex(cut)
    # so the gauge ranks are no longer the direction counts
    gauge_cols = action(cut, cut)[2]
    assert sum(map(rank, gauge_cols.values())) < sum(map(len, gauge_cols.values()))


@pytest.mark.parametrize("grid", [(4, 2, 2), (6, 3, 1), (5, 2, 2), (6, 3, 2)], ids=grid_id)
def test_incidence_action_is_injective(grid):
    # the larger end is generated by its framing atom, so an X with
    # X q' = q X vanishes: every weight's action images are independent,
    # which lets the incidence count its solutions with one rank
    complexes = {pat: DeformationComplex(fp_of(pat)) for pat in enumerate_patterns(*grid)}
    weights = 0
    for pat, up, _, _ in grid_pairs(*grid):
        images = action(complexes[pat].fp, complexes[up].fp)[2]
        for w, group in images.items():
            assert rank(group) == len(group), (pat.free_values, up.free_values, w)
        weights += len(images)
    assert weights


@pytest.mark.parametrize("grid", [(4, 2, 2), (6, 3, 1), (5, 2, 2), (6, 3, 2)], ids=grid_id)
def test_action_images_add_no_rank_to_the_pairs(grid):
    # the fact behind the count of _incidence_solutions: an action image is
    # tau applied to a gauge image of the larger end, which lies in its
    # kernel, so at every weight the images add no rank to the pushed pairs
    # and the count of directions gives the solutions that the images gave;
    # reading the slots by name gives the count that tau's pushes give
    complexes = {pat: DeformationComplex(fp_of(pat)) for pat in enumerate_patterns(*grid)}
    weights = 0
    for pat, up, _, _ in grid_pairs(*grid):
        cx, cx_plus = complexes[pat], complexes[up]
        tau = tau_of(cx, cx_plus)
        slots, _, images = action(cx.fp, cx_plus.fp)
        push, push_plus = pushes(cx, cx_plus, tau, slots)
        expected = {}
        for w in sorted(set(cx.kernels) | set(cx_plus.kernels)):
            pairs = [{push[i]: v for i, v in vec.items()} for vec in cx.kernels.get(w, ())]
            pairs += [
                {push_plus[i]: -v for i, v in vec.items() if i in push_plus}
                for vec in cx_plus.kernels.get(w, ())
            ]
            if not pairs:
                continue
            orbits = images.get(w, [])
            assert rank(orbits + pairs) == rank(pairs), (pat.free_values, up.free_values, w)
            expected[w] = len(pairs) + len(orbits) - rank(orbits + pairs)
        assert _incidence_solutions(cx, cx_plus, _added_atom(cx, cx_plus)) == expected
        weights += len(expected)
    assert weights


small_forms = st.builds(LinearForm, st.integers(-4, 4), st.integers(-2, 2))
sector_grading = st.dictionaries(small_forms, st.integers(1, 3), max_size=5)
nonzero_fractions = st.fractions(max_denominator=9).filter(bool)


@given(
    sector_grading,
    sector_grading,
    nonzero_fractions,
    st.one_of(st.just(F(0)), st.fractions(max_denominator=9)),
)
@example({LinearForm(1, 1): 2}, {LinearForm(3, 0): 1, LinearForm(0, 2): 2}, F(3, 2), F(1, 3))
@example({LinearForm(-3, 0): 1}, {LinearForm(2, -1): 3, LinearForm(0, 1): 1}, F(2, 7), F(-5, 3))
@example({LinearForm(0, 1): 1, LinearForm(2, 0): 1}, {LinearForm(-2, 0): 2}, F(-3, 2), F(0))
@settings(max_examples=200)
def test_sector_ratio_is_the_fraction_product(num, den, eps, h):
    # the int products equal the Fraction product of the nonzero values,
    # zero-valued forms cancelling whatever their exponent
    params = EquivariantParams(eps, h)
    expected = F(1)
    for form in set(num) | set(den):
        if form.value(params):
            expected *= form.value(params) ** (num.get(form, 0) - den.get(form, 0))
    assert _sector_ratio(num, den, params) == expected
    assert type(_sector_ratio(num, den, params)) is F


def test_trim_tie_keeps_the_half_integer_loop_weight():
    # weights in units of (eps/2, h): 3/2 eps and eps/2 + h have the same
    # size 3/2 in units of (eps, h), and the tie goes to the smaller weight,
    # so +-(1, 1) is removed; a key of |e| + |h| would rank (3, 0) above
    # (1, 1) and remove +-(3, 0) instead. The two-member pool split of
    # incidence_tangent_graded orders by the same LinearForm.magnitude key.
    w3, w1 = LinearForm(3, 0), LinearForm(1, 1)
    sectors = {w3: 1, -w3: 1, w1: 1, -w1: 1}
    trimmed, removed = _regularize_tangent(sectors, 2, build_pattern(3, 1, 2, [1, 0]))
    assert trimmed == {w3: 1, -w3: 1}
    assert removed == {w1: 1, -w1: 1}


def pairwise_trim(sectors, expected_dim, pattern):
    """The trim one opposite-weight pair at a time, with its exceptions:
    the oracle of ``_regularize_tangent``."""
    out = dict(sectors)
    removed = {}
    excess = sum(out.values()) - expected_dim
    if excess < 0:
        raise InvariantViolation(
            f"tangent at {pattern.free_values} undershoots the expected dimension"
        )
    if excess == 0:
        return out, removed
    if excess % 2:
        raise UncalibratedCell(f"odd tangent excess at {pattern.free_values} cannot pair up")
    candidates = sorted(
        (w for w in out if -w in out and w > -w), key=lambda w: (-w.magnitude(), w)
    )
    for w in candidates:
        mw = -w
        while excess > 0 and out.get(w, 0) > 0 and out.get(mw, 0) > 0:
            for u in (w, mw):
                out[u] -= 1
                removed[u] = removed.get(u, 0) + 1
                if out[u] == 0:
                    del out[u]
            excess -= 2
        if excess == 0:
            break
    if excess:
        raise UncalibratedCell(f"tangent excess at {pattern.free_values} is not hyperbolic")
    return out, removed


@st.composite
def trim_cases(draw):
    """A grading of opposite-weight pairs with random counts on each side
    and some unpaired weights (zero included), and an expected dimension
    from 0 to two above its total."""
    counts = st.integers(1, 3)
    pairs = draw(st.dictionaries(small_forms.filter(lambda w: w > -w), st.tuples(counts, counts)))
    grading = {}
    for w, (up, down) in pairs.items():
        grading[w], grading[-w] = up, down
    for u, count in draw(st.dictionaries(small_forms, counts, max_size=3)).items():
        if u not in grading and -u not in grading:
            grading[u] = count
    return grading, draw(st.integers(0, sum(grading.values()) + 2))


@given(trim_cases())
@example(({LinearForm(2, 0): 2, LinearForm(-2, 0): 1}, 0))
@example(({LinearForm(2, 0): 2}, 0))
@example(({LinearForm(2, 0): 1}, 2))
@settings(max_examples=300)
def test_trim_matches_the_pairwise_oracle(case):
    # the same trimmed grading and removed pairs, as dicts without zero
    # counts, or the same exception type and message
    grading, expected_dim = case
    pat = build_pattern(4, 2, 4, [1, 2, 0, 1])

    def outcome(trim):
        try:
            trimmed, removed = trim(grading, expected_dim, pat)
        except (InvariantViolation, UncalibratedCell) as exc:
            return type(exc), str(exc)
        return dict(trimmed), dict(removed)

    assert outcome(_regularize_tangent) == outcome(pairwise_trim)


def test_module_pass_builds_one_complex_per_pattern(monkeypatch):
    built = []
    init = DeformationComplex.__init__

    def counting_init(self, fp):
        built.append(fp.pattern)
        init(self, fp)

    monkeypatch.setattr(DeformationComplex, "__init__", counting_init)
    verify_localization(ModuleData(4, 2, 2, EPS1))
    assert len(built) == 20
    assert set(built) == set(enumerate_patterns(4, 2, 2))


# SHA-256 of every move's incidence sectors; a move whose endpoint or
# incidence raises records the exception by type and message
INCIDENCE_SECTOR_DIGESTS = {
    (4, 2, 2): "52399d859196711f4bc85aff5a71455e61f76634ac248d664e062fb7e3ff3c73",
    (6, 3, 1): "1c8695ed944b00ccab56d9036bac8afbd7909c3eaf20950e6af6abb4a84dafc1",
    (5, 2, 2): "4e07fa892f9f8d493050cc044822d91da2d0d54bc0380ccea99eb37352790696",
    (4, 2, 5): "7157072dcca9254636e466b60e02dc0af4fd97ee2b46f9ca580a82e4a074f053",
}


@pytest.mark.parametrize("grid", list(INCIDENCE_SECTOR_DIGESTS), ids=grid_id)
def test_incidence_sectors_pinned(grid):
    # the Euler ratios alone would hide two sector changes that cancel
    complexes = {}
    for pat in enumerate_patterns(*grid):
        try:
            complexes[pat] = DeformationComplex(fp_of(pat))
        except UncalibratedCell as exc:
            complexes[pat] = exc
    records = []
    for pat in enumerate_patterns(*grid):
        for k, j, up in pat.raises():
            ends = complexes[pat], complexes[up]
            try:
                for end in ends:
                    if isinstance(end, UncalibratedCell):
                        raise end
                out = sorted((w.e, w.h, d) for w, d in incidence_tangent_graded(*ends).items())
            except UncalibratedCell as exc:
                out = (type(exc).__name__, str(exc))
            records.append((pat.free_values, k, j, out))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == INCIDENCE_SECTOR_DIGESTS[grid]


# SHA-256 of every complex's kernel vectors (sorted within each weight),
# gauge ranks, trimmed tangent and removed pairs, per grid; a complex whose
# construction raises records the exception by type and message
COMPLEX_DIGESTS = {
    (4, 2, 2): "ec97a39edbd05eb0dd63d1b8e6bd46b33d9a278042be8add12428d346002a7c1",
    (6, 3, 1): "12739b022b8c55a9ba4108be71f9c2655ccae0d9f5ae755dcbf80cc294d063fc",
    (5, 2, 2): "2a1eb17657d4cafe411dca09ce378d4a2d43725dbc50b80928a5352ec05b8ecb",
    (4, 2, 5): "095dce57a012446d63d37c0e4d8ac5a7651633b87bb45d3f5ce92ba010162ed9",
}


def complex_record(fp):
    try:
        cx = DeformationComplex(fp)
    except UncalibratedCell as exc:
        return (type(exc).__name__, str(exc))
    # each vector read in slot order, a slot by its place in the layout
    position = {slot: i for i, slot in enumerate(cx.slot_weight)}
    kernels = sorted(
        (w.e, w.h, sorted(sorted((position[slot], v) for slot, v in vec.items()) for vec in vecs))
        for w, vecs in cx.kernels.items()
    )
    gauge_ranks = sorted((w.e, w.h, r) for w, r in cx.gauge_ranks.items())
    tangent = sorted((w.e, w.h, d) for w, d in cx.tangent.items())
    removed = sorted((w.e, w.h, d) for w, d in cx.removed.items())
    return kernels, gauge_ranks, tangent, removed


@pytest.mark.parametrize("grid", list(COMPLEX_DIGESTS), ids=grid_id)
def test_complexes_pinned(grid):
    records = [(pat.free_values, complex_record(fp_of(pat))) for pat in enumerate_patterns(*grid)]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == COMPLEX_DIGESTS[grid]


def _image_of(images, table, key):
    """The action image of the direction ``key`` of a Hom-slot table."""
    weight, by_weight = table
    return images[weight[key]][by_weight[weight[key]].index(key)]


def gauge_identity_failures(cx, cx_plus, tau):
    """(checked, failed) over the identities that let the incidence subtract
    both gauge ranks. For each gl(V_a) direction gamma = E_rs, the push
    dq tau of its gauge image is the action image of gamma tau = E_(r, s'),
    tau(s') = s. For each gl(V'_a) direction gamma' = E_rs, the push
    -tau dq' of its gauge image is minus the action image of
    tau gamma' = E_(tau(r), s), or 0 when r is the added atom."""
    slots, directions, images = action(cx.fp, cx_plus.fp)
    push, push_plus = pushes(cx, cx_plus, tau, slots)
    tau_pre = {node: {s: b for b, s in t.items()} for node, t in tau.items()}
    checked = failed = 0
    for end in (cx, cx_plus):
        _, gl, gauge_images = action(end.fp, end.fp)
        for node, r, s in gl[0]:
            gauge_image = _image_of(gauge_images, gl, (node, r, s))
            if end is cx:
                got = {push[j]: v for j, v in gauge_image.items()}
                want = _image_of(images, directions, (node, r, tau_pre[node][s]))
            else:
                got = {push_plus[j]: -v for j, v in gauge_image.items() if j in push_plus}
                want = {}
                if r in tau[node]:
                    image = _image_of(images, directions, (node, tau[node][r], s))
                    want = {j: -v for j, v in image.items()}
            checked += 1
            failed += got != want
    return checked, failed


@pytest.mark.parametrize("grid", [(3, 1, 2), (4, 2, 2), (6, 3, 1), (5, 2, 2)], ids=grid_id)
def test_gauge_orbits_solve_the_intertwining(grid):
    complexes = {pat: DeformationComplex(fp_of(pat)) for pat in enumerate_patterns(*grid)}
    checked = 0
    for pat, up, _, _ in grid_pairs(*grid):
        cx, cx_plus = complexes[pat], complexes[up]
        tau = tau_of(cx, cx_plus)
        count, failed = gauge_identity_failures(cx, cx_plus, tau)
        assert failed == 0, (pat.free_values, up.free_values)
        checked += count
    assert checked


def test_a_wrong_tau_fails_the_gauge_identities():
    # negative control at (5,2,2): two node-2 atoms of weight 0 swap their
    # images, so every weight is kept and only the intertwining breaks; an
    # image of another weight is refused by the push itself
    pat = build_pattern(5, 2, 2, [2, 2, 2, 2, 0, 0])
    cx, cx_plus = DeformationComplex(fp_of(pat)), DeformationComplex(fp_of(pat.bumped(3, 4, +1)))
    tau = tau_of(cx, cx_plus)
    assert gauge_identity_failures(cx, cx_plus, tau)[1] == 0
    a = cx_plus.fp.atoms[2]
    swapped = {**tau, 2: {**tau[2], a[0]: tau[2][a[3]], a[3]: tau[2][a[0]]}}
    assert a[0].weight == a[3].weight
    assert gauge_identity_failures(cx, cx_plus, swapped)[1] > 0
    crossed = {**tau, 2: {**tau[2], a[0]: tau[2][a[1]], a[1]: tau[2][a[0]]}}
    with pytest.raises(InvariantViolation, match="push leaves its weight"):
        gauge_identity_failures(cx, cx_plus, crossed)


def test_a_slot_name_fixes_its_weight():
    # the incidence sets the smaller end's kernel vectors, over slot names,
    # beside the larger end's, so names are distinct within a complex and a
    # name has one weight in every complex of a grid. On every move the
    # smaller end's slots are slots of the larger end, of the same weights,
    # and the larger end's other slots are those at the added atom
    named = moves = 0
    for grid in [(4, 2, 2), (6, 3, 1), (5, 2, 2)]:
        complexes = {pat: DeformationComplex(fp_of(pat)) for pat in enumerate_patterns(*grid)}
        weights = {}
        for pat, cx in complexes.items():
            laid_out = sum(map(len, cx.slots_by_weight.values()))
            assert len(cx.slot_weight) == laid_out, pat.free_values
            for name, w in cx.slot_weight.items():
                assert weights.setdefault(name, w) == w, name
        named += len(weights)
        for pat, up, _, _ in grid_pairs(*grid):
            smaller, larger = complexes[pat].slot_weight, complexes[up].slot_weight
            added = _added_atom(complexes[pat], complexes[up])
            assert smaller.items() <= larger.items(), (pat.free_values, up.free_values)
            at_added = {slot for slot in larger if added in slot[1:]}
            assert larger.keys() - smaller.keys() == at_added, (pat.free_values, up.free_values)
            moves += 1
    assert named and moves


def test_a_broken_larger_end_arrow_fails_the_intertwining():
    # negative control at (4,2,2): once both complexes are built, delete one
    # entry between old atoms from an arrow of the larger end. The smaller
    # end keeps that entry, so forgetting the added atom no longer
    # intertwines the two ends, whether or not the arrow meets the node of
    # the added atom. Nor does it once the larger end sends the added atom
    # to an old atom: S_k to the framing atom, which every move has
    complexes = {pat: DeformationComplex(fp_of(pat)) for pat in enumerate_patterns(4, 2, 2)}
    broken = Counter()

    def refused(cx, cx_plus, name, m):
        corrupt = copy.copy(cx_plus)
        corrupt.fp = cx_plus.fp._replace(maps={**cx_plus.fp.maps, name: m})
        message = f"projection fails to intertwine {re.escape(name)}$"
        with pytest.raises(InvariantViolation, match=message):
            incidence_tangent_graded(cx, corrupt)

    for pat, up, k, _ in grid_pairs(4, 2, 2):
        cx, cx_plus = complexes[pat], complexes[up]
        fp_plus = cx_plus.fp
        (added,) = set(fp_plus.atoms[k]) - set(cx.fp.atoms[k])
        for arr in fp_plus.spec.arrows:
            m = fp_plus.maps[arr.name]
            old = [s for s, t in m.items() if added not in (s, t)]
            if not old:
                continue
            refused(cx, cx_plus, arr.name, {s: t for s, t in m.items() if s != old[0]})
            broken[k in (arr.source, arr.target)] += 1
        (framing,) = fp_plus.atoms[FRAMING]
        refused(cx, cx_plus, f"S{k}", {**fp_plus.maps[f"S{k}"], added: framing})
        broken["from the added atom"] += 1
    assert broken[True] and broken[False] and broken["from the added atom"]
