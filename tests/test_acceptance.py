"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality of rationals, root multisets or integer
counts; there are no tolerances anywhere. Each test prints a single
PASS line with its scope once its assertions have gone through.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from euler_class import euler_class

from gtyang.amplitudes import (
    amplitude_E,
    amplitude_F,
    gelfand_squared_closed_form,
    psi_closed_form,
    psi_generic,
)
from gtyang.crystal import fixed_point_matrices
from gtyang.localization import amplitudes_via_localization, tangent_graded
from gtyang.modes import (
    ModuleData,
    build_mode_operators,
    verify_hysteresis,
    verify_mode_relations,
    verify_pole_classification,
    verify_reductions,
    verify_serre,
)
from gtyang.patterns import (
    build_pattern,
    enumerate_patterns,
    pole_units,
    rectangular_dimension,
    type_range,
)
from gtyang.quiver import EquivariantParams

F = Fraction
EPS1 = EquivariantParams(1)


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def brute_force_count(n, p, lam):
    """Scan the whole free-entry box and test every triangular inequality
    on the assembled full triangle; no shortcuts shared with the package."""
    frozen = []
    for k in range(1, n + 1):
        if k == n:
            frozen.append([lam if i <= n - p else 0 for i in range(1, n + 1)])
        else:
            a, b = type_range(n, p, k)
            frozen.append([lam if i < a else (0 if i > b else None) for i in range(1, k + 1)])
    slots = [(k, i) for k in range(1, n) for i in range(1, k + 1) if frozen[k - 1][i - 1] is None]
    count = 0
    for combo in itertools.product(range(lam + 1), repeat=len(slots)):
        rows = [list(row) for row in frozen]
        for (k, i), value in zip(slots, combo):
            rows[k - 1][i - 1] = value
        good = True
        for k in range(1, n):
            row, above = rows[k - 1], rows[k]
            for i in range(1, k + 1):
                if not above[i - 1] >= row[i - 1] >= above[i]:
                    good = False
                    break
            if not good:
                break
        count += good
    return count


def grid_moves(n, p, lam):
    for pat in enumerate_patterns(n, p, lam):
        for k in range(1, n):
            a, b = pat.window(k)
            for j in range(a, b + 1):
                yield pat, k, j


def test_criterion_01_dimension_counts():
    start = time.time()
    for lam in range(7):
        assert len(enumerate_patterns(3, 1, lam)) == (lam + 1) * (lam + 2) // 2
    for lam in range(5):
        expected = (lam + 1) * (lam + 2) ** 2 * (lam + 3) // 12
        assert len(enumerate_patterns(4, 2, lam)) == expected
    checked = 0
    for n in range(2, 7):
        for p in range(1, n):
            for lam in range(4):
                dim = rectangular_dimension(n, p, lam)
                assert len(enumerate_patterns(n, p, lam)) == dim
                assert brute_force_count(n, p, lam) == dim
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 5, f"criterion 1 took {elapsed:.1f}s"
    report("criterion-01 dimensions", f"{checked} parameter triples in {elapsed:.1f}s")


def test_criterion_02_psi_dual_routes():
    start = time.time()
    states = 0
    for n in range(2, 7):
        for p in range(1, n):
            for lam in range(4):
                for pat in enumerate_patterns(n, p, lam):
                    states += 1
                    for k in range(1, n):
                        assert (
                            psi_generic(pat, k, EPS1.epsilon)
                            == psi_closed_form(pat, k, EPS1.epsilon)
                        )
    elapsed = time.time() - start
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"
    report("criterion-02 psi dual routes", f"{states} states in {elapsed:.1f}s")


HYSTERESIS_GRID = [
    (3, 1, 1), (3, 1, 2), (3, 1, 3),
    (4, 1, 1), (4, 1, 2), (4, 1, 3),
    (4, 2, 1), (4, 2, 2), (4, 2, 3),
    (5, 2, 1), (5, 2, 2),
    (6, 3, 1),
]


def test_criterion_03_hysteresis():
    start = time.time()
    total = 0
    for n, p, lam in HYSTERESIS_GRID:
        reports = verify_hysteresis(ModuleData(n, p, lam, EPS1))
        assert all(r.residual == 0 for r in reports), f"hysteresis fails on ({n},{p},{lam})"
        total += len(reports)
    report("criterion-03 hysteresis", f"{total} identities on {len(HYSTERESIS_GRID)} grids "
           f"in {time.time() - start:.1f}s")


def test_criterion_04_specialization_tables():
    lam = 3
    for pat in enumerate_patterns(3, 1, lam):
        n1, n2 = pat.free_values
        if n1 < lam:
            assert amplitude_E(pat, 1, 1, EPS1.epsilon) == -1
        if n2 < n1:
            assert amplitude_E(pat, 2, 2, EPS1.epsilon) == F(n1 - n2, 1) / (n2 - F(1, 2))
            assert amplitude_F(pat, 1, 1, EPS1.epsilon) == -(n1 - n2) * (lam - n1 + 1)
        if n2 > 0:
            assert amplitude_F(pat, 2, 2, EPS1.epsilon) == n2 * (n2 - F(3, 2))
    lam = 2
    for pat in enumerate_patterns(4, 1, lam):
        n1, n2, n3 = pat.free_values
        if n2 < n1:
            assert amplitude_E(pat, 2, 2, EPS1.epsilon) == F(n1 - n2, 1) / (n2 - F(1, 2))
        if n3 < n2 and n3 != 1:
            assert amplitude_E(pat, 3, 3, EPS1.epsilon) == F(n2 - n3, 1) / (n3 - 1)
        if n3 > 0 and n3 != 2:
            assert amplitude_F(pat, 3, 3, EPS1.epsilon) == n3 * (n3 - 2)
    for pat in enumerate_patterns(4, 2, lam):
        n1, m1, m2, n3 = pat.free_values
        if pat.bumped(2, 2, +1) is not None:
            assert amplitude_E(pat, 2, 2, EPS1.epsilon) == -F(
                (n1 - m2) * (n3 - m2), (m1 - m2) * (m1 - m2 + 1)
            )
        if pat.bumped(1, 2, -1) is not None:
            assert amplitude_F(pat, 2, 1, EPS1.epsilon) == -F(
                (m1 + 1) * (lam - m1 + 1) * (m1 - n1) * (m1 - n3),
                (m1 - m2 + 1) * (m1 - m2),
            )
        if pat.bumped(2, 2, -1) is not None:
            assert amplitude_F(pat, 2, 2, EPS1.epsilon) == -m2 * (lam - m2 + 2)

    # negative control: the uncorrected marked-node lowering factor breaks
    # the residue identity on an explicit state
    pat = build_pattern(3, 1, 2, [1, 0])
    up = pat.bumped(1, 1, +1)
    eps = EPS1.epsilon
    res = psi_closed_form(pat, 1, eps).residue_simple(ModuleData(3, 1, 2, EPS1).poles[pat, 1, 1])
    good = amplitude_E(pat, 1, 1, eps) * amplitude_F(up, 1, 1, eps)
    # the marked-node factor l(1,2) - l(1,1) + 1 of F with the shift of 1 dropped
    t = up.shifted(1, 2) - up.shifted(1, 1)
    bad = amplitude_E(pat, 1, 1, eps) * amplitude_F(up, 1, 1, eps) * Fraction(t, t + 1)
    assert good == res and bad != res
    report("criterion-04 specialization", "printed tables reproduced; offset-0 control fails")


MODE_GRID = [(3, 1, 2), (4, 1, 2), (4, 2, 2), (5, 2, 1), (5, 2, 2), (6, 3, 2)]


def test_criterion_05_mode_relations():
    start = time.time()
    for n, p, lam in MODE_GRID:
        data = ModuleData(n, p, lam, EPS1)
        reports = verify_mode_relations(build_mode_operators(data, cutoff=3), data)
        assert all(r.residual == 0 for r in reports), f"mode relations fail on ({n},{p},{lam})"
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 5 took {elapsed:.1f}s"
    report("criterion-05 mode relations", f"cutoff 3 on {MODE_GRID}, fixed sign -1, "
           f"{elapsed:.1f}s")


def test_criterion_06_serre():
    for n, p, lam in MODE_GRID:
        ops = build_mode_operators(ModuleData(n, p, lam, EPS1), cutoff=1)
        assert all(r.residual == 0 for r in verify_serre(ops))
    report("criterion-06 serre", f"triple and distant commutators on {MODE_GRID}")


def squared(table, pat, k, j, direction):
    """E * F of a move read from an edge table: a raise from the state's own
    edge, a lower from the edge that raises back into it, 0 off the cone."""
    source = pat if direction == "raise" else pat.bumped(j, k, -1)
    e, f = table.get((source, k, j), (0, 0))
    return e * f


def test_criterion_07_gelfand_squares():
    for n, p, lam in [(3, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2)]:
        table = ModuleData(n, p, lam, EPS1).table
        for pat, k, j in grid_moves(n, p, lam):
            for direction in ("raise", "lower"):
                source = pat if direction == "raise" else pat.bumped(j, k, -1)
                want = 0 if source is None else gelfand_squared_closed_form(source, k, j)
                assert squared(table, pat, k, j, direction) == want
    # printed square tables
    lam = 2
    table = ModuleData(3, 1, lam, EPS1).table
    for pat in enumerate_patterns(3, 1, lam):
        n1, n2 = pat.free_values
        assert squared(table, pat, 1, 1, "raise") == (lam - n1) * (n1 - n2 + 1)
        assert squared(table, pat, 2, 2, "raise") == (n1 - n2) * (n2 + 1)
        assert squared(table, pat, 1, 1, "lower") == (n1 - n2) * (lam - n1 + 1)
        assert squared(table, pat, 2, 2, "lower") == n2 * (n1 - n2 + 1)
    table = ModuleData(4, 1, lam, EPS1).table
    for pat in enumerate_patterns(4, 1, lam):
        n1, n2, n3 = pat.free_values
        assert squared(table, pat, 1, 1, "raise") == (lam - n1) * (n1 - n2 + 1)
        assert squared(table, pat, 2, 2, "raise") == (n1 - n2) * (n2 - n3 + 1)
        assert squared(table, pat, 3, 3, "raise") == (n2 - n3) * (n3 + 1)
        assert squared(table, pat, 3, 3, "lower") == n3 * (n2 - n3 + 1)
    table = ModuleData(4, 2, lam, EPS1).table
    for pat in enumerate_patterns(4, 2, lam):
        n1, m1, m2, n3 = pat.free_values
        assert squared(table, pat, 1, 1, "raise") == (m1 - n1) * (n1 - m2 + 1)
        assert squared(table, pat, 3, 2, "raise") == (m1 - n3) * (n3 - m2 + 1)
        if pat.bumped(1, 2, +1) is not None:
            assert squared(table, pat, 2, 1, "raise") == F(
                (m1 + 2) * (lam - m1) * (m1 - n1 + 1) * (m1 - n3 + 1),
                (m1 - m2 + 2) * (m1 - m2 + 1),
            )
        if pat.bumped(2, 2, +1) is not None:
            assert squared(table, pat, 2, 2, "raise") == F(
                (m2 + 1) * (lam - m2 + 1) * (n1 - m2) * (n3 - m2),
                (m1 - m2) * (m1 - m2 + 1),
            )
    report("criterion-07 gelfand squares", "closed squares match products and printed tables")


def closed_form_euler(lam, n1, n2):
    from math import factorial

    value = F(factorial(lam), factorial(lam - n1)) * factorial(n1 - n2) * factorial(n2)
    for k in range(1, n2 + 1):
        value *= F(2 * k - 3, 2) ** 2
    return value


def test_criterion_08_localization_oracle():
    start = time.time()
    for lam in range(4):
        for pat in enumerate_patterns(3, 1, lam):
            n1, n2 = pat.free_values
            fp = fixed_point_matrices(pat)
            assert euler_class(tangent_graded(fp), EPS1) == closed_form_euler(lam, n1, n2)
    pairs = 0
    for n, p, lam_max in [(3, 1, 3), (4, 1, 2), (4, 2, 2)]:
        for lam in range(lam_max + 1):
            cache = {}

            def fp_of(pattern):
                if pattern not in cache:
                    cache[pattern] = fixed_point_matrices(pattern)
                return cache[pattern]

            for pat, k, j in grid_moves(n, p, lam):
                target = pat.bumped(j, k, +1)
                if target is None:
                    continue
                e_loc, f_loc = amplitudes_via_localization(fp_of(pat), fp_of(target), EPS1)
                assert e_loc == amplitude_E(pat, k, j, EPS1.epsilon)
                assert f_loc == amplitude_F(target, k, j, EPS1.epsilon)
                pairs += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 8 took {elapsed:.1f}s"
    report("criterion-08 localization", f"euler table + {pairs} adjacent pairs in {elapsed:.1f}s")


def test_criterion_09_epsilon_covariance():
    sigma = F(2)
    base, scaled = F(1), sigma
    for n, p, lam in [(3, 1, 2), (4, 2, 2), (5, 2, 1)]:
        for pat in enumerate_patterns(n, p, lam):
            for k in range(1, n):
                f1 = psi_closed_form(pat, k, base)
                f2 = psi_closed_form(pat, k, scaled)
                assert f2.scalar == f1.scalar / sigma
                assert f2.num_roots == tuple(sigma * r for r in f1.num_roots)
                assert f2.den_roots == tuple(sigma * r for r in f1.den_roots)
                a, b = pat.window(k)
                for j in range(a, b + 1):
                    if pole_units(pat, k, j) == 0 or pat.bumped(j, k, +1) is None:
                        continue  # origin collisions break scaling, by construction
                    assert (
                        amplitude_E(pat, k, j, scaled)
                        == amplitude_E(pat, k, j, base) / sigma
                    )
                    if pat.bumped(j, k, -1) is not None:
                        assert (
                            amplitude_F(pat, k, j, scaled)
                            == amplitude_F(pat, k, j, base) * sigma
                        )
    report("criterion-09 epsilon covariance", "psi, raising and lowering scale exactly")


def test_criterion_10_pole_classification():
    for n, p, lam in [(3, 1, 3), (4, 1, 2), (4, 2, 2), (5, 2, 1)]:
        assert all(r.residual == 0 for r in verify_pole_classification(ModuleData(n, p, lam, EPS1)))
    report("criterion-10 poles", "candidate moves equal eigenvalue poles; invalid moves vanish")


def test_criterion_11_reductions():
    for n in (3, 4, 5):
        assert all(r.residual == 0 for r in verify_reductions(ModuleData(n, 1, 2, EPS1)))
    for n in range(2, 7):
        for p in range(1, n):
            for lam in range(3):
                assert rectangular_dimension(n, p, lam) == rectangular_dimension(n, n - p, lam)
    report("criterion-11 reductions", "chain restriction and conjugation symmetry hold")


def test_criterion_12_cli_determinism(cli_env):
    cmd = [
        sys.executable, "-m", "gtyang.cli",
        "verify", "--n", "3", "--p", "1", "--lambda", "2", "--suite", "hysteresis",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    assert first.stdout == second.stdout and first.stdout
    assert json.loads(first.stdout)["passed"] is True
    cmd = [
        sys.executable, "-m", "gtyang.cli",
        "amplitudes", "--n", "4", "--p", "2", "--lambda", "1",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
    assert first.stdout == second.stdout
    report("criterion-12 determinism", "byte-identical verify and amplitude bundles")
