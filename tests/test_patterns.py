import itertools
from fractions import Fraction

import pytest

from gtyang.patterns import (
    GTPattern,
    add_remove_sets,
    build_pattern,
    enumerate_patterns,
    format_pattern,
    parse_pattern,
    rectangular_dimension,
    type_range,
    vacuum_pattern,
)
from gtyang.quiver import InvalidParams

F = Fraction
EPS1 = Fraction(1)


def brute_force_patterns(n, p, lam):
    """Independent oracle: scan the whole free-entry box and keep the
    tuples satisfying every triangular inequality on the full triangle."""
    windows = [type_range(n, p, k) for k in range(1, n)]
    sizes = [b - a + 1 for a, b in windows]
    hits = []
    for combo in itertools.product(range(lam + 1), repeat=sum(sizes)):
        try:
            build_pattern(n, p, lam, combo)
        except InvalidParams:
            continue
        hits.append(combo)
    return hits


def test_counting_examples():
    assert len(enumerate_patterns(3, 1, 2)) == 6
    assert len(enumerate_patterns(4, 2, 1)) == 6
    assert len(enumerate_patterns(5, 2, 1)) == 10
    assert len(brute_force_patterns(5, 2, 1)) == 10


def test_dimension_formulas():
    for lam in range(7):
        assert rectangular_dimension(3, 1, lam) == (lam + 1) * (lam + 2) // 2
    for lam in range(5):
        assert rectangular_dimension(4, 2, lam) == (lam + 1) * (lam + 2) ** 2 * (lam + 3) // 12


def test_enumeration_matches_dimension_and_oracle():
    grids = [(n, p, lam) for n in range(2, 6) for p in range(1, n) for lam in range(3)]
    for n, p, lam in grids + [(6, 3, 2), (4, 2, 5)]:
        pats = enumerate_patterns(n, p, lam)
        assert len(pats) == rectangular_dimension(n, p, lam)
        assert len(pats) == len(set(pats))
        oracle = brute_force_patterns(n, p, lam)
        assert sorted(pat.free_values for pat in pats) == sorted(oracle)


def test_a_refused_raise_loses_a_state(monkeypatch):
    # negative control: the states are what the cone test lets grow from
    # the vacuum, so refusing one valid raise, the only way into (1,1,1,1),
    # loses a state that the hook-content count still has
    bumped = GTPattern.bumped
    refused = (build_pattern(4, 2, 2, [1, 1, 0, 1]), 2, 2, +1)
    lost = build_pattern(4, 2, 2, [1, 1, 1, 1])

    def refusing(pat, i, k, step):
        return None if (pat, i, k, step) == refused else bumped(pat, i, k, step)

    monkeypatch.setattr(GTPattern, "bumped", refusing)
    pats = enumerate_patterns(4, 2, 2)
    assert lost not in pats
    assert len(pats) < rectangular_dimension(4, 2, 2) == 20


def test_conjugation_symmetry():
    for n in range(2, 7):
        for p in range(1, n):
            for lam in range(4):
                assert rectangular_dimension(n, p, lam) == rectangular_dimension(n, n - p, lam)


def test_enumeration_order_is_lex():
    pats = enumerate_patterns(3, 1, 1)
    assert [pat.free_values for pat in pats] == [(0, 0), (1, 0), (1, 1)]
    pats = enumerate_patterns(4, 2, 1)
    keys = [pat.free_values for pat in pats]
    assert keys == sorted(keys)


def test_full_triangle_structure():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])  # (n1; m1, m2; n3)
    assert pat.rows[3] == (2, 2, 0, 0)
    assert pat.rows[2] == (2, 1, 0)
    assert pat.rows[1] == (1, 0)
    assert pat.rows[0] == (1,)
    assert pat.node_dimension(2) == 1
    assert pat.shifted(1, 2) == 0


def test_text_form_round_trip():
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    assert format_pattern(pat) == "1;1,0;1"
    assert parse_pattern("1;1,0;1", 4, 2, 2) == pat
    for pat in enumerate_patterns(5, 2, 2):
        assert parse_pattern(format_pattern(pat), 5, 2, 2) == pat


def test_add_remove_examples():
    # two ways to grow at the marked node, no removal of the root atom
    pat = build_pattern(4, 2, 2, [1, 1, 0, 1])
    add, rem = add_remove_sets(pat, 2, EPS1)
    assert add == [(1, F(1)), (2, F(-1))]
    assert rem == []

    # full first row: the raise candidate disappears, the lowering stays
    pat = build_pattern(3, 1, 2, [2, 0])
    add, rem = add_remove_sets(pat, 1, EPS1)
    assert add == []
    assert rem == [(1, F(1))]

    vac = vacuum_pattern(4, 2, 2)
    for k in (1, 3):
        add, rem = add_remove_sets(vac, k, EPS1)
        assert add == [] and rem == []
    add, rem = add_remove_sets(vac, 2, EPS1)
    assert add == [(1, F(0))] and rem == []


def test_poles_distinct_within_node():
    for pat in enumerate_patterns(4, 2, 2):
        for k in range(1, 4):
            add, rem = add_remove_sets(pat, k, EPS1)
            poles = [pole for _, pole in add] + [pole for _, pole in rem]
            assert len(poles) == len(set(poles))


def test_invalid_patterns_rejected():
    with pytest.raises(InvalidParams, match=r"^interlacing fails at m\[1,1\]$"):
        build_pattern(3, 1, 2, [0, 1])  # n2 > n1
    with pytest.raises(InvalidParams, match=r"^interlacing fails at m\[1,1\]$"):
        build_pattern(3, 1, 2, [3, 0])  # n1 > lam
    with pytest.raises(InvalidParams, match="^not enough free entries$"):
        build_pattern(3, 1, 2, [1])
    with pytest.raises(InvalidParams, match="^too many free entries$"):
        build_pattern(3, 1, 2, [1, 1, 1])
    with pytest.raises(InvalidParams, match="^expected 1 entries in row 2, got 2$"):
        parse_pattern("1;1,1", 3, 1, 2)  # row 2 has one free entry, not two
    with pytest.raises(InvalidParams, match="^expected 2 rows, got 1$"):
        parse_pattern("1", 3, 1, 2)
    with pytest.raises(InvalidParams, match=r"^need 1 <= p <= n-1, got p=5 for n=2$"):
        parse_pattern("0", 2, 5, 1)  # no windows to count the rows against


def test_lambda_zero_has_single_state():
    for n, p in [(2, 1), (4, 2), (5, 3)]:
        pats = enumerate_patterns(n, p, 0)
        assert len(pats) == 1
        assert pats[0] == vacuum_pattern(n, p, 0)


def rebuilt_bump(pat, i, k, step):
    """Reference for ``bumped``: change m[i,k] in a copy of the whole
    triangle, rebuild it from its free entries with full validation, and
    accept it only if the rebuild reproduces the triangle (a frozen entry
    that moved does not)."""
    rows = [list(r) for r in pat.rows]
    rows[k - 1][i - 1] += step
    rows = tuple(tuple(r) for r in rows)
    free = []
    for row in range(1, pat.n):
        a, b = type_range(pat.n, pat.p, row)
        free.extend(rows[row - 1][a - 1 : b])
    try:
        cand = build_pattern(pat.n, pat.p, pat.lam, free)
    except InvalidParams:
        return None
    return cand if cand.rows == rows else None


def test_bumped_matches_full_rebuild():
    checked = accepted = 0
    for n in range(2, 7):
        for p in range(1, n):
            for lam in range(2 if n == 6 else 3):
                for pat in enumerate_patterns(n, p, lam):
                    for k in range(1, n + 1):
                        for i in range(1, k + 1):
                            for step in (-2, -1, 1, 2):
                                got = pat.bumped(i, k, step)
                                assert got == rebuilt_bump(pat, i, k, step)
                                checked += 1
                                accepted += got is not None
    assert 0 < accepted < checked


def test_raises_matches_window_filter():
    checked = 0
    for n in range(2, 6):
        for p in range(1, n):
            for lam in range(3):
                for pat in enumerate_patterns(n, p, lam):
                    expected = []
                    for k in range(1, n):
                        a, b = pat.window(k)
                        expected += [
                            (k, j, pat.bumped(j, k, +1))
                            for j in range(a, b + 1)
                            if pat.bumped(j, k, +1) is not None
                        ]
                    assert list(pat.raises()) == expected
                    checked += len(expected)
                    # the edges are the moves that stay in the cone, in move order
                    kept = [(k, j) for k, j in pat.moves if pat.bumped(j, k, +1) is not None]
                    assert [(k, j) for k, j, _ in pat.raises()] == kept
                    assert pat.free_values == tuple(pat.entry(j, k) for k, j in pat.moves)
    assert checked > 0
