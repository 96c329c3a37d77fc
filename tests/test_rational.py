import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtyang.rational import FactoredRatFunc, NotASimplePole
from gtyang.quiver import LinearForm

F = Fraction


def make(scalar, num=(), den=()):
    return FactoredRatFunc.make(scalar, num, den)


# ---------------------------------------------------------------------------
# dense-polynomial oracles, independent of the factored representation
# ---------------------------------------------------------------------------


def dense_from_roots(roots):
    """Coefficients of prod(z - r), ascending powers of z."""
    out = [F(1)]
    for r in roots:
        shifted = [F(0)] + out                   # * z
        scaled = [-r * c for c in out] + [F(0)]  # * (-r)
        out = [a + b for a, b in zip(shifted, scaled)]
    return out


def dense_eval(coeffs, z):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def oracle_residue(f, z0):
    """lim (z - z0) f(z) via synthetic division of the dense denominator."""
    num = dense_from_roots(f.num_roots)
    den = dense_from_roots(f.den_roots)
    # divide den by (z - z0) once; remainder must be zero for a pole
    quot = [F(0)] * (len(den) - 1)
    carry = F(0)
    for j in range(len(den) - 1, 0, -1):
        quot[j - 1] = den[j] + carry
        carry = quot[j - 1] * z0
    remainder = den[0] + carry
    assert remainder == 0, "oracle called off-pole"
    return f.scalar * dense_eval(num, z0) / dense_eval(quot, z0)


def oracle_series(f, order):
    """Iterated exact limits at infinity on dense polynomials."""
    if f.scalar == 0:
        return [F(0)] * (order + 2)
    num = [f.scalar * c for c in dense_from_roots(f.num_roots)]
    den = dense_from_roots(f.den_roots)
    out = []
    for _ in range(order + 2):
        # limit of num/den at infinity
        dn, dd = len(num) - 1, len(den) - 1
        while dn >= 0 and num[dn] == 0:
            dn -= 1
        if dn > dd:
            raise AssertionError("unbounded")
        c = num[dd] / den[dd] if dn == dd else F(0)
        out.append(c)
        # num <- (num - c * den) * z
        num = [a - c * b for a, b in zip(num + [F(0)] * len(den), den + [F(0)] * len(num))]
        num = [F(0)] + num
    return out


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_mul_telescopes():
    left = make(1, [1], [2])
    right = make(1, [2], [3])
    assert left * right == make(1, [1], [3])


def test_mul_squares_bond_factor():
    # (z+1)/(z-1) squared at unit coupling
    phi = make(1, [-1], [1])
    assert phi * phi == make(1, [-1, -1], [1, 1])


def test_mul_zero_absorbs():
    f = make(F(2, 3), [1, 2], [5])
    assert f * make(0) == make(0)
    assert make(0) * f == make(0)


def test_residue_examples():
    f = make(-1, [2, -1], [1, 0])  # -(z-2)(z+1)/((z-1)z)
    assert f.residue_simple(1) == 2
    assert f.residue_simple(1) == oracle_residue(f, 1)
    g = make(-1, [1], [0])  # -(z-1)/z
    assert g.residue_simple(0) == 1
    with pytest.raises(NotASimplePole):
        make(1, [-1], [1, 1]).residue_simple(1)
    # (z - 7) * f(z) is 0 at the regular point z = 7
    assert f.residue_simple(7) == 0


def test_series_examples():
    s = make(1, [-1], [1]).series_at_infinity(2)
    assert s.constant_term == 1
    assert s.coefficients == (2, 2, 2)
    s = make(-1, [1], [0]).series_at_infinity(1)
    assert s.constant_term == -1
    assert s.coefficients == (1, 0)
    s = make(5).series_at_infinity(3)
    assert s.constant_term == 5
    assert s.coefficients == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="^deg num > deg den$"):
        make(1, [0, 1], [2]).series_at_infinity(1)


def test_series_order_check_and_zero_function():
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        make(1, [-1], [1]).series_at_infinity(-1)
    # zero drops its roots, so no degree check applies
    s = make(0, [0, 1], [2]).series_at_infinity(2)
    assert s.constant_term == 0
    assert s.coefficients == (0, 0, 0)


# ---------------------------------------------------------------------------
# randomized properties against the oracles
# ---------------------------------------------------------------------------

small_rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def ratfunc(draw_num, draw_den, scalar):
    return FactoredRatFunc.make(scalar, draw_num, draw_den)


ratfuncs = st.builds(
    ratfunc,
    st.lists(small_rat, max_size=4),
    st.lists(small_rat, max_size=4),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4).filter(lambda s: s != 0),
)


@given(ratfuncs)
@settings(max_examples=150)
def test_residue_matches_dense_limit_oracle(f):
    for pole in set(f.den_roots):
        if f.den_roots.count(pole) == 1:
            assert f.residue_simple(pole) == oracle_residue(f, pole)


@given(ratfuncs, st.integers(min_value=0, max_value=8))
@settings(max_examples=150)
def test_series_matches_long_division_oracle(f, order):
    if len(f.num_roots) > len(f.den_roots):
        with pytest.raises(ValueError, match="^deg num > deg den$"):
            f.series_at_infinity(order)
        return
    expected = oracle_series(f, order)
    got = f.series_at_infinity(order)
    assert got.constant_term == expected[0]
    assert list(got.coefficients) == expected[1 : order + 2]


@given(ratfuncs, ratfuncs, ratfuncs)
@settings(max_examples=150)
def test_mul_associative_commutative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(
    st.lists(st.integers(-6, 6), max_size=6),
    st.lists(st.integers(-6, 6), max_size=6),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=5).filter(lambda u: u != 0),
    st.sampled_from([F(0), F(-2, 3), F(5)]),
)
@settings(max_examples=150)
def test_from_multiples_matches_make(num, den, unit, scalar):
    expected = make(scalar, [c * unit for c in num], [c * unit for c in den])
    got = FactoredRatFunc.from_multiples(scalar, unit, num, den)
    assert got == expected


# ---------------------------------------------------------------------------
# the int-root representation: numerators over one canonical root denominator
# ---------------------------------------------------------------------------


def canonical_den(f):
    """The lcm of the reduced denominators of the roots, read from the views."""
    return math.lcm(*(r.denominator for r in f.num_roots + f.den_roots))


def oracle_cancel(num, den):
    """Sorted root bags with shared roots removed, by multiset difference."""
    num_c, den_c = Counter(map(F, num)), Counter(map(F, den))
    return tuple(sorted((num_c - den_c).elements())), tuple(sorted((den_c - num_c).elements()))


def non_pole(*fs):
    """A point that is no root of any of the functions."""
    roots = {r for f in fs for r in f.num_roots + f.den_roots}
    return next(F(k, 7) for k in range(100) if F(k, 7) not in roots)


@given(
    st.lists(st.integers(-12, 12), max_size=6),
    st.lists(st.integers(-12, 12), max_size=6),
    st.integers(1, 12),
    st.sampled_from([1, -1]),
    st.sampled_from([F(1), F(-2, 3), F(5, 4)]),
)
@settings(max_examples=150)
def test_make_over_unlike_denominators_is_from_multiples(num, den, big, sign, scalar):
    # roots c/big reduce to unlike denominators; the unit sign/big is negative
    # for half the draws, which reverses the order of the coefficients
    unit = F(sign, big)
    f = make(scalar, [c * unit for c in num], [c * unit for c in den])
    assert f == FactoredRatFunc.from_multiples(scalar, unit, num, den)
    expected = oracle_cancel([c * unit for c in num], [c * unit for c in den])
    assert (f.num_roots, f.den_roots) == expected
    assert f.root_den == canonical_den(f) > 0
    assert all(isinstance(a, int) for a in f.num_ints + f.den_ints)


def test_cancelled_root_leaves_the_canonical_denominator():
    f = make(1, [F(1, 2), 1], [F(1, 2)])
    assert f == make(1, [1])
    assert (f.num_ints, f.den_ints, f.root_den) == ((1,), (), 1)


@given(ratfuncs, small_rat)
@settings(max_examples=150)
def test_shared_root_of_any_denominator_cancels_away(f, root):
    g = make(f.scalar, [*f.num_roots, root], [*f.den_roots, root])
    assert g == f
    assert g.root_den == canonical_den(f)


@given(ratfuncs, ratfuncs)
@settings(max_examples=150)
def test_mul_over_different_root_denominators(a, b):
    product = a * b
    assert product.root_den == canonical_den(product)
    expected = oracle_cancel(a.num_roots + b.num_roots, a.den_roots + b.den_roots)
    assert (product.num_roots, product.den_roots) == expected
    z = non_pole(a, b)

    def value(f):
        return f.scalar * dense_eval(dense_from_roots(f.num_roots), z) / dense_eval(
            dense_from_roots(f.den_roots), z
        )

    assert value(product) == value(a) * value(b)


def test_mul_of_unlike_root_denominators_example():
    product = make(1, [F(1, 2)], [F(1, 3)]) * make(2, [F(1, 3)], [F(-3, 4)])
    assert product == make(2, [F(1, 2)], [F(-3, 4)])
    assert product.root_den == 4


@given(ratfuncs, st.integers(-20, 20), st.integers(2, 30))
@settings(max_examples=150)
def test_residue_off_the_root_denominator_is_not_a_pole(f, top, bottom):
    z = F(top, bottom)
    if f.root_den % z.denominator == 0:
        return
    assert f.residue_simple(z) == 0


W = LinearForm(1, 0)
R = FactoredRatFunc.make(2, [1], [3])


@pytest.mark.parametrize(
    "op",
    [lambda: 2 * W, lambda: W * 2, lambda: 2 * R, lambda: R * 2, lambda: R + R],
    ids=["int*form", "form*int", "int*func", "func*int", "func+func"],
)
def test_tuple_arithmetic_is_refused(op):
    # the numeric records are NamedTuples; tuple repetition and
    # concatenation must not leak through as plain tuples
    with pytest.raises(TypeError):
        op()
