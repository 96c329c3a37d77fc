"""Exact rational functions of one spectral variable, kept in factored form.

A function is stored as ``scalar * prod(z - a_i/d) / prod(z - b_j/d)``: an
exact Fraction scalar and the roots as int numerators ``a_i``, ``b_j`` over
one positive int root denominator ``d``, the lcm of the reduced root
denominators. Root bags are sorted tuples with multiplicity and shared roots
cancel at construction time, so equality is plain field comparison and
poles, residues and large-z expansions are O(#roots) int products.
"""

# no postponed annotations: NamedTuple compiles a ForwardRef per string field at import

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

Rat = Fraction


class NotAPole(ValueError):
    """Residue requested at a point that is not a pole."""


class NotASimplePole(ValueError):
    """Residue requested at a pole of multiplicity > 1."""


class UnboundedAtInfinity(ValueError):
    """Large-z expansion requested for a function with deg num > deg den."""


def _cancel(num: Iterable[int], den: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both bags sorted, with every root they share removed, in one merge."""
    num, den = sorted(num), sorted(den)
    num_out: list[int] = []
    den_out: list[int] = []
    i = j = 0
    while i < len(num) and j < len(den):
        if num[i] < den[j]:
            num_out.append(num[i])
            i += 1
        elif den[j] < num[i]:
            den_out.append(den[j])
            j += 1
        else:
            i += 1
            j += 1
    num_out += num[i:]
    den_out += den[j:]
    return tuple(num_out), tuple(den_out)


def _over(scalar: Rat, num: tuple[int, ...], den: tuple[int, ...], d: int) -> "FactoredRatFunc":
    """The function of cancelled, sorted root numerators over ``d`` > 0,
    with ``d`` cut to the lcm of the reduced root denominators; a zero
    scalar gives the one zero function."""
    if scalar == 0:
        return FactoredRatFunc(Fraction(0))
    g = gcd(d, *num, *den)
    if g > 1:
        num = tuple(a // g for a in num)
        den = tuple(b // g for b in den)
        d //= g
    return FactoredRatFunc(scalar, num, den, d)


class SeriesPrefix(NamedTuple):
    """Constant term plus the first coefficients of a 1/z expansion.

    ``coefficients[j]`` multiplies ``z**(-j-1)``.
    """

    constant_term: Rat
    coefficients: tuple[Rat, ...]


class FactoredRatFunc(NamedTuple):
    scalar: Rat
    num_ints: tuple[int, ...] = ()  # numerator roots times root_den, sorted
    den_ints: tuple[int, ...] = ()  # denominator roots times root_den, sorted
    root_den: int = 1

    @property
    def num_roots(self) -> tuple[Rat, ...]:
        return tuple(Fraction(a, self.root_den) for a in self.num_ints)

    @property
    def den_roots(self) -> tuple[Rat, ...]:
        return tuple(Fraction(b, self.root_den) for b in self.den_ints)

    @staticmethod
    def make(scalar, num_roots: Sequence = (), den_roots: Sequence = ()) -> "FactoredRatFunc":
        """Canonical constructor: cancels shared roots, normalizes zero."""
        num = [Fraction(r) for r in num_roots]
        den = [Fraction(r) for r in den_roots]
        d = lcm(*(r.denominator for r in num + den))
        num_ints, den_ints = _cancel(
            (r.numerator * (d // r.denominator) for r in num),
            (r.numerator * (d // r.denominator) for r in den),
        )
        return _over(Fraction(scalar), num_ints, den_ints, d)

    @staticmethod
    def from_multiples(
        scalar: Rat, unit: Rat, num_coeffs: Iterable[int] = (), den_coeffs: Iterable[int] = ()
    ) -> "FactoredRatFunc":
        """``make(scalar, [c * unit ...], [c * unit ...])`` for roots that are
        integer multiples of one nonzero ``unit``, both Fractions: the integer
        coefficients cancel, then each surviving one is scaled by the unit's
        numerator over its denominator. A negative unit reverses the sorted
        order, so the result is the same canonical form."""
        num, den = _cancel(num_coeffs, den_coeffs)
        top = unit.numerator
        if top < 0:
            num, den = num[::-1], den[::-1]
        num, den = tuple(c * top for c in num), tuple(c * top for c in den)
        return _over(scalar, num, den, unit.denominator)

    def __mul__(self, other: "FactoredRatFunc") -> "FactoredRatFunc":
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        d = lcm(self.root_den, other.root_den)
        x, y = d // self.root_den, d // other.root_den
        num, den = _cancel(
            [a * x for a in self.num_ints] + [a * y for a in other.num_ints],
            [b * x for b in self.den_ints] + [b * y for b in other.den_ints],
        )
        return _over(self.scalar * other.scalar, num, den, d)

    __rmul__ = __mul__

    def __add__(self, other):
        # a function is not a tuple: refuse concatenation
        return NotImplemented

    def scaled(self, c) -> "FactoredRatFunc":
        return _over(self.scalar * Fraction(c), self.num_ints, self.den_ints, self.root_den)

    def residue_simple(self, z0: Rat) -> Rat:
        """(z - z0) * f(z) at z0 (an int or a Fraction), a simple pole: with
        z0 = x/d each factor z0 - a/d is (x - a)/d, so the value is one int
        product over another times a power of d."""
        d = self.root_den
        x, off = divmod(z0.numerator * d, z0.denominator)  # off: z0 * d is no int
        mult = 0 if off else self.den_ints.count(x)
        if mult == 0:
            raise NotAPole(f"z = {z0} is not a pole")
        if mult > 1:
            raise NotASimplePole(f"z = {z0} has multiplicity {mult}")
        top, bottom = self.scalar.numerator, self.scalar.denominator
        for a in self.num_ints:
            top *= x - a
        for b in self.den_ints:
            if b != x:
                bottom *= x - b
        gap = len(self.den_ints) - 1 - len(self.num_ints)
        if gap >= 0:
            return Fraction(top * d**gap, bottom)
        return Fraction(top, bottom * d**-gap)

    def series_at_infinity(self, order: int) -> SeriesPrefix:
        """Expand around z = infinity in powers of 1/z, through z**(-order-1)."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if self.scalar == 0:
            return SeriesPrefix(Fraction(0), (Fraction(0),) * (order + 1))
        gap = len(self.den_ints) - len(self.num_ints)
        if gap < 0:
            raise UnboundedAtInfinity("deg num > deg den")
        terms = order + 2  # t^0 .. t^(order+1), t = 1/z
        # with r = a / d, the t**j coefficients of prod(1 - r*t) and of the
        # quotient are ints over d**j
        d = self.root_den
        num = _poly_from_roots_in_t(self.num_ints, terms)
        den = _poly_from_roots_in_t(self.den_ints, terms)
        quot = _series_divide(num, den, terms)
        # multiply by scalar * t**gap and read off coefficients
        s_num, s_den = self.scalar.numerator, self.scalar.denominator
        coeffs = [Fraction(0)] * terms
        for j in range(terms - gap):
            coeffs[j + gap] = Fraction(s_num * quot[j], s_den * d**j)
        return SeriesPrefix(coeffs[0], tuple(coeffs[1 : order + 2]))


def _poly_from_roots_in_t(roots: Sequence[int], terms: int) -> list[int]:
    """Coefficients of prod(1 - r*t) in ascending powers of t, truncated."""
    out = [0] * terms
    out[0] = 1
    for r in roots:
        for j in range(terms - 1, 0, -1):
            out[j] -= r * out[j - 1]
    return out


def _series_divide(num: Sequence[int], den: Sequence[int], terms: int) -> list[int]:
    """Power series num / den, truncated; den[0] == 1 for root products, so
    the recurrence stays in the ints and never divides."""
    out = [0] * terms
    for j in range(terms):
        acc = num[j]
        for i in range(1, j + 1):
            acc -= den[i] * out[j - i]
        out[j] = acc
    return out
