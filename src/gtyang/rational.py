"""Exact rational functions of one spectral variable, kept in factored form.

A function is stored as ``scalar * prod(z - a_i) / prod(z - b_j)`` with every
piece an exact Fraction. Root bags are sorted tuples with multiplicity and
shared roots cancel at construction time, so equality is plain field
comparison and poles, residues and large-z expansions are O(#roots).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

Rat = Fraction


class NotAPole(ValueError):
    """Residue requested at a point that is not a pole."""


class NotASimplePole(ValueError):
    """Residue requested at a pole of multiplicity > 1."""


class UnboundedAtInfinity(ValueError):
    """Large-z expansion requested for a function with deg num > deg den."""


def _cancel(num: Iterable[Rat], den: Iterable[Rat]) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    num_c = Counter(num)
    den_c = Counter(den)
    for root in set(num_c) & set(den_c):
        common = min(num_c[root], den_c[root])
        num_c[root] -= common
        den_c[root] -= common
    num_out = tuple(sorted(num_c.elements()))
    den_out = tuple(sorted(den_c.elements()))
    return num_out, den_out


class SeriesPrefix(NamedTuple):
    """Constant term plus the first coefficients of a 1/z expansion.

    ``coefficients[j]`` multiplies ``z**(-j-1)``.
    """

    constant_term: Rat
    coefficients: tuple[Rat, ...]


class FactoredRatFunc(NamedTuple):
    scalar: Rat
    num_roots: tuple[Rat, ...] = ()
    den_roots: tuple[Rat, ...] = ()

    @staticmethod
    def make(scalar, num_roots: Sequence = (), den_roots: Sequence = ()) -> "FactoredRatFunc":
        """Canonical constructor: cancels shared roots, normalizes zero."""
        s = Fraction(scalar)
        if s == 0:
            return FactoredRatFunc(Fraction(0), (), ())
        num, den = _cancel((Fraction(r) for r in num_roots), (Fraction(r) for r in den_roots))
        return FactoredRatFunc(s, num, den)

    @staticmethod
    def from_multiples(
        scalar, unit, num_coeffs: Iterable[int] = (), den_coeffs: Iterable[int] = ()
    ) -> "FactoredRatFunc":
        """``make(scalar, [c * unit ...], [c * unit ...])`` for roots that are
        integer multiples of one nonzero ``unit``: the integer coefficients
        cancel, then each surviving root is scaled once. A negative unit
        reverses the sorted order, so the result is the same canonical form."""
        s = Fraction(scalar)
        if s == 0:
            return FactoredRatFunc(Fraction(0), (), ())
        u = Fraction(unit)
        num, den = _cancel(num_coeffs, den_coeffs)
        if u < 0:
            num, den = num[::-1], den[::-1]
        return FactoredRatFunc(s, tuple(c * u for c in num), tuple(c * u for c in den))

    def __mul__(self, other: "FactoredRatFunc") -> "FactoredRatFunc":
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        return FactoredRatFunc.make(
            self.scalar * other.scalar,
            self.num_roots + other.num_roots,
            self.den_roots + other.den_roots,
        )

    __rmul__ = __mul__

    def __add__(self, other):
        # a function is not a tuple: refuse concatenation
        return NotImplemented

    def scaled(self, c) -> "FactoredRatFunc":
        return FactoredRatFunc.make(self.scalar * Fraction(c), self.num_roots, self.den_roots)

    def residue_simple(self, z0) -> Rat:
        z = Fraction(z0)
        mult = self.den_roots.count(z)
        if mult == 0:
            raise NotAPole(f"z = {z} is not a pole")
        if mult > 1:
            raise NotASimplePole(f"z = {z} has multiplicity {mult}")
        value = self.scalar
        for a in self.num_roots:
            value *= z - a
        for b in self.den_roots:
            if b != z:
                value /= z - b
        return value

    def series_at_infinity(self, order: int) -> SeriesPrefix:
        """Expand around z = infinity in powers of 1/z, through z**(-order-1)."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if self.scalar == 0:
            return SeriesPrefix(Fraction(0), (Fraction(0),) * (order + 1))
        gap = len(self.den_roots) - len(self.num_roots)
        if gap < 0:
            raise UnboundedAtInfinity("deg num > deg den")
        terms = order + 2  # t^0 .. t^(order+1), t = 1/z
        # every root over one common denominator d, r = a / d: the t**j
        # coefficients of prod(1 - r*t) and of the quotient are ints over d**j
        d = lcm(*(r.denominator for r in self.num_roots + self.den_roots))
        num, den = (
            _poly_from_roots_in_t([r.numerator * (d // r.denominator) for r in roots], terms)
            for roots in (self.num_roots, self.den_roots)
        )
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
