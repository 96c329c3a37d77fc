"""Exact rational functions of one spectral variable, kept in factored form.

A function is stored as ``scalar * prod(z - a_i) / prod(z - b_j)`` with every
piece an exact Fraction. Root bags are sorted tuples with multiplicity and
shared roots cancel at construction time, so equality is plain field
comparison and poles, residues and large-z expansions are O(#roots).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction


class EvalAtPole(ArithmeticError):
    """Evaluation point sits on a denominator root."""


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


@dataclass(frozen=True)
class SeriesPrefix:
    """Constant term plus the first coefficients of a 1/z expansion.

    ``coefficients[j]`` multiplies ``z**(-j-1)``.
    """

    constant_term: Rat
    coefficients: tuple[Rat, ...]


@dataclass(frozen=True)
class FactoredRatFunc:
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
    def one() -> "FactoredRatFunc":
        return FactoredRatFunc(Fraction(1), (), ())

    @staticmethod
    def constant(c) -> "FactoredRatFunc":
        return FactoredRatFunc.make(c)

    @staticmethod
    def linear(root) -> "FactoredRatFunc":
        """The monic factor z - root."""
        return FactoredRatFunc.make(1, (root,), ())

    def is_zero(self) -> bool:
        return self.scalar == 0

    def __mul__(self, other: "FactoredRatFunc") -> "FactoredRatFunc":
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        return FactoredRatFunc.make(
            self.scalar * other.scalar,
            self.num_roots + other.num_roots,
            self.den_roots + other.den_roots,
        )

    def inverse(self) -> "FactoredRatFunc":
        if self.scalar == 0:
            raise ZeroDivisionError("zero function has no inverse")
        return FactoredRatFunc(1 / self.scalar, self.den_roots, self.num_roots)

    def __truediv__(self, other: "FactoredRatFunc") -> "FactoredRatFunc":
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        return self * other.inverse()

    def scaled(self, c) -> "FactoredRatFunc":
        return FactoredRatFunc.make(self.scalar * Fraction(c), self.num_roots, self.den_roots)

    def shifted(self, delta) -> "FactoredRatFunc":
        """f(z - delta): every root moves by +delta."""
        d = Fraction(delta)
        if self.scalar == 0:
            return self
        return FactoredRatFunc(
            self.scalar,
            tuple(r + d for r in self.num_roots),
            tuple(r + d for r in self.den_roots),
        )

    def eval_at(self, z0) -> Rat:
        z = Fraction(z0)
        if z in self.den_roots:
            raise EvalAtPole(f"evaluation at pole z = {z}")
        value = self.scalar
        for a in self.num_roots:
            value *= z - a
        for b in self.den_roots:
            value /= z - b
        return value

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
        num = _poly_from_roots_in_t(self.num_roots, terms)
        den = _poly_from_roots_in_t(self.den_roots, terms)
        quot = _series_divide(num, den, terms)
        # multiply by t**gap and read off coefficients
        coeffs = [Fraction(0)] * terms
        for j, c in enumerate(quot):
            if j + gap < terms:
                coeffs[j + gap] = c * self.scalar
        return SeriesPrefix(coeffs[0], tuple(coeffs[1 : order + 2]))


def _poly_from_roots_in_t(roots: Sequence[Rat], terms: int) -> list[Rat]:
    """Coefficients of prod(1 - r*t) in ascending powers of t, truncated."""
    out = [Fraction(0)] * terms
    out[0] = Fraction(1)
    for r in roots:
        for j in range(terms - 1, 0, -1):
            out[j] -= r * out[j - 1]
    return out


def _series_divide(num: Sequence[Rat], den: Sequence[Rat], terms: int) -> list[Rat]:
    # den[0] == 1 for root products, so the recurrence never divides by zero
    out = [Fraction(0)] * terms
    for j in range(terms):
        acc = num[j]
        for i in range(1, j + 1):
            acc -= den[i] * out[j - i]
        out[j] = acc / den[0]
    return out

