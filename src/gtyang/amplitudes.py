"""Cartan eigenvalue functions and raising/lowering amplitudes.

Two independent routes produce the eigenvalue of a diagonal generator on a
state: an atom-by-atom product of bond factors, and a level-free closed form
assembled from the boundary factors of each type ladder. Raising/lowering
amplitudes come from closed-form products over the full pattern triangle and
exist only on the edges of ``amplitude_table``, the moves inside the cone.
Every closed form is written at h = 0 and takes epsilon alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from gtyang.crystal import atoms_at_node
from gtyang.patterns import GTPattern, pole_units
from gtyang.quiver import build_quiver, exchange_roots
from gtyang.rational import FactoredRatFunc

Rat = Fraction


class IndexOutOfRange(IndexError):
    pass


@functools.cache
def _psi_scale(eps: Rat) -> tuple[Rat, Rat]:
    """The scalar -1/eps and the root unit eps/2 of every psi at eps."""
    return Fraction(-1) / eps, eps / 2


def _psi_value(eps: Rat, num: list[int], den: list[int]) -> FactoredRatFunc:
    """-1/eps times the root bags, which are given in units of eps/2."""
    return FactoredRatFunc.from_multiples(*_psi_scale(eps), num, den)


def psi_generic(pat: GTPattern, k: int, eps: Rat) -> FactoredRatFunc:
    """Bond-factor product over every atom of the crystal, the framing atom
    included: a node-b atom of weight w contributes the exchange roots of
    node k with node b, shifted by w (at h = 0, in units of eps/2)."""
    if not 1 <= k <= pat.n - 1:
        raise IndexOutOfRange(f"node {k} out of range")
    num: list[int] = []
    den: list[int] = []
    for b, (b_num, b_den) in exchange_roots(build_quiver(pat.n, pat.p, pat.lam), k).items():
        weights = [atom.weight.e for atom in atoms_at_node(pat, b)]
        num.extend(w + r.e for r in b_num for w in weights)
        den.extend(w + r.e for r in b_den for w in weights)
    return _psi_value(eps, num, den)


def psi_closed_form(pat: GTPattern, k: int, eps: Rat) -> FactoredRatFunc:
    """Level-free route: per type ladder only the boundary factors survive,
    with positions read off the pattern entries directly (in units of eps/2)."""
    if not 1 <= k <= pat.n - 1:
        raise IndexOutOfRange(f"node {k} out of range")
    num: list[int] = []
    den: list[int] = []
    if k == pat.p:
        num.append(2 * pat.lam)
        den.append(0)

    a_k, b_k = pat.window(k)
    for i in range(a_k, b_k + 1):
        base = -2 * (i - a_k) - abs(k - pat.p)
        m = pat.entry(i, k)
        num.extend((base - 2, base))
        den.extend((base + 2 * (m - 1), base + 2 * m))

    for r in (k - 1, k + 1):
        if not 1 <= r <= pat.n - 1:
            continue
        a_r, b_r = pat.window(r)
        for i in range(a_r, b_r + 1):
            base = -2 * (i - a_r) - abs(r - pat.p)
            m = pat.entry(i, r)
            num.append(base + 2 * m - 1)
            den.append(base - 1)
    return _psi_value(eps, num, den)


def _check_type_index(pat: GTPattern, k: int, j: int) -> None:
    if not 1 <= k <= pat.n - 1:
        raise IndexOutOfRange(f"node {k} out of range")
    a, b = pat.window(k)
    if not a <= j <= b:
        raise IndexOutOfRange(f"type index {j} outside [{a}, {b}] at node {k}")


def amplitude_E(pat: GTPattern, k: int, j: int, eps: Rat) -> Rat:
    """Raising coefficient onto the pattern with m[j,k] incremented, for a
    move inside the cone: interlacing keeps every denominator factor nonzero.

    Products run over full triangle rows, frozen entries included.
    """
    _check_type_index(pat, k, j)
    l = pat.shifted
    lj = l(j, k)
    num = den = 1
    for i in range(1, j):
        num *= l(i, k - 1) - lj - 1
        den *= (l(i, k) - lj) * (l(i, k) - lj - 1)
    if k == pat.p:
        for i in range(2, j + 1):
            num *= l(i, k + 1) - lj
        return Fraction(-num * eps.denominator, den * eps.numerator)  # times -1/eps
    for i in range(1, j + 1):
        num *= l(i, k + 1) - lj
    pole = pole_units(pat, k, j)
    # moves whose pole hits the origin collide with the root at h = 0;
    # the vanishing factor is dropped, its partner drops from the
    # reverse lowering, so the residue identity survives untouched
    if pole != 0:
        num *= 2 * eps.denominator
        den *= pole * eps.numerator
    return Fraction(num, den)


def amplitude_F(pat: GTPattern, k: int, j: int, eps: Rat) -> Rat:
    """Lowering coefficient onto the pattern with m[j,k] decremented, for a
    move inside the cone."""
    _check_type_index(pat, k, j)
    l = pat.shifted
    lj = l(j, k)
    num = den = 1
    for i in range(j + 1, k + 2):
        num *= l(i, k + 1) - lj + 1
    for i in range(j, k):
        num *= l(i, k - 1) - lj
    for i in range(j + 1, k + 1):
        den *= (l(i, k) - lj + 1) * (l(i, k) - lj)
    if k == pat.p:
        # the shift of 1 is the one value compatible with the residue identity
        num *= l(1, k + 1) - lj + 1
        return Fraction(num * eps.numerator, den * eps.denominator)  # times eps
    pole = pole_units(pat, k, j) - 2  # the raise pole of the entry below
    num = -num
    if pole != 0:  # dropped in step with the matching raise, see above
        num *= pole * eps.numerator
        den *= 2 * eps.denominator
    return Fraction(num, den)


def amplitude_table(
    states: list[GTPattern], eps: Rat
) -> dict[tuple[GTPattern, int, int], tuple[Rat, Rat]]:
    """(state, node, type) of each raising move out of ``states`` -> its
    (raising, lowering) amplitudes from the closed forms: E out of the state,
    F back from the raised state. Keys and values are shaped like
    ``localize_module``'s."""
    table = {}
    for pat in states:
        for k, j, up in pat.raises():
            table[pat, k, j] = amplitude_E(pat, k, j, eps), amplitude_F(up, k, j, eps)
    return table


def gelfand_squared_closed_form(pat: GTPattern, k: int, j: int) -> Rat:
    """Independent route: the classical square E * F of raising m[j,k], a
    product of shifted entries; 0 where the raise leaves the cone. A lowering
    square is the raising square of the state one below."""
    _check_type_index(pat, k, j)
    if pat.bumped(j, k, +1) is None:
        return Fraction(0)
    l = pat.shifted
    x = l(j, k)
    num, den = -1, 1
    for i in range(1, k + 2):
        num *= l(i, k + 1) - x
    for i in range(1, k):
        num *= l(i, k - 1) - x - 1
    for i in range(1, k + 1):
        if i != j:
            den *= (l(i, k) - x) * (l(i, k) - x - 1)
    return Fraction(num, den)
