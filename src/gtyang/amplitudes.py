"""Cartan eigenvalue functions and raising/lowering amplitudes.

Two independent routes produce the eigenvalue of a diagonal generator on a
state: an atom-by-atom product of bond factors, and a level-free closed form
assembled from the boundary factors of each type ladder. Raising/lowering
amplitudes come from closed-form products over the full pattern triangle and
vanish exactly on moves that leave the pattern cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gtyang.crystal import atoms_at_node
from gtyang.patterns import GTPattern
from gtyang.quiver import EquivariantParams, InvalidParams
from gtyang.rational import FactoredRatFunc

Rat = Fraction


class IndexOutOfRange(IndexError):
    pass


class InvalidMove(ValueError):
    pass


@dataclass(frozen=True)
class PsiFunction:
    node: int
    pattern: GTPattern
    value: FactoredRatFunc


@dataclass(frozen=True)
class Amplitude:
    kind: str  # "E" or "F"
    node: int
    type_index: int
    value: Rat


def _require_h_zero(params: EquivariantParams) -> None:
    if params.h != 0:
        raise InvalidParams("amplitude computations require h = 0")


def _bond_roots(node_k: int, node_b: int, eps: Rat) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    """Numerator/denominator roots of the h = 0 exchange function."""
    if node_k == node_b:
        return (-eps,), (eps,)
    if abs(node_k - node_b) == 1:
        return (eps / 2,), (-eps / 2,)
    return (), ()


def psi_generic(pat: GTPattern, k: int, params: EquivariantParams) -> PsiFunction:
    """Bond-factor product over every atom of the crystal."""
    _require_h_zero(params)
    if not 1 <= k <= pat.n - 1:
        raise IndexOutOfRange(f"node {k} out of range")
    eps = params.epsilon
    scalar = Fraction(-1) / eps
    num: list[Rat] = []
    den: list[Rat] = []
    if k == pat.p:
        num.append(pat.lam * eps)  # (z + h_S) with h_S = -lam*eps
        den.append(Fraction(0))  # (z - h_R) with h_R = 0
    for b in (k - 1, k, k + 1):
        if not 1 <= b <= pat.n - 1:
            continue
        roots = _bond_roots(k, b, eps)
        for atom in atoms_at_node(pat, b):
            w = atom.weight.value(params)
            num.extend(w + r for r in roots[0])
            den.extend(w + r for r in roots[1])
    return PsiFunction(k, pat, FactoredRatFunc.make(scalar, num, den))


def psi_closed_form(pat: GTPattern, k: int, params: EquivariantParams) -> PsiFunction:
    """Level-free route: per type ladder only the boundary factors survive,
    with positions read off the pattern entries directly."""
    _require_h_zero(params)
    if not 1 <= k <= pat.n - 1:
        raise IndexOutOfRange(f"node {k} out of range")
    eps = params.epsilon
    scalar = Fraction(-1) / eps
    num: list[Rat] = []
    den: list[Rat] = []
    if k == pat.p:
        num.append(pat.lam * eps)
        den.append(Fraction(0))

    a_k, b_k = pat.window(k)
    for i in range(a_k, b_k + 1):
        base = (Fraction(-(i - a_k)) - Fraction(abs(k - pat.p), 2)) * eps
        m = pat.entry(i, k)
        num.extend((base - eps, base))
        den.extend((base + (m - 1) * eps, base + m * eps))

    for r in (k - 1, k + 1):
        if not 1 <= r <= pat.n - 1:
            continue
        a_r, b_r = pat.window(r)
        for i in range(a_r, b_r + 1):
            base = (Fraction(-(i - a_r)) - Fraction(abs(r - pat.p), 2)) * eps
            m = pat.entry(i, r)
            num.append(base + (m - Fraction(1, 2)) * eps)
            den.append(base - eps / 2)
    return PsiFunction(k, pat, FactoredRatFunc.make(scalar, num, den))


def _check_type_index(pat: GTPattern, k: int, j: int) -> None:
    if not 1 <= k <= pat.n - 1:
        raise IndexOutOfRange(f"node {k} out of range")
    a, b = pat.window(k)
    if not a <= j <= b:
        raise IndexOutOfRange(f"type index {j} outside [{a}, {b}] at node {k}")


def amplitude_E(pat: GTPattern, k: int, j: int, params: EquivariantParams) -> Amplitude:
    """Raising coefficient onto the pattern with m[j,k] incremented.

    Products run over full triangle rows, frozen entries included; the
    result is exactly zero whenever the target leaves the pattern cone.
    """
    _require_h_zero(params)
    _check_type_index(pat, k, j)
    # interlacing of a valid move keeps every denominator factor nonzero
    if pat.bumped(j, k, +1) is None:
        return Amplitude("E", k, j, Fraction(0))
    eps = params.epsilon
    l = pat.shifted
    if k == pat.p:
        value = Fraction(-1) / eps
        for i in range(2, j + 1):
            value *= l(i, k + 1) - l(j, k)
        for i in range(1, j):
            value *= l(i, k - 1) - l(j, k) - 1
        for i in range(1, j):
            value /= (l(i, k) - l(j, k)) * (l(i, k) - l(j, k) - 1)
    else:
        value = Fraction(1)
        for i in range(1, j + 1):
            value *= l(i, k + 1) - l(j, k)
        for i in range(1, j):
            value *= l(i, k - 1) - l(j, k) - 1
        for i in range(1, j):
            value /= (l(i, k) - l(j, k)) * (l(i, k) - l(j, k) - 1)
        a_k, _ = pat.window(k)
        pole = l(j, k) * eps + a_k * eps - Fraction(abs(k - pat.p), 2) * eps
        # moves whose pole hits the origin collide with the root at h = 0;
        # the vanishing factor is dropped, its partner drops from the
        # reverse lowering, so the residue identity survives untouched
        if pole != 0:
            value /= pole
    return Amplitude("E", k, j, value)


def amplitude_F(
    pat: GTPattern,
    k: int,
    j: int,
    params: EquivariantParams,
    *,
    top_factor_offset: int = 1,
) -> Amplitude:
    """Lowering coefficient onto the pattern with m[j,k] decremented.

    ``top_factor_offset`` shifts the leading boundary factor at the marked
    node; the default is the unique value compatible with the residue
    identity, offset 0 demonstrably breaks it.
    """
    _require_h_zero(params)
    _check_type_index(pat, k, j)
    if pat.bumped(j, k, -1) is None:
        return Amplitude("F", k, j, Fraction(0))
    eps = params.epsilon
    l = pat.shifted
    if k == pat.p:
        value = (l(1, k + 1) - l(j, k) + top_factor_offset) * eps
        for i in range(j + 1, k + 2):
            value *= l(i, k + 1) - l(j, k) + 1
        for i in range(j, k):
            value *= l(i, k - 1) - l(j, k)
        for i in range(j + 1, k + 1):
            value /= (l(i, k) - l(j, k) + 1) * (l(i, k) - l(j, k))
    else:
        value = Fraction(-1)
        for i in range(j + 1, k + 2):
            value *= l(i, k + 1) - l(j, k) + 1
        for i in range(j, k):
            value *= l(i, k - 1) - l(j, k)
        for i in range(j + 1, k + 1):
            value /= (l(i, k) - l(j, k) + 1) * (l(i, k) - l(j, k))
        a_k, _ = pat.window(k)
        pole = (l(j, k) - 1) * eps + a_k * eps - Fraction(abs(k - pat.p), 2) * eps
        if pole != 0:  # dropped in step with the matching raise, see above
            value *= pole
    return Amplitude("F", k, j, value)


def gelfand_squared(
    pat: GTPattern, k: int, j: int, direction: str, params: EquivariantParams
) -> Rat:
    """Squared unit-norm coefficient of a move, as a hysteresis product."""
    _check_type_index(pat, k, j)
    if direction == "raise":
        target = pat.bumped(j, k, +1)
        if target is None:
            return Fraction(0)
        return amplitude_E(pat, k, j, params).value * amplitude_F(target, k, j, params).value
    if direction == "lower":
        target = pat.bumped(j, k, -1)
        if target is None:
            return Fraction(0)
        return amplitude_F(pat, k, j, params).value * amplitude_E(target, k, j, params).value
    raise InvalidMove(f"direction must be 'raise' or 'lower', got {direction!r}")


def gelfand_squared_closed_form(
    pat: GTPattern, k: int, j: int, direction: str, params: EquivariantParams
) -> Rat:
    """Independent route: the classical square formula on shifted entries."""
    _check_type_index(pat, k, j)
    l = pat.shifted
    if direction == "raise":
        if pat.bumped(j, k, +1) is None:
            return Fraction(0)
        value = Fraction(-1)
        for i in range(1, k + 2):
            value *= l(i, k + 1) - l(j, k)
        for i in range(1, k):
            value *= l(i, k - 1) - l(j, k) - 1
        for i in range(1, k + 1):
            if i != j:
                value /= (l(i, k) - l(j, k)) * (l(i, k) - l(j, k) - 1)
        return value
    if direction == "lower":
        if pat.bumped(j, k, -1) is None:
            return Fraction(0)
        value = Fraction(-1)
        for i in range(1, k + 2):
            value *= l(i, k + 1) - l(j, k) + 1
        for i in range(1, k):
            value *= l(i, k - 1) - l(j, k)
        for i in range(1, k + 1):
            if i != j:
                value /= (l(i, k) - l(j, k) + 1) * (l(i, k) - l(j, k))
        return value
    raise InvalidMove(f"direction must be 'raise' or 'lower', got {direction!r}")
