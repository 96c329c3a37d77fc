"""Framed A-type chain quivers with equivariant weights and R-charges.

The quiver for the rank-(n-1) chain carries a self-loop on every gauge node,
a forward/backward arrow pair between neighbours, and a framing pair attached
to the marked node. Weights live in the two-parameter space spanned by the
loop weight and the chain asymmetry parameter; both are carried exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from gtyang.rational import FactoredRatFunc

Rat = Fraction

FRAMING = "f"
NodeRef = Union[int, str]


class InvalidParams(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a bug, never bad input. Raised instead
    of ``assert`` so the check survives ``python -O``."""


@dataclass(frozen=True)
class EquivariantParams:
    epsilon: Rat
    h: Rat = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "h", Fraction(self.h))
        if self.epsilon == 0:
            raise InvalidParams("epsilon must be nonzero")


@dataclass(frozen=True)
class LinearForm:
    """c_eps * epsilon + c_h * h, both coefficients exact."""

    c_eps: Rat
    c_h: Rat

    def __post_init__(self):
        object.__setattr__(self, "c_eps", Fraction(self.c_eps))
        object.__setattr__(self, "c_h", Fraction(self.c_h))

    def value(self, params: EquivariantParams) -> Rat:
        return self.c_eps * params.epsilon + self.c_h * params.h

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.c_eps + other.c_eps, self.c_h + other.c_h)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.c_eps - other.c_eps, self.c_h - other.c_h)

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.c_eps, -self.c_h)

    def is_zero(self) -> bool:
        return self.c_eps == 0 and self.c_h == 0


ZERO_FORM = LinearForm(0, 0)


@dataclass(frozen=True)
class Arrow:
    name: str
    source: NodeRef
    target: NodeRef
    weight: LinearForm
    r_charge: int

    @property
    def is_framing(self) -> bool:
        return self.source == FRAMING or self.target == FRAMING


# a superpotential term: overall sign and arrow names in matrix-product order
SignedWord = tuple[int, tuple[str, ...]]


@dataclass(frozen=True)
class QuiverSpec:
    n: int
    p: int
    lam: int
    arrows: tuple[Arrow, ...]
    superpotential: tuple[SignedWord, ...]
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {a.name: a for a in self.arrows})

    def arrow(self, name: str) -> Arrow:
        return self._by_name[name]

    @property
    def gauge_nodes(self) -> range:
        return range(1, self.n)

    @property
    def gauge_arrows(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if not a.is_framing)

    @property
    def framing_nodes(self) -> tuple[int, ...]:
        return tuple(sorted({a.target if a.source == FRAMING else a.source
                             for a in self.arrows if a.is_framing}))

    def chirality(self, a: NodeRef, b: NodeRef) -> int:
        forward = sum(1 for arr in self.arrows if arr.source == a and arr.target == b)
        backward = sum(1 for arr in self.arrows if arr.source == b and arr.target == a)
        return forward - backward


def validate_params(n: int, p: int, lam: int) -> None:
    if n < 2:
        raise InvalidParams(f"need n >= 2, got n={n}")
    if not 1 <= p <= n - 1:
        raise InvalidParams(f"need 1 <= p <= n-1, got p={p} for n={n}")
    if lam < 0:
        raise InvalidParams(f"need lambda >= 0, got {lam}")


def build_quiver(n: int, p: int, lam: int, all_framings: bool = False) -> QuiverSpec:
    """Framed chain quiver for the p-row, lam-column rectangular module.

    With ``all_framings`` every gauge node gets a framing pair; the extra
    pairs carry zero cutoff weight and only matter for localization.
    """
    validate_params(n, p, lam)
    arrows = []
    for k in range(1, n):
        arrows.append(Arrow(f"C{k}", k, k, LinearForm(1, 0), 0))
    for k in range(1, n - 1):
        arrows.append(Arrow(f"A{k}", k, k + 1, LinearForm(Fraction(-1, 2), 1), 1))
        arrows.append(Arrow(f"B{k}", k + 1, k, LinearForm(Fraction(-1, 2), -1), 1))
    framed_nodes = list(range(1, n)) if all_framings else [p]
    for a in framed_nodes:
        lam_a = lam if a == p else 0
        arrows.append(Arrow(f"R{a}", FRAMING, a, ZERO_FORM, 0))
        arrows.append(Arrow(f"S{a}", a, FRAMING, LinearForm(-lam_a, 0), 2))

    words: list[SignedWord] = []
    if n >= 3:
        words.append((1, ("A1", "C1", "B1")))
        for a in range(2, n - 1):
            words.append((1, (f"A{a}", f"C{a}", f"B{a}")))
            words.append((-1, (f"B{a-1}", f"C{a}", f"A{a-1}")))
        words.append((-1, (f"B{n-2}", f"C{n-1}", f"A{n-2}")))
    for a in framed_nodes:
        lam_a = lam if a == p else 0
        words.append((1, (f"C{a}",) * lam_a + (f"R{a}", f"S{a}")))
    return QuiverSpec(n, p, lam, tuple(arrows), tuple(words))


def bond_factor(spec: QuiverSpec, a: int, b: int, params: EquivariantParams) -> FactoredRatFunc:
    """Exchange function between node-a and node-b generators.

    Built from gauge arrows only: a->b arrows give numerator factors
    (z + h), b->a arrows denominator factors (z - h).
    """
    if not (1 <= a <= spec.n - 1 and 1 <= b <= spec.n - 1):
        raise InvalidParams(f"nodes out of range: {a}, {b}")
    num = []
    den = []
    for arr in spec.gauge_arrows:
        if arr.source == a and arr.target == b:
            num.append(-arr.weight.value(params))
        if arr.source == b and arr.target == a:
            den.append(arr.weight.value(params))
    return FactoredRatFunc.make(1, num, den)


def cartan_matrix(n: int) -> list[list[int]]:
    if n < 2:
        raise InvalidParams("need n >= 2")
    size = n - 1
    return [
        [2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(size)]
        for i in range(size)
    ]


@dataclass(frozen=True)
class ConstraintReport:
    # (word index, symbolic residual, value at the given params)
    loop_weight_residuals: tuple[tuple[int, LinearForm, Rat], ...]
    # (word index, R-charge sum minus 2)
    loop_rcharge_residuals: tuple[tuple[int, int], ...]
    # (gauge node, symbolic residual over gauge arrows, value at params)
    vertex_residuals: tuple[tuple[int, LinearForm, Rat], ...]

    @property
    def loops_ok(self) -> bool:
        return all(form.is_zero() for _, form, _ in self.loop_weight_residuals) and all(
            r == 0 for _, r in self.loop_rcharge_residuals
        )

    @property
    def vertices_ok_at_params(self) -> bool:
        return all(v == 0 for _, _, v in self.vertex_residuals)


def check_constraints(spec: QuiverSpec, params: EquivariantParams) -> ConstraintReport:
    loop_w = []
    loop_r = []
    for idx, (_, factors) in enumerate(spec.superpotential):
        total = ZERO_FORM
        rsum = 0
        for name in factors:
            arr = spec.arrow(name)
            total = total + arr.weight
            rsum += arr.r_charge
        loop_w.append((idx, total, total.value(params)))
        loop_r.append((idx, rsum - 2))

    vertex = []
    for node in spec.gauge_nodes:
        total = ZERO_FORM
        for arr in spec.gauge_arrows:
            if arr.source == arr.target:
                continue  # self-loops enter with net sign 0
            if arr.target == node:
                total = total + arr.weight
            elif arr.source == node:
                total = total - arr.weight
        vertex.append((node, total, total.value(params)))
    return ConstraintReport(tuple(loop_w), tuple(loop_r), tuple(vertex))
