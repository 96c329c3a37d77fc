"""Framed A-type chain quivers with equivariant weights and R-charges.

The quiver for the rank-(n-1) chain carries a self-loop on every gauge node,
a forward/backward arrow pair between neighbours, and a framing pair at every
gauge node, whose Dynkin label is lambda at the marked node and 0 elsewhere.
Weights live in the two-parameter space spanned by the loop weight and the
chain asymmetry parameter, as integer ``LinearForm`` pairs in units of
(eps/2, h).
"""

# no postponed annotations: NamedTuple compiles a ForwardRef per string field at import

import functools
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

Rat = Fraction

FRAMING = "f"
NodeRef = Union[int, str]


class InvalidParams(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a bug, never bad input. Raised instead
    of ``assert`` so the check survives ``python -O``."""


# a NamedTuple body cannot define __new__, so a subclass coerces and checks
class _Params(NamedTuple):
    epsilon: Rat
    h: Rat


class EquivariantParams(_Params):
    __slots__ = ()

    def __new__(cls, epsilon, h=0):
        epsilon, h = Fraction(epsilon), Fraction(h)
        if epsilon == 0:
            raise InvalidParams("epsilon must be nonzero")
        return super().__new__(cls, epsilon, h)


class LinearForm(NamedTuple):
    """The weight e * eps/2 + h * h. Every weight of the construction lies on
    the lattice (eps/2)Z + hZ, so both coordinates are ints; it hashes,
    compares and sorts as the tuple (e, h)."""

    e: int
    h: int

    def value(self, params: EquivariantParams) -> Rat:
        return Fraction(self.e, 2) * params.epsilon + self.h * params.h

    def __mul__(self, other):
        # a weight is not a tuple: refuse repetition
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.e + other.e, self.h + other.h)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.e - other.e, self.h - other.h)

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.e, -self.h)

    def magnitude(self) -> int:
        """|e| + 2|h|: twice the size of the weight in units of (eps, h)."""
        return abs(self.e) + 2 * abs(self.h)


ZERO_FORM = LinearForm(0, 0)


class Arrow(NamedTuple):
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


class QuiverSpec(NamedTuple):
    n: int
    p: int
    lam: int
    arrows: tuple[Arrow, ...]
    superpotential: tuple[SignedWord, ...]

    def cyclic_derivative(self, name: str):
        """``(sign, rest)`` for each occurrence of the named arrow: the
        derivative of sign * tr(word) by it is the sum of sign * rest, the
        word read cyclically from the factor after it, in product order."""
        for sign, factors in self.superpotential:
            for pos, factor in enumerate(factors):
                if factor == name:
                    yield sign, factors[pos + 1 :] + factors[:pos]

    @property
    def gauge_nodes(self) -> range:
        return range(1, self.n)

    @property
    def gauge_arrows(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if not a.is_framing)


def validate_params(n: int, p: int, lam: int) -> None:
    if n < 2:
        raise InvalidParams(f"need n >= 2, got n={n}")
    if not 1 <= p <= n - 1:
        raise InvalidParams(f"need 1 <= p <= n-1, got p={p} for n={n}")
    if lam < 0:
        raise InvalidParams(f"need lambda >= 0, got {lam}")


@functools.cache
def build_quiver(n: int, p: int, lam: int) -> QuiverSpec:
    """Framed chain quiver for the p-row, lam-column rectangular module;
    cached, since every psi_generic call reads it.

    Every gauge node a gets a framing pair of label lam_a, lam at the marked
    node and 0 elsewhere. A pair of label 0 adds the root 0 to both sides of
    an exchange function, which ``exchange_roots`` cancels, so psi does not
    see it.
    """
    validate_params(n, p, lam)
    arrows = []
    for k in range(1, n):
        arrows.append(Arrow(f"C{k}", k, k, LinearForm(2, 0), 0))
    for k in range(1, n - 1):
        arrows.append(Arrow(f"A{k}", k, k + 1, LinearForm(-1, 1), 1))
        arrows.append(Arrow(f"B{k}", k + 1, k, LinearForm(-1, -1), 1))
    for a in range(1, n):
        lam_a = lam if a == p else 0
        arrows.append(Arrow(f"R{a}", FRAMING, a, ZERO_FORM, 0))
        arrows.append(Arrow(f"S{a}", a, FRAMING, LinearForm(-2 * lam_a, 0), 2))

    words: list[SignedWord] = []
    if n >= 3:
        words.append((1, ("A1", "C1", "B1")))
        for a in range(2, n - 1):
            words.append((1, (f"A{a}", f"C{a}", f"B{a}")))
            words.append((-1, (f"B{a-1}", f"C{a}", f"A{a-1}")))
        words.append((-1, (f"B{n-2}", f"C{n-1}", f"A{n-2}")))
    for a in range(1, n):
        lam_a = lam if a == p else 0
        words.append((1, (f"C{a}",) * lam_a + (f"R{a}", f"S{a}")))
    return QuiverSpec(n, p, lam, tuple(arrows), tuple(words))


@functools.cache
def exchange_roots(spec: QuiverSpec, a: int) -> Mapping[NodeRef, tuple[tuple, tuple]]:
    """Node b -> (numerator, denominator) roots of the exchange function
    between node-a and node-b generators: an arrow a->b gives the root
    -weight, an arrow b->a the root +weight. A root in both bags cancels,
    counted with multiplicity, as the 0 over 0 of a label-0 framing pair
    does, and a node whose roots all cancel is left out. Cached like
    ``build_quiver``, since every psi_generic call reads it, and read-only."""
    roots: dict[NodeRef, tuple[Counter, Counter]] = {}
    for arr in spec.arrows:
        if arr.source == a:
            roots.setdefault(arr.target, (Counter(), Counter()))[0][-arr.weight] += 1
        if arr.target == a:
            roots.setdefault(arr.source, (Counter(), Counter()))[1][arr.weight] += 1
    out = {}
    for b, (num, den) in roots.items():
        shared = num & den
        num, den = num - shared, den - shared
        if num or den:
            out[b] = (tuple(num.elements()), tuple(den.elements()))
    return MappingProxyType(out)


class ConstraintReport(NamedTuple):
    """Symbolic residuals: they do not depend on (eps, h)."""

    # (word index, weight sum)
    loop_weight_residuals: tuple[tuple[int, LinearForm], ...]
    # (word index, R-charge sum minus 2)
    loop_rcharge_residuals: tuple[tuple[int, int], ...]
    # (gauge node, net weight over gauge arrows)
    vertex_residuals: tuple[tuple[int, LinearForm], ...]


def check_constraints(spec: QuiverSpec) -> ConstraintReport:
    arrows = {a.name: a for a in spec.arrows}
    loop_w = []
    loop_r = []
    for idx, (_, factors) in enumerate(spec.superpotential):
        total = ZERO_FORM
        rsum = 0
        for name in factors:
            arr = arrows[name]
            total = total + arr.weight
            rsum += arr.r_charge
        loop_w.append((idx, total))
        loop_r.append((idx, rsum - 2))

    # one pass over the gauge arrows, whose ends are gauge nodes
    vertex = dict.fromkeys(spec.gauge_nodes, ZERO_FORM)
    for arr in spec.gauge_arrows:
        if arr.source != arr.target:  # self-loops enter with net sign 0
            vertex[arr.target] += arr.weight
            vertex[arr.source] -= arr.weight
    return ConstraintReport(tuple(loop_w), tuple(loop_r), tuple(vertex.items()))
