"""Crystals of weighted atoms and explicit fixed points.

Each pattern entry m[i,k] contributes a ladder of atoms at node k, each atom
its node, weight (e, h) = e * eps/2 + h * h and R-charge. An arrow sends an
atom to at most one atom, so a fixed-point arrow is a map {source Atom: target
Atom}, filled by matching weights and R-charges, which reproduces the block
identity/shift forms without case analysis. A fixed point keys the atoms by
their node, the framing node's one atom first, and the maps by their arrow.
The F-terms and the equivariance equations are checked on those maps,
symbolically.
"""

# no postponed annotations: NamedTuple compiles a ForwardRef per string field at import

import functools
from typing import NamedTuple

from gtyang.patterns import GTPattern
from gtyang.quiver import FRAMING, ZERO_FORM, LinearForm, NodeRef, QuiverSpec, build_quiver


class Atom(NamedTuple):
    node: NodeRef
    weight: LinearForm
    r_charge: int


@functools.cache
def atoms_at_node(pat: GTPattern, k: NodeRef) -> tuple[Atom, ...]:
    """Atoms ordered by type index, then level; the framing node holds the
    one framing atom, of weight 0. Cached, since psi_generic reads each
    node's atoms once for every node next to it."""
    if k == FRAMING:
        return (Atom(FRAMING, ZERO_FORM, 0),)
    a, b = pat.window(k)
    out = []
    for i in range(a, b + 1):
        for level in range(pat.entry(i, k)):
            weight = LinearForm(2 * (level - (i - a)) - abs(k - pat.p), k - pat.p)
            out.append(Atom(k, weight, abs(k - pat.p) + 2 * (i - a)))
    return tuple(out)


class FixedPoint(NamedTuple):
    """Symbolic: every weight is a ``LinearForm``, every arrow an atom map."""

    pattern: GTPattern
    spec: QuiverSpec
    atoms: dict  # node -> its atoms, FRAMING first
    maps: dict  # arrow name -> {source Atom: target Atom}


def atom_map(src, tgt, weight: LinearForm, r_charge: int) -> dict[Atom, Atom]:
    """{source Atom: target Atom}: a source atom goes to the target atom at
    its weight plus ``weight`` and its R-charge plus ``r_charge``, if there is
    one. No two atoms of a node share both, so the map is injective."""
    index = {(t.weight, t.r_charge): t for t in tgt}
    return {
        s: t
        for s in src
        if (t := index.get((s.weight + weight, s.r_charge + r_charge))) is not None
    }


def fixed_point_matrices(pat: GTPattern) -> FixedPoint:
    """Arrow maps by weight and R-charge matching, one ``atom_map`` per arrow."""
    spec = build_quiver(pat.n, pat.p, pat.lam)
    atoms = {node: atoms_at_node(pat, node) for node in (FRAMING, *spec.gauge_nodes)}
    maps = {
        arr.name: atom_map(atoms[arr.source], atoms[arr.target], arr.weight, arr.r_charge)
        for arr in spec.arrows
    }
    return FixedPoint(pat, spec, atoms, maps)


class FTermReport(NamedTuple):
    residuals: tuple[tuple[str, int], ...]  # (relation id, worst residual)

    @property
    def ok(self) -> bool:
        return all(value == 0 for _, value in self.residuals)

    def failures(self) -> list[str]:
        return [name for name, value in self.residuals if value != 0]


def verify_f_terms(fp: FixedPoint) -> FTermReport:
    """Check every superpotential derivative and every equivariance equation
    on the atom maps. Both are symbolic, so they hold at every (eps, h).

    Each word of dW/dq composes injective partial maps, so it sends a column
    atom to at most one row atom; its residual is the largest |signed sum| at
    a (row, column). An arrow entry s -> t is equivariant when the weight of t
    is that of s plus the arrow weight; its residual is the largest gap
    ``magnitude``."""
    out = []
    for arr in fp.spec.arrows:
        total: dict[tuple[Atom, Atom], int] = {}
        for sign, rest in fp.spec.cyclic_derivative(arr.name):
            for col in fp.atoms[arr.target]:
                row = col
                for name in reversed(rest):  # the last factor acts first
                    row = fp.maps[name].get(row)  # None once the path ends
                if row is not None:
                    total[row, col] = total.get((row, col), 0) + sign
        out.append((f"dW/d{arr.name}", max(map(abs, total.values()), default=0)))
    for arr in fp.spec.arrows:
        gaps = (t.weight - s.weight - arr.weight for s, t in fp.maps[arr.name].items())
        out.append((f"equivariance[{arr.name}]", max((g.magnitude() for g in gaps), default=0)))
    return FTermReport(tuple(out))
