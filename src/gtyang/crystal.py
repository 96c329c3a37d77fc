"""Crystals of weighted atoms and explicit fixed points.

Each pattern entry m[i,k] contributes a ladder of atoms at node k. Atom
coordinates are integer triples (e, h, R-charge), the weight e * eps/2 + h * h.
Each arrow sends an atom to at most one atom, so a fixed-point arrow is a map
{source atom index: target atom index}, filled by pure coordinate matching;
its 0/1 matrix reproduces the block identity/shift forms without case analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from gtyang.linalg import RationalMatrix
from gtyang.patterns import GTPattern
from gtyang.quiver import (
    FRAMING,
    ZERO_FORM,
    EquivariantParams,
    LinearForm,
    QuiverSpec,
    build_quiver,
)

Rat = Fraction


class Atom(NamedTuple):
    node: int
    weight: LinearForm
    r_charge: int

    @property
    def coordinate(self) -> tuple[int, int, int]:
        return (*self.weight, self.r_charge)


def atoms_at_node(pat: GTPattern, k: int) -> tuple[Atom, ...]:
    """Atoms ordered by type index, then level."""
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
    atoms: tuple[tuple[Atom, ...], ...]  # index k-1 -> node-k atoms
    maps: dict  # arrow name -> {source atom index: target atom index}

    def node_atoms(self, node) -> tuple[Atom, ...]:
        if node == FRAMING:
            return (_FRAMING_ATOM,)
        return self.atoms[node - 1]

    def matrix(self, name: str) -> RationalMatrix:
        """The 0/1 matrix of the named arrow, rows indexed by target atoms."""
        arr = self.spec.arrow(name)
        return RationalMatrix.from_triples(
            len(self.node_atoms(arr.target)),
            len(self.node_atoms(arr.source)),
            ((t, s, 1) for s, t in self.maps[name].items()),
        )


_FRAMING_ATOM = Atom(0, ZERO_FORM, 0)


def fixed_point_matrices(pat: GTPattern, all_framings: bool = False) -> FixedPoint:
    """Arrow maps by coordinate matching: a source atom goes to the target
    atom at its coordinate plus the arrow displacement, if there is one.
    Atom coordinates are distinct, so every map is injective."""
    spec = build_quiver(pat.n, pat.p, pat.lam, all_framings=all_framings)
    atoms = tuple(atoms_at_node(pat, k) for k in range(1, pat.n))
    fp = FixedPoint(pat, spec, atoms, {})
    for arr in spec.arrows:
        index = {t.coordinate: r for r, t in enumerate(fp.node_atoms(arr.target))}
        hits = fp.maps[arr.name] = {}
        for c, s in enumerate(fp.node_atoms(arr.source)):
            w = s.weight + arr.weight
            r = index.get((w.e, w.h, s.r_charge + arr.r_charge))
            if r is not None:
                hits[c] = r
    return fp


def superpotential_derivative(spec: QuiverSpec, matrices: dict, name: str) -> RationalMatrix:
    """Cyclic derivative of the superpotential by the named arrow, every
    arrow valued by ``matrices`` (arrow name -> RationalMatrix)."""
    n_tgt, n_src = matrices[name].shape
    total = RationalMatrix.zeros(n_src, n_tgt)
    for sign, factors in spec.superpotential:
        for pos, factor in enumerate(factors):
            if factor != name:
                continue
            first, *rest = factors[pos + 1 :] + factors[:pos]
            term = matrices[first]
            for other in rest:
                term = term * matrices[other]
            total = total + term.scaled(sign)
    return total


class FTermReport(NamedTuple):
    residuals: tuple[tuple[str, Rat], ...]  # (relation id, max abs entry)

    @property
    def ok(self) -> bool:
        return all(value == 0 for _, value in self.residuals)

    def failures(self) -> list[str]:
        return [name for name, value in self.residuals if value != 0]


def verify_f_terms(fp: FixedPoint, params: EquivariantParams) -> FTermReport:
    """Check every superpotential derivative exactly at the fixed point,
    and every equivariance equation at the given params."""
    matrices = {arr.name: fp.matrix(arr.name) for arr in fp.spec.arrows}
    out = []
    for arr in fp.spec.arrows:
        residual = superpotential_derivative(fp.spec, matrices, arr.name)
        out.append((f"dW/d{arr.name}", residual.max_abs()))

    # diagonal weight matrix per node; the framing atom weighs 0
    phi = {
        node: RationalMatrix.diagonal([a.weight.value(params) for a in fp.node_atoms(node)])
        for node in (FRAMING, *fp.spec.gauge_nodes)
    }
    for arr in fp.spec.arrows:
        q = matrices[arr.name]
        residual = phi[arr.target] * q - q * phi[arr.source] - q.scaled(arr.weight.value(params))
        out.append((f"equivariance[{arr.name}]", residual.max_abs()))
    return FTermReport(tuple(out))
