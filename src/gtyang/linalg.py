"""Sparse exact matrices as integers over one denominator, and integer
elimination.

A matrix stores only its nonzero entries, as a dict of rows, each a dict
column -> nonzero int numerator, over one positive integer denominator
``den`` shared by every entry; rows without a nonzero entry are absent.
Every sum, scaling and product is one linear combination of matrices and
products of two matrices, over the lcm of the terms' denominators: a product
term multiplies the ints and the denominators and is added into the result
entry by entry, so no product is stored. No entry is a Fraction until it is
read: ``entries``, ``nonzeros`` and ``max_abs`` give reduced Fractions, and
equality compares values, whatever the denominators.
Kernel and rank take sparse integer vectors, dicts key -> int, the
columns of a map, laid out once as one dense row per key for integer
elimination on primitive rows: a step changes only the rows with an entry
in the pivot column, each to the primitive multiple of its combination with
the pivot row, so no entry grows past the content of what it replaces.
Kernel vectors are the primitive integer relations among the vectors, dicts
position -> nonzero int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rat = Fraction


class RationalMatrix:
    __slots__ = ("rows", "cols", "_data", "den")

    def __init__(self, rows: int, cols: int, data: dict, den: int = 1):
        """Wrap row dicts (row -> {col: nonzero int}) over the positive int
        ``den`` without copying; every row dict must be nonempty.
        ``from_triples`` builds one from any rational entries."""
        self.rows, self.cols, self._data, self.den = rows, cols, data, den

    @staticmethod
    def from_triples(rows: int, cols: int, triples: Iterable[tuple]) -> "RationalMatrix":
        """Sum of ``value`` at ``(row, col)`` over ``(row, col, value)`` triples,
        over the lcm of the values' denominators."""
        triples = [(r, c, Fraction(v)) for r, c, v in triples]
        den = lcm(*(v.denominator for _, _, v in triples))
        data: dict[int, dict[int, int]] = {}
        for r, c, v in triples:
            row = data.setdefault(r, {})
            row[c] = row.get(c, 0) + v.numerator * (den // v.denominator)
        return RationalMatrix(rows, cols, _nonzero(data), den)

    @staticmethod
    def diagonal(values: Sequence) -> "RationalMatrix":
        n = len(values)
        return RationalMatrix.from_triples(n, n, ((i, i, v) for i, v in enumerate(values)))

    @staticmethod
    def combination(terms: Iterable[tuple]) -> "RationalMatrix":
        """The sum of ``c * m`` over ``(c, m)`` terms and of ``c * m1 * m2``
        over ``(c, m1, m2)`` terms, ``c`` an int or Fraction coefficient, all
        of one shape; at least one term is needed, for the shape. Every term
        is put over the lcm of the denominators and added into one dict of
        rows; a product is added entry by entry, never stored."""
        terms = [(*term, None)[:3] for term in terms]  # a lone matrix has right None
        for _, m, right in terms:
            if right is not None and m.cols != right.rows:
                raise ValueError(f"shape mismatch {m.shape} x {right.shape}")
        shapes = [(m.rows, (right or m).cols) for _, m, right in terms]
        if any(shape != shapes[0] for shape in shapes):
            raise ValueError(f"shape mismatch {shapes}")
        terms = [
            (c, m, right, c.denominator * m.den * (right.den if right else 1))
            for c, m, right in terms
            if c and m._data and (right or m)._data
        ]
        den = lcm(*(d for _, _, _, d in terms))
        data: dict[int, dict[int, int]] = {}
        for c, m, right, d in terms:
            f = c.numerator * (den // d)
            if right is None:
                for r, row in m._data.items():
                    acc = data.get(r)
                    if acc is None:
                        data[r] = {k: f * v for k, v in row.items()}
                    else:
                        for k, v in row.items():
                            acc[k] = acc.get(k, 0) + f * v
                continue
            right_rows = right._data
            for r, row in m._data.items():
                acc = data.get(r)
                if acc is None:
                    acc = data[r] = {}
                for k, a in row.items():
                    brow = right_rows.get(k)
                    if brow is not None:
                        fa = f * a
                        for col, b in brow.items():
                            acc[col] = acc.get(col, 0) + fa * b
        return RationalMatrix(*shapes[0], _nonzero(data), den)

    @property
    def entries(self) -> list[list[Rat]]:
        """Dense rows of reduced Fractions, built on demand."""
        out = []
        for r in range(self.rows):
            row = [Fraction(0)] * self.cols
            for c, v in self._data.get(r, {}).items():
                row[c] = Fraction(v, self.den)
            out.append(row)
        return out

    def nonzeros(self):
        """``(row, col, value)`` of every nonzero entry, in row-major order,
        the value a reduced Fraction."""
        for r in sorted(self._data):
            row = self._data[r]
            for c in sorted(row):
                yield r, c, Fraction(row[c], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and not (self - other)._data

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}, {self.cols}, {self._data!r}, den={self.den})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix.combination(((1, self), (1, other)))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix.combination(((1, self), (-1, other)))

    def scaled(self, c) -> "RationalMatrix":
        return RationalMatrix.combination(((c, self),))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix.combination(((1, self, other),))

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def max_abs(self) -> Rat:
        top = max((abs(v) for row in self._data.values() for v in row.values()), default=0)
        return Fraction(top, self.den)


def _nonzero(data: dict) -> dict:
    """Row dicts without their zero entries and empty rows."""
    out = {}
    for r, row in data.items():
        row = {c: v for c, v in row.items() if v}
        if row:
            out[r] = row
    return out


def _echelon(vectors: list[dict]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form, every row primitive, of the matrix with the sparse
    vectors as columns, one dense row per key; returns (matrix, pivot column
    list)."""
    cols = len(vectors)
    dense: dict = {}
    for c, vec in enumerate(vectors):
        for i, v in vec.items():
            dense.setdefault(i, [0] * cols)[c] = v
    a = list(dense.values())
    rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
            continue  # no pivot in column c
        if i != r:
            a[r], a[i] = a[i], a[r]
        top = a[r]
        p = top[c]
        for i in range(r + 1, rows):
            row = a[i]
            f = row[c]
            # only a row with an entry in column c changes: the primitive
            # row of (p/g) row - (f/g) top, which clears column c
            if f:
                g = gcd(p, f)
                p_g, f_g = p // g, f // g
                new = [x * p_g - f_g * y for x, y in zip(row, top)]
                content = gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                a[i] = new
        pivots.append(c)
        r += 1
    return a, pivots


def rank(vectors: list[dict]) -> int:
    return len(_echelon(vectors)[1])


def kernel_basis(vectors: list[dict]) -> list[dict[int, int]]:
    """Exact basis of the integer relations among sparse integer vectors:
    per free column, by back substitution on the primitive-row echelon form,
    the primitive one (a dict position -> nonzero int) positive there and
    zero at the other free columns. So rank + len(result) == len(vectors),
    and the result depends on the order of the vectors, not of their keys.
    """
    ech, pivots = _echelon(vectors)
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(len(vectors)) if c not in pivot_set):
        vec = {free: 1}
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = ech[r]
            # row r is zero left of its pivot column pc, and vec has no entry at pc yet
            acc = sum(row[c] * v for c, v in vec.items() if row[c])
            if acc:
                # vec[pc] = -acc / row[pc], after scaling vec to keep it integral;
                # d/g and acc/g are coprime, so vec stays primitive
                d = row[pc]
                g = gcd(acc, d)
                scale = abs(d) // g
                if scale != 1:
                    vec = {c: v * scale for c, v in vec.items()}
                vec[pc] = -(acc // g) if d > 0 else acc // g
        basis.append(vec)
    return basis
