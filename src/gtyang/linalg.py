"""Sparse exact matrices over Fractions with fraction-free elimination.

A matrix stores only its nonzero entries, as a dict of rows, each a dict
column -> nonzero Fraction; rows without a nonzero entry are absent. All
arithmetic runs over those nonzeros. Kernel and rank go through integer
Bareiss elimination on dense rows, which keeps intermediate entries as
honest minors instead of exploding gcd-free fractions. Both take a list of
dense integer rows, which go to the elimination as they are; kernel vectors
come back primitive, as dicts column -> nonzero int whose gcd is 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rat = Fraction


class RationalMatrix:
    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: dict):
        """Wrap row dicts (row -> {col: nonzero Fraction}) without copying;
        every row dict must be nonempty. ``from_triples`` builds one from
        any entries."""
        self.rows, self.cols, self._data = rows, cols, data

    @staticmethod
    def from_triples(rows: int, cols: int, triples: Iterable[tuple]) -> "RationalMatrix":
        """Sum of ``value`` at ``(row, col)`` over ``(row, col, value)`` triples."""
        data: dict[int, dict[int, Fraction]] = {}
        for r, c, v in triples:
            row = data.setdefault(r, {})
            row[c] = row.get(c, 0) + Fraction(v)
        nonzero = {r: {c: v for c, v in row.items() if v} for r, row in data.items()}
        return RationalMatrix(rows, cols, {r: row for r, row in nonzero.items() if row})

    @staticmethod
    def diagonal(values: Sequence) -> "RationalMatrix":
        n = len(values)
        return RationalMatrix.from_triples(n, n, ((i, i, v) for i, v in enumerate(values)))

    @property
    def entries(self) -> list[list[Rat]]:
        """Dense rows, built on demand."""
        out = []
        for r in range(self.rows):
            row = [Fraction(0)] * self.cols
            for c, v in self._data.get(r, {}).items():
                row[c] = v
            out.append(row)
        return out

    def nonzeros(self):
        """``(row, col, value)`` of every nonzero entry, in row-major order."""
        for r in sorted(self._data):
            row = self._data[r]
            for c in sorted(row):
                yield r, c, row[c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}, {self.cols}, {self._data!r})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._merged(other, negate=False)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._merged(other, negate=True)

    def _merged(self, other: "RationalMatrix", negate: bool) -> "RationalMatrix":
        self._check_shape(other)
        data = {r: dict(row) for r, row in self._data.items()}
        for r, row in other._data.items():
            if negate:
                row = {c: -v for c, v in row.items()}
            acc = data.setdefault(r, {})
            for c, v in row.items():
                new = acc[c] + v if c in acc else v
                if new:
                    acc[c] = new
                else:
                    del acc[c]
            if not acc:
                del data[r]
        return RationalMatrix(self.rows, self.cols, data)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
        right = other._data
        data = {}
        for r, row in self._data.items():
            acc: dict[int, Fraction] = {}
            for k, a in row.items():
                brow = right.get(k)
                if brow is None:
                    continue
                for c, b in brow.items():
                    acc[c] = acc[c] + a * b if c in acc else a * b
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                data[r] = acc
        return RationalMatrix(self.rows, other.cols, data)

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        if c == 0:
            return RationalMatrix(self.rows, self.cols, {})
        data = {r: {k: c * v for k, v in row.items()} for r, row in self._data.items()}
        return RationalMatrix(self.rows, self.cols, data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def max_abs(self) -> Rat:
        return max((abs(v) for row in self._data.values() for v in row.values()), default=Fraction(0))

    def _check_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def _bareiss_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (matrix, pivot column list).
    The rows passed in are not modified."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    a = list(a)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        top = a[r]
        p = top[c]
        for i in range(r + 1, rows):
            row = a[i]
            f = row[c]
            # every row below is scaled by p / prev, so column c clears to 0
            if f:
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                a[i] = [x * p // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(rows: list[list[int]]) -> int:
    return len(_bareiss_echelon(rows)[1])


def kernel_basis(rows: list[list[int]]) -> list[dict[int, int]]:
    """Exact basis of the right null space of dense integer rows, one
    primitive integer vector (a dict column -> nonzero int) per free column.

    Built by back substitution on the fraction-free echelon form, so
    rank + len(result) == cols by construction. No rows means no columns,
    so the basis is empty.
    """
    cols = len(rows[0]) if rows else 0
    ech, pivots = _bareiss_echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(cols) if c not in pivot_set):
        vec = {free: 1}
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = ech[r]
            acc = sum(row[c] * v for c, v in vec.items() if c > pc and row[c])
            if acc:
                # vec[pc] = -acc / row[pc], after scaling vec to keep it integral
                d = row[pc]
                g = gcd(acc, d)
                scale = abs(d) // g
                if scale != 1:
                    vec = {c: v * scale for c, v in vec.items()}
                vec[pc] = -(acc // g) if d > 0 else acc // g
        content = gcd(*vec.values())
        if content != 1:
            vec = {c: v // content for c, v in vec.items()}
        basis.append(vec)
    return basis
