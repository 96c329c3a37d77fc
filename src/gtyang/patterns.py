"""Gelfand-Tsetlin patterns labelling the states of a rectangular module.

A pattern is the full triangle m[i,k] (1 <= i <= k <= n). The top row is the
fixed partition; inside the triangle the entries left of the free window are
frozen to lam, right of it to zero. Everything downstream reads the full
triangle so the general coefficient formulas apply uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from gtyang.quiver import EquivariantParams, InvalidParams, InvariantViolation, validate_params

Rat = Fraction


def type_range(n: int, p: int, k: int) -> tuple[int, int]:
    """Inclusive window [a, b] of free entries in row k (1 <= k <= n-1)."""
    return max(1, k - p + 1), min(n - p, k)


@dataclass(frozen=True)
class GTPattern:
    n: int
    p: int
    lam: int
    rows: tuple[tuple[int, ...], ...]  # rows[k-1] has length k, k = 1..n

    def entry(self, i: int, k: int) -> int:
        return self.rows[k - 1][i - 1]

    def shifted(self, i: int, k: int) -> int:
        """l[i,k] = m[i,k] - i."""
        return self.entry(i, k) - i

    def window(self, k: int) -> tuple[int, int]:
        return type_range(self.n, self.p, k)

    def node_dimension(self, k: int) -> int:
        a, b = self.window(k)
        return sum(self.entry(i, k) for i in range(a, b + 1))

    @property
    def free_values(self) -> tuple[int, ...]:
        out = []
        for k in range(1, self.n):
            a, b = self.window(k)
            out.extend(self.entry(i, k) for i in range(a, b + 1))
        return tuple(out)

    def is_valid(self) -> bool:
        try:
            _validate(self)
        except InvalidParams:
            return False
        return True

    def bumped(self, i: int, k: int, step: int) -> "GTPattern | None":
        """Pattern with m[i,k] changed by step, or None if it leaves the cone."""
        rows = [list(r) for r in self.rows]
        rows[k - 1][i - 1] += step
        cand = GTPattern(self.n, self.p, self.lam, tuple(tuple(r) for r in rows))
        return cand if cand.is_valid() else None


def _frozen_value(n: int, p: int, lam: int, i: int, k: int) -> int | None:
    if k == n:
        return lam if i <= n - p else 0
    a, b = type_range(n, p, k)
    if i < a:
        return lam
    if i > b:
        return 0
    return None


def _validate(pat: GTPattern) -> None:
    n, p, lam = pat.n, pat.p, pat.lam
    validate_params(n, p, lam)
    if len(pat.rows) != n or any(len(pat.rows[k - 1]) != k for k in range(1, n + 1)):
        raise InvalidParams("malformed triangle")
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            frozen = _frozen_value(n, p, lam, i, k)
            if frozen is not None and pat.entry(i, k) != frozen:
                raise InvalidParams(f"frozen entry m[{i},{k}] must be {frozen}")
    for k in range(1, n):
        for i in range(1, k + 1):
            if not pat.entry(i, k + 1) >= pat.entry(i, k) >= pat.entry(i + 1, k + 1):
                raise InvalidParams(f"interlacing fails at m[{i},{k}]")


def build_pattern(n: int, p: int, lam: int, free_values) -> GTPattern:
    """Assemble the full triangle from the free entries, row 1 upward."""
    validate_params(n, p, lam)
    vals = list(free_values)
    rows = []
    pos = 0
    for k in range(1, n + 1):
        row = []
        for i in range(1, k + 1):
            frozen = _frozen_value(n, p, lam, i, k)
            if frozen is None:
                if pos >= len(vals):
                    raise InvalidParams("not enough free entries")
                row.append(int(vals[pos]))
                pos += 1
            else:
                row.append(frozen)
        rows.append(tuple(row))
    if pos != len(vals):
        raise InvalidParams("too many free entries")
    pat = GTPattern(n, p, lam, tuple(rows))
    _validate(pat)
    return pat


def vacuum_pattern(n: int, p: int, lam: int) -> GTPattern:
    counts = sum(b - a + 1 for a, b in (type_range(n, p, k) for k in range(1, n)))
    return build_pattern(n, p, lam, [0] * counts)


def enumerate_patterns(n: int, p: int, lam: int) -> list[GTPattern]:
    """All patterns, ordered lexicographically on the free entries
    (row 1 first, then row 2, type index ascending inside a row)."""
    validate_params(n, p, lam)
    top = tuple(lam if i <= n - p else 0 for i in range(1, n + 1))
    partial = [[top]]  # rows collected from row n downward
    for k in range(n - 1, 0, -1):
        a, b = type_range(n, p, k)
        grown = []
        for rows_above in partial:
            upper = rows_above[-1]  # row k+1
            choices = [[]]
            for i in range(1, k + 1):
                lo = upper[i] if i + 1 <= k + 1 else 0  # m[i+1,k+1]
                hi = upper[i - 1]  # m[i,k+1]
                frozen = _frozen_value(n, p, lam, i, k)
                if frozen is not None:
                    allowed = [frozen] if lo <= frozen <= hi else []
                else:
                    allowed = list(range(lo, hi + 1))
                choices = [c + [v] for c in choices for v in allowed]
            for row in choices:
                grown.append(rows_above + [tuple(row)])
        partial = grown
    out = []
    for rows_desc in partial:
        rows = tuple(reversed(rows_desc))
        out.append(GTPattern(n, p, lam, rows))
    out.sort(key=lambda pat: pat.free_values)
    return out


def rectangular_dimension(n: int, p: int, lam: int) -> int:
    """Lattice count of the pattern cone via the hook-content product."""
    validate_params(n, p, lam)
    total = Fraction(1)
    for i in range(1, p + 1):
        for j in range(1, n - p + 1):
            total *= Fraction(lam + i + j - 1, i + j - 1)
    if total.denominator != 1:
        raise InvariantViolation("hook-content product is not an integer")
    return int(total)


def raise_pole(pat: GTPattern, k: int, i: int, params: EquivariantParams) -> Rat:
    a, _ = pat.window(k)
    coeff = Fraction(pat.entry(i, k) - (i - a)) - Fraction(abs(k - pat.p), 2)
    return coeff * params.epsilon


def lower_pole(pat: GTPattern, k: int, i: int, params: EquivariantParams) -> Rat:
    a, _ = pat.window(k)
    coeff = Fraction(pat.entry(i, k) - 1 - (i - a)) - Fraction(abs(k - pat.p), 2)
    return coeff * params.epsilon


def add_remove_sets(
    pat: GTPattern, k: int, params: EquivariantParams
) -> tuple[list[tuple[int, Rat]], list[tuple[int, Rat]]]:
    """Candidate moves at node k: (type index, pole position) lists."""
    a, b = pat.window(k)
    add = []
    rem = []
    for i in range(a, b + 1):
        if pat.bumped(i, k, +1) is not None:
            add.append((i, raise_pole(pat, k, i, params)))
        if pat.bumped(i, k, -1) is not None:
            rem.append((i, lower_pole(pat, k, i, params)))
    return add, rem


def format_pattern(pat: GTPattern) -> str:
    """Free entries only, rows bottom-to-top: '1;1,0;1' style."""
    parts = []
    for k in range(1, pat.n):
        a, b = pat.window(k)
        parts.append(",".join(str(pat.entry(i, k)) for i in range(a, b + 1)))
    return ";".join(parts)


def parse_pattern(text: str, n: int, p: int, lam: int) -> GTPattern:
    values = []
    rows = text.split(";")
    if len(rows) != n - 1:
        raise InvalidParams(f"expected {n - 1} rows, got {len(rows)}")
    for chunk in rows:
        for piece in chunk.split(","):
            try:
                values.append(int(piece))
            except ValueError as exc:
                raise InvalidParams(f"bad pattern entry {piece!r}") from exc
    return build_pattern(n, p, lam, values)
