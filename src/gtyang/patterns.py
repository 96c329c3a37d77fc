"""Gelfand-Tsetlin patterns labelling the states of a rectangular module.

A pattern is the full triangle m[i,k] (1 <= i <= k <= n). The top row is the
fixed partition; inside the triangle the entries left of the free window are
frozen to lam, right of it to zero. Everything downstream reads the full
triangle so the general coefficient formulas apply uniformly.
"""

# no postponed annotations: NamedTuple compiles a ForwardRef per string field at import

import functools
import re
from fractions import Fraction
from typing import NamedTuple
from gtyang.quiver import InvalidParams, InvariantViolation, validate_params

Rat = Fraction


@functools.cache
def type_range(n: int, p: int, k: int) -> tuple[int, int]:
    """Inclusive window [a, b] of free entries in row k (1 <= k <= n-1);
    cached, since every move and report loop asks for it per pattern."""
    return max(1, k - p + 1), min(n - p, k)


@functools.cache
def candidate_moves(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """(node k, type j) of every free entry m[j,k], node by node, types
    ascending: the one walk over a pattern's candidate moves."""
    windows = (type_range(n, p, k) for k in range(1, n))
    return tuple((k, j) for k, (a, b) in enumerate(windows, start=1) for j in range(a, b + 1))


class GTPattern(NamedTuple):
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
    def moves(self) -> tuple[tuple[int, int], ...]:
        return candidate_moves(self.n, self.p)

    @property
    def free_values(self) -> tuple[int, ...]:
        return tuple(self.rows[k - 1][j - 1] for k, j in self.moves)

    def bumped(self, i: int, k: int, step: int) -> "GTPattern | None":
        """Pattern with m[i,k] changed by a nonzero step, or None if it
        leaves the cone.

        Only a free entry may move, and on a valid pattern only the four
        interlacing neighbours of m[i,k] can break, so just those are tested.
        """
        if not 1 <= k <= self.n - 1:
            return None
        a, b = self.window(k)
        if not a <= i <= b:
            return None
        row = self.rows[k - 1]
        upper = self.rows[k]
        v = row[i - 1] + step
        if not upper[i] <= v <= upper[i - 1]:
            return None
        if k >= 2:
            lower = self.rows[k - 2]
            if i <= k - 1 and v < lower[i - 1]:
                return None
            if i >= 2 and v > lower[i - 2]:
                return None
        new_row = row[: i - 1] + (v,) + row[i:]
        return GTPattern(self.n, self.p, self.lam, self.rows[: k - 1] + (new_row,) + self.rows[k:])

    def raises(self):
        """(node k, type j, raised pattern) of each raising move that stays
        in the cone, in ``moves`` order."""
        for k, j in self.moves:
            up = self.bumped(j, k, +1)
            if up is not None:
                yield k, j, up


def build_pattern(n: int, p: int, lam: int, free_values) -> GTPattern:
    """Assemble the full triangle from the free entries, row 1 upward: row k
    is lam left of its window, the window's free entries, zero right of it;
    the top row is the partition (lam^(n-p), 0^p)."""
    validate_params(n, p, lam)
    vals = tuple(free_values)
    rows = []
    pos = 0
    for k in range(1, n):
        a, b = type_range(n, p, k)
        free = vals[pos : pos + b - a + 1]
        if len(free) != b - a + 1:
            raise InvalidParams("not enough free entries")
        rows.append((lam,) * (a - 1) + free + (0,) * (k - b))
        pos += len(free)
    if pos != len(vals):
        raise InvalidParams("too many free entries")
    rows.append((lam,) * (n - p) + (0,) * p)
    for k in range(1, n):
        for i in range(1, k + 1):
            if not rows[k][i - 1] >= rows[k - 1][i - 1] >= rows[k][i]:
                raise InvalidParams(f"interlacing fails at m[{i},{k}]")
    return GTPattern(n, p, lam, tuple(rows))


def vacuum_pattern(n: int, p: int, lam: int) -> GTPattern:
    return build_pattern(n, p, lam, [0] * len(candidate_moves(n, p)))


def enumerate_patterns(n: int, p: int, lam: int) -> list[GTPattern]:
    """The crystal grown from the vacuum by adding atoms, ordered
    lexicographically on the free entries (row 1 first, then row 2, type
    index ascending inside a row)."""
    grown = {vacuum_pattern(n, p, lam)}
    frontier = list(grown)
    while frontier:
        pat = frontier.pop()
        for *_, up in pat.raises():
            if up not in grown:
                grown.add(up)
                frontier.append(up)
    return sorted(grown, key=lambda pat: pat.free_values)


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


def pole_units(pat: GTPattern, k: int, i: int) -> int:
    """Raising pole of m[i,k], in units of eps/2."""
    a, _ = pat.window(k)
    return 2 * (pat.entry(i, k) - (i - a)) - abs(k - pat.p)


def raise_pole(pat: GTPattern, k: int, i: int, eps: Rat) -> Rat:
    return Fraction(pole_units(pat, k, i), 2) * eps


def add_remove_sets(
    pat: GTPattern, k: int, eps: Rat
) -> tuple[list[tuple[int, Rat]], list[tuple[int, Rat]]]:
    """Candidate moves at node k: (type index, pole position) lists. A
    lowering pole sits one epsilon below the raising pole of the same entry."""
    a, b = pat.window(k)
    add = []
    rem = []
    for i in range(a, b + 1):
        if pat.bumped(i, k, +1) is not None:
            add.append((i, raise_pole(pat, k, i, eps)))
        if pat.bumped(i, k, -1) is not None:
            rem.append((i, raise_pole(pat, k, i, eps) - eps))
    return add, rem


def format_pattern(pat: GTPattern) -> str:
    """Free entries only, rows bottom-to-top: '1;1,0;1' style."""
    parts = []
    for k in range(1, pat.n):
        a, b = pat.window(k)
        parts.append(",".join(str(pat.entry(i, k)) for i in range(a, b + 1)))
    return ";".join(parts)


def parse_pattern(text: str, n: int, p: int, lam: int) -> GTPattern:
    """Read ``format_pattern`` text: n-1 rows, row k holding exactly the
    entries of its window."""
    rows = [chunk.split(",") for chunk in text.split(";")]
    if len(rows) != n - 1:
        raise InvalidParams(f"expected {n - 1} rows, got {len(rows)}")
    for piece in (piece for row in rows for piece in row):
        if not re.fullmatch(r"[0-9]+", piece):
            raise InvalidParams(f"bad pattern entry {piece!r}")
    validate_params(n, p, lam)  # the windows below are defined only then
    for k, row in enumerate(rows, start=1):
        a, b = type_range(n, p, k)
        if len(row) != b - a + 1:
            raise InvalidParams(f"expected {b - a + 1} entries in row {k}, got {len(row)}")
    return build_pattern(n, p, lam, [int(piece) for row in rows for piece in row])
