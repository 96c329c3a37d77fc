import ast
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gtyang.linalg import RationalMatrix, kernel_basis, rank

F = Fraction
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtyang"


def gauss_rank_oracle(entries):
    """Plain fraction Gaussian elimination, no fraction-free tricks."""
    m = [[F(x) for x in row] for row in entries]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_kernel_examples():
    (v,) = kernel_basis([[1, 1], [2, 2]])
    assert v[0] == -v[1] and v[0] != 0

    assert kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def dense(rows) -> RationalMatrix:
    """The matrix of nonempty dense rows, through ``from_triples``."""
    triples = ((r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row))
    return RationalMatrix.from_triples(len(rows), len(rows[0]), triples)


def test_matrix_arithmetic():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert a * b == dense([[2, 1], [4, 3]])
    assert a + b - b == a
    assert a.scaled(F(1, 2)) == dense([[F(1, 2), 1], [F(3, 2), 2]])
    assert dense([[0, 0]]) == RationalMatrix(1, 2, {})
    m = dense([[0, 0], [1, 0]])
    assert m * m == RationalMatrix(2, 2, {})


def test_empty_shapes():
    tall = RationalMatrix(3, 0, {})
    wide = RationalMatrix(0, 3, {})
    assert (tall * wide).shape == (3, 3)
    assert rank([[], [], []]) == 0 and rank([]) == 0


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(matrices)
@settings(max_examples=200)
def test_kernel_vectors_are_annihilated_and_rank_nullity_holds(entries):
    cols = len(entries[0])
    basis = kernel_basis(entries)
    for vec in basis:
        for row in entries:
            assert sum(row[c] * v for c, v in vec.items()) == 0
    assert rank(entries) + len(basis) == cols
    assert rank(entries) == gauss_rank_oracle(entries)
    if basis:
        stacked = [[vec.get(i, 0) for vec in basis] for i in range(cols)]
        assert rank(stacked) == len(basis)


def test_rational_matrix_serves_only_the_mode_operators():
    # the fixed points and the localization run on atom maps and integer
    # rows; of gtyang.linalg they take only the integer elimination
    for module in ("crystal", "localization"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gtyang.linalg":
                imported |= {alias.name for alias in node.names}
            if isinstance(node, ast.Import):
                assert "gtyang.linalg" not in {alias.name for alias in node.names}, module
        assert imported <= {"rank", "kernel_basis"}, module
    naming = {
        path.name
        for path in PACKAGE.glob("*.py")
        if re.search(r"\bRationalMatrix\b", path.read_text())
    }
    assert naming <= {"linalg.py", "modes.py", "__init__.py"}
