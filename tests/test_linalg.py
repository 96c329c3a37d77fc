from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gtyang.linalg import RationalMatrix, kernel_basis, rank

F = Fraction


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


def test_matrix_arithmetic():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a * b == RationalMatrix([[2, 1], [4, 3]])
    assert a + b - b == a
    assert a.scaled(F(1, 2)) == RationalMatrix([[F(1, 2), 1], [F(3, 2), 2]])
    assert RationalMatrix([[0, 0]]) == RationalMatrix.zeros(1, 2)
    m = RationalMatrix([[0, 0], [1, 0]])
    assert m * m == RationalMatrix.zeros(2, 2)


def test_empty_shapes():
    tall = RationalMatrix.zeros(3, 0)
    wide = RationalMatrix.zeros(0, 3)
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
