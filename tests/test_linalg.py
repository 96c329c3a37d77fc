import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtyang.linalg import RationalMatrix, kernel_basis, rank

F = Fraction
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtyang"


def gauss_jordan(entries):
    """Plain fraction Gauss-Jordan elimination, no integer tricks: the
    reduced rows, each pivot 1 and alone in its column, and the pivot
    columns."""
    m = [[F(x) for x in row] for row in entries]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def gauss_rank_oracle(entries):
    return len(gauss_jordan(entries)[1])


def null_vector_oracle(entries):
    """Per free column of the RREF, its null vector (1 there, 0 at the other
    free columns), scaled to primitive integers, positive at that column."""
    m, pivots = gauss_jordan(entries)
    out = []
    for free in (c for c in range(len(entries[0])) if c not in pivots):
        vec = {free: F(1)}
        vec.update({pc: -row[free] for row, pc in zip(m, pivots) if row[free]})
        scale = math.lcm(*(v.denominator for v in vec.values()))
        ints = {c: int(v * scale) for c, v in vec.items()}
        content = math.gcd(*ints.values())
        out.append({c: v // content for c, v in ints.items()})
    return out


def columns(rows) -> list[dict[int, int]]:
    """The columns of dense integer rows, as sparse vectors row -> entry."""
    cols = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(cols)]


def test_kernel_examples():
    (v,) = kernel_basis(columns([[1, 1], [2, 2]]))
    assert v[0] == -v[1] and v[0] != 0

    assert kernel_basis(columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []
    # vectors with no entry are each a relation of their own
    assert kernel_basis([{}, {"x": 2}, {}]) == [{0: 1}, {2: 1}]


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


def test_shape_mismatch_is_a_value_error():
    square, row = dense([[1, 2], [3, 4]]), dense([[1, 2]])
    with pytest.raises(ValueError, match=r"^shape mismatch \[\(2, 2\), \(1, 2\)\]$"):
        RationalMatrix.combination(((1, square), (1, row)))
    with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) x \(1, 2\)$"):
        row * row
    with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) x \(1, 2\)$"):
        RationalMatrix.combination(((1, square, square), (1, row, row)))
    with pytest.raises(ValueError, match=r"^shape mismatch \[\(1, 2\), \(2, 2\)\]$"):
        RationalMatrix.combination(((1, row, square), (1, square)))


def test_empty_shapes():
    tall = RationalMatrix(3, 0, {})
    wide = RationalMatrix(0, 3, {})
    assert (tall * wide).shape == (3, 3)
    assert rank([{}, {}, {}]) == 0 and rank([]) == 0
    assert kernel_basis([]) == []


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
    vectors = columns(entries)
    basis = kernel_basis(vectors)
    for vec in basis:
        for row in entries:
            assert sum(row[c] * v for c, v in vec.items()) == 0
    assert rank(vectors) + len(basis) == cols
    assert rank(vectors) == gauss_rank_oracle(entries)
    assert rank(basis) == len(basis)


def int_rows(rows, cols):
    return st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def product(tall, wide):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*wide)] for row in tall]


# rank-deficient too: the product of a tall and a wide factor of inner size 1-3
low_rank = st.tuples(*[st.integers(min_value=1, max_value=6)] * 2, st.integers(1, 3)).flatmap(
    lambda s: st.builds(product, int_rows(s[0], s[2]), int_rows(s[2], s[1]))
)


@given(st.one_of(matrices, low_rank))
@settings(max_examples=300)
def test_kernel_basis_is_the_primitive_rref_null_space(entries):
    # each vector is the RREF null vector of its free column, made
    # primitive and positive there: a changed basis of the same space fails
    assert kernel_basis(columns(entries)) == null_vector_oracle(entries)


sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(min_value=-4, max_value=4), max_size=6),
    max_size=7,
)


@given(sparse_vectors, st.permutations(range(6)), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_kernel_and_rank_ignore_the_keys_and_their_order(vectors, relabel, rng):
    # the layout puts the keys in the order they first appear; relabelled
    # and reordered, every vector keeps its entries and its place
    moved = []
    for vec in vectors:
        items = [(f"k{relabel[i]}", v) for i, v in vec.items()]
        rng.shuffle(items)
        moved.append(dict(items))
    assert kernel_basis(moved) == kernel_basis(vectors)
    assert rank(moved) == rank(vectors)


# entries with unlike denominators, zero half of the time
fraction_entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


def dense_fractions(rows, cols):
    return st.lists(
        st.lists(fraction_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def over(rows, scale) -> RationalMatrix:
    """The matrix of dense Fraction rows, stored over ``scale`` times the lcm
    of their denominators."""
    den = scale * math.lcm(*(v.denominator for row in rows for v in row))
    data = {
        r: {c: int(v * den) for c, v in enumerate(row) if v} for r, row in enumerate(rows)
    }
    return RationalMatrix(len(rows), len(rows[0]), {r: row for r, row in data.items() if row}, den)


def reference_nonzeros(rows):
    return [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=5)
scales = st.integers(min_value=1, max_value=5)
# a, b of one shape and c with as many rows as a has columns
operands = st.tuples(*[st.integers(min_value=1, max_value=4)] * 3).flatmap(
    lambda s: st.tuples(
        dense_fractions(s[0], s[1]), dense_fractions(s[0], s[1]), dense_fractions(s[1], s[2])
    )
)


@given(operands, scales, scales, coefficients, coefficients)
@settings(max_examples=100)
def test_integer_matrices_match_the_dense_fraction_reference(mats, sa, sb, ca, cb):
    a_rows, b_rows, c_rows = mats
    a, b, c = over(a_rows, sa), over(b_rows, sb), over(c_rows, 1)
    # values, not denominators, decide equality
    assert a == over(a_rows, sa + 1) == dense(a_rows)
    assert a.entries == a_rows
    assert list(a.nonzeros()) == reference_nonzeros(a_rows)
    assert a.max_abs() == max(abs(v) for row in a_rows for v in row)
    assert all(type(v) is F for _, _, v in a.nonzeros()) and type(a.max_abs()) is F
    product = [
        [sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*c_rows)] for row in a_rows
    ]
    assert (a * c).entries == product
    assert list((a * c).nonzeros()) == reference_nonzeros(product)
    pairs = [list(zip(x, y)) for x, y in zip(a_rows, b_rows)]
    assert (a + b).entries == [[x + y for x, y in row] for row in pairs]
    assert (a - b).entries == [[x - y for x, y in row] for row in pairs]
    assert a.scaled(ca).entries == [[ca * x for x in row] for row in a_rows]
    mixed = RationalMatrix.combination([(ca, a), (cb, b), (1, a)])
    assert mixed.entries == [[ca * x + cb * y + x for x, y in row] for row in pairs]
    assert mixed.max_abs() == max(abs(ca * x + cb * y + x) for row in pairs for x, y in row)
    # cancellation leaves no entry behind
    empty = RationalMatrix(a.rows, a.cols, {})
    assert a.scaled(0) == a - over(a_rows, sb) == empty
    assert list((a - a).nonzeros()) == [] and (a - a).max_abs() == 0
    assert RationalMatrix.combination([(ca, a), (-ca, a)]) == empty
    # product terms beside a lone matrix, each over its own denominator
    b_c = [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*c_rows)] for row in b_rows]
    terms = [(ca, a, c), (cb, over(product, sb)), (1, b, over(c_rows, sa + 1))]
    expected = [[(ca + cb) * x + y for x, y in zip(*rows)] for rows in zip(product, b_c)]
    products = RationalMatrix.combination(terms)
    assert products.entries == expected
    assert products.max_abs() == max(abs(v) for row in expected for v in row)


def test_rational_matrix_serves_only_the_mode_operators():
    # the fixed points and the localization run on atom maps and sparse
    # integer vectors; of gtyang.linalg they take only the integer elimination
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
