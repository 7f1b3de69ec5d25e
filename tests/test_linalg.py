from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridge import parts
from qpb.linalg import (
    SubspaceBasis,
    rank_and_kernel,
    rank_of,
    rref,
    span_basis,
)
from qpb.scalars import ONE, ZERO, Scalar


def S(x):
    return Scalar(Fraction(x))


def test_rref_hand_example():
    # [[1,1],[1,1]] reduces to a single pivot row
    rows, pivots = rref([{0: ONE, 1: ONE}, {0: ONE, 1: ONE}])
    assert rows == [{0: ONE, 1: ONE}]
    assert pivots == [0]


def test_rank_hand_examples():
    assert rank_of([{0: ONE, 1: ONE}, {0: ONE, 1: ONE}]) == 1
    assert rank_of([{0: S(1), 1: S(2)}, {0: S(3), 1: S(4)}]) == 2
    assert rank_of([{}]) == 0
    assert rank_of([]) == 0


def test_rref_canonical():
    # rows [[2,4],[1,3]] -> identity
    rows, pivots = rref([{0: S(2), 1: S(4)}, {0: S(1), 1: S(3)}])
    assert rows == [{0: ONE}, {1: ONE}]
    assert pivots == [0, 1]


def test_rref_leaves_its_input_alone():
    matrix = [{1: S(2), 0: S(4)}, {0: S(2), 1: S(1)}]
    rref(matrix)
    assert matrix == [{0: S(4), 1: S(2)}, {0: S(2), 1: S(1)}]


def test_kernel_hand_example():
    # map-form: rows are target coordinates, columns source coordinates;
    # the all-ones 2x2 map kills (1, -1)
    rank, kernel = rank_and_kernel([{0: ONE, 1: ONE}, {0: ONE, 1: ONE}], ncols=2)
    assert rank == 1
    assert kernel.dim == 1
    assert kernel.contains({0: ONE, 1: -ONE})
    assert not kernel.contains({0: ONE, 1: ONE})


def test_kernel_of_injective_map_is_zero():
    rank, kernel = rank_and_kernel([{0: ONE}, {1: ONE}, {0: ONE, 1: ONE}], ncols=2)
    assert rank == 2
    assert kernel.dim == 0


def test_kernel_of_zero_map_is_everything():
    rank, kernel = rank_and_kernel([{}], ncols=3)
    assert rank == 0
    assert kernel.dim == 3
    assert kernel.contains({0: S(5), 1: S(-2), 2: S(7)})


def test_kernel_of_the_empty_matrix_is_the_identity_basis():
    rank, kernel = rank_and_kernel([], ncols=3)
    assert rank == 0
    assert kernel.vectors == [{0: ONE}, {1: ONE}, {2: ONE}]
    assert kernel.pivots == [0, 1, 2]


def test_subspace_equality_independent_of_presentation():
    a = span_basis([{0: ONE, 1: ONE}, {1: ONE, 2: ONE}], 3)
    b = span_basis([{0: ONE, 2: -ONE}, {0: ONE, 1: S(2), 2: ONE}], 3)
    assert a.equals(b)
    c = span_basis([{0: ONE}, {1: ONE}], 3)
    assert not a.equals(c)


def test_subspace_membership():
    basis = span_basis([{0: ONE, 1: ONE}, {2: ONE}], 3)
    assert basis.contains({0: S(2), 1: S(2), 2: S(-3)})
    assert not basis.contains({0: ONE})
    assert basis.contains({})


def test_columns_outside_the_ambient_space_are_refused():
    with pytest.raises(ValueError, match="outside ambient dimension 2"):
        span_basis([{2: ONE}], 2)
    with pytest.raises(ValueError, match="outside ambient dimension 2"):
        SubspaceBasis(2, [], []).contains({-1: ONE})


def test_complex_entries():
    i = Scalar(0, 1)
    # rows (1, i) and (i, -1) are dependent over the Gaussian rationals
    assert rank_of([{0: ONE, 1: i}, {0: i, 1: -ONE}]) == 1


# ---------------------------------------------------------------------------
# the sparse elimination against the dense one it replaced


def dense_rref(matrix):
    """The dense Gaussian elimination on lists of Scalars, kept as the reference."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != ONE:
            inv = lead.inverse()
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b if b else a for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def dense(row, ncols):
    return [row.get(c, ZERO) for c in range(ncols)]


_parts = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# zero about half the time, so rows are sparse and some vanish entirely
_entries = st.one_of(
    st.just(ZERO),
    st.just(ZERO),
    st.integers(-3, 3).map(Scalar),
    st.builds(Scalar, _parts, _parts),
)


@st.composite
def _matrices(draw):
    """(ncols, dense rows): zero and duplicated rows, non-unit pivots, complex entries."""
    ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=5))
    extra = draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    zeros = [[ZERO] * ncols] * draw(st.integers(0, 1))
    order = draw(st.permutations(range(len(rows) + len(extra) + len(zeros))))
    pool = rows + extra + zeros
    return ncols, [pool[k] for k in order]


def _sympy_rank(matrix, ncols):
    sympy = pytest.importorskip("sympy")

    def entry(x):
        re, im = parts(x)
        return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
            im.numerator, im.denominator
        )

    return sympy.Matrix(len(matrix), ncols, [entry(x) for row in matrix for x in row]).rank()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_matrices())
@example((0, []))  # the empty matrix
@example((3, []))  # no rows, three columns
@example((2, [[S(2), S(4)], [S(1), S(3)], [S(2), S(4)]]))  # non-unit pivots, a duplicate
@example((2, [[ONE, Scalar(0, 1)], [Scalar(0, 1), -ONE], [ZERO, ZERO]]))  # complex, a zero row
def test_sparse_rref_matches_the_dense_reference(case):
    ncols, matrix = case
    sparse = [{c: x for c, x in enumerate(row) if x} for row in matrix]
    rows, pivots = rref(sparse)
    expected_rows, expected_pivots = dense_rref(matrix)
    assert pivots == expected_pivots
    assert [dense(row, ncols) for row in rows] == expected_rows
    assert all(x for row in rows for x in row.values())

    rank, kernel = rank_and_kernel(sparse, ncols)
    assert rank == len(pivots) == _sympy_rank(matrix, ncols)
    assert rank + kernel.dim == ncols
    assert kernel.pivots == sorted(kernel.pivots)
    for v in kernel.vectors:
        assert all(v.values())
        for row in sparse:
            assert sum((x * v[c] for c, x in row.items() if c in v), ZERO) == ZERO
