from fractions import Fraction

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
    rows, pivots = rref([[ONE, ONE], [ONE, ONE]])
    assert rows == [[ONE, ONE]]
    assert pivots == [0]


def test_rank_hand_examples():
    assert rank_of([[ONE, ONE], [ONE, ONE]]) == 1
    assert rank_of([[S(1), S(2)], [S(3), S(4)]]) == 2
    assert rank_of([[ZERO, ZERO]]) == 0
    assert rank_of([]) == 0


def test_rref_canonical():
    # rows [[2,4],[1,3]] -> identity
    rows, pivots = rref([[S(2), S(4)], [S(1), S(3)]])
    assert rows == [[ONE, ZERO], [ZERO, ONE]]
    assert pivots == [0, 1]


def test_kernel_hand_example():
    # map-form: rows are target coordinates, columns source coordinates;
    # the all-ones 2x2 map kills (1, -1)
    rank, kernel = rank_and_kernel([[ONE, ONE], [ONE, ONE]])
    assert rank == 1
    assert kernel.dim == 1
    assert kernel.contains([ONE, -ONE])
    assert not kernel.contains([ONE, ONE])


def test_kernel_of_injective_map_is_zero():
    rank, kernel = rank_and_kernel([[ONE, ZERO], [ZERO, ONE], [ONE, ONE]], ncols=2)
    assert rank == 2
    assert kernel.dim == 0


def test_kernel_of_zero_map_is_everything():
    rank, kernel = rank_and_kernel([[ZERO, ZERO, ZERO]], ncols=3)
    assert rank == 0
    assert kernel.dim == 3
    assert kernel.contains([S(5), S(-2), S(7)])


def test_subspace_equality_independent_of_presentation():
    a = span_basis([[ONE, ONE, ZERO], [ZERO, ONE, ONE]], 3)
    b = span_basis([[ONE, ZERO, -ONE], [ONE, S(2), ONE]], 3)
    assert a.equals(b)
    c = span_basis([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], 3)
    assert not a.equals(c)


def test_subspace_membership():
    basis = span_basis([[ONE, ONE, ZERO], [ZERO, ZERO, ONE]], 3)
    assert basis.contains([S(2), S(2), S(-3)])
    assert not basis.contains([ONE, ZERO, ZERO])


def test_complex_entries():
    i = Scalar(0, 1)
    # rows (1, i) and (i, -1) are dependent over the Gaussian rationals
    assert rank_of([[ONE, i], [i, -ONE]]) == 1
