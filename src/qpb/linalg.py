"""Exact linear algebra: reduced row echelon form, rank, kernel, spans.

Matrices are lists of rows, and a row (or vector) is a sparse dict
{column: nonzero Scalar} that stores no zero, so equal rows are equal
dicts.  Elimination is Gaussian over the exact scalars and touches only
the stored entries (Gustavson, ACM TOMS 4(3), 1978), so ranks and
memberships are decided, not estimated.
"""

from __future__ import annotations

from .scalars import ONE, Scalar

__all__ = [
    "SubspaceBasis",
    "rref",
    "rank_of",
    "rank_and_kernel",
    "span_basis",
]

Row = dict[int, Scalar]


def _sub_multiple(row: Row, f: Scalar, other: Row) -> None:
    """row -= f * other, in place, dropping the entries that cancel."""
    for c, x in other.items():
        y = row.get(c)
        if y is None:
            row[c] = -(f * x)
        elif y := y - f * x:
            row[c] = y
        else:
            del row[c]


def rref(matrix: list[Row]) -> tuple[list[Row], list[int]]:
    """Return (reduced rows, pivot columns), pivots ascending.  Zero rows are dropped."""
    # forward: each row loses its leading entry to the row led there
    # before it, until it leads at a new column
    lead: dict[int, Row] = {}
    for row in matrix:
        row = dict(row)
        while row:
            c = min(row)
            above = lead.get(c)
            if above is None:
                if (f := row[c]) != ONE:
                    inv = f.inverse()
                    row = {k: x * inv for k, x in row.items()}
                lead[c] = row
                break
            _sub_multiple(row, row[c], above)
    # backward: a row clears the later pivot columns it holds with rows
    # that are already reduced, so no pivot column comes back
    pivots = sorted(lead)
    for c in reversed(pivots):
        row = lead[c]
        for k in [k for k in row if k != c and k in lead]:
            _sub_multiple(row, row[k], lead[k])
    return [lead[c] for c in pivots], pivots


def rank_of(matrix: list[Row]) -> int:
    return len(rref(matrix)[1])


def _check_columns(v: Row, ambient_dim: int) -> None:
    if any(not 0 <= c < ambient_dim for c in v):
        raise ValueError(f"vector column outside ambient dimension {ambient_dim}")


class SubspaceBasis:
    """A subspace given by its canonical (reduced echelon) basis rows."""

    def __init__(self, ambient_dim: int, vectors: list[Row], pivots: list[int]):
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: Row) -> bool:
        _check_columns(v, self.ambient_dim)
        res = dict(v)
        for row, p in zip(self.vectors, self.pivots):
            if f := res.get(p):
                _sub_multiple(res, f, row)
        return not res

    def equals(self, other: SubspaceBasis) -> bool:
        # reduced echelon bases are unique per subspace
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.vectors == other.vectors
        )


def span_basis(vectors: list[Row], ambient_dim: int) -> SubspaceBasis:
    for v in vectors:
        _check_columns(v, ambient_dim)
    rows, pivots = rref(vectors)
    return SubspaceBasis(ambient_dim, rows, pivots)


def rank_and_kernel(matrix: list[Row], ncols: int) -> tuple[int, SubspaceBasis]:
    """Rank of the matrix and the canonical basis of its right kernel."""
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    # one kernel vector per free column: 1 there, minus that column of
    # the reduced rows at their pivots
    kernel: dict[int, Row] = {c: {c: ONE} for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(rows, pivots):
        for c, x in row.items():
            if c != pc:
                kernel[c][pc] = -x
    return len(pivots), span_basis(list(kernel.values()), ncols)
