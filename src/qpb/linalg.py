"""Exact linear algebra: reduced row echelon form, rank, kernel, spans.

Matrices are lists of rows, rows are lists of Scalar.  Everything is
computed by Gaussian elimination over the exact scalars, so ranks and
memberships are decided, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import ONE, ZERO, Scalar

__all__ = [
    "SubspaceBasis",
    "rref",
    "rank_of",
    "rank_and_kernel",
    "span_basis",
    "identity_matrix",
]


def rref(matrix: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Return (reduced rows, pivot columns).  Zero rows are dropped."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
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


def rank_of(matrix: list[list[Scalar]]) -> int:
    return len(rref(matrix)[1])


@dataclass
class SubspaceBasis:
    """A subspace given by its canonical (reduced echelon) basis rows."""

    ambient_dim: int
    vectors: list[list[Scalar]] = field(default_factory=list)
    pivots: list[int] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: list[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector length {len(v)} does not match ambient dimension {self.ambient_dim}"
            )
        res = list(v)
        for row, p in zip(self.vectors, self.pivots):
            f = res[p]
            if f:
                res = [a - f * b if b else a for a, b in zip(res, row)]
        return not any(res)

    def equals(self, other: SubspaceBasis) -> bool:
        # reduced echelon bases are unique per subspace
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.vectors == other.vectors
        )


def span_basis(vectors: list[list[Scalar]], ambient_dim: int) -> SubspaceBasis:
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(
                f"vector length {len(v)} does not match ambient dimension {ambient_dim}"
            )
    if not vectors:
        return SubspaceBasis(ambient_dim)
    rows, pivots = rref(vectors)
    return SubspaceBasis(ambient_dim, rows, pivots)


def rank_and_kernel(matrix: list[list[Scalar]], ncols: int | None = None) -> tuple[int, SubspaceBasis]:
    """Rank of the matrix and the canonical basis of its right kernel."""
    if ncols is None:
        if not matrix:
            raise ValueError("empty matrix needs an explicit column count")
        ncols = len(matrix[0])
    if not matrix:
        return 0, span_basis(identity_matrix(ncols), ncols)
    rows, pivots = rref(matrix)
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    kernel: list[list[Scalar]] = []
    for fc in free_cols:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            coeff = rows[r][fc]
            if coeff:
                v[pc] = -coeff
        kernel.append(v)
    return rank, span_basis(kernel, ncols)


def identity_matrix(n: int) -> list[list[Scalar]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
