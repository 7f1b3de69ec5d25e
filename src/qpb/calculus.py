"""Universal differential calculus on a finite set.

An n-form is a function on (n+1)-tuples of points vanishing whenever two
adjacent points coincide: a `FormValuedMap` (from `funcs`) over the
one-element group, or, over a larger group, one such form per group
element.  The differential is the alternating sum over omitted
arguments; the product, which concatenates argument tuples over a
shared endpoint, is `connection.star_delta`.  On a bundle, the
horizontal 1-forms are the span of the cross-orbit indicators, and
exactness compares that span with the kernel of the canonical map.

Forms are stored as int views (`views`), so `differential` sums ints
over the nonzero rows of its input's view, through
`kernels._differential_view`, and hands its view to the new table;
nothing is converted on the way.  The int-view kernels live in
`kernels` with the curvature rows, so the builders of `potentials` and
a curvature dump run them without loading this module.
Only the matrices handed to `linalg` hold Scalars, as sparse rows: the
canonical map's row at (p, a) is one unit entry, or empty where
p.a = p, and an indicator basis vector is one unit entry.  The
functions that reach `linalg` or build its rows import `linalg` and
`scalars` themselves, so a check that builds no matrix loads neither.
"""

from __future__ import annotations

from .funcs import FormValuedMap, guard_table_size
from .groups import BundleSpec
from .kernels import _differential_view
from .report import CheckResult, Report

# only for the annotations: the functions that use them import them
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .linalg import SubspaceBasis
    from .scalars import Scalar

__all__ = [
    "differential",
    "restricted_canonical_matrix",
    "horizontal_basis",
    "check_exactness",
    "offdiag_pairs",
]


def differential(f: FormValuedMap) -> FormValuedMap:
    """Alternating sum over one omitted argument; raises degree by one.

    `f` is a flat table of one value per group element per point tuple,
    and each group slice is differentiated on its own.
    """
    view = _differential_view(f.view, f.size, f.degree, f.group.order)
    return FormValuedMap(f.group, f.size, f.degree + 1, view=view)


def offdiag_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(n) if p != q]


def restricted_canonical_matrix(
    b: BundleSpec,
) -> tuple[list[dict[int, Scalar]], list[tuple[int, int]]]:
    """Matrix of the canonical map on 1-forms, in map form.

    Rows: (p, a) with a != identity.  Columns: off-diagonal pairs (the
    indicator basis of 1-forms).  Returns (matrix, column pairs).

    The guard counts the n(n-1) off-diagonal pairs, about what the pair
    list, its column map and the kernel each hold; a row holds at most one.
    """
    from .scalars import ONE

    g = b.group
    if g.identity is None:
        raise ValueError("group has no identity")
    n = b.total_size
    guard_table_size(n * (n - 1))
    pairs = offdiag_pairs(n)
    col_of = {pq: k for k, pq in enumerate(pairs)}
    rows = [
        {col_of[(p, q)]: ONE} if q != p else {}
        for p, row in enumerate(b.action.table)
        for a, q in enumerate(row)
        if a != g.identity
    ]
    return rows, pairs


def horizontal_basis(b: BundleSpec) -> SubspaceBasis:
    """Span of products (function) * lifted base 1-form * (function).

    On indicator bases the products reduce to indicators of cross-orbit
    pairs.  Distinct indicator rows in ascending pivot order are already
    reduced, so they are the canonical basis as they stand.
    """
    from .linalg import SubspaceBasis
    from .scalars import ONE

    n = b.total_size
    proj = b.base.projection
    pivots = [p * n + q for p in range(n) for q in range(n) if proj[p] != proj[q]]
    return SubspaceBasis(n * n, [{k: ONE} for k in pivots], pivots)


def check_exactness(b: BundleSpec, free: Report) -> Report:
    """Horizontal forms, the canonical map on 1-forms, and its kernel.

    Verifies the 1-form sequence: the restricted canonical map surjects
    onto (total space) x (counit kernel), and its kernel is exactly the
    span of cross-orbit indicators.  `free` is the bundle's
    `check_freeness` report; exactness needs a free action.
    """
    report = Report()
    if not free.passed:
        w = free.first_failure()
        # a freeness check that failed for a reason passes that reason on
        reason = (w.data or {}).get("reason", "action is not free")
        report.add(
            CheckResult("exactness.freeness_required", False, w.witness, data={"reason": reason})
        )
        return report

    from .linalg import SubspaceBasis, rank_and_kernel

    n, m = b.total_size, b.group.order
    matrix, pairs = restricted_canonical_matrix(b)
    rank, kernel = rank_and_kernel(matrix, ncols=len(pairs))
    dim_omega1 = len(pairs)
    target_dim = n * (m - 1)
    report.add(
        CheckResult(
            "exactness.surjectivity",
            rank == target_dim,
            data={"rank": rank, "target_dim": target_dim, "dim_omega1": dim_omega1},
        )
    )

    # re-key kernel vectors from off-diagonal pairs to the full pair
    # space; the re-keying keeps column order, so the rows stay reduced
    flat = [p * n + q for p, q in pairs]
    kernel_full = SubspaceBasis(
        n * n,
        [{flat[c]: x for c, x in v.items()} for v in kernel.vectors],
        [flat[c] for c in kernel.pivots],
    )
    hor = horizontal_basis(b)
    report.add(
        CheckResult(
            "exactness.kernel_equals_horizontal",
            kernel_full.equals(hor),
            data={"kernel_dim": kernel_full.dim, "horizontal_dim": hor.dim},
        )
    )
    return report
