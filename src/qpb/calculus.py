"""Universal differential calculus on a finite set.

An n-form is a function on (n+1)-tuples of points vanishing whenever two
adjacent points coincide.  The product concatenates argument tuples over
a shared endpoint; the differential is the alternating sum over omitted
arguments.  On a bundle, the horizontal 1-forms are the span of the
cross-orbit indicators, and exactness compares that span with the
kernel of the canonical map.  The Form table type lives in `funcs`.

`differential` runs on the common-denominator int view of its input
(`scalars.to_ints`): it reads the table once, sums ints over its nonzero
rows only and writes the result back once.  Its view kernel,
`_differential_view`, is also the one `connection` chains inside the
curvature and frame-change composites, so those convert once as well.
"""

from __future__ import annotations

from .bundle import BundleSpec
from .funcs import Form, guard_table_size, unravel
from .linalg import SubspaceBasis, rank_and_kernel
from .report import CheckResult, Report
from .scalars import ONE, ZERO, Scalar, from_ints, to_ints

__all__ = [
    "validate_form",
    "concat_product",
    "differential",
    "restricted_canonical_matrix",
    "horizontal_basis",
    "check_exactness",
    "offdiag_pairs",
]


def validate_form(f) -> Report:
    """Check vanishing on adjacent repeated points.

    `f` is a Form, or a FormValuedMap checked one group slice at a time,
    in order; a map's witness is (group element, *points).  Only the
    point tuples with an adjacent repeat are read.
    """
    form = isinstance(f, Form)
    width = 1 if form else f.group.order
    repeats = _adjacent_repeats(f.size, f.degree)
    values = f.values
    witness = None
    for c in range(width):
        t = next((t for t in repeats if values[t * width + c]), None)
        if t is not None:
            points = unravel(t, (f.size,) * (f.degree + 1))
            witness = points if form else (c,) + points
            break
    report = Report()
    report.add(CheckResult("form.adjacent_vanishing", witness is None, witness))
    return report


def _adjacent_repeats(size: int, degree: int) -> list[int]:
    """Flat positions, ascending, of the (degree + 1)-tuples of points
    whose arguments j and j + 1 coincide for some j."""
    found = set()
    for j in range(degree):
        lo = size ** (degree - 1 - j)
        for head in range(size**j):
            for x in range(size):
                first = ((head * size + x) * size + x) * lo
                found.update(range(first, first + lo))
    return sorted(found)


def concat_product(f: Form, g: Form) -> Form:
    """(f g)(p_0..p_{n+m}) = f(p_0..p_n) g(p_n..p_{n+m})."""
    if f.size != g.size:
        raise ValueError(f"forms live on different sets: {f.size} vs {g.size}")
    n, m = f.degree, g.degree
    size = f.size

    def fn(idx):
        a = f.values[f.flat_index(idx[: n + 1])]
        if not a:
            return ZERO
        b = g.values[g.flat_index(idx[n:])]
        if not b:
            return ZERO
        return a * b

    return Form.build(size, n + m, fn)


def _nonzero_rows(values: list[int], width: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each row of a flat int table that has a nonzero entry, as its row
    number and its nonzero (column, value) pairs."""
    rows = []
    for r, base in enumerate(range(0, len(values), width)):
        row = [(c, v) for c, v in enumerate(values[base : base + width]) if v]
        if row:
            rows.append((r, row))
    return rows


def differential(f):
    """Alternating sum over one omitted argument; raises degree by one.

    `f` is a Form, or a FormValuedMap: a flat table of one value per
    group element per point tuple, each group slice differentiated on
    its own.  The result has the same kind as `f`.
    """
    form = isinstance(f, Form)
    width = 1 if form else f.group.order
    out = from_ints(*_differential_view(to_ints(f.values), f.size, f.degree, width))
    if form:
        return Form(f.size, f.degree + 1, out)
    return type(f)(f.group, f.size, f.degree + 1, out)


def _differential_view(view, size: int, degree: int, width: int):
    """`differential` on the int view of a table with `width` values per
    point tuple; the result keeps the view's denominator."""
    npts = size ** (degree + 2)
    guard_table_size(npts)
    if width > 1:
        guard_table_size(npts * width)
    d, re, im = view
    if im is not None:
        im = _d_ints(im, size, degree, width)
    return d, _d_ints(re, size, degree, width), im


def _d_ints(values: list[int], size: int, degree: int, width: int) -> list[int]:
    """The alternating sum on one flat int table, read from its nonzero rows.

    Argument j inserted into source tuple s at value x gives the target
    (s // lo * size + x) * lo + s % lo, with lo = size ** (degree + 1 - j).
    """
    out = [0] * (size ** (degree + 2) * width)
    rows = _nonzero_rows(values, width)
    negated = [(s, [(c, -v) for c, v in row]) for s, row in rows]
    for j in range(degree + 2):
        lo = size ** (degree + 1 - j)
        step = lo * width
        for s, row in negated if j % 2 else rows:
            first = (s // lo * size * lo + s % lo) * width
            for base in range(first, first + size * step, step):
                for c, v in row:
                    out[base + c] += v
    return out


def offdiag_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(n) if p != q]


def restricted_canonical_matrix(b: BundleSpec) -> tuple[list[list[Scalar]], list[tuple[int, int]]]:
    """Matrix of the canonical map on 1-forms, in map form.

    Rows: (p, a) with a != identity.  Columns: off-diagonal pairs (the
    indicator basis of 1-forms).  Returns (matrix, column pairs).
    """
    g = b.group
    if g.identity is None:
        raise ValueError("group has no identity")
    n, m = b.total_size, g.order
    pairs = offdiag_pairs(n)
    col_of = {pq: k for k, pq in enumerate(pairs)}
    guard_table_size(n * (m - 1) * len(pairs))
    rows = []
    for p in range(n):
        for a in range(m):
            if a == g.identity:
                continue
            row = [ZERO] * len(pairs)
            q = b.act(p, a)
            if q != p:
                row[col_of[(p, q)]] = ONE
            rows.append(row)
    return rows, pairs


def horizontal_basis(b: BundleSpec) -> SubspaceBasis:
    """Span of products (function) * lifted base 1-form * (function).

    On indicator bases the products reduce to indicators of cross-orbit
    pairs.  Distinct indicator rows in ascending pivot order are already
    reduced, so they are the canonical basis as they stand.
    """
    n = b.total_size
    proj = b.base.projection
    pivots = [p * n + q for p in range(n) for q in range(n) if proj[p] != proj[q]]
    vectors = []
    for k in pivots:
        v = [ZERO] * (n * n)
        v[k] = ONE
        vectors.append(v)
    return SubspaceBasis(n * n, vectors, pivots)


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
        report.add(
            CheckResult(
                "exactness.freeness_required",
                False,
                w.witness,
                data={"reason": "action is not free"},
            )
        )
        return report

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

    # embed kernel vectors (off-diagonal coordinates) into full pair space
    full_kernel_vectors = []
    for v in kernel.vectors:
        full = [ZERO] * (n * n)
        for (p, q), val in zip(pairs, v):
            full[p * n + q] = val
        full_kernel_vectors.append(full)
    flat_of = {pq: pq[0] * n + pq[1] for pq in pairs}
    kernel_full = SubspaceBasis(
        n * n, full_kernel_vectors, [flat_of[pairs[c]] for c in kernel.pivots]
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
