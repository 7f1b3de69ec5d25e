"""Universal differential calculus on a finite set.

An n-form is a function on (n+1)-tuples of points vanishing whenever two
adjacent points coincide: a `FormValuedMap` (from `funcs`) over the
one-element group, or, over a larger group, one such form per group
element.  The differential is the alternating sum over omitted
arguments; the product, which concatenates argument tuples over a
shared endpoint, is `connection.star_delta`.  On a bundle, the
horizontal 1-forms are the span of the cross-orbit indicators, and
exactness compares that span with the kernel of the canonical map.

Forms are stored as int views (`scalars`), so `differential` sums ints
over the nonzero rows of its input's view and hands its view to the new
table; nothing is converted on the way.  The int-view kernels that
`connection` and `potentials` build on live here too:
`_differential_view`, which `potentials` chains inside the frame
change; `_star_view`, behind `star_delta`; and `_curvature_blocks`, the
rows of dθ·d + θ⋆θ a point pair at a time, behind `curvature_rows`.
`validate_form` tests the entries at the adjacent repeats on ints.
Only the matrices handed to `linalg` hold Scalars, as sparse rows: the
canonical map's row at (p, a) is one unit entry, or empty where
p.a = p, and an indicator basis vector is one unit entry.  The two
functions that reach `linalg` import it themselves, so a curvature
dump, which needs only the kernels, does not load it for them.
"""

from __future__ import annotations

import operator

from .bundle import BundleSpec
from .funcs import FormValuedMap, guard_table_size, unravel
from .groups import FiniteGroup
from .report import CheckResult, Report
from .scalars import ONE, Scalar

# only for the annotations: the functions that call linalg import it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .linalg import SubspaceBasis

__all__ = [
    "validate_form",
    "differential",
    "restricted_canonical_matrix",
    "horizontal_basis",
    "check_exactness",
    "offdiag_pairs",
]


def validate_form(f: FormValuedMap) -> Report:
    """Check vanishing on adjacent repeated points.

    `f` is checked one group slice at a time, in order; the witness is
    (group element, *points).  Only the point tuples with an adjacent
    repeat are read.
    """
    width = f.group.order
    repeats = _adjacent_repeats(f.size, f.degree)
    _d, re, im = f.view
    witness = None
    for c in range(width):
        t = next(
            (t for t in repeats if re[t * width + c] or im and im[t * width + c]), None
        )
        if t is not None:
            witness = (c,) + unravel(t, (f.size,) * (f.degree + 1))
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


def _nonzero_rows(values: list[int], width: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each row of a flat int table that has a nonzero entry, as its row
    number and its nonzero (column, value) pairs."""
    rows = []
    for r, base in enumerate(range(0, len(values), width)):
        row = [(c, v) for c, v in enumerate(values[base : base + width]) if v]
        if row:
            rows.append((r, row))
    return rows


def differential(f: FormValuedMap) -> FormValuedMap:
    """Alternating sum over one omitted argument; raises degree by one.

    `f` is a flat table of one value per group element per point tuple,
    and each group slice is differentiated on its own.
    """
    view = _differential_view(f.view, f.size, f.degree, f.group.order)
    return FormValuedMap(f.group, f.size, f.degree + 1, view=view)


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


def _star_view(group: FiniteGroup, size: int, a, na: int, c, nc: int):
    """`star_delta` on the int views of a degree-na and a degree-nc
    density: a complex product is four int products, and a product with
    a side that has no imaginary part is not formed at all."""
    entries = size ** (na + nc + 1) * group.order
    guard_table_size(entries)
    da, ra, ia = a
    dc, rc, ic = c
    re = _convolve(entries, ((ra, rc, 1), (ia, ic, -1)), group, size, nc)
    im = _convolve(entries, ((ra, ic, 1), (ia, rc, 1)), group, size, nc)
    return da * dc, re, im


def _convolve(entries: int, terms, group: FiniteGroup, size: int, ny: int):
    """The sum of sign·(x⋆y) over the (x, y, sign) terms whose two flat int
    densities both exist, or None when no term has both."""
    m = group.order
    mul = group.table
    y_tail = size**ny
    out = None
    for x, y, sign in terms:
        if x is None or y is None:
            continue
        if out is None:
            out = [0] * entries
        y_rows = [None] * (size ** (ny + 1))
        for r, row in _nonzero_rows(y, m):
            y_rows[r] = row
        for ta, x_row in _nonzero_rows(x, m):
            x_row = [(mul[aa], sign * va) for aa, va in x_row]
            first = ta % size * y_tail
            for tc in range(first, first + y_tail):
                y_row = y_rows[tc]
                if y_row is None:
                    continue
                obase = (ta * y_tail + tc - first) * m
                for row, va in x_row:
                    for cc, vc in y_row:
                        out[obase + row[cc]] += va * vc
    return out


# (part of θ(p, q), part of θ(q, r), part of the product, sign) for
# each part of a complex product; the first alone for a real one
_PRODUCT_TERMS = ((0, 0, 0, 1), (1, 1, 0, -1), (0, 1, 1, 1), (1, 0, 1, 1))


def _curvature_blocks(g: FiniteGroup, n: int, view):
    """dθ·d + θ⋆θ over d² for the int view (d, re, im) of a degree-1
    density θ on n points, a point pair at a time: for each (p, q) in
    row-major order, the rows (p, q, r), r = 0..n−1, end to end, as the
    pair (re, im) of int lists, im None when θ is real.

    A pair's rows read only θ from p, θ from q and θ at (p, q): the
    differential is three list passes, and the product adds each nonzero
    θ(p, q, a) times each nonzero θ(q, r, b) at a·b.
    """
    d, re, im = view
    parts = [re] if im is None else [re, im]
    terms = _PRODUCT_TERMS[:1] if im is None else _PRODUCT_TERMS
    m, mul = g.order, g.table
    w = n * m
    # θ(q, r, b) for every r and b, from each point q, as one list scaled
    # by d, and its nonzeros as (r·m, b, value)
    froms = [[part[q * w : (q + 1) * w] for q in range(n)] for part in parts]
    scaled = froms if d == 1 else [[[d * v for v in f] for f in fs] for fs in froms]
    nonzero = [[[(k - k % m, k % m, v) for k, v in enumerate(f) if v] for f in fs] for fs in froms]
    for p in range(n):
        for q in range(n):
            rows = [part[(p * n + q) * m : (p * n + q + 1) * m] for part in parts]
            # d·dθ(p, q, r) = d·(θ(q, r) − θ(p, r) + θ(p, q))
            blocks = [
                list(map(operator.add, map(operator.sub, f[q], f[p]), [d * v for v in row] * n))
                for f, row in zip(scaled, rows)
            ]
            for j, l, k, sign in terms:
                out = blocks[k]
                for a, va in enumerate(rows[j]):
                    if va:
                        moved, va = mul[a], sign * va
                        for base, b, vb in nonzero[l][q]:
                            out[base + moved[b]] += va * vb
            yield blocks[0], None if im is None else blocks[1]


def offdiag_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(n) if p != q]


def restricted_canonical_matrix(
    b: BundleSpec,
) -> tuple[list[dict[int, Scalar]], list[tuple[int, int]]]:
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
