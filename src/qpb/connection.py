"""Connections on a bundle: splittings, connection one-forms and curvature.

A connection is a splitting of the universal one-forms into horizontal
and vertical parts.  A `Splitting` is a right inverse of the canonical
map on one-forms, stored as θ's nonzeros: one sparse column per (point,
group element != identity), and its checks read the stored entries
only.  A connection one-form is a degree-1 map whose density satisfies
four pointwise invariants, and `theta_from_splitting` and
`splitting_from_theta` pass between the two; the columns are a copy of
θ's entries, not a view of θ, so the round trip compares two tables
built separately.  `star_delta` is the
convolution product of form-valued maps.  Curvature is computed along
independent routes that must agree exactly, each yielding a point
pair's rows at a time: dθ + θ⋆θ on the total space, from
`kernels.curvature_rows`; the potential's own curvature, on the base
for a base potential, read in the bundle frame at φ(p)·c·φ(r)⁻¹; and
the closed form of a transition map.  The trivial-bundle formulae that give
a connection from a potential or a transition map, and the gauge
transforms, live in `potentials`, which builds on this module.

Every connection is a FormValuedMap: a density over (point tuple) x
(group element) whose degree is the form degree and whose size is the
number of points.  FormValuedMap, the one table type, lives in
`funcs` and TransitionMap in `groups`, so a parsed
document holds both without loading this module.  The int-view kernels
of d, ⋆ and the curvature rows, and the density scans that the
connection-form and potential validators share, live in `kernels`, so
a curvature dump, which runs only those, does not load this module.

Builders build and validators report: `theta_from_splitting` and
`splitting_from_theta` expect input that has passed its validator and
check only that their arguments fit one another.
"""

from __future__ import annotations

import itertools

from .calculus import offdiag_pairs
from .funcs import FormValuedMap, first_difference, guard_table_size
from .groups import BundleSpec, FiniteGroup, TransitionMap
from .kernels import (
    _covariance_witness,
    _diagonal_witness,
    _map_of,
    _orbit_pairs,
    _points_read,
    _rows_at,
    _same_space,
    _star_view,
    _unit_normalization_witness,
    curvature_rows,
)
from .report import CheckResult, Report
from .views import gathered, take

__all__ = [
    "Splitting",
    "validate_splitting",
    "theta_from_splitting",
    "splitting_from_theta",
    "validate_connection_form",
    "star_delta",
    "curvature_from_potential",
    "curvature_classical",
]

# ---------------------------------------------------------------------------
# splittings of the canonical map on one-forms


def _splitting_index(b: BundleSpec) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Rows (off-diagonal pairs) and columns (point, group element !=
    identity) of a splitting.  No cap is checked: a `Splitting` stores
    at most the nonzeros of θ, which passed the cap when it was built."""
    g = b.group
    if g.identity is None:
        raise ValueError("group has no identity")
    pairs = offdiag_pairs(b.total_size)
    cols = [
        (p, a) for p in range(b.total_size) for a in range(g.order) if a != g.identity
    ]
    return pairs, cols


class Splitting:
    """Right inverse of the canonical map, as sparse columns on indicator bases.

    Columns are indexed by (point, group element != identity), rows by
    the off-diagonal pairs.  Column k is the image one-form of `cols[k]`,
    stored as the dict `columns[k]` = {row: (re, im)} of its nonzero
    entries (re + im·i)/d over one denominator `d`, the idiom of
    `linalg`'s rows.  A column stores no zero, so two columns are equal
    exactly when their dicts are.
    """

    def __init__(self, b: BundleSpec, d: int, columns: list[dict[int, tuple[int, int]]]):
        self.bundle = b
        self.pairs, self.cols = _splitting_index(b)
        if len(columns) != len(self.cols) or any((0, 0) in col.values() for col in columns):
            raise ValueError(f"a splitting has {len(self.cols)} columns that store no zero")
        self.d = d
        self.columns = columns


def _first_change(x: dict, y: dict):
    """The smallest key at which two dicts that store no zero differ, or None."""
    return min((k for k in x.keys() | y.keys() if x.get(k) != y.get(k)), default=None)


def validate_splitting(sigma: Splitting, b: BundleSpec) -> Report:
    """Section property, left module property, right covariance, each read
    from the stored entries; a witness is the first failing entry of the
    dense matrix's scan."""
    report = Report()
    g = b.group
    n, m = b.total_size, g.order
    cols, columns = sigma.cols, sigma.columns
    row_of = {pq: r for r, pq in enumerate(sigma.pairs)}

    # Row (p, a) of canon * sigma: the canonical map sends the indicator of
    # (p, q) to (p, a) with q = p.a, so each row of canon holds at most one
    # unit and the product row is sigma's row (p, p.a), or zero if p.a = p
    # (no row is the pair (p, p)); the product must be the identity.
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    for k, column in enumerate(columns):
        for r, v in column.items():
            rows.setdefault(r, {})[k] = v
    section_witness = None
    for k, (p, a) in enumerate(cols):
        c = _first_change(rows.get(row_of.get((p, b.act(p, a))), {}), {k: (sigma.d, 0)})
        if c is not None:
            section_witness = cols[k] + cols[c]
            break
    report.add(CheckResult("splitting.section", section_witness is None, section_witness))

    # column (p1, a) may be nonzero only on the rows (p1, q), which are the
    # n - 1 rows from p1 (n - 1) on, as the pairs run point-major
    module_witness = None
    for (p1, a), column in zip(cols, columns):
        lo, hi = p1 * (n - 1), (p1 + 1) * (n - 1)
        r = min((r for r in column if not lo <= r < hi), default=None)
        if r is not None:
            module_witness = (sigma.pairs[r][0], p1, a)
            break
    report.add(CheckResult("splitting.module", module_witness is None, module_witness))

    # the column of (p1.b^-1, b a1 b^-1) at (p, q) must equal the column of
    # (p1, a1) at (p.b, q.b), which is zero where (p.b, q.b) is diagonal;
    # column (p1, a1) is pulled back through the preimages of each row, as
    # the action need not permute the pairs
    preimages = []
    for bb in range(m):
        pre: dict[int, list[int]] = {}
        for r, (p, q) in enumerate(sigma.pairs):
            s = row_of.get((b.act(p, bb), b.act(q, bb)))
            if s is not None:
                pre.setdefault(s, []).append(r)
        preimages.append(pre)
    col_of = {pa: k for k, pa in enumerate(cols)}
    cov_witness = None
    for (p1, a1), column in zip(cols, columns):
        for bb, pre in enumerate(preimages):
            inv_b = g.inv(bb)
            moved = columns[col_of[(b.act(p1, inv_b), g.conj(a1, inv_b))]]
            pulled = {r: v for s, v in column.items() for r in pre.get(s, ())}
            if pulled != moved:
                cov_witness = (p1, a1, bb)
                break
        if cov_witness:
            break
    report.add(CheckResult("splitting.covariance", cov_witness is None, cov_witness))
    return report


# ---------------------------------------------------------------------------
# convolution and connection one-forms


def star_delta(a_map: FormValuedMap, c_map: FormValuedMap) -> FormValuedMap:
    """Convolution against the coproduct, concatenating the form parts.

    Degrees add; the two point tuples share their junction point.  At
    degree 0 this is the convolution product of frame maps.
    """
    _same_space(a_map, c_map)
    view = _star_view(a_map.group, a_map.size, a_map.view, a_map.degree, c_map.view, c_map.degree)
    return _map_of(a_map, a_map.degree + c_map.degree, view)


def validate_connection_form(theta: FormValuedMap, b: BundleSpec) -> Report:
    """The four density invariants of a connection one-form."""
    report = Report()
    g = b.group
    n, m = theta.size, g.order
    if n != b.total_size or theta.group != g:
        raise ValueError("connection form does not match the bundle")
    e = g.identity

    diag_witness = _diagonal_witness(theta)
    report.add(
        CheckResult("connection.vanishing_on_diagonal", diag_witness is None, diag_witness)
    )

    norm_witness = _unit_normalization_witness(theta)
    report.add(
        CheckResult("connection.unit_normalization", norm_witness is None, norm_witness)
    )

    # theta(p, p.a, c) against the (a, c) block d(a, c) - d(c, e), at every p
    unit = [int(a == c) - int(c == e) for a in range(m) for c in range(m)]
    orbit_rows = gathered(theta.view, lambda part: _rows_at(part, n, m, _orbit_pairs(b)))
    split_witness = first_difference(orbit_rows, (1, unit * n, None), (n, m, m))
    report.add(
        CheckResult("connection.splitting_property", split_witness is None, split_witness)
    )

    # theta(p.b, q.b, c) against theta(p, q, b c b^-1), witness (p, q, b, c)
    if g.inv_table is None:
        reason = {"reason": "group lacks identity or inverses"}
        report.add(CheckResult("connection.ad_covariance", False, data=reason))
        return report
    conj = [g.conj(c, g.inv(bb)) for bb in range(m) for c in range(m)]
    cov_witness = _covariance_witness(theta, b, conj)
    report.add(CheckResult("connection.ad_covariance", cov_witness is None, cov_witness))
    return report


def theta_from_splitting(sigma: Splitting, b: BundleSpec) -> FormValuedMap:
    """Assemble the density from splitting columns."""
    g = b.group
    n, m = b.total_size, g.order
    e = g.identity
    pair_rows = [(p * n + q) * m for p, q in sigma.pairs]
    parts = [[0] * (n * n * m), [0] * (n * n * m)]
    for (_p0, a), column in zip(sigma.cols, sigma.columns):
        for r, v in column.items():
            for part, x in zip(parts, v):
                part[pair_rows[r] + a] += x
    # the identity slice, which no column writes, balances the unit normalization
    for part in parts:
        for t in range(0, len(part), m):
            part[t + e] = -sum(part[t : t + m])
    return FormValuedMap(g, n, 1, view=(sigma.d, *parts))


def splitting_from_theta(theta: FormValuedMap, b: BundleSpec) -> Splitting:
    """Columns localize the density at the first point argument: column
    (p, a), row (p, q) is θ(p, q, a), copied from θ's nonzero entries."""
    _pairs, cols = _splitting_index(b)
    n, m = theta.size, theta.group.order
    e = b.group.identity
    d, re, im = theta.view
    im = itertools.repeat(0) if im is None else im
    columns: list[dict[int, tuple[int, int]]] = [{} for _ in cols]
    # entry t is θ(p, q, a) with t = (p n + q) m + a; pairs and columns run
    # point-major, so (p, q) is row p (n - 1) + q - [q > p] and (p, a) is
    # column p (m - 1) + a - [a > e]
    for t, x, y in zip(itertools.count(), re, im):
        if x or y:
            pq, a = divmod(t, m)
            p, q = divmod(pq, n)
            if p != q and a != e:
                columns[p * (m - 1) + a - (a > e)][p * (n - 1) + q - (q > p)] = (x, y)
    return Splitting(b, d, columns)


# ---------------------------------------------------------------------------
# curvature


def curvature_from_potential(gamma: FormValuedMap, b: BundleSpec):
    """The potential's curvature on its own points, read in the bundle
    frame, as `curvature_rows` gives one: its denominator and each point
    pair's rows.

    F(p, q, r, c) = F_γ(read p, read q, read r, φ(p)·c·φ(r)⁻¹), where
    F_γ = dγ + γ⋆γ and `read` is the orbit projection for a base
    potential and the identity for one on the total space.  Pullback
    along the projection commutes with d and ⋆, and the frame's delta
    maps only relabel the group argument, so this is φ⁻¹⋆F(γ)⋆φ of the
    potential pulled back to the total space.

    A potential on the total space reads each point directly, so its
    rows are read in the order they come.  A base potential's rows from
    πp, its nb pairs (πp, y), are held while p's pairs are read, nb²·m
    entries, and computed again where πp changes; on a product bundle
    the points over a base point are consecutive, so each is computed
    once.
    """
    read = _points_read(gamma, b)
    n, size = b.total_size, gamma.size
    if size == n:
        d, rows = curvature_rows(gamma)
    else:
        guard_table_size(size**2 * b.group.order)
        runs = [(x, len(list(ps))) for x, ps in itertools.groupby(read)]
        d, from_base = curvature_rows(gamma, [x for x, _ in runs])

        def pulled_back():
            for _x, count in runs:
                held = list(itertools.islice(from_base, size))
                for _ in range(count):
                    yield from (held[y] for y in read)

        rows = pulled_back()
    frame = _frame_gathers(b.group, b.phi, read)

    def blocks():
        for p in range(n):
            for block in itertools.islice(rows, n):
                yield tuple(None if part is None else list(frame[p](part)) for part in block)

    return d, blocks()


def _frame_gathers(g: FiniteGroup, phi: list[int], read):
    """For each point p, the gather that reads the rows (p, q, r) of
    φ⁻¹⋆F⋆φ, r = 0..n−1 end to end, from F's rows (read p, read q, ·):
    entry (r, c) is F(read p, read q, read r, φ(p)·c·φ(r)⁻¹)."""
    mul, m = g.table, g.order
    right = [g.inv(a) for a in phi]
    points = range(len(phi))
    return [
        take([read[r] * m + mul[mul[phi[p]][c]][right[r]] for r in points for c in range(m)])
        for p in points
    ]


def curvature_classical(tm: TransitionMap, b: BundleSpec):
    """Closed form for transition-map connections, as `curvature_rows`
    gives a curvature, over the denominator 1: row (p, q, r) is 1 at the
    two-step word and −1 at the one-step word, unless they coincide."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if tm.base_size != b.base.size or tm.group != b.group:
        raise ValueError("transition map does not match the bundle")
    g = b.group
    mul, m, t = g.table, g.order, tm.table
    proj, phi, n = b.base.projection, b.phi, b.total_size

    def blocks():
        for p, q in itertools.product(range(n), repeat=2):
            block = [0] * (n * m)
            left, tpq = mul[g.inv(phi[p])], t[proj[p]][proj[q]]
            for r in range(n):
                # the two-step word and the one-step word at (p, q, r)
                two = mul[left[mul[tpq][t[proj[q]][proj[r]]]]][phi[r]]
                one = mul[left[t[proj[p]][proj[r]]]][phi[r]]
                if two != one:
                    block[r * m + two], block[r * m + one] = 1, -1
            yield block, None

    return 1, blocks()
