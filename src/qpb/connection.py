"""Connections on a trivialized bundle: splittings, connection one-forms,
potentials, transition maps, curvature, and the convolution algebra.

Every connection, potential, frame map and curvature is a FormValuedMap:
a density over (point tuple) x (group element) whose degree is the form
degree and whose size is the number of points, total space or base.  A
connection is a right-splitting of the canonical map on universal
one-forms; equivalently a degree-1 map whose density satisfies four
pointwise invariants.  Potentials describe a connection relative to the
trivial one; transition maps give the classical case.  Curvature is
computed along independent routes that must agree exactly: dθ + θ⋆θ on
the total space, from `curvature_rows`, which yields the table a point
pair's rows at a time; and the potential's own curvature, on the base
for a base potential, read once in the bundle frame at
φ(p)·c·φ(r)⁻¹.  FormValuedMap lives in `funcs` with the other table
types and TransitionMap in `groups`, so a parsed document holds both
without loading this module; the int-view kernels of d, ⋆ and the
curvature rows live in `calculus`.

Builders build and validators report.  A builder (`theta_from_splitting`,
`splitting_from_theta`, `lift_base_potential`, `potential_from_transition`,
`connection_from_potential`, `classical_connection`) expects input that
has passed its validator and checks only that its arguments fit one
another: a frame is present, sizes and groups match.  The gauge
transforms return both of their routes, and the caller compares them.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable

from .bundle import BundleSpec
from .calculus import (
    _curvature_blocks,
    _differential_view,
    _star_view,
    differential,
    offdiag_pairs,
)
from .funcs import FormValuedMap, first_difference, guard_table_size
from .groups import FiniteGroup, TransitionMap
from .gauge import GaugeMap
from .report import CheckResult, Report
from .scalars import ONE, ZERO, Scalar, add_views, canonical, from_ints, gathered, to_ints

__all__ = [
    "Splitting",
    "validate_splitting",
    "theta_from_splitting",
    "splitting_from_theta",
    "validate_connection_form",
    "trivial_connection",
    "validate_potential",
    "validate_base_potential",
    "validate_transition",
    "is_cocycle",
    "lift_base_potential",
    "potential_from_transition",
    "connection_from_potential",
    "classical_connection",
    "star_delta",
    "conv_unit",
    "phi_hom",
    "conv_inverse",
    "curvature",
    "curvature_rows",
    "curvature_from_potential",
    "curvature_classical",
    "gauge_transform_base_potential",
    "gauge_transform_potential",
    "gauge_transform_transition",
]


# ---------------------------------------------------------------------------
# splittings of the canonical map on one-forms


def _splitting_index(b: BundleSpec) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Rows (off-diagonal pairs) and columns (point, group element !=
    identity) of a splitting matrix, after the guard on its entry count."""
    g = b.group
    if g.identity is None:
        raise ValueError("group has no identity")
    pairs = offdiag_pairs(b.total_size)
    cols = [
        (p, a) for p in range(b.total_size) for a in range(g.order) if a != g.identity
    ]
    guard_table_size(len(pairs) * len(cols))
    return pairs, cols


class Splitting:
    """Right inverse of the canonical map, as a matrix on indicator bases.

    Columns are indexed by (point, group element != identity); the column
    holds the image one-form over off-diagonal pairs.  The matrix is held
    as the int view of its row-major entries; it is given as rows of
    Scalars or as a view.
    """

    def __init__(self, b: BundleSpec, matrix: list[list[Scalar]] | None = None, *, view=None):
        self.bundle = b
        self.pairs, self.cols = _splitting_index(b)
        if view is None:
            if len(matrix) != len(self.pairs) or any(
                len(row) != len(self.cols) for row in matrix
            ):
                raise ValueError(
                    f"splitting matrix must be {len(self.pairs)} x {len(self.cols)}"
                )
            view = to_ints([v for row in matrix for v in row])
        self.view = canonical(*view)
        self._col_of = {pa: k for k, pa in enumerate(self.cols)}
        self._row_of = {pq: k for k, pq in enumerate(self.pairs)}

    @property
    def matrix(self) -> list[list[Scalar]]:
        """The rows as Scalars, made afresh on each read."""
        values, width = from_ints(*self.view), len(self.cols)
        return [values[k : k + width] for k in range(0, len(values), width)]

    def __eq__(self, other):
        return (
            isinstance(other, Splitting)
            and self.bundle.total_size == other.bundle.total_size
            and self.view == other.view
        )


def validate_splitting(sigma: Splitting, b: BundleSpec) -> Report:
    """Section property, left module property, right covariance."""
    report = Report()
    g = b.group
    n, m = b.total_size, g.order
    cols = sigma.cols
    width = len(cols)
    view = sigma.view
    parts = [part for part in view[1:] if part is not None]

    # Row (p, a) of canon * sigma: the canonical map sends the indicator of
    # (p, q) to (p, a) with q = p.a, so each row of canon holds at most one
    # unit and the product row is sigma's row (p, p.a), or zero if p.a = p
    # (no row is the pair (p, p)); the product must be the identity.
    zero_row = [0] * width
    product_rows = [sigma._row_of.get((p, b.act(p, a))) for p, a in cols]
    product = gathered(
        view,
        lambda part: itertools.chain.from_iterable(
            zero_row if i is None else part[i * width : (i + 1) * width] for i in product_rows
        ),
    )
    identity = (1, (int(r == c) for r in range(width) for c in range(width)), None)
    w = first_difference(product, identity, (width, width))
    section_witness = None if w is None else cols[w[0]] + cols[w[1]]
    report.add(CheckResult("splitting.section", section_witness is None, section_witness))

    # column (p1, a) may be nonzero only on the rows (p1, q), which are the
    # n - 1 rows from p1 (n - 1) on, as the pairs run point-major
    module_witness = None
    for k, (p1, a) in enumerate(cols):
        nonzero = map(any, zip(*(part[k::width] for part in parts)))
        lo, hi = p1 * (n - 1), (p1 + 1) * (n - 1)
        r = next(
            (r for r in itertools.compress(itertools.count(), nonzero) if not lo <= r < hi), None
        )
        if r is not None:
            module_witness = (sigma.pairs[r][0], p1, a)
            break
    report.add(CheckResult("splitting.module", module_witness is None, module_witness))

    # the column of (p1.b^-1, b a1 b^-1) at (p, q) must equal the column of
    # (p1, a1) at (p.b, q.b); a translated diagonal pair reads the zero
    # appended to every column, and each translate is read as one tuple
    cov_witness = None
    rows = len(sigma.pairs)
    if rows:  # with no pairs every column is empty and equal to its translates
        translate = [
            operator.itemgetter(
                *(sigma._row_of.get((b.act(p, bb), b.act(q, bb)), rows) for p, q in sigma.pairs),
                rows,
            )
            for bb in range(m)
        ]
        columns = [[tuple(part[k::width]) + (0,) for k in range(width)] for part in parts]
        for k, (p1, a1) in enumerate(cols):
            for bb in range(m):
                inv_b = g.inv(bb)
                moved = sigma._col_of[(b.act(p1, inv_b), g.conj(a1, inv_b))]
                if any(part[moved] != translate[bb](part[k]) for part in columns):
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


def _same_space(*maps: FormValuedMap) -> None:
    """Raise unless every map has the first one's group and points."""
    first = maps[0]
    if any(f.group != first.group or f.size != first.size for f in maps):
        raise ValueError("form-valued maps live on different spaces")


def _map_of(like: FormValuedMap, degree: int, view) -> FormValuedMap:
    """The map of a degree over `like`'s group and points holding a view."""
    return FormValuedMap(like.group, like.size, degree, view=view)


def conv_unit(group: FiniteGroup, size: int) -> FormValuedMap:
    """Unit of convolution: the counit followed by the unit, density d(e, a)."""
    e = group.identity
    if e is None:
        raise ValueError("group has no identity")
    return FormValuedMap.build(group, size, 0, lambda p, a: ONE if a == e else ZERO)


def phi_hom(b: BundleSpec) -> FormValuedMap:
    """The trivialization as a map of algebras: density d(phi(p), a)."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    return FormValuedMap.from_point_table(b.group, b.phi)


def conv_inverse(h: FormValuedMap) -> FormValuedMap:
    """Convolution inverse of an algebra map: precompose with inversion.

    Only degree-0 densities that are delta tables (one unit entry per
    point) come from algebra maps; anything else is rejected.
    """
    g = h.group
    m = g.order
    if g.inv_table is None:
        raise ValueError("group has no inverses")
    if h.degree != 0:
        raise ValueError("convolution inverse needs a degree-0 map")
    d, re, im = h.view
    w = []
    for p in range(h.size):
        row = re[p * m : (p + 1) * m]
        imag = [0] * m if im is None else im[p * m : (p + 1) * m]
        hits = [a for a in range(m) if row[a] or imag[a]]
        if len(hits) != 1 or row[hits[0]] != d or imag[hits[0]]:
            raise ValueError(
                f"density row {p} is not a delta table; convolution inverse undefined"
            )
        w.append(g.inv_table[hits[0]])
    return FormValuedMap.from_point_table(g, w)


def _rows_at(part: list[int], n: int, m: int, pairs: Iterable[tuple[int, int]]) -> Iterable[int]:
    """The group rows of one part of a degree-1 view on n points at each
    point pair in turn, end to end."""
    return itertools.chain.from_iterable(
        part[(p * n + q) * m : (p * n + q + 1) * m] for p, q in pairs
    )


def _orbit_pairs(b: BundleSpec) -> Iterable[tuple[int, int]]:
    """(p, p.a) for every point p and group element a, in that order."""
    return ((p, q) for p, row in enumerate(b.action.table) for q in row)


def _translated_pairs(b: BundleSpec) -> Iterable[tuple[int, int]]:
    """(p.a, q.a) for every pair of points (p, q) and group element a, in that order."""
    act = b.action.table
    return ((rp[a], rq[a]) for rp in act for rq in act for a in range(b.group.order))


def _rows_repeated(part: list[int], m: int) -> Iterable[int]:
    """Each group row of a part m times over, end to end."""
    rows = (part[t : t + m] for t in range(0, len(part), m))
    return itertools.chain.from_iterable(row * m for row in rows)


def _zeros():
    """The view of an all-zero table, as long as the other side of a comparison."""
    return 1, itertools.repeat(0), None


def _unit_normalization_witness(gamma: FormValuedMap) -> tuple[int, int] | None:
    """First point pair whose degree-1 density does not sum to zero over the group."""
    n, m = gamma.size, gamma.group.order
    # zip of m references to one iterator reads the part a row at a time
    sums = gathered(gamma.view, lambda part: map(sum, zip(*[iter(part)] * m)))
    return first_difference(sums, _zeros(), (n, n))


def _diagonal_witness(gamma: FormValuedMap) -> tuple[int, int] | None:
    """First (point, group element) where a degree-1 density is nonzero on the diagonal."""
    n, m = gamma.size, gamma.group.order
    diagonal = gathered(gamma.view, lambda part: _rows_at(part, n, m, ((p, p) for p in range(n))))
    return first_difference(diagonal, _zeros(), (n, m))


def validate_connection_form(theta: FormValuedMap, b: BundleSpec) -> Report:
    """The four density invariants of a connection one-form."""
    report = Report()
    g = b.group
    n, m = theta.size, g.order
    if n != b.total_size or g != b.group:
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
    translated = gathered(theta.view, lambda part: _rows_at(part, n, m, _translated_pairs(b)))
    conjugated = gathered(
        theta.view, lambda part: (part[t + k] for t in range(0, len(part), m) for k in conj)
    )
    cov_witness = first_difference(translated, conjugated, (n, n, m, m))
    report.add(CheckResult("connection.ad_covariance", cov_witness is None, cov_witness))
    return report


def theta_from_splitting(sigma: Splitting, b: BundleSpec) -> FormValuedMap:
    """Assemble the density from splitting columns."""
    g = b.group
    n, m = b.total_size, g.order
    e = g.identity
    width = len(sigma.cols)
    pair_rows = [(p * n + q) * m for p, q in sigma.pairs]

    def assemble(part: list[int]) -> list[int]:
        out = [0] * (n * n * m)
        for k, (_p0, a) in enumerate(sigma.cols):
            column = part[k::width]
            for r in itertools.compress(range(len(column)), column):
                out[pair_rows[r] + a] += column[r]
        # the identity slice, which no column writes, balances the unit normalization
        for t in range(0, len(out), m):
            out[t + e] = -sum(out[t : t + m])
        return out

    return FormValuedMap(g, n, 1, view=gathered(sigma.view, assemble))


def splitting_from_theta(theta: FormValuedMap, b: BundleSpec) -> Splitting:
    """Columns localize the density at the first point argument."""
    pairs, cols = _splitting_index(b)
    n, m = theta.size, theta.group.order
    width = len(cols)
    # the columns of point p are the m - 1 from p (m - 1) on, one per
    # group element but the identity, in order
    others = [a for a in range(m) if a != b.group.identity]

    def rows(part: list[int]) -> list[int]:
        out = [0] * (len(pairs) * width)
        for r, (p, q) in enumerate(pairs):
            base, start = (p * n + q) * m, r * width + p * (m - 1)
            out[start : start + m - 1] = [part[base + a] for a in others]
        return out

    return Splitting(b, view=gathered(theta.view, rows))


def trivial_connection(b: BundleSpec) -> FormValuedMap:
    """Connection of a trivialized bundle, via the convolution route."""
    phi_fv, phi_inv_fv = _phi_form_valued(b)
    return star_delta(phi_inv_fv, differential(phi_fv))


# ---------------------------------------------------------------------------
# potentials and transition maps


def validate_potential(gamma: FormValuedMap, b: BundleSpec) -> Report:
    """Unit normalization, vanishing on orbit pairs, translation invariance."""
    report = Report()
    g = b.group
    n, m = gamma.size, g.order
    if n != b.total_size or g != b.group:
        raise ValueError("potential does not match the bundle")

    norm_witness = _unit_normalization_witness(gamma)
    report.add(
        CheckResult("potential.unit_normalization", norm_witness is None, norm_witness)
    )

    orbit_rows = gathered(gamma.view, lambda part: _rows_at(part, n, m, _orbit_pairs(b)))
    orbit_witness = first_difference(orbit_rows, _zeros(), (n, m, m))
    report.add(
        CheckResult("potential.vanishing_on_orbit_pairs", orbit_witness is None, orbit_witness)
    )

    # gamma(p.a, q.a, c) against gamma(p, q, c), each pair's row once per a
    translated = gathered(gamma.view, lambda part: _rows_at(part, n, m, _translated_pairs(b)))
    unmoved = gathered(gamma.view, lambda part: _rows_repeated(part, m))
    inv_witness = first_difference(translated, unmoved, (n, n, m, m))
    report.add(
        CheckResult("potential.translation_invariance", inv_witness is None, inv_witness)
    )
    return report


def validate_base_potential(gh: FormValuedMap) -> Report:
    """Diagonal vanishing and unit normalization on the base."""
    report = Report()
    diag_witness = _diagonal_witness(gh)
    report.add(
        CheckResult("base_potential.vanishing_on_diagonal", diag_witness is None, diag_witness)
    )
    norm_witness = _unit_normalization_witness(gh)
    report.add(
        CheckResult("base_potential.unit_normalization", norm_witness is None, norm_witness)
    )
    return report


def validate_transition(tm: TransitionMap) -> Report:
    """Diagonal entries must be the group identity."""
    report = Report()
    e = tm.group.identity
    witness = next(
        ((x,) for x in range(tm.base_size) if e is None or tm.table[x][x] != e), None
    )
    report.add(CheckResult("transition.diagonal_identity", witness is None, witness))
    return report


def is_cocycle(tm: TransitionMap) -> tuple[bool, tuple | None]:
    """Whether the two-step composition collapses to the one-step table."""
    g = tm.group
    nb = tm.base_size
    witness = next(
        (
            (x, y, z)
            for x in range(nb)
            for y in range(nb)
            for z in range(nb)
            if g.table[tm.table[x][y]][tm.table[y][z]] != tm.table[x][z]
        ),
        None,
    )
    return witness is None, witness


def lift_base_potential(gh: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Pull the density back along the orbit projection in both points."""
    if gh.size != b.base.size or gh.group != b.group:
        raise ValueError("base potential does not match the bundle")
    proj = b.base.projection
    nb, m = gh.size, gh.group.order
    pairs = [(x, y) for x in proj for y in proj]
    view = gathered(gh.view, lambda part: _rows_at(part, nb, m, pairs))
    return FormValuedMap(b.group, b.total_size, 1, view=view)


def potential_from_transition(tm: TransitionMap) -> FormValuedMap:
    """Delta density of the transition table on the base, with the unit part removed."""
    g = tm.group
    words = itertools.chain.from_iterable(tm.table)
    view = _unit_rows(g.order, words, itertools.repeat(g.identity))
    return FormValuedMap(g, tm.base_size, 1, view=view)


def connection_from_potential(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Trivial connection plus the potential conjugated into the bundle frame."""
    return _conjugate_by_convolution(*_phi_form_valued(b), gamma)


def classical_connection(tm: TransitionMap, b: BundleSpec) -> FormValuedMap:
    """Connection of a transition table: group words in the closed form."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if tm.base_size != b.base.size or tm.group != b.group:
        raise ValueError("transition map does not match the bundle")
    g = b.group
    mul, e = g.table, g.identity
    proj = b.base.projection
    phi = b.phi
    n = b.total_size
    words = (
        mul[mul[g.inv(phi[p])][tm.table[proj[p]][proj[q]]]][phi[q]]
        for p in range(n)
        for q in range(n)
    )
    return FormValuedMap(g, n, 1, view=_unit_rows(g.order, words, itertools.repeat(e)))


def _unit_rows(m: int, plus: Iterable[int], minus: Iterable[int]):
    """The view of rows of m entries, each 1 at its `plus` element and -1
    at its `minus` element, all zero where the two coincide; end to end."""

    def entries():
        for a, c in zip(plus, minus):
            row = [0] * m
            if a != c:
                row[a] = 1
                row[c] = -1
            yield from row

    return 1, entries(), None


def strong_connection_direct(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Trivial connection plus a potential read through the frame.

    Closed form of connection_from_potential, evaluated pointwise.  A
    potential on the base is read through the orbit projection, one on
    the total space directly; the runner checks that the routes agree.
    """
    return _conjugate_closed_form(gamma, b.phi, _points_read(gamma, b))


# ---------------------------------------------------------------------------
# curvature


def curvature(theta: FormValuedMap) -> FormValuedMap:
    """Differential of the connection plus its convolution square, filled
    from `curvature_rows` into one list per part and reduced in place."""
    d2, blocks = curvature_rows(theta)
    re, im = [], None if theta.view[2] is None else []
    for block_re, block_im in blocks:
        re += block_re
        if im is not None:
            im += block_im
    return _map_of(theta, 2, canonical(d2, re, im, in_place=True))


def curvature_rows(theta: FormValuedMap):
    """dθ·d + θ⋆θ over d², the denominator of θ's view squared, a point
    pair at a time: returns d² and an iterator that gives, for each
    (p, q) in row-major order, the rows (p, q, r) for r = 0..n−1 end to
    end, as the pair (re, im) of int lists, im None when θ is real.

    The table guards run at the call, before any row is made.  No table
    of the curvature's size is held: a pair's rows read θ from p, θ
    from q and θ at (p, q).
    """
    g, n = theta.group, theta.size
    guard_table_size(n**3)
    guard_table_size(n**3 * g.order)
    return theta.view[0] ** 2, _curvature_blocks(g, n, theta.view)


def curvature_from_potential(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """The potential's curvature on its own points, read in the bundle frame.

    F(p, q, r, c) = F_γ(read p, read q, read r, φ(p)·c·φ(r)⁻¹), where
    F_γ = dγ + γ⋆γ and `read` is the orbit projection for a base
    potential and the identity for one on the total space.  Pullback
    along the projection commutes with d and ⋆, and the frame's delta
    maps only relabel the group argument, so this is φ⁻¹⋆F(γ)⋆φ of the
    potential pulled back to the total space.
    """
    read = _points_read(gamma, b)
    f = curvature(gamma)
    n, size = b.total_size, gamma.size
    w = size * b.group.order
    frame = _frame_gathers(b.group, b.phi, read)

    def gather(part: list[int]):
        # F's rows (x, y, ·) are the w entries from (x·size + y)·w on
        pairs = ((p, read[p] * size + read[q]) for p in range(n) for q in range(n))
        return itertools.chain.from_iterable(frame[p](part[t * w : (t + 1) * w]) for p, t in pairs)

    # the table reads the gathered parts only after its size guard
    return FormValuedMap(b.group, n, 2, view=gathered(f.view, gather))


def _getter(positions: list[int]):
    """A callable that reads the entries at `positions` as a tuple."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda part: tuple(part[k] for k in positions)


def _points_read(gamma: FormValuedMap, b: BundleSpec):
    """Where a potential on the base or on the total space reads each
    point of a framed bundle: through the orbit projection, or directly."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if gamma.group != b.group or gamma.size not in (b.base.size, b.total_size):
        raise ValueError("potential does not match the bundle")
    return b.base.projection if gamma.size == b.base.size else range(b.total_size)


def _frame_gathers(g: FiniteGroup, phi: list[int], read):
    """For each point p, the getter that reads the rows (p, q, r) of
    φ⁻¹⋆F⋆φ, r = 0..n−1 end to end, from F's rows (read p, read q, ·):
    entry (r, c) is F(read p, read q, read r, φ(p)·c·φ(r)⁻¹)."""
    mul, m = g.table, g.order
    right = [g.inv(a) for a in phi]
    points = range(len(phi))
    return [
        _getter([read[r] * m + mul[mul[phi[p]][c]][right[r]] for r in points for c in range(m)])
        for p in points
    ]


def curvature_classical(tm: TransitionMap, b: BundleSpec) -> FormValuedMap:
    """Closed form for transition-map connections: two-step word vs one-step."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if tm.base_size != b.base.size or tm.group != b.group:
        raise ValueError("transition map does not match the bundle")
    g = b.group
    mul, t = g.table, tm.table
    proj = b.base.projection
    phi = b.phi
    n = b.total_size
    # the two-step word and the one-step word at each (p, q, r)
    two = (
        mul[mul[g.inv(phi[p])][mul[t[proj[p]][proj[q]]][t[proj[q]][proj[r]]]]][phi[r]]
        for p, q, r in itertools.product(range(n), repeat=3)
    )
    one = (
        mul[mul[g.inv(phi[p])][t[proj[p]][proj[r]]]][phi[r]]
        for p, q, r in itertools.product(range(n), repeat=3)
    )
    return FormValuedMap(g, n, 2, view=_unit_rows(g.order, two, one))


# ---------------------------------------------------------------------------
# gauge transformations of potentials


def gauge_transform_base_potential(
    gh: FormValuedMap, tau: GaugeMap
) -> tuple[FormValuedMap, FormValuedMap]:
    """Transform by a table of group elements, one per point argument:
    the closed form and the convolution formula, in that order, for the
    caller to compare."""
    g = gh.group
    if tau.group != g or tau.base_size != gh.size:
        raise ValueError("gauge map does not match the potential")
    closed = _conjugate_closed_form(gh, tau.table, range(gh.size))
    tau_fv = FormValuedMap.from_point_table(g, tau.table)
    tau_inv_fv = FormValuedMap.from_point_table(g, [g.inv(a) for a in tau.table])
    return closed, _conjugate_by_convolution(tau_fv, tau_inv_fv, gh)


def gauge_transform_potential(
    gamma: FormValuedMap, b: BundleSpec, tau: GaugeMap
) -> tuple[FormValuedMap, FormValuedMap]:
    """Same transformation with the gauge map pulled up to the total space."""
    if tau.base_size != b.base.size:
        raise ValueError("gauge map does not match the bundle")
    return gauge_transform_base_potential(
        gamma, GaugeMap(tau.group, [tau.table[x] for x in b.base.projection])
    )


def gauge_transform_transition(tm: TransitionMap, tau: GaugeMap) -> TransitionMap:
    """Conjugate the transition table by the gauge values at its endpoints."""
    g = tm.group
    if tau.group != g or tau.base_size != tm.base_size:
        raise ValueError("gauge map does not match the transition map")
    t = tau.table
    return TransitionMap(
        g,
        [
            [g.table[g.table[g.inv(t[x])][tm.table[x][y]]][t[y]] for y in range(tm.base_size)]
            for x in range(tm.base_size)
        ],
    )


# ---------------------------------------------------------------------------
# the two routes of a frame change t^-1 d t + t^-1 gamma t


def _conjugate_closed_form(gamma: FormValuedMap, table: list[int], read) -> FormValuedMap:
    """The frame change of a point -> group table, pointwise; gamma's
    point arguments are read through `read`."""
    g = gamma.group
    mul, e, m = g.table, g.identity, g.order
    nr = gamma.size
    n = len(table)
    d, re, im = gamma.view

    def entries(part: list[int], unit: int):
        for p in range(n):
            left = mul[table[p]]
            for q in range(n):
                # gamma at (read p, read q) on the word t(p) c t(q)^-1
                base = (read[p] * nr + read[q]) * m
                right = g.inv(table[q])
                row = [part[base + mul[left[c]][right]] for c in range(m)]
                flat = mul[g.inv(table[p])][table[q]]
                row[flat] += unit
                row[e] -= unit
                yield from row

    # the unit terms are real: d over the view's denominator
    view = d, entries(re, d), None if im is None else entries(im, 0)
    return FormValuedMap(g, n, 1, view=view)


def _conjugate_by_convolution(
    t_fv: FormValuedMap, t_inv_fv: FormValuedMap, gamma: FormValuedMap
) -> FormValuedMap:
    """The frame change of a delta density and its inverse, by convolution."""
    _same_space(t_inv_fv, t_fv, gamma)
    g, n = gamma.group, gamma.size
    t, t_inv = t_fv.view, t_inv_fv.view
    flat = _star_view(g, n, t_inv, 0, _differential_view(t, n, 0, g.order), 1)
    moved = _star_view(g, n, _star_view(g, n, t_inv, 0, gamma.view, 1), 1, t, 0)
    return _map_of(gamma, 1, add_views(flat, moved))


def _phi_form_valued(b: BundleSpec) -> tuple[FormValuedMap, FormValuedMap]:
    phi_fv = phi_hom(b)
    g = b.group
    return phi_fv, FormValuedMap.from_point_table(g, [g.inv(a) for a in b.phi])
