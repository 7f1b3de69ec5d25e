"""Connections on a trivialized bundle: splittings, connection one-forms,
potentials, transition maps, curvature, and the convolution algebra.

Every connection, potential, frame map and curvature is a FormValuedMap:
a density over (point tuple) x (group element) whose degree is the form
degree and whose size is the number of points, total space or base.  A
connection is a right-splitting of the canonical map on universal
one-forms; equivalently a degree-1 map whose density satisfies four
pointwise invariants.  Potentials describe a connection relative to the
trivial one; transition maps give the classical case.  Curvature is
computed along independent routes that must agree exactly.
FormValuedMap lives in `funcs` with the other table types and
TransitionMap in `groups`, so a parsed document holds both without
loading this module.

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
from math import lcm

from .bundle import BundleSpec
from .calculus import _differential_view, _nonzero_rows, differential, offdiag_pairs
from .funcs import FormValuedMap, first_difference, guard_table_size
from .groups import FiniteGroup, TransitionMap
from .gauge import GaugeMap
from .report import CheckResult, Report
from .scalars import ONE, ZERO, Scalar, from_ints, to_ints

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
    holds the image one-form over off-diagonal pairs.
    """

    def __init__(self, b: BundleSpec, matrix: list[list[Scalar]]):
        self.bundle = b
        self.pairs, self.cols = _splitting_index(b)
        if len(matrix) != len(self.pairs) or any(
            len(row) != len(self.cols) for row in matrix
        ):
            raise ValueError(
                f"splitting matrix must be {len(self.pairs)} x {len(self.cols)}"
            )
        self.matrix = [list(row) for row in matrix]
        self._col_of = {pa: k for k, pa in enumerate(self.cols)}
        self._row_of = {pq: k for k, pq in enumerate(self.pairs)}

    def column_values(self) -> list[list[Scalar]]:
        """Every column as its n*n form values, zero on the diagonal."""
        n = self.bundle.total_size
        flat = [p * n + q for p, q in self.pairs]
        out = []
        for column in zip(*self.matrix):
            values = [ZERO] * (n * n)
            for i, v in zip(flat, column):
                values[i] = v
            out.append(values)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Splitting)
            and self.bundle.total_size == other.bundle.total_size
            and self.matrix == other.matrix
        )


def validate_splitting(sigma: Splitting, b: BundleSpec) -> Report:
    """Section property, left module property, right covariance."""
    report = Report()
    g = b.group
    n, m = b.total_size, g.order
    cols = sigma.cols

    # Row (p, a) of canon * sigma: the canonical map sends the indicator of
    # (p, q) to (p, a) with q = p.a, so each row of canon holds at most one
    # unit and the product row is sigma's row (p, p.a), or zero if p.a = p.
    zero_row = [ZERO] * len(cols)
    section_witness = None
    for r, (p, a) in enumerate(cols):
        q = b.act(p, a)
        row = sigma.matrix[sigma._row_of[(p, q)]] if q != p else zero_row
        c = next((c for c, v in enumerate(row) if v != (ONE if c == r else ZERO)), None)
        if c is not None:
            section_witness = cols[r] + cols[c]
            break
    report.add(CheckResult("splitting.section", section_witness is None, section_witness))

    module_witness = None
    for k, (p1, a) in enumerate(cols):
        for r, (p0, q0) in enumerate(sigma.pairs):
            if sigma.matrix[r][k] and p0 != p1:
                module_witness = (p0, p1, a)
                break
        if module_witness:
            break
    report.add(CheckResult("splitting.module", module_witness is None, module_witness))

    # the column of (p1.b^-1, b a1 b^-1) at (p, q) must equal the column of
    # (p1, a1) at (p.b, q.b); each translate is compared as one list
    columns = sigma.column_values()
    translate = [
        [b.act(p, bb) * n + b.act(q, bb) for p in range(n) for q in range(n)]
        for bb in range(m)
    ]
    cov_witness = None
    for k, (p1, a1) in enumerate(cols):
        base = columns[k]
        for bb in range(m):
            inv_b = g.inv(bb)
            moved = columns[sigma._col_of[(b.act(p1, inv_b), g.conj(a1, inv_b))]]
            if moved != [base[i] for i in translate[bb]]:
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
    a, c = to_ints(a_map.density), to_ints(c_map.density)
    view = _star_view(a_map.group, a_map.size, a, a_map.degree, c, c_map.degree)
    return _map_of(a_map, a_map.degree + c_map.degree, view)


def _same_space(*maps: FormValuedMap) -> None:
    """Raise unless every map has the first one's group and points."""
    first = maps[0]
    if any(f.group != first.group or f.size != first.size for f in maps):
        raise ValueError("form-valued maps live on different spaces")


def _map_of(like: FormValuedMap, degree: int, view) -> FormValuedMap:
    """The map of a degree over `like`'s group and points holding a view."""
    return FormValuedMap(like.group, like.size, degree, from_ints(*view))


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


def _sum_view(x, y):
    """The sum of two views of the same shape, over the lcm of their denominators."""
    dx, rx, ix = x
    dy, ry, iy = y
    d = lcm(dx, dy)
    fx, fy = d // dx, d // dy

    def add(u, v):
        if u is None:
            u = itertools.repeat(0)
        if v is None:
            v = itertools.repeat(0)
        if fx == 1 and fy == 1:
            return list(map(operator.add, u, v))
        return [a * fx + b * fy for a, b in zip(u, v)]

    return d, add(rx, ry), None if ix is None and iy is None else add(ix, iy)


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
    w = []
    for p in range(h.size):
        row = h.density[p * m : (p + 1) * m]
        hits = [a for a in range(m) if row[a]]
        if len(hits) != 1 or row[hits[0]] != ONE:
            raise ValueError(
                f"density row {p} is not a delta table; convolution inverse undefined"
            )
        w.append(g.inv_table[hits[0]])
    return FormValuedMap.from_point_table(g, w)


def _rows_at(gamma: FormValuedMap, pairs: Iterable[tuple[int, int]]) -> Iterable[Scalar]:
    """The group rows of a degree-1 density at each point pair in turn, end to end."""
    d, n, m = gamma.density, gamma.size, gamma.group.order
    return itertools.chain.from_iterable(
        d[(p * n + q) * m : (p * n + q + 1) * m] for p, q in pairs
    )


def _orbit_pairs(b: BundleSpec) -> Iterable[tuple[int, int]]:
    """(p, p.a) for every point p and group element a, in that order."""
    return ((p, q) for p, row in enumerate(b.action.table) for q in row)


def _translated_pairs(b: BundleSpec) -> Iterable[tuple[int, int]]:
    """(p.a, q.a) for every pair of points (p, q) and group element a, in that order."""
    act = b.action.table
    return ((rp[a], rq[a]) for rp in act for rq in act for a in range(b.group.order))


def _unit_normalization_witness(gamma: FormValuedMap) -> tuple[int, int] | None:
    """First point pair whose degree-1 density does not sum to zero over the group."""
    n, m = gamma.size, gamma.group.order
    d = gamma.density
    sums = (sum(d[t : t + m], ZERO) for t in range(0, len(d), m))
    return first_difference(sums, itertools.repeat(ZERO), (n, n))


def _diagonal_witness(gamma: FormValuedMap) -> tuple[int, int] | None:
    """First (point, group element) where a degree-1 density is nonzero on the diagonal."""
    n = gamma.size
    diagonal = _rows_at(gamma, ((p, p) for p in range(n)))
    return first_difference(diagonal, itertools.repeat(ZERO), (n, gamma.group.order))


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
    unit = [
        (ONE if a == c else ZERO) - (ONE if c == e else ZERO) for a in range(m) for c in range(m)
    ]
    split_witness = first_difference(_rows_at(theta, _orbit_pairs(b)), unit * n, (n, m, m))
    report.add(
        CheckResult("connection.splitting_property", split_witness is None, split_witness)
    )

    # theta(p.b, q.b, c) against theta(p, q, b c b^-1), witness (p, q, b, c)
    conj = [g.conj(c, g.inv(bb)) for bb in range(m) for c in range(m)]
    d = theta.density
    conjugated = (d[t + k] for t in range(0, len(d), m) for k in conj)
    cov_witness = first_difference(
        _rows_at(theta, _translated_pairs(b)), conjugated, (n, n, m, m)
    )
    report.add(CheckResult("connection.ad_covariance", cov_witness is None, cov_witness))
    return report


def theta_from_splitting(sigma: Splitting, b: BundleSpec) -> FormValuedMap:
    """Assemble the density from splitting columns."""
    g = b.group
    n, m = b.total_size, g.order
    e = g.identity
    density = [ZERO] * (n * n * m)
    for k, (p0, a) in enumerate(sigma.cols):
        for r, (p, q) in enumerate(sigma.pairs):
            v = sigma.matrix[r][k]
            if v:
                density[(p * n + q) * m + a] = density[(p * n + q) * m + a] + v
    # the identity slice balances the unit normalization
    for pq in range(n * n):
        acc = ZERO
        for c in range(m):
            if c != e:
                acc = acc + density[pq * m + c]
        density[pq * m + e] = -acc
    return FormValuedMap(g, n, 1, density)


def splitting_from_theta(theta: FormValuedMap, b: BundleSpec) -> Splitting:
    """Columns localize the density at the first point argument."""
    pairs, cols = _splitting_index(b)
    d, n, m = theta.density, theta.size, theta.group.order
    return Splitting(
        b,
        [
            [d[(p * n + q) * m + a] if p == p0 else ZERO for p0, a in cols]
            for p, q in pairs
        ],
    )


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

    orbit_witness = first_difference(
        _rows_at(gamma, _orbit_pairs(b)), itertools.repeat(ZERO), (n, m, m)
    )
    report.add(
        CheckResult("potential.vanishing_on_orbit_pairs", orbit_witness is None, orbit_witness)
    )

    # gamma(p.a, q.a, c) against gamma(p, q, c), each pair's row once per a
    d = gamma.density
    unmoved = (d[t + c] for t in range(0, len(d), m) for _a in range(m) for c in range(m))
    inv_witness = first_difference(
        _rows_at(gamma, _translated_pairs(b)), unmoved, (n, n, m, m)
    )
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
    d, nb, m = gh.density, gh.size, gh.group.order
    rows = (d[(x * nb + y) * m : (x * nb + y + 1) * m] for x in proj for y in proj)
    return FormValuedMap(b.group, b.total_size, 1, itertools.chain.from_iterable(rows))


def potential_from_transition(tm: TransitionMap) -> FormValuedMap:
    """Delta density of the transition table on the base, with the unit part removed."""
    g = tm.group
    e = g.identity
    return FormValuedMap.build(
        g,
        tm.base_size,
        1,
        lambda x, y, c: (ONE if tm.table[x][y] == c else ZERO)
        - (ONE if c == e else ZERO),
    )


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
    return FormValuedMap(g, n, 1, _unit_rows(g.order, words, itertools.repeat(e)))


def _unit_rows(m: int, plus: Iterable[int], minus: Iterable[int]) -> Iterable[Scalar]:
    """Rows of m entries, each 1 at its `plus` element and -1 at its
    `minus` element, all zero where the two coincide; end to end."""
    minus_one = Scalar(-1)
    for a, c in zip(plus, minus):
        row = [ZERO] * m
        if a != c:
            row[a] = ONE
            row[c] = minus_one
        yield from row


def strong_connection_direct(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Trivial connection plus a potential read through the frame.

    Closed form of connection_from_potential, evaluated pointwise.  A
    potential on the base is read through the orbit projection, one on
    the total space directly; the runner checks that the routes agree.
    """
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if gamma.group != b.group or gamma.size not in (b.base.size, b.total_size):
        raise ValueError("potential does not match the bundle")
    read = b.base.projection if gamma.size == b.base.size else range(b.total_size)
    return _conjugate_closed_form(gamma, b.phi, read)


# ---------------------------------------------------------------------------
# curvature


def curvature(theta: FormValuedMap) -> FormValuedMap:
    """Differential of the connection plus its convolution square."""
    return _map_of(theta, 2, _curvature_view(theta))


def _curvature_view(theta: FormValuedMap):
    """`curvature` as a view: d(theta)·d + theta⋆theta over the denominator d²."""
    g, n = theta.group, theta.size
    view = to_ints(theta.density)
    return _sum_view(
        _differential_view(view, n, 1, g.order), _star_view(g, n, view, 1, view, 1)
    )


def curvature_from_potential(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Conjugate the potential's differential and square into the bundle frame."""
    phi_fv, phi_inv_fv = _phi_form_valued(b)
    f = _curvature_view(gamma)
    _same_space(phi_inv_fv, gamma, phi_fv)
    g, n = gamma.group, gamma.size
    f = _star_view(g, n, to_ints(phi_inv_fv.density), 0, f, 2)
    return _map_of(gamma, 2, _star_view(g, n, f, 2, to_ints(phi_fv.density), 0))


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
    return FormValuedMap(g, n, 2, _unit_rows(g.order, two, one))


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
    d, nr = gamma.density, gamma.size
    n = len(table)

    def entries():
        for p in range(n):
            left = mul[table[p]]
            for q in range(n):
                # gamma at (read p, read q) on the word t(p) c t(q)^-1
                base = (read[p] * nr + read[q]) * m
                right = g.inv(table[q])
                row = [d[base + mul[left[c]][right]] for c in range(m)]
                flat = mul[g.inv(table[p])][table[q]]
                row[flat] = row[flat] + ONE
                row[e] = row[e] - ONE
                yield from row

    return FormValuedMap(g, n, 1, entries())


def _conjugate_by_convolution(
    t_fv: FormValuedMap, t_inv_fv: FormValuedMap, gamma: FormValuedMap
) -> FormValuedMap:
    """The frame change of a delta density and its inverse, by convolution."""
    _same_space(t_inv_fv, t_fv, gamma)
    g, n = gamma.group, gamma.size
    t, t_inv = to_ints(t_fv.density), to_ints(t_inv_fv.density)
    flat = _star_view(g, n, t_inv, 0, _differential_view(t, n, 0, g.order), 1)
    moved = _star_view(g, n, _star_view(g, n, t_inv, 0, to_ints(gamma.density), 1), 1, t, 0)
    return _map_of(gamma, 1, _sum_view(flat, moved))


def _phi_form_valued(b: BundleSpec) -> tuple[FormValuedMap, FormValuedMap]:
    phi_fv = phi_hom(b)
    g = b.group
    return phi_fv, FormValuedMap.from_point_table(g, [g.inv(a) for a in b.phi])
