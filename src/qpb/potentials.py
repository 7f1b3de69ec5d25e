"""Potentials and transition maps: the trivial-bundle formulae.

On a trivialized bundle a strong connection is the trivial connection
φ⁻¹⋆dφ plus a potential conjugated into the bundle frame, and a
transition map gives the classical connection in closed form.  This
module holds those formulae and the validators of their inputs:
potentials on the total space and on the base, transition maps, the
convolution unit, frame and inverse, and the gauge transforms of
potentials and transition tables.  A frame change t⁻¹dt + t⁻¹γt has two
routes, pointwise and by convolution: `strong_connection_direct` takes
the first and `connection_from_potential` the second, and each gauge
transform returns both for the caller to compare.  The splitting, the
connection form, `star_delta` and curvature live in `connection`; the
builders here run on the int-view kernels and density scans of
`kernels`, so building a connection form for a curvature dump loads
neither `connection` nor `calculus`.

Builders build and validators report.  A builder (`lift_base_potential`,
`potential_from_transition`, `connection_from_potential`,
`classical_connection`) expects input that has passed its validator and
checks only that its arguments fit one another: a frame is present,
sizes and groups match.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .funcs import FormValuedMap, first_difference
from .groups import BundleSpec, FiniteGroup, GaugeMap, TransitionMap
from .kernels import (
    _diagonal_witness,
    _differential_view,
    _map_of,
    _orbit_pairs,
    _points_read,
    _rows_at,
    _same_space,
    _star_view,
    _translated_pairs,
    _unit_normalization_witness,
    _unit_rows,
    _zeros,
)
from .report import CheckResult, Report
from .scalars import add_views, gathered

__all__ = [
    "trivial_connection",
    "validate_potential",
    "validate_base_potential",
    "validate_transition",
    "is_cocycle",
    "lift_base_potential",
    "potential_from_transition",
    "connection_from_potential",
    "classical_connection",
    "strong_connection_direct",
    "conv_unit",
    "phi_hom",
    "conv_inverse",
    "gauge_transform_base_potential",
    "gauge_transform_potential",
    "gauge_transform_transition",
]


# ---------------------------------------------------------------------------
# the convolution unit, the frame and its inverse, and the trivial connection


def conv_unit(group: FiniteGroup, size: int) -> FormValuedMap:
    """Unit of convolution: the counit followed by the unit, density d(e, a)."""
    e = group.identity
    if e is None:
        raise ValueError("group has no identity")
    return FormValuedMap.from_point_table(group, [e] * size)


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


def trivial_connection(b: BundleSpec) -> FormValuedMap:
    """Connection of a trivialized bundle, via the convolution route."""
    from .calculus import differential
    from .connection import star_delta

    phi_fv, phi_inv_fv = _phi_form_valued(b)
    return star_delta(phi_inv_fv, differential(phi_fv))


# ---------------------------------------------------------------------------
# potentials and transition maps


def _rows_repeated(part: list[int], m: int) -> Iterable[int]:
    """Each group row of a part m times over, end to end."""
    rows = (part[t : t + m] for t in range(0, len(part), m))
    return itertools.chain.from_iterable(row * m for row in rows)


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


def strong_connection_direct(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Trivial connection plus a potential read through the frame.

    Closed form of connection_from_potential, evaluated pointwise.  A
    potential on the base is read through the orbit projection, one on
    the total space directly; the runner checks that the routes agree.
    """
    return _conjugate_closed_form(gamma, b.phi, _points_read(gamma, b))


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
