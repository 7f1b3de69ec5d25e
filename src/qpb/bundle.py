"""Finite total spaces carrying a free group action: the bundle layer.

The total space is {0, ..., N-1} with a right action of a finite group;
the base is the orbit set.  The coaction dualizes the action, the
canonical map decides freeness by an exact rank, and trivializations
(when present) give the product picture through psi and the section.
A function on P, on the base or on B x G is its bare int view
(`views`), and the coaction, psi, its inverse and the base injection
are pullbacks: each gathers a view's entries into a view with list
parts, so two results compare with `==` or `first_difference`.
The bundle itself, `BundleSpec` with its `BaseSpace`, is data and lives
in `groups`, so parsing a document or dumping a curvature never loads
this module; densities over the bundle, frame maps included, live in
the connection layer.  The functions that reach `linalg` or build its
`Scalar` rows import `linalg` and `scalars` themselves, so a check that
builds no matrix loads neither.
"""

from __future__ import annotations

from .funcs import first_difference, guard_table_size
from .groups import BundleSpec, _composed, fixed_point_witness
from .report import CheckResult, Report
from .views import gathered, indicator, mul_views

# only for the annotations: the functions that use them import them
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .linalg import SubspaceBasis
    from .scalars import Scalar

__all__ = [
    "coaction",
    "check_comodule_algebra",
    "check_freeness",
    "invariants_basis",
    "inject_base",
    "validate_trivialization",
    "synthesize_trivialization",
    "psi_apply",
    "psi_inverse",
]


def coaction(b: BundleSpec, f):
    """[coaction(f)](p, a) = f(p acted by a): the view on P x G, with
    (p, a) at p·m + a, of a view on the total space."""
    return _pulled_back(f, b.action.flat)


def check_comodule_algebra(b: BundleSpec) -> Report:
    """Coassociativity, counit, multiplicativity, unit on the indicator basis."""
    report = Report()
    g = b.group
    n, m = b.total_size, g.order
    e = g.identity
    if e is None:
        report.add(CheckResult("comodule.coassociativity", False, data={"reason": "group has no identity"}))
        return report

    # each indicator and its coaction, built once for all three checks
    indicators = [indicator(n, q) for q in range(n)]
    coactions = [coaction(b, f) for f in indicators]

    # t(p.a, c) against t(p, ac) over (p, a, c), t the coaction of an
    # indicator, as flat gathers of t's (point, group element) rows; the
    # positions of each gather and each side are lists of n·m² entries
    guard_table_size(n * m * m)
    moved = [x * m + c for x in b.action.flat for c in range(m)]
    multiplied = [p * m + ac for p in range(n) for row in g.table for ac in row]
    coassoc_witness = None
    for tq in coactions:
        lhs, rhs = _pulled_back(tq, moved), _pulled_back(tq, multiplied)
        coassoc_witness = first_difference(lhs, rhs, (n, m, m))
        if coassoc_witness is not None:
            break
    report.add(CheckResult("comodule.coassociativity", coassoc_witness is None, coassoc_witness))

    counit_witness = None
    for f, tq in zip(indicators, coactions):
        # the coaction at the identity: every row's entry e
        counit_witness = first_difference(gathered(tq, lambda part: part[e::m]), f, (n,))
        if counit_witness is not None:
            break
    report.add(CheckResult("comodule.counit", counit_witness is None, counit_witness))

    mult_witness = None
    for fq, tq in zip(indicators, coactions):
        for fr, tr in zip(indicators, coactions):
            lhs = coaction(b, mul_views(fq, fr))
            mult_witness = first_difference(lhs, mul_views(tq, tr), (n, m))
            if mult_witness is not None:
                break
        if mult_witness is not None:
            break
    report.add(CheckResult("comodule.multiplicativity", mult_witness is None, mult_witness))

    ones = (1, [1] * n, None)
    unit_witness = first_difference(coaction(b, ones), (1, [1] * (n * m), None), (n, m))
    report.add(CheckResult("comodule.unit", unit_witness is None, unit_witness))
    return report


def _canonical_matrix(b: BundleSpec) -> list[dict[int, Scalar]]:
    from .scalars import ONE

    # map form: rows indexed by (p, a), columns by source pairs (p0, q0)
    n = b.total_size
    return [{p * n + q: ONE} for p, row in enumerate(b.action.table) for q in row]


def check_freeness(b: BundleSpec) -> Report:
    """Freeness two ways: fixed-point scan and rank of the canonical map."""
    report = Report()
    n, m = b.total_size, b.group.order
    if b.group.identity is None:
        # without an identity the rank of the canonical map decides nothing
        for name in ("freeness.direct", "freeness.rank"):
            report.add(CheckResult(name, False, data={"reason": "group has no identity"}))
        return report
    direct_witness = fixed_point_witness(b.action)
    report.add(CheckResult("freeness.direct", direct_witness is None, direct_witness))

    from .linalg import rank_of

    rank = rank_of(_canonical_matrix(b))
    expected = n * m
    report.add(
        CheckResult(
            "freeness.rank",
            rank == expected,
            data={"rank": rank, "expected_rank": expected, "source_dim": n * n, "target_dim": n * m},
        )
    )
    return report


def invariants_basis(b: BundleSpec) -> SubspaceBasis:
    """Coaction-invariant functions: the span of orbit indicators."""
    from .linalg import SubspaceBasis
    from .scalars import ONE

    vectors = [dict.fromkeys(orbit, ONE) for orbit in b.base.orbits]
    # orbits partition the points, so the rows are already reduced
    return SubspaceBasis(b.total_size, vectors, list(b.base.reps))


def inject_base(b: BundleSpec, h):
    """Pull a view on the base back to the total space along the projection."""
    return _pulled_back(h, b.base.projection)


def validate_trivialization(b: BundleSpec) -> Report:
    """Equivariance of phi and orbit-constancy of the induced section."""
    report = Report()
    if b.phi is None:
        report.add(CheckResult("trivialization.present", False, data={"reason": "no phi table"}))
        return report
    report.add(CheckResult("trivialization.present", True))
    g = b.group
    if g.identity is None or g.inv_table is None:
        report.add(
            CheckResult(
                "trivialization.equivariance",
                False,
                data={"reason": "group lacks identity or inverses"},
            )
        )
        return report
    phi = b.phi
    # phi(p)·a against phi(p·a) over (p, a)
    framed, moved = _composed(phi, g.table, b.action.flat)
    equiv_witness = first_difference((1, framed, None), (1, moved, None), (b.total_size, g.order))
    report.add(CheckResult("trivialization.equivariance", equiv_witness is None, equiv_witness))

    section_witness = None
    section = []
    for orbit in b.base.orbits:
        s_values = {b.act(p, g.inv(phi[p])) for p in orbit}
        if len(s_values) != 1:
            ps = sorted(orbit)
            section_witness = (ps[0], ps[1] if len(ps) > 1 else ps[0])
        section.append(min(s_values))
    report.add(
        CheckResult(
            "trivialization.section",
            section_witness is None,
            section_witness,
            data={"section": section},
        )
    )
    return report


def section_table(b: BundleSpec) -> list[int]:
    """s(x) = p acted by phi(p)^-1, for any p over x; needs a valid phi."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    g = b.group
    return [b.act(rep, g.inv(b.phi[rep])) for rep in b.base.reps]


def synthesize_trivialization(b: BundleSpec, free: Report) -> list[int]:
    """Build phi from the minimal-point section; the action must be free,
    as `free`, the bundle's `check_freeness` report, shows."""
    g = b.group
    if g.identity is None:
        raise ValueError("group has no identity")
    if not free.passed:
        w = free.first_failure()
        raise ValueError(f"action is not free ({w.describe()})")
    phi = [0] * b.total_size
    for orbit, rep in zip(b.base.orbits, b.base.reps):
        for p in orbit:
            hits = [a for a in range(g.order) if b.act(rep, a) == p]
            if len(hits) != 1:
                raise ValueError(f"point {p} is not reached exactly once from {rep}")
            phi[p] = hits[0]
    return phi


def psi_apply(b: BundleSpec, f_times):
    """Turn a view on B x G, with (x, a) at x·m + a, into one on P via (pi, phi)."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    proj, m = b.base.projection, b.group.order
    return _pulled_back(f_times, [proj[p] * m + a for p, a in enumerate(b.phi)])


def psi_inverse(b: BundleSpec, f):
    """Turn a view on P into one on B x G via the section."""
    m = b.group.order
    return _pulled_back(f, [b.act(s, a) for s in section_table(b) for a in range(m)])


def _pulled_back(view, points: list[int]):
    """The view whose entry k is entry points[k] of `view`, as lists."""
    return gathered(view, lambda part: list(map(part.__getitem__, points)))
