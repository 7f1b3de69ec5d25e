"""Finite total spaces carrying a free group action: the bundle layer.

The total space is {0, ..., N-1} with a right action of a finite group;
the base is the orbit set.  The coaction dualizes the action, the
canonical map decides freeness by an exact rank, and trivializations
(when present) give the product picture through psi and the section.
The bundle itself, `BundleSpec` with its `BaseSpace`, is data and lives
in `groups`, so parsing a document or dumping a curvature never loads
this module; densities over the bundle, frame maps included, live in
the connection layer.  The functions that reach `linalg` or build its
`Scalar` rows import `linalg` and `scalars` themselves, so a check that
builds no matrix loads neither.
"""

from __future__ import annotations

from .funcs import Func, first_difference
from .groups import BundleSpec, fixed_point_witness
from .report import CheckResult, Report
from .views import gathered, take

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


def coaction(b: BundleSpec, f: Func) -> Func:
    """[coaction(f)](p, a) = f(p acted by a), a table on P x G."""
    _check_total(b, f)
    points = [q for row in b.action.table for q in row]
    return Func((b.total_size, b.group.order), view=gathered(f.view, take(points)))


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
    indicators = [Func.indicator((n,), (q,)) for q in range(n)]
    coactions = [coaction(b, f) for f in indicators]

    # t(p.a, c) against t(p, ac) over (p, a, c), t the coaction of an
    # indicator, as flat gathers of t's (point, group element) rows
    act, mul = b.action.table, g.table
    moved = take([x * m + c for row in act for x in row for c in range(m)])
    multiplied = take([p * m + ac for p in range(n) for row in mul for ac in row])
    coassoc_witness = None
    for tq in coactions:
        lhs = Func((n, m, m), view=gathered(tq.view, moved))
        rhs = Func((n, m, m), view=gathered(tq.view, multiplied))
        coassoc_witness = first_difference(lhs.view, rhs.view, lhs.shape)
        if coassoc_witness is not None:
            break
    report.add(CheckResult("comodule.coassociativity", coassoc_witness is None, coassoc_witness))

    counit_witness = None
    for f, tq in zip(indicators, coactions):
        # the coaction at the identity: every row's entry e
        at_identity = gathered(tq.view, lambda part: part[e::m])
        counit_witness = first_difference(at_identity, f.view, f.shape)
        if counit_witness is not None:
            break
    report.add(CheckResult("comodule.counit", counit_witness is None, counit_witness))

    mult_witness = None
    for fq, tq in zip(indicators, coactions):
        for fr, tr in zip(indicators, coactions):
            lhs = coaction(b, fq * fr)
            mult_witness = first_difference(lhs.view, (tq * tr).view, lhs.shape)
            if mult_witness is not None:
                break
        if mult_witness is not None:
            break
    report.add(CheckResult("comodule.multiplicativity", mult_witness is None, mult_witness))

    unit_ok = coaction(b, Func.ones((n,))) == Func.ones((n, m))
    report.add(CheckResult("comodule.unit", unit_ok))
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


def inject_base(b: BundleSpec, h: Func) -> Func:
    """Pull a function on the base back to the total space along the projection."""
    if h.shape != (b.base.size,):
        raise ValueError(f"expected a table on the base of size {b.base.size}, got {h.shape}")
    return Func((b.total_size,), view=gathered(h.view, take(b.base.projection)))


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
    equiv_witness = next(
        (
            (p, a)
            for p in range(b.total_size)
            for a in range(g.order)
            if phi[b.act(p, a)] != g.table[phi[p]][a]
        ),
        None,
    )
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


def psi_apply(b: BundleSpec, f_times: Func) -> Func:
    """Turn a table on B x G into one on P via (pi, phi)."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if f_times.shape != (b.base.size, b.group.order):
        raise ValueError(
            f"expected a table on B x G of shape {(b.base.size, b.group.order)}, got {f_times.shape}"
        )
    proj, m = b.base.projection, b.group.order
    positions = [proj[p] * m + a for p, a in enumerate(b.phi)]
    return Func((b.total_size,), view=gathered(f_times.view, take(positions)))


def psi_inverse(b: BundleSpec, f: Func) -> Func:
    """Turn a table on P into one on B x G via the section."""
    _check_total(b, f)
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    sec = section_table(b)
    points = [b.act(s, a) for s in sec for a in range(b.group.order)]
    return Func((b.base.size, b.group.order), view=gathered(f.view, take(points)))


def _check_total(b: BundleSpec, f: Func) -> None:
    if f.shape != (b.total_size,):
        raise ValueError(
            f"expected a table on the total space of size {b.total_size}, got shape {f.shape}"
        )
