"""Gauge transformations: vertical bundle automorphisms over a fixed base.

A gauge map assigns a group element to each base point; the matching
bundle automorphism fixes the base and left-translates each fiber.
Composition and inversion happen at the level of point maps, so the
gauge group laws hold for nonabelian structure groups as well.  The
gauge map itself, `GaugeMap`, is data and lives in `groups`, so parsing
a document that declares one does not load this module.
"""

from __future__ import annotations

from .groups import FiniteGroup, GaugeMap, check_table
from .report import CheckResult, Report

__all__ = [
    "BundleAutomorphism",
    "gauge_compose",
    "gauge_inverse",
    "xi_from_tau",
    "tau_extract",
    "validate_automorphism",
]


def gauge_compose(t1: GaugeMap, t2: GaugeMap) -> GaugeMap:
    """Pointwise product, first factor on the left."""
    _check_same(t1, t2)
    g = t1.group
    return GaugeMap(g, [g.table[a][b] for a, b in zip(t1.table, t2.table)])


def gauge_inverse(t: GaugeMap) -> GaugeMap:
    if t.group.inv_table is None:
        raise ValueError("group has no inverses")
    return GaugeMap(t.group, [t.group.inv_table[a] for a in t.table])


class BundleAutomorphism:
    """A base-fixing point map on B x G: (x, a) -> (x, trans[x][a])."""

    def __init__(self, group: FiniteGroup, trans: list[list[int]]):
        check_table(trans, group.order, group.order, "translation")
        self.group = group
        self.base_size = len(trans)
        self.trans = [list(row) for row in trans]

    def __eq__(self, other):
        return (
            isinstance(other, BundleAutomorphism)
            and self.group == other.group
            and self.trans == other.trans
        )


def validate_automorphism(xi: BundleAutomorphism) -> Report:
    """Per-fiber bijectivity and compatibility with right translation."""
    report = Report()
    g = xi.group
    m = g.order
    bij_witness = None
    for x in range(xi.base_size):
        if len(set(xi.trans[x])) != m:
            bij_witness = (x,)
            break
    report.add(CheckResult("automorphism.bijective", bij_witness is None, bij_witness))

    equiv_witness = next(
        (
            (x, a, c)
            for x in range(xi.base_size)
            for a in range(m)
            for c in range(m)
            if xi.trans[x][g.table[a][c]] != g.table[xi.trans[x][a]][c]
        ),
        None,
    )
    report.add(CheckResult("automorphism.equivariance", equiv_witness is None, equiv_witness))
    return report


def xi_from_tau(tau: GaugeMap) -> BundleAutomorphism:
    """Left-translate each fiber by the gauge value at its base point."""
    g = tau.group
    return BundleAutomorphism(
        g, [[g.table[t][a] for a in range(g.order)] for t in tau.table]
    )


def tau_extract(xi: BundleAutomorphism) -> GaugeMap:
    """Recover the gauge table; reject maps that are not left translations."""
    g = xi.group
    e = g.identity
    if e is None:
        raise ValueError("group has no identity")
    table = [xi.trans[x][e] for x in range(xi.base_size)]
    for x, t in enumerate(table):
        for a in range(g.order):
            if xi.trans[x][a] != g.table[t][a]:
                raise ValueError(
                    f"fiber map at base point {x} is not a left translation"
                    f" (mismatch at fiber coordinate {a})"
                )
    return GaugeMap(g, table)


def _check_same(t1: GaugeMap, t2: GaugeMap) -> None:
    if t1.group != t2.group or t1.base_size != t2.base_size:
        raise ValueError("gauge maps live on different bundles")
