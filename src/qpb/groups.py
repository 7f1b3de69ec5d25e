"""Finite groups as multiplication tables, right actions on finite sets,
and the tables a document builds over them.

Elements are integer indices into the table.  Construction validates
shape only, each index table once by `check_table` or `check_indices`;
the group axioms themselves are checked by validate_group, which
reports witnesses instead of raising.  A bundle (`BundleSpec`,
its `BaseSpace` and `make_product`), a transition map and a gauge map
are data over a group and an action, so they live here too: a parsed
document holds them without loading the checkers of `bundle` and
`gauge`.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .funcs import first_block_difference, first_difference
from .report import CheckResult, Report

__all__ = [
    "IndexTableError",
    "check_table",
    "check_indices",
    "FiniteGroup",
    "RightAction",
    "TransitionMap",
    "BaseSpace",
    "BundleSpec",
    "make_product",
    "GaugeMap",
    "symmetric",
    "validate_group",
    "validate_action",
    "fixed_point_witness",
]


class IndexTableError(ValueError):
    """A malformed index table; `at` locates the bad row as (i,) or the bad
    entry as (i, j), or as (j,) in a flat table."""

    def __init__(self, message: str, at: tuple[int, ...]):
        self.at = at
        super().__init__(f"{message} at " + "".join(f"[{k}]" for k in at))


def check_table(rows, width: int, bound: int, what: str) -> None:
    """Raise unless every row is a list of `width` indices in range(bound),
    rows checked in order, each before its entries."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise IndexTableError(f"{what} row is not a list of {width} indices", (i,))
        j = _first_bad(row, bound)
        if j is not None:
            raise IndexTableError(f"{what} entry {row[j]!r} out of range({bound})", (i, j))


def check_indices(values, bound: int, what: str) -> None:
    """Raise unless every value is an index in range(bound)."""
    j = _first_bad(values, bound)
    if j is not None:
        raise IndexTableError(f"{what} entry {values[j]!r} out of range({bound})", (j,))


def _first_bad(values, bound: int) -> int | None:
    # an index is an int in range, never a bool
    return next(
        (j for j, v in enumerate(values) if type(v) is not int or not 0 <= v < bound), None
    )


class FiniteGroup:
    """A finite group presented by its full multiplication table."""

    def __init__(self, mul_table: list[list[int]], labels: list[str] | None = None):
        n = len(mul_table)
        if n == 0:
            raise ValueError("multiplication table is empty")
        check_table(mul_table, n, n, "mul")
        if labels is not None and len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} elements")
        self.order = n
        self.table = [list(row) for row in mul_table]
        # a·b at a·n + b
        self.flat = [c for row in self.table for c in row]
        self.labels = list(labels) if labels is not None else None
        self.identity = self._find_identity()
        self.inv_table = self._find_inverses()

    def _find_identity(self) -> int | None:
        for c in range(self.order):
            if all(self.table[c][a] == a and self.table[a][c] == a for a in range(self.order)):
                return c
        return None

    def _find_inverses(self) -> list[int] | None:
        if self.identity is None:
            return None
        e = self.identity
        inv = []
        for a in range(self.order):
            b = next(
                (b for b in range(self.order) if self.table[a][b] == e and self.table[b][a] == e),
                None,
            )
            if b is None:
                return None
            inv.append(b)
        return inv

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        if self.inv_table is None:
            raise ValueError("table has no two-sided inverses")
        return self.inv_table[a]

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b."""
        return self.mul(self.mul(self.inv(b), a), b)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table


def _composed(row: list[int], table: list[list[int]], flat: list[int]):
    """The rows of `table` at the entries of `row`, end to end, and `row`
    read at each entry of `flat`: the two sides of an associativity law
    at one row, as int lists."""
    rows = itertools.chain.from_iterable(map(table.__getitem__, row))
    return list(rows), list(map(row.__getitem__, flat))


def validate_group(g: FiniteGroup) -> Report:
    """Check associativity, identity, inverses; witnesses are index tuples."""
    report = Report()
    n = g.order
    # (ab)c against a(bc) over (a, b, c)
    blocks = (_composed(row, g.table, g.flat) for row in g.table)
    assoc_witness = first_block_difference(blocks, (n, n, n))
    report.add(CheckResult("group.associativity", assoc_witness is None, assoc_witness))

    if g.identity is not None:
        report.add(CheckResult("group.identity", True, data={"identity": g.identity}))
    else:
        # the first idempotent is the intended identity; being no identity,
        # it fails the unit law at some element
        cand = next((c for c in range(n) if g.table[c][c] == c), None)
        if cand is None:
            report.add(
                CheckResult("group.identity", False, data={"reason": "no idempotent element"})
            )
        else:
            witness = next(
                (cand, a) for a in range(n) if g.table[cand][a] != a or g.table[a][cand] != a
            )
            report.add(CheckResult("group.identity", False, witness))

    if g.identity is None:
        report.add(CheckResult("group.inverses", False, data={"reason": "group has no identity"}))
    elif g.inv_table is not None:
        report.add(CheckResult("group.inverses", True))
    else:
        e = g.identity
        witness = next(
            (
                (a,)
                for a in range(n)
                if not any(g.table[a][b] == e and g.table[b][a] == e for b in range(n))
            ),
            None,
        )
        report.add(CheckResult("group.inverses", False, witness))
    return report


def symmetric(n: int) -> FiniteGroup:
    """Permutations of range(n) in lexicographic order; a*b applies a, then b."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(b[a[i]] for i in range(n))] for b in perms]
        for a in perms
    ]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels)


class RightAction:
    """A right action of a finite group on {0, ..., total_size-1}."""

    def __init__(self, group: FiniteGroup, act_table: list[list[int]]):
        n = len(act_table)
        if n == 0:
            raise ValueError("action table is empty")
        check_table(act_table, group.order, n, "act")
        self.group = group
        self.total_size = n
        self.table = [list(row) for row in act_table]
        # p acted by a at p·m + a, gathered by every coaction
        self.flat = [q for row in self.table for q in row]

    @cached_property
    def base(self) -> BaseSpace:
        """The orbit space, scanned once for every bundle over this action."""
        return BaseSpace(self)


class TransitionMap:
    """A group element for every ordered pair of base points."""

    def __init__(self, group: FiniteGroup, table: list[list[int]]):
        nb = len(table)
        check_table(table, nb, group.order, "transition")
        self.group = group
        self.base_size = nb
        self.table = [list(row) for row in table]


class BaseSpace:
    """Orbit space of the action: orbits ordered by their minimal point."""

    def __init__(self, action: RightAction):
        n = action.total_size
        seen = [False] * n
        orbits: list[list[int]] = []
        for p in range(n):
            if seen[p]:
                continue
            orbit = sorted({action.table[p][a] for a in range(action.group.order)})
            for q in orbit:
                seen[q] = True
            orbits.append(orbit)
        self.orbits = orbits
        self.size = len(orbits)
        self.reps = [orbit[0] for orbit in orbits]
        self.projection = [0] * n
        for x, orbit in enumerate(orbits):
            for q in orbit:
                self.projection[q] = x


class BundleSpec:
    """A right action plus an optional trivialization table phi: P -> G."""

    def __init__(
        self,
        group: FiniteGroup,
        action: RightAction,
        phi: list[int] | None = None,
        name: str | None = None,
    ):
        if action.group is not group and action.group != group:
            raise ValueError("action group differs from the given group")
        if phi is not None:
            if len(phi) != action.total_size:
                raise ValueError(
                    f"phi has {len(phi)} entries for {action.total_size} points"
                )
            check_indices(phi, group.order, "phi")
        self.group = group
        self.action = action
        self.total_size = action.total_size
        self.phi = list(phi) if phi is not None else None
        self.name = name
        self.base = action.base

    def act(self, p: int, a: int) -> int:
        return self.action.table[p][a]

    def with_phi(self, phi: list[int]) -> BundleSpec:
        return BundleSpec(self.group, self.action, phi, self.name)


def make_product(base_size: int, group: FiniteGroup) -> BundleSpec:
    """The product bundle B x G with right translation and canonical phi."""
    if base_size < 1:
        raise ValueError("base size must be positive")
    m = group.order
    table = [
        [x * m + group.table[a][b] for b in range(m)]
        for x in range(base_size)
        for a in range(m)
    ]
    action = RightAction(group, table)
    phi = [a for _x in range(base_size) for a in range(m)]
    return BundleSpec(group, action, phi)


class GaugeMap:
    """A table of group elements indexed by base points."""

    def __init__(self, group: FiniteGroup, table: list[int]):
        check_indices(table, group.order, "tau_hat")
        self.group = group
        self.base_size = len(table)
        self.table = list(table)


def validate_action(action: RightAction) -> Report:
    """Check the unit law, compatibility with multiplication, and freeness."""
    g = action.group
    report = Report()
    if g.identity is None:
        for name in ("action.unit", "action.compatibility", "action.freeness"):
            report.add(CheckResult(name, False, data={"reason": "group has no identity"}))
        return report
    e, n = g.identity, action.total_size
    acted = [row[e] for row in action.table]
    unit_witness = first_difference((1, acted, None), (1, list(range(n)), None), (n,))
    report.add(CheckResult("action.unit", unit_witness is None, unit_witness))

    # (p·a)·b against p·(ab) over (p, a, b)
    blocks = (_composed(row, action.table, g.flat) for row in action.table)
    compat_witness = first_block_difference(blocks, (n, g.order, g.order))
    report.add(CheckResult("action.compatibility", compat_witness is None, compat_witness))

    free_witness = fixed_point_witness(action)
    report.add(CheckResult("action.freeness", free_witness is None, free_witness))
    return report


def fixed_point_witness(action: RightAction) -> tuple[int, int] | None:
    """The first (point, group element != identity) that fixes the point,
    points varying slowest; None for a free action.  The group must have
    an identity."""
    e = action.group.identity
    return next(
        (
            (p, a)
            for p, row in enumerate(action.table)
            for a, q in enumerate(row)
            if a != e and q == p
        ),
        None,
    )
