"""Finite groups as multiplication tables, and right actions on finite sets.

Elements are integer indices into the table.  Construction validates
shape only; the group axioms themselves are checked by validate_group,
which reports witnesses instead of raising.
"""

from __future__ import annotations

import itertools

from .report import CheckResult, Report

__all__ = [
    "FiniteGroup",
    "RightAction",
    "TransitionMap",
    "cyclic",
    "direct_product",
    "symmetric",
    "validate_group",
    "validate_action",
    "fixed_point_witness",
]


class FiniteGroup:
    """A finite group presented by its full multiplication table."""

    def __init__(self, mul_table: list[list[int]], labels: list[str] | None = None):
        n = len(mul_table)
        if n == 0:
            raise ValueError("multiplication table is empty")
        for i, row in enumerate(mul_table):
            if len(row) != n:
                raise ValueError(f"mul table row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError(f"mul table entry out of range at row {i}, column {j}: {v!r}")
        if labels is not None and len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} elements")
        self.order = n
        self.table = [list(row) for row in mul_table]
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

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def validate_group(g: FiniteGroup) -> Report:
    """Check associativity, identity, inverses; witnesses are index tuples."""
    report = Report()
    n = g.order
    assoc_witness = None
    for a in range(n):
        for b in range(n):
            ab = g.table[a][b]
            row_a = g.table[a]
            for c in range(n):
                if g.table[ab][c] != row_a[g.table[b][c]]:
                    assoc_witness = (a, b, c)
                    break
            if assoc_witness:
                break
        if assoc_witness:
            break
    report.add(CheckResult("group.associativity", assoc_witness is None, assoc_witness))

    if g.identity is not None:
        report.add(CheckResult("group.identity", True, data={"identity": g.identity}))
    else:
        # pick the first idempotent as the intended identity for the witness
        cand = next((c for c in range(n) if g.table[c][c] == c), None)
        witness = None
        if cand is not None:
            witness = next(
                (
                    (cand, a)
                    for a in range(n)
                    if g.table[cand][a] != a or g.table[a][cand] != a
                ),
                None,
            )
        report.add(CheckResult("group.identity", False, witness))

    if g.identity is None:
        report.add(CheckResult("group.inverses", False))
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


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
    return FiniteGroup(table, labels)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    table = [
        [
            g1.table[a1][b1] * n2 + g2.table[a2][b2]
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    labels = [
        f"({g1.label(a1)},{g2.label(a2)})" for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteGroup(table, labels)


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
        for p, row in enumerate(act_table):
            if len(row) != group.order:
                raise ValueError(
                    f"action table row {p} has length {len(row)}, expected {group.order}"
                )
            for a, q in enumerate(row):
                if not isinstance(q, int) or not 0 <= q < n:
                    raise ValueError(
                        f"action table entry out of range at row {p}, column {a}: {q!r}"
                    )
        self.group = group
        self.total_size = n
        self.table = [list(row) for row in act_table]

    def __eq__(self, other):
        return (
            isinstance(other, RightAction)
            and self.group == other.group
            and self.table == other.table
        )

    def __repr__(self):
        return f"RightAction(total_size={self.total_size}, group_order={self.group.order})"


class TransitionMap:
    """A group element for every ordered pair of base points."""

    def __init__(self, group: FiniteGroup, table: list[list[int]]):
        nb = len(table)
        for x, row in enumerate(table):
            if len(row) != nb:
                raise ValueError(f"transition row {x} has length {len(row)}, expected {nb}")
            for y, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < group.order:
                    raise ValueError(
                        f"transition entry out of range at ({x}, {y}): {v!r}"
                    )
        self.group = group
        self.base_size = nb
        self.table = [list(row) for row in table]

    def __eq__(self, other):
        return (
            isinstance(other, TransitionMap)
            and self.group == other.group
            and self.table == other.table
        )

    def __repr__(self):
        return f"TransitionMap(base_size={self.base_size})"


def validate_action(action: RightAction) -> Report:
    """Check the unit law, compatibility with multiplication, and freeness."""
    g = action.group
    report = Report()
    if g.identity is None:
        report.add(CheckResult("action.unit", False, data={"reason": "group has no identity"}))
        report.add(CheckResult("action.compatibility", False))
        report.add(CheckResult("action.freeness", False))
        return report
    e = g.identity
    unit_witness = next(
        ((p,) for p in range(action.total_size) if action.table[p][e] != p), None
    )
    report.add(CheckResult("action.unit", unit_witness is None, unit_witness))

    compat_witness = None
    for p in range(action.total_size):
        for a in range(g.order):
            pa = action.table[p][a]
            for b in range(g.order):
                if action.table[pa][b] != action.table[p][g.table[a][b]]:
                    compat_witness = (p, a, b)
                    break
            if compat_witness:
                break
        if compat_witness:
            break
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
