"""Dense exact-valued function tables over products of finite sets.

Every object qpb computes with is a function on a finite set, stored as
the common-denominator int view (d, re, im) of its flat row-major
entries (`views`): plain int lists over one denominator, in lowest
terms.  A function on the total space, on the base or on B x G is its
bare view; the one table type, FormValuedMap, adds a group, points and
a degree, and a universal form is a FormValuedMap over the one-element
group.  `calculus` and `connection` compute with it, and a document
holds it without loading either.  It checks the entry cap before it
reads an input, keeps its view canonical and compares by layout and
view, so equality compares ints, and no table makes a Scalar.  A
kernel that sums tables adds their views with `views.add_views`, and
an entrywise product is `views.mul_views`.  The entry cap makes degree
blowups fail loudly instead of exhausting memory.

The row-major layout is decoded here too: `unravel` turns a flat
position back into its index tuple, and `first_difference` names the
first entry where two views disagree, which is how every check that
compares two tables names its witness; `first_block_difference` takes
two int tables a block of the first axis at a time.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from contextvars import ContextVar, Token
from math import prod

from .views import canonical, gathered, lowest_terms

# only for the annotations: groups imports this module's witness scans
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .groups import FiniteGroup

__all__ = [
    "FormValuedMap",
    "MAX_TABLE_ENTRIES",
    "set_max_table_entries",
    "guard_table_size",
    "TableCapError",
]

# the cap of the current context; a caller that sets it resets it with
# the token set_max_table_entries returns
MAX_TABLE_ENTRIES: ContextVar[int] = ContextVar("MAX_TABLE_ENTRIES", default=10_000_000)


def set_max_table_entries(cap: int) -> Token:
    if cap < 1:
        raise ValueError("entry cap must be positive")
    return MAX_TABLE_ENTRIES.set(cap)


class TableCapError(ValueError):
    """A table of more entries than the current cap."""


def guard_table_size(entries: int) -> None:
    cap = MAX_TABLE_ENTRIES.get()
    if entries > cap:
        raise TableCapError(f"table of {entries} entries exceeds the cap of {cap}")


class FormValuedMap:
    """A linear map from the group function algebra into degree-n forms,
    stored as its density over (point tuple) x (group element), the flat
    row-major table of shape `shape`, as its canonical int view `view`.

    `size` counts the points the forms live on and `degree` fixes the
    tuple length at degree + 1.  Degree 0 holds frame maps and their
    convolution algebra; degree 1 holds connection forms and potentials,
    on the total space or on the base; degree 2 holds curvature.  Over
    the one-element group it is a scalar form, and `star_delta` is the
    product that concatenates point tuples over their shared endpoint.
    """

    __slots__ = ("group", "size", "degree", "shape", "view")

    def __init__(self, group: FiniteGroup, size: int, degree: int, *, view):
        """The entries are given as an int view whose parts may be any
        iterables.  They are read only after the size guard, so a generator
        never runs past the table cap; a view in lowest terms whose parts
        are lists is kept without a copy."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.group = group
        self.size = size
        self.degree = degree
        self.shape = (size,) * (degree + 1) + (group.order,)
        entries = prod(self.shape)
        guard_table_size(entries)
        d, re, im = gathered(view, lambda part: part if isinstance(part, list) else list(part))
        for part in (re,) if im is None else (re, im):
            if len(part) != entries:
                raise ValueError(f"density has {len(part)} entries, expected {entries}")
        self.view = canonical(d, re, im)

    @property
    def values(self) -> list[tuple[int, int, int]]:
        """The entries as canonical triples (a, b, d), made afresh on each
        read.  No check reads them; `bench/layertrace.py` counts a kernel's
        output entries as `len(out.values)` or `len(out.density)`."""
        d, re, im = self.view
        imag = itertools.repeat(0) if im is None else im
        return list(map(lowest_terms, re, imag, itertools.repeat(d)))

    # the density is the table's values, read through the same property
    density = values

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (other.group, other.size, other.degree) == (self.group, self.size, self.degree)
            and self.view == other.view
        )

    @classmethod
    def from_point_table(cls, group: FiniteGroup, table: list[int]) -> FormValuedMap:
        """Degree-0 delta density of a point -> group table."""
        m = group.order
        deltas = (int(a == c) for a in table for c in range(m))
        return cls(group, len(table), 0, view=(1, deltas, None))


def unravel(flat: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The index tuple at a row-major position of a shape."""
    idx = []
    rest = flat
    for n in reversed(shape):
        rest, i = divmod(rest, n)
        idx.append(i)
    if rest:
        raise ValueError(f"position {flat} out of range for shape {shape}")
    return tuple(reversed(idx))


def first_difference(lhs, rhs, shape: tuple[int, ...]) -> tuple[int, ...] | None:
    """The index tuple of the first entry where two int views of a shape
    differ, or None.

    Each side is (d, re, im) whose parts are row-major iterables, im None
    when it is all zeros; two views over different denominators are
    compared cross-multiplied.  The real parts are read up to their first
    difference and the imaginary parts no further than that, so every
    entry before the witness is compared in both parts.
    """
    if lhs == rhs:
        # equal views hold equal values, and lists compare in one C loop
        return None
    (dl, rl, il), (dr, rr, ir) = lhs, rhs
    if dl != dr:
        rl, rr = _scaled(rl, dr), _scaled(rr, dl)
        il, ir = _scaled(il, dr), _scaled(ir, dl)
    flat = _first_ne(rl, rr)
    if il is not None or ir is not None:
        il = itertools.repeat(0) if il is None else il
        ir = itertools.repeat(0) if ir is None else ir
        if flat is not None:
            il, ir = itertools.islice(il, flat), itertools.islice(ir, flat)
        k = _first_ne(il, ir)
        if k is not None:
            flat = k
    return None if flat is None else unravel(flat, shape)


def first_block_difference(blocks, shape: tuple[int, ...]) -> tuple[int, ...] | None:
    """`first_difference` of two int tables of a shape, given as the pairs
    of int lists that `blocks` yields for each index of the first axis in
    turn, so neither side is held whole."""
    for i, (lhs, rhs) in enumerate(blocks):
        witness = first_difference((1, lhs, None), (1, rhs, None), shape[1:])
        if witness is not None:
            return (i, *witness)
    return None


def _first_ne(lhs: Iterable[int], rhs: Iterable[int]) -> int | None:
    # map and compress keep the per-entry loop out of Python bytecode
    return next(itertools.compress(itertools.count(), map(operator.ne, lhs, rhs)), None)


def _scaled(part, k: int):
    if part is None or k == 1:
        return part
    return map(operator.mul, part, itertools.repeat(k))
