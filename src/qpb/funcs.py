"""Dense exact-valued function tables over products of finite sets.

Every object qpb computes with is a function on a finite set, stored as
the common-denominator int view (d, re, im) of its flat row-major
entries (`views`): plain int lists over one denominator, in lowest
terms.  The two table types live here: Func (a shape) and FormValuedMap
(group, points and degree); a universal form is a FormValuedMap over
the one-element group.  `calculus` and `connection` compute with them,
and a document holds them without loading either.  They share one
guarded base, Table: it holds the shape and the view, checks the entry
cap before it reads an input, and owns the bounds-checked lookup, the
pointwise sums, negation, the zero test, the operand check and
equality, so each type only states its layout.  A table is made from a
view and read as one: equality and the zero test compare ints, and no
table makes a Scalar.  The entry cap makes degree blowups fail loudly
instead of exhausting memory.

The row-major layout is decoded here too: `unravel` turns a flat
position back into its index tuple, and `first_difference` names the
first entry where two views disagree, which is how every density and
comodule check names a witness.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from contextvars import ContextVar, Token
from math import prod

from .groups import FiniteGroup
from .views import add_views, canonical, gathered, lowest_terms, mul_views

__all__ = [
    "Table",
    "Func",
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


class Table:
    """A flat row-major table of exact values, stored as its canonical int
    view `view` = (d, re, im); a subclass fixes its layout.

    A subclass sets its layout attributes, then calls this constructor
    with the shape they give.  It defines `_layout()`, those attributes in
    its own constructor's order, so a table of the same kind is
    `type(t)(*t._layout(), view=v)`, and the messages
    `_length_error(got, need)` and `_mismatch_error(other)`.
    """

    __slots__ = ("shape", "view")

    def __init__(self, shape: tuple[int, ...], *, view):
        """The entries are given as an int view whose parts may be any
        iterables.  They are read only after the size guard, so a generator
        never runs past the table cap; a view in lowest terms whose parts
        are lists is kept without a copy."""
        self.shape = shape
        entries = prod(shape)
        guard_table_size(entries)
        d, re, im = gathered(view, lambda part: part if isinstance(part, list) else list(part))
        for part in (re,) if im is None else (re, im):
            if len(part) != entries:
                raise ValueError(self._length_error(len(part), entries))
        self.view = canonical(d, re, im)

    @property
    def values(self) -> list[tuple[int, int, int]]:
        """The entries as canonical triples (a, b, d), made afresh on each
        read.  No check reads them; `bench/layertrace.py` counts a kernel's
        output entries as `len(out.values)` or `len(out.density)`."""
        d, re, im = self.view
        imag = itertools.repeat(0) if im is None else im
        return list(map(lowest_terms, re, imag, itertools.repeat(d)))

    def _like(self, view):
        """A table of the same kind and layout holding `view`."""
        return type(self)(*self._layout(), view=view)

    def _check_match(self, other) -> None:
        if type(other) is not type(self) or other._layout() != self._layout():
            raise ValueError(self._mismatch_error(other))

    def __add__(self, other):
        self._check_match(other)
        return self._like(add_views(self.view, other.view))

    def __sub__(self, other):
        self._check_match(other)
        return self._like(add_views(self.view, other.view, -1))

    def __neg__(self):
        d, re, im = self.view
        return self._like((d, [-a for a in re], None if im is None else [-b for b in im]))

    def is_zero(self) -> bool:
        _d, re, im = self.view
        return im is None and not any(re)

    def flat_index(self, idx: tuple[int, ...]) -> int:
        if len(idx) != len(self.shape):
            raise ValueError(f"index {idx} does not match shape {self.shape}")
        flat = 0
        for i, n in zip(idx, self.shape):
            if not 0 <= i < n:
                raise ValueError(f"index {idx} out of range for shape {self.shape}")
            flat = flat * n + i
        return flat

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other._layout() == self._layout()
            and self.view == other.view
        )


class Func(Table):
    """An exact-valued function on a product of index ranges."""

    __slots__ = ()

    def __init__(self, shape: tuple[int, ...], *, view):
        super().__init__(tuple(shape), view=view)

    def _layout(self) -> tuple:
        return (self.shape,)

    def _length_error(self, got: int, need: int) -> str:
        return f"got {got} values for shape {self.shape} (need {need})"

    def _mismatch_error(self, other) -> str:
        return f"shape mismatch: {self.shape} vs {other.shape}"

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> Func:
        return cls(shape, view=(1, itertools.repeat(0, prod(shape)), None))

    @classmethod
    def ones(cls, shape: tuple[int, ...]) -> Func:
        return cls(shape, view=(1, itertools.repeat(1, prod(shape)), None))

    @classmethod
    def indicator(cls, shape: tuple[int, ...], idx: tuple[int, ...]) -> Func:
        f = cls.zeros(shape)
        # a single 1 over the denominator 1 keeps the view in lowest terms
        f.view[1][f.flat_index(idx)] = 1
        return f

    def __mul__(self, other: Func) -> Func:
        self._check_match(other)
        return self._like(mul_views(self.view, other.view))

    def __repr__(self):
        return f"Func(shape={self.shape})"


class FormValuedMap(Table):
    """A linear map from the group function algebra into degree-n forms,
    stored as its density over (point tuple) x (group element).

    `size` counts the points the forms live on and `degree` fixes the
    tuple length at degree + 1.  Degree 0 holds frame maps and their
    convolution algebra; degree 1 holds connection forms and potentials,
    on the total space or on the base; degree 2 holds curvature.  Over
    the one-element group it is a scalar form, and `star_delta` is the
    product that concatenates point tuples over their shared endpoint.
    """

    __slots__ = ("group", "size", "degree")

    # the density is the table's values, read through the same slot
    density = Table.values

    def __init__(self, group: FiniteGroup, size: int, degree: int, *, view):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.group = group
        self.size = size
        self.degree = degree
        super().__init__((size,) * (degree + 1) + (group.order,), view=view)

    def _layout(self) -> tuple:
        return (self.group, self.size, self.degree)

    def _length_error(self, got: int, need: int) -> str:
        return f"density has {got} entries, expected {need}"

    def _mismatch_error(self, other) -> str:
        return "form-valued maps do not match"

    @classmethod
    def from_point_table(cls, group: FiniteGroup, table: list[int]) -> FormValuedMap:
        """Degree-0 delta density of a point -> group table."""
        m = group.order
        deltas = (int(a == c) for a in table for c in range(m))
        return cls(group, len(table), 0, view=(1, deltas, None))

    def __repr__(self):
        return (
            f"FormValuedMap(size={self.size}, degree={self.degree},"
            f" group_order={self.group.order})"
        )


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


def _first_ne(lhs: Iterable[int], rhs: Iterable[int]) -> int | None:
    # map and compress keep the per-entry loop out of Python bytecode
    return next(itertools.compress(itertools.count(), map(operator.ne, lhs, rhs)), None)


def _scaled(part, k: int):
    if part is None or k == 1:
        return part
    return map(operator.mul, part, itertools.repeat(k))
