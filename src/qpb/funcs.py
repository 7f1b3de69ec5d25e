"""Dense exact-valued function tables over products of finite sets.

Every object qpb computes with is a function on a finite set, stored as
a flat row-major list of exact values.  The three table types live
here: Func (a shape), Form (points and degree) and FormValuedMap (group,
points and degree).  `calculus` and `connection` compute with them, and
a document holds them without loading either.  They share one guarded
base, Table: it holds the shape, checks the entry cap before it reads an
input, and owns the bounds-checked lookup, the pointwise sums, negation,
the zero test, the operand check and equality, so each type only states
its layout.  The entry cap makes degree blowups fail loudly instead of
exhausting memory.

The row-major layout is decoded here too: `indices` walks a shape in
order, `unravel` turns a flat position back into its index tuple, and
`first_difference` names the first entry where two row-major sequences
disagree, which is how the density and comodule checks name a witness.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from contextvars import ContextVar, Token
from math import prod

from .groups import FiniteGroup
from .scalars import ONE, ZERO, Scalar

__all__ = [
    "Table",
    "Func",
    "Form",
    "FormValuedMap",
    "MAX_TABLE_ENTRIES",
    "set_max_table_entries",
    "guard_table_size",
    "tensor_identify",
]

# the cap of the current context; a caller that sets it resets it with
# the token set_max_table_entries returns
MAX_TABLE_ENTRIES: ContextVar[int] = ContextVar("MAX_TABLE_ENTRIES", default=10_000_000)


def set_max_table_entries(cap: int) -> Token:
    if cap < 1:
        raise ValueError("entry cap must be positive")
    return MAX_TABLE_ENTRIES.set(cap)


def guard_table_size(entries: int) -> None:
    cap = MAX_TABLE_ENTRIES.get()
    if entries > cap:
        raise ValueError(f"table of {entries} entries exceeds the cap of {cap}")


class Table:
    """A flat row-major table of exact values; a subclass fixes its layout.

    A subclass sets its layout attributes, then calls this constructor
    with the shape they give.  It defines `_layout()`, those attributes in
    its own constructor's order, so a table of the same kind is
    `type(t)(*t._layout(), values)`, and the messages
    `_length_error(got, need)` and `_mismatch_error(other)`.
    """

    __slots__ = ("shape", "values")

    def __init__(self, shape: tuple[int, ...], values: Iterable[Scalar]):
        """The values are read only after the size guard, so a generator
        never runs past the table cap; a list is kept without a copy."""
        self.shape = shape
        entries = prod(shape)
        guard_table_size(entries)
        if not isinstance(values, list):
            values = list(values)
        if len(values) != entries:
            raise ValueError(self._length_error(len(values), entries))
        self.values = values

    def _like(self, values: list[Scalar]):
        """A table of the same kind and layout holding `values`."""
        return type(self)(*self._layout(), values)

    def _check_match(self, other) -> None:
        if type(other) is not type(self) or other._layout() != self._layout():
            raise ValueError(self._mismatch_error(other))

    def __add__(self, other):
        self._check_match(other)
        return self._like(
            [b if not a else a if not b else a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        self._check_match(other)
        return self._like(
            [-b if not a else a if not b else a - b for a, b in zip(self.values, other.values)]
        )

    def __neg__(self):
        return self._like([-a for a in self.values])

    def is_zero(self) -> bool:
        return not any(self.values)

    def flat_index(self, idx: tuple[int, ...]) -> int:
        if len(idx) != len(self.shape):
            raise ValueError(f"index {idx} does not match shape {self.shape}")
        flat = 0
        for i, n in zip(idx, self.shape):
            if not 0 <= i < n:
                raise ValueError(f"index {idx} out of range for shape {self.shape}")
            flat = flat * n + i
        return flat

    def value_at(self, *idx: int) -> Scalar:
        return self.values[self.flat_index(idx)]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other._layout() == self._layout()
            and self.values == other.values
        )


class Func(Table):
    """An exact-valued function on a product of index ranges."""

    __slots__ = ()

    def __init__(self, shape: tuple[int, ...], values: Iterable[Scalar]):
        super().__init__(tuple(shape), values)

    def _layout(self) -> tuple:
        return (self.shape,)

    def _length_error(self, got: int, need: int) -> str:
        return f"got {got} values for shape {self.shape} (need {need})"

    def _mismatch_error(self, other) -> str:
        return f"shape mismatch: {self.shape} vs {other.shape}"

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> Func:
        return cls(shape, itertools.repeat(ZERO, prod(shape)))

    @classmethod
    def ones(cls, shape: tuple[int, ...]) -> Func:
        return cls(shape, itertools.repeat(ONE, prod(shape)))

    @classmethod
    def indicator(cls, shape: tuple[int, ...], idx: tuple[int, ...]) -> Func:
        f = cls.zeros(shape)
        f.values[f.flat_index(idx)] = ONE
        return f

    def __mul__(self, other: Func) -> Func:
        self._check_match(other)
        return self._like([a * b for a, b in zip(self.values, other.values)])

    def __repr__(self):
        return f"Func(shape={self.shape})"


class Form(Table):
    """A degree-n form: exact values on (n+1)-tuples, zero on adjacent repeats."""

    __slots__ = ("size", "degree")

    def __init__(self, size: int, degree: int, values: Iterable[Scalar]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.size = size
        self.degree = degree
        super().__init__((size,) * (degree + 1), values)

    def _layout(self) -> tuple:
        return (self.size, self.degree)

    def _length_error(self, got: int, need: int) -> str:
        return f"got {got} values for a degree-{self.degree} form on {self.size} points"

    def _mismatch_error(self, other) -> str:
        return (
            f"form mismatch: degree {self.degree} on {self.size} points"
            f" vs degree {other.degree} on {other.size}"
        )

    @classmethod
    def build(cls, size: int, degree: int, fn) -> Form:
        shape = (size,) * (degree + 1)
        return cls(size, degree, (fn(idx) for idx in indices(shape)))

    def to_func(self) -> Func:
        return Func(self.shape, list(self.values))

    def __repr__(self):
        return f"Form(size={self.size}, degree={self.degree})"


class FormValuedMap(Table):
    """A linear map from the group function algebra into degree-n forms,
    stored as its density over (point tuple) x (group element).

    `size` counts the points the forms live on and `degree` fixes the
    tuple length at degree + 1.  Degree 0 holds frame maps and their
    convolution algebra; degree 1 holds connection forms and potentials,
    on the total space or on the base; degree 2 holds curvature.
    """

    __slots__ = ("group", "size", "degree")

    # the density is the table's values, read through the same slot
    density = Table.values

    def __init__(
        self, group: FiniteGroup, size: int, degree: int, density: Iterable[Scalar]
    ):
        self.group = group
        self.size = size
        self.degree = degree
        super().__init__((size,) * (degree + 1) + (group.order,), density)

    def _layout(self) -> tuple:
        return (self.group, self.size, self.degree)

    def _length_error(self, got: int, need: int) -> str:
        return f"density has {got} entries, expected {need}"

    def _mismatch_error(self, other) -> str:
        return "form-valued maps do not match"

    @classmethod
    def build(cls, group: FiniteGroup, size: int, degree: int, fn) -> FormValuedMap:
        """Density from fn(*points, c), points varying slowest-first."""
        shape = (size,) * (degree + 1) + (group.order,)
        return cls(group, size, degree, (fn(*idx) for idx in indices(shape)))

    @classmethod
    def from_point_table(cls, group: FiniteGroup, table: list[int]) -> FormValuedMap:
        """Degree-0 delta density of a point -> group table."""
        m = group.order
        return cls(
            group,
            len(table),
            0,
            (ONE if table[p] == c else ZERO for p in range(len(table)) for c in range(m)),
        )

    def apply(self, alpha: Func) -> Form:
        """The form paired with a group-algebra element."""
        m = self.group.order
        if alpha.shape != (m,):
            raise ValueError(f"expected a group table, got shape {alpha.shape}")
        npts = self.size ** (self.degree + 1)
        values = []
        for t in range(npts):
            acc = ZERO
            base = t * m
            for c in range(m):
                d = self.density[base + c]
                v = alpha.values[c]
                if d and v:
                    acc = acc + d * v
            values.append(acc)
        return Form(self.size, self.degree, values)

    def __repr__(self):
        return (
            f"FormValuedMap(size={self.size}, degree={self.degree},"
            f" group_order={self.group.order})"
        )


def indices(shape: tuple[int, ...]):
    return itertools.product(*(range(n) for n in shape))


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


def first_difference(
    lhs: Iterable, rhs: Iterable, shape: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The index tuple of the first entry where two row-major sequences
    of a shape differ, or None; every entry before it is compared, and
    neither side is read past it."""
    # map and compress keep the per-entry loop out of Python bytecode
    flat = next(itertools.compress(itertools.count(), map(operator.ne, lhs, rhs)), None)
    return None if flat is None else unravel(flat, shape)


def tensor_identify(f: Func, g: Func) -> Func:
    """C(X) tensor C(Y) = C(X x Y): the elementary tensor as a table."""
    return Func(f.shape + g.shape, (a * b for a in f.values for b in g.values))
