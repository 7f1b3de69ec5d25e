"""Scalars in and out of tables, for the tests.

qpb's tables take and give only their int view (d, re, im).  The tests
keep `Scalar` as their reference arithmetic, so they build tables from
Scalars and read entries back as Scalars through this module:
`to_ints` and `from_ints` turn a list of Scalars into a view and back,
`func_of`, `map_of` and `build` make tables, `scalars_of` and
`scalar_at` read them, and `indices` walks a shape in row-major order.
A table is built from Scalars only after the size guard, as the library
reads a view.
"""

from __future__ import annotations

import itertools
from math import lcm, prod
from operator import attrgetter

from qpb.funcs import FormValuedMap, Func, guard_table_size
from qpb.groups import FiniteGroup
from qpb.scalars import ZERO, Scalar, _reduced

_nums, _imags, _dens = attrgetter("_a"), attrgetter("_b"), attrgetter("_d")


def to_ints(values: list[Scalar]) -> tuple[int, list[int], list[int] | None]:
    """The common-denominator view (d, re, im) of a list of Scalars.

    Entry k is (re[k] + im[k]·i)/d with d the lcm of the denominators;
    im is None when every entry is real.
    """
    re = list(map(_nums, values))
    im = list(map(_imags, values)) if any(map(_imags, values)) else None
    dens = set(map(_dens, values))
    if len(dens) <= 1:
        return (dens.pop() if dens else 1), re, im
    d = lcm(*dens)
    scale = [d // e for e in map(_dens, values)]
    re = [a * k for a, k in zip(re, scale)]
    if im is not None:
        im = [b * k for b, k in zip(im, scale)]
    return d, re, im


def from_ints(d: int, re: list[int], im: list[int] | None) -> list[Scalar]:
    """The Scalars of a view: one canonical Scalar per nonzero entry, ZERO
    itself for every zero entry."""
    imag = itertools.repeat(0) if im is None else im
    return [_reduced(a, b, d) if a or b else ZERO for a, b in zip(re, imag)]


def indices(shape: tuple[int, ...]):
    """The index tuples of a shape in row-major order."""
    return itertools.product(*(range(n) for n in shape))


def _view(shape: tuple[int, ...], values):
    guard_table_size(prod(shape))
    return to_ints(values if isinstance(values, list) else list(values))


def func_of(shape: tuple[int, ...], values) -> Func:
    """The Func of shape `shape` whose row-major entries are the Scalars `values`."""
    return Func(shape, view=_view(tuple(shape), values))


def map_of(group: FiniteGroup, size: int, degree: int, values) -> FormValuedMap:
    """The FormValuedMap whose density is the Scalars `values`."""
    shape = (size,) * (degree + 1) + (group.order,)
    return FormValuedMap(group, size, degree, view=_view(shape, values))


def build(group: FiniteGroup, size: int, degree: int, fn) -> FormValuedMap:
    """Density from fn(*points, c), points varying slowest-first."""
    shape = (size,) * (degree + 1) + (group.order,)
    return map_of(group, size, degree, (fn(*idx) for idx in indices(shape)))


def scalars_of(table) -> list[Scalar]:
    """A table's entries as Scalars, row-major."""
    return from_ints(*table.view)


def scalar_at(table, *idx: int) -> Scalar:
    """One entry of a table as a Scalar, through its bounds-checked lookup."""
    k = table.flat_index(idx)
    d, re, im = table.view
    return from_ints(d, re[k : k + 1], im and im[k : k + 1])[0]


def scalar(triple: tuple[int, int, int]) -> Scalar:
    """The Scalar of a canonical triple (a, b, d), as `parse_scalar` gives one."""
    a, b, d = triple
    return from_ints(d, [a], [b])[0]
