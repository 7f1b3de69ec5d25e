"""Dense exact-valued function tables over products of finite sets.

A Func of shape (n1, ..., nk) is the algebra element assigning a Scalar
to every index tuple; the algebra operations are pointwise.  Tables are
flat row-major lists, guarded by a configurable entry cap so degree
blowups fail loudly instead of exhausting memory.
"""

from __future__ import annotations

import itertools
from math import prod

from .scalars import ONE, ZERO, Scalar

__all__ = [
    "Func",
    "MAX_TABLE_ENTRIES",
    "set_max_table_entries",
    "guard_table_size",
    "tensor_identify",
]

MAX_TABLE_ENTRIES = 10_000_000


def set_max_table_entries(cap: int) -> None:
    global MAX_TABLE_ENTRIES
    if cap < 1:
        raise ValueError("entry cap must be positive")
    MAX_TABLE_ENTRIES = cap


def guard_table_size(entries: int) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"table of {entries} entries exceeds the cap of {MAX_TABLE_ENTRIES}"
        )


class Func:
    """An exact-valued function on a product of index ranges."""

    __slots__ = ("shape", "values")

    def __init__(self, shape: tuple[int, ...], values: list[Scalar]):
        size = prod(shape)
        guard_table_size(size)
        if len(values) != size:
            raise ValueError(f"got {len(values)} values for shape {shape} (need {size})")
        self.shape = tuple(shape)
        self.values = values

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> Func:
        guard_table_size(prod(shape))
        return cls(shape, [ZERO] * prod(shape))

    @classmethod
    def ones(cls, shape: tuple[int, ...]) -> Func:
        guard_table_size(prod(shape))
        return cls(shape, [ONE] * prod(shape))

    @classmethod
    def indicator(cls, shape: tuple[int, ...], idx: tuple[int, ...]) -> Func:
        f = cls.zeros(shape)
        f.values[f.flat_index(idx)] = ONE
        return f

    @classmethod
    def build(cls, shape: tuple[int, ...], fn) -> Func:
        guard_table_size(prod(shape))
        return cls(shape, [fn(idx) for idx in indices(shape)])

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

    def __add__(self, other: Func) -> Func:
        self._check_shape(other)
        return Func(self.shape, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: Func) -> Func:
        self._check_shape(other)
        return Func(self.shape, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> Func:
        return Func(self.shape, [-a for a in self.values])

    def __mul__(self, other: Func) -> Func:
        self._check_shape(other)
        return Func(self.shape, [a * b for a, b in zip(self.values, other.values)])

    def scale(self, s: Scalar) -> Func:
        return Func(self.shape, [s * a for a in self.values])

    def is_zero(self) -> bool:
        return not any(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Func)
            and self.shape == other.shape
            and self.values == other.values
        )

    def support(self) -> list[tuple[int, ...]]:
        return [idx for idx, v in zip(indices(self.shape), self.values) if v]

    def _check_shape(self, other: Func) -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __repr__(self):
        return f"Func(shape={self.shape})"


def indices(shape: tuple[int, ...]):
    return itertools.product(*(range(n) for n in shape))


def tensor_identify(f: Func, g: Func) -> Func:
    """C(X) tensor C(Y) = C(X x Y): the elementary tensor as a table."""
    guard_table_size(prod(f.shape) * prod(g.shape))
    values = [a * b for a in f.values for b in g.values]
    return Func(f.shape + g.shape, values)
