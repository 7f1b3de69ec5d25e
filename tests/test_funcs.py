from fractions import Fraction
from math import gcd, prod
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridge import build, func_of, indices, map_of, scalar_at, scalars_of
from conftest import fix_z2
from qpb.connection import star_delta
from qpb.funcs import (
    FormValuedMap,
    Func,
    Table,
    first_difference,
    guard_table_size,
    set_max_table_entries,
    tensor_identify,
    unravel,
)
from qpb.groups import cyclic
from qpb.scalars import ONE, ZERO, Scalar


def test_indicator_and_flat_index():
    f = Func.indicator((2, 3), (1, 2))
    assert scalar_at(f, 1, 2) == ONE
    assert scalar_at(f, 0, 0) == ZERO
    assert sum(1 for v in scalars_of(f) if v) == 1
    assert f.flat_index((1, 2)) == 5


def test_indices_row_major():
    assert list(indices((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_algebra_operations():
    a = func_of((2,), [Scalar(1), Scalar(2)])
    b = func_of((2,), [Scalar(3), Scalar(-1)])
    assert scalars_of(a + b) == [Scalar(4), Scalar(1)]
    assert scalars_of(a - b) == [Scalar(-2), Scalar(3)]
    assert scalars_of(a * b) == [Scalar(3), Scalar(-2)]
    assert scalars_of(-a) == [Scalar(-1), Scalar(-2)]


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        Func.zeros((2,)) + Func.zeros((3,))
    with pytest.raises(ValueError, match="does not match shape"):
        scalar_at(Func.zeros((2, 2)), 1)
    # one checked lookup for every table kind: a degree-1 map over fix_z2
    # has shape (4, 4, 2), a degree-1 form on 2 points shape (2, 2, 1)
    b = fix_z2()
    theta = map_of(b.group, 4, 1, [ZERO] * 32)
    assert theta.shape == (4, 4, 2)
    with pytest.raises(ValueError, match=r"^index \(0, 1\) does not match shape \(4, 4, 2\)$"):
        scalar_at(theta, 0, 1)
    for idx in ((0, 4, 0), (-1, 0, 0), (0, 0, 2)):
        with pytest.raises(ValueError, match="out of range for shape"):
            scalar_at(theta, *idx)
    form = map_of(cyclic(1), 2, 1, [ZERO] * 4)
    assert form.shape == (2, 2, 1)
    with pytest.raises(ValueError, match=r"^index \(0, 3, 0\) out of range for shape \(2, 2, 1\)$"):
        scalar_at(form, 0, 3, 0)


def test_support():
    f = func_of((2, 2), [ZERO, ONE, ZERO, Scalar(-1)])
    assert not f.is_zero()
    assert Func.zeros((3,)).is_zero()


def test_tensor_identify():
    a = func_of((2,), [Scalar(1), Scalar(2)])
    b = func_of((2,), [Scalar(3), Scalar(4)])
    t = tensor_identify(a, b)
    assert t.shape == (2, 2)
    assert scalar_at(t, 1, 0) == Scalar(6)
    assert scalar_at(t, 0, 1) == Scalar(4)


def test_entry_cap_guard():
    import qpb.funcs as funcs

    old = funcs.MAX_TABLE_ENTRIES.get()
    token = set_max_table_entries(10)
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            Func.zeros((11,))
        with pytest.raises(ValueError, match="exceeds the cap"):
            guard_table_size(11)
        guard_table_size(10)
    finally:
        funcs.MAX_TABLE_ENTRIES.reset(token)
    assert funcs.MAX_TABLE_ENTRIES.get() == old


def test_entry_cap_must_be_positive():
    with pytest.raises(ValueError):
        set_max_table_entries(0)


# ---------------------------------------------------------------------------
# the shared table base: Func and FormValuedMap


@pytest.fixture
def cap():
    import qpb.funcs as funcs

    old = funcs.MAX_TABLE_ENTRIES.get()
    yield set_max_table_entries
    funcs.MAX_TABLE_ENTRIES.set(old)


def _unread():
    pytest.fail("values were read before the entry cap was checked")
    yield


def _never(*args):
    pytest.fail("a table builder ran before the entry cap was checked")


def test_cap_checked_before_values_are_read(cap):
    g = cyclic(2)
    cap(8)
    attempts = [
        lambda: Func((3, 3), view=(1, _unread(), None)),
        lambda: FormValuedMap(g, 3, 1, view=(1, _unread(), None)),
        lambda: build(g, 3, 1, _never),
        lambda: Func.zeros((9,)),
        lambda: Func.ones((9,)),
        lambda: star_delta(
            map_of(cyclic(1), 2, 1, [ZERO] * 4), map_of(cyclic(1), 2, 2, [ZERO] * 8)
        ),
        lambda: tensor_identify(func_of((3,), [ONE] * 3), func_of((3,), [ONE] * 3)),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match=r"^table of \d+ entries exceeds the cap of 8$"):
            attempt()


def test_each_table_keeps_its_messages():
    g = cyclic(2)
    with pytest.raises(ValueError, match=r"^got 3 values for shape \(2, 2\) \(need 4\)$"):
        func_of((2, 2), [ONE] * 3)
    with pytest.raises(ValueError, match="^density has 3 entries, expected 8$"):
        map_of(g, 2, 1, [ONE] * 3)
    with pytest.raises(ValueError, match=r"^shape mismatch: \(2,\) vs \(3,\)$"):
        Func.zeros((2,)) - Func.zeros((3,))
    with pytest.raises(ValueError, match="^form-valued maps do not match$"):
        map_of(g, 2, 0, [ZERO] * 4) + map_of(cyclic(4), 1, 0, [ZERO] * 4)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        map_of(g, 3, -1, [ONE, ONE])


def _tables(rng: Random):
    """Pairs of same-layout tables of each kind, many entries zero."""
    pool = [ZERO, ZERO, ZERO, ONE, -ONE, Scalar(Fraction(3, 2)), Scalar(0, 1)]
    g = cyclic(2)
    draw = lambda k: [rng.choice(pool) for _ in range(k)]
    return [
        (func_of((3, 4), draw(12)), func_of((3, 4), draw(12))),
        (map_of(cyclic(1), 3, 1, draw(9)), map_of(cyclic(1), 3, 1, draw(9))),
        (map_of(g, 3, 1, draw(18)), map_of(g, 3, 1, draw(18))),
    ]


def test_zero_skipping_sums_match_plain_pointwise_results():
    rng = Random(5)
    for _ in range(20):
        for a, b in _tables(rng):
            for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
                plain = [op(x, y) for x, y in zip(scalars_of(a), scalars_of(b))]
                assert type(got) is type(a)
                assert got._layout() == a._layout()
                assert scalars_of(got) == plain
                assert [str(v) for v in scalars_of(got)] == [str(v) for v in plain]
            assert scalars_of(-a) == [-x for x in scalars_of(a)]
            assert (a - a).is_zero() and (a + (-a)).is_zero()


def test_equality_is_type_exact():
    values = [ONE, ZERO, ZERO, ONE]
    func = func_of((2, 2, 1), list(values))
    fv = map_of(cyclic(1), 2, 1, list(values))
    assert fv.shape == func.shape
    assert fv != func and func != fv
    assert func == func_of((2, 2, 1), list(values))
    assert fv == map_of(cyclic(1), 2, 1, list(values))
    assert fv != map_of(cyclic(1), 4, 0, list(values))
    # a map's density is its values, read through the same property, one
    # canonical triple (a, b, d) per entry
    assert FormValuedMap.density is Table.values
    assert fv.density == fv.values == [(1, 0, 1), (0, 0, 1), (0, 0, 1), (1, 0, 1)]
    assert scalars_of(fv) == values


def test_a_view_is_kept_without_a_copy():
    re, im = [1, 0], [0, 2]
    assert Func((2,), view=(1, re, None)).view[1] is re
    fv = FormValuedMap(cyclic(2), 1, 0, view=(3, re, im))
    assert fv.view[1] is re and fv.view[2] is im
    assert scalars_of(fv) == [Scalar(Fraction(1, 3)), Scalar(0, Fraction(2, 3))]
    assert fv.values == [(1, 0, 3), (0, 2, 3)]


# ---------------------------------------------------------------------------
# row-major decoding: unravel and first_difference against brute-force scans

PROPERTIES = settings(max_examples=200, deadline=None, database=None, derandomize=True)
VIEW_PROPERTIES = settings(PROPERTIES, max_examples=100)


@st.composite
def _pairs(draw):
    """A shape, a row-major sequence of ints over it, and a copy with some entries changed."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    size = prod(shape)
    lhs = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    changed = draw(st.sets(st.integers(0, size - 1), max_size=3))
    rhs = [v + 1 if k in changed else v for k, v in enumerate(lhs)]
    return shape, lhs, rhs


def _brute_first_difference(shape, lhs, rhs):
    f, g = func_of(shape, lhs), func_of(shape, rhs)
    return next((i for i in indices(shape) if scalar_at(f, *i) != scalar_at(g, *i)), None)


@PROPERTIES
@given(_pairs())
@example(((2, 3), [1] * 6, [1] * 6))  # equal
@example(((2, 3), [1] * 6, [1] * 5 + [0]))  # only the last entry differs
@example(((3, 1, 2), [0] * 6, [0, 0, 1, 0, 1, 1]))  # several, a 1-long axis
def test_first_difference_matches_a_brute_force_scan(case):
    shape, lhs, rhs = case
    expected = _brute_first_difference(shape, [Scalar(v) for v in lhs], [Scalar(v) for v in rhs])
    assert first_difference((1, lhs, None), (1, rhs, None), shape) == expected
    # iterators are read up to the first difference and no further
    left, right = iter(lhs), iter(rhs)
    assert first_difference((1, left, None), (1, right, None), shape) == expected
    stop = len(lhs) if expected is None else Func(shape, view=(1, lhs, None)).flat_index(expected) + 1
    assert list(left) == lhs[stop:]
    assert list(right) == rhs[stop:]


# Scalars with mixed denominators and complex parts, zero often
_part = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6, 7, 10, 2**61 - 1])),
)
_scalar = st.one_of(st.just(ZERO), st.builds(Scalar, _part, st.one_of(st.just(Fraction(0)), _part)))


@st.composite
def _scalar_tables(draw):
    """A shape, possibly with no entries, and two Scalar lists over it, the
    second the first with some entries redrawn; either may be all zeros."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    size = prod(shape)
    draw_list = lambda: draw(
        st.one_of(st.just([ZERO] * size), st.lists(_scalar, min_size=size, max_size=size))
    )
    lhs = draw_list()
    redrawn = draw_list()
    changed = draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=3)) if size else set()
    rhs = [redrawn[k] if k in changed else v for k, v in enumerate(lhs)]
    if draw(st.booleans()):
        rhs = redrawn
    return shape, lhs, rhs


@VIEW_PROPERTIES
@given(_scalar_tables())
@example(((2, 0), [], []))  # empty
@example(((2,), [ZERO, ZERO], [ZERO, ZERO]))  # all zero
@example(((2,), [Scalar(Fraction(1, 6)), ZERO], [Scalar(Fraction(1, 6)), Scalar(Fraction(-1, 10))]))
@example(((1, 2), [Scalar(0, 1), ONE], [Scalar(0, 1), Scalar(1, 1)]))  # only im differs
def test_property_the_view_decides_equality_and_witnesses_and_gives_the_values(case):
    shape, lhs, rhs = case
    a, b = func_of(shape, lhs), func_of(shape, rhs)
    assert (a == b) == (lhs == rhs)
    expected = next((unravel(k, shape) for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
    assert first_difference(a.view, b.view, shape) == expected
    for table, values in ((a, lhs), (b, rhs)):
        assert scalars_of(table) == values
        assert [str(v) for v in scalars_of(table)] == [str(v) for v in values]
        # the view is in lowest terms: equal tables have equal views
        d, re, im = table.view
        assert gcd(d, *re, *(im or [])) == 1
        assert (im is None) == all(not v.im for v in values)
        assert table.is_zero() == (not any(values))


@VIEW_PROPERTIES
@given(_scalar_tables())
@example(((2,), [Scalar(0, 1), Scalar(Fraction(1, 6))], [Scalar(0, 1), Scalar(Fraction(-1, 10), 2)]))
def test_property_view_arithmetic_matches_scalar_arithmetic(case):
    shape, lhs, rhs = case
    a, b = func_of(shape, lhs), func_of(shape, rhs)
    for got, want in (
        (a + b, [x + y for x, y in zip(lhs, rhs)]),
        (a - b, [x - y for x, y in zip(lhs, rhs)]),
        (a * b, [x * y for x, y in zip(lhs, rhs)]),
        (-a, [-x for x in lhs]),
    ):
        assert scalars_of(got) == want
        assert [str(v) for v in scalars_of(got)] == [str(v) for v in want]
        assert got == func_of(shape, want)


@PROPERTIES
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
@example([1, 3, 1])
def test_unravel_inverts_the_row_major_order(dims):
    shape = tuple(dims)
    table = Func.zeros(shape)
    for flat, idx in enumerate(indices(shape)):
        assert unravel(flat, shape) == idx
        assert table.flat_index(idx) == flat
    for flat in (-1, prod(shape)):
        with pytest.raises(ValueError, match="out of range"):
            unravel(flat, shape)
