from fractions import Fraction
from math import gcd, prod
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridge import (
    build,
    cyclic,
    indices,
    is_zero,
    map_of,
    parts,
    plus,
    scalars_of,
    tensor_identify,
    view_of,
)
from conftest import fix_z2
from qpb.connection import star_delta
from qpb.funcs import (
    FormValuedMap,
    first_difference,
    guard_table_size,
    set_max_table_entries,
    unravel,
)
from qpb.scalars import ONE, ZERO, Scalar
from qpb.views import canonical, mul_views


def test_indices_row_major():
    assert list(indices((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_algebra_operations():
    a = view_of([Scalar(1), Scalar(2)])
    b = view_of([Scalar(3), Scalar(-1)])
    assert scalars_of(plus(a, b)) == [Scalar(4), Scalar(1)]
    assert scalars_of(plus(a, b, -1)) == [Scalar(-2), Scalar(3)]
    assert scalars_of(mul_views(a, b)) == [Scalar(3), Scalar(-2)]


def test_support():
    f = view_of([ZERO, ONE, ZERO, Scalar(-1)])
    assert not is_zero(f)
    assert is_zero(view_of([ZERO] * 3))
    assert is_zero(map_of(cyclic(1), 3, 0, [ZERO] * 3))


def test_tensor_identify():
    a = view_of([Scalar(1), Scalar(2)])
    b = view_of([Scalar(3), Scalar(4)])
    # entry (x, y) of the tensor on X x Y is at x·2 + y
    t = scalars_of(tensor_identify(a, b))
    assert len(t) == 4
    assert t[1 * 2 + 0] == Scalar(6)
    assert t[0 * 2 + 1] == Scalar(4)


def test_entry_cap_guard():
    import qpb.funcs as funcs

    old = funcs.MAX_TABLE_ENTRIES.get()
    token = set_max_table_entries(10)
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            FormValuedMap(cyclic(1), 11, 0, view=(1, [0] * 11, None))
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
# the one table type, FormValuedMap


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
        lambda: FormValuedMap(cyclic(1), 3, 1, view=(1, _unread(), None)),
        lambda: FormValuedMap(g, 3, 1, view=(1, _unread(), None)),
        lambda: build(g, 3, 1, _never),
        lambda: star_delta(
            map_of(cyclic(1), 2, 1, [ZERO] * 4), map_of(cyclic(1), 2, 2, [ZERO] * 8)
        ),
        lambda: tensor_identify(view_of([ONE] * 3), view_of([ONE] * 3)),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match=r"^table of \d+ entries exceeds the cap of 8$"):
            attempt()


def test_each_table_keeps_its_messages():
    g = cyclic(2)
    with pytest.raises(ValueError, match="^density has 3 entries, expected 8$"):
        map_of(g, 2, 1, [ONE] * 3)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        map_of(g, 3, -1, [ONE, ONE])


def _tables(rng: Random):
    """Pairs of same-layout tables, many entries zero."""
    pool = [ZERO, ZERO, ZERO, ONE, -ONE, Scalar(Fraction(3, 2)), Scalar(0, 1)]
    g = cyclic(2)
    draw = lambda k: [rng.choice(pool) for _ in range(k)]
    return [
        (map_of(cyclic(1), 3, 1, draw(9)), map_of(cyclic(1), 3, 1, draw(9))),
        (map_of(g, 3, 1, draw(18)), map_of(g, 3, 1, draw(18))),
    ]


def test_zero_skipping_sums_match_plain_pointwise_results():
    rng = Random(5)
    for _ in range(20):
        for a, b in _tables(rng):
            for sign in (1, -1):
                got = plus(a, b, sign)
                plain = [x + sign * y for x, y in zip(scalars_of(a), scalars_of(b))]
                assert type(got) is type(a)
                assert (got.group, got.size, got.degree) == (a.group, a.size, a.degree)
                assert scalars_of(got) == plain
                assert [str(v) for v in scalars_of(got)] == [str(v) for v in plain]
            assert is_zero(plus(a, a, -1))


def test_equality_is_type_exact():
    values = [ONE, ZERO, ZERO, ONE]
    fv = map_of(cyclic(1), 2, 1, list(values))
    # a degree-1 form on 2 points has shape (2, 2, 1), a degree-1 map
    # over fix_z2's group on its 4 points (4, 4, 2)
    assert fv.shape == (2, 2, 1)
    assert map_of(fix_z2().group, 4, 1, [ZERO] * 32).shape == (4, 4, 2)
    # a map never equals its own view, nor a map of another layout
    assert fv != fv.view and fv.view != fv
    assert fv == map_of(cyclic(1), 2, 1, list(values))
    assert fv != map_of(cyclic(1), 4, 0, list(values))
    # a map's density is its values, read through the same property, one
    # canonical triple (a, b, d) per entry
    assert FormValuedMap.density is FormValuedMap.values
    assert fv.density == fv.values == [(1, 0, 1), (0, 0, 1), (0, 0, 1), (1, 0, 1)]
    assert scalars_of(fv) == values


def test_a_view_is_kept_without_a_copy():
    re, im = [1, 0], [0, 2]
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
    return next((i for i, x, y in zip(indices(shape), lhs, rhs) if x != y), None)


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
    stop = len(lhs) if expected is None else list(indices(shape)).index(expected) + 1
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
    # the entries as a degree-0 map over the one-element group
    a, b = (map_of(cyclic(1), len(values), 0, values) for values in (lhs, rhs))
    assert (a == b) == (lhs == rhs)
    expected = next((unravel(k, shape) for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
    assert first_difference(a.view, b.view, shape) == expected
    for table, values in ((a, lhs), (b, rhs)):
        assert scalars_of(table) == values
        assert [str(v) for v in scalars_of(table)] == [str(v) for v in values]
        # the view is in lowest terms: equal tables have equal views
        d, re, im = table.view
        assert gcd(d, *re, *(im or [])) == 1
        assert (im is None) == all(not parts(v)[1] for v in values)
        assert is_zero(table) == (not any(values))


@VIEW_PROPERTIES
@given(_scalar_tables())
@example(((2,), [Scalar(0, 1), Scalar(Fraction(1, 6))], [Scalar(0, 1), Scalar(Fraction(-1, 10), 2)]))
def test_property_view_arithmetic_matches_scalar_arithmetic(case):
    shape, lhs, rhs = case
    a, b = view_of(lhs), view_of(rhs)
    for got, want in (
        (plus(a, b), [x + y for x, y in zip(lhs, rhs)]),
        (plus(a, b, -1), [x - y for x, y in zip(lhs, rhs)]),
        (mul_views(a, b), [x * y for x, y in zip(lhs, rhs)]),
    ):
        assert scalars_of(got) == want
        assert [str(v) for v in scalars_of(got)] == [str(v) for v in want]
        assert canonical(*got) == view_of(want)


@PROPERTIES
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
@example([1, 3, 1])
def test_unravel_inverts_the_row_major_order(dims):
    shape = tuple(dims)
    for flat, idx in enumerate(indices(shape)):
        assert unravel(flat, shape) == idx
    for flat in (-1, prod(shape)):
        with pytest.raises(ValueError, match="out of range"):
            unravel(flat, shape)
