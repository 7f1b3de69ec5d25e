from fractions import Fraction
from math import prod
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpb.calculus import concat_product
from qpb.fixtures import fix_z2
from qpb.funcs import (
    Form,
    FormValuedMap,
    Func,
    first_difference,
    guard_table_size,
    indices,
    set_max_table_entries,
    tensor_identify,
    unravel,
)
from qpb.groups import cyclic
from qpb.scalars import ONE, ZERO, Scalar


def test_indicator_and_flat_index():
    f = Func.indicator((2, 3), (1, 2))
    assert f.value_at(1, 2) == ONE
    assert f.value_at(0, 0) == ZERO
    assert sum(1 for v in f.values if v) == 1
    assert f.flat_index((1, 2)) == 5


def test_indices_row_major():
    assert list(indices((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_algebra_operations():
    a = Func((2,), [Scalar(1), Scalar(2)])
    b = Func((2,), [Scalar(3), Scalar(-1)])
    assert (a + b).values == [Scalar(4), Scalar(1)]
    assert (a - b).values == [Scalar(-2), Scalar(3)]
    assert (a * b).values == [Scalar(3), Scalar(-2)]
    assert (-a).values == [Scalar(-1), Scalar(-2)]


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        Func.zeros((2,)) + Func.zeros((3,))
    with pytest.raises(ValueError, match="does not match shape"):
        Func.zeros((2, 2)).value_at(1)
    # one checked lookup for every table kind: a degree-1 map over fix_z2
    # has shape (4, 4, 2), a degree-1 form on 2 points shape (2, 2)
    b = fix_z2()
    theta = FormValuedMap(b.group, 4, 1, [ZERO] * 32)
    assert theta.shape == (4, 4, 2)
    with pytest.raises(ValueError, match=r"^index \(0, 1\) does not match shape \(4, 4, 2\)$"):
        theta.value_at(0, 1)
    for idx in ((0, 4, 0), (-1, 0, 0), (0, 0, 2)):
        with pytest.raises(ValueError, match="out of range for shape"):
            theta.value_at(*idx)
    form = Form(2, 1, [ZERO] * 4)
    assert form.shape == (2, 2)
    with pytest.raises(ValueError, match=r"^index \(0, 3\) out of range for shape \(2, 2\)$"):
        form.value_at(0, 3)


def test_support():
    f = Func((2, 2), [ZERO, ONE, ZERO, Scalar(-1)])
    assert not f.is_zero()
    assert Func.zeros((3,)).is_zero()


def test_tensor_identify():
    a = Func((2,), [Scalar(1), Scalar(2)])
    b = Func((2,), [Scalar(3), Scalar(4)])
    t = tensor_identify(a, b)
    assert t.shape == (2, 2)
    assert t.value_at(1, 0) == Scalar(6)
    assert t.value_at(0, 1) == Scalar(4)


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
# the shared table base: Func, Form and FormValuedMap


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
        lambda: Func((3, 3), _unread()),
        lambda: Form(3, 1, _unread()),
        lambda: FormValuedMap(g, 3, 1, _unread()),
        lambda: Form.build(3, 1, _never),
        lambda: FormValuedMap.build(g, 3, 1, _never),
        lambda: Func.zeros((9,)),
        lambda: Func.ones((9,)),
        lambda: concat_product(Form(2, 1, [ZERO] * 4), Form(2, 2, [ZERO] * 8)),
        lambda: tensor_identify(Func((3,), [ONE] * 3), Func((3,), [ONE] * 3)),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match=r"^table of \d+ entries exceeds the cap of 8$"):
            attempt()


def test_each_table_keeps_its_messages():
    g = cyclic(2)
    with pytest.raises(ValueError, match=r"^got 3 values for shape \(2, 2\) \(need 4\)$"):
        Func((2, 2), [ONE] * 3)
    with pytest.raises(ValueError, match="^got 3 values for a degree-1 form on 2 points$"):
        Form(2, 1, [ONE] * 3)
    with pytest.raises(ValueError, match="^density has 3 entries, expected 8$"):
        FormValuedMap(g, 2, 1, [ONE] * 3)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        Form(2, -1, [])
    with pytest.raises(ValueError, match=r"^shape mismatch: \(2,\) vs \(3,\)$"):
        Func.zeros((2,)) - Func.zeros((3,))
    with pytest.raises(
        ValueError, match="^form mismatch: degree 1 on 2 points vs degree 0 on 4$"
    ):
        Form(2, 1, [ZERO] * 4) + Form(4, 0, [ZERO] * 4)
    with pytest.raises(ValueError, match="^form-valued maps do not match$"):
        FormValuedMap(g, 2, 0, [ZERO] * 4) + FormValuedMap(cyclic(4), 1, 0, [ZERO] * 4)


def _tables(rng: Random):
    """Pairs of same-layout tables of each kind, many entries zero."""
    pool = [ZERO, ZERO, ZERO, ONE, -ONE, Scalar(Fraction(3, 2)), Scalar(0, 1)]
    g = cyclic(2)
    draw = lambda k: [rng.choice(pool) for _ in range(k)]
    return [
        (Func((3, 4), draw(12)), Func((3, 4), draw(12))),
        (Form(3, 1, draw(9)), Form(3, 1, draw(9))),
        (FormValuedMap(g, 3, 1, draw(18)), FormValuedMap(g, 3, 1, draw(18))),
    ]


def test_zero_skipping_sums_match_plain_pointwise_results():
    rng = Random(5)
    for _ in range(20):
        for a, b in _tables(rng):
            for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
                plain = [op(x, y) for x, y in zip(a.values, b.values)]
                assert type(got) is type(a)
                assert got._layout() == a._layout()
                assert got.values == plain
                assert [str(v) for v in got.values] == [str(v) for v in plain]
            assert (-a).values == [-x for x in a.values]
            assert (a - a).is_zero() and (a + (-a)).is_zero()


def test_equality_is_type_exact():
    values = [ONE, ZERO, ZERO, ONE]
    form, func = Form(2, 1, list(values)), Func((2, 2), list(values))
    fv = FormValuedMap(cyclic(1), 2, 1, list(values))
    assert form != func and func != form
    assert fv != form and form != fv
    assert form == Form(2, 1, list(values))
    assert func == Func((2, 2), list(values))
    assert fv == FormValuedMap(cyclic(1), 2, 1, list(values))
    assert fv.density is fv.values


def test_a_list_is_kept_without_a_copy():
    values = [ONE, ZERO]
    assert Func((2,), values).values is values
    assert Form(2, 0, values).values is values
    assert FormValuedMap(cyclic(2), 1, 0, values).density is values


# ---------------------------------------------------------------------------
# row-major decoding: unravel and first_difference against brute-force scans

PROPERTIES = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@st.composite
def _pairs(draw):
    """A shape, a row-major sequence over it, and a copy with some entries changed."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    size = prod(shape)
    lhs = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    changed = draw(st.sets(st.integers(0, size - 1), max_size=3))
    rhs = [v + 1 if k in changed else v for k, v in enumerate(lhs)]
    return shape, [Scalar(v) for v in lhs], [Scalar(v) for v in rhs]


def _brute_first_difference(shape, lhs, rhs):
    f, g = Func(shape, lhs), Func(shape, rhs)
    return next((i for i in indices(shape) if f.value_at(*i) != g.value_at(*i)), None)


@PROPERTIES
@given(_pairs())
@example(((2, 3), [ONE] * 6, [ONE] * 6))  # equal
@example(((2, 3), [ONE] * 6, [ONE] * 5 + [ZERO]))  # only the last entry differs
@example(((3, 1, 2), [ZERO] * 6, [ZERO, ZERO, ONE, ZERO, ONE, ONE]))  # several, a 1-long axis
def test_first_difference_matches_a_brute_force_scan(case):
    shape, lhs, rhs = case
    expected = _brute_first_difference(shape, lhs, rhs)
    assert first_difference(lhs, rhs, shape) == expected
    # iterators are read up to the first difference and no further
    left, right = iter(lhs), iter(rhs)
    assert first_difference(left, right, shape) == expected
    stop = len(lhs) if expected is None else Func(shape, lhs).flat_index(expected) + 1
    assert list(left) == lhs[stop:]
    assert list(right) == rhs[stop:]


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
