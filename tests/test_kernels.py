"""The sparse strided table kernels against the dense routes they replaced.

`differential`, `FormValuedMap.d_slicewise` and `star_delta` read only
nonzero entries and compute source rows by stride arithmetic.  The
references below are the earlier per-tuple, per-slice and dense loops,
kept here so every entry of the new kernels, and its printed form, can
be compared with them on seeded inputs.
"""

from fractions import Fraction
from random import Random

import pytest

from conftest import random_scalar
from qpb.calculus import Form, differential
from qpb.connection import FormValuedMap, star_delta
from qpb.groups import cyclic, symmetric
from qpb.scalars import ONE, ZERO, Scalar

GROUPS = {"Z2": cyclic(2), "Z3": cyclic(3), "S3": symmetric(3)}
SIZE = 3


def reference_differential(f: Form) -> Form:
    """Alternating sum over one omitted argument, one index tuple at a time."""

    def fn(idx):
        acc = ZERO
        sign = 1
        for j in range(len(idx)):
            v = f.values[f.flat_index(idx[:j] + idx[j + 1 :])]
            if v:
                acc = acc + v if sign > 0 else acc - v
            sign = -sign
        return acc

    return Form.build(f.size, f.degree + 1, fn)


def reference_d_slicewise(fv: FormValuedMap) -> FormValuedMap:
    """Differential of every group slice as its own form, interleaved back."""
    m = fv.group.order
    slices = [reference_differential(fv.slice_form(c)) for c in range(m)]
    npts = fv.size ** (fv.degree + 2)
    density = [slices[c].values[t] for t in range(npts) for c in range(m)]
    return FormValuedMap(fv.group, fv.size, fv.degree + 1, density)


def reference_star_delta(a_map: FormValuedMap, c_map: FormValuedMap) -> FormValuedMap:
    """Convolution against the coproduct over every entry pair, zeros included."""
    g = a_map.group
    m, size = g.order, a_map.size
    na, nc = a_map.degree, c_map.degree
    out = [ZERO] * (size ** (na + nc + 1) * m)
    c_tail = size**nc
    for ta in range(size ** (na + 1)):
        junction = ta % size
        for tc_rest in range(c_tail):
            cbase = (junction * c_tail + tc_rest) * m
            obase = (ta * c_tail + tc_rest) * m
            for aa in range(m):
                va = a_map.density[ta * m + aa]
                if not va:
                    continue
                for cc in range(m):
                    vc = c_map.density[cbase + cc]
                    if vc:
                        k = obase + g.table[aa][cc]
                        out[k] = out[k] + va * vc
    return FormValuedMap(g, size, na + nc, out)


# complex values whose parts have different denominators; sums of the
# third and fifth cancel their imaginary parts and reduce the real one
MIXED = [
    Scalar(Fraction(2, 3), Fraction(5, 7)),
    Scalar(Fraction(-5, 6), Fraction(1, 4)),
    Scalar(Fraction(1, 6), Fraction(-1, 10)),
    Scalar(0, Fraction(-3, 10)),
    Scalar(Fraction(1, 3), Fraction(1, 10)),
]


def kernel_scalar(rng: Random) -> Scalar:
    """A pool value or, one draw in three, a mixed-denominator complex one."""
    return rng.choice(MIXED) if rng.random() < 1 / 3 else random_scalar(rng)


def random_rows(rng: Random, rows: int, width: int) -> list[Scalar]:
    """Pool values, with about a third of the rows left all zero."""
    out = []
    for _ in range(rows):
        if rng.random() < 1 / 3:
            out.extend(Scalar(0) for _ in range(width))
        else:
            out.extend(kernel_scalar(rng) for _ in range(width))
    return out


def random_map(group, degree: int, rng: Random) -> FormValuedMap:
    m = group.order
    return FormValuedMap(group, SIZE, degree, random_rows(rng, SIZE ** (degree + 1), m))


def assert_same_entries(new, ref):
    assert new == ref
    assert [str(v) for v in new.values] == [str(v) for v in ref.values]


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_differential_matches_per_tuple_reference(degree):
    rng = Random(400 + degree)
    for _ in range(6):
        f = Form(SIZE, degree, random_rows(rng, SIZE ** (degree + 1), 1))
        df = differential(f)
        assert isinstance(df, Form)
        assert_same_entries(df, reference_differential(f))
        # d of d cancels to zero in every entry; both routes agree on it
        assert_same_entries(differential(df), reference_differential(df))
        assert differential(df).is_zero()


@pytest.mark.parametrize("gname", sorted(GROUPS))
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_d_slicewise_matches_per_slice_reference(gname, degree):
    g = GROUPS[gname]
    rng = Random(f"d-{gname}-{degree}")
    for _ in range(4):
        fv = random_map(g, degree, rng)
        dfv = fv.d_slicewise()
        assert isinstance(dfv, FormValuedMap)
        assert (dfv.group, dfv.size, dfv.degree) == (g, SIZE, degree + 1)
        assert_same_entries(dfv, reference_d_slicewise(fv))
        if degree < 2:
            assert dfv.d_slicewise().is_zero()
            assert_same_entries(dfv.d_slicewise(), reference_d_slicewise(dfv))


def test_d_slicewise_of_all_zero_density():
    g = GROUPS["S3"]
    fv = FormValuedMap(g, SIZE, 1, [Scalar(0)] * (SIZE**2 * g.order))
    assert_same_entries(fv.d_slicewise(), reference_d_slicewise(fv))


@pytest.mark.parametrize("gname", sorted(GROUPS))
@pytest.mark.parametrize("na,nc", [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_star_delta_matches_dense_reference(gname, na, nc):
    g = GROUPS[gname]
    rng = Random(f"star-{gname}-{na}-{nc}")
    for _ in range(4):
        a, c = random_map(g, na, rng), random_map(g, nc, rng)
        out = star_delta(a, c)
        assert (out.size, out.degree) == (SIZE, na + nc)
        assert_same_entries(out, reference_star_delta(a, c))


def test_star_delta_sums_that_cancel():
    # on Z2 the a row (v, -v) against the c row (w, w) sends v*w and -v*w
    # to the same group element in every output entry
    g = GROUPS["Z2"]
    for v, w in ((Scalar(1, 2), Scalar(3)), (MIXED[0], MIXED[1])):
        a = FormValuedMap(g, 2, 0, [v, -v, Scalar(0), Scalar(0)])
        c = FormValuedMap(g, 2, 0, [w, w, ONE, ZERO])
        out = star_delta(a, c)
        assert_same_entries(out, reference_star_delta(a, c))
        assert out.is_zero()
        assert [str(x) for x in out.density] == ["0"] * 4


def test_form_valued_sum_and_difference_with_zero_operands():
    g = GROUPS["Z3"]
    rng = Random(77)
    for _ in range(5):
        a, b = random_map(g, 1, rng), random_map(g, 1, rng)
        expected_sum = [x + y for x, y in zip(a.density, b.density)]
        expected_diff = [x - y for x, y in zip(a.density, b.density)]
        assert [str(x) for x in (a + b).density] == [str(x) for x in expected_sum]
        assert (a + b).density == expected_sum
        assert [str(x) for x in (a - b).density] == [str(x) for x in expected_diff]
        assert (a - b).density == expected_diff
        assert (a - a).is_zero()


def test_mixed_denominator_sums_reduce():
    # imaginary parts cancel and the real part 1/6 + 1/3 reduces to 1/2
    g = GROUPS["Z2"]
    a = FormValuedMap(g, 1, 0, [MIXED[2], MIXED[3]])
    b = FormValuedMap(g, 1, 0, [MIXED[4], -MIXED[3]])
    assert [str(x) for x in (a + b).density] == ["1/2", "0"]
    assert (a + b).density == [Scalar(Fraction(1, 2)), ZERO]
    assert hash((a + b).density[0]) == hash(Fraction(1, 2))
