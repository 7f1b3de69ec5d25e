"""The int-view table kernels against the Scalar loops they replaced.

`differential` (on a form or on every group slice of a map at once),
`star_delta`, the curvature rows and the composites built on them
(`curvature`, `curvature_from_potential`, the frame change in
`connection_from_potential`) read their input once as a
common-denominator int view, loop on ints over nonzero rows only, and
write their result back once.  The references below are the earlier
per-tuple, per-slice and dense loops on `Scalar`s, kept here so every
entry of the kernels, and its printed form, can be compared with them on
seeded inputs.
"""

import tracemalloc
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridge import build, from_ints, map_of, scalars_of, to_ints
from conftest import fix_prod, fix_s3, random_base_potential, random_scalar
from qpb.calculus import differential
from qpb.connection import curvature, curvature_from_potential, star_delta
from qpb.funcs import MAX_TABLE_ENTRIES, FormValuedMap, set_max_table_entries
from qpb.groups import FiniteGroup, cyclic, make_product, symmetric
from qpb.kernels import curvature_rows
from qpb.potentials import connection_from_potential, lift_base_potential
from qpb.scalars import ONE, ZERO, Scalar

GROUPS = {"Z2": cyclic(2), "Z3": cyclic(3), "S3": symmetric(3)}
SIZE = 3
# a universal form is a map over the one-element group
C1 = cyclic(1)


def reference_differential(f: FormValuedMap) -> FormValuedMap:
    """Alternating sum over one omitted argument, one index tuple at a
    time, on a form over the one-element group."""
    assert f.group.order == 1
    values = scalars_of(f)

    def fn(*idx):
        points = idx[:-1]
        acc = ZERO
        sign = 1
        for j in range(len(points)):
            v = values[f.flat_index(points[:j] + points[j + 1 :] + (0,))]
            if v:
                acc = acc + v if sign > 0 else acc - v
            sign = -sign
        return acc

    return build(C1, f.size, f.degree + 1, fn)


def reference_d_slicewise(fv: FormValuedMap) -> FormValuedMap:
    """Differential of every group slice as its own form, interleaved back."""
    m = fv.group.order
    slices = [
        reference_differential(map_of(C1, fv.size, fv.degree, scalars_of(fv)[c::m]))
        for c in range(m)
    ]
    npts = fv.size ** (fv.degree + 2)
    values = [scalars_of(s) for s in slices]
    density = [values[c][t] for t in range(npts) for c in range(m)]
    return map_of(fv.group, fv.size, fv.degree + 1, density)


def reference_star_delta(a_map: FormValuedMap, c_map: FormValuedMap) -> FormValuedMap:
    """Convolution against the coproduct over every entry pair, zeros included."""
    g = a_map.group
    m, size = g.order, a_map.size
    na, nc = a_map.degree, c_map.degree
    out = [ZERO] * (size ** (na + nc + 1) * m)
    a_density, c_density = scalars_of(a_map), scalars_of(c_map)
    c_tail = size**nc
    for ta in range(size ** (na + 1)):
        junction = ta % size
        for tc_rest in range(c_tail):
            cbase = (junction * c_tail + tc_rest) * m
            obase = (ta * c_tail + tc_rest) * m
            for aa in range(m):
                va = a_density[ta * m + aa]
                if not va:
                    continue
                for cc in range(m):
                    vc = c_density[cbase + cc]
                    if vc:
                        k = obase + g.table[aa][cc]
                        out[k] = out[k] + va * vc
    return map_of(g, size, na + nc, out)


def reference_curvature(theta: FormValuedMap) -> FormValuedMap:
    """d(theta) + theta⋆theta, summed entry by entry on Scalars."""
    return reference_d_slicewise(theta) + reference_star_delta(theta, theta)


def phi_maps(b):
    phi = FormValuedMap.from_point_table(b.group, b.phi)
    phi_inv = FormValuedMap.from_point_table(b.group, [b.group.inv(a) for a in b.phi])
    return phi, phi_inv


# complex values whose parts have different denominators; sums of the
# third and fifth cancel their imaginary parts and reduce the real one
MIXED = [
    Scalar(Fraction(2, 3), Fraction(5, 7)),
    Scalar(Fraction(-5, 6), Fraction(1, 4)),
    Scalar(Fraction(1, 6), Fraction(-1, 10)),
    Scalar(0, Fraction(-3, 10)),
    Scalar(Fraction(1, 3), Fraction(1, 10)),
]

# large prime denominators, real and complex, so products keep them apart
PRIMES = [
    Scalar(Fraction(3, 1_000_003)),
    Scalar(Fraction(-2, 998_244_353), Fraction(1, 2**61 - 1)),
    Scalar(0, Fraction(5, 10**9 + 7)),
]


def kernel_scalar(rng: Random) -> Scalar:
    """A pool value or, one draw in three, a mixed-denominator complex one."""
    r = rng.random()
    if r < 0.1:
        return rng.choice(PRIMES)
    return rng.choice(MIXED) if r < 0.4 else random_scalar(rng)


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
    return map_of(group, SIZE, degree, random_rows(rng, SIZE ** (degree + 1), m))


def assert_same_entries(new, ref):
    assert new == ref
    assert [str(v) for v in scalars_of(new)] == [str(v) for v in scalars_of(ref)]


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_differential_matches_per_tuple_reference(degree):
    rng = Random(400 + degree)
    for _ in range(6):
        f = map_of(C1, SIZE, degree, random_rows(rng, SIZE ** (degree + 1), 1))
        df = differential(f)
        assert type(df) is FormValuedMap and df.group == C1
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
        dfv = differential(fv)
        assert isinstance(dfv, FormValuedMap)
        assert (dfv.group, dfv.size, dfv.degree) == (g, SIZE, degree + 1)
        assert_same_entries(dfv, reference_d_slicewise(fv))
        if degree < 2:
            assert differential(dfv).is_zero()
            assert_same_entries(differential(dfv), reference_d_slicewise(dfv))


def test_d_slicewise_of_all_zero_density():
    g = GROUPS["S3"]
    fv = map_of(g, SIZE, 1, [Scalar(0)] * (SIZE**2 * g.order))
    assert_same_entries(differential(fv), reference_d_slicewise(fv))


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
        a = map_of(g, 2, 0, [v, -v, Scalar(0), Scalar(0)])
        c = map_of(g, 2, 0, [w, w, ONE, ZERO])
        out = star_delta(a, c)
        assert_same_entries(out, reference_star_delta(a, c))
        assert out.is_zero()
        assert [str(x) for x in scalars_of(out)] == ["0"] * 4


def test_form_valued_sum_and_difference_with_zero_operands():
    g = GROUPS["Z3"]
    rng = Random(77)
    for _ in range(5):
        a, b = random_map(g, 1, rng), random_map(g, 1, rng)
        expected_sum = [x + y for x, y in zip(scalars_of(a), scalars_of(b))]
        expected_diff = [x - y for x, y in zip(scalars_of(a), scalars_of(b))]
        assert [str(x) for x in scalars_of(a + b)] == [str(x) for x in expected_sum]
        assert scalars_of(a + b) == expected_sum
        assert [str(x) for x in scalars_of(a - b)] == [str(x) for x in expected_diff]
        assert scalars_of(a - b) == expected_diff
        assert (a - a).is_zero()


def test_mixed_denominator_sums_reduce():
    # imaginary parts cancel and the real part 1/6 + 1/3 reduces to 1/2
    g = GROUPS["Z2"]
    a = map_of(g, 1, 0, [MIXED[2], MIXED[3]])
    b = map_of(g, 1, 0, [MIXED[4], -MIXED[3]])
    assert [str(x) for x in scalars_of(a + b)] == ["1/2", "0"]
    assert scalars_of(a + b) == [Scalar(Fraction(1, 2)), ZERO]
    assert hash(scalars_of(a + b)[0]) == hash(Fraction(1, 2))


def test_kernels_on_empty_and_all_zero_tables():
    g = GROUPS["S3"]
    for size in (0, SIZE):
        for degree in (0, 1):
            zero = map_of(g, size, degree, [ZERO] * (size ** (degree + 1) * g.order))
            assert_same_entries(differential(zero), reference_d_slicewise(zero))
            assert_same_entries(star_delta(zero, zero), reference_star_delta(zero, zero))
            assert all(v is ZERO for v in scalars_of(star_delta(zero, zero)))
        form = map_of(C1, size, 1, [ZERO] * size**2)
        assert_same_entries(differential(form), reference_differential(form))
        theta = map_of(g, size, 1, [ZERO] * (size**2 * g.order))
        assert_same_entries(curvature(theta), reference_curvature(theta))
    assert scalars_of(curvature(map_of(g, 0, 1, []))) == []


@pytest.mark.parametrize(
    "left,right",
    [
        # complex times real, real times complex, complex times complex
        (MIXED[0], Scalar(Fraction(-7, 9))),
        (Scalar(Fraction(5, 11)), MIXED[1]),
        (MIXED[0], MIXED[1]),
        (PRIMES[1], PRIMES[2]),
        (Scalar(0, 1), Scalar(0, -1)),
    ],
)
def test_star_delta_complex_and_real_products(left, right):
    g = GROUPS["S3"]
    a = map_of(g, 2, 0, [left, ZERO, right, ZERO, ZERO, left] * 2)
    c = map_of(g, 2, 1, [right, left, ZERO, ZERO, right, ZERO] * 4)
    for x, y in ((a, c), (c, a), (a, a)):
        assert_same_entries(star_delta(x, y), reference_star_delta(x, y))
    # the single product lands on the identity: the entry is left * right exactly
    e = g.identity
    one = FormValuedMap.from_point_table(g, [e])
    prod = star_delta(
        map_of(g, 1, 0, [left if k == e else ZERO for k in range(6)]),
        map_of(g, 1, 0, [right if k == e else ZERO for k in range(6)]),
    )
    assert str(scalars_of(prod)[e]) == str(left * right)
    assert_same_entries(star_delta(one, prod), prod)


def test_mixed_denominators_sixths_next_to_tenths():
    # 1/6 and 1/10 share the view denominator 30; every kernel reduces
    # each entry back to its own denominator
    g = GROUPS["Z2"]
    theta = map_of(
        g,
        2,
        1,
        [ZERO, ZERO, Scalar(Fraction(1, 6)), Scalar(Fraction(-1, 10)),
         Scalar(Fraction(-1, 6)), Scalar(Fraction(1, 10)), ZERO, ZERO],
    )
    assert to_ints(scalars_of(theta))[0] == 30
    assert_same_entries(differential(theta), reference_d_slicewise(theta))
    assert_same_entries(star_delta(theta, theta), reference_star_delta(theta, theta))
    f = curvature(theta)
    assert_same_entries(f, reference_curvature(theta))
    # the curvature's view denominator is 30², yet its entries print reduced
    assert sorted({str(v) for v in scalars_of(f)}) == ["-17/450", "0", "1/30"]


def test_differential_terms_that_cancel():
    # a constant 0-form has d = 0 everywhere; the view gives ZERO itself
    f = map_of(C1, 3, 0, [Scalar(Fraction(2, 7), Fraction(1, 3))] * 3)
    df = differential(f)
    assert_same_entries(df, reference_differential(f))
    assert all(v is ZERO for v in scalars_of(df))


@pytest.mark.parametrize("gname", sorted(GROUPS))
def test_curvature_matches_scalar_reference(gname):
    g = GROUPS[gname]
    rng = Random(f"curv-{gname}")
    for _ in range(4):
        theta = random_map(g, 1, rng)
        f = curvature(theta)
        assert (f.group, f.size, f.degree) == (g, SIZE, 2)
        assert_same_entries(f, reference_curvature(theta))


def rows_concatenated(theta: FormValuedMap) -> FormValuedMap:
    """The map whose entries are `curvature_rows`' rows end to end."""
    d2, blocks = curvature_rows(theta)
    w = theta.size * theta.group.order
    re, im = [], []
    for block_re, block_im in blocks:
        assert len(block_re) == w and (block_im is None) == (theta.view[2] is None)
        re += block_re
        im += [0] * w if block_im is None else block_im
    assert len(re) == theta.size**2 * w
    return FormValuedMap(theta.group, theta.size, 2, view=(d2, re, im))


@pytest.mark.parametrize("bundle", [fix_prod, fix_s3], ids=["fix_prod", "fix_s3"])
def test_curvature_routes_match_scalar_reference_chains(bundle):
    b = bundle()
    phi, phi_inv = phi_maps(b)
    rng = Random(f"chains-{b.name}")
    for _ in range(3):
        base = random_base_potential(b.group, b.base.size, rng)
        gamma = lift_base_potential(base, b)
        expected = reference_star_delta(
            reference_star_delta(phi_inv, reference_curvature(gamma)), phi
        )
        # route 2 on the base potential's points, and on the total space's
        for potential in (base, gamma):
            assert_same_entries(curvature_from_potential(potential, b), expected)
        theta = connection_from_potential(gamma, b)
        frame_change = reference_d_slicewise(phi)
        expected_theta = reference_star_delta(phi_inv, frame_change) + reference_star_delta(
            reference_star_delta(phi_inv, gamma), phi
        )
        assert_same_entries(theta, expected_theta)
        assert_same_entries(curvature(theta), reference_curvature(theta))
        assert_same_entries(rows_concatenated(theta), curvature(theta))
    # a Gaussian theta over mixed denominators, on the same group
    gaussian = random_map(b.group, 1, rng)
    assert gaussian.view[2] is not None
    assert_same_entries(rows_concatenated(gaussian), reference_curvature(gaussian))
    assert_same_entries(rows_concatenated(gaussian), curvature(gaussian))


# tables without two-sided inverses: left multiplication by 0 is not a
# permutation, so several products land on one group element
MONOIDS = {"and": FiniteGroup([[0, 0], [0, 1]]), "null": FiniteGroup([[0, 0], [0, 0]])}


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_curvature_rows_on_tables_without_inverses(name):
    rng = Random(f"monoid-{name}")
    for _ in range(3):
        theta = random_map(MONOIDS[name], 1, rng)
        assert_same_entries(curvature(theta), reference_curvature(theta))
        assert_same_entries(rows_concatenated(theta), reference_curvature(theta))


_ints = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))
_dens = st.one_of(
    st.integers(1, 12), st.integers(1, 10**30), st.sampled_from([2**61 - 1, 10**9 + 7])
)
_parts = st.one_of(st.just(Fraction(0)), st.builds(Fraction, _ints, _dens))
_scalars = st.builds(Scalar, _parts, st.one_of(st.just(Fraction(0)), _parts))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(_scalars, max_size=12))
def test_property_int_view_round_trip(values):
    d, re, im = to_ints(values)
    assert d == lcm(*(v._d for v in values)) if values else d == 1
    assert (im is None) == all(not v.im for v in values)
    imag = im if im is not None else [0] * len(re)
    assert [Scalar(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, imag)] == values
    back = from_ints(d, re, im)
    assert back == values
    assert [str(v) for v in back] == [str(v) for v in values]
    assert all((v is ZERO) == (not v) for v in back)


def test_cap_fires_before_a_kernel_allocates_its_output():
    # a degree-1 map on 80 points over Z2: its curvature has 80³·2 > 10⁶
    # entries, its point tuples 80³ fit under the cap, so only the guard on
    # the full table can stop it, and it must do so before a list of that
    # size (8 MB of pointers) exists
    g = GROUPS["Z2"]
    n = 80
    theta = map_of(g, n, 1, [ZERO] * (n * n * 2))
    # the potential route computes on the 40 base points, 40³·2 entries,
    # and gathers the total-space table only once the guard has passed
    b = make_product(40, g)
    base = map_of(g, 40, 1, [ZERO] * (40 * 40 * 2))
    token = set_max_table_entries(600_000)
    try:
        for work in (
            lambda: curvature(theta),
            lambda: star_delta(theta, theta),
            lambda: differential(theta),
            lambda: curvature_from_potential(base, b),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"^table of 1024000 entries exceeds the cap"):
                    work()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000
    finally:
        MAX_TABLE_ENTRIES.reset(token)
