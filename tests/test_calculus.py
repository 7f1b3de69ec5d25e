from random import Random

import pytest

from bridge import (
    build,
    cyclic,
    indices,
    is_zero,
    map_of,
    named,
    plus,
    scalar_at,
    scalars_of,
    validate_form,
)
from conftest import fix_nonfree, fix_prod, fix_s3, fix_z2, random_form, random_scalar
from qpb.calculus import check_exactness, differential, horizontal_basis
from qpb.bundle import check_freeness
from qpb.connection import star_delta
from qpb.groups import BundleSpec, RightAction, make_product, symmetric
from qpb.linalg import span_basis
from qpb.scalars import ONE, ZERO, Scalar

# a universal form is a map over the one-element group; its product, which
# concatenates point tuples over a shared endpoint, is star_delta
C1 = cyclic(1)


def test_differential_degree_zero_hand_values():
    f = map_of(C1, 2, 0, [Scalar(3), Scalar(5)])
    df = differential(f)
    # (df)(p, q) = f(q) - f(p); the last index is the group's one element
    assert scalar_at(df, 0, 1, 0) == Scalar(2)
    assert scalar_at(df, 1, 0, 0) == Scalar(-2)
    assert scalar_at(df, 0, 0, 0) == ZERO


def test_differential_degree_one_hand_values():
    # indicator of the pair (0, 1) on three points
    f = build(C1, 3, 1, lambda p, q, c: ONE if (p, q) == (0, 1) else ZERO)
    df = differential(f)
    # (df)(p,q,r) = f(q,r) - f(p,r) + f(p,q)
    assert scalar_at(df, 2, 0, 1, 0) == ONE
    assert scalar_at(df, 0, 2, 1, 0) == -ONE
    assert scalar_at(df, 0, 1, 2, 0) == ONE
    assert scalar_at(df, 0, 1, 0, 0) == ONE  # f(1,0) - f(0,0) + f(0,1)
    assert validate_form(df).passed


def test_validate_form_catches_adjacent_values():
    f = map_of(C1, 2, 1, [ONE, ZERO, ZERO, ZERO])  # value at (0,0)
    rep = validate_form(f)
    assert not rep.passed
    assert rep.first_failure().witness == (0, 0, 0)


def _first_repeat(form):
    """The old scan: the points of the first nonzero entry on an adjacent
    repeat of a form, in index order."""
    for idx, v in zip(indices(form.shape), scalars_of(form)):
        if v and any(idx[j] == idx[j + 1] for j in range(form.degree)):
            return idx[:-1]
    return None


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_validate_form_on_a_map_matches_the_slice_reading(degree):
    g = cyclic(3)
    rng = Random(degree)
    size = 3
    npts = size ** (degree + 1)
    for _ in range(30):
        # sparse values, so that some maps vanish on repeats and some do not
        density = [
            random_scalar(rng) if rng.random() < 0.05 else ZERO for _ in range(npts * g.order)
        ]
        # a map is read one group slice at a time, in order
        slices = [
            _first_repeat(map_of(C1, size, degree, density[c::3])) for c in range(3)
        ]
        expected = next(((c,) + w for c, w in enumerate(slices) if w is not None), None)
        (check,) = validate_form(map_of(g, size, degree, density)).checks
        assert check.name == "form.adjacent_vanishing"
        assert (check.passed, check.witness) == (expected is None, expected)
        # a form's witness leads with the one group element
        form = map_of(C1, size, degree, density[:npts])
        first = _first_repeat(form)
        assert validate_form(form).checks[0].witness == (None if first is None else (0,) + first)


def test_concat_product_hand_values():
    f = build(C1, 3, 1, lambda p, q, c: ONE if (p, q) == (0, 1) else ZERO)
    g = build(C1, 3, 1, lambda p, q, c: Scalar(2) if (p, q) == (1, 2) else ZERO)
    fg = star_delta(f, g)
    assert fg.degree == 2
    assert scalar_at(fg, 0, 1, 2, 0) == Scalar(2)
    # junction mismatch kills the product
    assert all(
        scalar_at(fg, p, q, r, 0) == ZERO
        for p in range(3)
        for q in range(3)
        for r in range(3)
        if (p, q, r) != (0, 1, 2)
    )


def test_concat_product_degree_zero_is_pointwise():
    f = map_of(C1, 2, 0, [Scalar(2), Scalar(3)])
    g = map_of(C1, 2, 0, [Scalar(5), Scalar(7)])
    assert scalars_of(star_delta(f, g)) == [Scalar(10), Scalar(21)]


@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_d_squared_zero_random(size, degree):
    rng = Random(100 * size + degree)
    for _ in range(5):
        f = random_form(size, degree, rng)
        assert is_zero(differential(differential(f)))


@pytest.mark.parametrize("deg_f,deg_g", [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_graded_leibniz_random(deg_f, deg_g):
    rng = Random(17 + 10 * deg_f + deg_g)
    size = 3
    for _ in range(5):
        f = random_form(size, deg_f, rng)
        g = random_form(size, deg_g, rng)
        lhs = differential(star_delta(f, g))
        rhs = star_delta(differential(f), g)
        second = star_delta(f, differential(g))
        rhs = plus(rhs, second, -1 if deg_f % 2 else 1)
        assert lhs == rhs


def test_concat_associativity_random():
    rng = Random(23)
    size = 3
    for _ in range(5):
        f = random_form(size, 1, rng)
        g = random_form(size, 0, rng)
        h = random_form(size, 1, rng)
        assert star_delta(star_delta(f, g), h) == star_delta(f, star_delta(g, h))


def test_horizontal_basis_dimension():
    assert horizontal_basis(fix_z2()).dim == 8
    assert horizontal_basis(fix_s3()).dim == 0
    assert horizontal_basis(fix_prod()).dim == 18


def _relabelled(b: BundleSpec, perm: list[int]) -> BundleSpec:
    """The same bundle with point p renamed perm[p]."""
    table = [None] * b.total_size
    for p, row in enumerate(b.action.table):
        table[perm[p]] = [perm[q] for q in row]
    return BundleSpec(b.group, RightAction(b.group, table))


@pytest.mark.parametrize(
    "bundle",
    [
        fix_z2(),
        fix_s3(),
        fix_prod(),
        fix_nonfree(),
        make_product(1, symmetric(3)),
        _relabelled(make_product(2, symmetric(3)), [(5 * p + 3) % 12 for p in range(12)]),
    ],
)
def test_horizontal_basis_is_the_reduced_span_of_cross_orbit_indicators(bundle):
    # orbits from the action table, rows in a scrambled order, reduced by rref
    n = bundle.total_size
    orbit = [set(row) for row in bundle.action.table]
    rows = []
    for p in reversed(range(n)):
        for q in range(n):
            if q not in orbit[p]:
                rows.append({p * n + q: ONE})
    expected = span_basis(rows, n * n)
    hor = horizontal_basis(bundle)
    assert hor.equals(expected)
    assert hor.dim == len(rows)


def test_exactness_dimensions():
    expected = {
        "fix-z2": (12, 4, 8, 8),
        "fix-s3": (30, 30, 0, 0),
        "fix-prod": (30, 12, 18, 18),
    }
    for b in (fix_z2(), fix_s3(), fix_prod()):
        rep = check_exactness(b, check_freeness(b))
        assert rep.passed, rep.first_failure()
        dim_omega1 = named(rep, "exactness.surjectivity").data["dim_omega1"]
        rank = named(rep, "exactness.surjectivity").data["rank"]
        kernel = named(rep, "exactness.kernel_equals_horizontal").data["kernel_dim"]
        hor = named(rep, "exactness.kernel_equals_horizontal").data["horizontal_dim"]
        assert (dim_omega1, rank, kernel, hor) == expected[b.name]


def test_exactness_refuses_nonfree():
    b = fix_nonfree()
    rep = check_exactness(b, check_freeness(b))
    assert not rep.passed
    assert rep.first_failure().name == "exactness.freeness_required"


def test_form_shape_guards():
    with pytest.raises(ValueError, match="^density has 3 entries, expected 4$"):
        map_of(C1, 2, 1, [ZERO, ZERO, ZERO])
    with pytest.raises(ValueError, match="different spaces"):
        star_delta(map_of(C1, 2, 1, [ZERO] * 4), map_of(C1, 3, 1, [ZERO] * 9))
