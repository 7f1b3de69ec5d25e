"""Connection forms, potentials, splittings, curvature, gauge action."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridge import build, func_of, map_of, scalar_at, scalars_of, to_ints
from conftest import (
    all_gauge_maps,
    all_transition_maps,
    fix_nonfree,
    fix_prod,
    fix_s3,
    fix_z2,
    random_base_potential,
    random_scalar,
)
from qpb import connection
from qpb.calculus import differential, restricted_canonical_matrix
from qpb.connection import (
    Splitting,
    curvature,
    curvature_classical,
    curvature_from_potential,
    splitting_from_theta,
    star_delta,
    theta_from_splitting,
    validate_connection_form,
    validate_splitting,
)
from qpb.document import parse_spec
from qpb.funcs import FormValuedMap, Func
from qpb.gauge import gauge_compose, gauge_inverse
from qpb.groups import (
    BundleSpec,
    GaugeMap,
    RightAction,
    TransitionMap,
    cyclic,
    make_product,
    symmetric,
)
from qpb.potentials import (
    classical_connection,
    connection_from_potential,
    gauge_transform_base_potential,
    gauge_transform_potential,
    gauge_transform_transition,
    is_cocycle,
    lift_base_potential,
    potential_from_transition,
    strong_connection_direct,
    trivial_connection,
    validate_base_potential,
    validate_potential,
    validate_transition,
)
from qpb.runner import rejection, run_checks
from qpb.scalars import ONE, ZERO, Scalar
from test_golden import S3X2

FRAMED = [fix_z2, fix_s3, fix_prod]

FORM_CHECKS = [
    "connection.vanishing_on_diagonal",
    "connection.unit_normalization",
    "connection.splitting_property",
    "connection.ad_covariance",
]


def S(x):
    return Scalar(Fraction(x))


def zero_base_potential(group, base_size):
    return build(group, base_size, 1, lambda x, y, c: ZERO)


# ---------------------------------------------------------------------------
# form-valued maps and the convolution product


def test_from_point_table_and_apply():
    b = fix_z2()
    g = b.group
    fv = FormValuedMap.from_point_table(g, b.phi)
    assert fv.degree == 0 and fv.size == 4
    assert scalar_at(fv, 2, 1) == ONE
    assert scalar_at(fv, 2, 0) == ZERO
    assert scalars_of(fv)[1::2] == [ZERO, ZERO, ONE, ONE]
    # pairing against a group table evaluates the frame pointwise
    out = fv.apply(func_of((2,), [Scalar(3), Scalar(5)]))
    assert scalars_of(out) == [Scalar(3), Scalar(3), Scalar(5), Scalar(5)]


def test_star_of_inverse_frames_is_unit():
    b = fix_z2()
    g = b.group
    fv = FormValuedMap.from_point_table(g, b.phi)
    fv_inv = FormValuedMap.from_point_table(g, [g.inv(a) for a in b.phi])
    unit = star_delta(fv_inv, fv)
    assert unit.degree == 0
    for p in range(4):
        for c in range(2):
            expected = ONE if c == g.identity else ZERO
            assert scalar_at(unit, p, c) == expected


def test_star_degrees_add_and_share_junction():
    g = fix_z2().group
    a = FormValuedMap.from_point_table(g, [0, 1])
    s = star_delta(a, differential(a))
    assert s.degree == 1
    # hand value: sum over products lands on the frame word at each end
    assert scalar_at(s, 0, 1, 1) == ONE
    assert scalar_at(s, 0, 1, 0) == -ONE
    assert scalar_at(s, 0, 0, 0) == ZERO


def test_star_associativity_random():
    g = fix_z2().group
    rng = Random(23)
    size = 3
    for _ in range(5):

        def rand_map(degree):
            n = size ** (degree + 1) * g.order
            return map_of(
                g, size, degree, [Scalar(rng.randrange(-2, 3)) for _ in range(n)]
            )

        u, v = rand_map(0), rand_map(0)
        for w in (rand_map(0), rand_map(1)):
            left = star_delta(star_delta(u, v), w)
            right = star_delta(u, star_delta(v, w))
            assert left == right


def test_d_slicewise_matches_per_slice_differential():
    g = fix_z2().group
    rng = Random(5)
    fv = map_of(g, 3, 0, [Scalar(rng.randrange(-3, 4)) for _ in range(6)])
    dfv = differential(fv)
    assert dfv.degree == 1
    for c in range(2):
        slice_form = map_of(cyclic(1), 3, 0, scalars_of(fv)[c::2])
        assert scalars_of(differential(slice_form)) == scalars_of(dfv)[c::2]


def test_form_valued_map_shape_guards():
    g = fix_z2().group
    with pytest.raises(ValueError, match="density has"):
        map_of(g, 2, 0, [ZERO] * 3)
    a = FormValuedMap.from_point_table(g, [0, 1])
    c = FormValuedMap.from_point_table(g, [0, 1, 0])
    with pytest.raises(ValueError, match="different spaces"):
        star_delta(a, c)
    with pytest.raises(ValueError, match="group table"):
        a.apply(func_of((3,), [ZERO] * 3))


# ---------------------------------------------------------------------------
# the connection of a trivialized bundle


def test_trivial_connection_hand_values():
    b = fix_z2()
    theta = trivial_connection(b)
    # frames e,e,g,g: the (0,3) pair carries the group word g
    assert scalar_at(theta, 0, 3, 1) == ONE
    assert scalar_at(theta, 0, 3, 0) == -ONE
    for c in range(2):
        assert scalar_at(theta, 0, 1, c) == ZERO
    ind_g = Func.indicator((2,), (1,))
    assert scalar_at(theta.apply(ind_g), 0, 3) == ONE


@pytest.mark.parametrize("make", FRAMED)
def test_trivial_connection_satisfies_invariants(make):
    b = make()
    report = validate_connection_form(trivial_connection(b), b)
    assert [c.name for c in report.checks] == FORM_CHECKS
    assert report.passed


@pytest.mark.parametrize("make", FRAMED)
def test_trivial_connection_is_strong_with_zero_potential(make):
    b = make()
    gh = zero_base_potential(b.group, b.base.size)
    assert strong_connection_direct(gh, b) == trivial_connection(b)


@pytest.mark.parametrize("make", FRAMED)
def test_trivial_connection_is_flat(make):
    b = make()
    assert curvature(trivial_connection(b)).is_zero()


# ---------------------------------------------------------------------------
# potentials and the two construction routes


@pytest.mark.parametrize("make", FRAMED)
def test_potential_route_matches_closed_form(make):
    b = make()
    rng = Random(41)
    for _ in range(3):
        gh = random_base_potential(b.group, b.base.size, rng)
        gamma = lift_base_potential(gh, b)
        assert validate_potential(gamma, b).passed
        theta = connection_from_potential(gamma, b)
        assert theta == strong_connection_direct(gh, b)
        assert theta == strong_connection_direct(gamma, b)
        assert validate_connection_form(theta, b).passed


def test_connection_from_potential_rejects_invalid():
    b = fix_z2()
    # value on an orbit pair: (0, 2) lie over the same base point
    bad = build(
        b.group,
        4,
        1,
        lambda p, q, c: ONE if (p, q, c) == (0, 2, 0) else
        (-ONE if (p, q, c) == (0, 2, 1) else ZERO),
    )
    # the runner refuses it before connection_from_potential runs
    assert rejection("potential", validate_potential(bad, b)) == (
        "potential rejected: potential.vanishing_on_orbit_pairs: FAIL  witness=(0, 1, 0)"
    )


def test_validate_potential_witnesses():
    b = fix_z2()

    unbalanced = build(
        b.group, 4, 1, lambda p, q, c: ONE if (p, q, c) == (0, 1, 0) else ZERO
    )
    r = validate_potential(unbalanced, b)
    assert not r["potential.unit_normalization"].passed
    assert r["potential.unit_normalization"].witness == (0, 1)

    on_orbit = build(
        b.group,
        4,
        1,
        lambda p, q, c: ONE if (p, q, c) == (0, 2, 0) else
        (-ONE if (p, q, c) == (0, 2, 1) else ZERO),
    )
    r = validate_potential(on_orbit, b)
    assert r["potential.unit_normalization"].passed
    assert not r["potential.vanishing_on_orbit_pairs"].passed
    assert r["potential.vanishing_on_orbit_pairs"].witness == (0, 1, 0)

    lopsided = build(
        b.group,
        4,
        1,
        lambda p, q, c: ONE if (p, q, c) == (0, 1, 0) else
        (-ONE if (p, q, c) == (0, 1, 1) else ZERO),
    )
    r = validate_potential(lopsided, b)
    assert r["potential.unit_normalization"].passed
    assert r["potential.vanishing_on_orbit_pairs"].passed
    assert not r["potential.translation_invariance"].passed
    assert r["potential.translation_invariance"].witness == (0, 1, 1, 0)


def test_validate_base_potential_random_and_witnesses():
    g = fix_z2().group
    rng = Random(9)
    for _ in range(5):
        assert validate_base_potential(random_base_potential(g, 3, rng)).passed

    for value in (ONE, Scalar(0, 1)):
        diag = build(g, 2, 1, lambda x, y, c: value if (x, y, c) == (1, 1, 1) else ZERO)
        r = validate_base_potential(diag)
        assert not r["base_potential.vanishing_on_diagonal"].passed
        assert r["base_potential.vanishing_on_diagonal"].witness == (1, 1)

    unbalanced = build(
        g, 2, 1, lambda x, y, c: ONE if (x, y, c) == (0, 1, 0) else ZERO
    )
    r = validate_base_potential(unbalanced)
    assert r["base_potential.vanishing_on_diagonal"].passed
    assert not r["base_potential.unit_normalization"].passed
    assert r["base_potential.unit_normalization"].witness == (0, 1)


def test_lift_base_potential_guards():
    b = fix_z2()
    g = b.group
    bad = build(g, 2, 1, lambda x, y, c: ONE if (x, y, c) == (0, 0, 1) else ZERO)
    # the runner refuses it before lift_base_potential runs
    assert rejection("base potential", validate_base_potential(bad)) == (
        "base potential rejected: base_potential.vanishing_on_diagonal: FAIL  witness=(0, 1)"
    )
    with pytest.raises(ValueError, match="does not match"):
        lift_base_potential(zero_base_potential(g, 3), b)


# ---------------------------------------------------------------------------
# transition maps and the classical construction


def test_transition_map_validation():
    g = fix_z2().group
    with pytest.raises(ValueError):
        TransitionMap(g, [[0, 1], [0]])
    with pytest.raises(ValueError):
        TransitionMap(g, [[0, 2], [0, 0]])

    off_diagonal = TransitionMap(g, [[1, 0], [0, 0]])
    r = validate_transition(off_diagonal)
    assert not r.passed
    assert r["transition.diagonal_identity"].witness == (0,)

    tm = TransitionMap(g, [[0, 1], [0, 0]])
    assert validate_transition(tm).passed
    flat, witness = is_cocycle(tm)
    assert not flat
    assert witness == (0, 1, 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_lift_of_a_valid_transition_potential_is_a_potential(data):
    # the runner does not validate this lift: it meets the three potential
    # invariants whenever the transition map passes its own check
    b = data.draw(st.sampled_from(FRAMED))()
    nb, g = b.base.size, b.group
    row = st.lists(st.integers(0, g.order - 1), min_size=nb, max_size=nb)
    table = data.draw(st.lists(row, min_size=nb, max_size=nb))
    if data.draw(st.booleans()):
        for x in range(nb):
            table[x][x] = g.identity
    tm = TransitionMap(g, table)
    if validate_transition(tm).passed:
        lifted = lift_base_potential(potential_from_transition(tm), b)
        assert validate_potential(lifted, b).passed


def test_potential_from_transition_values():
    g = fix_z2().group
    tm = TransitionMap(g, [[0, 1], [0, 0]])
    gh = potential_from_transition(tm)
    assert scalar_at(gh, 0, 1, 1) == ONE
    assert scalar_at(gh, 0, 1, 0) == -ONE
    for c in range(2):
        assert scalar_at(gh, 0, 0, c) == ZERO
        assert scalar_at(gh, 1, 0, c) == ZERO
    assert validate_base_potential(gh).passed

    # the runner refuses it before potential_from_transition runs
    off_diagonal = TransitionMap(g, [[1, 0], [0, 0]])
    assert rejection("transition map", validate_transition(off_diagonal)) == (
        "transition map rejected: transition.diagonal_identity: FAIL  witness=(0,)"
    )


def test_classical_connection_hand_values():
    b = fix_z2()
    tm = TransitionMap(b.group, [[0, 1], [0, 0]])
    theta = classical_connection(tm, b)
    assert scalar_at(theta, 0, 1, 1) == ONE
    assert scalar_at(theta, 0, 1, 0) == -ONE
    # same-orbit pair still carries the frame twist between 0 and 2
    assert scalar_at(theta, 0, 2, 1) == ONE
    assert validate_connection_form(theta, b).passed


def test_classical_matches_potential_route_exhaustively():
    for make, base_size in ((fix_z2, 2), (fix_prod, 2)):
        b = make()
        for tm in all_transition_maps(b.group, base_size):
            gh = potential_from_transition(tm)
            theta = classical_connection(tm, b)
            assert theta == strong_connection_direct(gh, b)
            assert theta == connection_from_potential(lift_base_potential(gh, b), b)


def test_frame_required_for_closed_forms():
    b = fix_nonfree()
    g = b.group
    tm = TransitionMap(g, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="no trivialization"):
        classical_connection(tm, b)
    with pytest.raises(ValueError, match="no trivialization"):
        strong_connection_direct(zero_base_potential(g, 2), b)
    with pytest.raises(ValueError, match="no trivialization"):
        curvature_classical(tm, b)


# ---------------------------------------------------------------------------
# splittings of the canonical map


def test_splitting_roundtrip_and_validation():
    b = fix_z2()
    thetas = [
        trivial_connection(b),
        classical_connection(TransitionMap(b.group, [[0, 1], [0, 0]]), b),
    ]
    for theta in thetas:
        sigma = splitting_from_theta(theta, b)
        report = validate_splitting(sigma, b)
        assert [c.name for c in report.checks] == [
            "splitting.section",
            "splitting.module",
            "splitting.covariance",
        ]
        assert report.passed
        assert theta_from_splitting(sigma, b) == theta

    bp = fix_prod()
    gh = random_base_potential(bp.group, bp.base.size, Random(3))
    theta = strong_connection_direct(gh, bp)
    assert theta_from_splitting(splitting_from_theta(theta, bp), bp) == theta


def test_splitting_columns_and_apply():
    b = fix_z2()
    sigma = splitting_from_theta(trivial_connection(b), b)
    col = column_form(sigma, 0, 1)
    assert scalar_at(col, 0, 1) == ZERO
    assert scalar_at(col, 0, 2) == ONE
    assert scalar_at(col, 0, 3) == ONE


def test_theta_from_splitting_rejects_corrupt_matrix():
    b = fix_z2()
    sigma = splitting_from_theta(trivial_connection(b), b)
    zeroed = Splitting(b, 1, [{} for _ in sigma.cols])
    # the runner refuses it before theta_from_splitting runs
    assert rejection("splitting", validate_splitting(zeroed, b)) == (
        "splitting rejected: splitting.section: FAIL  witness=(0, 1, 0, 1)"
    )


def test_splitting_from_theta_rejects_invalid_form():
    b = fix_z2()
    flat_zero = map_of(b.group, 4, 1, [ZERO] * 32)
    # the runner refuses it before splitting_from_theta runs
    assert rejection("connection form", validate_connection_form(flat_zero, b)) == (
        "connection form rejected: connection.splitting_property: FAIL  witness=(0, 1, 0)"
    )


# nested-loop references for the connection form's witnesses, in the order
# the checks promise


def _first_splitting_failure(theta, b):
    g = b.group
    for p in range(b.total_size):
        for a in range(g.order):
            for c in range(g.order):
                unit = (ONE if a == c else ZERO) - (ONE if c == g.identity else ZERO)
                if scalar_at(theta, p, b.act(p, a), c) != unit:
                    return (p, a, c)
    return None


def _first_ad_covariance_failure(theta, b):
    g = b.group
    n = b.total_size
    for p in range(n):
        for q in range(n):
            for bb in range(g.order):
                for c in range(g.order):
                    moved = scalar_at(theta, b.act(p, bb), b.act(q, bb), c)
                    if moved != scalar_at(theta, p, q, g.conj(c, g.inv(bb))):
                        return (p, q, bb, c)
    return None


def _moved(theta, p, q, up, down):
    """theta with one unit moved from group element `down` to `up` at (p, q)."""
    density = list(scalars_of(theta))
    base = (p * theta.size + q) * theta.group.order
    density[base + up] = density[base + up] + ONE
    density[base + down] = density[base + down] - ONE
    return map_of(theta.group, theta.size, 1, density)


def test_ad_covariance_witness_is_the_first_failure():
    # S3 over two base points: moving a unit within a cross-orbit row keeps
    # the row sums and the orbit rows, so only ad-covariance fails, first
    # at a translate of the changed row
    b = make_product(2, symmetric(3))
    theta = _moved(trivial_connection(b), 2, 9, 4, 5)
    report = validate_connection_form(theta, b)
    assert [c.name for c in report.checks if not c.passed] == ["connection.ad_covariance"]
    witness = report["connection.ad_covariance"].witness
    assert witness == _first_ad_covariance_failure(theta, b) == (0, 7, 2, 4)
    p, q, bb, c = witness
    assert bb != b.group.identity and c != b.group.identity


def test_splitting_property_witness_is_the_first_failure():
    b = make_product(2, symmetric(3))
    theta = _moved(trivial_connection(b), 3, b.act(3, 2), 4, 1)
    report = validate_connection_form(theta, b)
    assert not report["connection.splitting_property"].passed
    witness = report["connection.splitting_property"].witness
    assert witness == _first_splitting_failure(theta, b) == (3, 2, 1)


# the dense route validate_splitting replaced, kept as its reference


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    out = []
    bt = list(zip(*b))
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def test_mat_mul_and_identity():
    m = [[S(1), S(2)], [S(3), S(4)]]
    assert mat_mul(m, identity_matrix(2)) == m
    assert mat_mul(identity_matrix(2), m) == m
    sq = mat_mul(m, m)
    assert sq == [[S(7), S(10)], [S(15), S(22)]]


def dense_rows(sigma) -> list[list[Scalar]]:
    """The splitting's matrix as rows of Scalars, zero where its columns
    store nothing."""
    rows = [[ZERO] * len(sigma.cols) for _ in sigma.pairs]
    for k, column in enumerate(sigma.columns):
        for r, (x, y) in column.items():
            rows[r][k] = Scalar(Fraction(x, sigma.d), Fraction(y, sigma.d))
    return rows


def splitting_of_rows(b, rows: list[list[Scalar]]) -> Splitting:
    """The Splitting whose matrix has the given rows of Scalars."""
    width = len(rows[0]) if rows else 0
    d, re, im = to_ints([v for row in rows for v in row])
    columns = [{} for _ in range(width)]
    for t, (x, y) in enumerate(zip(re, im or [0] * len(re))):
        if x or y:
            r, k = divmod(t, width)
            columns[k][r] = (x, y)
    return Splitting(b, d, columns)


def column_form(sigma, p: int, a: int, rows=None) -> Func:
    """Column (p, a) of a splitting as its one-form's (n, n) table, zero
    on the diagonal; `rows` is the splitting's `dense_rows`, read once by
    a caller that takes many columns."""
    n = sigma.bundle.total_size
    k = sigma.cols.index((p, a))
    values = [ZERO] * (n * n)
    for (p0, q0), row in zip(sigma.pairs, dense_rows(sigma) if rows is None else rows):
        values[p0 * n + q0] = row[k]
    return func_of((n, n), values)


def reference_splitting_checks(sigma, b):
    """(name, passed, witness) of each splitting check, from the dense
    product canon * sigma and a column_form scan of every translate."""
    g = b.group
    n, m = b.total_size, g.order

    rows = dense_rows(sigma)
    sparse, pairs = restricted_canonical_matrix(b)
    canon = [[row.get(k, ZERO) for k in range(len(pairs))] for row in sparse]
    product = mat_mul(canon, rows)
    section_witness = None
    if product != identity_matrix(len(sigma.cols)):
        section_witness = next(
            sigma.cols[r] + sigma.cols[c]
            for r in range(len(sigma.cols))
            for c in range(len(sigma.cols))
            if product[r][c] != (ONE if r == c else ZERO)
        )

    module_witness = next(
        (
            (p0, p1, a)
            for k, (p1, a) in enumerate(sigma.cols)
            for r, (p0, _q0) in enumerate(sigma.pairs)
            if rows[r][k] and p0 != p1
        ),
        None,
    )

    cov_witness = None
    for p1, a1 in sigma.cols:
        lhs_base = column_form(sigma, p1, a1, rows)
        for bb in range(m):
            lhs = column_form(sigma, b.act(p1, g.inv(bb)), g.conj(a1, g.inv(bb)), rows)
            if any(
                scalar_at(lhs, p, q) != scalar_at(lhs_base, b.act(p, bb), b.act(q, bb))
                for p in range(n)
                for q in range(n)
            ):
                cov_witness = (p1, a1, bb)
                break
        if cov_witness:
            break

    return [
        ("splitting.section", section_witness is None, section_witness),
        ("splitting.module", module_witness is None, module_witness),
        ("splitting.covariance", cov_witness is None, cov_witness),
    ]


def splitting_checks(sigma, b):
    return [(c.name, c.passed, c.witness) for c in validate_splitting(sigma, b).checks]


@pytest.mark.parametrize("make, potentials, sample", [
    (fix_z2, 2, None),
    (fix_prod, 1, None),
    (fix_s3, 0, 150),
])
def test_validate_splitting_matches_dense_reference(make, potentials, sample):
    b = make()
    rng = Random(29)
    thetas = [trivial_connection(b)] + [
        strong_connection_direct(random_base_potential(b.group, b.base.size, rng), b)
        for _ in range(potentials)
    ]
    failed = set()
    for theta in thetas:
        sigma = splitting_from_theta(theta, b)
        assert splitting_checks(sigma, b) == reference_splitting_checks(sigma, b)
        assert validate_splitting(sigma, b).passed
        cells = [(r, k) for r in range(len(sigma.pairs)) for k in range(len(sigma.cols))]
        if sample is not None:
            cells = rng.sample(cells, sample)
        rows = dense_rows(sigma)
        for r, k in cells:
            matrix = [list(row) for row in rows]
            matrix[r][k] = matrix[r][k] + ONE
            mutant = splitting_of_rows(b, matrix)
            got = splitting_checks(mutant, b)
            assert got == reference_splitting_checks(mutant, b)
            assert not all(ok for _name, ok, _w in got)
            failed.update(name for name, ok, _w in got if not ok)
    assert failed == {"splitting.section", "splitting.module", "splitting.covariance"}


def test_validate_splitting_sees_imaginary_parts():
    # a unit added to a cell's imaginary part must fail the checks that
    # the same unit added to its real part fails
    for make, sample in ((fix_z2, None), (fix_prod, 60)):
        b = make()
        rng = Random(37)
        theta = strong_connection_direct(random_base_potential(b.group, b.base.size, rng), b)
        sigma = splitting_from_theta(theta, b)
        rows = dense_rows(sigma)
        cells = [(r, k) for r in range(len(sigma.pairs)) for k in range(len(sigma.cols))]
        if sample is not None:
            cells = rng.sample(cells, sample)
        failed = set()
        for r, k in cells:
            matrix = [list(row) for row in rows]
            matrix[r][k] = matrix[r][k] + Scalar(0, 1)
            mutant = splitting_of_rows(b, matrix)
            got = splitting_checks(mutant, b)
            assert got == reference_splitting_checks(mutant, b)
            failed.update(name for name, ok, _w in got if not ok)
        assert "splitting.covariance" in failed


def test_validate_splitting_matches_dense_reference_without_free_action():
    # p.a = p for every a, so every row of the canonical map is zero and
    # no matrix is a section, not even the identity
    b = fix_nonfree()
    rng = Random(31)
    matrices = [[[ONE, ZERO], [ZERO, ONE]]] + [
        [[random_scalar(rng) for _ in range(2)] for _ in range(2)] for _ in range(10)
    ]
    for matrix in matrices:
        sigma = splitting_of_rows(b, matrix)
        got = splitting_checks(sigma, b)
        assert got == reference_splitting_checks(sigma, b)
        assert got[0] == ("splitting.section", False, (0, 1, 0, 1))


def test_validate_splitting_matches_dense_reference_when_the_action_is_no_permutation():
    # g sends 0 to 1, fixes 1 and sends 2 to 0: the translate of (0, 1) and
    # of (1, 0) by g is diagonal, and (1, 0) and (0, 1) each have two
    # preimages, (0, 2), (1, 2) and (2, 0), (2, 1)
    g = cyclic(2)
    b = BundleSpec(g, RightAction(g, [[0, 1], [1, 1], [2, 0]]))
    # column (p, g) holds the unit at the row (p, p.g), where there is one
    unit = {(0, 1): (0, 1), (2, 0): (2, 1)}
    sigma = splitting_of_rows(b, [[ZERO] * 3 for _ in range(6)])
    identity_like = [
        [ONE if unit.get(pq) == col else ZERO for col in sigma.cols] for pq in sigma.pairs
    ]
    sigma = splitting_of_rows(b, identity_like)
    got = splitting_checks(sigma, b)
    assert got == reference_splitting_checks(sigma, b)
    failed = set()
    for r in range(len(sigma.pairs)):
        for k in range(len(sigma.cols)):
            for step in (ONE, Scalar(0, 1)):
                matrix = [list(row) for row in identity_like]
                matrix[r][k] = matrix[r][k] + step
                mutant = splitting_of_rows(b, matrix)
                got = splitting_checks(mutant, b)
                assert got == reference_splitting_checks(mutant, b)
                failed.update(name for name, ok, _w in got if not ok)
    assert failed == {"splitting.section", "splitting.module", "splitting.covariance"}
    # dense matrices differ from a section at many entries of a row and a
    # column, so each witness must be the first of them
    rng = Random(41)
    for _ in range(10):
        sigma = splitting_of_rows(b, [[random_scalar(rng) for _ in range(3)] for _ in range(6)])
        assert splitting_checks(sigma, b) == reference_splitting_checks(sigma, b)


# ---------------------------------------------------------------------------
# curvature


def test_curvature_hand_values_classical():
    b = fix_z2()
    tm = TransitionMap(b.group, [[0, 1], [0, 0]])
    f = curvature(classical_connection(tm, b))
    assert not f.is_zero()
    assert scalar_at(f, 0, 1, 0, 1) == ONE
    assert scalar_at(f, 0, 1, 0, 0) == -ONE
    assert scalar_at(f, 0, 3, 0, 1) == ONE
    ind_g = Func.indicator((2,), (1,))
    assert scalar_at(f.apply(ind_g), 0, 1, 0) == ONE


@pytest.mark.parametrize("make", FRAMED)
def test_curvature_routes_agree_on_random_potentials(make):
    b = make()
    rng = Random(59)
    for _ in range(3):
        gamma = lift_base_potential(
            random_base_potential(b.group, b.base.size, rng), b
        )
        direct = curvature(connection_from_potential(gamma, b))
        conjugated = curvature_from_potential(gamma, b)
        assert direct == conjugated


def test_curvature_classical_routes_exhaustive():
    for make, base_size in ((fix_z2, 2), (fix_prod, 2)):
        b = make()
        for tm in all_transition_maps(b.group, base_size):
            closed = curvature_classical(tm, b)
            assert closed == curvature(classical_connection(tm, b))
            gamma = lift_base_potential(potential_from_transition(tm), b)
            assert closed == curvature_from_potential(gamma, b)


def _frame(word):
    """`connection._frame_gathers` with the group element read at (p, r, c)
    given by word(group, φ(p), c, φ(r))."""

    def gathers(g, phi, read):
        points, elements = range(len(phi)), range(g.order)
        return [
            connection._getter(
                [read[r] * g.order + word(g, phi[p], c, phi[r]) for r in points for c in elements]
            )
            for p in points
        ]

    return gathers


# code mutants of the frame read in curvature_from_potential, the closed
# form route 2 uses on the base: each must fail route_agreement
FRAME_MUTANTS = {
    "phi_p_and_phi_r_swapped": (
        "_frame_gathers",
        _frame(lambda g, left, c, right: g.table[g.table[right][c]][g.inv(left)]),
    ),
    "inverse_dropped": (
        "_frame_gathers",
        _frame(lambda g, left, c, right: g.table[g.table[left][c]][right]),
    ),
    "points_read_without_projection": (
        "_points_read",
        lambda gamma, b: [p % gamma.size for p in range(b.total_size)],
    ),
}


def _route_agreement(doc, name):
    report = run_checks(doc, [f"curvature:{name}"])
    (check,) = [c for c in report.checks if c.name.endswith(".route_agreement")]
    return check.passed


@pytest.mark.parametrize("mutant", sorted(FRAME_MUTANTS))
def test_route_agreement_kills_frame_mutants(mutant, monkeypatch):
    # fix_s3 has one base point, so every potential on it vanishes and so
    # does its curvature, whatever the frame read; the S3 product on two
    # base points is non-abelian and curved, for both connections
    doc = parse_spec(json.dumps(S3X2))
    honest = _frame(lambda g, left, c, right: g.table[g.table[left][c]][g.inv(right)])
    for name in ("cls", "rat"):
        assert _route_agreement(doc, name)
        with monkeypatch.context() as patched:
            patched.setattr(connection, "_frame_gathers", honest)
            assert _route_agreement(doc, name)
        with monkeypatch.context() as patched:
            patched.setattr(connection, *FRAME_MUTANTS[mutant])
            assert not _route_agreement(doc, name)


def test_flat_iff_cocycle_census():
    b = fix_z2()
    flats = 0
    for tm in all_transition_maps(b.group, 2):
        flat = curvature_classical(tm, b).is_zero()
        assert flat == is_cocycle(tm)[0]
        flats += flat
    assert flats == 2

    bp = fix_prod()
    flats = 0
    for tm in all_transition_maps(bp.group, 2):
        flat = curvature_classical(tm, bp).is_zero()
        assert flat == is_cocycle(tm)[0]
        flats += flat
    assert flats == 3


# ---------------------------------------------------------------------------
# gauge action on potentials and transition maps


def transformed(gh, tau):
    """The gauge transform of a base potential, once its two routes agree."""
    closed, via = gauge_transform_base_potential(gh, tau)
    assert closed == via
    return closed


def test_gauge_transform_routes_and_validity():
    g = fix_z2().group
    rng = Random(31)
    gh = random_base_potential(g, 2, rng)
    for tau in all_gauge_maps(g, 2):
        assert validate_base_potential(transformed(gh, tau)).passed
    neutral = GaugeMap(g, [g.identity] * 2)
    assert gauge_transform_base_potential(gh, neutral) == (gh, gh)


def test_gauge_transforms_compose_and_invert():
    g = fix_z2().group
    gh = random_base_potential(g, 2, Random(13))
    taus = list(all_gauge_maps(g, 2))
    for t1 in taus:
        for t2 in taus:
            sequential = transformed(transformed(gh, t1), t2)
            assert sequential == transformed(gh, gauge_compose(t1, t2))
        assert transformed(transformed(gh, t1), gauge_inverse(t1)) == gh


def test_gauge_transform_commutes_with_lift():
    for make in (fix_z2, fix_prod):
        b = make()
        gh = random_base_potential(b.group, b.base.size, Random(7))
        for tau in all_gauge_maps(b.group, b.base.size):
            closed, via = gauge_transform_potential(lift_base_potential(gh, b), b, tau)
            then_lifted = lift_base_potential(transformed(gh, tau), b)
            assert closed == via == then_lifted


def test_gauge_transform_transition_agreement():
    g = fix_z2().group
    for tm in all_transition_maps(g, 2):
        for tau in all_gauge_maps(g, 2):
            moved = gauge_transform_transition(tm, tau)
            assert potential_from_transition(moved) == transformed(
                potential_from_transition(tm), tau
            )
        assert gauge_transform_transition(tm, GaugeMap(g, [g.identity] * 2)) == tm


def test_gauge_transform_guards():
    g = fix_z2().group
    gh = zero_base_potential(g, 2)
    with pytest.raises(ValueError, match="does not match"):
        gauge_transform_base_potential(gh, GaugeMap(g, [0, 0, 0]))
    tm = TransitionMap(g, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="does not match"):
        gauge_transform_transition(tm, GaugeMap(g, [0]))


def test_bundle_mismatch_guards():
    b = fix_z2()
    other = fix_s3()
    theta = trivial_connection(other)
    with pytest.raises(ValueError, match="does not match"):
        validate_connection_form(theta, b)
    with pytest.raises(ValueError, match="does not match"):
        validate_potential(build(other.group, 6, 1, lambda p, q, c: ZERO), b)
