from random import Random

import pytest

from bridge import func_of, map_of, scalar_at, scalars_of
import qpb.bundle as bundle
from conftest import fix_nonfree, fix_prod, fix_s3, fix_z2, random_degree0_map, support
from qpb.bundle import (
    check_comodule_algebra,
    check_freeness,
    coaction,
    inject_base,
    invariants_basis,
    psi_apply,
    psi_inverse,
    section_table,
    synthesize_trivialization,
    validate_trivialization,
)
from qpb.connection import star_delta
from qpb.funcs import Func, tensor_identify
from qpb.groups import BundleSpec, FiniteGroup, RightAction, cyclic, make_product
from qpb.potentials import conv_inverse, conv_unit, phi_hom
from qpb.scalars import ONE, ZERO, Scalar


def test_base_space_orbits():
    b = fix_z2()
    assert b.base.orbits == [[0, 2], [1, 3]]
    assert b.base.reps == [0, 1]
    assert b.base.projection == [0, 1, 0, 1]
    assert fix_s3().base.size == 1
    assert fix_prod().base.size == 2


def test_coaction_support_z2():
    b = fix_z2()
    ind0 = Func.indicator((4,), (0,))
    ca = coaction(b, ind0)
    assert support(ca) == [(0, 0), (2, 1)]


def test_coaction_support_s3():
    b = fix_s3()
    g = b.group
    ind_e = Func.indicator((6,), (g.identity,))
    ca = coaction(b, ind_e)
    assert support(ca) == sorted((p, g.inv(p)) for p in range(6))


def test_coaction_is_multiplicative_pointwise():
    b = fix_prod()
    rng = Random(7)
    f1 = func_of((6,), [Scalar(rng.randrange(-3, 4)) for _ in range(6)])
    f2 = func_of((6,), [Scalar(rng.randrange(-3, 4)) for _ in range(6)])
    assert coaction(b, f1 * f2) == coaction(b, f1) * coaction(b, f2)


def _z2_identity_last() -> BundleSpec:
    """Z2 with its identity labelled 1, acting on itself."""
    g = FiniteGroup([[1, 0], [0, 1]])
    return BundleSpec(g, RightAction(g, [[1, 0], [0, 1]]))


@pytest.mark.parametrize(
    "b", [fix_z2(), fix_s3(), fix_prod(), fix_nonfree(), _z2_identity_last()]
)
def test_comodule_algebra_positive(b):
    assert check_comodule_algebra(b).passed


def test_comodule_algebra_corrupted_action_fails():
    g = cyclic(2)
    act = RightAction(g, [[0, 1], [1, 3], [2, 0], [3, 1]])
    b = BundleSpec(g, act)
    rep = check_comodule_algebra(b)
    assert not rep.passed
    bad = rep.first_failure()
    assert bad.name == "comodule.coassociativity"
    assert bad.witness is not None


# nested-loop references for the comodule witnesses: the first indicator
# that fails, then the first index where its two sides differ


def _first_coassociativity_failure(b):
    act, mul = b.action.table, b.group.table
    n, m = b.total_size, b.group.order
    for q in range(n):
        for p in range(n):
            for a in range(m):
                for c in range(m):
                    if (act[act[p][a]][c] == q) != (act[p][mul[a][c]] == q):
                        return (p, a, c)
    return None


def _first_counit_failure(b):
    n, e = b.total_size, b.group.identity
    for q in range(n):
        for p in range(n):
            if (b.act(p, e) == q) != (p == q):
                return (p,)
    return None


def _first_multiplicativity_failure(b, coact):
    n, m = b.total_size, b.group.order
    for q in range(n):
        fq = Func.indicator((n,), (q,))
        for r in range(n):
            fr = Func.indicator((n,), (r,))
            lhs = coact(b, fq * fr)
            rhs = coact(b, fq) * coact(b, fr)
            for p in range(n):
                for a in range(m):
                    if scalar_at(lhs, p, a) != scalar_at(rhs, p, a):
                        return (p, a)
    return None


def _with_entry(b, p, a, q):
    table = [list(row) for row in b.action.table]
    table[p][a] = q
    return BundleSpec(b.group, RightAction(b.group, table))


def test_coassociativity_witness_is_the_first_failure():
    b = _with_entry(fix_s3(), 3, 4, 1)
    rep = check_comodule_algebra(b)
    witness = rep["comodule.coassociativity"].witness
    assert witness == _first_coassociativity_failure(b) == (0, 3, 4)


def test_counit_witness_is_the_first_failure():
    b = _with_entry(fix_s3(), 4, 0, 5)
    rep = check_comodule_algebra(b)
    witness = rep["comodule.counit"].witness
    assert witness == _first_counit_failure(b) == (4,)


def test_multiplicativity_witness_is_the_first_failure(monkeypatch):
    # pulling back along any action table is multiplicative, so the
    # coaction itself is corrupted: entry (2, 3) is doubled
    import qpb.bundle

    def doubled(b, f):
        t = coaction(b, f)
        k = 2 * b.group.order + 3
        values = scalars_of(t)
        values[k] = values[k] + values[k]
        return func_of(t.shape, values)

    b = fix_s3()
    monkeypatch.setattr(qpb.bundle, "coaction", doubled)
    rep = check_comodule_algebra(b)
    witness = rep["comodule.multiplicativity"].witness
    assert witness == _first_multiplicativity_failure(b, doubled) == (2, 3)


def test_freeness_ranks():
    for b, expected, n in ((fix_z2(), 8, 4), (fix_s3(), 36, 6), (fix_prod(), 18, 6)):
        rep = check_freeness(b)
        assert rep.passed
        data = rep["freeness.rank"].data
        assert data["rank"] == expected
        assert data["expected_rank"] == expected
        assert data["source_dim"] == n * n


def test_freeness_failure():
    rep = check_freeness(fix_nonfree())
    assert not rep.passed
    assert rep["freeness.direct"].witness == (0, 1)
    assert rep["freeness.rank"].data["rank"] == 2
    assert rep["freeness.rank"].data["expected_rank"] == 4


def _sparse(f):
    """A function's values as a `linalg` vector: its nonzero entries by index."""
    return {p: x for p, x in enumerate(scalars_of(f)) if x}


def test_invariants_are_orbit_indicators():
    b = fix_z2()
    inv = invariants_basis(b)
    assert inv.dim == 2
    assert inv.contains({0: ONE, 2: ONE})
    assert inv.contains({0: ONE, 1: ONE, 2: ONE, 3: ONE})
    assert not inv.contains({0: ONE})


def test_invariants_match_coaction_fixed_points():
    # f is invariant exactly when coaction(f) = f tensor 1
    for b in (fix_z2(), fix_prod(), fix_nonfree()):
        n, m = b.total_size, b.group.order
        inv = invariants_basis(b)
        for orbit in b.base.orbits:
            f = func_of((n,), [ONE if p in orbit else ZERO for p in range(n)])
            assert coaction(b, f) == tensor_identify(f, Func.ones((m,)))
            assert inv.contains(_sparse(f))
        for p in range(n):
            f = Func.indicator((n,), (p,))
            fixed = coaction(b, f) == tensor_identify(f, Func.ones((m,)))
            assert fixed == inv.contains(_sparse(f))


def test_inject_base():
    b = fix_z2()
    h = func_of((2,), [Scalar(3), Scalar(-1)])
    lifted = inject_base(b, h)
    assert scalars_of(lifted) == [Scalar(3), Scalar(-1), Scalar(3), Scalar(-1)]
    # lifted functions are coaction invariant
    assert invariants_basis(b).contains(_sparse(lifted))


def test_validate_trivialization_positive():
    for b in (fix_z2(), fix_s3(), fix_prod()):
        rep = validate_trivialization(b)
        assert rep.passed


def test_validate_trivialization_section_values():
    rep = validate_trivialization(fix_z2())
    assert rep["trivialization.section"].data == {"section": [0, 1]}


def test_validate_trivialization_absent():
    rep = validate_trivialization(fix_nonfree())
    assert not rep.passed
    assert not rep["trivialization.present"].passed


def test_validate_trivialization_not_equivariant():
    b = fix_z2().with_phi([0, 0, 0, 1])
    rep = validate_trivialization(b)
    assert not rep["trivialization.equivariance"].passed
    p, a = rep["trivialization.equivariance"].witness
    g = b.group
    assert b.phi[b.act(p, a)] != g.table[b.phi[p]][a]


def test_section_table():
    assert section_table(fix_z2()) == [0, 1]
    assert section_table(fix_s3()) == [0]


@pytest.mark.parametrize("make", [fix_z2, fix_s3, fix_prod])
def test_comodule_check_builds_each_coaction_once(monkeypatch, make):
    # one coaction per indicator, one per product of two indicators, and
    # the unit's; not one per check that reads it
    b = make()
    calls = []
    real = bundle.coaction

    def counting(bb, f):
        calls.append(f)
        return real(bb, f)

    monkeypatch.setattr(bundle, "coaction", counting)
    assert check_comodule_algebra(b).passed
    n = b.total_size
    assert len(calls) == n + n * n + 1


def test_synthesize_trivialization():
    b = fix_z2()
    bare = BundleSpec(b.group, b.action)
    phi = synthesize_trivialization(bare, check_freeness(bare))
    assert phi == [0, 0, 1, 1]
    assert validate_trivialization(bare.with_phi(phi)).passed


def test_synthesize_requires_free_action():
    b = fix_nonfree()
    with pytest.raises(ValueError, match="not free"):
        synthesize_trivialization(b, check_freeness(b))


def test_psi_round_trip():
    for b in (fix_z2(), fix_s3(), fix_prod()):
        nb, m, n = b.base.size, b.group.order, b.total_size
        for x in range(nb):
            for a in range(m):
                h = Func.indicator((nb, m), (x, a))
                assert psi_inverse(b, psi_apply(b, h)) == h
        for p in range(n):
            f = Func.indicator((n,), (p,))
            assert psi_apply(b, psi_inverse(b, f)) == f


def test_psi_on_z2_hand_values():
    b = fix_z2()
    # indicator of (x1, g) pulls back to points over x1 with phi(p) = g
    h = Func.indicator((2, 2), (1, 1))
    f = psi_apply(b, h)
    assert support(f) == [(3,)]


def test_star_hand_example():
    g = cyclic(2)
    u = map_of(g, 1, 0, [Scalar(1), Scalar(2)])
    v = map_of(g, 1, 0, [Scalar(3), Scalar(5)])
    assert scalars_of(star_delta(u, v)) == [Scalar(13), Scalar(11)]


def test_star_unit_and_associativity_random():
    rng = Random(12)
    b = fix_prod()
    unit = conv_unit(b.group, b.total_size)
    for _ in range(10):
        u = random_degree0_map(b.group, b.total_size, rng)
        v = random_degree0_map(b.group, b.total_size, rng)
        w = random_degree0_map(b.group, b.total_size, rng)
        assert star_delta(unit, u) == u
        assert star_delta(u, unit) == u
        assert star_delta(star_delta(u, v), w) == star_delta(u, star_delta(v, w))


def test_phi_hom_and_inverse():
    for b in (fix_z2(), fix_s3(), fix_prod()):
        ph = phi_hom(b)
        ph_inv = conv_inverse(ph)
        unit = conv_unit(b.group, b.total_size)
        assert star_delta(ph, ph_inv) == unit
        assert star_delta(ph_inv, ph) == unit


def test_conv_inverse_rejects_non_delta():
    g = cyclic(2)
    # two hits, a hit that is not 1, a 1 with an imaginary part, an imaginary hit
    for row in ([Scalar(1), Scalar(1)], [Scalar(2), ZERO], [Scalar(1, 1), ZERO], [ZERO, Scalar(0, 1)]):
        h = map_of(g, 1, 0, row)
        with pytest.raises(ValueError, match="not a delta table"):
            conv_inverse(h)


def test_phi_coaction_identities_on_basis():
    # applying the coaction to a trivialization image relabels the argument
    for b in (fix_z2(), fix_s3(), fix_prod()):
        g = b.group
        n, m = b.total_size, g.order
        ph = phi_hom(b)
        ph_inv = conv_inverse(ph)
        for c in range(m):
            alpha = Func.indicator((m,), (c,))
            lhs = coaction(b, ph.apply(alpha))
            rhs = func_of(
                (n, m),
                [
                    scalars_of(alpha)[g.table[b.phi[p]][a]]
                    for p in range(n)
                    for a in range(m)
                ],
            )
            assert lhs == rhs
            lhs_inv = coaction(b, ph_inv.apply(alpha))
            rhs_inv = func_of(
                (n, m),
                [
                    scalars_of(alpha)[g.table[g.inv(a)][g.inv(b.phi[p])]]
                    for p in range(n)
                    for a in range(m)
                ],
            )
            assert lhs_inv == rhs_inv


def test_make_product_structure():
    b = make_product(2, cyclic(3))
    assert b.total_size == 6
    assert b.base.size == 2
    assert b.phi == [0, 1, 2, 0, 1, 2]
    assert validate_trivialization(b).passed
    assert check_freeness(b).passed


def test_bundle_spec_rejects_bad_phi():
    b = fix_z2()
    with pytest.raises(ValueError, match="phi has 2 entries"):
        BundleSpec(b.group, b.action, phi=[0, 1])
    with pytest.raises(ValueError, match="out of range"):
        BundleSpec(b.group, b.action, phi=[0, 0, 0, 9])
