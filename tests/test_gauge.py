"""Gauge maps and their induced bundle automorphisms."""

import pytest

from bridge import compose, inverse, named
from conftest import all_gauge_maps, fix_prod, fix_z2
from qpb.gauge import (
    BundleAutomorphism,
    gauge_compose,
    gauge_inverse,
    tau_extract,
    validate_automorphism,
    xi_from_tau,
)
from qpb.groups import FiniteGroup, GaugeMap, symmetric


def test_gauge_map_constructor_guards():
    g = fix_z2().group
    with pytest.raises(ValueError, match="out of range"):
        GaugeMap(g, [0, 2])
    with pytest.raises(ValueError, match="out of range"):
        GaugeMap(g, [0, -1])


def test_gauge_compose_hand_value():
    g = fix_z2().group
    assert gauge_compose(GaugeMap(g, [1, 0]), GaugeMap(g, [1, 1])) == GaugeMap(g, [0, 1])


def test_gauge_group_laws_exhaustive():
    cases = [(fix_z2().group, 2), (fix_prod().group, 2), (symmetric(3), 1)]
    for g, base_size in cases:
        taus = list(all_gauge_maps(g, base_size))
        neutral = GaugeMap(g, [g.identity] * base_size)
        for t1 in taus:
            assert gauge_compose(neutral, t1) == t1
            assert gauge_compose(t1, neutral) == t1
            assert gauge_compose(t1, gauge_inverse(t1)) == neutral
            assert gauge_compose(gauge_inverse(t1), t1) == neutral
            for t2 in taus:
                for t3 in taus:
                    assert gauge_compose(gauge_compose(t1, t2), t3) == gauge_compose(
                        t1, gauge_compose(t2, t3)
                    )


def test_xi_from_tau_left_translates():
    g = fix_z2().group
    xi = xi_from_tau(GaugeMap(g, [1, 0]))
    assert xi.trans[0][0] == 1
    assert xi.trans[0][1] == 0
    assert xi.trans[1][1] == 1


def test_automorphisms_respect_gauge_group():
    # the fiber-translation picture must mirror composition and inversion
    cases = [(fix_z2().group, 2), (fix_prod().group, 2), (symmetric(3), 1)]
    for g, base_size in cases:
        taus = list(all_gauge_maps(g, base_size))
        for t1 in taus:
            assert xi_from_tau(gauge_inverse(t1)) == inverse(xi_from_tau(t1))
            assert tau_extract(xi_from_tau(t1)) == t1
            for t2 in taus:
                assert xi_from_tau(gauge_compose(t1, t2)) == compose(
                    xi_from_tau(t1), xi_from_tau(t2)
                )


def test_validate_automorphism_positive():
    g = fix_prod().group
    for tau in all_gauge_maps(g, 2):
        report = validate_automorphism(xi_from_tau(tau))
        assert [c.name for c in report.checks] == [
            "automorphism.bijective",
            "automorphism.equivariance",
        ]
        assert report.passed


def test_right_translation_is_not_a_gauge_automorphism():
    g = symmetric(3)
    t = 1  # a transposition, so left and right translation differ
    xi = BundleAutomorphism(g, [[g.table[a][t] for a in range(6)]])
    report = validate_automorphism(xi)
    assert named(report, "automorphism.bijective").passed
    assert not named(report, "automorphism.equivariance").passed
    with pytest.raises(ValueError, match="not a left translation"):
        tau_extract(xi)


def test_non_bijective_fiber_map_rejected():
    g = fix_z2().group
    squashed = BundleAutomorphism(g, [[0, 0], [0, 1]])
    report = validate_automorphism(squashed)
    assert not named(report, "automorphism.bijective").passed
    assert named(report, "automorphism.bijective").witness == (0,)
    with pytest.raises(ValueError, match="not a bijection"):
        inverse(squashed)


def test_automorphism_constructor_guards():
    g = fix_z2().group
    with pytest.raises(ValueError, match="translation row is not a list of 2 indices"):
        BundleAutomorphism(g, [[0]])
    with pytest.raises(ValueError, match="out of range"):
        BundleAutomorphism(g, [[0, 5]])
    other = BundleAutomorphism(g, [[0, 1]])
    two = BundleAutomorphism(g, [[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="different bundles"):
        compose(two, other)


def test_degenerate_group_guards():
    no_identity = FiniteGroup([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="no inverses"):
        gauge_inverse(GaugeMap(no_identity, [0]))
    g = fix_z2().group
    with pytest.raises(ValueError, match="different bundles"):
        gauge_compose(GaugeMap(g, [0]), GaugeMap(g, [0, 0]))
