import pytest

from bridge import (
    adjoint_coaction,
    antipode,
    basis,
    coproduct,
    counit,
    cyclic,
    direct_product,
    plus,
    scalar,
    scalars_of,
    tensor_identify,
    view_of,
)
from conftest import support
from qpb.groups import FiniteGroup, symmetric
from qpb.scalars import ONE, ZERO
from qpb.views import indicator


def test_coproduct_on_cyclic_two_indicator():
    ind_g = indicator(2, 1)
    cop = coproduct(cyclic(2), ind_g)
    # pairs multiplying to g: (e,g) and (g,e)
    assert support(cop, (2, 2)) == [(0, 1), (1, 0)]


def test_counit_reads_identity_value():
    g = cyclic(3)
    assert scalar(counit(g, indicator(3, 0))) == ONE
    assert scalar(counit(g, indicator(3, 1))) == ZERO


def test_antipode_flips_inverse():
    ind = indicator(3, 1)
    assert support(antipode(cyclic(3), ind), (3,)) == [(2,)]  # inverse of g is g2


def test_ker_counit_projection():
    g = cyclic(2)
    ind_e = indicator(2, 0)
    # subtract a(e) * 1, landing in the kernel of the counit
    proj = plus(ind_e, view_of([scalar(counit(g, ind_e))] * 2), -1)
    assert counit(g, proj) == (0, 0, 1)
    assert scalars_of(proj) == [ZERO, -ONE]


def test_adjoint_coaction_abelian_is_diagonal():
    g = cyclic(4)
    for a in range(4):
        ad = adjoint_coaction(g, indicator(4, a))
        # conjugation is trivial: support is {a} x G
        assert support(ad, (4, 4)) == [(a, b) for b in range(4)]


def test_adjoint_coaction_symmetric_group_orbit():
    g = symmetric(3)
    ind = indicator(6, 1)
    ad = adjoint_coaction(g, ind)
    conjugates = {x for (x, _y) in support(ad, (6, 6))}
    # the conjugacy class of a transposition has three members
    assert len(conjugates) == 3


@pytest.mark.parametrize(
    "g", [cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2)), symmetric(3)]
)
def test_hopf_axioms_on_basis(g):
    n = g.order
    for alpha in basis(g):
        # entry (x, y) of the coproduct's view is at x·n + y
        cop = scalars_of(coproduct(g, alpha))
        # coassociativity: both double coproducts give a(xyz)
        triple = view_of(
            scalars_of(alpha)[g.table[g.table[x][y]][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        )
        left = view_of(
            cop[g.table[x][y] * n + z] for x in range(n) for y in range(n) for z in range(n)
        )
        right = view_of(
            cop[x * n + g.table[y][z]] for x in range(n) for y in range(n) for z in range(n)
        )
        assert left == triple
        assert right == triple

        # counit laws: slicing the coproduct at the identity recovers alpha
        assert [cop[g.identity * n + y] for y in range(n)] == scalars_of(alpha)
        assert [cop[x * n + g.identity] for x in range(n)] == scalars_of(alpha)

        # antipode laws: multiplication in this algebra is pointwise, so
        # m(S x id)cop evaluates the coproduct at inverse pairs
        counit_unit = [scalar(counit(g, alpha))] * n
        left_antipode = [cop[g.inv(z) * n + z] for z in range(n)]
        right_antipode = [cop[z * n + g.inv(z)] for z in range(n)]
        assert left_antipode == counit_unit
        assert right_antipode == counit_unit

        # antipode is an algebra involution here: S(S(a)) = a
        assert antipode(g, antipode(g, alpha)) == alpha


def test_adjoint_coaction_is_right_coaction():
    g = symmetric(3)
    n = g.order
    for alpha in basis(g):
        ad = scalars_of(adjoint_coaction(g, alpha))
        # counit law: slice at identity recovers alpha
        assert [ad[x * n + g.identity] for x in range(n)] == scalars_of(alpha)
        # coaction square: conjugating twice equals conjugating by the product
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    lhs = scalars_of(alpha)[g.conj(g.conj(x, y), z)]
                    rhs = scalars_of(alpha)[g.conj(x, g.table[y][z])]
                    assert lhs == rhs


def test_hopf_requires_identity_and_inverses():
    no_identity = FiniteGroup([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="identity"):
        counit(no_identity, indicator(2, 0))
    with pytest.raises(ValueError, match="inverses"):
        antipode(no_identity, indicator(2, 0))


def test_tensor_identification_consistency():
    g = cyclic(2)
    ind_e = indicator(2, 0)
    ind_g = indicator(2, 1)
    t = tensor_identify(ind_e, ind_g)
    assert t == indicator(4, 1)
    # coproduct of ind_e on Z2 is ind_e x ind_e + ind_g x ind_g
    cop = coproduct(g, ind_e)
    expected = plus(tensor_identify(ind_e, ind_e), tensor_identify(ind_g, ind_g))
    assert cop == expected
