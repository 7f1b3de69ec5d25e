import pytest

from bridge import (
    adjoint_coaction,
    antipode,
    basis,
    coproduct,
    counit,
    cyclic,
    direct_product,
    func_of,
    plus,
    scalar,
    scalar_at,
    scalars_of,
    tensor_identify,
)
from conftest import support
from qpb.funcs import Func
from qpb.groups import FiniteGroup, symmetric
from qpb.scalars import ONE, ZERO


def test_coproduct_on_cyclic_two_indicator():
    ind_g = Func.indicator((2,), (1,))
    cop = coproduct(cyclic(2), ind_g)
    # pairs multiplying to g: (e,g) and (g,e)
    assert support(cop) == [(0, 1), (1, 0)]


def test_counit_reads_identity_value():
    g = cyclic(3)
    assert scalar(counit(g, Func.indicator((3,), (0,)))) == ONE
    assert scalar(counit(g, Func.indicator((3,), (1,)))) == ZERO


def test_antipode_flips_inverse():
    ind = Func.indicator((3,), (1,))
    assert support(antipode(cyclic(3), ind)) == [(2,)]  # inverse of g is g2


def test_ker_counit_projection():
    g = cyclic(2)
    ind_e = Func.indicator((2,), (0,))
    # subtract a(e) * 1, landing in the kernel of the counit
    proj = plus(ind_e, func_of((2,), [scalar(counit(g, ind_e))] * 2), -1)
    assert counit(g, proj) == (0, 0, 1)
    assert scalars_of(proj) == [ZERO, -ONE]


def test_adjoint_coaction_abelian_is_diagonal():
    g = cyclic(4)
    for a in range(4):
        ad = adjoint_coaction(g, Func.indicator((4,), (a,)))
        # conjugation is trivial: support is {a} x G
        assert support(ad) == [(a, b) for b in range(4)]


def test_adjoint_coaction_symmetric_group_orbit():
    g = symmetric(3)
    ind = Func.indicator((6,), (1,))
    ad = adjoint_coaction(g, ind)
    conjugates = {x for (x, _y) in support(ad)}
    # the conjugacy class of a transposition has three members
    assert len(conjugates) == 3


@pytest.mark.parametrize(
    "g", [cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2)), symmetric(3)]
)
def test_hopf_axioms_on_basis(g):
    n = g.order
    for alpha in basis(g):
        cop = coproduct(g, alpha)
        # coassociativity: both double coproducts give a(xyz)
        triple = func_of(
            (n, n, n),
            [
                scalars_of(alpha)[g.table[g.table[x][y]][z]]
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ],
        )
        left = func_of(
            (n, n, n),
            [
                scalar_at(cop, g.table[x][y], z)
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ],
        )
        right = func_of(
            (n, n, n),
            [
                scalar_at(cop, x, g.table[y][z])
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ],
        )
        assert left == triple
        assert right == triple

        # counit laws: slicing the coproduct at the identity recovers alpha
        assert [scalar_at(cop, g.identity, y) for y in range(n)] == scalars_of(alpha)
        assert [scalar_at(cop, x, g.identity) for x in range(n)] == scalars_of(alpha)

        # antipode laws: multiplication in this algebra is pointwise, so
        # m(S x id)cop evaluates the coproduct at inverse pairs
        counit_unit = [scalar(counit(g, alpha)) * v for v in scalars_of(Func.ones((n,)))]
        left_antipode = [scalar_at(cop, g.inv(z), z) for z in range(n)]
        right_antipode = [scalar_at(cop, z, g.inv(z)) for z in range(n)]
        assert left_antipode == counit_unit
        assert right_antipode == counit_unit

        # antipode is an algebra involution here: S(S(a)) = a
        assert antipode(g, antipode(g, alpha)) == alpha


def test_adjoint_coaction_is_right_coaction():
    g = symmetric(3)
    n = g.order
    for alpha in basis(g):
        ad = adjoint_coaction(g, alpha)
        # counit law: slice at identity recovers alpha
        assert [scalar_at(ad, x, g.identity) for x in range(n)] == scalars_of(alpha)
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
        counit(no_identity, Func.indicator((2,), (0,)))
    with pytest.raises(ValueError, match="inverses"):
        antipode(no_identity, Func.indicator((2,), (0,)))


def test_tensor_identification_consistency():
    g = cyclic(2)
    ind_e = Func.indicator((2,), (0,))
    ind_g = Func.indicator((2,), (1,))
    t = tensor_identify(ind_e, ind_g)
    assert t == Func.indicator((2, 2), (0, 1))
    # coproduct of ind_e on Z2 is ind_e x ind_e + ind_g x ind_g
    cop = coproduct(g, ind_e)
    expected = plus(tensor_identify(ind_e, ind_e), tensor_identify(ind_g, ind_g))
    assert cop == expected
