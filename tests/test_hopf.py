import pytest

from bridge import cyclic, direct_product, func_of, scalar, scalar_at, scalars_of, tensor_identify
from conftest import support
from qpb.funcs import Func
from qpb.groups import FiniteGroup, symmetric
from qpb.hopf import HopfAlgebra
from qpb.scalars import ONE, ZERO


def test_coproduct_on_cyclic_two_indicator():
    h = HopfAlgebra(cyclic(2))
    ind_g = Func.indicator((2,), (1,))
    cop = h.coproduct(ind_g)
    # pairs multiplying to g: (e,g) and (g,e)
    assert support(cop) == [(0, 1), (1, 0)]


def test_counit_reads_identity_value():
    h = HopfAlgebra(cyclic(3))
    assert scalar(h.counit(Func.indicator((3,), (0,)))) == ONE
    assert scalar(h.counit(Func.indicator((3,), (1,)))) == ZERO


def test_antipode_flips_inverse():
    g = cyclic(3)
    h = HopfAlgebra(g)
    ind = Func.indicator((3,), (1,))
    assert support(h.antipode(ind)) == [(2,)]  # inverse of g is g2


def test_ker_counit_projection():
    h = HopfAlgebra(cyclic(2))
    ind_e = Func.indicator((2,), (0,))
    proj = h.project_ker_counit(ind_e)
    assert h.is_ker_counit(proj)
    assert scalars_of(proj) == [ZERO, -ONE]


def test_adjoint_coaction_abelian_is_diagonal():
    g = cyclic(4)
    h = HopfAlgebra(g)
    for a in range(4):
        ad = h.adjoint_coaction(Func.indicator((4,), (a,)))
        # conjugation is trivial: support is {a} x G
        assert support(ad) == [(a, b) for b in range(4)]


def test_adjoint_coaction_symmetric_group_orbit():
    g = symmetric(3)
    h = HopfAlgebra(g)
    ind = Func.indicator((6,), (1,))
    ad = h.adjoint_coaction(ind)
    conjugates = {x for (x, _y) in support(ad)}
    # the conjugacy class of a transposition has three members
    assert len(conjugates) == 3


@pytest.mark.parametrize(
    "g", [cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2)), symmetric(3)]
)
def test_hopf_axioms_on_basis(g):
    h = HopfAlgebra(g)
    n = g.order
    for alpha in h.basis():
        cop = h.coproduct(alpha)
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
        counit_unit = [scalar(h.counit(alpha)) * v for v in scalars_of(h.one())]
        left_antipode = [scalar_at(cop, g.inv(z), z) for z in range(n)]
        right_antipode = [scalar_at(cop, z, g.inv(z)) for z in range(n)]
        assert left_antipode == counit_unit
        assert right_antipode == counit_unit

        # antipode is an algebra involution here: S(S(a)) = a
        assert h.antipode(h.antipode(alpha)) == alpha




def test_adjoint_coaction_is_right_coaction():
    g = symmetric(3)
    h = HopfAlgebra(g)
    n = g.order
    for alpha in h.basis():
        ad = h.adjoint_coaction(alpha)
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
        HopfAlgebra(no_identity)


def test_tensor_identification_consistency():
    g = cyclic(2)
    h = HopfAlgebra(g)
    ind_e = Func.indicator((2,), (0,))
    ind_g = Func.indicator((2,), (1,))
    t = tensor_identify(ind_e, ind_g)
    assert t == Func.indicator((2, 2), (0, 1))
    # coproduct of ind_e on Z2 is ind_e x ind_e + ind_g x ind_g
    cop = h.coproduct(ind_e)
    expected = tensor_identify(ind_e, ind_e) + tensor_identify(ind_g, ind_g)
    assert cop == expected
