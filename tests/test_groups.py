import itertools

import pytest

from bridge import cyclic, direct_product, label, named
from qpb.groups import (
    FiniteGroup,
    RightAction,
    symmetric,
    validate_action,
    validate_group,
)


def compose_perms(a, b):
    # independent oracle: apply a, then b
    return tuple(b[a[i]] for i in range(len(a)))


def test_symmetric_table_matches_composition_oracle():
    g = symmetric(3)
    perms = list(itertools.permutations(range(3)))
    assert g.order == 6
    assert perms[g.identity] == (0, 1, 2)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            assert perms[g.table[i][j]] == compose_perms(a, b)


def test_symmetric_labels_and_inverses():
    g = symmetric(3)
    assert g.labels[0] == "012"
    assert label(g, g.identity) == "012"
    perms = list(itertools.permutations(range(3)))
    for i, p in enumerate(perms):
        q = perms[g.inv(i)]
        assert compose_perms(p, q) == (0, 1, 2)


def test_symmetric_is_nonabelian():
    g = symmetric(3)
    assert any(
        g.table[a][b] != g.table[b][a] for a in range(6) for b in range(6)
    )


def test_cyclic_tables():
    g = cyclic(4)
    assert g.table[1][3] == 0
    assert g.table[2][3] == 1
    assert g.identity == 0
    assert g.inv(1) == 3
    assert g.labels == ["e", "g", "g2", "g3"]


def test_direct_product_klein_four():
    g = direct_product(cyclic(2), cyclic(2))
    assert g.order == 4
    assert g.identity == 0
    # every element is its own inverse
    assert all(g.inv(a) == a for a in range(4))
    rep = validate_group(g)
    assert rep.passed


@pytest.mark.parametrize("g", [cyclic(1), cyclic(2), cyclic(3), cyclic(6), symmetric(3)])
def test_validate_group_passes(g):
    rep = validate_group(g)
    assert rep.passed
    assert named(rep, "group.identity").data == {"identity": 0}


def test_validate_group_catches_broken_associativity():
    # left-zero magma on {0,1} with a tweak: not associative
    table = [[0, 1], [1, 1]]
    g = FiniteGroup(table)
    rep = validate_group(g)
    # this particular table is associative but has no inverses for 1
    assert named(rep, "group.associativity").passed
    assert not named(rep, "group.inverses").passed

    bad = FiniteGroup([[1, 0], [0, 0]])
    rep2 = validate_group(bad)
    assert not rep2.passed
    w = named(rep2, "group.associativity").witness
    assert w is not None
    a, b, c = w
    assert bad.table[bad.table[a][b]][c] != bad.table[a][bad.table[b][c]]


def test_identity_not_at_index_zero():
    # x*y = x+y+1 mod 2 puts the identity at index 1
    g = FiniteGroup([[1, 0], [0, 1]])
    assert g.identity == 1
    assert validate_group(g).passed


def test_group_without_identity_reported():
    g = FiniteGroup([[0, 0], [0, 0]])
    assert g.identity is None
    rep = validate_group(g)
    assert not named(rep, "group.identity").passed
    assert not named(rep, "group.inverses").passed


def test_group_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="row 1 has length"):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(ValueError, match="out of range at row 0, column 1"):
        FiniteGroup([[0, 7], [1, 0]])
    with pytest.raises(ValueError, match="empty"):
        FiniteGroup([])


def test_conjugation_convention():
    g = symmetric(3)
    for a in range(6):
        for b in range(6):
            assert g.conj(a, b) == g.mul(g.mul(g.inv(b), a), b)


def test_right_action_validation():
    g = cyclic(2)
    act = RightAction(g, [[0, 2], [1, 3], [2, 0], [3, 1]])
    rep = validate_action(act)
    assert rep.passed


def test_right_action_unit_failure_witness():
    g = cyclic(2)
    act = RightAction(g, [[1, 0], [0, 1]])  # identity column wrong at p=0
    rep = validate_action(act)
    assert not named(rep, "action.unit").passed
    assert named(rep, "action.unit").witness == (0,)


def test_right_action_compatibility_failure_witness():
    g = cyclic(2)
    # corrupt one entry of the shift-by-two table
    act = RightAction(g, [[0, 1], [1, 3], [2, 0], [3, 1]])
    rep = validate_action(act)
    assert not named(rep, "action.compatibility").passed
    p, a, b = named(rep, "action.compatibility").witness
    assert act.table[act.table[p][a]][b] != act.table[p][g.table[a][b]]


def test_right_action_freeness_witness():
    g = cyclic(2)
    act = RightAction(g, [[0, 0], [1, 1]])
    rep = validate_action(act)
    assert not named(rep, "action.freeness").passed
    assert named(rep, "action.freeness").witness == (0, 1)


def test_action_constructor_rejects_bad_shapes():
    g = cyclic(2)
    with pytest.raises(ValueError, match="row 0 has length"):
        RightAction(g, [[0], [1, 0]])
    with pytest.raises(ValueError, match="out of range at row 1, column 1"):
        RightAction(g, [[0, 1], [1, 9]])
