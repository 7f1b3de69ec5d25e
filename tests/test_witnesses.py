"""Every check that compares two index tables names the row-major first
failure of a brute-force scan.

The group, action, transition, frame and automorphism checks gather
their two sides a block at a time and take the verdict and the witness
from `funcs.first_difference`.  Each property here keeps the plain
row-major scan those checks replaced and asserts the same verdict and
witness on random small tables: cyclic groups, S3 and direct products,
single-entry mutants of them, and random tables that are not
associative or have no identity; actions that are neither free nor
permutations; transitions that are not cocycles; frames and fiber maps
that are not equivariant.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridge import cyclic, direct_product, named
from qpb.bundle import validate_trivialization
from qpb.gauge import BundleAutomorphism, tau_extract, validate_automorphism
from qpb.groups import (
    BundleSpec,
    FiniteGroup,
    RightAction,
    TransitionMap,
    make_product,
    symmetric,
    validate_action,
    validate_group,
)
from qpb.potentials import is_cocycle, validate_transition

PROPERTIES = settings(max_examples=100, deadline=None, database=None, derandomize=True)

GROUPS = [
    cyclic(1),
    cyclic(2),
    cyclic(3),
    cyclic(4),
    symmetric(3),
    direct_product(cyclic(2), cyclic(2)),
    direct_product(cyclic(2), cyclic(3)),
]


def row_major(shape, differs):
    """The first index tuple of a shape, in row-major order, at which
    `differs` holds, or None."""
    return next((i for i in itertools.product(*map(range, shape)) if differs(*i)), None)


def verdict(check):
    return check.passed, check.witness


def expected(witness):
    return witness is None, witness


def _table(draw, rows: int, width: int, bound: int) -> list[list[int]]:
    row = st.lists(st.integers(0, bound - 1), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def _mutated(draw, table: list[list[int]], bound: int) -> list[list[int]]:
    """The table with one entry replaced, or as it is."""
    table = [list(row) for row in table]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(table) - 1))
        j = draw(st.integers(0, len(table[i]) - 1))
        table[i][j] = draw(st.integers(0, bound - 1))
    return table


@st.composite
def groups(draw) -> FiniteGroup:
    """A group, a single-entry mutant of one, or a random table."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return FiniteGroup(_table(draw, n, n, n))
    g = draw(st.sampled_from(GROUPS))
    return FiniteGroup(_mutated(draw, g.table, g.order))


@st.composite
def actions(draw, g: FiniteGroup) -> RightAction:
    """A product bundle's translation or a mutant of it, or a random table
    of points: seldom free and seldom made of permutations."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return RightAction(g, _table(draw, n, g.order, n))
    table = make_product(draw(st.integers(1, 3)), g).action.table
    return RightAction(g, _mutated(draw, table, len(table)))


@st.composite
def with_inverses(draw) -> FiniteGroup:
    """A group of GROUPS, or a random table that has an identity and
    two-sided inverses; such a table may still not associate."""
    return draw(groups().filter(lambda g: g.inv_table is not None))


@PROPERTIES
@given(groups())
def test_associativity_names_the_first_failing_triple(g):
    t = g.table
    ref = row_major((g.order,) * 3, lambda a, b, c: t[t[a][b]][c] != t[a][t[b][c]])
    assert verdict(named(validate_group(g), "group.associativity")) == expected(ref)


@PROPERTIES
@given(st.data())
def test_action_unit_and_compatibility_name_the_first_failure(data):
    g = data.draw(groups())
    action = data.draw(actions(g))
    report = validate_action(action)
    if g.identity is None:
        for name in ("action.unit", "action.compatibility"):
            assert named(report, name).data == {"reason": "group has no identity"}
        return
    a, t, e = action.table, g.table, g.identity
    unit = row_major((action.total_size,), lambda p: a[p][e] != p)
    compat = row_major(
        (action.total_size, g.order, g.order), lambda p, x, y: a[a[p][x]][y] != a[p][t[x][y]]
    )
    assert verdict(named(report, "action.unit")) == expected(unit)
    assert verdict(named(report, "action.compatibility")) == expected(compat)


@st.composite
def transitions(draw) -> TransitionMap:
    """A random table, or the cocycle τ(x)⁻¹·τ(y) of a gauge table or a
    mutant of it."""
    g = draw(with_inverses())
    nb = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return TransitionMap(g, _table(draw, nb, nb, g.order))
    tau = draw(st.lists(st.integers(0, g.order - 1), min_size=nb, max_size=nb))
    table = [[g.table[g.inv(x)][y] for y in tau] for x in tau]
    return TransitionMap(g, _mutated(draw, table, g.order))


@PROPERTIES
@given(transitions())
def test_transition_diagonal_and_cocycle_name_the_first_failure(tm):
    t, mul, e = tm.table, tm.group.table, tm.group.identity
    nb = tm.base_size
    diagonal = row_major((nb,), lambda x: t[x][x] != e)
    cocycle = row_major((nb,) * 3, lambda x, y, z: mul[t[x][y]][t[y][z]] != t[x][z])
    check = named(validate_transition(tm), "transition.diagonal_identity")
    assert verdict(check) == expected(diagonal)
    assert is_cocycle(tm) == expected(cocycle)


def test_a_transition_without_an_identity_fails_its_first_diagonal_entry():
    magma = FiniteGroup([[1, 1], [1, 1]])
    report = validate_transition(TransitionMap(magma, [[0, 1], [1, 0]]))
    check = named(report, "transition.diagonal_identity")
    assert verdict(check) == (False, (0,))


@PROPERTIES
@given(st.data())
def test_frame_equivariance_names_the_first_failing_pair(data):
    g = data.draw(groups())
    action = data.draw(actions(g))
    n = action.total_size
    phi = data.draw(st.lists(st.integers(0, g.order - 1), min_size=n, max_size=n))
    report = validate_trivialization(BundleSpec(g, action, phi))
    check = named(report, "trivialization.equivariance")
    if g.identity is None or g.inv_table is None:
        assert check.data == {"reason": "group lacks identity or inverses"}
        return
    a, t = action.table, g.table
    ref = row_major((n, g.order), lambda p, x: phi[a[p][x]] != t[phi[p]][x])
    assert verdict(check) == expected(ref)


@PROPERTIES
@given(st.data())
def test_a_product_frame_and_its_mutants_name_the_first_failing_pair(data):
    g = data.draw(st.sampled_from(GROUPS))
    b = make_product(data.draw(st.integers(1, 3)), g)
    phi = _mutated(data.draw, [b.phi], g.order)[0]
    a, t = b.action.table, g.table
    ref = row_major((b.total_size, g.order), lambda p, x: phi[a[p][x]] != t[phi[p]][x])
    check = named(validate_trivialization(b.with_phi(phi)), "trivialization.equivariance")
    assert verdict(check) == expected(ref)


@st.composite
def fiber_maps(draw) -> BundleAutomorphism:
    """Left translations by a gauge table, mutants of them, or random
    fiber maps."""
    g = draw(groups())
    nb, m = draw(st.integers(1, 3)), g.order
    if draw(st.booleans()):
        return BundleAutomorphism(g, _table(draw, nb, m, m))
    tau = draw(st.lists(st.integers(0, m - 1), min_size=nb, max_size=nb))
    return BundleAutomorphism(g, _mutated(draw, [g.table[x] for x in tau], m))


@PROPERTIES
@given(fiber_maps())
def test_automorphism_equivariance_and_read_back_name_the_first_failure(xi):
    g, tr = xi.group, xi.trans
    t, m = g.table, g.order
    ref = row_major((xi.base_size, m, m), lambda x, a, c: tr[x][t[a][c]] != t[tr[x][a]][c])
    assert verdict(named(validate_automorphism(xi), "automorphism.equivariance")) == expected(ref)
    if g.identity is None:
        return
    e = g.identity
    mismatch = row_major((xi.base_size, m), lambda x, a: tr[x][a] != t[tr[x][e]][a])
    if mismatch is None:
        assert tau_extract(xi).table == [row[e] for row in tr]
    else:
        x, a = mismatch
        with pytest.raises(ValueError) as info:
            tau_extract(xi)
        assert str(info.value) == (
            f"fiber map at base point {x} is not a left translation"
            f" (mismatch at fiber coordinate {a})"
        )
