"""Shared generators for randomized exact-value tests, and the fixture
bundles.

All randomness is seeded per test, so failures replay deterministically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

from bridge import cyclic, indices, map_of, scalars_of
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.funcs import FormValuedMap
from qpb.groups import BundleSpec, FiniteGroup
from qpb.scalars import ZERO, Scalar

# small pool of exact values, mixing integers, fractions, and imaginary parts
_POOL = [
    Scalar(0),
    Scalar(0),
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Scalar(Fraction(1, 2)),
    Scalar(Fraction(-1, 3)),
    Scalar(Fraction(3, 4)),
    Scalar(0, 1),
    Scalar(Fraction(1, 2), Fraction(-1, 5)),
]


def support(view, shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The index tuples of the nonzero entries of a view of a shape, in
    row-major order."""
    return [idx for idx, v in zip(indices(shape), scalars_of(view)) if v]


def random_scalar(rng: Random) -> Scalar:
    return rng.choice(_POOL)


def random_form(size: int, degree: int, rng: Random) -> FormValuedMap:
    """A random universal form: a map over the one-element group that
    vanishes on adjacent repeats."""
    values = []
    for idx in indices((size,) * (degree + 1)):
        if any(idx[j] == idx[j + 1] for j in range(degree)):
            values.append(ZERO)
        else:
            values.append(random_scalar(rng))
    return map_of(cyclic(1), size, degree, values)


def random_degree0_map(group: FiniteGroup, size: int, rng: Random) -> FormValuedMap:
    return map_of(group, size, 0, [random_scalar(rng) for _ in range(size * group.order)])


def random_base_potential(group: FiniteGroup, base_size: int, rng: Random) -> FormValuedMap:
    """A valid base potential: zero on the diagonal, zero-sum group rows."""
    m = group.order
    density: list[Scalar] = []
    for x in range(base_size):
        for y in range(base_size):
            if x == y:
                density.extend([ZERO] * m)
                continue
            row = [random_scalar(rng) for _ in range(m - 1)]
            total = ZERO
            for v in row:
                total = total + v
            row.append(-total)
            density.extend(row)
    return map_of(group, base_size, 1, density)


def all_transition_maps(group: FiniteGroup, base_size: int):
    """Every transition table with identity diagonal, off-diagonal entries free."""
    from itertools import product

    from qpb.groups import TransitionMap

    e = group.identity
    offdiag = [(x, y) for x in range(base_size) for y in range(base_size) if x != y]
    for combo in product(range(group.order), repeat=len(offdiag)):
        table = [[e] * base_size for _ in range(base_size)]
        for (x, y), a in zip(offdiag, combo):
            table[x][y] = a
        yield TransitionMap(group, table)


def all_gauge_maps(group: FiniteGroup, base_size: int):
    from itertools import product

    from qpb.groups import GaugeMap

    for combo in product(range(group.order), repeat=base_size):
        yield GaugeMap(group, list(combo))


def framed(b: BundleSpec) -> BundleSpec:
    assert b.phi is not None
    return b


# ---------------------------------------------------------------------------
# the fixture bundles, each parsed from its document in `fixture_documents`


def _fixture(name: str) -> BundleSpec:
    return parse_spec(json.dumps(fixture_documents()[f"{name}.json"])).bundle


def fix_z2() -> BundleSpec:
    """Four points, two-element group, shift-by-two action, two orbits."""
    return _fixture("fix_z2")


def fix_s3() -> BundleSpec:
    """The symmetric group on three letters acting on itself."""
    return _fixture("fix_s3")


def fix_prod() -> BundleSpec:
    """Product bundle: two base points times a three-element cyclic group."""
    return _fixture("fix_prod")


def fix_nonfree() -> BundleSpec:
    """Trivial two-element-group action on two points; never free."""
    return _fixture("fix_nonfree")
