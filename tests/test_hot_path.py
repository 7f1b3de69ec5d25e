"""Exact arithmetic on the curvature routes runs on ints, not Fractions.

`Scalar` keeps its value as a canonical integer triple, so building a
curvature along either route and comparing the two routes must enter no
function of the `fractions` module.  Each case runs under a profile hook
that records every Python frame the work enters.
"""

import copy
import fractions
import json
import sys

import pytest

from qpb.connection import (
    connection_from_potential,
    curvature,
    curvature_from_potential,
    lift_base_potential,
)
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from test_golden import S3X2, _gaussian


def fraction_frames(work) -> list[str]:
    """Names of the `fractions` functions that `work()` enters."""
    entered = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(None)
    return entered


CASES = {
    "fix_prod-rational": (fixture_documents()["fix_prod.json"], "rational"),
    "s3x2-gaussian-rat": (_gaussian(copy.deepcopy(S3X2)), "rat"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_curvature_routes_enter_no_fraction_code(case):
    raw, name = CASES[case]
    doc = parse_spec(json.dumps(raw))
    b = doc.bundle
    gamma = lift_base_potential(doc.connection(name).payload, b)
    theta = connection_from_potential(gamma, b)
    routes = {}

    def direct():
        routes["direct"] = curvature(theta)

    def conjugated():
        routes["conjugated"] = curvature_from_potential(gamma, b)

    assert fraction_frames(direct) == []
    assert fraction_frames(conjugated) == []
    assert not routes["direct"].is_zero()
    agree = []
    assert fraction_frames(lambda: agree.append(routes["direct"] == routes["conjugated"])) == []
    assert agree == [True]


def test_the_hook_sees_fraction_code():
    assert fraction_frames(lambda: fractions.Fraction(1, 2) + fractions.Fraction(1, 3))
