"""Exact arithmetic on the curvature routes and in the checks runs on
ints, not Fractions and not one Scalar operation per term.

`Scalar` keeps its value as a canonical integer triple, so building a
curvature along either route and comparing the two routes must enter no
function of the `fractions` module.  Every table is stored as a
common-denominator int view, and the kernels, validators and route
comparisons read the views, so building either route, and running a
whole connection or curvature suite, must enter no `Scalar` arithmetic
or comparison method either; a curvature dump makes no Scalar per
entry.  Each case runs under a profile hook that records every Python
frame the work enters.
"""

import copy
import fractions
import json
import sys

import pytest

import qpb.scalars
from qpb.connection import (
    connection_from_potential,
    curvature,
    curvature_from_potential,
    lift_base_potential,
)
from qpb.cli import main
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.runner import run_checks
from qpb.scalars import Scalar
from test_golden import S3X2, _gaussian

SCALAR_ARITHMETIC = {"__add__", "__sub__", "__rsub__", "__mul__", "__neg__"}
SCALAR_COMPARISON = {"__eq__", "__bool__"}


def fraction_frames(work) -> list[str]:
    """Names of the `fractions` functions that `work()` enters."""
    return frames_in(fractions.__file__, work)


def scalar_arithmetic_frames(work, names=SCALAR_ARITHMETIC) -> list[str]:
    """Names of the `Scalar` arithmetic methods, or of `names`, that `work()` enters."""
    return [name for name in frames_in(qpb.scalars.__file__, work) if name in names]


def frames_in(filename: str, work) -> list[str]:
    """Names of the functions of one source file that `work()` enters."""
    entered = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == filename:
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


def route_inputs(case):
    raw, name = CASES[case]
    doc = parse_spec(json.dumps(raw))
    b = doc.bundle
    gamma = lift_base_potential(doc.connection(name).payload, b)
    return gamma, b, connection_from_potential(gamma, b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_curvature_routes_enter_no_fraction_code(case):
    gamma, b, theta = route_inputs(case)
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_curvature_routes_enter_no_scalar_arithmetic(case):
    gamma, b, theta = route_inputs(case)
    routes = {}

    def direct():
        routes["direct"] = curvature(theta)

    def conjugated():
        routes["conjugated"] = curvature_from_potential(gamma, b)

    assert scalar_arithmetic_frames(direct) == []
    assert scalar_arithmetic_frames(conjugated) == []
    assert not routes["direct"].is_zero()
    assert routes["direct"] == routes["conjugated"]


def test_the_hook_sees_scalar_arithmetic():
    half = Scalar(fractions.Fraction(1, 2))
    assert scalar_arithmetic_frames(lambda: (half + half) * half - -half) == [
        "__add__",
        "__mul__",
        "__neg__",
        "__sub__",
    ]


@pytest.mark.parametrize("suite", ["connection:rat", "curvature:rat", "connection:cls", "curvature:cls"])
def test_suites_enter_no_scalar_comparison_or_arithmetic(suite):
    # the Gaussian S3x2 document: complex entries over mixed denominators
    doc = parse_spec(json.dumps(_gaussian(copy.deepcopy(S3X2))))
    reports = []
    entered = scalar_arithmetic_frames(
        lambda: reports.append(run_checks(doc, [suite])), SCALAR_ARITHMETIC | SCALAR_COMPARISON
    )
    assert entered == []
    assert reports[0].passed and len(reports[0].checks) >= 3


def test_the_hook_sees_scalar_comparisons():
    names = SCALAR_ARITHMETIC | SCALAR_COMPARISON
    assert scalar_arithmetic_frames(lambda: bool(Scalar(1)) and Scalar(1) == Scalar(2), names) == [
        "__bool__",
        "__eq__",
    ]


def test_a_curvature_dump_makes_no_scalar_per_entry(tmp_path, monkeypatch, capsys):
    # every Scalar is made through scalars._make; a dump may make one per
    # literal of the document and one per distinct value it prints, but
    # not one per entry
    raw = _gaussian(copy.deepcopy(S3X2))
    path = tmp_path / "s3x2-gauss.json"
    path.write_text(json.dumps(raw))
    made = []
    make = qpb.scalars._make
    monkeypatch.setattr(qpb.scalars, "_make", lambda *abd: made.append(abd) or make(*abd))
    assert main(["curvature", str(path), "--connection", "rat"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    literals = sum(len(cell) for row in raw["connections"][1]["density"] for cell in row)
    distinct = {e["value"] for e in entries}
    assert len(entries) == 2592 and len(distinct) < 100
    assert len(made) <= len(distinct) + literals
