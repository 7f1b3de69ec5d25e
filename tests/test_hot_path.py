"""Exact arithmetic on the curvature routes and in the checks runs on
ints, not Fractions and not one Scalar operation per term.

`Scalar` keeps its value as a canonical integer triple, so building a
curvature along either route and comparing the two routes must enter no
function of the `fractions` module.  Every table is stored as a
common-denominator int view, and the kernels, validators and route
comparisons read the views, so building either route, and running a
whole connection or curvature suite, must enter no `Scalar` arithmetic
or comparison method either; a curvature dump makes no Scalar per
entry.  A document parses straight to int views, so parsing makes no
Scalar at all, and neither does a check outside freeness and exactness
(whose `linalg` rows are Scalars) or a dump.  Each case runs under a
profile hook that records every Python frame the work enters.  The
curvature routes also make no table of the
curvature's size on the way: a dump, measured under `tracemalloc`,
peaks below one pointer list of its n³·m entries, and the potential
route on the base makes no convolution of that size.
"""

import contextlib
import copy
import fractions
import json
import os
import sys
import tracemalloc

import pytest

import qpb.scalars
from bridge import curvature, is_zero, potential_curvature
from qpb.connection import star_delta
from qpb.cli import main
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.funcs import FormValuedMap
from qpb.groups import symmetric
from qpb.potentials import connection_from_potential, lift_base_potential, potential_from_transition
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
        routes["conjugated"] = potential_curvature(gamma, b)

    assert fraction_frames(direct) == []
    assert fraction_frames(conjugated) == []
    assert not is_zero(routes["direct"])
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
        routes["conjugated"] = potential_curvature(gamma, b)

    assert scalar_arithmetic_frames(direct) == []
    assert scalar_arithmetic_frames(conjugated) == []
    assert not is_zero(routes["direct"])
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


def scalars_made(work) -> list[str]:
    """`Scalar.__init__` and `_make` calls that `work()` enters: every
    Scalar is made through one of them."""
    return [name for name in frames_in(qpb.scalars.__file__, work) if name in ("__init__", "_make")]


def test_the_hook_sees_scalars_made():
    assert scalars_made(lambda: Scalar(fractions.Fraction(1, 2)) + Scalar(1)) == [
        "__init__",
        "__init__",
        "_make",
    ]


@pytest.mark.parametrize(
    "raw",
    [_gaussian(copy.deepcopy(S3X2)), fixture_documents()["fix_prod.json"]],
    ids=["s3x2-gaussian", "fix_prod"],
)
def test_parsing_makes_no_scalar(raw):
    text = json.dumps(raw)
    docs = []
    assert scalars_made(lambda: docs.append(parse_spec(text))) == []
    densities = [decl.payload for decl in docs[0].connections if decl.kind == "gamma_hat"]
    assert densities and not is_zero(densities[0])


def test_a_check_outside_freeness_and_exactness_and_each_dump_make_no_scalar(tmp_path, capsys):
    raw = fixture_documents()["fix_prod.json"]
    doc = parse_spec(json.dumps(raw))
    suites = ["group", "action", "comodule", "trivialization"]
    for name in ("cls", "rational"):
        suites += [f"connection:{name}", f"curvature:{name}", f"gauge:twist:{name}"]
    reports = []
    assert scalars_made(lambda: reports.append(run_checks(doc, suites))) == []
    assert reports[0].passed and len(reports[0].suites) == len(suites)
    path = tmp_path / "fix_prod.json"
    path.write_text(json.dumps(raw))
    sizes = []
    for name in ("cls", "rational"):
        codes = []
        args = ["curvature", str(path), "--connection", name]
        made = scalars_made(lambda: codes.append(main(args)))
        assert made == [] and codes == [0]
        sizes.append(len(json.loads(capsys.readouterr().out)["entries"]))
    # the classical connection is flat; the rational one is not
    assert sizes[0] == 0 < sizes[1]


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


def _s3x3() -> dict:
    # the S3 product on three base points: n = 18 points, m = 6
    doc = copy.deepcopy(S3X2)
    doc["name"] = "s3x3"
    doc["product_bundle"]["base_size"] = 3
    doc["connections"][0]["transition"] = [[0, 3, 1], [2, 0, 4], [5, 2, 0]]
    cell = ["0", "1/2", "-1/3", "0", "-1/6", "0"]
    doc["connections"][1]["density"] = [
        [["0"] * 6 if x == y else cell for y in range(3)] for x in range(3)
    ]
    doc["gauges"][0]["tau_hat"] = [1, 4, 2]
    return doc


@pytest.mark.parametrize("name", ["cls", "rat"])
def test_a_curvature_dump_holds_no_table_of_the_curvatures_size(tmp_path, name):
    # the dump prints from the rows of one point pair at a time; a single
    # list of the curvature's n³·m entries would take n³·m·8 bytes of
    # pointers alone
    path = tmp_path / "s3x3.json"
    path.write_text(json.dumps(_s3x3()))
    n, m = 18, 6
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # the first call loads what the dump needs, outside the measurement
        assert main(["curvature", str(path), "--connection", name]) == 0
        tracemalloc.start()
        try:
            assert main(["curvature", str(path), "--connection", name]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < n**3 * m * 8


def convolution_sizes(work) -> list[int]:
    """The output size of every `_convolve` call that `work()` makes."""
    sizes = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "_convolve":
            sizes.append(frame.f_locals["entries"])

    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(None)
    return sizes


@pytest.mark.parametrize("name", ["cls", "rat"])
def test_route_two_on_a_base_potential_convolves_nothing_of_total_space_size(name):
    doc = parse_spec(json.dumps(_s3x3()))
    b = doc.bundle
    decl = doc.connection(name)
    base = decl.payload if decl.kind == "gamma_hat" else potential_from_transition(decl.payload)
    curvature_size = b.total_size**3 * b.group.order
    routes = []
    sizes = convolution_sizes(lambda: routes.append(potential_curvature(base, b)))
    assert [s for s in sizes if s >= curvature_size] == []
    # nor does the whole suite: route 1 is made from rows, and building
    # the connection convolves degree-1 maps only
    reports = []
    sizes = convolution_sizes(lambda: reports.append(run_checks(doc, [f"curvature:{name}"])))
    assert [s for s in sizes if s >= curvature_size] == []
    assert reports[0].passed
    # the same table as the potential lifted to the total space, and as route 1
    assert routes[0] == potential_curvature(lift_base_potential(base, b), b)
    assert routes[0] == curvature(connection_from_potential(lift_base_potential(base, b), b))
    assert not is_zero(routes[0])


def test_the_convolution_hook_sees_a_star_product():
    g = FormValuedMap.from_point_table(symmetric(3), [1, 2])
    # one call per part of the product, real and imaginary
    assert convolution_sizes(lambda: star_delta(g, g)) == [2 * 6, 2 * 6]
