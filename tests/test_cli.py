"""Suite orchestration, report emission, and the command line tool."""

import collections
import copy
from fractions import Fraction
import json
import os
import subprocess
import sys

import pytest

from bridge import indices, map_of, parts, scalar, scalar_at, scalars_of, trivial_connection
import qpb
import qpb.bundle as bundle
import qpb.calculus as calculus
import qpb.connection as connection
import qpb.funcs as funcs
import qpb.potentials as potentials
import qpb.runner as runner
from conftest import fix_z2
from qpb import __version__, cli
from qpb.cli import main
from qpb.connection import Splitting
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.runner import ConfigError, curvature_payload, emit_report, run_checks
from qpb.scalars import ONE, Scalar
from qpb.views import parse_scalar
from test_golden import S3X2, _gaussian

Z2_CHECKS = [
    "group.associativity",
    "group.identity",
    "group.inverses",
    "action.unit",
    "action.compatibility",
    "action.freeness",
    "comodule.coassociativity",
    "comodule.counit",
    "comodule.multiplicativity",
    "comodule.unit",
    "freeness.direct",
    "freeness.rank",
    "exactness.surjectivity",
    "exactness.kernel_equals_horizontal",
    "trivialization.present",
    "trivialization.equivariance",
    "trivialization.section",
    "trivialization.psi_left_inverse",
    "trivialization.psi_right_inverse",
    "trivialization.psi_multiplicative",
    "trivialization.conv_inverse",
    "connection:cls.transition.diagonal_identity",
    "connection:cls.derived_potential.vanishing_on_diagonal",
    "connection:cls.derived_potential.unit_normalization",
    "connection:cls.classical_route_agreement",
    "connection:cls.form.vanishing_on_diagonal",
    "connection:cls.form.unit_normalization",
    "connection:cls.form.splitting_property",
    "connection:cls.form.ad_covariance",
    "connection:cls.splitting.section",
    "connection:cls.splitting.module",
    "connection:cls.splitting.covariance",
    "connection:cls.splitting_roundtrip",
    "curvature:cls.form_validity",
    "curvature:cls.route_agreement",
    "curvature:cls.classical_agreement",
    "curvature:cls.flat_iff_cocycle",
    "curvature:cls.computed",
    "gauge:flip:cls.automorphism.bijective",
    "gauge:flip:cls.automorphism.equivariance",
    "gauge:flip:cls.automorphism_roundtrip",
    "gauge:flip:cls.transform_routes",
    "gauge:flip:cls.transformed_validity",
    "gauge:flip:cls.classical_agreement",
]


def load_fixture(key: str):
    return parse_spec(json.dumps(fixture_documents()[key]))


def mutated_payload(key: str) -> dict:
    return copy.deepcopy(fixture_documents()[key])


def theta_payload() -> dict:
    """The z2 document extended by an explicit connection-form density."""
    payload = mutated_payload("fix_z2.json")
    theta = trivial_connection(fix_z2())
    density = [
        [[str(scalar_at(theta, p, q, c)) for c in range(2)] for q in range(4)]
        for p in range(4)
    ]
    payload["connections"].append({"name": "th", "kind": "theta", "density": density})
    return payload


# ---------------------------------------------------------------------------
# suite selection and orchestration


def test_default_run_pins_check_sequence():
    report = run_checks(load_fixture("fix_z2.json"), tool_version="1.2.3")
    assert report.suites == [
        "group",
        "action",
        "comodule",
        "freeness",
        "exactness",
        "trivialization",
        "connection:cls",
        "curvature:cls",
        "gauge:flip:cls",
    ]
    assert [c.name for c in report.checks] == Z2_CHECKS
    assert report.passed and report.exit_status == 0
    assert report.tool_version == "1.2.3"


def test_nonfree_run_fails_expected_checks():
    report = run_checks(load_fixture("fix_nonfree.json"))
    assert "trivialization" not in report.suites
    assert report.exit_status == 1
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == [
        "action.freeness",
        "freeness.direct",
        "freeness.rank",
        "exactness.freeness_required",
    ]
    assert report.first_failure().name == "action.freeness"
    assert report.first_failure().witness == (0, 1)


@pytest.mark.parametrize(
    "mul, identity",
    [
        # 0 is idempotent but no identity: group.identity names where it fails
        ([[0, 0], [0, 0]], {"witness": [0, 1], "data": None}),
        # no idempotent element at all
        ([[1, 1], [0, 0]], {"witness": None, "data": {"reason": "no idempotent element"}}),
        # a monoid: 0 is its identity, but 1 has no inverse
        ([[0, 1], [1, 1]], {"witness": None, "data": {"identity": 0}}),
    ],
)
def test_every_failure_without_an_identity_has_a_witness_or_a_reason(
    mul, identity, tmp_path, capsys
):
    # each table bare, and with a zero connection given as theta, whose
    # ad-covariance conjugates by inverses that the table lacks
    theta = {"name": "th", "kind": "theta", "density": [[["0", "0"], ["0", "0"]]] * 2}
    for connections in ([], [theta]):
        payload = {
            "format_version": 1,
            "group": {"mul": mul},
            "action": {"act": [[0, 1], [1, 0]]},
            "connections": connections,
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(payload))
        assert main(["check", str(path), "--format", "json"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        failed = [c for c in checks.values() if c["status"] == "fail"]
        assert len(failed) >= 3
        for c in failed:
            assert c["witness"] or (c["data"] or {}).get("reason"), c["name"]
        assert {k: checks["group.identity"][k] for k in identity} == identity
        if connections:
            cov = checks["connection:th.form.ad_covariance"]
            assert cov["status"] == "fail" and cov["witness"] is None
            assert cov["data"] == {"reason": "group lacks identity or inverses"}
        if checks["group.identity"]["status"] == "pass":
            continue
        # the rank of the canonical map means nothing without an identity,
        # and exactness passes the freeness reason on
        assert len(failed) >= 8
        for name in (
            "group.inverses",
            "action.compatibility",
            "action.freeness",
            "freeness.direct",
            "freeness.rank",
            "exactness.freeness_required",
        ):
            assert checks[name]["witness"] is None
            assert checks[name]["data"] == {"reason": "group has no identity"}


def _nonfree_with_classical() -> dict:
    payload = mutated_payload("fix_nonfree.json")
    payload["connections"] = [
        {"name": "cls", "kind": "classical", "transition": [[0, 0], [0, 0]]}
    ]
    return payload


@pytest.mark.parametrize(
    "payload, suites, reasons",
    [
        (
            lambda: mutated_payload("fix_nonfree.json"),
            ["trivialization"],
            {
                "trivialization.synthesized": (
                    "action is not free (freeness.direct: FAIL  witness=(0, 1))"
                ),
            },
        ),
        (
            _nonfree_with_classical,
            ["connection:cls", "curvature:cls"],
            {
                "connection:cls.frame_available": (
                    "bundle has no trivialization and none could be synthesized"
                ),
                "curvature:cls.canonicalized": (
                    "bundle has no trivialization and none could be synthesized"
                ),
            },
        ),
    ],
    ids=["synthesized", "frame_available-and-canonicalized"],
)
def test_a_missing_frame_fails_with_its_reason(payload, suites, reasons, tmp_path, capsys):
    path = tmp_path / "nonfree.json"
    path.write_text(json.dumps(payload()))
    args = ["check", str(path), "--format", "json"]
    for suite in suites:
        args += ["--suite", suite]
    assert main(args) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {c["name"]: c for c in checks if c["status"] == "fail"}
    assert sorted(failed) == sorted(reasons)
    for name, reason in reasons.items():
        assert failed[name]["witness"] is None
        assert failed[name]["data"] == {"reason": reason}


def test_trivialization_synthesized_when_absent():
    payload = mutated_payload("fix_z2.json")
    del payload["trivialization"]
    payload["connections"] = []
    payload["gauges"] = []
    report = run_checks(parse_spec(json.dumps(payload)))
    assert "trivialization" in report.suites
    synth = next(c for c in report.checks if c.name == "trivialization.synthesized")
    assert synth.passed
    assert synth.data == {"phi": [0, 0, 1, 1]}
    assert report.passed


def test_requested_suites_run_in_canonical_order():
    doc = load_fixture("fix_z2.json")
    report = run_checks(doc, ["curvature:cls", "group", "group"])
    assert report.suites == ["group", "curvature:cls"]
    heads = {c.name.split(".")[0] for c in report.checks}
    assert heads == {"group", "curvature:cls"}


def test_unknown_suite_requests():
    doc = load_fixture("fix_z2.json")
    with pytest.raises(ConfigError, match="unknown suite 'bogus'"):
        run_checks(doc, ["bogus"])
    with pytest.raises(ConfigError, match="no connection named 'nope'"):
        run_checks(doc, ["connection:nope"])
    with pytest.raises(ConfigError, match="no gauge named 'nope'"):
        run_checks(doc, ["gauge:nope:cls"])
    with pytest.raises(ConfigError, match="no connection named 'nope'"):
        run_checks(doc, ["gauge:flip:nope"])


def test_gauge_suite_refuses_theta_kind():
    doc = parse_spec(json.dumps(theta_payload()))
    with pytest.raises(ConfigError, match="kind theta"):
        run_checks(doc, ["gauge:flip:th"])
    # the default selection skips the pair instead
    report = run_checks(doc)
    assert "gauge:flip:th" not in report.suites
    assert "connection:th" in report.suites and "curvature:th" in report.suites
    assert report.passed
    curv = next(c for c in report.checks if c.name == "curvature:th.computed")
    assert curv.data == {"nonzero": False}


@pytest.mark.parametrize("change", ["halved", "imaginary"])
def test_strong_route_agreement_compares_whole_values(monkeypatch, change):
    # a direct route whose view differs from the connection form's only in
    # its denominator, or only in one imaginary part, must not agree
    direct = potentials.strong_connection_direct

    def changed(gamma, b):
        f = direct(gamma, b)
        values = scalars_of(f)
        if change == "halved":
            values = [v * Scalar(Fraction(1, 2)) for v in values]
        else:
            k = next(i for i, v in enumerate(values) if v)
            values[k] = values[k] * Scalar(1, 1)
        return map_of(f.group, f.size, f.degree, values)

    monkeypatch.setattr(potentials, "strong_connection_direct", changed)
    report = run_checks(load_fixture("fix_prod.json"), ["connection:rational"])
    assert not report["connection:rational.strong_route_agreement"].passed


def test_gamma_hat_connection_check_names():
    report = run_checks(load_fixture("fix_prod.json"))
    names = [c.name for c in report.checks]
    assert "connection:rational.base_potential.vanishing_on_diagonal" in names
    assert "connection:rational.lifted_potential.translation_invariance" in names
    assert "connection:rational.strong_route_agreement" in names
    assert "curvature:rational.route_agreement" in names
    assert "gauge:twist:rational.transform_routes" in names
    assert report.passed


def test_non_equivariant_phi_fails_and_skips_downstream():
    payload = mutated_payload("fix_z2.json")
    payload["trivialization"]["phi"] = [0, 0, 0, 1]
    report = run_checks(parse_spec(json.dumps(payload)), ["trivialization"])
    assert report.exit_status == 1
    names = [c.name for c in report.checks]
    assert "trivialization.equivariance" in names
    assert not any(n.startswith("trivialization.psi") for n in names)


def test_rejected_splitting_reason_matches_theta_from_splitting(monkeypatch):
    # a valid connection form always yields a valid splitting, so the
    # runner's rejection path is reached by substituting empty columns;
    # theta_from_splitting must not run on the splitting it rejects
    def zero_splitting(theta, b):
        return Splitting(b, 1, [{} for _ in range(4)])

    def unreachable(sigma, b):
        raise AssertionError("theta_from_splitting ran on a rejected splitting")

    monkeypatch.setattr(connection, "splitting_from_theta", zero_splitting)
    monkeypatch.setattr(connection, "theta_from_splitting", unreachable)
    report = run_checks(load_fixture("fix_z2.json"), ["connection:cls"])
    assert report.first_failure().name == "connection:cls.splitting.section"
    roundtrip = report.checks[-1]
    assert roundtrip.name == "connection:cls.splitting_roundtrip"
    assert not roundtrip.passed
    assert roundtrip.data == {
        "reason": "splitting rejected: splitting.section: FAIL  witness=(0, 1, 0, 1)"
    }


INPUT_VALIDATORS = ("validate_transition", "validate_base_potential", "validate_potential")


@pytest.mark.parametrize("key", ["fix_z2.json", "fix_prod.json"])
def test_each_connection_input_validated_once(monkeypatch, key):
    seen = []

    def counting(name, validate):
        def wrapper(table, *args):
            seen.append((name, table))
            return validate(table, *args)

        return wrapper

    for name in INPUT_VALIDATORS:
        monkeypatch.setattr(potentials, name, counting(name, getattr(potentials, name)))
    doc = load_fixture(key)
    assert run_checks(doc).passed
    counts = collections.Counter((name, id(table)) for name, table in seen)
    assert counts and max(counts.values()) == 1
    for decl in doc.connections:
        if decl.kind != "theta":
            assert any(table is decl.payload for _, table in seen)


def test_wrong_gauge_transformed_transition_fails_classical_agreement(
    tmp_path, capsys, monkeypatch
):
    # the wrong table keeps an identity diagonal, so it passes its own
    # validation and only the comparison with the potential route sees it
    transform = potentials.gauge_transform_transition

    def wrong_transform(tm, tau):
        table = [list(row) for row in transform(tm, tau).table]
        e = tm.group.identity
        table[0][1] = tm.group.table[table[0][1]][next(a for a in range(tm.group.order) if a != e)]
        return potentials.TransitionMap(tm.group, table)

    monkeypatch.setattr(potentials, "gauge_transform_transition", wrong_transform)
    path = write_fixture(tmp_path, "fix_z2.json")
    assert main(["check", path, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert failed == ["gauge:flip:cls.classical_agreement"]


def test_transform_routes_disagreement_names_a_witness(tmp_path, capsys, monkeypatch):
    # the convolution route of the gauge transform, off by one at (x, y, c) = (0, 1, 1)
    real = potentials._conjugate_by_convolution

    def shifted(t_fv, t_inv_fv, gamma):
        out = real(t_fv, t_inv_fv, gamma)
        density = list(scalars_of(out))
        density[3] = density[3] + ONE
        return map_of(out.group, out.size, out.degree, density)

    monkeypatch.setattr(potentials, "_conjugate_by_convolution", shifted)
    path = write_fixture(tmp_path, "fix_z2.json")
    assert main(["check", path, "--suite", "gauge:flip:cls", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"]
    assert [c["name"] for c in checks] == [
        "gauge:flip:cls.automorphism.bijective",
        "gauge:flip:cls.automorphism.equivariance",
        "gauge:flip:cls.automorphism_roundtrip",
        "gauge:flip:cls.transform_routes",
    ]
    routes = checks[-1]
    assert routes["status"] == "fail"
    assert routes["witness"] == [0, 1, 1]
    assert routes["data"] is None


@pytest.mark.parametrize("key, framed", [("fix_nonfree.json", False), ("fix_z2.json", True)])
def test_freeness_decided_once_per_check(tmp_path, capsys, key, framed):
    # fix_nonfree has no trivialization, so the run also tries to synthesize one
    path = write_fixture(tmp_path, key)
    assert ("trivialization" in fixture_documents()[key]) == framed
    code = bundle.check_freeness.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        main(["check", path, "--format", "json"])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert len(calls) == 1


def test_curvature_form_validity_names_its_witness():
    # one nonzero diagonal entry of theta, at (p, p, c) = (2, 2, 1), leaves
    # dθ nonzero on repeated points; θ⋆θ moves it into slice 0 first
    payload = theta_payload()
    payload["connections"][-1]["density"][2][2][1] = "1"
    report = run_checks(parse_spec(json.dumps(payload)), ["curvature:th"])
    check = report.checks[0]
    assert check.name == "curvature:th.form_validity"
    assert not check.passed
    assert check.witness == (0, 0, 2, 2)


def _broken_inputs() -> dict:
    payload = mutated_payload("fix_prod.json")
    payload["connections"][0]["transition"][0][0] = 1
    payload["connections"][1]["density"][0][1] = ["1", "-1/2", "0"]
    return payload


def test_curvature_suite_alone_gives_the_guard_reason():
    doc = parse_spec(json.dumps(_broken_inputs()))
    reasons = {
        "classical": "transition map rejected: transition.diagonal_identity: FAIL  witness=(0,)",
        "gamma_hat": (
            "base potential rejected: base_potential.unit_normalization: FAIL  witness=(0, 1)"
        ),
    }
    for decl in doc.connections:
        for suites in ([f"curvature:{decl.name}"], None):
            report = run_checks(doc, suites)
            name = f"curvature:{decl.name}.canonicalized"
            check = next(c for c in report.checks if c.name == name)
            assert not check.passed
            assert check.data == {"reason": reasons[decl.kind]}


def test_curvature_suite_alone_gives_the_potential_guard_reason():
    payload = mutated_payload("fix_z2.json")
    # a total-space potential with one group row that does not sum to zero
    density = [[["0", "0"] for _ in range(4)] for _ in range(4)]
    density[0][1] = ["1", "0"]
    payload["connections"].append({"name": "bad", "kind": "gamma", "density": density})
    report = run_checks(parse_spec(json.dumps(payload)), ["curvature:bad"])
    assert report.checks[0].name == "curvature:bad.canonicalized"
    assert report.checks[0].data == {
        "reason": "potential rejected: potential.unit_normalization: FAIL  witness=(0, 1)"
    }


# ---------------------------------------------------------------------------
# report emission


def test_text_report_shape():
    doc = load_fixture("fix_z2.json")
    report = run_checks(doc, tool_version="0.1.0")
    text = emit_report(report, "text")
    lines = text.splitlines()
    assert lines[0] == f"qpb 0.1.0  document=fix-z2  digest={doc.digest[:12]}"
    assert lines[-1] == "ALL CHECKS PASSED (44 checks)"
    assert len(lines) == 44 + 2


def test_text_report_failure_tail():
    report = run_checks(load_fixture("fix_nonfree.json"))
    lines = emit_report(report, "text").splitlines()
    assert lines[-1] == (
        "FAILED (4 of 13 checks): first failure action.freeness witness=(0, 1)"
    )


def test_json_report_structure_and_stability():
    doc = load_fixture("fix_nonfree.json")
    report = run_checks(doc)
    blob = emit_report(report, "json")
    assert blob == emit_report(report, "json")
    payload = json.loads(blob)
    assert list(payload) == [
        "format_version",
        "tool",
        "tool_version",
        "input_digest",
        "document_name",
        "suites",
        "checks",
        "summary",
        "exit_status",
    ]
    assert payload["format_version"] == 1
    assert payload["tool"] == "qpb"
    assert payload["input_digest"] == doc.digest
    assert payload["document_name"] == "fix-nonfree"
    assert payload["exit_status"] == 1
    assert payload["summary"] == {
        "total": 13,
        "failed": 4,
        "first_failure": "action.freeness",
    }
    freeness = next(c for c in payload["checks"] if c["name"] == "action.freeness")
    assert freeness == {
        "name": "action.freeness",
        "status": "fail",
        "witness": [0, 1],
        "data": None,
    }


def test_emit_report_rejects_unknown_format():
    report = run_checks(load_fixture("fix_z2.json"))
    with pytest.raises(ConfigError, match="unknown format"):
        emit_report(report, "yaml")


# ---------------------------------------------------------------------------
# curvature payloads


def test_curvature_payload_sparse_entries(tmp_path, capsys):
    doc = load_fixture("fix_z2.json")
    payload = curvature_payload(doc, "cls", tool_version="0.1.0")
    keys = [
        "format_version",
        "tool",
        "tool_version",
        "input_digest",
        "document_name",
        "connection",
        "kind",
        "degree",
        "total_size",
        "group_order",
        "entries",
    ]
    assert list(payload) == keys
    assert payload["kind"] == "classical" and payload["degree"] == 2
    assert payload["total_size"] == 4 and payload["group_order"] == 2
    # the entries are read from the dump's bytes
    dump = json.loads(_dump_text(capsys, write_fixture(tmp_path, "fix_z2.json"), "cls"))
    assert list(dump) == keys
    entries = {tuple(e["index"]): e["value"] for e in dump["entries"]}
    assert entries[(0, 1, 0, 1)] == "1"
    assert entries[(0, 1, 0, 0)] == "-1"
    assert entries[(0, 3, 0, 1)] == "1"
    assert all(v != "0" for v in entries.values())

    with pytest.raises(ConfigError, match="no connection named"):
        curvature_payload(doc, "nope")


def test_curvature_payload_flat_and_unframed():
    flat = curvature_payload(load_fixture("fix_s3.json"), "flat")
    assert list(flat["entries"]) == []

    payload = mutated_payload("fix_nonfree.json")
    payload["connections"] = [
        {"name": "cls", "kind": "classical", "transition": [[0, 0], [0, 0]]}
    ]
    doc = parse_spec(json.dumps(payload))
    with pytest.raises(ValueError, match="no trivialization"):
        curvature_payload(doc, "cls")


def _dump_text(capsys, path: str, name: str) -> str:
    """The standard output of `qpb curvature` on one connection."""
    assert main(["curvature", path, "--connection", name]) == 0
    return capsys.readouterr().out


def _reference_dump(raw: dict, name: str) -> dict:
    """The dump of a connection as a dict, its entries made from the
    Scalar values of `connection.curvature` of its connection form."""
    doc = parse_spec(json.dumps(raw))
    b = doc.bundle
    decl = doc.connection(name)
    if decl.kind == "theta":
        theta = decl.payload
    elif decl.kind == "classical":
        theta = potentials.classical_connection(decl.payload, b)
    else:
        gamma = potentials.lift_base_potential(decl.payload, b)
        theta = potentials.connection_from_potential(gamma, b)
    f = connection.curvature(theta)
    return {
        "format_version": 1,
        "tool": "qpb",
        "tool_version": __version__,
        "input_digest": doc.digest,
        "document_name": doc.name,
        "connection": name,
        "kind": decl.kind,
        "degree": 2,
        "total_size": f.size,
        "group_order": f.group.order,
        "entries": [
            {"index": list(idx), "value": str(v)}
            for idx, v in zip(indices(f.shape), scalars_of(f))
            if v
        ],
    }


def _imaginary(doc: dict) -> dict:
    # the rational gamma_hat times i: its curvature i dγ - γ⋆γ has entries
    # with no real part
    doc["name"] = "s3x2-imag"
    density = doc["connections"][1]["density"]
    for row in density:
        for cell in row:
            cell[:] = [v if v == "0" else f"{v}i" for v in cell]
    return doc


def _diagonal_theta() -> dict:
    # a connection-form density that is nonzero on the diagonal at the
    # first and the last point, which no connection form is
    doc = theta_payload()
    density = doc["connections"][1]["density"]
    density[0][0] = ["1", "-1"]
    density[3][3] = ["-1/2", "1/2"]
    return doc


def test_curvature_dump_equals_the_indented_encoder(tmp_path, capsys):
    # the dump writes each point pair's entries as one preformatted text,
    # without json's indenting encoder, and must equal the encoder on the
    # payload built from the curvature's Scalars: "flat" has no entries,
    # the Gaussian S3x2 "rat" dump has complex values over many pairs,
    # and a θ's curvature vanishes on the pairs (p, p), so every dump
    # starts and ends with a pair that prints nothing
    dumps = [
        (fixture_documents()["fix_z2.json"], "cls"),
        (fixture_documents()["fix_s3.json"], "flat"),
        (fixture_documents()["fix_prod.json"], "rational"),
        (_gaussian(copy.deepcopy(S3X2)), "rat"),
    ]
    sizes = {}
    for k, (raw, name) in enumerate(dumps):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(raw))
        out = _dump_text(capsys, str(path), name)
        expected = _reference_dump(raw, name)
        # as lists of lines, so a failure names the first differing line
        # instead of diffing megabytes of text
        lines = (json.dumps(expected, indent=2) + "\n").splitlines(keepends=True)
        assert out.splitlines(keepends=True) == lines
        entries = expected["entries"]
        n = expected["total_size"]
        pairs = [e["index"][:2] for e in entries]
        sizes[raw["name"], name] = len(entries), sum("i" in e["value"] for e in entries)
        if entries:
            assert pairs[0] != [0, 0] and pairs[-1] != [n - 1, n - 1]
    assert sizes["fix-s3", "flat"] == (0, 0)
    count, complex_values = sizes["s3x2-gauss", "rat"]
    assert count == 2592 and complex_values > 0


def test_curvature_dump_refuses_the_theta_that_check_rejects(tmp_path, capsys):
    # `check` fails the diagonal θ at form.vanishing_on_diagonal (0, 0),
    # and the dump exits 1 with that first failure instead of printing
    # entries at the pair (0, 0), which no connection form's curvature has
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(_diagonal_theta()))
    assert main(["check", str(path), "--suite", "connection:th"]) == 1
    tail = capsys.readouterr().out.splitlines()[-1]
    assert tail.endswith("first failure connection:th.form.vanishing_on_diagonal witness=(0, 0)")
    assert main(["curvature", str(path), "--connection", "th"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "qpb: connection form rejected:"
        " connection.vanishing_on_diagonal: FAIL  witness=(0, 0)\n"
    )
    # a valid θ prints as the connection it was built from: fix_z2's
    # classical form, declared as a theta density
    raw = theta_payload()
    transition = load_fixture("fix_z2.json").connection("cls").payload
    theta = potentials.classical_connection(transition, fix_z2())
    raw["connections"][1]["density"] = [
        [[str(scalar_at(theta, p, q, c)) for c in range(2)] for q in range(4)] for p in range(4)
    ]
    path.write_text(json.dumps(raw))
    cls, th = _dump_text(capsys, str(path), "cls"), _dump_text(capsys, str(path), "th")
    assert json.loads(th)["entries"] == json.loads(cls)["entries"] != []
    assert th.replace('"th"', '"cls"').replace('"theta"', '"classical"') == cls


def test_curvature_dump_lists_every_nonzero_entry_as_it_prints(tmp_path, capsys):
    # the dump reads the rows' int views; the reference reads the
    # curvature's Scalars
    for raw, name in (
        (fixture_documents()["fix_z2.json"], "cls"),
        (_gaussian(copy.deepcopy(S3X2)), "rat"),
        (_imaginary(copy.deepcopy(S3X2)), "rat"),
    ):
        path = tmp_path / f"{raw['name']}.json"
        path.write_text(json.dumps(raw))
        expected = _reference_dump(raw, name)
        assert json.loads(_dump_text(capsys, str(path), name)) == expected
        if raw["name"] == "s3x2-imag":
            assert any(parts(scalar(parse_scalar(e["value"])))[0] == 0 for e in expected["entries"])


# ---------------------------------------------------------------------------
# command line entry point


def write_fixture(tmp_path, key: str) -> str:
    path = tmp_path / key
    path.write_text(json.dumps(fixture_documents()[key], indent=2) + "\n")
    return str(path)


def test_cli_check_passes(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_z2.json")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert out.endswith("ALL CHECKS PASSED (44 checks)\n")


def test_cli_check_json_format(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_prod.json")
    assert main(["check", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_status"] == 0
    assert payload["document_name"] == "fix-prod"


def test_cli_check_failure_exit(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_nonfree.json")
    assert main(["check", path]) == 1
    assert "FAILED (4 of 13 checks)" in capsys.readouterr().out


def test_cli_suite_flag(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_z2.json")
    assert main(["check", path, "--suite", "group", "--suite", "action"]) == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED (6 checks)" in out

    assert main(["check", path, "--suite", "bogus"]) == 2
    assert "qpb: unknown suite 'bogus'" in capsys.readouterr().err


def test_cli_unreadable_and_malformed_files(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert "qpb: cannot read" in capsys.readouterr().err

    # bytes that do not decode are unreadable too, and the message names the file
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{}")
    assert main(["check", str(latin)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qpb: cannot read {latin}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    # a ':' in a gauge name would make suite names ambiguous
    payload = mutated_payload("fix_z2.json")
    payload["gauges"][0]["name"] = "fl:ip"
    colon = tmp_path / "colon.json"
    colon.write_text(json.dumps(payload))
    assert main(["check", str(colon)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "qpb: gauge name must not contain ':' at gauges[0].name\n"


def _set(key: str, *path_and_value):
    """The fixture `key` with the entry at the path set to the value."""

    def payload():
        raw = mutated_payload(key)
        *path, last, value = path_and_value
        target = raw
        for step in path:
            target = target[step]
        target[last] = value
        return raw

    return payload


# a rejection for each document shape the parser refuses, as the one
# stderr line it prints
PARSER_REJECTIONS = [
    (
        _set("fix_z2.json", "group", "mul", [[0, 1], [1]]),
        "mul row must have 2 entries at group.mul[1]",
    ),
    (
        _set("fix_prod.json", "product_bundle", [2]),
        "product_bundle must be an object at product_bundle",
    ),
    (_set("fix_z2.json", "action", [[0, 2]]), "action must be an object at action"),
    (
        _set("fix_z2.json", "action", {"act": []}),
        "action needs a non-empty act table at action.act",
    ),
    (
        _set("fix_z2.json", "trivialization", [0, 0, 1, 1]),
        "trivialization must be an object at trivialization",
    ),
    (
        _set("fix_prod.json", "connections", 1, "density", 1, [["0", "0", "0"]]),
        "density row must have 2 entries at connections[1].density[1]",
    ),
    (_set("fix_z2.json", "connections", {}), "connections must be a list at connections"),
    (
        _set("fix_z2.json", "connections", ["cls"]),
        "connection must be an object at connections[0]",
    ),
    (
        _set("fix_z2.json", "connections", 0, "transition", [[0, 1], [0]]),
        "transition row must have 2 entries at connections[0].transition[1]",
    ),
    (_set("fix_z2.json", "gauges", ["flip"]), "gauge must be an object at gauges[0]"),
]


@pytest.mark.parametrize(
    "payload, message", PARSER_REJECTIONS, ids=[m.split(" at ")[0] for _p, m in PARSER_REJECTIONS]
)
def test_cli_parser_rejection_is_one_line(payload, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload()))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qpb: {message}\n"


def test_cli_deeply_nested_json_is_one_rejection_line(tmp_path):
    # json.loads recurses once per nesting level and gives up past the limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    src = os.path.dirname(os.path.dirname(qpb.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "qpb.cli", "check", str(deep)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["qpb: invalid JSON: nested too deeply"]
    assert proc.stdout == ""


def test_cli_fixtures_roundtrip(tmp_path, capsys):
    outdir = tmp_path / "docs"
    assert main(["fixtures", "--dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 4
    expected_status = {
        "fix_z2.json": 0,
        "fix_s3.json": 0,
        "fix_prod.json": 0,
        "fix_nonfree.json": 1,
    }
    for key, status in expected_status.items():
        assert (outdir / key).exists()
        assert main(["check", str(outdir / key)]) == status
        capsys.readouterr()


def test_cli_curvature_command(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_z2.json")
    assert main(["curvature", path, "--connection", "cls"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["connection"] == "cls"
    assert {"index": [0, 1, 0, 1], "value": "1"} in payload["entries"]

    assert main(["curvature", path, "--connection", "nope"]) == 2
    assert "no connection named" in capsys.readouterr().err


def test_cli_curvature_unframed_document_exits_one(tmp_path, capsys):
    payload = mutated_payload("fix_nonfree.json")
    payload["connections"] = [
        {"name": "cls", "kind": "classical", "transition": [[0, 0], [0, 0]]}
    ]
    path = tmp_path / "unframed.json"
    path.write_text(json.dumps(payload))
    assert main(["curvature", str(path), "--connection", "cls"]) == 1
    assert "no trivialization" in capsys.readouterr().err


def test_cli_curvature_exit_codes_match_check(tmp_path, capsys):
    prod = write_fixture(tmp_path, "fix_prod.json")
    # 0: the dump is written
    assert main(["curvature", prod, "--connection", "cls"]) == 0
    assert capsys.readouterr().err == ""
    # 1: the connection form cannot be built under the cap, and says why
    assert main(["curvature", prod, "--connection", "cls", "--max-entries", "100"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "qpb: table of 108 entries exceeds the cap of 100\n")
    # 2: the form builds, the 6 x 6 x 6 x 3 curvature table trips the cap;
    # the curvature suite of `check` exits 2 on the same cap
    cap = "qpb: table of 648 entries exceeds the cap of 400\n"
    dump, suite = ["--connection", "cls"], ["--suite", "curvature:cls"]
    for cmd in (["curvature", prod, *dump], ["check", prod, *suite]):
        assert main(cmd + ["--max-entries", "400"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", cap)
    # 2: on a document without a frame, the freeness report behind the
    # frame synthesis trips the cap before any connection is built
    payload = mutated_payload("fix_s3.json")
    del payload["trivialization"]
    unframed = tmp_path / "unframed.json"
    unframed.write_text(json.dumps(payload))
    assert main(["curvature", str(unframed), "--connection", "flat"]) == 0
    capsys.readouterr()
    cap = "qpb: table of 1296 entries exceeds the cap of 1000\n"
    for cmd in (["curvature", str(unframed), "--connection", "flat"], ["check", str(unframed)]):
        assert main(cmd + ["--max-entries", "1000"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", cap)
    # a suite that reads no frame synthesizes none and gives its verdict
    for suite in ("group", "action"):
        assert main(["check", str(unframed), "--suite", suite, "--max-entries", "1000"]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["cls", "rational"])
def test_curvature_caps_bind_at_the_rows_guards(name, tmp_path, capsys):
    # fix_prod: n = 6 points and m = 3, so the curvature's point triples
    # number n³ = 216 and its entries n³·m = 648; the dump and the suite
    # meet the same guards, in that order, with the same messages
    prod = write_fixture(tmp_path, "fix_prod.json")
    dump = ["curvature", prod, "--connection", name]
    suite = ["check", prod, "--suite", f"curvature:{name}"]
    expected = {
        215: (2, "qpb: table of 216 entries exceeds the cap of 215\n"),
        216: (2, "qpb: table of 648 entries exceeds the cap of 216\n"),
        647: (2, "qpb: table of 648 entries exceeds the cap of 647\n"),
        648: (0, ""),
    }
    for cap, (status, err) in expected.items():
        for cmd in (dump, suite):
            assert main(cmd + ["--max-entries", str(cap)]) == status
            out = capsys.readouterr()
            assert out.err == err
            assert (out.out == "") == (status == 2)


def test_cli_max_entries_cap(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_z2.json")
    assert main(["check", path, "--max-entries", "10"]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert main(["check", path, "--max-entries", "0"]) == 2
    capsys.readouterr()
    # the parsed gamma_hat density holds 2 x 2 x 3 = 12 entries
    prod = write_fixture(tmp_path, "fix_prod.json")
    assert main(["check", prod, "--suite", "group", "--max-entries", "11"]) == 2
    assert capsys.readouterr().err == "qpb: table of 12 entries exceeds the cap of 11\n"
    # the frame's delta table and its convolution inverse hold n·m = 18
    # entries; a cap met building them is no verdict on the document, as
    # in every suite that builds no connection
    for cap in (12, 15, 17):
        assert main(["check", prod, "--suite", "trivialization", "--max-entries", str(cap)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"qpb: table of 18 entries exceeds the cap of {cap}\n")
    assert main(["check", prod, "--suite", "trivialization", "--max-entries", "18"]) == 0
    capsys.readouterr()
    # the gauge suite's transformed base potential holds nb²·m = 8 entries;
    # a cap met building it is no verdict on the gauge either
    for cap in range(3, 8):
        assert main(["check", path, "--suite", "gauge:flip:cls", "--max-entries", str(cap)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"qpb: table of 8 entries exceeds the cap of {cap}\n")
    assert main(["check", path, "--suite", "gauge:flip:cls", "--max-entries", "8"]) == 0
    capsys.readouterr()
    assert main(["check", path]) == 0


# bench/gen.py's product_doc(0, "S3", 2), the first document of the check ladder
S3X2_LADDER = {
    "format_version": 1,
    "name": "S3x2",
    "group": {"mul": S3X2["group"]["mul"]},
    "product_bundle": {"base_size": 2},
    "connections": [
        {"name": "cls", "kind": "classical", "transition": [[0, 2], [5, 0]]},
        {
            "name": "rat",
            "kind": "gamma_hat",
            "density": [
                [["0"] * 6, ["-1/2", "-1/4", "0", "0", "0", "3/4"]],
                [["1", "-1/2", "-1/2", "0", "0", "0"], ["0"] * 6],
            ],
        },
    ],
    "gauges": [{"name": "tau", "tau_hat": [2, 3]}],
}


@pytest.mark.parametrize("key", ["fix_prod.json", "s3x2.json"])
def test_freeness_and_exactness_caps_bind_at_their_guards(key, tmp_path, capsys):
    payload = {**fixture_documents(), "s3x2.json": S3X2_LADDER}[key]
    path = tmp_path / key
    path.write_text(json.dumps(payload))
    b = parse_spec(json.dumps(payload)).bundle
    n, m = b.total_size, b.group.order
    freeness_guard = n * m * n * n
    exactness_guard = n * (m - 1) * n * (n - 1)
    # the exactness suite reads the freeness report, whose larger matrix
    # trips the cap first
    for suite in ("freeness", "exactness"):
        cmd = ["check", str(path), "--suite", suite, "--format", "json", "--max-entries"]
        assert main(cmd + [str(freeness_guard)]) == 0
        assert capsys.readouterr().err == ""
        assert main(cmd + [str(freeness_guard - 1)]) == 2
        out = capsys.readouterr()
        cap = f"qpb: table of {freeness_guard} entries exceeds the cap of {freeness_guard - 1}\n"
        assert (out.out, out.err) == ("", cap)
    # the restricted canonical map's own guard, under a decided freeness report
    free = bundle.check_freeness(b)
    token = funcs.set_max_table_entries(exactness_guard)
    try:
        assert calculus.check_exactness(b, free).passed
    finally:
        funcs.MAX_TABLE_ENTRIES.reset(token)
    token = funcs.set_max_table_entries(exactness_guard - 1)
    try:
        cap = f"table of {exactness_guard} entries exceeds the cap of {exactness_guard - 1}"
        with pytest.raises(ValueError, match=f"^{cap}$"):
            calculus.check_exactness(b, free)
    finally:
        funcs.MAX_TABLE_ENTRIES.reset(token)


def test_cli_cap_lasts_one_call(tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_z2.json")
    before = funcs.MAX_TABLE_ENTRIES.get()
    for args in (
        ["check", path, "--max-entries", "3"],
        ["curvature", path, "--connection", "cls", "--max-entries", "3"],
        ["check", path, "--max-entries", "100000", "--format", "json"],
    ):
        main(args)
        assert funcs.MAX_TABLE_ENTRIES.get() == before
    capsys.readouterr()
    assert main(["check", path]) == 0
    assert main(["curvature", path, "--connection", "cls"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# the argv contract: every form argparse accepted for these options, and
# a usage error for everything else

# each form with the command and the arguments it is read as; F is the file
ACCEPTED_ARGV = [
    (["check", "F"], "check", {}),
    (["check", "F", "--format", "json"], "check", {"format": "json"}),
    (["check", "F", "--format=json"], "check", {"format": "json"}),
    (["check", "--format", "json", "F"], "check", {"format": "json"}),
    (["check", "--format=json", "F"], "check", {"format": "json"}),
    (["check", "F", "--form", "json"], "check", {"format": "json"}),
    (["check", "--f=json", "F"], "check", {"format": "json"}),
    (["check", "F", "--format", "json", "--format", "text"], "check", {"format": "text"}),
    (["check", "F", "--suite", "action", "--suite", "group"], "check", {"suite": ["action", "group"]}),
    (["check", "--suite=group", "F", "--su", "action"], "check", {"suite": ["group", "action"]}),
    (["check", "F", "--suite", "group", "--s", "group"], "check", {"suite": ["group", "group"]}),
    (["check", "F", "--max-entries", "10", "--max=100000"], "check", {"max-entries": 100000}),
    (["check", "F", "--m", "-5"], "check", {"max-entries": -5}),
    (["check", "F", "--suite", "-1"], "check", {"suite": ["-1"]}),
    (["check", "--suite", "group", "--", "F"], "check", {"suite": ["group"]}),
    (["curvature", "F", "--connection", "cls"], "curvature", {"connection": "cls"}),
    (["curvature", "--connection=cls", "F"], "curvature", {"connection": "cls"}),
    (["curvature", "--conn", "rational", "F"], "curvature", {"connection": "rational"}),
    (["curvature", "F", "--c", "cls", "--c=rational"], "curvature", {"connection": "rational"}),
    (
        ["curvature", "F", "--c", "cls", "--max", "400"],
        "curvature",
        {"connection": "cls", "max-entries": 400},
    ),
    (["fixtures"], "fixtures", {}),
    (["fixtures", "--dir", "out"], "fixtures", {"dir": "out"}),
    (["fixtures", "--d=out"], "fixtures", {"dir": "out"}),
]

HELP_ARGV = [
    ["-h"],
    ["--help"],
    ["--he"],
    ["check", "-h"],
    ["check", "F", "--help"],
    ["curvature", "--h"],
    ["fixtures", "-h"],
]

REJECTED_ARGV = [
    [],
    ["bogus"],
    ["che", "F"],
    ["--format", "json", "check", "F"],
    ["check"],
    ["check", "F", "F"],
    ["check", "F", "--bogus"],
    ["check", "F", "-x"],
    ["check", "F", "--format"],
    ["check", "F", "--format", "xml"],
    ["check", "F", "--format="],
    ["check", "F", "--suite"],
    ["check", "F", "--suite", "--format", "json"],
    ["check", "F", "--max-entries", "ten"],
    ["check", "F", "--max-entries", "1.5"],
    ["check", "F", "--connection", "cls"],
    ["check", "F", "--help=yes"],
    ["curvature"],
    ["curvature", "F"],
    ["curvature", "--connection", "cls"],
    ["curvature", "F", "--suite", "group", "--connection", "cls"],
    ["fixtures", "extra"],
    ["fixtures", "--dir"],
    ["fixtures", "--max-entries", "10"],
]


def _with_file(argv: list[str], path: str) -> list[str]:
    return [path if a == "F" else a for a in argv]


def _canonical_argv(command: str, args: dict, path: str) -> list[str]:
    """The plainest argv of a parsed call: FILE first, each option spelled
    out with its value after a space."""
    argv = [command] + ([path] if command != "fixtures" else [])
    for name, value in args.items():
        for v in value if name == "suite" else [value]:
            argv += [f"--{name}", str(v)]
    return argv


@pytest.mark.parametrize("argv, command, given", ACCEPTED_ARGV)
def test_cli_reads_every_accepted_argv_form(
    argv, command, given, tmp_path, monkeypatch, capsys
):
    expected = {"file": "F", "suite": [], "format": "text", "max-entries": None}
    expected |= {"connection": None, "dir": "."} | given
    if command == "fixtures":
        expected["file"] = None
    assert cli._parse(argv) == (command, expected)
    # and the call runs as its plainest spelling does
    monkeypatch.chdir(tmp_path)
    path = write_fixture(tmp_path, "fix_prod.json")
    outcomes = []
    for form in (_with_file(argv, path), _canonical_argv(command, given, path)):
        outcomes.append((main(form), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (0, 1, 2)


@pytest.mark.parametrize("argv", HELP_ARGV)
def test_cli_help_prints_the_usage_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out == cli.HELP and out.startswith(cli.USAGE) and err == ""


@pytest.mark.parametrize("argv", REJECTED_ARGV)
def test_cli_usage_error_is_the_usage_and_one_error_line(argv, tmp_path, capsys):
    path = write_fixture(tmp_path, "fix_prod.json")
    with pytest.raises(SystemExit) as info:
        main(_with_file(argv, path))
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(cli.USAGE)
    (line,) = err[len(cli.USAGE) :].splitlines()
    assert line.startswith("qpb: error: ")


def test_cli_argv_errors_print_no_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(qpb.__file__))
    path = write_fixture(tmp_path, "fix_prod.json")
    for argv, status in (([], 2), (["check", path, "--format", "xml"], 2), (["check", "-h"], 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "qpb.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == status
        assert "Traceback" not in proc.stderr
        assert (proc.stdout if status == 0 else proc.stderr).startswith("usage: qpb check FILE")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["check", "{doc}"], ["curvature", "{doc}", "--connection", "rational"]],
    ids=["report", "dump"],
)
def test_cli_output_to_a_closed_pipe_exits_2(argv, unbuffered, tmp_path):
    # the report fits stdout's buffer and fails at the flush when it is
    # buffered; the dump, 16.9 KB, fails in the write either way
    src = os.path.dirname(os.path.dirname(qpb.__file__))
    path = write_fixture(tmp_path, "fix_prod.json")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qpb.cli", *[a.format(doc=path) for a in argv]],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "qpb: cannot write stdout: Broken pipe\n")


def test_cli_fixtures_into_a_file_exits_2(tmp_path):
    src = os.path.dirname(os.path.dirname(qpb.__file__))
    path = tmp_path / "taken"
    path.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "qpb.cli", "fixtures", "--dir", str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"qpb: cannot write {path}: File exists\n"
