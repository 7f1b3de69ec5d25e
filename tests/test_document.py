"""Parsing and validation of JSON specification documents."""

import copy
import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

from bridge import scalar, scalar_at, to_ints
from qpb.document import SpecError, parse_spec
from qpb.fixtures import fixture_documents
from qpb.funcs import FormValuedMap
from qpb.groups import TransitionMap
from qpb.scalars import Scalar
from qpb.views import parse_scalar


def doc_payload(key: str) -> dict:
    return copy.deepcopy(fixture_documents()[key])


def parse_error(payload) -> SpecError:
    with pytest.raises(SpecError) as info:
        parse_spec(json.dumps(payload))
    return info.value


def test_fixture_documents_parse():
    z2 = parse_spec(json.dumps(doc_payload("fix_z2.json")))
    assert z2.name == "fix-z2"
    assert z2.group.order == 2
    assert z2.bundle.total_size == 4
    assert z2.bundle.phi == [0, 0, 1, 1]
    assert [c.name for c in z2.connections] == ["cls"]
    cls = z2.connection("cls")
    assert cls.kind == "classical"
    assert isinstance(cls.payload, TransitionMap)
    assert cls.payload.table == [[0, 1], [0, 0]]
    assert [g.name for g in z2.gauges] == ["flip"]
    assert z2.gauge("flip").gauge.table == [1, 0]

    s3 = parse_spec(json.dumps(doc_payload("fix_s3.json")))
    assert s3.group.order == 6
    assert s3.bundle.total_size == 6
    assert s3.bundle.base.size == 1

    nonfree = parse_spec(json.dumps(doc_payload("fix_nonfree.json")))
    assert nonfree.bundle.phi is None
    assert nonfree.connections == [] and nonfree.gauges == []


def test_product_bundle_document():
    prod = parse_spec(json.dumps(doc_payload("fix_prod.json")))
    assert prod.bundle.total_size == 6
    assert prod.bundle.base.size == 2
    assert prod.bundle.phi == [0, 1, 2, 0, 1, 2]
    rational = prod.connection("rational")
    assert rational.kind == "gamma_hat"
    gh = rational.payload
    assert isinstance(gh, FormValuedMap) and (gh.size, gh.degree) == (2, 1)
    assert scalar_at(gh, 0, 1, 0) == scalar(parse_scalar("1"))
    assert scalar_at(gh, 0, 1, 1) == scalar(parse_scalar("-1/2"))
    assert scalar_at(gh, 1, 0, 1) == scalar(parse_scalar("1/3"))


def test_lookup_misses_return_none():
    doc = parse_spec(json.dumps(doc_payload("fix_z2.json")))
    assert doc.connection("nope") is None
    assert doc.gauge("nope") is None


def digest_texts() -> list[str]:
    """Each fixture, compact and indented, and a fixture renamed to a
    non-ASCII name, raw and escaped."""
    texts = []
    for payload in fixture_documents().values():
        texts += [json.dumps(payload), json.dumps(payload, indent=2) + "\n"]
    renamed = {**doc_payload("fix_z2.json"), "name": "Faserbündel ℤ₂ — 主丛 🙂"}
    return texts + [json.dumps(renamed, ensure_ascii=False), json.dumps(renamed)]


def test_digest_tracks_exact_bytes():
    for text in digest_texts():
        doc = parse_spec(text)
        # hashlib's SHA-256 is the reference the built-in digest must equal
        assert doc.digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert parse_spec(text).digest == doc.digest
        assert parse_spec(text + "\n").digest != doc.digest


def test_action_entry_diagnostic():
    payload = doc_payload("fix_z2.json")
    payload["action"]["act"][3][1] = 7
    err = parse_error(payload)
    assert str(err) == "index out of range at action.act[3][1]"
    assert err.path == "action.act[3][1]"


def test_invalid_json_reports_position():
    with pytest.raises(SpecError) as info:
        parse_spec("{")
    assert str(info.value).startswith("invalid JSON at line 1 column 2")


def test_top_level_shape_errors():
    with pytest.raises(SpecError, match="JSON object"):
        parse_spec("[]")

    payload = doc_payload("fix_z2.json")
    payload["bogus"] = 1
    assert parse_error(payload).path == "bogus"

    payload = doc_payload("fix_z2.json")
    payload["format_version"] = 2
    err = parse_error(payload)
    assert err.path == "format_version"

    payload = doc_payload("fix_z2.json")
    del payload["format_version"]
    assert parse_error(payload).path == "format_version"

    payload = doc_payload("fix_z2.json")
    payload["name"] = 3
    assert parse_error(payload).path == "name"


def test_group_errors():
    payload = doc_payload("fix_z2.json")
    del payload["group"]
    assert parse_error(payload).path == "group"

    payload = doc_payload("fix_z2.json")
    payload["group"]["mul"] = [[0, 1]]
    assert parse_error(payload).path == "group.mul[0]"

    payload = doc_payload("fix_z2.json")
    payload["group"]["mul"][0][1] = 2
    assert parse_error(payload).path == "group.mul[0][1]"

    payload = doc_payload("fix_z2.json")
    payload["group"]["mul"][0][0] = True
    assert parse_error(payload).path == "group.mul[0][0]"

    payload = doc_payload("fix_z2.json")
    payload["group"]["labels"] = ["e"]
    assert parse_error(payload).path == "group.labels"

    payload = doc_payload("fix_z2.json")
    payload["group"]["extra"] = 1
    assert parse_error(payload).path == "group.extra"
    # of several unknown keys, the first in sorted order is named
    payload["group"]["zeta"] = payload["group"]["alpha"] = 1
    assert parse_error(payload).path == "group.alpha"

    payload = doc_payload("fix_z2.json")
    payload["group"]["order"] = 3
    assert parse_error(payload).path == "group.order"
    payload["group"]["order"] = 2
    assert parse_spec(json.dumps(payload)).group.order == 2


def test_exactly_one_bundle_source():
    payload = doc_payload("fix_z2.json")
    payload["product_bundle"] = {"base_size": 2}
    err = parse_error(payload)
    assert "exactly one" in err.message

    payload = doc_payload("fix_z2.json")
    del payload["action"]
    assert "exactly one" in parse_error(payload).message


def test_product_bundle_errors():
    payload = doc_payload("fix_prod.json")
    payload["product_bundle"]["base_size"] = 0
    assert parse_error(payload).path == "product_bundle.base_size"

    payload = doc_payload("fix_prod.json")
    payload["product_bundle"]["base_size"] = True
    assert parse_error(payload).path == "product_bundle.base_size"

    payload = doc_payload("fix_prod.json")
    payload["product_bundle"]["extra"] = 1
    assert parse_error(payload).path == "product_bundle.extra"


def test_action_shape_errors():
    payload = doc_payload("fix_z2.json")
    payload["action"]["act"][1] = [1]
    assert parse_error(payload).path == "action.act[1]"

    payload = doc_payload("fix_z2.json")
    payload["action"]["total_size"] = 5
    assert parse_error(payload).path == "action.total_size"
    payload["action"]["total_size"] = 4
    assert parse_spec(json.dumps(payload)).bundle.total_size == 4

    payload = doc_payload("fix_z2.json")
    payload["action"]["extra"] = 1
    assert parse_error(payload).path == "action.extra"


def test_trivialization_errors():
    payload = doc_payload("fix_z2.json")
    payload["trivialization"]["phi"] = [0, 0, 1]
    assert parse_error(payload).path == "trivialization.phi"

    payload = doc_payload("fix_z2.json")
    payload["trivialization"]["phi"][2] = 9
    assert parse_error(payload).path == "trivialization.phi[2]"

    payload = doc_payload("fix_z2.json")
    payload["trivialization"]["extra"] = 1
    assert parse_error(payload).path == "trivialization.extra"


def test_non_equivariant_phi_still_parses():
    # mathematical defects are check failures, not parse failures
    payload = doc_payload("fix_z2.json")
    payload["trivialization"]["phi"] = [0, 0, 0, 1]
    doc = parse_spec(json.dumps(payload))
    assert doc.bundle.phi == [0, 0, 0, 1]


def test_connection_declaration_errors():
    payload = doc_payload("fix_z2.json")
    payload["connections"].append(dict(payload["connections"][0]))
    err = parse_error(payload)
    assert err.path == "connections[1].name"
    assert "duplicate" in err.message

    payload = doc_payload("fix_z2.json")
    payload["connections"][0]["kind"] = "exotic"
    assert parse_error(payload).path == "connections[0].kind"

    payload = doc_payload("fix_z2.json")
    payload["connections"][0]["extra"] = 1
    assert parse_error(payload).path == "connections[0].extra"

    payload = doc_payload("fix_z2.json")
    del payload["connections"][0]["name"]
    assert parse_error(payload).path == "connections[0].name"

    payload = doc_payload("fix_z2.json")
    payload["connections"][0]["name"] = "c:ls"
    err = parse_error(payload)
    assert err.path == "connections[0].name"
    assert err.message == "connection name must not contain ':'"

    payload = doc_payload("fix_z2.json")
    payload["connections"][0]["transition"] = [[0, 1]]
    assert parse_error(payload).path == "connections[0].transition"

    payload = doc_payload("fix_z2.json")
    payload["connections"][0]["transition"][0][1] = 5
    assert parse_error(payload).path == "connections[0].transition[0][1]"


def test_density_parsing_errors():
    payload = doc_payload("fix_prod.json")
    payload["connections"][1]["density"] = [[["0", "0", "0"]] * 2]
    assert parse_error(payload).path == "connections[1].density"

    payload = doc_payload("fix_prod.json")
    payload["connections"][1]["density"][0][1] = ["1", "-1/2"]
    assert parse_error(payload).path == "connections[1].density[0][1]"

    for bad in (1.5, True, "1.5", "1/0", None):
        payload = doc_payload("fix_prod.json")
        payload["connections"][1]["density"][0][1][0] = bad
        err = parse_error(payload)
        assert err.path == "connections[1].density[0][1][0]"
        assert "non-rational scalar literal" in err.message


def test_density_accepts_exact_literals():
    payload = doc_payload("fix_prod.json")
    payload["connections"][1]["density"][0][1] = ["1/3+2/5i", "-1/3-2/5i", 0]
    doc = parse_spec(json.dumps(payload))
    gh = doc.connection("rational").payload
    assert scalar_at(gh, 0, 1, 0) == scalar(parse_scalar("1/3+2/5i"))
    assert scalar_at(gh, 0, 1, 2) == scalar(parse_scalar("0"))


# a density literal with the Scalar it stands for, built from its parts
_DENOMINATORS = [1, 2, 3, 4, 6, 7, 10]


def _ratio(rng: Random) -> tuple[int, int]:
    return rng.randrange(-9, 10), rng.choice(_DENOMINATORS)


def _int_literal(rng: Random):
    v = rng.randrange(-9, 10)
    return v, Scalar(v)


def _ratio_literal(rng: Random):
    n, d = _ratio(rng)
    return f"{n}/{d}", Scalar(Fraction(n, d))


def _imaginary_literal(rng: Random):
    n, d = _ratio(rng)
    return f"{n}/{d}i", Scalar(0, Fraction(n, d))


def _complex_literal(rng: Random):
    (a, b), (c, e) = _ratio(rng), _ratio(rng)
    return f"{a}/{b}{'-' if c < 0 else '+'}{abs(c)}/{e}i", Scalar(Fraction(a, b), Fraction(c, e))


def _zero_literal(rng: Random):
    return rng.choice([0, "0", "-0", "0/5", "0i", "0/3i", "0+0i"]), Scalar(0)


DENSITY_MIXES = {
    "ints": [_int_literal],
    "ratios": [_ratio_literal],
    "imaginary": [_imaginary_literal],
    "complex": [_complex_literal],
    "all-real": [_int_literal, _ratio_literal, _zero_literal],
    "all-zero": [_zero_literal],
    "everything": [
        _int_literal,
        _ratio_literal,
        _imaginary_literal,
        _complex_literal,
        _zero_literal,
    ],
}


@pytest.mark.parametrize("mix", sorted(DENSITY_MIXES))
def test_a_density_parses_to_the_view_of_its_scalars(mix):
    # a gamma connection on fix_prod's six points: 6 x 6 x 3 literals
    rng = Random(sorted(DENSITY_MIXES).index(mix))
    for _ in range(20):
        drawn = [rng.choice(DENSITY_MIXES[mix])(rng) for _ in range(6 * 6 * 3)]
        literals = [literal for literal, _ in drawn]
        cells = [literals[k : k + 3] for k in range(0, len(literals), 3)]
        payload = doc_payload("fix_prod.json")
        density = [cells[k : k + 6] for k in range(0, 36, 6)]
        payload["connections"].append({"name": "drawn", "kind": "gamma", "density": density})
        view = parse_spec(json.dumps(payload)).connection("drawn").payload.view
        assert view == to_ints([value for _, value in drawn])
        if mix in ("ints", "ratios", "all-real", "all-zero"):
            assert view[2] is None
        if mix == "all-zero":
            assert view == (1, [0] * 108, None)


def test_gauge_declaration_errors():
    payload = doc_payload("fix_z2.json")
    payload["gauges"].append(dict(payload["gauges"][0]))
    err = parse_error(payload)
    assert err.path == "gauges[1].name"

    payload = doc_payload("fix_z2.json")
    payload["gauges"][0]["name"] = "fl:ip"
    err = parse_error(payload)
    assert err.path == "gauges[0].name"
    assert err.message == "gauge name must not contain ':'"

    payload = doc_payload("fix_z2.json")
    payload["gauges"][0]["tau_hat"] = [1]
    assert parse_error(payload).path == "gauges[0].tau_hat"

    payload = doc_payload("fix_z2.json")
    payload["gauges"][0]["tau_hat"][0] = 4
    assert parse_error(payload).path == "gauges[0].tau_hat[0]"

    payload = doc_payload("fix_z2.json")
    payload["gauges"][0]["extra"] = 1
    assert parse_error(payload).path == "gauges[0].extra"

    payload = doc_payload("fix_z2.json")
    payload["gauges"] = "flip"
    assert parse_error(payload).path == "gauges"


# ---------------------------------------------------------------------------
# index tables: every fault of every table, as the command line reports it


def _set(path: tuple, value):
    """A change to fix_z2.json setting the entry at `path` to `value`."""

    def change(payload):
        *head, last = path
        node = payload
        for key in head:
            node = node[key]
        node[last] = value

    return change


_TABLES = {
    # table: (its path in fix_z2.json, the message of a row or length fault)
    "mul": (("group", "mul"), "mul row must have 2 entries"),
    "act": (("action", "act"), "act row must have 2 entries"),
    "transition": (("connections", 0, "transition"), "transition row must have 2 entries"),
    "phi": (("trivialization", "phi"), "phi must list 4 group indices"),
    "tau_hat": (("gauges", 0, "tau_hat"), "tau_hat must list 2 group indices"),
}


def _where(path: tuple) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _index_cases():
    for table, (path, shape_message) in _TABLES.items():
        flat = table in ("phi", "tau_hat")
        # a ragged row, or for a flat table a wrong length
        if flat:
            yield table, "ragged", _set(path, [0]), f"{shape_message} at {_where(path)}"
        else:
            yield table, "ragged", _set((*path, 1), [0]), f"{shape_message} at {_where((*path, 1))}"
        # the bound of act is the 4 points, of every other table the 2 elements
        bound = 4 if table == "act" else 2
        for fault, value in (("range", bound), ("negative", -1), ("bool", True), ("string", "0")):
            at = (*path, 1) if flat else (*path, 1, 0)
            yield table, fault, _set(at, value), f"index out of range at {_where(at)}"


def _both(first, second):
    def change(payload):
        first(payload)
        second(payload)

    return change


_FIRST_OF_TWO = {
    # a bad mul entry is reported before bad labels
    "mul-then-labels": (
        _both(_set(("group", "mul", 0, 1), 5), _set(("group", "labels"), ["e"])),
        "index out of range at group.mul[0][1]",
    ),
    # a bad act entry is reported before a wrong total_size
    "act-then-total_size": (
        _both(_set(("action", "act", 3, 1), 9), _set(("action", "total_size"), 5)),
        "index out of range at action.act[3][1]",
    ),
}


@pytest.mark.parametrize(
    "change, line",
    [pytest.param(change, line, id=f"{table}-{fault}") for table, fault, change, line in _index_cases()]
    + [pytest.param(change, line, id=name) for name, (change, line) in _FIRST_OF_TWO.items()],
)
def test_each_index_table_fault_is_one_stderr_line(change, line, tmp_path, capsys):
    from qpb.cli import main

    payload = doc_payload("fix_z2.json")
    change(payload)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"qpb: {line}\n")


def test_parsing_checks_each_index_table_once(monkeypatch):
    import qpb.groups as groups

    text = json.dumps(doc_payload("fix_z2.json"))
    seen = []
    for name in ("check_table", "check_indices"):
        checker = getattr(groups, name)

        def counted(values, *args, _checker=checker):
            seen.append(args[-1])
            return _checker(values, *args)

        monkeypatch.setattr(groups, name, counted)
    parse_spec(text)
    assert sorted(seen) == ["act", "mul", "phi", "tau_hat", "transition"]


@pytest.mark.parametrize("key", ["fix_z2.json", "fix_s3.json"])
def test_a_bundle_scans_its_orbits_once(key, monkeypatch):
    import qpb.groups as groups
    from qpb.runner import run_checks

    scans = []
    real = groups.BaseSpace.__init__

    def counted(self, action):
        scans.append(action)
        real(self, action)

    monkeypatch.setattr(groups.BaseSpace, "__init__", counted)
    framed = parse_spec(json.dumps(doc_payload(key)))
    assert len(scans) == 1 and framed.bundle.base is scans[0].base
    # a synthesized frame shares the parsed bundle's orbits
    unframed = doc_payload(key)
    del unframed["trivialization"]
    doc = parse_spec(json.dumps(unframed))
    report = run_checks(doc, ["trivialization"])
    assert report.passed and "trivialization.synthesized" in {c.name for c in report.checks}
    assert len(scans) == 2
