"""Byte-level goldens: sha256 of CLI output on fixed documents.

Each case writes a document exactly as `qpb fixtures` would, runs the
command line tool in-process, and compares the digest of its standard
output with a pinned value.  A refactor that changes any byte of a
report or curvature dump fails here.
"""

import copy
import hashlib
import json

import pytest

from qpb.cli import main
from qpb.fixtures import fixture_documents

# S3 x 2 base points: a non-abelian product bundle with a classical
# transition that is not a cocycle (t01 t10 != e), a rational gamma_hat
# whose group rows sum to zero, and one gauge
S3X2 = {
    "format_version": 1,
    "name": "s3x2",
    "group": {
        "mul": [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 2, 5, 4],
            [2, 4, 0, 5, 1, 3],
            [3, 5, 1, 4, 0, 2],
            [4, 2, 5, 0, 3, 1],
            [5, 3, 4, 1, 2, 0],
        ]
    },
    "product_bundle": {"base_size": 2},
    "connections": [
        {"name": "cls", "kind": "classical", "transition": [[0, 3], [2, 0]]},
        {
            "name": "rat",
            "kind": "gamma_hat",
            "density": [
                [["0"] * 6, ["0", "1/2", "-1/3", "0", "-1/6", "0"]],
                [["1", "0", "0", "-1/2", "0", "-1/2"], ["0"] * 6],
            ],
        },
    ],
    "gauges": [{"name": "tau", "tau_hat": [1, 4]}],
}


def _broken_row_sum(doc: dict) -> dict:
    # the base density at (0, 1) no longer sums to zero over the group
    doc["connections"][1]["density"][0][1] = ["1", "-1/2", "0"]
    return doc


def _gaussian(doc: dict) -> dict:
    # complex entries in the rational gamma_hat; each group row still sums to zero
    doc["name"] = "s3x2-gauss"
    density = doc["connections"][1]["density"]
    density[0][1] = ["1/3+2/5i", "-1/3", "0", "-2/5i", "0", "0"]
    density[1][0] = ["i", "0", "-1/2-i", "0", "1/2", "0"]
    return doc


def _non_identity_diagonal(doc: dict) -> dict:
    doc["connections"][0]["transition"][0][0] = 1
    return doc


def _with_gamma(doc: dict) -> dict:
    # the classical connection's base potential lifted to the total space
    density = [
        [["-1", "1"] if p % 2 == 0 and q % 2 == 1 else ["0", "0"] for q in range(4)]
        for p in range(4)
    ]
    doc["connections"].append({"name": "lifted", "kind": "gamma", "density": density})
    return doc


CASES = {
    "check-z2": ("fix_z2.json", None, ["check", "--format", "json"]),
    "check-s3": ("fix_s3.json", None, ["check", "--format", "json"]),
    "check-prod": ("fix_prod.json", None, ["check", "--format", "json"]),
    "check-nonfree": ("fix_nonfree.json", None, ["check", "--format", "json"]),
    "curvature-z2-cls": ("fix_z2.json", None, ["curvature", "--connection", "cls"]),
    "curvature-prod-cls": ("fix_prod.json", None, ["curvature", "--connection", "cls"]),
    "curvature-prod-rational": (
        "fix_prod.json",
        None,
        ["curvature", "--connection", "rational"],
    ),
    "check-prod-broken-row-sum": (
        "fix_prod.json",
        _broken_row_sum,
        ["check", "--format", "json"],
    ),
    "check-z2-bad-diagonal": (
        "fix_z2.json",
        _non_identity_diagonal,
        ["check", "--format", "json"],
    ),
    "check-z2-gamma": ("fix_z2.json", _with_gamma, ["check", "--format", "json"]),
    # 6 x 6 points x 3 group elements: the connection form is one entry
    # over the cap, the largest table the connection suite holds
    "check-prod-theta-cap": (
        "fix_prod.json",
        None,
        ["check", "--suite", "connection:cls", "--max-entries", "107", "--format", "json"],
    ),
    "check-s3x2": ("s3x2.json", None, ["check", "--format", "json"]),
    "check-s3x2-gauss": ("s3x2.json", _gaussian, ["check", "--format", "json"]),
    "curvature-s3x2-gauss-rat": (
        "s3x2.json",
        _gaussian,
        ["curvature", "--connection", "rat"],
    ),
}

# (exit status, sha256 of stdout)
GOLDEN = {
    "check-nonfree": (1, "d5e84f58474a784d25b3d8df5ad0cf6fcd42a53ad191cc94a6f2351acb461ba8"),
    "check-prod": (0, "80b04694c2c0f4516a860cc7ef3bf23587964cb84a2c51eef09c866c4bf0043e"),
    "check-prod-broken-row-sum": (
        1,
        "e38d5af3dfea60bb046a68f938d918a8c0b0fe49729ac8bdf88ea4304702969b",
    ),
    "check-prod-theta-cap": (
        1,
        "d7f8c13f9874a24d0a9fea9080eedd5fdb57815ad5efc0322dd957a126666b38",
    ),
    "check-s3": (0, "2b2af167ad96d6227d4fb0120973e84ead4a6f8e6cfbcb072866cda9a5cd3063"),
    "check-s3x2": (0, "8704482ee802f577bc653e3cd63182fe380dc4a340e81bec52f6da61de166af3"),
    "check-s3x2-gauss": (
        0,
        "a998222010d635e9636baea5681ef9272e14c47d0d34df629a3a617833396e38",
    ),
    "check-z2": (0, "a751ada0d958bb94f1bdb4c8fb2c9a9b4a40df2fe1ea114937696f44490aea7b"),
    "check-z2-bad-diagonal": (
        1,
        "793a44593c8ffaff21322d1f19d61bacc2e95f147147558ebd4ce289ee6809a1",
    ),
    "check-z2-gamma": (0, "eaedcebfd18481276e219f96e9fed3f2c2ba2296cd5706fa6ecf940900b61ae7"),
    "curvature-prod-cls": (
        0,
        "70768bc800842fbfb8209ac6b949a08b23cef1c6f55669790fa346d8fa95b649",
    ),
    "curvature-prod-rational": (
        0,
        "5809bdcb260e6f4e3563dcb077d8710ab36f0e7e6bd66e0f3852c2daf536805e",
    ),
    "curvature-s3x2-gauss-rat": (
        0,
        "7be2497c562b1e2f3d4a6eda23c1ee9caa12d048cd7af9029bcd19362dee64f8",
    ),
    "curvature-z2-cls": (0, "c22111b91c5e4e30ddd256f1cc029ab34aab3a39d1071db44eb74fb10871bea4"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, tmp_path, capsys):
    key, mutate, args = CASES[case]
    doc = copy.deepcopy({**fixture_documents(), "s3x2.json": S3X2}[key])
    if mutate is not None:
        doc = mutate(doc)
    path = tmp_path / key
    path.write_text(json.dumps(doc, indent=2) + "\n")
    status = main([args[0], str(path), *args[1:]])
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[case]
