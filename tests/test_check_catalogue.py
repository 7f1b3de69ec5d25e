"""Every comodule and trivialization check can fail, and says why.

A slice of the check catalogue: each check that the comodule suite, and
the trivialization suite after its frame checks, computes from the
coaction, psi and the frame's convolution inverse has a killer.  A
killer is a single-entry mutant of a fixture's action table where one
reaches the check, and otherwise a code mutant on the route the check
compares: the coaction and psi are pullbacks, so they are algebra maps
on any table, and φ's delta table inverts once the frame checks pass.
Every check a killer fails names a witness or a reason.
"""

import copy
import json

import pytest

from bridge import named
from qpb import bundle, potentials, suites
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.runner import run_checks

# the checks `validate_trivialization` reports read φ directly, before
# the frame is used, and are outside this slice
FRAME_CHECKS = {"trivialization.present", "trivialization.equivariance", "trivialization.section"}


def _plus_one(view):
    """The view with 1 added to every entry."""
    d, re, im = view
    return d, [v + d for v in re], im


def _affine_coaction(monkeypatch):
    real = bundle.coaction
    monkeypatch.setattr(bundle, "coaction", lambda b, f: _plus_one(real(b, f)))


def _psi_apply_reading_phi_plus_one(monkeypatch):
    real = suites.psi_apply

    def shifted(b, f):
        m = b.group.order
        return real(b.with_phi([(a + 1) % m for a in b.phi]), f)

    monkeypatch.setattr(suites, "psi_apply", shifted)


def _affine_psi_apply(monkeypatch):
    real = suites.psi_apply
    monkeypatch.setattr(suites, "psi_apply", lambda b, f: _plus_one(real(b, f)))


def _conv_inverse_returning_phi(monkeypatch):
    monkeypatch.setattr(potentials, "conv_inverse", lambda h: h)


# (check, fixture, action entry (p, a) -> q or None, code mutant or None)
KILLERS = [
    ("comodule.coassociativity", "fix_s3.json", (3, 4, 1), None),
    ("comodule.counit", "fix_s3.json", (4, 0, 5), None),
    ("comodule.multiplicativity", "fix_s3.json", None, _affine_coaction),
    ("comodule.unit", "fix_s3.json", None, _affine_coaction),
    ("trivialization.psi_left_inverse", "fix_prod.json", None, _psi_apply_reading_phi_plus_one),
    ("trivialization.psi_right_inverse", "fix_prod.json", None, _psi_apply_reading_phi_plus_one),
    ("trivialization.psi_multiplicative", "fix_prod.json", None, _affine_psi_apply),
    ("trivialization.conv_inverse", "fix_prod.json", None, _conv_inverse_returning_phi),
]

# the witnesses of the two checks that once failed without one: the
# affine coaction's unit reads 2 at (p, a) = (0, 0), and φ⋆φ on Z3 is
# δ(φ(p)²), which first misses the unit δ(e) at (p, c) = (1, 0)
WITNESSES = {"comodule.unit": (0, 0), "trivialization.conv_inverse": (1, 0)}


def _document(key: str, act=None):
    doc = copy.deepcopy(fixture_documents()[key])
    if act is not None:
        p, a, q = act
        doc["action"]["act"][p][a] = q
    return parse_spec(json.dumps(doc))


@pytest.mark.parametrize("key", ["fix_s3.json", "fix_prod.json"])
def test_the_catalogue_lists_every_check_of_the_slice(key):
    report = run_checks(_document(key), ["comodule", "trivialization"])
    assert report.passed
    assert {c.name for c in report.checks} - FRAME_CHECKS == {k[0] for k in KILLERS}


@pytest.mark.parametrize("check, key, act, code", KILLERS, ids=[k[0] for k in KILLERS])
def test_every_check_has_a_killer_and_each_failure_says_why(check, key, act, code, monkeypatch):
    doc = _document(key, act)
    if code is not None:
        code(monkeypatch)
    report = run_checks(doc, [check.partition(".")[0]])
    killed = named(report, check)
    assert not killed.passed
    if check in WITNESSES:
        assert killed.witness == WITNESSES[check]
    for c in report.checks:
        if not c.passed:
            assert c.witness is not None or (c.data or {}).get("reason"), c.name
