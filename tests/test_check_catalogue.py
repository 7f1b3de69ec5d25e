"""Every group, action, comodule, freeness, exactness and trivialization
check can fail, and says why.

A slice of the check catalogue: each check of the group, action,
comodule, freeness and exactness suites, and of the trivialization
suite after its frame checks, has a killer.  A killer is a single-entry
mutant of a fixture's `mul` or `act` table where one reaches the check,
and otherwise a code mutant on the route the check compares: the
coaction and psi are pullbacks, so they are algebra maps on any table;
φ's delta table inverts once the frame checks pass; and a free action's
one-forms are exact, so only a mutant of the rank or of the horizontal
basis fails an exactness check.  Every check a killer fails names a
witness or a reason, except the three rank checks, which give the two
dimensions they compare.

The connection, curvature and gauge checks that compare two routes by
a table comparison name the first failing entry too: a code mutant that
moves one entry of one route fails the check at that entry.
"""

import copy
import json

import pytest

from bridge import named
from qpb import bundle, calculus, connection, linalg, potentials, suites
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.funcs import FormValuedMap
from qpb.groups import GaugeMap
from qpb.runner import run_checks
from test_golden import _with_gamma

# the checks `validate_trivialization` reports read φ directly, before
# the frame is used, and are outside this slice
FRAME_CHECKS = {"trivialization.present", "trivialization.equivariance", "trivialization.section"}

SUITES = ["group", "action", "comodule", "freeness", "exactness", "trivialization"]

# reported only in place of the exactness checks, when freeness fails
ON_FAILURE = {"exactness.freeness_required"}

# a failing rank check gives the rank it found and the one it expected
RANK_DATA = {
    "freeness.rank": ("rank", "expected_rank"),
    "exactness.surjectivity": ("rank", "target_dim"),
    "exactness.kernel_equals_horizontal": ("kernel_dim", "horizontal_dim"),
}


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


def _rank_one_short(monkeypatch):
    real = linalg.rank_and_kernel

    def short(matrix, ncols):
        rank, kernel = real(matrix, ncols=ncols)
        return rank - 1, kernel

    monkeypatch.setattr(linalg, "rank_and_kernel", short)


def _horizontal_basis_one_short(monkeypatch):
    real = calculus.horizontal_basis

    def short(b):
        basis = real(b)
        return linalg.SubspaceBasis(basis.ambient_dim, basis.vectors[:-1], basis.pivots[:-1])

    monkeypatch.setattr(calculus, "horizontal_basis", short)


# (check, fixture, table entry (table, i, j, value) or None, code mutant or None);
# an entry sets group.mul[i][j] or action.act[i][j]
KILLERS = [
    # the mul mutants turn fix_z2's [[0, 1], [1, 0]] into [[1, 1], [1, 0]],
    # [[0, 0], [1, 0]] (no identity) and [[0, 1], [1, 1]]
    ("group.associativity", "fix_z2.json", ("mul", 0, 0, 1), None),
    ("group.identity", "fix_z2.json", ("mul", 0, 1, 0), None),
    ("group.inverses", "fix_z2.json", ("mul", 1, 1, 1), None),
    ("action.unit", "fix_z2.json", ("act", 0, 0, 1), None),
    ("action.compatibility", "fix_z2.json", ("act", 0, 1, 3), None),
    ("action.freeness", "fix_z2.json", ("act", 0, 1, 0), None),
    ("comodule.coassociativity", "fix_s3.json", ("act", 3, 4, 1), None),
    ("comodule.counit", "fix_s3.json", ("act", 4, 0, 5), None),
    ("comodule.multiplicativity", "fix_s3.json", None, _affine_coaction),
    ("comodule.unit", "fix_s3.json", None, _affine_coaction),
    ("freeness.direct", "fix_z2.json", ("act", 0, 1, 0), None),
    ("freeness.rank", "fix_z2.json", ("act", 0, 1, 0), None),
    ("exactness.freeness_required", "fix_z2.json", ("act", 0, 1, 0), None),
    # a free action's one-forms are exact, so no input fails these two
    ("exactness.surjectivity", "fix_z2.json", None, _rank_one_short),
    ("exactness.kernel_equals_horizontal", "fix_z2.json", None, _horizontal_basis_one_short),
    ("trivialization.psi_left_inverse", "fix_prod.json", None, _psi_apply_reading_phi_plus_one),
    ("trivialization.psi_right_inverse", "fix_prod.json", None, _psi_apply_reading_phi_plus_one),
    ("trivialization.psi_multiplicative", "fix_prod.json", None, _affine_psi_apply),
    ("trivialization.conv_inverse", "fix_prod.json", None, _conv_inverse_returning_phi),
]

# the witnesses of the two checks that once failed without one: the
# affine coaction's unit reads 2 at (p, a) = (0, 0), and φ⋆φ on Z3 is
# δ(φ(p)²), which first misses the unit δ(e) at (p, c) = (1, 0); and the
# first failures of the table mutants above, row-major: (0·0)·1 = 0 but
# 0·(0·1) = 1; the idempotent 0 has 0·1 = 0; 1·1 = 1 leaves 1 without an
# inverse; 0·e = 1; (0·1)·1 = 1 but 0·(1·1) = 0; 0 is fixed by 1
WITNESSES = {
    "comodule.unit": (0, 0),
    "trivialization.conv_inverse": (1, 0),
    "group.associativity": (0, 0, 1),
    "group.identity": (0, 1),
    "group.inverses": (1,),
    "action.unit": (0,),
    "action.compatibility": (0, 1, 1),
    "action.freeness": (0, 1),
    "freeness.direct": (0, 1),
    "exactness.freeness_required": (0, 1),
}


def _document(key: str, entry=None):
    doc = copy.deepcopy(fixture_documents()[key])
    if entry is not None:
        table, i, j, value = entry
        rows = doc["group"]["mul"] if table == "mul" else doc["action"]["act"]
        rows[i][j] = value
        # the tables over the base need the parent's orbits
        doc.pop("connections", None)
        doc.pop("gauges", None)
    return parse_spec(json.dumps(doc))


def _says_why(c) -> bool:
    data = c.data or {}
    if c.name in RANK_DATA:
        return all(key in data for key in RANK_DATA[c.name])
    return c.witness is not None or bool(data.get("reason"))


@pytest.mark.parametrize("key", ["fix_s3.json", "fix_prod.json"])
def test_the_catalogue_lists_every_check_of_the_slice(key):
    report = run_checks(_document(key), SUITES)
    assert report.passed
    assert {c.name for c in report.checks} - FRAME_CHECKS == {k[0] for k in KILLERS} - ON_FAILURE


@pytest.mark.parametrize("check, key, entry, code", KILLERS, ids=[k[0] for k in KILLERS])
def test_every_check_has_a_killer_and_each_failure_says_why(check, key, entry, code, monkeypatch):
    doc = _document(key, entry)
    if code is not None:
        code(monkeypatch)
    report = run_checks(doc, [check.partition(".")[0]])
    killed = named(report, check)
    assert not killed.passed
    if check in WITNESSES:
        assert killed.witness == WITNESSES[check]
    for c in report.checks:
        if not c.passed:
            assert _says_why(c), c.name


def _bumped(table: FormValuedMap, at: tuple) -> FormValuedMap:
    """The table with 1 added to its entry at `at`."""
    d, re, im = table.view
    flat = 0
    for i, n in zip(at, table.shape):
        flat = flat * n + i
    re = list(re)
    re[flat] += d
    return FormValuedMap(table.group, table.size, table.degree, view=(d, re, im))


def _bumping(module, name: str, at: tuple):
    """A code mutant whose `module.name` returns its table bumped at `at`."""

    def mutant(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: _bumped(real(*args), at))

    return mutant


def _bumping_stream(name: str, at: tuple):
    """A code mutant whose curvature route `connection.name` gives its
    entry (p, q, r, c) plus 1: the pairs run row-major, r·m + c within one."""
    p, q, r, c = at

    def mutant(monkeypatch):
        real = getattr(connection, name)

        def bumped(arg, b):
            d, pairs = real(arg, b)
            n, m = b.total_size, b.group.order

            def rows():
                for t, (re, im) in enumerate(pairs):
                    if t == p * n + q:
                        re = list(re)
                        re[r * m + c] += d
                    yield re, im

            return d, rows()

        monkeypatch.setattr(connection, name, bumped)

    return mutant


def _tau_read_back_moved(monkeypatch):
    # fix_z2's flip reads back as [1, 0]; the mutant reads [1, 1]
    real = suites.tau_extract

    def moved(xi):
        tau = real(xi)
        return GaugeMap(tau.group, tau.table[:1] + [(tau.table[1] + 1) % tau.group.order])

    monkeypatch.setattr(suites, "tau_extract", moved)


def _transformed_transition_moved(monkeypatch):
    # on fix_z2 the flip takes cls's t(0, 1) = 1 to 0; the mutant gives 1,
    # whose row (-1, 1) first differs from the transformed potential's
    # zero row at group element 0
    real = potentials.gauge_transform_transition

    def moved(tm, tau):
        out = real(tm, tau)
        out.table[0][1] = (out.table[0][1] + 1) % tm.group.order
        return out

    monkeypatch.setattr(potentials, "gauge_transform_transition", moved)


def _z2_gamma():
    """fix_z2 with its classical connection's lifted potential declared
    as the `gamma` connection `lifted`."""
    return parse_spec(json.dumps(_with_gamma(copy.deepcopy(fixture_documents()["fix_z2.json"]))))


# (check, document, code mutant, the witness it must name)
ROUTES = [
    (
        "connection:lifted.route_agreement",
        _z2_gamma(),
        _bumping(potentials, "strong_connection_direct", (0, 1, 1)),
        (0, 1, 1),
    ),
    (
        "connection:rational.strong_route_agreement",
        _document("fix_prod.json"),
        _bumping(potentials, "strong_connection_direct", (2, 4, 1)),
        (2, 4, 1),
    ),
    (
        "connection:cls.classical_route_agreement",
        _document("fix_z2.json"),
        _bumping(potentials, "connection_from_potential", (1, 2, 0)),
        (1, 2, 0),
    ),
    (
        "connection:cls.splitting_roundtrip",
        _document("fix_z2.json"),
        _bumping(connection, "theta_from_splitting", (3, 0, 1)),
        (3, 0, 1),
    ),
    (
        "curvature:cls.route_agreement",
        _document("fix_z2.json"),
        _bumping_stream("curvature_from_potential", (1, 2, 3, 0)),
        (1, 2, 3, 0),
    ),
    (
        "curvature:cls.classical_agreement",
        _document("fix_z2.json"),
        _bumping_stream("curvature_classical", (0, 0, 2, 1)),
        (0, 0, 2, 1),
    ),
    (
        "curvature:lifted.route_agreement",
        _z2_gamma(),
        _bumping_stream("curvature_from_potential", (3, 1, 0, 1)),
        (3, 1, 0, 1),
    ),
    ("gauge:flip:cls.automorphism_roundtrip", _document("fix_z2.json"), _tau_read_back_moved, (1,)),
    (
        "gauge:flip:cls.classical_agreement",
        _document("fix_z2.json"),
        _transformed_transition_moved,
        (0, 1, 0),
    ),
]


@pytest.mark.parametrize("check, doc, code, witness", ROUTES, ids=[k[0] for k in ROUTES])
def test_each_route_comparison_names_the_first_failure(check, doc, code, witness, monkeypatch):
    suite = check.partition(".")[0]
    assert run_checks(doc, [suite]).passed
    code(monkeypatch)
    report = run_checks(doc, [suite])
    killed = named(report, check)
    assert (killed.passed, killed.witness) == (False, witness)
    for c in report.checks:
        if not c.passed:
            assert _says_why(c), c.name
