"""Acceptance gate: eleven exact-equality criteria, one verdict line each.

Verdicts print to the real stdout so they stay visible under capture.
Every comparison is exact; there are no tolerances anywhere.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from random import Random

from bridge import func_of, map_of, scalar, scalar_at, scalars_of
from conftest import (
    all_gauge_maps,
    all_transition_maps,
    fix_nonfree,
    fix_prod,
    fix_s3,
    fix_z2,
    random_base_potential,
    random_degree0_map,
    random_form,
)
from qpb.bundle import check_comodule_algebra, check_freeness, coaction
from qpb.calculus import check_exactness, differential
from qpb.cli import main
from qpb.connection import (
    curvature,
    curvature_classical,
    curvature_from_potential,
    star_delta,
    validate_connection_form,
)
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.gauge import gauge_compose, gauge_inverse, xi_from_tau
from qpb.groups import BundleSpec, RightAction, TransitionMap, cyclic, direct_product, symmetric
from qpb.hopf import HopfAlgebra
from qpb.potentials import (
    classical_connection,
    connection_from_potential,
    conv_inverse,
    conv_unit,
    gauge_transform_base_potential,
    gauge_transform_transition,
    is_cocycle,
    lift_base_potential,
    phi_hom,
    potential_from_transition,
    strong_connection_direct,
    trivial_connection,
)
from qpb.scalars import ZERO

FRAMED = [fix_z2, fix_s3, fix_prod]


def verdict(num: int, label: str, problems: list) -> None:
    ok = not problems
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__)
    assert ok, f"{line}; first problem: {problems[0] if problems else ''}"


def test_criterion_01_hopf_suite():
    problems = []
    groups = [
        cyclic(2),
        cyclic(3),
        cyclic(4),
        direct_product(cyclic(2), cyclic(2)),
        symmetric(3),
    ]
    for g in groups:
        h = HopfAlgebra(g)
        n, e = g.order, g.identity
        for k, alpha in enumerate(h.basis()):
            cop = h.coproduct(alpha)

            # coassociativity: expanding either leg gives the same triple table
            first_leg = [
                h.coproduct(func_of((n,), [scalar_at(cop, w, z) for w in range(n)]))
                for z in range(n)
            ]
            second_leg = [
                h.coproduct(func_of((n,), [scalar_at(cop, x, w) for w in range(n)]))
                for x in range(n)
            ]
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        lhs = scalar_at(first_leg[z], x, y)
                        rhs = scalar_at(second_leg[x], y, z)
                        want = scalars_of(alpha)[g.table[g.table[x][y]][z]]
                        if lhs != rhs or lhs != want:
                            problems.append(("coassociativity", n, k, x, y, z))

            # counit laws on both legs
            for x in range(n):
                row = func_of((n,), [scalar_at(cop, x, w) for w in range(n)])
                col = func_of((n,), [scalar_at(cop, w, x) for w in range(n)])
                want = scalars_of(alpha)[x]
                if scalar(h.counit(row)) != want or scalar(h.counit(col)) != want:
                    problems.append(("counit", n, k, x))

            # antipode laws; multiplication here is pointwise, so the
            # composite evaluates the coproduct at inverse pairs
            eps = scalar(h.counit(alpha))
            for z in range(n):
                if scalar_at(cop, g.inv(z), z) != eps or scalar_at(cop, z, g.inv(z)) != eps:
                    problems.append(("antipode", n, k, z))
            if h.antipode(h.antipode(alpha)) != alpha:
                problems.append(("antipode_involution", n, k))

            # right adjoint coaction: counit leg and iterated-coaction law
            ad = h.adjoint_coaction(alpha)
            for x in range(n):
                if scalar_at(ad, x, e) != scalars_of(alpha)[x]:
                    problems.append(("adjoint_counit", n, k, x))
            for y in range(n):
                slice_y = func_of((n,), [scalar_at(ad, w, y) for w in range(n)])
                ad2 = h.adjoint_coaction(slice_y)
                for x in range(n):
                    for z in range(n):
                        if scalar_at(ad2, x, z) != scalars_of(alpha)[g.conj(x, g.table[z][y])]:
                            problems.append(("adjoint_iterate", n, k, x, y, z))
    verdict(1, "hopf suite", problems)


def test_criterion_02_comodule_algebra():
    problems = []
    for make in FRAMED:
        rep = check_comodule_algebra(make())
        if not rep.passed:
            problems.append((make().name, rep.first_failure().name))
    g = cyclic(2)
    corrupted = BundleSpec(g, RightAction(g, [[0, 1], [1, 3], [2, 0], [3, 1]]))
    rep = check_comodule_algebra(corrupted)
    if rep.passed:
        problems.append("corrupted action accepted")
    elif rep.first_failure().witness is None:
        problems.append("corrupted action failed without a witness")
    verdict(2, "comodule algebra", problems)


def test_criterion_03_freeness_ranks():
    problems = []
    expected = {"fix-z2": 8, "fix-s3": 36, "fix-prod": 18}
    for make in FRAMED:
        b = make()
        rep = check_freeness(b)
        data = rep["freeness.rank"].data
        if not rep.passed or data["rank"] != expected[b.name]:
            problems.append((b.name, data))
    rep = check_freeness(fix_nonfree())
    data = rep["freeness.rank"].data
    if rep.passed or data["rank"] != 2 or data["expected_rank"] != 4:
        problems.append(("fix-nonfree", data))
    if rep["freeness.direct"].witness != (0, 1):
        problems.append(("fix-nonfree witness", rep["freeness.direct"].witness))
    verdict(3, "freeness ranks", problems)


def test_criterion_04_calculus_random_forms():
    problems = []
    for make in FRAMED:
        b = make()
        n = b.total_size
        rng = Random(101)

        forms = [random_form(n, deg, rng) for deg in (0, 1, 2) for _ in range(36)]
        for i, f in enumerate(forms):
            if not differential(differential(f)).is_zero():
                problems.append((b.name, "d_squared", i))

        degree_pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2)]
        for da, db in degree_pairs:
            for _ in range(4):
                f = random_form(n, da, rng)
                g = random_form(n, db, rng)
                lhs = differential(star_delta(f, g))
                second = star_delta(f, differential(g))
                if da % 2:
                    second = -second
                rhs = star_delta(differential(f), g) + second
                if lhs != rhs:
                    problems.append((b.name, "leibniz", da, db))

        for _ in range(10):
            f = random_form(n, 0, rng)
            g = random_form(n, 1, rng)
            k = random_form(n, 1, rng)
            if star_delta(star_delta(f, g), k) != star_delta(f, star_delta(g, k)):
                problems.append((b.name, "associativity"))
    verdict(4, "universal calculus", problems)


def test_criterion_05_exactness_dimensions():
    problems = []
    expected = {
        "fix-z2": (12, 4, 8, 8),
        "fix-s3": (30, 30, 0, 0),
        "fix-prod": (30, 12, 18, 18),
    }
    for make in FRAMED:
        b = make()
        rep = check_exactness(b, check_freeness(b))
        surj = rep["exactness.surjectivity"].data
        ker = rep["exactness.kernel_equals_horizontal"].data
        got = (surj["dim_omega1"], surj["rank"], ker["kernel_dim"], ker["horizontal_dim"])
        if not rep.passed or got != expected[b.name]:
            problems.append((b.name, got))
    verdict(5, "one-form exactness", problems)


def test_criterion_06_convolution_suite():
    problems = []
    for make in FRAMED:
        b = make()
        g = b.group
        n, m = b.total_size, g.order
        rng = Random(7)
        unit = conv_unit(g, n)
        for _ in range(10):
            u = random_degree0_map(g, n, rng)
            v = random_degree0_map(g, n, rng)
            w = random_degree0_map(g, n, rng)
            if star_delta(star_delta(u, v), w) != star_delta(u, star_delta(v, w)):
                problems.append((b.name, "associativity"))
            if star_delta(unit, u) != u or star_delta(u, unit) != u:
                problems.append((b.name, "unit"))

        ph = phi_hom(b)
        ph_inv = conv_inverse(ph)
        if star_delta(ph, ph_inv) != unit or star_delta(ph_inv, ph) != unit:
            problems.append((b.name, "frame inverse"))

        # coaction identities for the frame map and its inverse
        phi = b.phi
        for alpha in HopfAlgebra(g).basis():
            ca = coaction(b, ph.apply(alpha))
            ca_inv = coaction(b, ph_inv.apply(alpha))
            for p in range(n):
                for a in range(m):
                    if scalar_at(ca, p, a) != scalars_of(alpha)[g.table[phi[p]][a]]:
                        problems.append((b.name, "frame coaction", p, a))
                    word = g.table[g.inv(a)][g.inv(phi[p])]
                    if scalar_at(ca_inv, p, a) != scalars_of(alpha)[word]:
                        problems.append((b.name, "inverse coaction", p, a))
    verdict(6, "convolution suite", problems)


def _connection_sets():
    """Per fixture: the trivial connection and 50 random lifted strong ones;
    on the first fixture also every classical connection."""
    for make in FRAMED:
        b = make()
        rng = Random(211)
        potentials = [random_base_potential(b.group, b.base.size, rng) for _ in range(50)]
        yield b, potentials


def test_criterion_07_connection_form_invariants():
    problems = []
    for b, potentials in _connection_sets():
        if not validate_connection_form(trivial_connection(b), b).passed:
            problems.append((b.name, "trivial"))
        for i, gh in enumerate(potentials):
            theta = strong_connection_direct(gh, b)
            rep = validate_connection_form(theta, b)
            if not rep.passed:
                problems.append((b.name, i, rep.first_failure().name))
    b = fix_z2()
    for tm in all_transition_maps(b.group, 2):
        rep = validate_connection_form(classical_connection(tm, b), b)
        if not rep.passed:
            problems.append(("fix-z2 classical", tm.table, rep.first_failure().name))
    verdict(7, "connection invariants", problems)


def test_criterion_08_curvature_route_equality():
    problems = []
    for b, potentials in _connection_sets():
        m = b.group.order
        zero_gh = map_of(b.group, b.base.size, 1, [ZERO] * (b.base.size**2 * m))
        # the trivial connection carries the zero potential
        if curvature(trivial_connection(b)) != curvature_from_potential(
            lift_base_potential(zero_gh, b), b
        ):
            problems.append((b.name, "trivial"))
        for i, gh in enumerate(potentials):
            gamma = lift_base_potential(gh, b)
            direct = curvature(connection_from_potential(gamma, b))
            conjugated = curvature_from_potential(gamma, b)
            if direct != conjugated:
                problems.append((b.name, i))
    b = fix_z2()
    for tm in all_transition_maps(b.group, 2):
        gamma = lift_base_potential(potential_from_transition(tm), b)
        if curvature(classical_connection(tm, b)) != curvature_from_potential(gamma, b):
            problems.append(("fix-z2 classical", tm.table))
    verdict(8, "curvature route equality", problems)


def test_criterion_09_classical_curvature():
    problems = []
    for make, base_size in ((fix_z2, 2), (fix_prod, 2)):
        b = make()
        for tm in all_transition_maps(b.group, base_size):
            closed = curvature_classical(tm, b)
            if closed != curvature(classical_connection(tm, b)):
                problems.append((b.name, tm.table, "route"))
            if closed.is_zero() != is_cocycle(tm)[0]:
                problems.append((b.name, tm.table, "flatness"))

    b = fix_z2()
    f = curvature_classical(TransitionMap(b.group, [[0, 1], [0, 0]]), b)
    for p_mid in (1, 3):
        if scalar_at(f, 0, p_mid, 0, 1) != 1:
            problems.append(("documented value", p_mid))
    verdict(9, "classical curvature", problems)


def test_criterion_10_gauge_suite():
    problems = []
    for make in (fix_z2, fix_prod):
        b = make()
        g = b.group
        taus = list(all_gauge_maps(g, b.base.size))
        expected_count = g.order ** b.base.size
        if len(taus) != expected_count:
            problems.append((b.name, "count", len(taus)))
        for t1 in taus:
            if xi_from_tau(gauge_inverse(t1)) != xi_from_tau(t1).inverse():
                problems.append((b.name, "inverse", t1.table))
            for t2 in taus:
                composed = xi_from_tau(gauge_compose(t1, t2))
                if composed != xi_from_tau(t1).compose(xi_from_tau(t2)):
                    problems.append((b.name, "compose", t1.table, t2.table))

        rng = Random(83)
        gh = random_base_potential(g, b.base.size, rng)
        for tau in taus:
            closed, via = gauge_transform_base_potential(gh, tau)
            if closed != via:
                problems.append((b.name, "routes", tau.table))
        for tm in all_transition_maps(g, b.base.size):
            for tau in taus:
                moved = gauge_transform_transition(tm, tau)
                direct = potential_from_transition(moved)
                closed, via = gauge_transform_base_potential(potential_from_transition(tm), tau)
                if not direct == closed == via:
                    problems.append((b.name, "classical", tm.table, tau.table))
    verdict(10, "gauge suite", problems)


def test_criterion_11_cli_end_to_end(tmp_path):
    problems = []

    def run(argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    code, out, _ = run(["fixtures", "--dir", str(tmp_path)])
    if code != 0 or out.count("wrote ") != 4:
        problems.append(("fixtures", code))

    for key in fixture_documents():
        text = (tmp_path / key).read_text()
        doc = parse_spec(text)
        if doc.digest == "":
            problems.append((key, "no digest"))

    for key, expected in (
        ("fix_z2.json", 0),
        ("fix_s3.json", 0),
        ("fix_prod.json", 0),
        ("fix_nonfree.json", 1),
    ):
        code, out, _ = run(["check", str(tmp_path / key)])
        if code != expected:
            problems.append((key, "exit", code))
        if expected == 0 and "ALL CHECKS PASSED" not in out:
            problems.append((key, "missing pass banner"))
        if expected == 1 and "FAILED" not in out:
            problems.append((key, "missing failure banner"))

    code1, out1, _ = run(["check", str(tmp_path / "fix_z2.json"), "--format", "json"])
    code2, out2, _ = run(["check", str(tmp_path / "fix_z2.json"), "--format", "json"])
    if code1 != 0 or out1 != out2:
        problems.append(("json determinism", code1))
    payload = json.loads(out1)
    if payload["exit_status"] != 0 or payload["summary"]["failed"] != 0:
        problems.append(("json summary", payload["summary"]))

    code, _, err = run(["check", str(tmp_path / "fix_z2.json"), "--suite", "bogus"])
    if code != 2 or "unknown suite" not in err:
        problems.append(("config exit", code))
    code, _, err = run(["check", str(tmp_path / "absent.json")])
    if code != 2:
        problems.append(("unreadable exit", code))
    verdict(11, "cli end to end", problems)
