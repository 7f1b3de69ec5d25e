"""Acceptance gate: eleven exact-equality criteria, one verdict line each.

Verdicts print to the real stdout so they stay visible under capture.
Every comparison is exact; there are no tolerances anywhere.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from random import Random

from bridge import (
    adjoint_coaction,
    antipode,
    apply,
    basis,
    classical_curvature,
    compose,
    coproduct,
    counit,
    curvature,
    cyclic,
    direct_product,
    inverse,
    is_zero,
    map_of,
    named,
    plus,
    potential_curvature,
    scalar,
    scalar_at,
    scalars_of,
    trivial_connection,
    view_of,
)
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
from qpb.connection import star_delta, validate_connection_form
from qpb.document import parse_spec
from qpb.fixtures import fixture_documents
from qpb.gauge import gauge_compose, gauge_inverse, xi_from_tau
from qpb.groups import BundleSpec, RightAction, TransitionMap, symmetric
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
        n, e = g.order, g.identity
        for k, alpha in enumerate(basis(g)):
            # entry (x, y) of a view on G x G is at x·n + y
            cop = scalars_of(coproduct(g, alpha))
            values = scalars_of(alpha)

            # coassociativity: expanding either leg gives the same triple table
            first_leg = [
                scalars_of(coproduct(g, view_of(cop[w * n + z] for w in range(n))))
                for z in range(n)
            ]
            second_leg = [
                scalars_of(coproduct(g, view_of(cop[x * n + w] for w in range(n))))
                for x in range(n)
            ]
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        lhs = first_leg[z][x * n + y]
                        rhs = second_leg[x][y * n + z]
                        want = values[g.table[g.table[x][y]][z]]
                        if lhs != rhs or lhs != want:
                            problems.append(("coassociativity", n, k, x, y, z))

            # counit laws on both legs
            for x in range(n):
                row = view_of(cop[x * n + w] for w in range(n))
                col = view_of(cop[w * n + x] for w in range(n))
                want = values[x]
                if scalar(counit(g, row)) != want or scalar(counit(g, col)) != want:
                    problems.append(("counit", n, k, x))

            # antipode laws; multiplication here is pointwise, so the
            # composite evaluates the coproduct at inverse pairs
            eps = scalar(counit(g, alpha))
            for z in range(n):
                if cop[g.inv(z) * n + z] != eps or cop[z * n + g.inv(z)] != eps:
                    problems.append(("antipode", n, k, z))
            if antipode(g, antipode(g, alpha)) != alpha:
                problems.append(("antipode_involution", n, k))

            # right adjoint coaction: counit leg and iterated-coaction law
            ad = scalars_of(adjoint_coaction(g, alpha))
            for x in range(n):
                if ad[x * n + e] != values[x]:
                    problems.append(("adjoint_counit", n, k, x))
            for y in range(n):
                slice_y = view_of(ad[w * n + y] for w in range(n))
                ad2 = scalars_of(adjoint_coaction(g, slice_y))
                for x in range(n):
                    for z in range(n):
                        if ad2[x * n + z] != values[g.conj(x, g.table[z][y])]:
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
        data = named(rep, "freeness.rank").data
        if not rep.passed or data["rank"] != expected[b.name]:
            problems.append((b.name, data))
    rep = check_freeness(fix_nonfree())
    data = named(rep, "freeness.rank").data
    if rep.passed or data["rank"] != 2 or data["expected_rank"] != 4:
        problems.append(("fix-nonfree", data))
    if named(rep, "freeness.direct").witness != (0, 1):
        problems.append(("fix-nonfree witness", named(rep, "freeness.direct").witness))
    verdict(3, "freeness ranks", problems)


def test_criterion_04_calculus_random_forms():
    problems = []
    for make in FRAMED:
        b = make()
        n = b.total_size
        rng = Random(101)

        forms = [random_form(n, deg, rng) for deg in (0, 1, 2) for _ in range(36)]
        for i, f in enumerate(forms):
            if not is_zero(differential(differential(f))):
                problems.append((b.name, "d_squared", i))

        degree_pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2)]
        for da, db in degree_pairs:
            for _ in range(4):
                f = random_form(n, da, rng)
                g = random_form(n, db, rng)
                lhs = differential(star_delta(f, g))
                second = star_delta(f, differential(g))
                sign = -1 if da % 2 else 1
                rhs = plus(star_delta(differential(f), g), second, sign)
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
        surj = named(rep, "exactness.surjectivity").data
        ker = named(rep, "exactness.kernel_equals_horizontal").data
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
        for alpha in basis(g):
            ca = coaction(b, apply(ph, alpha))
            ca_inv = coaction(b, apply(ph_inv, alpha))
            ca, ca_inv = scalars_of(ca), scalars_of(ca_inv)
            for p in range(n):
                for a in range(m):
                    if ca[p * m + a] != scalars_of(alpha)[g.table[phi[p]][a]]:
                        problems.append((b.name, "frame coaction", p, a))
                    word = g.table[g.inv(a)][g.inv(phi[p])]
                    if ca_inv[p * m + a] != scalars_of(alpha)[word]:
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
        if curvature(trivial_connection(b)) != potential_curvature(
            lift_base_potential(zero_gh, b), b
        ):
            problems.append((b.name, "trivial"))
        for i, gh in enumerate(potentials):
            gamma = lift_base_potential(gh, b)
            direct = curvature(connection_from_potential(gamma, b))
            conjugated = potential_curvature(gamma, b)
            if direct != conjugated:
                problems.append((b.name, i))
    b = fix_z2()
    for tm in all_transition_maps(b.group, 2):
        gamma = lift_base_potential(potential_from_transition(tm), b)
        if curvature(classical_connection(tm, b)) != potential_curvature(gamma, b):
            problems.append(("fix-z2 classical", tm.table))
    verdict(8, "curvature route equality", problems)


def test_criterion_09_classical_curvature():
    problems = []
    for make, base_size in ((fix_z2, 2), (fix_prod, 2)):
        b = make()
        for tm in all_transition_maps(b.group, base_size):
            closed = classical_curvature(tm, b)
            if closed != curvature(classical_connection(tm, b)):
                problems.append((b.name, tm.table, "route"))
            if is_zero(closed) != is_cocycle(tm)[0]:
                problems.append((b.name, tm.table, "flatness"))

    b = fix_z2()
    f = classical_curvature(TransitionMap(b.group, [[0, 1], [0, 0]]), b)
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
            if xi_from_tau(gauge_inverse(t1)) != inverse(xi_from_tau(t1)):
                problems.append((b.name, "inverse", t1.table))
            for t2 in taus:
                composed = xi_from_tau(gauge_compose(t1, t2))
                if composed != compose(xi_from_tau(t1), xi_from_tau(t2)):
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
