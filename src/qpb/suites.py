"""The suites that read a frame or a connection: trivialization,
connection, curvature and gauge.

`runner` imports this module where one of these suites runs, so a check
that runs none of them, such as `--suite group`, and a curvature dump
never compile it.  Each suite reads the run's shared context, with its
frame and its per-connection inputs, and returns its checks named under
the suite.
"""

from __future__ import annotations

from . import connection, potentials
from .bundle import psi_apply, psi_inverse, validate_trivialization
from .calculus import validate_form
from .document import ConnectionDecl
from .funcs import Func, TableCapError, first_difference
from .gauge import tau_extract, validate_automorphism, xi_from_tau
from .report import CheckResult, rejection

# only for the annotations: runner imports this module
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .runner import _Context


def _renamed(checks: list[CheckResult], suite: str, prefix_map: dict | None = None) -> list[CheckResult]:
    out = []
    for c in checks:
        head, _, tail = c.name.partition(".")
        if prefix_map and head in prefix_map:
            head = prefix_map[head]
        out.append(CheckResult(f"{suite}.{head}.{tail}", c.passed, c.witness, c.data))
    return out


def _suite_trivialization(ctx: _Context) -> list[CheckResult]:
    out: list[CheckResult] = []
    b = ctx.bundle
    if ctx.doc.bundle.phi is None:
        if b.phi is None:
            out.append(
                CheckResult(
                    "trivialization.synthesized",
                    False,
                    data={"reason": ctx.synthesis_error},
                )
            )
            return out
        out.append(CheckResult("trivialization.synthesized", True, data={"phi": list(b.phi)}))
    rep = validate_trivialization(b)
    out.extend(rep.checks)
    if not rep.passed:
        return out

    nb, m, n = b.base.size, b.group.order, b.total_size
    basis_bg = [Func.indicator((nb, m), (x, a)) for x in range(nb) for a in range(m)]
    left = next(
        (
            (x, a)
            for x in range(nb)
            for a in range(m)
            if psi_inverse(b, psi_apply(b, basis_bg[x * m + a])) != basis_bg[x * m + a]
        ),
        None,
    )
    out.append(CheckResult("trivialization.psi_left_inverse", left is None, left))

    right = next(
        (
            (p,)
            for p in range(n)
            if psi_apply(b, psi_inverse(b, Func.indicator((n,), (p,))))
            != Func.indicator((n,), (p,))
        ),
        None,
    )
    out.append(CheckResult("trivialization.psi_right_inverse", right is None, right))

    images = [psi_apply(b, h) for h in basis_bg]
    mult = next(
        (
            (i, j)
            for i in range(len(basis_bg))
            for j in range(len(basis_bg))
            if psi_apply(b, basis_bg[i] * basis_bg[j]) != images[i] * images[j]
        ),
        None,
    )
    out.append(CheckResult("trivialization.psi_multiplicative", mult is None, mult))

    # phi passed validate_trivialization, so its delta table inverts; a
    # cap met building the tables below propagates like any other
    ph = potentials.phi_hom(b)
    ph_inv = potentials.conv_inverse(ph)
    unit = potentials.conv_unit(b.group, n)
    star = connection.star_delta
    ok = star(ph, ph_inv) == unit and star(ph_inv, ph) == unit
    out.append(CheckResult("trivialization.conv_inverse", ok))
    return out


def _suite_connection(ctx: _Context, decl: ConnectionDecl) -> list[CheckResult]:
    suite = f"connection:{decl.name}"
    out: list[CheckResult] = []
    # a connection given as theta reads no phi, so it needs no frame
    b = ctx.doc.bundle if decl.kind == "theta" else ctx.bundle

    ok_inputs = True
    if decl.kind != "theta":
        inputs = ctx.inputs_for(decl)
        out.extend(_renamed(inputs.report.checks, suite))
        ok_inputs = inputs.report.passed
        if ok_inputs and decl.kind == "classical":
            rep = inputs.base_report
            out.extend(_renamed(rep.checks, suite, {"base_potential": "derived_potential"}))
            ok_inputs = rep.passed
        elif ok_inputs and decl.kind == "gamma_hat" and ctx.framed:
            rep = inputs.potential_report
            out.extend(_renamed(rep.checks, suite, {"potential": "lifted_potential"}))
            ok_inputs = rep.passed

    if decl.kind != "theta" and not ctx.framed:
        out.append(
            CheckResult(
                f"{suite}.frame_available",
                False,
                data={"reason": "bundle has no trivialization and none could be synthesized"},
            )
        )
        return out
    if not ok_inputs:
        return out

    theta, reason = ctx.inputs_for(decl).theta
    if theta is None:
        out.append(CheckResult(f"{suite}.canonicalized", False, data={"reason": reason}))
        return out

    if decl.kind in ("gamma", "gamma_hat"):
        check = "route_agreement" if decl.kind == "gamma" else "strong_route_agreement"
        direct = potentials.strong_connection_direct(decl.payload, b)
        out.append(CheckResult(f"{suite}.{check}", direct.view == theta.view))
    elif decl.kind == "classical":
        # the lift of a base potential that passed base_report meets the
        # three potential invariants by construction
        via_potential = potentials.connection_from_potential(ctx.inputs_for(decl).potential, b)
        out.append(
            CheckResult(
                f"{suite}.classical_route_agreement",
                via_potential.view == theta.view,
            )
        )

    rep = connection.validate_connection_form(theta, b)
    out.extend(_renamed(rep.checks, suite, {"connection": "form"}))
    if not rep.passed:
        return out
    # theta passed validate_connection_form above, and the splitting is
    # validated here before it is read back
    try:
        sp = connection.splitting_from_theta(theta, b)
        srep = connection.validate_splitting(sp, b)
        out.extend(_renamed(srep.checks, suite))
        reason = rejection("splitting", srep)
        ok = reason is None and connection.theta_from_splitting(sp, b).view == theta.view
    except ValueError as exc:
        reason, ok = str(exc), False
    data = None if reason is None else {"reason": reason}
    out.append(CheckResult(f"{suite}.splitting_roundtrip", ok, data=data))
    return out


def _suite_curvature(ctx: _Context, decl: ConnectionDecl) -> list[CheckResult]:
    suite = f"curvature:{decl.name}"
    out: list[CheckResult] = []
    theta, reason = ctx.inputs_for(decl).theta
    if theta is None:
        out.append(CheckResult(f"{suite}.canonicalized", False, data={"reason": reason}))
        return out

    f = connection.curvature(theta)
    (form_check,) = validate_form(f).checks
    out.append(CheckResult(f"{suite}.form_validity", form_check.passed, form_check.witness))

    # theta was built, so the frame is present, the inputs fit the bundle
    # and the n³·m guard that no route below exceeds has passed
    if decl.kind != "theta":
        # the potential on its own points: the base one, or gamma's
        gamma = decl.payload if decl.kind == "gamma" else ctx.inputs_for(decl).base
        other = connection.curvature_from_potential(gamma, ctx.bundle)
        out.append(CheckResult(f"{suite}.route_agreement", f == other))
    if decl.kind == "classical":
        tm = decl.payload
        agree = f == connection.curvature_classical(tm, ctx.bundle)
        out.append(CheckResult(f"{suite}.classical_agreement", agree))
        cocycle, cw = potentials.is_cocycle(tm)
        flat = f.is_zero()
        out.append(
            CheckResult(
                f"{suite}.flat_iff_cocycle",
                cocycle == flat,
                None if cocycle == flat else cw,
                data={"cocycle": cocycle, "flat": flat},
            )
        )

    out.append(CheckResult(f"{suite}.computed", True, data={"nonzero": not f.is_zero()}))
    return out


def _suite_gauge(ctx: _Context, gdecl, cdecl: ConnectionDecl, suite: str) -> list[CheckResult]:
    out: list[CheckResult] = []
    b = ctx.bundle
    tau = gdecl.gauge
    g = tau.group
    if g.identity is None or g.inv_table is None:
        out.append(
            CheckResult(
                f"{suite}.automorphism_roundtrip",
                False,
                data={"reason": "group lacks identity or inverses"},
            )
        )
        return out

    xi = xi_from_tau(tau)
    out.extend(_renamed(validate_automorphism(xi).checks, suite))
    # xi left-translates each fiber, so tau_extract reads tau back
    out.append(CheckResult(f"{suite}.automorphism_roundtrip", tau_extract(xi) == tau))

    transformed_tm = None
    try:
        if cdecl.kind == "gamma":
            transformed, via = potentials.gauge_transform_potential(cdecl.payload, b, tau)
            val = potentials.validate_potential(transformed, b)
        elif cdecl.kind == "gamma_hat":
            transformed, via = potentials.gauge_transform_base_potential(cdecl.payload, tau)
            val = potentials.validate_base_potential(transformed)
        else:
            transformed_tm = potentials.gauge_transform_transition(cdecl.payload, tau)
            val = potentials.validate_transition(transformed_tm)
            base = ctx.inputs_for(cdecl).base
            transformed, via = potentials.gauge_transform_base_potential(base, tau)
    except TableCapError:
        # a cap is no verdict on the gauge, so it exits 2 like any cap
        # met outside a connection's build
        raise
    except ValueError as exc:
        out.append(CheckResult(f"{suite}.transform_routes", False, data={"reason": str(exc)}))
        return out
    routes_witness = first_difference(transformed.view, via.view, transformed.shape)
    out.append(CheckResult(f"{suite}.transform_routes", routes_witness is None, routes_witness))
    if routes_witness is not None:
        return out

    bad = val.first_failure()
    out.append(
        CheckResult(
            f"{suite}.transformed_validity",
            val.passed,
            None if bad is None else bad.witness,
        )
    )
    if cdecl.kind == "classical":
        agree = potentials.potential_from_transition(transformed_tm) == transformed
        out.append(CheckResult(f"{suite}.classical_agreement", agree))
    return out
