"""The suites that read a frame or a connection: trivialization,
connection, curvature and gauge.

`runner` imports this module where one of these suites runs, so a check
that runs none of them, such as `--suite group`, and a curvature dump
never compile it.  Each suite reads the run's shared context, with its
frame and its per-connection inputs, and returns its checks named under
the suite.  The curvature suite decides every check in one pass over
its routes' streams of point pairs, which `connection` describes.
"""

from __future__ import annotations

import itertools
import operator

from . import connection, potentials
from .bundle import psi_apply, psi_inverse, validate_trivialization
from .document import ConnectionDecl
from .funcs import TableCapError, first_difference
from .gauge import tau_extract, validate_automorphism, xi_from_tau
from .kernels import curvature_rows
from .report import CheckResult, rejection
from .views import indicator, mul_views

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

    # the indicators of B x G, with (x, a) at x·m + a, and of P, as views
    m, n = b.group.order, b.total_size
    k = b.base.size * m
    basis_bg = [indicator(k, i) for i in range(k)]
    left = next(
        (divmod(i, m) for i, h in enumerate(basis_bg) if psi_inverse(b, psi_apply(b, h)) != h),
        None,
    )
    out.append(CheckResult("trivialization.psi_left_inverse", left is None, left))

    right = next(
        (
            (p,)
            for p in range(n)
            if psi_apply(b, psi_inverse(b, indicator(n, p))) != indicator(n, p)
        ),
        None,
    )
    out.append(CheckResult("trivialization.psi_right_inverse", right is None, right))

    images = [psi_apply(b, h) for h in basis_bg]
    mult = next(
        (
            (i, j)
            for i in range(k)
            for j in range(k)
            if psi_apply(b, mul_views(basis_bg[i], basis_bg[j])) != mul_views(images[i], images[j])
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
    sides = ((ph, ph_inv), (ph_inv, ph))
    differences = (first_difference(star(x, y).view, unit.view, unit.shape) for x, y in sides)
    witness = next(filter(None, differences), None)
    out.append(CheckResult("trivialization.conv_inverse", witness is None, witness))
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
            try:
                rep = inputs.potential_report
            except TableCapError as exc:
                # the lift is θ's input, so a cap met building it fails θ's build
                out.append(CheckResult(f"{suite}.canonicalized", False, data={"reason": str(exc)}))
                return out
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
    sp = connection.splitting_from_theta(theta, b)
    srep = connection.validate_splitting(sp, b)
    out.extend(_renamed(srep.checks, suite))
    reason = rejection("splitting", srep)
    ok = reason is None and connection.theta_from_splitting(sp, b).view == theta.view
    data = None if reason is None else {"reason": reason}
    out.append(CheckResult(f"{suite}.splitting_roundtrip", ok, data=data))
    return out


def _suite_curvature(ctx: _Context, decl: ConnectionDecl) -> list[CheckResult]:
    suite = f"curvature:{decl.name}"
    theta, reason = ctx.inputs_for(decl).theta
    if theta is None:
        return [CheckResult(f"{suite}.canonicalized", False, data={"reason": reason})]

    # theta was built, so the frame is present and the inputs fit the
    # bundle; a cap met on route 2's held base rows is no verdict, and
    # propagates like any cap met outside a connection's build
    d, pairs = curvature_rows(theta)
    routes = []
    if decl.kind != "theta":
        # the potential on its own points: the base one, or gamma's
        gamma = decl.payload if decl.kind == "gamma" else ctx.inputs_for(decl).base
        routes.append(("route_agreement", *connection.curvature_from_potential(gamma, ctx.bundle)))
    if decl.kind == "classical":
        tm = decl.payload
        routes.append(("classical_agreement", *connection.curvature_classical(tm, ctx.bundle)))

    n, m = theta.size, theta.group.order
    # per group element c, the first (c, p, q, r) at an adjacent repeat
    # (p = q or q = r) where F is nonzero, in row-major order
    first: list[tuple | None] = [None] * m
    flat = True
    agree = {name: True for name, _, _ in routes}
    for t, (block, *compared) in enumerate(zip(pairs, *(rows for _, _, rows in routes))):
        re, im = block
        if any(re) or im is not None and any(im):
            flat = False
            p, q = divmod(t, n)
            for r in range(n) if p == q else (q,):
                at = slice(r * m, (r + 1) * m)
                hits = re[at] if im is None else map(operator.or_, re[at], im[at])
                for c in itertools.compress(range(m), hits):
                    first[c] = first[c] or (c, p, q, r)
        for (name, dk, _), other in zip(routes, compared):
            agree[name] = agree[name] and (
                first_difference((d, *block), (dk, *other), (n, m)) is None
            )

    witness = next(filter(None, first), None)
    out = [CheckResult(f"{suite}.form_validity", witness is None, witness)]
    out += [CheckResult(f"{suite}.{name}", ok) for name, ok in agree.items()]
    if decl.kind == "classical":
        cocycle, cw = potentials.is_cocycle(tm)
        out.append(
            CheckResult(
                f"{suite}.flat_iff_cocycle",
                cocycle == flat,
                None if cocycle == flat else cw,
                data={"cocycle": cocycle, "flat": flat},
            )
        )
    out.append(CheckResult(f"{suite}.computed", True, data={"nonzero": not flat}))
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
