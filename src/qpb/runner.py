"""Suite orchestration over a parsed document.

Suites run in a fixed order so an early structural failure is never
masked by a later algebraic one.  Every connection is canonicalized to
a connection-form density once and cross-checked against the closed
form for its kind; gauge suites pair each gauge map with each
non-theta connection.
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import cached_property

from .bundle import (
    BundleSpec,
    check_comodule_algebra,
    check_freeness,
    psi_apply,
    psi_inverse,
    synthesize_trivialization,
    validate_trivialization,
)
from .calculus import check_exactness, validate_form
from .connection import (
    classical_connection,
    connection_from_potential,
    conv_inverse,
    conv_unit,
    curvature,
    curvature_classical,
    curvature_from_potential,
    gauge_transform_base_potential,
    gauge_transform_potential,
    gauge_transform_transition,
    is_cocycle,
    lift_base_potential,
    phi_hom,
    potential_from_transition,
    splitting_from_theta,
    star_delta,
    strong_connection_direct,
    theta_from_splitting,
    validate_base_potential,
    validate_connection_form,
    validate_potential,
    validate_splitting,
    validate_transition,
)
from .document import ConnectionDecl, SpecDocument
from .funcs import FormValuedMap, Func, first_difference, indices
from .gauge import tau_extract, validate_automorphism, xi_from_tau
from .groups import validate_action, validate_group
from .report import CheckResult, Report
from .scalars import ZERO

__all__ = ["RunReport", "ConfigError", "run_checks", "emit_report", "curvature_payload"]

BASE_SUITES = ("group", "action", "comodule", "freeness", "exactness", "trivialization")


class ConfigError(ValueError):
    """A bad suite request or unusable invocation, as opposed to a failed check."""


class RunReport:
    def __init__(
        self,
        tool_version: str,
        input_digest: str,
        document_name: str | None,
        suites: list[str],
        checks: list[CheckResult] | None = None,
    ):
        self.tool_version = tool_version
        self.input_digest = input_digest
        self.document_name = document_name
        self.suites = suites
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)


class _Context:
    """Working state shared by the suites of one run."""

    def __init__(self, doc: SpecDocument):
        self.doc = doc
        self.bundle: BundleSpec = doc.bundle
        self.synthesized_phi: list[int] | None = None
        self.synthesis_error: str | None = None
        if self.bundle.phi is None:
            try:
                phi = synthesize_trivialization(self.bundle, self.free)
            except ValueError as exc:
                self.synthesis_error = str(exc)
            else:
                self.synthesized_phi = phi
                self.bundle = self.bundle.with_phi(phi)
        self._inputs: dict[str, _Inputs] = {}

    @cached_property
    def free(self) -> Report:
        """The freeness report, decided once per run."""
        return check_freeness(self.doc.bundle)

    @property
    def framed(self) -> bool:
        return self.bundle.phi is not None

    def inputs_for(self, decl: ConnectionDecl) -> _Inputs:
        return self._inputs.setdefault(decl.name, _Inputs(decl, self.bundle))


def rejection(what: str, report: Report) -> str | None:
    """The reason an input is refused: its first failed check, or None
    when every check passed."""
    bad = report.first_failure()
    return None if bad is None else f"{what} rejected: {bad.describe()}"


def _require(what: str, report: Report) -> None:
    """Raise ValueError naming the report's first failed check, if any."""
    reason = rejection(what, report)
    if reason:
        raise ValueError(reason)


class _Inputs:
    """One connection's inputs and its connection form, each validated
    or built once per run.

    Every value is computed on first use and kept; one that raises is
    not kept, so the next use raises the same error again.  A builder
    runs only after the report its input relies on has passed, and a
    failed report raises its `rejection` reason; `theta` turns that
    reason into its second element instead of raising.
    """

    def __init__(self, decl: ConnectionDecl, b: BundleSpec):
        self.decl = decl
        self.bundle = b

    @cached_property
    def report(self) -> Report:
        """The declared input's own checks."""
        kind, payload = self.decl.kind, self.decl.payload
        if kind == "classical":
            return validate_transition(payload)
        if kind == "gamma_hat":
            return validate_base_potential(payload)
        return validate_potential(payload, self.bundle)

    @cached_property
    def base(self) -> FormValuedMap:
        """The base potential: declared, or derived from the transition map."""
        if self.decl.kind == "gamma_hat":
            return self.decl.payload
        _require("transition map", self.report)
        return potential_from_transition(self.decl.payload)

    @cached_property
    def base_report(self) -> Report:
        if self.decl.kind == "gamma_hat":
            return self.report
        return validate_base_potential(self.base)

    @cached_property
    def potential(self) -> FormValuedMap:
        """The potential on the total space: declared, or the base one lifted."""
        if self.decl.kind == "gamma":
            return self.decl.payload
        _require("base potential", self.base_report)
        return lift_base_potential(self.base, self.bundle)

    @cached_property
    def potential_report(self) -> Report:
        if self.decl.kind == "gamma":
            return self.report
        return validate_potential(self.potential, self.bundle)

    @cached_property
    def theta(self) -> tuple[FormValuedMap | None, str | None]:
        """The connection-form density, or None and the reason it cannot
        be built."""
        kind = self.decl.kind
        if kind == "theta":
            return self.decl.payload, None
        if self.bundle.phi is None:
            return None, "bundle has no trivialization and none could be synthesized"
        try:
            if kind == "classical":
                _require("transition map", self.report)
                return classical_connection(self.decl.payload, self.bundle), None
            _require("potential", self.potential_report)
            return connection_from_potential(self.potential, self.bundle), None
        except ValueError as exc:
            return None, str(exc)


def run_checks(
    doc: SpecDocument, suites: list[str] | None = None, tool_version: str = "0"
) -> RunReport:
    ctx = _Context(doc)
    order = _suite_order(ctx)
    if suites is None:
        selected = [name for name, default in order if default]
    else:
        selected = _resolve_suites(doc, order, suites)
    report = RunReport(tool_version, doc.digest, doc.name, selected)
    for suite in selected:
        report.checks.extend(_run_suite(ctx, suite))
    return report


def _suite_order(ctx: _Context) -> list[tuple[str, bool]]:
    """Every suite the document names, in run order, with whether a
    default run includes it: trivialization only with a frame, given or
    synthesized, and gauge suites only for connections not of kind theta."""
    doc = ctx.doc
    order = [(name, name != "trivialization" or ctx.framed) for name in BASE_SUITES]
    for c in doc.connections:
        order += [(f"connection:{c.name}", True), (f"curvature:{c.name}", True)]
    for gd in doc.gauges:
        order += [(f"gauge:{gd.name}:{c.name}", c.kind != "theta") for c in doc.connections]
    return order


def _resolve_suites(
    doc: SpecDocument, order: list[tuple[str, bool]], requested: list[str]
) -> list[str]:
    rank: dict[str, int] = {}
    for name, _default in order:
        rank[name] = len(rank)

    seen: set[str] = set()
    for name in requested:
        if name not in rank:
            raise ConfigError(_explain_unknown_suite(doc, name))
        if name.startswith("gauge:"):
            cname = name.split(":", 2)[2]
            decl = doc.connection(cname)
            if decl is not None and decl.kind == "theta":
                raise ConfigError(
                    f"gauge suites need a gamma, gamma_hat, or classical connection;"
                    f" {cname!r} has kind theta"
                )
        seen.add(name)
    return sorted(seen, key=rank.__getitem__)


def _explain_unknown_suite(doc: SpecDocument, name: str) -> str:
    parts = name.split(":")
    if parts[0] in ("connection", "curvature") and len(parts) == 2:
        return f"no connection named {parts[1]!r} in the document"
    if parts[0] == "gauge" and len(parts) == 3:
        if doc.gauge(parts[1]) is None:
            return f"no gauge named {parts[1]!r} in the document"
        return f"no connection named {parts[2]!r} in the document"
    return f"unknown suite {name!r}"


def _run_suite(ctx: _Context, suite: str) -> list[CheckResult]:
    if suite == "group":
        return validate_group(ctx.doc.group).checks
    if suite == "action":
        return validate_action(ctx.doc.bundle.action).checks
    if suite == "comodule":
        return check_comodule_algebra(ctx.bundle).checks
    if suite == "freeness":
        return ctx.free.checks
    if suite == "exactness":
        return check_exactness(ctx.bundle, ctx.free).checks
    if suite == "trivialization":
        return _suite_trivialization(ctx)
    head, _, rest = suite.partition(":")
    if head == "connection":
        return _suite_connection(ctx, ctx.doc.connection(rest))
    if head == "curvature":
        return _suite_curvature(ctx, ctx.doc.connection(rest))
    gname, _, cname = rest.partition(":")
    return _suite_gauge(ctx, ctx.doc.gauge(gname), ctx.doc.connection(cname), suite)


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
    if ctx.doc.bundle.phi is None:
        if ctx.synthesized_phi is None:
            out.append(
                CheckResult(
                    "trivialization.synthesized",
                    False,
                    data={"reason": ctx.synthesis_error},
                )
            )
            return out
        out.append(
            CheckResult(
                "trivialization.synthesized", True, data={"phi": list(ctx.synthesized_phi)}
            )
        )
    rep = validate_trivialization(ctx.bundle)
    out.extend(rep.checks)
    if not rep.passed:
        return out

    b = ctx.bundle
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

    try:
        ph = phi_hom(b)
        ph_inv = conv_inverse(ph)
        unit = conv_unit(b.group, n)
        ok = star_delta(ph, ph_inv) == unit and star_delta(ph_inv, ph) == unit
        out.append(CheckResult("trivialization.conv_inverse", ok))
    except ValueError as exc:
        out.append(CheckResult("trivialization.conv_inverse", False, data={"reason": str(exc)}))
    return out


def _suite_connection(ctx: _Context, decl: ConnectionDecl) -> list[CheckResult]:
    suite = f"connection:{decl.name}"
    out: list[CheckResult] = []
    b = ctx.bundle

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
        direct = strong_connection_direct(decl.payload, b)
        out.append(CheckResult(f"{suite}.{check}", direct.density == theta.density))
    elif decl.kind == "classical":
        # the lift of a base potential that passed base_report meets the
        # three potential invariants by construction
        via_potential = connection_from_potential(ctx.inputs_for(decl).potential, b)
        out.append(
            CheckResult(
                f"{suite}.classical_route_agreement",
                via_potential.density == theta.density,
            )
        )

    rep = validate_connection_form(theta, b)
    out.extend(_renamed(rep.checks, suite, {"connection": "form"}))
    if not rep.passed:
        return out
    # theta passed validate_connection_form above, and the splitting is
    # validated here before it is read back
    try:
        sp = splitting_from_theta(theta, b)
        srep = validate_splitting(sp, b)
        out.extend(_renamed(srep.checks, suite))
        reason = rejection("splitting", srep)
        ok = reason is None and theta_from_splitting(sp, b).density == theta.density
    except ValueError as exc:
        reason, ok = str(exc), False
    data = None if reason is None else {"reason": reason}
    out.append(CheckResult(f"{suite}.splitting_roundtrip", ok, data=data))
    return out


def _suite_curvature(ctx: _Context, decl: ConnectionDecl) -> list[CheckResult]:
    suite = f"curvature:{decl.name}"
    out: list[CheckResult] = []
    b = ctx.bundle
    theta, reason = ctx.inputs_for(decl).theta
    if theta is None:
        out.append(CheckResult(f"{suite}.canonicalized", False, data={"reason": reason}))
        return out

    f = curvature(theta)
    (form_check,) = validate_form(f).checks
    out.append(CheckResult(f"{suite}.form_validity", form_check.passed, form_check.witness))

    try:
        if decl.kind != "theta":
            other = curvature_from_potential(ctx.inputs_for(decl).potential, b)
            out.append(CheckResult(f"{suite}.route_agreement", f == other))
        if decl.kind == "classical":
            tm = decl.payload
            out.append(
                CheckResult(f"{suite}.classical_agreement", f == curvature_classical(tm, b))
            )
            cocycle, cw = is_cocycle(tm)
            flat = f.is_zero()
            out.append(
                CheckResult(
                    f"{suite}.flat_iff_cocycle",
                    cocycle == flat,
                    None if cocycle == flat else cw,
                    data={"cocycle": cocycle, "flat": flat},
                )
            )
    except ValueError as exc:
        out.append(CheckResult(f"{suite}.route_agreement", False, data={"reason": str(exc)}))
        return out

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
    try:
        out.append(CheckResult(f"{suite}.automorphism_roundtrip", tau_extract(xi) == tau))
    except ValueError as exc:
        out.append(
            CheckResult(f"{suite}.automorphism_roundtrip", False, data={"reason": str(exc)})
        )

    transformed_tm = None
    try:
        if cdecl.kind == "gamma":
            transformed, via = gauge_transform_potential(cdecl.payload, b, tau)
            val = validate_potential(transformed, b)
        elif cdecl.kind == "gamma_hat":
            transformed, via = gauge_transform_base_potential(cdecl.payload, tau)
            val = validate_base_potential(transformed)
        else:
            transformed_tm = gauge_transform_transition(cdecl.payload, tau)
            val = validate_transition(transformed_tm)
            transformed, via = gauge_transform_base_potential(ctx.inputs_for(cdecl).base, tau)
    except ValueError as exc:
        out.append(CheckResult(f"{suite}.transform_routes", False, data={"reason": str(exc)}))
        return out
    routes_witness = first_difference(transformed.density, via.density, transformed.shape)
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
        agree = potential_from_transition(transformed_tm) == transformed
        out.append(CheckResult(f"{suite}.classical_agreement", agree))
    return out


# ---------------------------------------------------------------------------
# report emission


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


def emit_report(report: RunReport, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [
            f"qpb {report.tool_version}"
            f"  document={report.document_name or '(unnamed)'}"
            f"  digest={report.input_digest[:12]}"
        ]
        lines.extend(c.describe() for c in report.checks)
        if report.passed:
            lines.append(f"ALL CHECKS PASSED ({len(report.checks)} checks)")
        else:
            failed = sum(1 for c in report.checks if not c.passed)
            ff = report.first_failure()
            tail = f" witness={ff.witness}" if ff.witness is not None else ""
            lines.append(
                f"FAILED ({failed} of {len(report.checks)} checks):"
                f" first failure {ff.name}{tail}"
            )
        return "\n".join(lines) + "\n"
    if fmt != "json":
        raise ConfigError(f"unknown format {fmt!r}")

    failed = sum(1 for c in report.checks if not c.passed)
    ff = report.first_failure()
    payload = {
        "format_version": 1,
        "tool": "qpb",
        "tool_version": report.tool_version,
        "input_digest": report.input_digest,
        "document_name": report.document_name,
        "suites": list(report.suites),
        "checks": [
            {
                "name": c.name,
                "status": "pass" if c.passed else "fail",
                "witness": _jsonable(c.witness),
                "data": _jsonable(c.data),
            }
            for c in report.checks
        ],
        "summary": {
            "total": len(report.checks),
            "failed": failed,
            "first_failure": None if ff is None else ff.name,
        },
        "exit_status": report.exit_status,
    }
    return json.dumps(payload, indent=2) + "\n"


def curvature_payload(doc: SpecDocument, connection_name: str, tool_version: str = "0") -> dict:
    """Sparse curvature table of one connection, as a JSON-ready dict."""
    decl = doc.connection(connection_name)
    if decl is None:
        raise ConfigError(f"no connection named {connection_name!r} in the document")
    ctx = _Context(doc)
    theta, reason = ctx.inputs_for(decl).theta
    if theta is None:
        raise ValueError(reason)
    f = curvature(theta)
    n, m = f.size, f.group.order
    # curvature writes ZERO itself for every zero entry, so an identity
    # test selects the nonzero ones without a Python-level bool per entry
    nonzero = map(operator.is_not, f.density, itertools.repeat(ZERO))
    entries = [
        {"index": list(idx), "value": str(v)}
        for idx, v in itertools.compress(zip(indices(f.shape), f.density), nonzero)
    ]
    return {
        "format_version": 1,
        "tool": "qpb",
        "tool_version": tool_version,
        "input_digest": doc.digest,
        "document_name": doc.name,
        "connection": decl.name,
        "kind": decl.kind,
        "degree": 2,
        "total_size": n,
        "group_order": m,
        "entries": entries,
    }
