"""Suite orchestration over a parsed document.

Suites run in a fixed order so an early structural failure is never
masked by a later algebraic one.  Every connection is canonicalized to
a connection-form density once and cross-checked against the closed
form for its kind; gauge suites pair each gauge map with each
non-theta connection.

This module holds the run: the suite order and dispatch, the report
and its emission, and the curvature dump.  The bodies of the
trivialization, connection, curvature and gauge suites live in
`suites`, and each connection's inputs, validated and built once per
run, in `potentials._Inputs`, which every suite and dump that asks for
them loads anyway.  Each checker module loads with the first suite or
input that calls it, where it runs: a `--suite group` check loads none
of `bundle`, `gauge`, `suites`, `connection`, `potentials`, `calculus`,
`linalg` or `scalars`, a comodule check neither `connection` nor
`scalars`, and a curvature dump on a framed bundle only `potentials`
and `kernels`; an unframed one loads `bundle` and `linalg` to
synthesize its frame, and a declared θ loads `connection`, whose form
checks it must pass before its curvature is printed.
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import cached_property

from .document import ConnectionDecl, SpecDocument
from .groups import BundleSpec, validate_action, validate_group
from .report import CheckResult, Report, rejection
from .views import ratio_text

# only for the annotations: `inputs_for` imports it where it runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import potentials

__all__ = ["RunReport", "ConfigError", "run_checks", "emit_report", "curvature_payload"]

BASE_SUITES = ("group", "action", "comodule", "freeness", "exactness", "trivialization")


def __getattr__(name: str):
    """The public functions of `connection`, read as runner attributes.

    Each is looked up in `connection` when asked for, so it is the object
    the suites call there, a wrapper installed on `connection` included.
    Dunder lookups, such as the import system's probe for `__path__`,
    never load `connection`."""
    if not name.startswith("__"):
        from . import connection

        if name in connection.__all__:
            return getattr(connection, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """A bad suite request or unusable invocation, as opposed to a failed check."""


class _Unbuilt(ValueError):
    """The requested connection form cannot be built; the message says why.
    Like a failed check, and unlike every other ValueError, it is a verdict
    on the document."""


class RunReport(Report):
    """The report of one run: its checks, and the document and suites
    they came from."""

    def __init__(
        self,
        tool_version: str,
        input_digest: str,
        document_name: str | None,
        suites: list[str],
        checks: list[CheckResult] | None = None,
    ):
        super().__init__()
        self.tool_version = tool_version
        self.input_digest = input_digest
        self.document_name = document_name
        self.suites = suites
        if checks is not None:
            self.checks = checks

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1


class _Context:
    """Working state shared by the suites of one run."""

    def __init__(self, doc: SpecDocument):
        self.doc = doc
        self.synthesis_error: str | None = None
        self._inputs: dict[str, potentials._Inputs] = {}

    @cached_property
    def free(self) -> Report:
        """The freeness report, decided once per run."""
        from .bundle import check_freeness

        return check_freeness(self.doc.bundle)

    @cached_property
    def bundle(self) -> BundleSpec:
        """The bundle with its frame, given or synthesized on first use, so a
        suite that reads no phi uses `doc.bundle` and synthesizes nothing.  A
        synthesis that fails gives its reason."""
        b = self.doc.bundle
        if b.phi is not None:
            return b
        from .bundle import synthesize_trivialization

        free = self.free
        try:
            return b.with_phi(synthesize_trivialization(b, free))
        except ValueError as exc:
            self.synthesis_error = str(exc)
            return b

    @property
    def framed(self) -> bool:
        return self.bundle.phi is not None

    def inputs_for(self, decl: ConnectionDecl) -> potentials._Inputs:
        from . import potentials

        return self._inputs.setdefault(decl.name, potentials._Inputs(decl, self))


def run_checks(
    doc: SpecDocument, suites: list[str] | None = None, tool_version: str = "0"
) -> RunReport:
    ctx = _Context(doc)
    order = _suite_order(doc)
    if suites is None:
        # trivialization only with a frame, given or synthesized
        selected = [n for n, default in order if default and (n != "trivialization" or ctx.framed)]
    else:
        selected = _resolve_suites(doc, order, suites)
    report = RunReport(tool_version, doc.digest, doc.name, selected)
    for suite in selected:
        report.checks.extend(_run_suite(ctx, suite))
    return report


def _suite_order(doc: SpecDocument) -> list[tuple[str, bool]]:
    """Every suite the document names, in run order, with whether a
    default run may include it: gauge suites only for connections not of
    kind theta."""
    order = [(name, True) for name in BASE_SUITES]
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
        from .bundle import check_comodule_algebra

        return check_comodule_algebra(ctx.doc.bundle).checks
    if suite == "freeness":
        return ctx.free.checks
    if suite == "exactness":
        from .calculus import check_exactness

        return check_exactness(ctx.doc.bundle, ctx.free).checks
    from . import suites

    if suite == "trivialization":
        return suites._suite_trivialization(ctx)
    head, _, rest = suite.partition(":")
    if head == "connection":
        return suites._suite_connection(ctx, ctx.doc.connection(rest))
    if head == "curvature":
        return suites._suite_curvature(ctx, ctx.doc.connection(rest))
    gname, _, cname = rest.partition(":")
    return suites._suite_gauge(ctx, ctx.doc.gauge(gname), ctx.doc.connection(cname), suite)



# ---------------------------------------------------------------------------
# report emission


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
                "witness": c.witness,
                "data": c.data,
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
    """Sparse curvature table of one connection, as the dict that
    `json.dumps(..., indent=2)` prints as the dump, but for its "entries":
    an iterator of texts, one per point pair (p, q) with a nonzero entry,
    in row-major order.  A pair's text is its entries as that encoder
    prints them inside the list, joined by ",\n"; it is made from the
    pair's rows of `kernels.curvature_rows` as it is read, so no table of
    the curvature's size is held."""
    from .kernels import curvature_rows

    decl = doc.connection(connection_name)
    if decl is None:
        raise ConfigError(f"no connection named {connection_name!r} in the document")
    theta, reason = _Context(doc).inputs_for(decl).theta
    if theta is None:
        raise _Unbuilt(reason)
    if decl.kind == "theta":
        # a declared θ is printed only once it passes the checks `check`
        # runs on it; a built one meets them by construction
        from .connection import validate_connection_form

        reason = rejection("connection form", validate_connection_form(theta, doc.bundle))
        if reason is not None:
            raise _Unbuilt(reason)
    d2, blocks = curvature_rows(theta)
    return {
        "format_version": 1,
        "tool": "qpb",
        "tool_version": tool_version,
        "input_digest": doc.digest,
        "document_name": doc.name,
        "connection": decl.name,
        "kind": decl.kind,
        "degree": 2,
        "total_size": theta.size,
        "group_order": theta.group.order,
        "entries": _pair_texts(d2, blocks, theta.size, theta.group.order),
    }


# an entry {"index": [p, q, r, c], "value": text} as the indented encoder
# prints it in the dump's list, cut where p, q, then r and c, then the
# value begin; a value prints as digits, "/", "+", "-" and "i", which
# JSON never escapes
_PAIR = '    {\n      "index": [\n        %d,\n        %d,\n        '
_COLUMN = '%d,\n        %d\n      ],\n      "value": "'
_CLOSE = '"\n    }'


def _pair_texts(d: int, blocks, n: int, m: int):
    """The text of each (p, q) block of rows over the denominator d that
    has a nonzero entry.  Each entry joins the pair's head, the middle
    of its column k = r·m + c and its value's text with the closing, each
    made once: a value is printed once per distinct value, in lowest
    terms."""
    columns = [_COLUMN % divmod(k, m) for k in range(n * m)]
    texts: dict = {}
    for t, (re, im) in enumerate(blocks):
        nonzero = re if im is None else map(operator.or_, re, im)
        entries = []
        for k in itertools.compress(range(len(re)), nonzero):
            key = re[k], 0 if im is None else im[k]
            text = texts.get(key)
            if text is None:
                text = texts[key] = ratio_text(*key, d) + _CLOSE
            entries.append(columns[k] + text)
        if entries:
            head = _PAIR % divmod(t, n)
            yield head + (",\n" + head).join(entries)
