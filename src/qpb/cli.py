"""Command line front end: check documents, write fixtures, dump curvature.

Each command imports only what it reaches: the runner loads once the
document parses; the suite bodies of `suites` and each suite's checkers
when that suite runs; `potentials` and the int-view `kernels` when a
connection form is built from a potential or a transition map; and the
fixtures only for `qpb fixtures`.  So a malformed or unreadable
document is rejected without compiling any of them, and a curvature
dump on a framed bundle compiles no checker module: none of `bundle`,
`connection`, `calculus`, `gauge`, `linalg` or `suites`.  The dump is
written a point pair at a time from the preformatted texts of
`runner.curvature_payload`.  No path loads OpenSSL: the document
digest comes from CPython's built-in SHA-256.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, funcs
from .document import SpecError, parse_spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpb",
        description="Exact verification of finite principal bundle documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run verification suites on a document")
    p_check.add_argument("file", help="document to check")
    p_check.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help="suite to run (repeatable); default is every applicable suite",
    )
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument(
        "--max-entries", type=int, default=None, metavar="CAP", help="table size cap"
    )

    p_fix = sub.add_parser("fixtures", help="write the four fixture documents")
    p_fix.add_argument("--dir", default=".", metavar="DIR", help="output directory")

    p_curv = sub.add_parser("curvature", help="emit one curvature table as sparse JSON")
    p_curv.add_argument("file", help="document holding the connection")
    p_curv.add_argument("--connection", required=True, metavar="NAME")
    p_curv.add_argument(
        "--max-entries", type=int, default=None, metavar="CAP", help="table size cap"
    )

    args = parser.parse_args(argv)
    cap_token = None
    try:
        cap = getattr(args, "max_entries", None)
        if cap is not None:
            cap_token = funcs.set_max_table_entries(cap)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "fixtures":
            return _cmd_fixtures(args)
        return _cmd_curvature(args)
    except ValueError as exc:
        # document errors, bad suite requests, table caps and other usage
        # limits surface here
        print(f"qpb: {exc}", file=sys.stderr)
        return 2
    finally:
        # the cap is for this call only; the next in-process call starts afresh
        if cap_token is not None:
            funcs.MAX_TABLE_ENTRIES.reset(cap_token)


def _load_document(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    return parse_spec(text)


def _cmd_check(args) -> int:
    doc = _load_document(args.file)
    from .runner import emit_report, run_checks

    report = run_checks(doc, args.suite, tool_version=__version__)
    sys.stdout.write(emit_report(report, args.format))
    return report.exit_status


def _cmd_fixtures(args) -> int:
    from .fixtures import fixture_documents

    os.makedirs(args.dir, exist_ok=True)
    for fname, payload in fixture_documents().items():
        path = os.path.join(args.dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_curvature(args) -> int:
    doc = _load_document(args.file)
    from .runner import _Unbuilt, curvature_payload

    try:
        payload = curvature_payload(doc, args.connection, tool_version=__version__)
    except _Unbuilt as exc:
        # every other ValueError, a table cap included, is main's exit 2
        print(f"qpb: {exc}", file=sys.stderr)
        return 1
    _write_curvature(payload, sys.stdout)
    return 0


def _write_curvature(payload: dict, out) -> None:
    """Write `json.dumps(payload, indent=2)` and a newline, with the
    entries written a point pair at a time from the texts the payload
    makes as they are read: with `indent` set, json runs its pure-Python
    encoder, and the whole text of a large dump is never held."""
    head = json.dumps({**payload, "entries": []}, indent=2)
    before, _, after = head.rpartition('"entries": []')
    lead, tail = before + '"entries": [\n', head
    for text in payload["entries"]:
        out.write(lead + text)
        lead, tail = ",\n", "\n  ]" + after
    out.write(tail + "\n")


if __name__ == "__main__":
    sys.exit(main())
