"""Command line front end: check documents, write fixtures, dump curvature.

The command line is read from the small table of the three commands
and their options in this module, without argparse, so no call pays
for argparse's import, its gettext and locale lookups or its regular
expressions.  It accepts every form argparse accepted for these
options; a usage error prints the usage and one `qpb: error:` line and
exits 2, and `-h` prints the help.

Each command imports only what it reaches: the runner loads once the
document parses; the suite bodies of `suites` and each suite's checkers
when that suite runs; `potentials` and the int-view `kernels` when a
connection's inputs are asked for; `scalars` only with `linalg`, whose
rows are its sole user; and the fixtures only for `qpb fixtures`.  So a
malformed or unreadable document is rejected without compiling any of
them, and a curvature dump on a framed bundle compiles no checker
module: none of `bundle`, `connection`, `calculus`, `gauge`, `linalg`,
`scalars` or `suites`.  A dump of a declared θ loads `connection` to
validate θ first.  The dump is written a point pair at a time from the
preformatted texts of `runner.curvature_payload`.  No path loads
OpenSSL: the document digest comes from CPython's built-in SHA-256.

A process enters at `run`, which calls `main`, runs the exit handlers,
flushes stdout and stderr, and ends with `os._exit`, skipping the
interpreter's teardown of every module and its final collection; the
help and a usage error end that way too, so output that cannot be
written exits 2 on every path.  `main` stays the entry for calls in
process.
"""

from __future__ import annotations

import atexit
import json
import os
import sys

from . import __version__, funcs
from .document import SpecError, parse_spec

USAGE = """\
usage: qpb check FILE [--suite NAME]... [--format {text,json}] [--max-entries CAP]
       qpb curvature FILE --connection NAME [--max-entries CAP]
       qpb fixtures [--dir DIR]
"""

HELP = f"""{USAGE}
Exact verification of finite principal bundle documents.

  check               run verification suites on a document
  curvature           emit one curvature table as sparse JSON
  fixtures            write the four fixture documents

  --suite NAME        suite to run (repeatable); default is every applicable suite
  --format FORMAT     report format, text (the default) or json
  --max-entries CAP   table size cap
  --connection NAME   the connection whose curvature is emitted
  --dir DIR           output directory (default .)
  -h, --help          show this help and exit
"""

# each command's options; check and curvature also take one FILE
OPTIONS = {
    "check": ("--suite", "--format", "--max-entries", "--help"),
    "curvature": ("--connection", "--max-entries", "--help"),
    "fixtures": ("--dir", "--help"),
}
FORMATS = ("text", "json")
# each option's value when it is not given
DEFAULTS = {"format": "text", "max-entries": None, "connection": None, "dir": "."}


def main(argv: list[str] | None = None) -> int:
    cap_token = None
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args["max-entries"] is not None:
            cap_token = funcs.set_max_table_entries(args["max-entries"])
        if command == "check":
            return _cmd_check(args["file"], args["suite"] or None, args["format"])
        if command == "fixtures":
            return _cmd_fixtures(args["dir"])
        return _cmd_curvature(args["file"], args["connection"])
    except ValueError as exc:
        # document errors, bad suite requests, table caps and other usage
        # limits surface here
        print(f"qpb: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a document that cannot be read is a SpecError, so this is output:
        # stdout, stderr for a usage error, or a fixture file
        return _cannot_write(exc.filename or "stdout", exc)
    finally:
        # the cap is for this call only; the next in-process call starts afresh
        if cap_token is not None:
            funcs.MAX_TABLE_ENTRIES.reset(cap_token)


def run() -> None:
    """The process entry of `python -m qpb.cli` and the `qpb` script.

    After `main` it does what CPython's shutdown does that a caller can
    see, in CPython's order: it runs the `atexit` handlers, then flushes
    stdout and stderr.  It ends with `os._exit`, which skips the teardown
    of every module and the final collection.  The help and a usage
    error end `main` by SystemExit, whose status ends the process the
    same way; an uncaught exception takes the normal exit.
    """
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    atexit._run_exitfuncs()
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name)
        try:
            if stream is not None:  # None when the process started without it
                stream.flush()
        except OSError as exc:
            # an exit 2 has printed its one line, also for a stdout that
            # failed in main and still holds what it could not write
            if status != 2:
                status = _cannot_write(name, exc)
    os._exit(status)


def _cannot_write(where: str, exc: OSError) -> int:
    """Print the one line for output that cannot be written; exit status 2."""
    try:
        print(f"qpb: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
    except OSError:
        pass  # stderr itself is gone; the status still tells
    return 2


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its arguments, keyed by option name without its
    dashes and "file".

    An option's value follows it after a space or an `=`; options and
    FILE come in any order, and `--` makes every later argument FILE.
    `--suite` keeps each of its values in order, and another option
    repeated keeps its last.  A unique prefix names a long option.
    `-h` or `--help` prints the help and exits 0; anything else that
    does not parse prints the usage and one error line and exits 2.
    """
    command = argv[0] if argv else None
    options = OPTIONS.get(command)
    if options is None:
        if command is None:
            _usage_error("the following arguments are required: command")
        if command in ("-h", "--h", "--he", "--hel", "--help"):
            _help()
        _usage_error(f"invalid choice: {command!r} (choose from 'check', 'curvature', 'fixtures')")
    args = dict(DEFAULTS, suite=[])
    files = []
    rest = iter(argv[1:])
    for arg in rest:
        if not _is_option(arg):
            files.append(arg)
            continue
        if arg == "--":
            files.extend(rest)
            break
        flag, eq, value = arg.partition("=")
        option = _option(flag, options)
        if option == "--help":
            if eq:
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            _help()
        if not eq:
            value = next(rest, None)
            if value is None or _is_option(value):
                _usage_error(f"argument {option}: expected one argument")
        if option == "--suite":
            args["suite"].append(value)
            continue
        if option == "--max-entries":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --max-entries: invalid int value: {value!r}")
        elif option == "--format" and value not in FORMATS:
            choices = ", ".join(map(repr, FORMATS))
            _usage_error(f"argument --format: invalid choice: {value!r} (choose from {choices})")
        args[option[2:]] = value
    wants_file = command != "fixtures"
    missing = ["FILE"] if wants_file and not files else []
    if command == "curvature" and args["connection"] is None:
        missing.append("--connection")
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if len(files) > wants_file:
        _usage_error(f"unrecognized arguments: {' '.join(files[wants_file:])}")
    args["file"] = files[0] if wants_file else None
    return command, args


def _is_option(arg: str) -> bool:
    """Whether `arg` starts with a dash and is neither "-", a negative
    number like -5 or -.5, nor a text with a space: those are values."""
    whole, dot, frac = arg[1:].partition(".")
    number = (frac if dot else whole).isdecimal() and (whole.isdecimal() or not whole)
    return arg.startswith("-") and arg != "-" and " " not in arg and not number


def _option(flag: str, options: tuple[str, ...]) -> str:
    """The option `flag` names: itself, `--help` for `-h`, or the one
    option a long flag is a prefix of."""
    if flag == "-h":
        return "--help"
    if flag in options:
        return flag
    hits = [o for o in options if o.startswith(flag)] if flag.startswith("--") else []
    if len(hits) == 1:
        return hits[0]
    if hits:
        _usage_error(f"ambiguous option: {flag} could match {', '.join(hits)}")
    _usage_error(f"unrecognized arguments: {flag}")


def _help():
    sys.stdout.write(HELP)
    raise SystemExit(0)


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}qpb: error: {message}\n")
    raise SystemExit(2)


def _load_document(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    return parse_spec(text)


def _cmd_check(path: str, suites: list[str] | None, fmt: str) -> int:
    doc = _load_document(path)
    from .runner import emit_report, run_checks

    report = run_checks(doc, suites, tool_version=__version__)
    sys.stdout.write(emit_report(report, fmt))
    return report.exit_status


def _cmd_fixtures(directory: str) -> int:
    from .fixtures import fixture_documents

    os.makedirs(directory, exist_ok=True)
    for fname, payload in fixture_documents().items():
        path = os.path.join(directory, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_curvature(path: str, connection: str) -> int:
    doc = _load_document(path)
    from .runner import _Unbuilt, curvature_payload

    try:
        payload = curvature_payload(doc, connection, tool_version=__version__)
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
    run()
