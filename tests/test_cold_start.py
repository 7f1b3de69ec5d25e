"""A cold `qpb` call loads only the modules its verdict reaches.

Every case runs `python -m qpb.cli` in a fresh process, as a user does.
A `sitecustomize` module on the child's path writes the names in
`sys.modules` when the interpreter exits, so each case sees everything
the call imported: a document that fails to parse never loads the
checkers, a suite loads only the checkers it calls, a curvature dump
on a framed bundle loads the data types, builders and kernels and no
checker module, a check or a dump never loads the fixtures, a suite
that eliminates no matrix never loads `Scalar`, and no path loads the
stdlib machinery qpb does not use, OpenSSL's `hashlib` included.

Without bytecode files every call compiles each module it loads, and
the largest of those compiles sets the call's peak RSS, so each module
is held to a compile peak.

The package itself is lazy: `import qpb` loads no submodule, and each
public name is imported from its home module on first access.

A process leaves through `cli.run`, which skips the interpreter's
teardown: its stdout, stderr and exit code are the ones `cli.main` gives
in process, whether or not stdout is buffered, and an `atexit` handler
still runs before the streams are flushed.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import qpb
from qpb import cli
from qpb.fixtures import fixture_documents

SRC = os.path.dirname(os.path.dirname(qpb.__file__))
PACKAGE = os.path.dirname(qpb.__file__)

# tracemalloc's peak while compile() builds one module's code, in bytes
COMPILE_PEAK_CAP = 1_300_000

# written into the child's sitecustomize.py with the output path filled in
_DUMP_AT_EXIT = """\
import atexit
import sys


def _dump():
    with open({path!r}, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))


atexit.register(_dump)
"""

CHECKERS = {"qpb.runner", "qpb.connection", "qpb.potentials", "qpb.calculus"}
# the bodies of the trivialization, connection, curvature and gauge suites
SUITES = "qpb.suites"
# the modules of checkers that a curvature dump never calls
DUMP_UNLOADED = {"qpb.bundle", "qpb.connection", "qpb.calculus", "qpb.gauge", "qpb.linalg", SUITES}
FIXTURE_MODULES = {"qpb.fixtures"}
# the digest comes from CPython's built-in SHA-256, not OpenSSL's, and
# the command line is read without argparse and its gettext and locale
UNUSED_STDLIB = {"dataclasses", "inspect", "fractions", "decimal", "hashlib", "_hashlib"}
UNUSED_STDLIB |= {"argparse", "gettext", "locale"}
# Scalar is for the rows that linalg eliminates, and only they load it
SCALARS = "qpb.scalars"


def loaded_modules(tmp_path, args: list[str]) -> tuple[int, set[str]]:
    """Exit status and the modules loaded at exit of one CLI call."""
    hook = tmp_path / "hook"
    hook.mkdir()
    dump = tmp_path / "modules.txt"
    (hook / "sitecustomize.py").write_text(_DUMP_AT_EXIT.format(path=str(dump)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), SRC]))
    proc = subprocess.run(
        [sys.executable, "-m", "qpb.cli", *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, set(dump.read_text().split())


def z2_document(tmp_path, **changes) -> str:
    payload = {**fixture_documents()["fix_z2.json"], **changes}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_truncated_document_loads_no_checker(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"format_version": 1, "group": {"mul": [[0, 1], [1')
    status, modules = loaded_modules(tmp_path, ["check", str(path)])
    assert status == 2
    assert "qpb.document" in modules
    assert modules & (CHECKERS | FIXTURE_MODULES | UNUSED_STDLIB | {SCALARS}) == set()


def test_out_of_range_gauge_loads_no_checker(tmp_path):
    # parsing gets as far as the gauges, so every data type is built; the
    # bundle and the gauge map are data of `groups`
    path = z2_document(tmp_path, gauges=[{"name": "bad", "tau_hat": [0, 5]}])
    status, modules = loaded_modules(tmp_path, ["check", path])
    assert status == 2
    assert {"qpb.document", "qpb.funcs", "qpb.groups"} <= modules
    assert modules & {"qpb.bundle", "qpb.gauge", SCALARS} == set()
    assert modules & (CHECKERS | FIXTURE_MODULES | UNUSED_STDLIB) == set()


@pytest.mark.parametrize(
    "args, loaded, unloaded",
    [
        (["check", "{doc}", "--format", "json"], CHECKERS | {"qpb.bundle", "qpb.gauge"}, set()),
        # the dump builds its connection form and prints its rows: it reads
        # no matrix, runs no suite and calls no checker
        (
            ["curvature", "{doc}", "--connection", "cls"],
            {"qpb.runner", "qpb.potentials", "qpb.kernels"},
            DUMP_UNLOADED,
        ),
    ],
    ids=["check", "curvature"],
)
def test_verdicts_load_no_fixtures(tmp_path, args, loaded, unloaded):
    path = z2_document(tmp_path)
    status, modules = loaded_modules(tmp_path, [a.format(doc=path) for a in args])
    assert status == 0
    assert loaded <= modules
    assert modules & (unloaded | FIXTURE_MODULES | UNUSED_STDLIB) == set()


@pytest.mark.parametrize("name", ["cls", "rational"])
def test_a_framed_dump_loads_no_checker_module(tmp_path, name):
    # fix_prod is a product bundle, so its frame is given: a classical
    # connection and a gamma_hat one, each built by `potentials`
    path = tmp_path / "prod.json"
    path.write_text(json.dumps(fixture_documents()["fix_prod.json"]))
    status, modules = loaded_modules(tmp_path, ["curvature", str(path), "--connection", name])
    assert status == 0
    assert {"qpb.runner", "qpb.potentials", "qpb.kernels"} <= modules
    assert modules & (DUMP_UNLOADED | FIXTURE_MODULES | UNUSED_STDLIB | {SCALARS}) == set()


@pytest.mark.parametrize(
    "suite, unloaded",
    [
        (
            "group",
            {SUITES, "qpb.bundle", "qpb.gauge", "qpb.connection", "qpb.potentials"}
            | {"qpb.calculus", "qpb.kernels", "qpb.linalg", SCALARS},
        ),
        (
            "action",
            {SUITES, "qpb.connection", "qpb.potentials", "qpb.calculus", "qpb.linalg", SCALARS},
        ),
        ("comodule", {SUITES, "qpb.connection", "qpb.potentials", "qpb.linalg", SCALARS}),
        # fix_z2 gives its frame, so no suite below synthesizes one, and
        # none of them eliminates a matrix
        ("trivialization", {"qpb.linalg", SCALARS}),
        ("connection:cls", {"qpb.linalg", SCALARS}),
        ("curvature:cls", {"qpb.linalg", SCALARS}),
        ("gauge:flip:cls", {"qpb.linalg", SCALARS}),
    ],
)
def test_a_suite_loads_only_its_checkers(tmp_path, suite, unloaded):
    path = z2_document(tmp_path)
    status, modules = loaded_modules(tmp_path, ["check", path, "--suite", suite])
    assert status == 0
    assert "qpb.runner" in modules
    assert modules & (unloaded | FIXTURE_MODULES | UNUSED_STDLIB) == set()


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_each_module_compiles_under_the_cap(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        source = fh.read()
    tracemalloc.start()
    try:
        compile(source, name, "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPILE_PEAK_CAP


def test_import_qpb_loads_no_submodule():
    code = "import sys, qpb; print(sorted(m for m in sys.modules if m.startswith('qpb')))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "['qpb']\n"


def test_every_public_name_is_its_home_object():
    # __version__ is the one name the package itself defines
    for name in set(qpb.__all__) - {"__version__"}:
        value = getattr(qpb, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("qpb.")
        assert getattr(home, name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qpb import *", namespace)
    assert all(namespace[name] is getattr(qpb, name) for name in qpb.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qpb.no_such_name
    assert not hasattr(qpb, "also_missing")


def cold_call(tmp_path, argv: list[str], unbuffered: bool, hook: str | None = None):
    """Exit code, stdout and stderr of one cold process, with stdout a
    buffered or an unbuffered pipe and `hook` as its sitecustomize."""
    path = [SRC]
    if hook is not None:
        (tmp_path / "hook").mkdir(exist_ok=True)
        (tmp_path / "hook" / "sitecustomize.py").write_text(hook)
        path.insert(0, str(tmp_path / "hook"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _document(tmp_path, key: str) -> str:
    path = tmp_path / key
    if key == "truncated.json":
        path.write_text('{"format_version": 1, "group": {"mul": [[0, 1], [1')
    else:
        path.write_text(json.dumps(fixture_documents()[key]))
    return str(path)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, status",
    [
        (["check", "fix_z2.json", "--format", "json"], 0),
        (["check", "fix_nonfree.json"], 1),
        (["check", "truncated.json"], 2),
        # 16.9 KB, more than stdout's 8 KiB buffer
        (["curvature", "fix_prod.json", "--connection", "rational"], 0),
        # these two end main by SystemExit
        (["-h"], 0),
        (["check", "fix_z2.json", "--format", "xml"], 2),
    ],
    ids=["json-pass", "text-fail", "malformed", "dump", "help", "usage-error"],
)
def test_a_process_gives_what_main_gives(tmp_path, capsys, argv, status, unbuffered):
    argv = [_document(tmp_path, a) if a.endswith(".json") else a for a in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == status
    out, err = capsys.readouterr()
    assert err.startswith(("qpb: ", "usage: ")) == (status == 2)
    child = cold_call(tmp_path, [sys.executable, "-m", "qpb.cli", *argv], unbuffered)
    assert child == (status, out, err)


# an atexit handler that prints after the report and records that it ran
_ATEXIT_PRINTS = """\
import atexit
import sys


def _last_words():
    print("exit handler")
    print("exit handler", file=sys.stderr)
    open({path!r}, "w").close()


atexit.register(_last_words)
"""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_exit_handlers_run_before_the_flush(tmp_path, capsys, unbuffered):
    argv = ["check", _document(tmp_path, "fix_nonfree.json")]
    assert cli.main(argv) == 1
    report = capsys.readouterr().out
    ran = tmp_path / "ran"
    hook = _ATEXIT_PRINTS.format(path=str(ran))
    child = cold_call(tmp_path, [sys.executable, "-m", "qpb.cli", *argv], unbuffered, hook)
    assert ran.exists()
    assert child == (1, report + "exit handler\n", "exit handler\n")
    # the same call through the interpreter's own exit, which runs the
    # handlers and then flushes
    ran.unlink()
    normal = f"import sys; from qpb.cli import main; sys.exit(main({argv!r}))"
    assert cold_call(tmp_path, [sys.executable, "-c", normal], unbuffered, hook) == child
    assert ran.exists()
