"""A cold `qpb` call loads only the modules its verdict reaches.

Every case runs `python -m qpb.cli` in a fresh process, as a user does.
A `sitecustomize` module on the child's path writes the names in
`sys.modules` when the interpreter exits, so each case sees everything
the call imported: a document that fails to parse never loads the
checkers, a check or a dump never loads the fixtures or the Hopf
algebra, and no path loads the stdlib machinery qpb does not use.

The package itself is lazy: `import qpb` loads no submodule, and each
public name is imported from its home module on first access.
"""

import json
import os
import subprocess
import sys

import pytest

import qpb
from qpb.fixtures import fixture_documents

SRC = os.path.dirname(os.path.dirname(qpb.__file__))

# written into the child's sitecustomize.py with the output path filled in
_DUMP_AT_EXIT = """\
import atexit
import sys


def _dump():
    with open({path!r}, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))


atexit.register(_dump)
"""

CHECKERS = {"qpb.runner", "qpb.connection", "qpb.calculus"}
FIXTURE_MODULES = {"qpb.fixtures", "qpb.hopf"}
UNUSED_STDLIB = {"dataclasses", "inspect", "fractions", "decimal"}


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
    assert modules & (CHECKERS | FIXTURE_MODULES | UNUSED_STDLIB) == set()


def test_out_of_range_gauge_loads_no_checker(tmp_path):
    # parsing gets as far as the gauges, so every data type is built
    path = z2_document(tmp_path, gauges=[{"name": "bad", "tau_hat": [0, 5]}])
    status, modules = loaded_modules(tmp_path, ["check", path])
    assert status == 2
    assert {"qpb.document", "qpb.funcs", "qpb.groups", "qpb.gauge"} <= modules
    assert modules & (CHECKERS | FIXTURE_MODULES | UNUSED_STDLIB) == set()


@pytest.mark.parametrize(
    "args",
    [["check", "{doc}", "--format", "json"], ["curvature", "{doc}", "--connection", "cls"]],
    ids=["check", "curvature"],
)
def test_verdicts_load_no_fixtures(tmp_path, args):
    path = z2_document(tmp_path)
    status, modules = loaded_modules(tmp_path, [a.format(doc=path) for a in args])
    assert status == 0
    assert CHECKERS <= modules
    assert modules & (FIXTURE_MODULES | UNUSED_STDLIB) == set()


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
