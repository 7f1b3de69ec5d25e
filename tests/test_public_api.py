"""The public surface of qpb.

Every name a module lists in __all__ must exist, and every exported
function, and every public method (no leading underscore) of an exported
class, must run on some command line path: the fixtures, every check and
curvature dump on them, a gamma document and a capped call.  A function
or method no path reaches is either deleted or listed in KEEP or
KEEP_METHODS with the reason it stays.  A kept entry that a path now
reaches, or that is no longer exported, fails too, so the lists can only
shrink.
"""

import ast
import contextlib
import copy
import importlib
import inspect
import io
import json
import pkgutil
import sys

import pytest

import qpb
from qpb.cli import main
from qpb.fixtures import fixture_documents
from test_golden import _with_gamma

KEEP = {
    "gauge_compose": "acceptance criterion 10: gauge group laws (ROADMAP item 5 adds a suite check)",
    "gauge_inverse": "acceptance criterion 10: gauge group laws (ROADMAP item 5 adds a suite check)",
    "invariants_basis": "the abstract's claim that the coinvariants are C(B)",
    "inject_base": "the abstract's claim that the coinvariants are C(B)",
    "differential": "acceptance criterion 04 (d² = 0, Leibniz); CLI routes call its int view directly",
}

KEEP_METHODS = {
    "FormValuedMap.density": "bench/layertrace.py counts star_delta's output entries through it",
    "Table.values": "bench/layertrace.py counts differential's output entries through it",
    "Scalar.inverse": "rref scales a row whose pivot is not 1; the CLI's 0/1 matrices have none",
    "SubspaceBasis.contains": "the abstract's claim that the coinvariants are C(B)",
}


def _modules():
    return [qpb] + [
        importlib.import_module(f"qpb.{info.name}") for info in pkgutil.iter_modules(qpb.__path__)
    ]


def _exported_functions() -> dict:
    """Bare name -> function, for every function some __all__ lists."""
    out = {}
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn):
                assert out.setdefault(name, fn) is fn, f"two exported functions named {name}"
    return out


def _exported_methods() -> dict:
    """'Class.method' -> function, for every public method an exported
    class defines in its own body (properties and classmethods included)."""
    out = {}
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            cls = getattr(mod, name, None)
            if not inspect.isclass(cls):
                continue
            for attr, member in vars(cls).items():
                fn = getattr(member, "__func__", getattr(member, "fget", member))
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out[f"{name}.{attr}"] = fn
    return out


def _cli_calls(directory) -> list[list[str]]:
    """Every command the reachability run makes, after `fixtures`."""
    calls = []
    for fname, doc in fixture_documents().items():
        path = str(directory / fname)
        calls.append(["check", path, "--format", "json"])
        calls.append(["check", path])
        for conn in doc.get("connections", []):
            calls.append(["curvature", path, "--connection", conn["name"]])
    gamma = directory / "z2_gamma.json"
    gamma.write_text(json.dumps(_with_gamma(copy.deepcopy(fixture_documents()["fix_z2.json"]))))
    calls.append(["check", str(gamma), "--format", "json"])
    # the splitting matrix of fix_prod's classical connection is one entry over this cap
    prod = str(directory / "fix_prod.json")
    calls.append(["check", prod, "--suite", "connection:cls", "--max-entries", "359"])
    return calls


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Code objects entered while the command line runs every call."""
    directory = tmp_path_factory.mktemp("public_api")
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    statuses = []
    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            statuses.append(main(["fixtures", "--dir", str(directory)]))
            for args in _cli_calls(directory):
                statuses.append(main(args))
        finally:
            sys.setprofile(previous)
    # a usage error (exit 2) would stop a call before the code it should reach
    assert set(statuses) <= {0, 1}
    return seen


def test_runner_imports_no_private_name():
    # builders build and validators report; the runner reaches both
    # through the public names only
    from qpb import runner

    tree = ast.parse(inspect.getsource(runner))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qpb"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_public_name_resolves():
    missing = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_every_exported_function_runs_on_a_cli_path(reached):
    unreached = sorted(
        name
        for name, fn in _exported_functions().items()
        if fn.__code__ not in reached and name not in KEEP
    )
    assert unreached == []


def test_keep_lists_only_exported_functions_no_path_reaches(reached):
    exported = _exported_functions()
    assert sorted(set(KEEP) - set(exported)) == []
    assert sorted(name for name in KEEP if exported[name].__code__ in reached) == []


def test_every_public_method_runs_on_a_cli_path(reached):
    unreached = sorted(
        name
        for name, fn in _exported_methods().items()
        if fn.__code__ not in reached and name not in KEEP_METHODS
    )
    assert unreached == []


def test_keep_methods_lists_only_public_methods_no_path_reaches(reached):
    methods = _exported_methods()
    assert sorted(set(KEEP_METHODS) - set(methods)) == []
    assert sorted(name for name in KEEP_METHODS if methods[name].__code__ in reached) == []
