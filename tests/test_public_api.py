"""Every function in qpb runs on a command line path.

Every name a module lists in __all__ must exist.  Every function the
package's source defines, private helpers, nested functions, methods,
properties and dunders included, must be entered by some call of
`_cli_calls`: the fixtures, every check and curvature dump on them,
gamma, theta and complex-literal documents, a dump on an unframed
document, a capped call, malformed files, an unknown suite, output
that cannot be written, usage errors and help.  Each call asserts its
own exit status, so no call stops short of the code it is there to
reach.  A lambda or comprehension counts as part of the function that
holds it.  A function no call enters is either deleted or listed with
the reason it stays: in KEEP when a module defines it, in
KEEP_METHODS when a class body does.  A kept entry that a call now
enters, or that no longer exists, fails too, so the lists can only
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
import types

import pytest

import qpb
from qpb.cli import main
from qpb.fixtures import fixture_documents
from test_cli import theta_payload
from test_golden import S3X2, _broken_row_sum, _gaussian, _with_gamma

# Each reason starts with its kind: "item 5" (ROADMAP item 5's checks
# will call it), "process" (only a process enters it), "lazy" (the
# package's lazy names), "criterion" (an acceptance criterion checks
# it), "bench" (bench/ reads it, until ROADMAP item 1 lands), "input"
# (a constructor's argument check), or "linalg" (rref on general rows).
KEEP = {
    "qpb.__getattr__": "lazy: each call in process finds its modules loaded",
    "qpb.bundle.invariants_basis": "item 5: the abstract's claim that the coinvariants are C(B)",
    "qpb.bundle.inject_base": "item 5: the abstract's claim that the coinvariants are C(B)",
    "qpb.calculus.differential": "criterion 04 (d² = 0, Leibniz); the CLI calls its int kernel",
    "qpb.cli.run": "process: the entry of `python -m qpb.cli` and the `qpb` script",
    "qpb.gauge.gauge_compose": "item 5: the gauge group laws of acceptance criterion 10",
    "qpb.gauge.gauge_inverse": "item 5: the gauge group laws of acceptance criterion 10",
    "qpb.gauge._check_same": "item 5: gauge_compose's operand check",
    "qpb.scalars._coerce": "bench: the Scalar dunders that layertrace wraps take ints through it",
}

KEEP_METHODS = {
    "qpb.funcs.FormValuedMap.values": "bench: layertrace counts differential's output entries by it",
    "qpb.gauge.BundleAutomorphism.__eq__": "item 5: its composition check compares automorphisms",
    "qpb.linalg.SubspaceBasis.contains": "item 5: the abstract's claim that the coinvariants are C(B)",
    "qpb.scalars.Scalar.__init__": "bench: a Scalar dunder; in process it runs at import only",
    "qpb.scalars.Scalar.__add__": "bench: layertrace wraps the Scalar dunders in Scalar.__dict__",
    "qpb.scalars.Scalar.__rsub__": "bench: layertrace wraps the Scalar dunders in Scalar.__dict__",
    "qpb.scalars.Scalar.__neg__": "bench: layertrace wraps the Scalar dunders in Scalar.__dict__",
    "qpb.scalars.Scalar.__str__": "bench: layertrace wraps the Scalar dunders in Scalar.__dict__",
    "qpb.scalars.Scalar.__repr__": "bench: layertrace wraps the Scalar dunders in Scalar.__dict__",
    "qpb.scalars.Scalar.inverse": "linalg: a pivot other than 1; the CLI's 0/1 matrices hold none",
}


def _modules():
    return [qpb] + [
        importlib.import_module(f"qpb.{info.name}") for info in pkgutil.iter_modules(qpb.__path__)
    ]


def _key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _defined() -> dict:
    """'module.qualname' -> the key of its code, for every named function
    the package's source defines, however deep."""
    out = {}
    for mod in _modules():
        with open(mod.__file__, encoding="utf-8") as fh:
            stack = [(compile(fh.read(), mod.__file__, "exec"), mod.__name__)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                name = f"{prefix}.{const.co_name}"
                # a class body is not a function; a lambda is part of its holder
                function = const.co_flags & inspect.CO_OPTIMIZED
                stack.append((const, f"{name}.<locals>" if function else name))
                if function and not const.co_name.startswith("<"):
                    assert name not in out, f"two functions named {name}"
                    out[name] = _key(const)
    return out


def _is_method(name: str) -> bool:
    """Whether a class body defines the function: its qualname's parent
    is a class, not a module or a function's <locals>."""
    parent = name.rpartition(".")[0]
    return parent not in sys.modules and not parent.endswith("<locals>")


def _write(path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_calls(directory) -> list[tuple[list[str], int]]:
    """Every command the reachability run makes after `fixtures`, each
    with the exit status it must give."""
    docs = fixture_documents()
    calls = []
    for fname, doc in docs.items():
        path = str(directory / fname)
        status = 1 if fname == "fix_nonfree.json" else 0
        calls.append((["check", path, "--format", "json"], status))
        calls.append((["check", path], status))
        for conn in doc.get("connections", []):
            calls.append((["curvature", path, "--connection", conn["name"]], 0))
    z2, prod = str(directory / "fix_z2.json"), str(directory / "fix_prod.json")

    gamma = _write(directory / "z2_gamma.json", _with_gamma(copy.deepcopy(docs["fix_z2.json"])))
    theta = _write(directory / "z2_theta.json", theta_payload())
    gauss = _write(directory / "s3x2_gauss.json", _gaussian(copy.deepcopy(S3X2)))
    # a failed density check names its witness through funcs.unravel
    broken = _broken_row_sum(copy.deepcopy(docs["fix_prod.json"]))
    broken = _write(directory / "prod_broken.json", broken)
    unframed = copy.deepcopy(docs["fix_z2.json"])
    del unframed["trivialization"]
    unframed = _write(directory / "z2_unframed.json", unframed)
    calls += [
        (["check", gamma, "--format", "json"], 0),
        (["check", theta, "--format", "json"], 0),
        (["curvature", theta, "--connection", "th"], 0),
        (["check", gauss, "--format", "json"], 0),
        (["check", broken, "--format", "json"], 1),
        (["curvature", unframed, "--connection", "cls"], 0),
        # the connection form of fix_prod's classical connection is one entry over this cap
        (["check", prod, "--suite", "connection:cls", "--max-entries", "107"], 1),
        (["check", z2, "--suite", "bogus"], 2),
        (["fixtures", "--dir", z2], 2),
    ]

    text = json.dumps(docs["fix_prod.json"])
    floats = copy.deepcopy(docs["fix_prod.json"])
    floats["connections"][1]["density"][0][1][0] = 0.5
    tau = copy.deepcopy(docs["fix_prod.json"])
    tau["gauges"][0]["tau_hat"][0] = 3
    extra = dict(docs["fix_prod.json"], extra=1)
    (directory / "truncated.json").write_text(text[: len(text) // 2])
    for bad in (
        str(directory / "truncated.json"),
        _write(directory / "float.json", floats),
        _write(directory / "tau_range.json", tau),
        _write(directory / "unknown_key.json", extra),
    ):
        calls.append((["check", bad, "--format", "json"], 2))

    # usage errors and help end by SystemExit
    calls += [([], 2), (["bogus"], 2), (["check"], 2), (["check", z2, "--format", "xml"], 2)]
    calls += [(["-h"], 0), (["check", "--help"], 0)]
    return calls


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Keys of the code entered while the command line runs every call."""
    directory = tmp_path_factory.mktemp("public_api")
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(_key(frame.f_code))

    def status(args):
        try:
            return main(args)
        except SystemExit as exc:
            return exc.code

    calls = [(["fixtures", "--dir", str(directory)], 0)] + _cli_calls(directory)
    # every module loaded first, so what a call enters does not hang on
    # which modules earlier tests happened to load
    _modules()
    statuses = []
    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for args, _expected in calls:
                statuses.append(status(args))
        finally:
            sys.setprofile(previous)
    assert [(args, s) for (args, _), s in zip(calls, statuses)] == calls
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


def test_every_function_runs_on_a_cli_path(reached):
    unreached = sorted(
        name
        for name, key in _defined().items()
        if not _is_method(name) and key not in reached and name not in KEEP
    )
    assert unreached == []


def test_keep_lists_only_functions_no_path_reaches(reached):
    functions = {name: key for name, key in _defined().items() if not _is_method(name)}
    assert sorted(set(KEEP) - set(functions)) == []
    assert sorted(name for name in KEEP if functions[name] in reached) == []


def test_every_method_runs_on_a_cli_path(reached):
    unreached = sorted(
        name
        for name, key in _defined().items()
        if _is_method(name) and key not in reached and name not in KEEP_METHODS
    )
    assert unreached == []


def test_keep_methods_lists_only_methods_no_path_reaches(reached):
    methods = {name: key for name, key in _defined().items() if _is_method(name)}
    assert sorted(set(KEEP_METHODS) - set(methods)) == []
    assert sorted(name for name in KEEP_METHODS if methods[name] in reached) == []
