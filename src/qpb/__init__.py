"""Exact verification engine for principal bundles over finite spaces.

Finite group actions, their function-algebra coactions, the universal
differential calculus, connections, curvature, and gauge maps, all over
Gaussian rationals with every identity checked at exact equality.

Importing the package loads no submodule: each name below is imported
from its home module on first access, so `python -m qpb.cli` compiles
only the modules its command reaches.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "SpecDocument": "document",
    "SpecError": "document",
    "parse_spec": "document",
    "BundleSpec": "groups",
    "FiniteGroup": "groups",
    "RightAction": "groups",
    "make_product": "groups",
    "symmetric": "groups",
    "CheckResult": "report",
    "Report": "report",
    "ConfigError": "runner",
    "RunReport": "runner",
    "emit_report": "runner",
    "run_checks": "runner",
    "Scalar": "scalars",
    "parse_scalar": "views",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
