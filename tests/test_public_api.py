"""Every name a qpb module lists in __all__ must exist in that module."""

import importlib
import pkgutil

import qpb


def test_every_public_name_resolves():
    modules = [qpb] + [
        importlib.import_module(f"qpb.{info.name}") for info in pkgutil.iter_modules(qpb.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
