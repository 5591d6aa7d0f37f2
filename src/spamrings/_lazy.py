"""Deferred module loading, so commands that never compute with numpy never load it."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``; if it is not loaded yet, its code runs on first attribute access.

    Only for top-level modules: finding a submodule's spec imports its parent.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
