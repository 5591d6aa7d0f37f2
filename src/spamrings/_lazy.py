"""Deferred module loading, so commands that never compute with numpy or scipy never load them."""

from __future__ import annotations

import importlib
import sys
import types


class _Deferred(types.ModuleType):
    def __getattr__(self, attr):
        vars(self).update(vars(importlib.import_module(self.__name__)))
        self.__class__ = types.ModuleType
        return getattr(self, attr)


def lazy_import(name: str) -> types.ModuleType:
    """The module ``name``, dotted or not, or a stand-in if it is not loaded yet.

    The stand-in loads the module on its first attribute read, copies its
    namespace and becomes a plain module: later reads cost a module
    attribute read, and a module ``__getattr__`` that came with the copy
    (numpy's lazy submodules) keeps working. It never enters sys.modules,
    so an ``import`` elsewhere is a plain import; a module that is not
    installed fails at first use.
    """
    return sys.modules.get(name) or _Deferred(name)
