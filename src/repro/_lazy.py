"""PEP 562 lazy re-exports for package ``__init__`` files.

A package that re-exports names from modules most of its users never
run lists them in a ``{name: module}`` table and installs the pair this
returns as its ``__getattr__`` / ``__dir__``: the module is imported the
first time the name is read, and ``from package import name``,
``dir(package)`` and ``from package import *`` behave as if it had been
imported eagerly.
"""

from __future__ import annotations

import importlib


def lazy_exports(package: dict, table: dict[str, str]):
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``package``, resolving each name of ``table`` from the module it maps to."""

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package['__name__']!r} has no attribute {name!r}"
            )
        value = package[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(package) | set(package["__all__"]))

    return __getattr__, __dir__
