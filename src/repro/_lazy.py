"""Lazy package namespaces (PEP 562).

A package ``__init__`` declares its public names as one export table,
``{submodule: (name, ...)}``, and binds::

    __getattr__, __dir__, __all__ = lazy_namespace(__name__, {...})

Nothing is imported until a name is first looked up; then only its
defining submodule loads, and the value is cached in the package's
globals so later lookups never reach ``__getattr__``.  A table entry
whose names are ``None`` exports the submodule itself under its own
name (``repro.core``, ``repro.graphs``, ...).
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_namespace(package: str, table: dict[str, tuple[str, ...] | None]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s export table."""
    owner = {
        name: submodule
        for submodule, names in table.items()
        for name in (names if names is not None else (submodule,))
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{submodule}")
        value = module if table[submodule] is None else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
