"""Lazy package exports: each package names its public API once.

A package ``__init__`` passes :func:`export` a table from each defining
module (relative to the package) to the names the package re-exports
from it.  The names are bound on first access through a PEP 562 module
``__getattr__``, so importing a package, or any submodule under it,
imports nothing the caller does not use; ``__all__`` is the table's
names.

Some exports share a name with a submodule of their package (``unfold``
in ``repro.dfg.unfold``).  The import system binds each submodule it
loads on its package, and ``__getattr__`` is only asked about missing
attributes, so such a binding would shadow the export for good.  The
package's module class therefore binds the export in its place.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, List, Mapping


class _Package(ModuleType):
    """A package whose exports win over its submodules of the same name."""

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) and name in self.__all__:
            value = self.__getattr__(name)
        super().__setattr__(name, value)


def export(package: str, table: Mapping[str, str]) -> List[str]:
    """Make ``package``'s exports lazy and return its ``__all__``.
    ``table`` maps a module (``.graph``) to the whitespace-separated
    names exported from it."""
    pkg = sys.modules[package]
    namespace = vars(pkg)
    source = {name: module for module, names in table.items() for name in names.split()}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    pkg.__class__ = _Package
    return list(source)
