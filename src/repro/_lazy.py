"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists each public name once, under the submodule that defines
it; the name's submodule is imported on first attribute access, so
importing a package costs nothing beyond its own ``__init__``::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".graph": "StateGraph Transition",
        ".regions": "Region signal_regions",
    })
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable


class _LazyPackage(ModuleType):
    """A package whose re-exported names may shadow same-named submodules.

    The import system binds every loaded submodule on its package, which
    would replace ``repro.logic.minimize`` (the function) by the module
    of that name; the re-export wins instead, as an eager
    ``from .minimize import minimize`` in ``__init__`` would have it.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in vars(self).get("__all__", ())
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, table: dict[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a module (relative to ``package``) to the
    space-separated names it exports.
    """
    where = {name: mod for mod, names in table.items() for name in names.split()}
    module = sys.modules[package]

    def __getattr__(name: str) -> Any:
        mod = where.get(name)
        if mod is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(mod, package), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *where})

    module.__class__ = _LazyPackage
    return list(where), __getattr__, __dir__
