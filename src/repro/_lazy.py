"""PEP 562 lazy exports: each package declares its public names once."""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(namespace: dict[str, Any],
                 table: dict[str, tuple[str, ...]],
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]],
                            list[str]]:
    """``(__getattr__, __dir__, __all__)`` for a package ``__init__``.

    ``table`` maps relative module names to the names they export.  The
    first lookup of a name imports its module and caches the object in
    ``namespace``, so later lookups never reach ``__getattr__``.
    """
    owner = {name: module for module, names in table.items()
             for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = import_module(owner[name], package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, list(owner)
