"""Cross-cutting enums and helpers shared across the layers."""

from __future__ import annotations

import enum
import importlib
import os
import re
import sys


def hostname() -> str:
    """This host's name, sanitised for embedding in file names.

    ``os.uname().nodename`` is the value ``socket.gethostname()``
    returns on POSIX, without importing :mod:`socket`.
    """
    return re.sub(r"[^A-Za-z0-9-]", "-", os.uname().nodename) or "host"


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 hooks for a package whose public names live in submodules.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines.  Returns ``(__all__, __getattr__, __dir__)``
    for the package's ``__init__`` to bind.  A name's submodule is
    imported on first access and the value is cached in the package
    globals, so later lookups never reach ``__getattr__``; ``__dir__``
    lists ``__all__`` alongside whatever is already bound.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return sorted(owner), __getattr__, __dir__


class PrivilegeLevel(enum.IntEnum):
    """CPU privilege ring, ordered so ``>=`` means 'at least as privileged'.

    ``USER`` and ``KERNEL`` map onto any ISA's U/S modes.  ``MONITOR`` is
    the most-privileged software level: Sanctum's security monitor,
    TrustZone's monitor code (EL3), or x86 microcode-adjacent firmware.
    """

    USER = 0
    KERNEL = 1
    MONITOR = 2


class World(enum.Enum):
    """TrustZone-style security state of a core or transaction."""

    NORMAL = "normal"
    SECURE = "secure"

    @property
    def is_secure(self) -> bool:
        return self is World.SECURE


class PlatformClass(enum.Enum):
    """The paper's three platform categories (Figure 1 columns)."""

    SERVER_DESKTOP = "server-desktop"
    MOBILE = "mobile"
    EMBEDDED = "embedded"
