"""Lazy package re-exports (PEP 562).

Importing any ``repro`` submodule runs its package ``__init__`` first,
so a package that re-exported its public names eagerly would load its
heaviest module (the engine, the compiler, the process pool) into every
process that touches any part of it. Packages instead declare where
each public name lives and resolve it on first use::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "pipeline": ("PipelineSim",),
        "stats": ("SimStats",),
    })

``from repro.core import PipelineSim`` then imports
``repro.core.pipeline`` at that statement, not when ``repro.core.stats``
is imported.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    public names it defines. The first read of a name imports its
    submodule and caches the value on the package, so later reads are
    plain attribute lookups.
    """
    home = {name: submodule for submodule, names in exports.items()
            for name in names}

    def __getattr__(name):
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"),
                        name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
