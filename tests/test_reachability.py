"""Every ``src/repro`` module is reachable from a product entry point.

Walks static imports with :mod:`ast` — module-level and function-level
alike, plus the ``lazy_exports(...)`` tables of package ``__init__``
modules — from the command line (``repro.cli`` and ``python -m
repro``), ``tools/``, ``bench/``, ``benchmarks/`` and ``examples/``. A
module that only ``tests/`` import is dead code that the test suite
keeps alive; it fails here unless :data:`TEST_ONLY` names it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOT_DIRS = ("tools", "bench", "benchmarks", "examples")
ROOT_MODULES = ("repro.cli", "repro.__main__")

#: Modules kept although no product path imports them, with the reason.
TEST_ONLY = {
    # The compiler-independent oracle of the compiler tests.
    "repro.lang.interp",
}


def module_path(name):
    """Source file of ``repro`` module ``name``, or ``None``."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def all_modules():
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


def lazy_table(package):
    """``{public name: submodule}`` from the package's ``lazy_exports``."""
    path = module_path(package)
    if path is None or path.name != "__init__.py":
        return {}
    table = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            exports = node.args[1]
            for key, names in zip(exports.keys, exports.values):
                for element in names.elts:
                    table[element.value] = key.value
    return table


def imported_names(path, package=""):
    """Module names ``path`` imports, with ``from X import Y`` expanded
    to ``X.Y`` when ``Y`` is a submodule or a lazy export of ``X``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            lazy = lazy_table(base)
            for alias in node.names:
                if module_path(f"{base}.{alias.name}") is not None:
                    found.add(f"{base}.{alias.name}")
                elif alias.name in lazy:
                    found.add(f"{base}.{lazy[alias.name]}")
    return {name for name in found if name.split(".")[0] == "repro"}


def reachable():
    """Every ``repro`` module some entry point imports, transitively."""
    todo = set(ROOT_MODULES)
    for directory in ROOT_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            todo |= imported_names(path)
    seen = set()
    while todo:
        name = todo.pop()
        path = module_path(name)
        if name in seen or path is None:
            continue
        seen.add(name)
        parts = name.split(".")
        todo.update(".".join(parts[:i]) for i in range(1, len(parts)))
        package = (name if path.name == "__init__.py"
                   else name.rpartition(".")[0])
        todo |= imported_names(path, package)
    return seen


def test_every_module_is_reachable_from_a_product_entry_point():
    assert sorted(all_modules() - reachable() - TEST_ONLY) == []


def test_test_only_modules_exist_and_are_unreachable():
    # A stale allow-list entry would hide the next dead module.
    assert TEST_ONLY <= all_modules()
    assert not TEST_ONLY & reachable()
