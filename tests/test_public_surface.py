"""Every exported name is reached by the package, a benchmark or an example.

A name in the ``__all__`` of ``repro`` or of a ``repro.*`` subpackage must be
referenced as code somewhere under ``src/``, ``benchmarks/`` or
``examples/``: as an ``ast.Name``, an ``ast.Attribute``, or a
``from ... import`` outside an ``__init__.py`` (re-exports do not count).
A name that only tests reach is either deleted or listed in ``ALLOWLIST``
with the reason it stays.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from functools import lru_cache
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")

#: Exported names that no package, benchmark or example code reaches, kept
#: on purpose.
ALLOWLIST = {
    "DistributedSpectralOperators": (
        "README 'Substitutions' rests on its agreement with the serial operators"
    ),
    "save_problem": "writes the .npz that the CLI's --input reads",
    "validate_snapshot": "schema checker the observability smoke test runs",
    "validate_chrome_trace": "schema checker the observability smoke test runs",
}


@lru_cache(maxsize=None)
def _exported() -> dict:
    """``{name: [module, ...]}`` over ``repro`` and its subpackages."""
    exported: dict = {}
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            exported.setdefault(name, []).append(module.__name__)
    return exported


@lru_cache(maxsize=None)
def _referenced() -> frozenset:
    names: set = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    names.update(alias.name for alias in node.names)
    return frozenset(names)


def test_every_export_is_reached_outside_tests():
    referenced = _referenced()
    unreached = {
        name: modules
        for name, modules in _exported().items()
        if name not in referenced and name not in ALLOWLIST
    }
    assert not unreached, f"exported but reached only by tests: {unreached}"


def test_allowlist_is_current():
    exported = _exported()
    referenced = _referenced()
    stale = {name for name in ALLOWLIST if name not in exported or name in referenced}
    assert not stale, f"allowlist entries no longer needed: {stale}"
