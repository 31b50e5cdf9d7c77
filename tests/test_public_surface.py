"""Every exported name is reached by the package, a benchmark or an example.

A name in the ``__all__`` of ``repro`` or of a ``repro.*`` subpackage must be
referenced as code somewhere under ``src/``, ``benchmarks/`` or
``examples/``.  References are resolved to qualified names through each
file's imports: ``from repro.service import gather`` and
``repro.service.gather`` reach the export ``repro.service.gather``, and a
bare ``gather`` reaches it only inside the module that defines it.  An
attribute of some other object that shares the name — ``service.gather``
on a ``RegistrationService`` — does not.  A ``from ... import`` in an
``__init__.py`` is a re-export and does not count.  An export is reached
when a reference names it in any module that holds the same object.  A
name that only tests reach is either deleted or listed in ``ALLOWLIST``
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

#: Exported ``module.name``s that no package, benchmark or example code
#: reaches, kept on purpose.
ALLOWLIST = {
    "repro.data.save_problem": "writes the .npz that the CLI's --input reads",
    "repro.observability.validate_snapshot": "schema checker the observability smoke test runs",
    "repro.observability.validate_chrome_trace": (
        "schema checker the observability smoke test runs"
    ),
}


def _module_name(path: Path) -> str:
    """The dotted module a file under ``src/`` defines (``""`` elsewhere)."""
    try:
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
    except ValueError:
        return ""
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _dotted(node: ast.AST) -> list:
    """``["a", "b", "c"]`` for the expression ``a.b.c`` (``[]`` otherwise)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head + [node.attr] if head else []
    return []


def _references(path: Path) -> set:
    """The qualified names *path*'s code references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    imported: dict = {}
    references: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imported[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    imported[top] = top
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                source = f"{base}.{source}" if source else base
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{source}.{alias.name}"
                if path.name != "__init__.py":
                    references.add(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            parts = _dotted(node)
            if not parts:
                continue
            if parts[0] in imported:
                head = imported[parts[0]]
            elif module:
                head = f"{module}.{parts[0]}"
            else:
                continue
            references.add(".".join([head, *parts[1:]]))
    return references


@lru_cache(maxsize=None)
def _exported() -> dict:
    """``{"module.name": object}`` over ``repro`` and its subpackages."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg
    ]
    return {
        f"{module.__name__}.{name}": getattr(module, name)
        for module in modules
        for name in getattr(module, "__all__", ())
    }


def _resolve(qualified: str) -> tuple:
    """``(True, object)`` for a ``module.name`` reference, else ``(False, None)``."""
    module_name, _, name = qualified.rpartition(".")
    if not module_name.startswith("repro"):
        return False, None
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False, None
    if not hasattr(module, name):
        return False, None
    return True, getattr(module, name)


@lru_cache(maxsize=None)
def _reached() -> frozenset:
    """The exports some scanned code references, by ``module.name``."""
    references: set = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            references |= _references(path)
    exported = _exported()
    # an export is the object its module holds: a reference through any
    # module that holds the same object under the same name reaches it
    by_name: dict = {}
    for qualified in references:
        found, value = _resolve(qualified)
        if found:
            by_name.setdefault(qualified.rpartition(".")[2], []).append(value)
    return frozenset(
        qualified
        for qualified, value in exported.items()
        if any(value is seen for seen in by_name.get(qualified.rpartition(".")[2], ()))
    )


def test_every_export_is_reached_outside_tests():
    reached = _reached()
    unreached = sorted(
        qualified
        for qualified in _exported()
        if qualified not in reached and qualified not in ALLOWLIST
    )
    assert not unreached, f"exported but reached only by tests: {unreached}"


def test_allowlist_is_current():
    exported = _exported()
    reached = _reached()
    stale = {name for name in ALLOWLIST if name not in exported or name in reached}
    assert not stale, f"allowlist entries no longer needed: {stale}"


def test_an_attribute_of_the_same_name_does_not_reach_an_export(tmp_path):
    """The resolver is qualified: ``service.gather`` on an instance is not
    ``repro.service.gather``."""
    source = tmp_path / "script.py"
    source.write_text(
        "from repro import service as svc\n"
        "import repro.service\n"
        "def run(service):\n"
        "    service.gather([])\n"
        "    svc.run_atlas\n"
        "    repro.service.serve_http\n"
    )
    references = _references(source)
    assert "repro.service.run_atlas" in references
    assert "repro.service.serve_http" in references
    assert not any(name.endswith(".gather") and name.startswith("repro") for name in references)
