"""The optimizer's import boundary: the Newton-Krylov machinery knows no registration.

``GaussNewtonKrylov``, ``GradientDescent``, the Armijo search and PCG reach a
problem only through :class:`~repro.core.optim.protocol.NewtonProblem`, so
none of their modules may import the registration problem, its
preconditioner or regularization, the spectral layer or the transport layer.
``continuation.py`` stays registration-specific (it computes ``det grad y``)
and is not checked.
"""

import ast
from pathlib import Path

import pytest

import repro.core.optim

OPTIM = Path(repro.core.optim.__file__).parent
CHECKED = ("gauss_newton", "gradient_descent", "line_search", "pcg", "protocol")
FORBIDDEN = (
    "repro.core.problem",
    "repro.core.preconditioner",
    "repro.core.regularization",
    "repro.spectral",
    "repro.transport",
)


def imported_modules(path: Path) -> set:
    """Every module an ``import`` or ``from ... import`` in *path* names,
    with ``from package import module`` counted as ``package.module``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def crosses(module: str) -> bool:
    return any(module == bad or module.startswith(bad + ".") for bad in FORBIDDEN)


@pytest.mark.parametrize("name", CHECKED)
def test_optimizer_module_imports_no_registration_layer(name):
    imported = imported_modules(OPTIM / f"{name}.py")
    assert not sorted(filter(crosses, imported))


@pytest.mark.parametrize(
    "source, crossing",
    [
        ("from repro.core.problem import RegistrationProblem", True),
        ("from repro.spectral.grid import Grid", True),
        ("import repro.transport.solvers", True),
        ("from repro.core import preconditioner", True),
        ("from repro.core.optim.pcg import pcg", False),
        ("from repro.core.problems import X", False),
    ],
)
def test_the_check_sees_every_import_form(tmp_path, source, crossing):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert any(map(crosses, imported_modules(path))) is crossing
