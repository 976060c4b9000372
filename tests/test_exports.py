import ast
import importlib
from pathlib import Path

import pytest

import uil


@pytest.mark.parametrize("module", ["uil", "uil.analytic", "uil.fock", "uil.optimize"])
def test_every_export_resolves(module):
    # the benchmark's tracer (bench/tracer.py) calls getattr on every
    # entry, so a dangling name would break traced runs
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert missing == []


SOURCE = Path(uil.__file__).parent
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def package_imports():
    """(importer, module, name) for each import of one package module by another, at any depth.

    ``name`` is None where a whole module is imported; ``from . import
    name`` takes ``name`` from ``__init__`` unless it is a module.
    """
    for importer in MODULES:
        for node in ast.walk(ast.parse((SOURCE / f"{importer}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("uil."):
                        yield importer, alias.name.removeprefix("uil."), None
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "uil"):
                module = (node.module or "").removeprefix("uil").lstrip(".") or "__init__"
                for alias in node.names:
                    if module == "__init__" and alias.name in MODULES:
                        yield importer, alias.name, None
                    else:
                        yield importer, module, alias.name


def test_no_module_imports_a_private_name_of_another():
    # what one module needs of another is part of that module's interface, so no
    # leading underscore; imports inside functions count too
    private = [
        f"{importer} imports {module}.{name}"
        for importer, module, name in package_imports()
        if name is not None and name.startswith("_") and not name.startswith("__") and module != importer
    ]
    assert private == []


def test_every_module_is_imported_by_another():
    # a module no other one imports serves neither the CLI nor the public API
    imported = {module for importer, module, _ in package_imports() if module != importer}
    assert sorted(set(MODULES) - imported - {"__init__", "__main__"}) == []
