"""No stale import and no stale export in `src/shimony`, checked on the AST.

Every name a module imports is referenced in that module (a name listed in
`__all__` counts), and the names `shimony/__init__.py` imports are exactly
its `__all__` minus `__version__`. No linter runs in CI; these checks catch
an import left behind when the code that used it goes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shimony"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, bar `from __future__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings of the module's `__all__` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_referenced(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - referenced - _exported(tree)) == []


def test_package_imports_equal_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(_imported(tree)) == sorted(_exported(tree) - {"__version__"})
