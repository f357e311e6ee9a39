"""No module of the package imports a name that it neither uses nor lists
in ``__all__``. No linter is a declared dependency, so the check reads
each module's syntax tree itself."""

import ast
from pathlib import Path

import pytest

import squeeze_dyn

MODULES = sorted(Path(squeeze_dyn.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # an attribute chain such as ``np.linalg.eigh`` starts at a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used | exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom .model import ChannelKind, _require_alpha\nChannelKind\n"
    assert unused_imports(source) == ["line 1: math", "line 2: _require_alpha"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
