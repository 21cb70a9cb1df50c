"""The package's layering, read from the source with ``ast``: the exact
layers hold no JSON and no float, no module reaches into another's
private names, and no module of the package or the tests imports a name
it never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "folnerdom"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of every module that ``tree`` imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_cli_writes_json():
    assert [name for name, tree in MODULES.items() if "json" in imported_modules(tree)] == ["cli"]


@pytest.mark.parametrize("name", ["chains", "dominance"])
def test_exact_layers_hold_no_float(name):
    tree = MODULES[name]
    assert "math" not in imported_modules(tree)
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "float" not in {func.id for func in calls if isinstance(func, ast.Name)}


def test_no_private_name_crosses_modules():
    crossings = [
        f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("folnerdom"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossings == []


def test_every_import_is_read():
    unread = []
    for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [
            f"{path.parent.name}/{path.name}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in read
        ]
    assert unread == []
