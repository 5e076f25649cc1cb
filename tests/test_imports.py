"""No module imports a name it never uses.

Every module under ``src/shiftgibbs/`` and ``tests/`` is parsed with
``ast``; each name an import statement binds must occur somewhere else in
the module (as a name, the root of an attribute chain, a string
annotation, or an ``__all__`` entry).  Package ``__init__.py`` files are
skipped, since their imports are the public re-exports, and so is
``from __future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "shiftgibbs", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    texts = []  # string annotations and ``__all__`` entries
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            annotations.append(node.value)
        for ann in filter(None, annotations):
            texts.extend(c.value for c in ast.walk(ann)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for text in texts:
        expr = ast.parse(text, mode="eval")
        used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(imported_names(tree).items(),
                                     key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\n"
              "x: 'np.ndarray' = pi\n"
              "y = 'turn.pot'\n")
    assert unused_imports(source) == ["line 2: os", "line 4: turn"]
