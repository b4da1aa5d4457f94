"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kgraphs"


def unused_imports(source: str):
    """(line, name) for each imported name the source never uses; the
    names a package lists in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        imported.update(dict.fromkeys(names, node.lineno))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = ("from typing import List, Set, Tuple\nimport os.path\n"
           "x: List[int] = []\n__all__ = ['Set']\n")
    assert unused_imports(src) == [(1, "Tuple"), (2, "os")]
