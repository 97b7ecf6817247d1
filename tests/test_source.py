"""Source hygiene of the package, checked with ``ast`` since no linter is installed."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcsnn"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 120


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_is_over_the_limit(path):
    long = [f"{path.name}:{n}: {len(line)}" for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    # a name left behind by a deletion, such as an unused ``asdict``, fails here
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    assert not [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
