"""Source hygiene of the package, checked with ``ast`` since no linter is installed."""

import ast
import collections
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcsnn"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 120


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_is_over_the_limit(path):
    long = [f"{path.name}:{n}: {len(line)}" for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)


def _exported(tree) -> set:
    for node in tree.body:
        if _is_all(node):
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    # a stale entry, such as a deleted function still listed in ``__all__``, fails here
    tree = ast.parse(path.read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name for alias in node.names}
    assert not sorted(_exported(tree) - defined)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter a change left behind, such as an argument no line of its function reads, fails here
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        names = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
        unread += [f"{path.name}:{node.lineno}: {arg.arg}" for arg in params
                   if arg.arg not in names and arg.arg not in ("self", "cls") and not arg.arg.startswith("_")]
    assert not unread


ROOT = SRC.parent.parent
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _references(node) -> collections.Counter:
    """Names a subtree uses: names, attributes, and string constants that
    spell a dotted name, as a binding by string does (prose never does)."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and IDENTIFIER.fullmatch(sub.value):
            names.update(sub.value.split("."))
    return names


def test_every_definition_is_referenced():
    # a function, class or method nothing names is dead code; ``__all__`` is no use of a name
    trees = {path: ast.parse(path.read_text()) for directory in (SRC, ROOT / "tests", ROOT / "perfbench")
             for path in directory.rglob("*.py")}
    used = sum((_references(node) for tree in trees.values() for node in tree.body if not _is_all(node)),
               collections.Counter())
    unused = []
    for path in MODULES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [node] + [sub for sub in node.body if isinstance(node, ast.ClassDef)
                             and isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
            for definition in defs:
                if used[definition.name] <= _references(definition)[definition.name]:
                    unused.append(f"{path.name}:{definition.lineno}: {definition.name}")
    assert not unused
