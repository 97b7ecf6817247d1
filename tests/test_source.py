"""Source hygiene of the package, checked with ``ast`` since no linter is installed."""

import ast
import collections
import functools
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


@functools.cache
def _trees() -> dict:
    """Every module of the package, the tests and the benchmark, parsed."""
    return {path: ast.parse(path.read_text()) for directory in (SRC, ROOT / "tests", ROOT / "perfbench")
            for path in directory.rglob("*.py")}


def test_every_definition_is_referenced():
    # a function, class or method nothing names is dead code; ``__all__`` is no use of a name
    trees = _trees()
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


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    # a field that is written and never read, such as one a build fills for no caller, fails here;
    # a read is an attribute load, or a string that names the field, as ``getattr`` and ``asdict`` keys do
    read = collections.Counter()
    for tree in _trees().values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read[sub.attr] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and IDENTIFIER.fullmatch(sub.value):
                read.update(sub.value.split("."))
    unread = [f"{path.name}:{stmt.lineno}: {node.name}.{stmt.target.id}"
              for path in MODULES for node in ast.walk(_trees()[path]) if _is_dataclass(node)
              for stmt in node.body if isinstance(stmt, ast.AnnAssign) and not read[stmt.target.id]]
    assert not unread


def _passed(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` gives the parameter ``name``, the ``position``-th positional one
    (None when keyword-only); an unpacked ``*args`` or ``**kwargs`` may give any."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    return any(kw.arg == name for kw in call.keywords) or (position is not None and len(call.args) > position)


def test_every_defaulted_parameter_is_passed():
    # a default no call overrides is a constant dressed as an option, such as a layer argument no caller sets
    calls = collections.defaultdict(list)  # called name -> its calls
    for tree in _trees().values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)].append(sub)
    never = []
    for path in MODULES:
        tree = _trees()[path]
        for owner in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
            for node in owner.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                in_class = owner is not tree
                name = owner.name if in_class and node.name == "__init__" else node.name
                args = node.args
                positional = [*args.posonlyargs, *args.args][1 if in_class else 0:]
                defaulted = [(arg, i) for i, arg in enumerate(positional)][len(positional) - len(args.defaults):]
                defaulted += [(arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                never += [f"{path.name}:{node.lineno}: {name}({arg.arg})" for arg, i in defaulted
                          if not any(_passed(call, arg.arg, i) for call in calls[name])]
    assert not never
