"""Checks over the package source, read with ``ast``: what a deletion leaves behind.

No module but ``__init__`` (which re-exports) imports a name it never reads, and every
private module-level name is read somewhere in the package.
"""

import ast
from pathlib import Path

import segtriples

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(Path(segtriples.__file__).parent.glob("*.py"))}


def _read_names(tree):
    """The names tree reads: bare names loaded, and attributes looked up."""
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def _imported(tree):
    """(line, name) for each name tree's imports bind, but the ``__future__`` flags."""
    return [(n.lineno, a.asname or a.name.partition(".")[0]) for n in ast.walk(tree)
            if isinstance(n, ast.Import) or isinstance(n, ast.ImportFrom) and n.module != "__future__"
            for a in n.names]


def _private_top_level(tree):
    """(line, name) for each private name bound at module level: not dunder, led by ``_``."""
    bound = []
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            bound.append((n.lineno, n.name))
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            bound += [(t.lineno, t.id) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(line, name) for line, name in bound if name.startswith("_") and not name.startswith("__")]


def test_no_module_imports_a_name_it_never_reads():
    unread = [f"{file}:{line}: {name}" for file, tree in TREES.items() if file != "__init__.py"
              for line, name in _imported(tree) if name not in _read_names(tree)]
    assert unread == []


def test_every_private_module_level_name_is_read_in_the_package():
    read = set().union(*map(_read_names, TREES.values()))
    imported = {name for tree in TREES.values() for _, name in _imported(tree)}
    orphans = [f"{file}:{line}: {name}" for file, tree in TREES.items()
               for line, name in _private_top_level(tree) if name not in read | imported]
    assert orphans == []
