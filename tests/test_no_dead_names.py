"""Every private module-level function, class and constant of the package is read
somewhere in the package, so that a refactor leaves no orphaned helper behind.

A name is read where it appears as a loaded name or as an attribute; tests do
not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modelsets"


def private_definitions(tree: ast.Module) -> dict:
    """{name: line} of the private names a module defines at its top level."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def dead_names(sources: dict) -> list[str]:
    """'file:line: name' for each private top-level name that no source reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{file}:{line}: {name}" for file, tree in sorted(trees.items())
            for name, line in sorted(private_definitions(tree).items(), key=lambda t: t[1])
            if name not in read]


def test_the_check_sees_a_dead_name():
    sources = {"a.py": "_LIMIT = 3\n_unused = 4\n\ndef _helper():\n    return _LIMIT\n\n"
                       "class _Gone:\n    pass\n",
               "b.py": "from .a import _helper\n\nx = _helper()\n_also: int = 1\n"}
    assert dead_names(sources) == ["a.py:2: _unused", "a.py:7: _Gone", "b.py:4: _also"]


def test_the_check_counts_attribute_reads():
    sources = {"a.py": "_LIMIT = 3\n", "b.py": "from . import a\n\nx = a._LIMIT\n"}
    assert dead_names(sources) == []


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sum(len(private_definitions(ast.parse(t))) for t in sources.values()) > 60
    assert dead_names(sources) == []
