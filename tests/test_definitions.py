"""Every definition in ``src/`` is read somewhere.

The companion of the unused-import scan in ``test_imports.py``. Each
module-level function, class and constant of ``src/``, and each method
of its classes, must be read by some module of ``src/``, ``tests/``,
``scripts/`` or ``perfbench/``. A read is a loaded name, a loaded
attribute, or a name imported by ``from ... import``. ``qap/__init__.py``
is not a reader: its re-exports are not uses. Dunder names are exempt,
since Python itself calls them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "qap" / "__init__.py"
SOURCES = sorted((ROOT / "src").rglob("*.py"))
READERS = sorted(
    p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
    if p != PACKAGE_INIT
)


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level functions, classes and constants of ``tree``, and its methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(m.name, m.lineno) for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def reads(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, loads as an attribute, or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_read():
    used = set().union(*(reads(ast.parse(p.read_text())) for p in READERS))
    dead = [
        f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
        for path in SOURCES
        for name, line in definitions(ast.parse(path.read_text()))
        if name not in used
    ]
    assert dead == []


def test_scan_flags_a_dead_definition():
    source = (
        "LIMIT = 1\nSPARE = 2\n"
        "class Grid:\n    def __len__(self):\n        return LIMIT\n"
        "    def first(self):\n        pass\n    def last(self):\n        pass\n"
    )
    tree = ast.parse(source)
    used = reads(tree) | reads(ast.parse("from grid import Grid\nGrid().last()\n"))
    assert [name for name, _ in definitions(tree) if name not in used] == ["SPARE", "first"]
