"""Every import in ``src/``, ``tests/`` and ``scripts/`` is used.

No linter runs on this repository, so this scan stands in for one. An
import counts as used when the name it binds is read anywhere in the
module (the root of an attribute chain included) or is listed in
``__all__``; ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import of ``tree`` and never used, with their lines."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(ast.parse(source)) == ["os (line 2)"]
