"""Source hygiene: no module of the package imports a name it never uses.

``__init__`` is exempt, since its imports are the package's exports, and so
are ``from __future__`` imports.  A name counts as used when it appears as an
identifier anywhere in the module, annotations included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bosonctx"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no identifier uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"cli.py", "contextuality.py", "experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from itertools import combinations, islice\n"
              "x: j.Any = islice\n")
    assert unused_imports(source) == ["os", "combinations"]
