"""Source and suite hygiene: no module of the package imports a name it never
uses, and a failing property test fails the run without stopping it.

``__init__`` is exempt, since its imports are the package's exports, and so
are ``from __future__`` imports.  A name counts as used when it appears as an
identifier anywhere in the module, annotations included.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bosonctx"
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


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    """Under the repository's warning filters, hypothesis's failure report
    (which imports libcst) must not turn into an internal error (exit 3)."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
