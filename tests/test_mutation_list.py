"""The standing mutation list in ``mutants.py`` stays runnable: each mutant's
text occurs exactly once in its file, and each killing test id names tests
that pytest collects.  The full run takes minutes, so it stays outside the
suite; these checks take one collection.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("i", range(len(MUTANTS)))  # numbered as the runner reports them
def test_each_mutant_text_occurs_once_in_its_file(i):
    mutant = MUTANTS[i]
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def test_every_killer_id_is_collected():
    killers = sorted({m.killer for m in MUTANTS})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *killers], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = done.stdout.splitlines()
    for killer in killers:
        # a class or a parametrized test stands for the ids it collects
        assert any(line == killer or line.startswith((f"{killer}::", f"{killer}["))
                   for line in collected), killer
