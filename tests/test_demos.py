"""Each demo in ``demos/`` runs to completion in a fresh interpreter, writes
nothing to stderr, and prints exactly ``tests/golden/demos/<stem>.out``.
``PYTHONPATH=src python tests/test_golden.py`` records those files again."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120)


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_text()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0 or proc.stderr:
            sys.exit(f"{demo.name}: exit {proc.returncode}\n{proc.stderr}")
        (GOLDEN / f"{demo.stem}.out").write_text(proc.stdout)
    print(f"recorded {len(DEMOS)} demos in {GOLDEN}")
