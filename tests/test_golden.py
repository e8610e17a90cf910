"""Golden CLI matrix: the exit code and the exact stdout bytes of each case.

The expected stdout of case ``name`` is ``tests/golden/<name>.out``.  Tables
for ``verify`` and ``analyze --input`` are written by ``simulate -o`` into a
scratch directory, so their path is replaced by ``<dir>`` before comparing.
``golden/dense.sha256`` is the sha256 of :func:`dense_digest_text`: every
``full_table`` entry and both standard inequality sums on a 97 x 7 grid of
theta in [-pi, pi] and eta in [0, 1], and 1001-point sweeps of both tests on a
uniform and a seeded uneven grid, each float written with ``float.hex``.
After an intended output change, record the files again, together with the
demos' stdout that ``tests/test_demos.py`` compares, with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest
import test_demos

from bosonctx.cli import main
from bosonctx.contextuality import PENTAGON, TRIANGLE, inequality_sum, standard_events, sweep_eta
from bosonctx.experiment import full_table
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam

GOLDEN = Path(__file__).parent / "golden"
DENSE = GOLDEN / "dense.sha256"

THETAS = {"pi4": "0.7853981633974483", "0.3": "0.3", "0": "0", "1.2": "1.2"}
ETAS = ("1", "0.37", "0")

# name -> argv of the ``simulate`` call that writes it
CLEAN_INPUTS = {
    "clean-pi4-eta1.json": ["--theta", THETAS["pi4"], "--eta", "1"],
    "clean-0.3-eta0.37.csv": ["--theta", "0.3", "--eta", "0.37", "--format", "csv"],
    "clean-1.2-eta0.json": ["--theta", "1.2", "--eta", "0"],
}


def _cases() -> list[tuple[str, list[str], int]]:
    cases = []
    for t_name, theta in THETAS.items():
        for eta in ETAS:
            point = ["--theta", theta, "--eta", eta]
            for fmt in ("json", "csv"):
                cases.append((f"simulate-{fmt}-theta{t_name}-eta{eta}",
                              ["simulate", *point, "--format", fmt], 0))
            for test in ("pentagon", "triangle"):
                cases.append((f"analyze-{test}-theta{t_name}-eta{eta}",
                              ["analyze", "--test", test, *point], 0))
    for t_name in ("pi4", "0.3"):
        for test in ("pentagon", "triangle"):
            for fmt in ("json", "csv"):
                cases.append((f"sweep-{test}-{fmt}-theta{t_name}",
                              ["sweep", "--test", test, "--theta", THETAS[t_name],
                               "--steps", "37", "--format", fmt], 0))
    for graph in ("pentagon", "triangle", "cycle:3", "cycle:8", "cycle:13", "cycle:24"):
        cases.append((f"bounds-{graph.replace(':', '')}", ["bounds", "--graph", graph], 0))
    for name in CLEAN_INPUTS:
        cases.append((f"verify-{name}", ["verify", "--input", f"{{dir}}/{name}"], 0))
        for test in ("pentagon", "triangle"):
            cases.append((f"analyze-input-{test}-{name}",
                          ["analyze", "--test", test, "--input", f"{{dir}}/{name}"], 0))
    for name in ("perturbed.csv", "perturbed.json"):
        cases.append((f"verify-{name}", ["verify", "--input", f"{{dir}}/{name}"], 1))
    return cases


CASES = _cases()


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def write_inputs(directory: Path) -> None:
    """Clean tables from ``simulate -o``, plus two perturbed copies of them."""
    for name, argv in CLEAN_INPUTS.items():
        assert run(["simulate", *argv, "-o", str(directory / name)]) == (0, b"")
    csv_lines = (directory / "clean-0.3-eta0.37.csv").read_text().splitlines(keepends=True)
    (directory / "perturbed.csv").write_text(
        "".join("A,at,0.5\n" if line.startswith("A,at,") else line for line in csv_lines))
    payload = json.loads((directory / "clean-pi4-eta1.json").read_text())
    payload["records"][-1]["probability"] += 1e-9
    (directory / "perturbed.json").write_text(json.dumps(payload, indent=2) + "\n")


def case_output(argv: list[str], directory: Path) -> tuple[int, bytes]:
    code, out = run([arg.format(dir=directory) for arg in argv])
    return code, out.replace(str(directory).encode(), b"<dir>")


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(directory)
    return directory


def test_matrix_is_complete():
    names = [name for name, _, _ in CASES]
    assert len(set(names)) == len(names)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(names)


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, expected_code, input_dir):
    code, out = case_output(argv, input_dir)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def _hex(value) -> str:
    """A float's exact bits; anything else (``None``, an int) by its repr."""
    return value.hex() if type(value) is float else repr(value)


def dense_digest_text() -> str:
    """One line per table entry, inequality sum and sweep value, in the order
    the library produces them, with every number as ``float.hex``."""
    lines = []
    events = {test: standard_events(test) for test in (PENTAGON, TRIANGLE)}
    for k in range(97):
        bs = BeamsplitterSpec(-math.pi + k * (2 * math.pi / 96))
        for eta in (0.0, 0.125, 0.37, 0.5, 0.75, 0.9, 1.0):
            table = full_table(bs, DistinguishabilityParam(eta))
            lines += (f"{_hex(bs.theta)} {_hex(eta)} {ctx} {token} {_hex(p)}"
                      for ctx, dist in table.contexts.items() for token, p in dist.items())
            lines += (f"{test} {_hex(inequality_sum(table, evs))}" for test, evs in events.items())
    rng = random.Random(1001)
    uneven = [0.0, *sorted(rng.random() for _ in range(999)), 1.0]
    for theta in (math.pi / 4, 0.3, 0.62, 2.0):
        bs = BeamsplitterSpec(theta)
        for test in (PENTAGON, TRIANGLE):
            for result in (sweep_eta(test, bs, steps=1001), sweep_eta(test, bs, uneven)):
                lines.append(f"sweep {test} {_hex(result.theta)}")
                lines += (f"{_hex(e)} {_hex(s)}" for e, s in zip(result.etas, result.sums))
                lines += (f"bound {name} {_hex(b)}" for name, b in result.bounds.items())
                lines += (f"crossing {name} {_hex(c)}" for name, c in result.crossings.items())
    return "\n".join(lines) + "\n"


def dense_digest() -> str:
    return hashlib.sha256(dense_digest_text().encode()).hexdigest()


def test_dense_digest_matches_the_record():
    assert dense_digest() == DENSE.read_text().split()[0]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        for name, argv, expected_code in CASES:
            code, out = case_output(argv, directory)
            if code != expected_code:
                sys.exit(f"{name}: exit {code}, expected {expected_code}")
            (GOLDEN / f"{name}.out").write_bytes(out)
    DENSE.write_text(f"{dense_digest()}  dense_digest_text()\n")
    print(f"recorded {len(CASES)} cases and the dense digest in {GOLDEN}")
    test_demos.record()


if __name__ == "__main__":
    record()
