"""Differential tests of the CLI against the closed forms in ``oracles``.

Over drawn splitter angles and overlaps, ``analyze`` reports the closed-form
sum and event probabilities, ``sweep`` reports the closed-form bound
crossings, ``verify`` passes every table ``simulate`` writes, and ``bounds``
gives alpha = floor(N/2) and alpha* = N/2 on every cycle it accepts.
"""

from __future__ import annotations

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    linear_crossing,
    standard_event_closed_forms,
    standard_sum_closed_form,
)
from test_golden import run

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

THETAS = st.floats(-10.0, 10.0)
ETAS = st.floats(0.0, 1.0)
TESTS = st.sampled_from(["pentagon", "triangle"])
BOUNDS = {"pentagon": {"noncontextual": 2.0, "quantum": math.sqrt(5)},
          "triangle": {"noncontextual": 1.0}}


@SETTINGS
@given(TESTS, THETAS, ETAS)
def test_analyze_matches_the_closed_forms(test, theta, eta):
    code, out = run(["analyze", "--test", test, f"--theta={theta!r}", "--eta", repr(eta)])
    report = json.loads(out)
    assert code == 0
    assert report["sum"] == pytest.approx(standard_sum_closed_form(test, theta, eta), abs=1e-12)
    expected = standard_event_closed_forms(test, theta, eta)
    assert [e["probability"] for e in report["events"]] == pytest.approx(expected, abs=1e-12)


@SETTINGS
@given(TESTS, THETAS, st.integers(2, 60))
def test_sweep_crossings_match_the_linear_closed_form(test, theta, steps):
    code, out = run(["sweep", "--test", test, f"--theta={theta!r}", "--steps", str(steps)])
    report = json.loads(out)
    assert code == 0 and report["bounds"] == pytest.approx(BOUNDS[test], abs=1e-15)
    s0, s1 = (standard_sum_closed_form(test, theta, eta) for eta in (0.0, 1.0))
    for name, bound in BOUNDS[test].items():
        if s1 != s0:
            # at an end of [0, 1] rounding alone decides whether the series meets the bound
            edge = (bound - s0) / (s1 - s0)
            assume(min(abs(edge), abs(edge - 1)) > 1e-9)
        expected = linear_crossing(s0, s1, bound)
        got = report["crossings"][name]
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got == pytest.approx(expected, abs=1e-9)


@pytest.fixture(scope="module")
def tmp_table(tmp_path_factory):
    return tmp_path_factory.mktemp("closed-forms") / "table.txt"


@SETTINGS
@given(THETAS, ETAS, st.sampled_from(["json", "csv"]))
def test_verify_passes_every_simulated_table(tmp_table, theta, eta, fmt):
    code, table = run(["simulate", f"--theta={theta!r}", "--eta", repr(eta), "--format", fmt])
    assert code == 0
    tmp_table.write_bytes(table)
    code, out = run(["verify", "--input", str(tmp_table)])
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("n", range(3, 25))
def test_bounds_of_every_accepted_cycle(n):
    code, out = run(["bounds", "--graph", f"cycle:{n}"])
    report = json.loads(out)
    assert code == 0
    assert report["alpha"] == n // 2
    assert report["fractional_max"] == n / 2
