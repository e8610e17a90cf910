"""The sweep's crossings at the balanced splitter lie within a few ulps of the
paper's exact values: 1/2 for the pentagon against its noncontextual bound 2,
1/3 for the triangle against 1, and sqrt(5) - 3/2 for the pentagon against
the quantum bound sqrt(5).  Distances are taken in exact ``Fraction``
arithmetic; the sqrt(5) case squares both ends of the interval, so no
rounded square root decides it.  Stdlib only.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from bosonctx.contextuality import sweep_eta
from bosonctx.optics import BALANCED

ULPS = 4
GRIDS = [2, 3, 37, 101, 1000, 1001]


def _crossings(steps: int) -> tuple[float, float, float]:
    pentagon = sweep_eta("pentagon", BALANCED, steps=steps).crossings
    triangle = sweep_eta("triangle", BALANCED, steps=steps).crossings
    return pentagon["noncontextual"], triangle["noncontextual"], pentagon["quantum"]


def _within_ulps(x: float, exact: Fraction) -> bool:
    return abs(Fraction(x) - exact) <= ULPS * Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("steps", GRIDS)
def test_noncontextual_crossings_are_one_half_and_one_third(steps):
    pentagon, triangle, _ = _crossings(steps)
    assert _within_ulps(pentagon, Fraction(1, 2)), pentagon.hex()
    assert _within_ulps(triangle, Fraction(1, 3)), triangle.hex()


@pytest.mark.parametrize("steps", GRIDS)
def test_quantum_crossing_is_root_five_less_three_halves(steps):
    _, _, x = _crossings(steps)
    # x is within ULPS ulps of sqrt(5) - 3/2 if and only if sqrt(5) lies in
    # [x + 3/2 - d, x + 3/2 + d], both ends positive: compare their squares with 5
    d = ULPS * Fraction(math.ulp(x))
    low, high = Fraction(x) + Fraction(3, 2) - d, Fraction(x) + Fraction(3, 2) + d
    assert 0 < low and low * low <= 5 <= high * high, x.hex()


def test_the_checks_refuse_points_just_outside():
    """Neither check is vacuous: 1/2 + 5 ulps fails where 1/2 + 3 ulps passes,
    and a float ULPS + 3 ulps above sqrt(5) - 3/2 as ``math.sqrt`` rounds it
    (at most 2 ulps off, half an ulp of sqrt(5)) fails the squared check."""
    assert _within_ulps(0.5 + 3 * math.ulp(0.5), Fraction(1, 2))
    assert not _within_ulps(0.5 + 5 * math.ulp(0.5), Fraction(1, 2))
    x = math.sqrt(5) - 1.5
    for _ in range(ULPS + 3):
        x = math.nextafter(x, 1.0)
    low = Fraction(x) + Fraction(3, 2) - ULPS * Fraction(math.ulp(x))
    assert low * low > 5
