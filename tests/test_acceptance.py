"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Tolerances are fixed here and are not meant to be tuned.
"""

import math
from itertools import combinations

import numpy as np

from bosonctx.contextuality import (
    PENTAGON,
    TRIANGLE,
    cycle_graph,
    derive_exclusivity,
    event_probability,
    fractional_packing_max,
    independence_number,
    inequality_sum,
    lovasz_theta_odd_cycle,
    noncontextual_max,
    standard_events,
    sweep_eta,
)
from bosonctx.experiment import (
    PAIR_CONTEXTS,
    COINCIDENCE,
    OutcomeTable,
    check_indistinguishability,
    check_no_disturbance,
    full_table,
)
from bosonctx.fock import fock_basis, make_fock
from bosonctx.optics import (
    BALANCED,
    BeamsplitterSpec,
    DistinguishabilityParam,
    beamsplitter_unitary,
    permanent,
    scattering_amplitude,
)

from oracles import grid_packing_max, naive_permanent

SQRT5 = math.sqrt(5)
IDEAL = DistinguishabilityParam(1.0)

THETA_GRID = np.linspace(0.0, math.pi / 2, 20)
ETA_GRID = np.linspace(0.0, 1.0, 20)


def report(number: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {number}: {name}")
    assert not problems, f"criterion {number} ({name}): " + "; ".join(problems)


def test_criterion_01_pentagon_violation():
    problems = []
    table = full_table(BALANCED, IDEAL)
    events = standard_events(PENTAGON)
    total = inequality_sum(table, events)
    if abs(total - 2.5) > 1e-12:
        problems.append(f"pentagon sum {total!r} != 2.5")
    for event in events:
        p = event_probability(table, event)
        if abs(p - 0.5) > 1e-12:
            problems.append(f"p({event.label}) = {p!r} != 0.5")
    report(1, "pentagon sum 5/2 with every event probability 1/2", problems)


def test_criterion_02_triangle_violation():
    problems = []
    total = inequality_sum(full_table(BALANCED, IDEAL), standard_events(TRIANGLE))
    if abs(total - 1.5) > 1e-12:
        problems.append(f"triangle sum {total!r} != 1.5")
    report(2, "triangle sum 3/2", problems)


def test_criterion_03_noncontextual_bounds():
    problems = []
    for test, expected in ((PENTAGON, 2), (TRIANGLE, 1)):
        events = standard_events(test)
        bound = noncontextual_max(events)
        if bound != expected:
            problems.append(f"{test} assignment bound {bound} != {expected}")
        alpha = independence_number(derive_exclusivity(events))
        if alpha != bound:
            problems.append(f"{test} independence number {alpha} != bound {bound}")
    report(3, "noncontextual bounds 2 and 1 equal independence numbers", problems)


def test_criterion_04_quantum_projective_bound():
    problems = []
    theta = lovasz_theta_odd_cycle(5)
    if abs(theta - SQRT5) > 1e-12:
        problems.append(f"theta(C5) = {theta!r} != sqrt(5)")
    if not (2 <= SQRT5 <= 2.5):
        problems.append("sandwich 2 <= sqrt(5) <= 5/2 fails")
    report(4, "pentagon quantum bound sqrt(5) inside the sandwich", problems)


def test_criterion_05_hom_bunching():
    problems = []
    table = full_table(BALANCED, IDEAL)
    for ctx in PAIR_CONTEXTS:
        p = table.contexts[ctx].get(COINCIDENCE, 0.0)
        if abs(p) > 1e-12:
            problems.append(f"p(coincidence|{ctx}) = {p!r} != 0")
    amp = scattering_amplitude(beamsplitter_unitary(BALANCED),
                               make_fock([1, 1]), make_fock([1, 1]))
    if abs(amp) > 1e-14:
        problems.append(f"|1,1> -> |1,1> amplitude {amp!r} != 0")
    report(5, "balanced-splitter coincidences vanish for identical photons", problems)


def test_criterion_06_graph_structure():
    problems = []
    pentagon = standard_events(PENTAGON)
    labels = [e.label for e in pentagon]
    expected_cycle = {tuple(sorted((labels[i], labels[(i + 1) % 5]))) for i in range(5)}
    got = set(derive_exclusivity(pentagon).edges)
    if got != expected_cycle:
        problems.append(f"pentagon edges {sorted(got)} are not the 5-cycle")
    triangle = standard_events(TRIANGLE)
    tri_labels = [e.label for e in triangle]
    expected_complete = {tuple(sorted(p)) for p in combinations(tri_labels, 2)}
    got_tri = set(derive_exclusivity(triangle).edges)
    if got_tri != expected_complete:
        problems.append(f"triangle edges {sorted(got_tri)} are not complete")
    report(6, "derived graphs are exactly C5 and K3", problems)


def test_criterion_07_consistency_checkers():
    problems = []
    for theta in THETA_GRID:
        bs = BeamsplitterSpec(float(theta))
        for eta in ETA_GRID:
            table = full_table(bs, DistinguishabilityParam(float(eta)))
            nd = check_no_disturbance(table, tol=1e-12)
            ind = check_indistinguishability(table, tol=1e-12)
            if not nd.passed:
                problems.append(
                    f"no-disturbance fails at theta={theta}, eta={eta}: {nd.max_deviation}")
            if not ind.passed:
                problems.append(
                    f"indistinguishability fails at theta={theta}, eta={eta}: {ind.max_deviation}")

    injection = 1e-3
    clean = full_table(BALANCED, IDEAL)
    contexts = {c: dict(d) for c, d in clean.contexts.items()}
    contexts["AB"]["ar,bt"] += injection
    dirty = OutcomeTable(clean.theta, clean.eta, contexts)
    for checker, name in ((check_no_disturbance, "no-disturbance"),
                          (check_indistinguishability, "indistinguishability")):
        result = checker(dirty, tol=1e-12)
        if result.passed:
            problems.append(f"{name} misses the injected perturbation")
        elif not (0.9 * injection <= result.max_deviation <= 1.1 * injection):
            problems.append(
                f"{name} reports deviation {result.max_deviation!r}, expected ~{injection}")
    report(7, "checkers pass on the model grid and catch a 1e-3 injection", problems)


def test_criterion_08_permanent_and_unitarity():
    problems = []
    rng = np.random.default_rng(2026)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        expected = naive_permanent(m)
        got = permanent(m)
        if abs(got - expected) > 1e-10 * max(abs(expected), 1e-300):
            problems.append(f"trial {trial}: Ryser {got!r} vs naive {expected!r}")

    inputs = [f for total in (1, 2, 3) for f in fock_basis(total, 2)]
    for theta in rng.uniform(0.0, math.pi, size=50):
        u = beamsplitter_unitary(BeamsplitterSpec(float(theta)))
        for state_in in inputs:
            total = sum(abs(scattering_amplitude(u, state_in, out)) ** 2
                        for out in fock_basis(state_in.total, 2))
            if abs(total - 1.0) > 1e-12:
                problems.append(f"unitarity off at theta={theta}, input={state_in}")
    report(8, "Ryser permanent matches the permutation oracle; scattering is unitary",
           problems)


def test_criterion_09_sweep_crossings():
    problems = []
    pent = sweep_eta(PENTAGON, BALANCED, steps=101)
    tri = sweep_eta(TRIANGLE, BALANCED, steps=101)
    for eta, total in zip(pent.etas, pent.sums):
        if abs(total - (1.5 + eta)) > 1e-12:
            problems.append(f"pentagon sum at eta={eta} deviates from 3/2 + eta")
            break
    for eta, total in zip(tri.etas, tri.sums):
        if abs(total - 0.75 * (1 + eta)) > 1e-12:
            problems.append(f"triangle sum at eta={eta} deviates from 3(1+eta)/4")
            break
    checks = [
        (pent.crossings["noncontextual"], 0.5, "pentagon vs 2"),
        (pent.crossings["quantum"], SQRT5 - 1.5, "pentagon vs sqrt(5)"),
        (tri.crossings["noncontextual"], 1 / 3, "triangle vs 1"),
    ]
    for got, expected, label in checks:
        if got is None or abs(got - expected) > 1e-9:
            problems.append(f"crossing {label}: got {got!r}, expected {expected!r}")
    report(9, "sweep crossings at 1/2, sqrt(5)-3/2 and 1/3", problems)


def test_criterion_10_fractional_packing():
    problems = []
    for graph, expected in ((cycle_graph(5), 2.5), (cycle_graph(3), 1.5)):
        got = fractional_packing_max(graph)
        if got != expected:
            problems.append(f"half-integral optimum {got!r} != {expected!r}")
        oracle = grid_packing_max(graph, 4)
        if got != oracle:
            problems.append(f"quarter-grid oracle {oracle!r} disagrees with {got!r}")
    report(10, "fractional packing optimum 5/2 and 3/2, matching the grid oracle",
           problems)


def _splitter_with_transmittance(t: float) -> BeamsplitterSpec:
    return BeamsplitterSpec(math.acos(math.sqrt(t)))


def test_criterion_11_best_pentagon_splitter():
    # with T = cos^2(theta) the pentagon sum is T + 4(1+eta)T(1-T), which peaks
    # at T = (5+4eta)/(8+8eta) with the value (5+4eta)^2/(16(1+eta))
    problems = []
    pentagon = standard_events(PENTAGON)
    for eta in (0.0, 0.37, 0.6, 1.0):
        t_best = (5 + 4 * eta) / (8 + 8 * eta)
        d = DistinguishabilityParam(eta)
        best = inequality_sum(full_table(_splitter_with_transmittance(t_best), d), pentagon)
        expected = (5 + 4 * eta) ** 2 / (16 * (1 + eta))
        if abs(best - expected) > 1e-12:
            problems.append(f"eta={eta}: sum {best!r} at T={t_best!r} != {expected!r}")
        for t in (t_best - 1e-3, t_best + 1e-3):
            near = inequality_sum(full_table(_splitter_with_transmittance(t), d), pentagon)
            if near >= best:
                problems.append(f"eta={eta}: T={t!r} gives {near!r} >= {best!r}")
    ideal = inequality_sum(full_table(_splitter_with_transmittance(9 / 16), IDEAL), pentagon)
    if abs(ideal - 81 / 32) > 1e-12:
        problems.append(f"pentagon sum at T=9/16, eta=1 is {ideal!r}, not 81/32")
    report(11, "best pentagon splitter T=(5+4eta)/(8+8eta), sum 81/32 at eta=1", problems)


def test_criterion_12_balanced_sums_and_quantum_crossing():
    problems = []
    triangle = standard_events(TRIANGLE)
    for eta in (0.0, 0.37, 0.6, 1.0):
        total = inequality_sum(full_table(BALANCED, DistinguishabilityParam(eta)), triangle)
        if abs(total - 3 * (1 + eta) / 4) > 1e-12:
            problems.append(f"triangle sum {total!r} at eta={eta} != 3(1+eta)/4")
    total = inequality_sum(full_table(BALANCED, IDEAL), triangle)
    if abs(total - 1.5) > 1e-12:
        problems.append(f"triangle sum at eta=1 is {total!r}, not 3/2")
    for steps in (37, 101):
        crossing = sweep_eta(PENTAGON, BALANCED, steps=steps).crossings["quantum"]
        if crossing is None or abs(crossing - (SQRT5 - 1.5)) > 1e-12:
            problems.append(f"{steps}-point sweep crosses sqrt(5) at {crossing!r}, "
                            f"not sqrt(5) - 3/2")
    report(12, "balanced triangle 3(1+eta)/4, pentagon crosses sqrt(5) at sqrt(5)-3/2",
           problems)
