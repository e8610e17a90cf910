"""Tests of the benchmark itself: oracles, failure counting, tracing, contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import make_inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

workloads.require_program()

import bosonctx  # noqa: E402
from bosonctx import contextuality  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def cli():
    workload = workloads.CliCalls(SEED)
    yield workload
    workload.cleanup()


def run_once(workload, run_op, spec):
    """timed_loop over a one-op round."""
    one = type("One", (), {"round": [spec], "check": workload.check})
    return run.timed_loop(one, run_op, 0.0, 0)


# -- oracles ----------------------------------------------------------------


def test_closed_form_table_is_normalized_and_sums_match():
    for theta, eta in [(math.pi / 4, 1.0), (0.3, 0.0), (1.1, 0.37)]:
        table = oracle.closed_form_table(theta, eta)
        for dist in table.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)
        for test, events in [("pentagon", oracle.PENTAGON_REQUIREMENTS),
                             ("triangle", oracle.TRIANGLE_REQUIREMENTS)]:
            total = sum(oracle.event_probability(table, r) for r in events)
            assert total == pytest.approx(oracle.inequality_sum(test, theta, eta), abs=1e-15)
    assert oracle.inequality_sum("pentagon", math.pi / 4, 1.0) == pytest.approx(2.5)
    assert oracle.inequality_sum("triangle", math.pi / 4, 1.0) == pytest.approx(1.5)


@pytest.mark.parametrize("n, edges, alpha, packing", [
    (5, {(i, (i + 1) % 5) for i in range(5)}, 2, 2.5),
    (3, {(0, 1), (1, 2), (0, 2)}, 1, 1.5),
    (4, {(0, 1), (1, 2), (2, 3), (3, 0)}, 2, 2.0),
    (6, {(0, 1)}, 5, 5.0),
    (4, set(), 4, 4.0),
])
def test_graph_oracles_on_known_graphs(n, edges, alpha, packing):
    assert oracle.independence_number(n, edges) == alpha
    assert oracle.fractional_packing_max(n, edges) == packing


def test_event_graphs_are_the_pentagon_and_the_triangle():
    pentagon = oracle.exclusivity_edges(list(oracle.PENTAGON_REQUIREMENTS))
    assert len(pentagon) == 5 and oracle.independence_number(5, pentagon) == 2
    assert len(oracle.all_event_requirements()) == 18
    assert len({oracle.event_label(r) for r in oracle.all_event_requirements()}) == 18


def test_crossing_is_none_outside_the_unit_interval():
    assert oracle.crossing(1.0, 3.0, 2.0) == 0.5
    assert oracle.crossing(2.5, 3.0, 2.0) is None
    assert oracle.crossing(0.5, 1.0, 2.0) is None


def test_permanent_oracle():
    assert oracle.permanent([[1, 2], [3, 4]]) == 10
    assert oracle.scattering_amplitude([[0.6, 0.8j], [0.8j, 0.6]], (1, 1), (2, 0)) == \
        pytest.approx(2 * 0.6 * 0.8j / math.sqrt(2))


def test_stored_inputs_match_their_generator():
    for name, make in make_inputs.STORED.items():
        assert (workloads.INPUTS / name).read_text() == make()


# -- every op is checked; a wrong value fails the op -------------------------


def test_cli_round_in_process_only_fails_the_known_op(cli):
    result = run.timed_loop(cli, cli.run_inprocess, 0.0, 0)
    assert result["attempted"] == len(cli.round)
    assert result["wrong"] == 0, result["problems"]
    failing = [" ".join(s.argv) for s in cli.round if s.argv[-1] == "cycle:13"]
    assert result["failed"] <= len(failing)


def test_wrong_cli_output_counts_as_failed(cli):
    spec = cli.round[0]

    def corrupted(s):
        result = cli.run_inprocess(s)
        payload = json.loads(result.stdout)
        payload["records"][0]["probability"] += 1e-6
        result.stdout = json.dumps(payload)
        return result

    result = run_once(cli, corrupted, spec)
    assert (result["failed"], result["wrong"]) == (1, 1)


def test_verify_that_passes_the_perturbed_table_counts_as_failed(cli):
    spec = next(s for s in cli.round if s.want_exit == 1)

    def lenient(s):
        result = cli.run_inprocess(s)
        payload = json.loads(result.stdout)
        payload["passed"] = True
        return workloads.CliResult(0, json.dumps(payload), "")

    assert run_once(cli, lenient, spec)["wrong"] == 1
    good = cli.run_inprocess(spec)
    assert cli.check(spec, good) is None
    failures = [f["name"] for c in json.loads(good.stdout)["checks"] for f in c["failures"]]
    assert failures and all(workloads.PERTURBED_CONTEXT in name for name in failures)


def test_wrong_sweep_counts_as_failed():
    workload = workloads.EtaSweep(SEED)
    spec = workload.round[1]

    def corrupted(s):
        results = workload.run(s)
        bad = dataclasses.replace(results[0], sums=results[0].sums[:-1] + (0.0,))
        return [bad, results[1]]

    assert run_once(workload, workload.run, spec)["failed"] == 0
    assert (run_once(workload, corrupted, spec)["wrong"]) == 1


def test_wrong_crossing_counts_as_failed():
    workload = workloads.EtaSweep(SEED)
    spec = next(s for s in workload.round
                if workload.run(s)[0].crossings["noncontextual"] is not None)

    def corrupted(s):
        results = workload.run(s)
        crossings = dict(results[0].crossings, noncontextual=None)
        return [dataclasses.replace(results[0], crossings=crossings), results[1]]

    assert run_once(workload, corrupted, spec)["wrong"] == 1


def test_wrong_graph_bounds_count_as_failed():
    workload = workloads.GraphBounds(SEED)
    for spec in workload.round[:2]:
        alpha, packing = workload.run(spec)
        assert workload.check(spec, (alpha, packing)) is None
        assert workload.check(spec, (alpha + 1, packing)) is not None
        assert workload.check(spec, (alpha, packing - 0.5)) is not None


def test_wrong_amplitude_phase_counts_as_failed():
    workload = workloads.BosonScattering(SEED)
    spec = next(s for s in workload.round
                if abs(oracle.scattering_amplitude(s.unitary, s.occupations, s.samples[0])) > 1e-6)

    def corrupted(s):
        state = workload.run(s)
        target = bosonctx.make_fock(s.samples[0])
        terms = {k: (1j * a if k == target else a) for k, a in state.terms.items()}
        return bosonctx.PureState(terms, state.modes)

    assert run_once(workload, workload.run, spec)["failed"] == 0
    assert run_once(workload, corrupted, spec)["wrong"] == 1


def test_crash_counts_as_failed_but_not_wrong():
    workload = workloads.GraphBounds(SEED)

    def crash(spec):
        raise ValueError("boom")

    result = run_once(workload, crash, workload.round[0])
    assert (result["failed"], result["wrong"]) == (1, 0)


# -- tracing ------------------------------------------------------------------


def test_wrappers_leave_cli_output_byte_identical(cli):
    def replay():
        out = []
        for spec in cli.round:
            try:
                r = cli.run_inprocess(spec)
                out.append((r.exit, r.stdout, r.file_text))
            except ValueError as exc:
                out.append(("raised", str(exc)))
        return out

    plain = replay()
    tracer = Tracer(len(cli.round))
    tracer.install()
    try:
        traced = replay()
    finally:
        tracer.uninstall()
    tracer.finish_op()
    assert traced == plain
    assert tracer.calls["cli.main"] == len(cli.round)
    assert replay() == plain


def test_wrappers_leave_library_results_identical_and_uninstall_restores():
    originals = {name: getattr(contextuality, name) for name in ("full_table", "sweep_eta")}
    sweep = workloads.EtaSweep(SEED)
    graphs = workloads.GraphBounds(SEED)
    scatter = workloads.BosonScattering(SEED)
    cases = [(w, w.round[1]) for w in (sweep, graphs, scatter)]

    def outputs():
        results = []
        for w, spec in cases:
            r = w.run(spec)
            results.append(r.terms if w is scatter else r)
        return results

    plain = outputs()
    tracer = Tracer(1)
    tracer.install()
    try:
        assert contextuality.full_table is not originals["full_table"]
        assert bosonctx.sweep_eta is not originals["sweep_eta"]
        traced = outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(getattr(contextuality, k) is v for k, v in originals.items())
    assert bosonctx.sweep_eta is originals["sweep_eta"]


def test_full_table_calls_per_eta_sweep_op_equal_the_grid_points():
    workload = workloads.EtaSweep(SEED)
    tracer = Tracer(1)
    tracer.install()
    try:
        for spec in workload.round[:2]:
            workload.run(spec)
            tracer.finish_op()
    finally:
        tracer.uninstall()
    # one table per grid point, for each of the two inequalities an op sweeps
    assert tracer.calls["experiment.full_table"] == 2 * 2 * workloads.SWEEP_POINTS
    assert tracer.calls["contextuality.sweep_eta"] == 2 * 2
    assert tracer.calls["experiment.run_context"] == 6 * 2 * 2 * workloads.SWEEP_POINTS
    assert all(tracer.self_s[k] >= 0.0 for k in LAYERS)
    assert {s["op"] for s in tracer.kept} == {0}


def test_self_time_excludes_children():
    workload = workloads.BosonScattering(SEED)
    tracer = Tracer(1)
    tracer.install()
    try:
        workload.run(workload.round[0])
        tracer.finish_op()
    finally:
        tracer.uninstall()
    spans = tracer.kept
    total = {s["name"]: 0.0 for s in spans}
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
    assert tracer.calls["optics.permanent"] == 210
    assert tracer.gray_steps == 210 * (2 ** 6 - 1)
    outer = tracer.self_s["optics.apply_interferometer"]
    assert outer < total["optics.apply_interferometer"] - total["optics.permanent"] + 1e-9


# -- the benchmark's contract ---------------------------------------------------


def _contract():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    monkeypatch.setattr(run, "IMPORT_STARTS", 1)
    assert run.main(["--workload", "boson_scattering", "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = _contract()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_contract_lists_the_four_workloads():
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert contract["command"] == ["python3", "bench/run.py"]
    assert {m["name"] for m in contract["end_to_end"]} >= {"setup_s", "ops_per_s"}


def test_refuses_to_run_without_the_program():
    bare = workloads.RUN_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "eta_sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
