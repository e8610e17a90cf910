"""The benchmark's four workloads.

Each workload builds one round of op inputs from a seed, runs one op, and
checks the op's output against ``oracle`` (which shares no code with the
program).  Every op in a round does the same amount of work, so medians and
tails come from one mode.  ``check`` returns None for a correct output and a
one-line description of the first disagreement otherwise.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / "_run"
INPUTS = BENCH / "inputs"

# The stored tables (bench/make_inputs.py writes them).  The perturbed copy
# moves PERTURBATION of probability from "ar,ct" to "at,cr" in context AC.
STORED_THETA = 0.6
STORED_ETA = 0.8
PERTURBED_CONTEXT = "AC"
PERTURBATION = 1e-3

TOL = 1e-12
EDGE_TOL = 1e-9
TRACEBACK = "Traceback (most recent call last)"


class OpError(Exception):
    """The program crashed on an op (an uncaught exception)."""


def require_program() -> None:
    """Put the checkout's src/ first on sys.path, or exit if there is none."""
    if not (SRC / "bosonctx" / "__init__.py").is_file():
        sys.exit(f"error: no bosonctx sources at {SRC}; run from a bosonctx checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + old if old else "")}


def reap(proc: subprocess.Popen, timeout: float = 120.0) -> tuple[int, float]:
    """Wait for a child; return its exit code and peak RSS in MB."""
    def expired(signum, frame):
        raise TimeoutError(f"child {proc.args!r} ran over {timeout} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# -- checks shared by the CLI and the library workloads ----------------------


def _near(got, want, tol: float = TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _crossing_problem(name: str, got, s0: float, s1: float, bound: float) -> str | None:
    want = oracle.crossing(s0, s1, bound)
    # Within rounding of either end of [0, 1], finding the crossing or not
    # are both right.
    exact = None if s1 == s0 else (bound - s0) / (s1 - s0)
    at_edge = exact is not None and min(abs(exact), abs(exact - 1.0)) <= EDGE_TOL
    if got is None:
        return None if want is None or at_edge else f"crossing {name}: none, want {want!r}"
    if exact is not None and abs(got - exact) <= EDGE_TOL and (want is not None or at_edge):
        return None
    return f"crossing {name}: {got!r}, want {want!r}"


def sweep_problem(test: str, theta: float, grid: list[float], got_theta, got_etas,
                  got_sums, got_bounds: dict, got_crossings: dict) -> str | None:
    if got_theta != theta:
        return f"{test} sweep theta {got_theta!r} != {theta!r}"
    if len(got_etas) != len(grid) or any(abs(a - b) > 1e-15 for a, b in zip(got_etas, grid)):
        return f"{test} sweep grid differs from the requested one"
    if len(got_sums) != len(grid):
        return f"{test} sweep has {len(got_sums)} sums for {len(grid)} points"
    for eta, s in zip(got_etas, got_sums):
        want = oracle.inequality_sum(test, theta, eta)
        if not _near(s, want):
            return f"{test} sum at eta={eta!r}: {s!r}, want {want!r}"
    s0 = oracle.inequality_sum(test, theta, 0.0)
    s1 = oracle.inequality_sum(test, theta, 1.0)
    want_bounds = {"noncontextual": oracle.NC_BOUNDS[test]}
    if test == "pentagon":
        want_bounds["quantum"] = math.sqrt(5.0)
    if set(got_bounds) != set(want_bounds) or set(got_crossings) != set(want_bounds):
        return f"{test} sweep bounds {sorted(got_bounds)}, want {sorted(want_bounds)}"
    for name, bound in want_bounds.items():
        if not _near(got_bounds[name], bound):
            return f"{test} bound {name}: {got_bounds[name]!r}, want {bound!r}"
        problem = _crossing_problem(name, got_crossings[name], s0, s1, bound)
        if problem:
            return f"{test} {problem}"
    return None


# -- cli_calls ---------------------------------------------------------------


@dataclass(frozen=True)
class CliSpec:
    kind: str
    argv: tuple[str, ...]
    params: tuple = ()
    output: str | None = None
    want_exit: int = 0


@dataclass
class CliResult:
    exit: int
    stdout: str
    stderr: str
    file_text: str | None = None


class CliCalls:
    """Fresh ``python -m bosonctx`` processes over a fixed argv matrix."""

    name = "cli_calls"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        eta = rng.uniform(0.05, 0.95)
        t, e = repr(theta), repr(eta)
        RUN_DIR.mkdir(exist_ok=True)
        out = str(RUN_DIR / f"simulate-{os.getpid()}.json")
        valid = str(INPUTS / "table_valid.json")
        perturbed = str(INPUTS / "table_perturbed.csv")
        stored = (STORED_THETA, STORED_ETA)
        self.out_path = out
        self.round = [
            CliSpec("simulate_json", ("simulate", "--theta", t, "--eta", e), (theta, eta)),
            CliSpec("simulate_csv", ("simulate", "--theta", t, "--eta", e, "--format", "csv"),
                    (theta, eta)),
            CliSpec("simulate_json", ("simulate", "--theta", t, "--eta", e, "-o", out),
                    (theta, eta), output=out),
            CliSpec("analyze", ("analyze", "--test", "pentagon", "--theta", t, "--eta", e),
                    ("pentagon", theta, eta)),
            CliSpec("analyze", ("analyze", "--test", "triangle", "--theta", t, "--eta", e),
                    ("triangle", theta, eta)),
            CliSpec("analyze", ("analyze", "--test", "pentagon", "--input", valid),
                    ("pentagon",) + stored),
            CliSpec("bounds", ("bounds", "--graph", "pentagon"), ("pentagon",)),
            CliSpec("bounds", ("bounds", "--graph", "triangle"), ("triangle",)),
            CliSpec("bounds", ("bounds", "--graph", "cycle:7"), ("cycle:7",)),
            CliSpec("bounds", ("bounds", "--graph", "cycle:9"), ("cycle:9",)),
            CliSpec("sweep", ("sweep", "--test", "pentagon", "--theta", t, "--steps", "150"),
                    ("pentagon", theta, 150)),
            CliSpec("verify", ("verify", "--input", valid), (None,)),
            CliSpec("verify", ("verify", "--input", perturbed), (PERTURBED_CONTEXT,),
                    want_exit=1),
            # Fails in bosonctx 0.1.0: the exact packing enumeration stops at
            # 12 vertices and the ValueError escapes as a traceback.
            CliSpec("bounds", ("bounds", "--graph", "cycle:13"), ("cycle:13",)),
        ]
        self.peak_rss_mb = 0.0

    def run(self, spec: CliSpec) -> CliResult:
        """One fresh interpreter running the CLI; raises OpError on a traceback."""
        out_file = RUN_DIR / f"stdout-{os.getpid()}"
        err_file = RUN_DIR / f"stderr-{os.getpid()}"
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "bosonctx", *spec.argv],
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=ROOT, env=child_env())
            code, rss = reap(proc)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        result = CliResult(code, out_file.read_text(), err_file.read_text())
        if TRACEBACK in result.stderr:
            raise OpError(result.stderr.strip().splitlines()[-1])
        return self._with_file(spec, result)

    def run_inprocess(self, spec: CliSpec) -> CliResult:
        """The same call replayed through ``bosonctx.cli.main`` in this process."""
        from bosonctx import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(spec.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return self._with_file(spec, CliResult(code, out.getvalue(), err.getvalue()))

    @staticmethod
    def _with_file(spec: CliSpec, result: CliResult) -> CliResult:
        if spec.output is not None:
            path = Path(spec.output)
            result.file_text = path.read_text()
            path.unlink()
        return result

    def cleanup(self) -> None:
        for stem in ("stdout", "stderr"):
            (RUN_DIR / f"{stem}-{os.getpid()}").unlink(missing_ok=True)
        Path(self.out_path).unlink(missing_ok=True)

    def check(self, spec: CliSpec, result: CliResult) -> str | None:
        if result.exit != spec.want_exit:
            return f"{' '.join(spec.argv)}: exit {result.exit}, want {spec.want_exit}"
        text = result.stdout
        if spec.output is not None:
            if text:
                return "simulate -o wrote to stdout"
            text = result.file_text
        try:
            return getattr(self, "_check_" + spec.kind)(spec.params, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{' '.join(spec.argv)}: unreadable output ({exc!r})"

    @staticmethod
    def _check_simulate_json(params, text: str) -> str | None:
        theta, eta = params
        payload = json.loads(text)
        if (payload["schema"], payload["theta"], payload["eta"]) != (1, theta, eta):
            return "simulate json header differs"
        return oracle.table_mismatch(oracle.json_table(payload),
                                     oracle.closed_form_table(theta, eta))

    @staticmethod
    def _check_simulate_csv(params, text: str) -> str | None:
        theta, eta = params
        meta, table = oracle.parse_csv_table(text)
        if meta != {"schema": "1", "theta": repr(theta), "eta": repr(eta)}:
            return f"simulate csv header {meta}"
        return oracle.table_mismatch(table, oracle.closed_form_table(theta, eta))

    @staticmethod
    def _check_analyze(params, text: str) -> str | None:
        test, theta, eta = params
        payload = json.loads(text)
        table = oracle.closed_form_table(theta, eta)
        events = (oracle.PENTAGON_REQUIREMENTS if test == "pentagon"
                  else oracle.TRIANGLE_REQUIREMENTS)
        want_events = [(oracle.event_label(r), oracle.event_probability(table, r))
                       for r in events]
        got_events = [(e["label"], e["probability"]) for e in payload["events"]]
        if [g[0] for g in got_events] != [w[0] for w in want_events]:
            return f"analyze {test} event labels {[g[0] for g in got_events]}"
        for (label, got), (_, want) in zip(got_events, want_events):
            if not _near(got, want):
                return f"analyze {test} P({label}) = {got!r}, want {want!r}"
        total = oracle.inequality_sum(test, theta, eta)
        if payload["test"] != test or (payload["theta"], payload["eta"]) != (theta, eta):
            return f"analyze {test} header differs"
        if not _near(payload["sum"], total):
            return f"analyze {test} sum {payload['sum']!r}, want {total!r}"
        nc = float(oracle.independence_number(len(events), oracle.exclusivity_edges(list(events))))
        bounds = {"nc": nc}
        if test == "pentagon":
            bounds["q"] = math.sqrt(5.0)
        elif "q_bound" in payload or "violates_q" in payload:
            return "analyze triangle reports a quantum bound"
        for key, bound in bounds.items():
            if not _near(payload[f"{key}_bound"], bound):
                return f"analyze {test} {key}_bound {payload[f'{key}_bound']!r}, want {bound!r}"
            if abs(total - bound) > EDGE_TOL and payload[f"violates_{key}"] != (total > bound):
                return f"analyze {test} violates_{key} is {payload[f'violates_{key}']!r}"
        return None

    @staticmethod
    def _check_bounds(params, text: str) -> str | None:
        (graph,) = params
        payload = json.loads(text)
        if graph in ("pentagon", "triangle"):
            events = list(oracle.PENTAGON_REQUIREMENTS if graph == "pentagon"
                          else oracle.TRIANGLE_REQUIREMENTS)
            n, edges = len(events), oracle.exclusivity_edges(events)
            odd_cycle = 5 if graph == "pentagon" else None
        else:
            n = int(graph.split(":")[1])
            edges = {(i, (i + 1) % n) for i in range(n)}
            odd_cycle = n if n % 2 else None
        want = {"graph": graph, "alpha": oracle.independence_number(n, edges),
                "fractional_max": oracle.fractional_packing_max(n, edges)}
        for key, value in want.items():
            if payload[key] != value:
                return f"bounds {graph} {key} = {payload[key]!r}, want {value!r}"
        if odd_cycle is None:
            return None if "theta_lovasz" not in payload else f"bounds {graph} has a theta"
        theta = oracle.lovasz_theta_odd_cycle(odd_cycle)
        if odd_cycle == 5 and not _near(theta, math.sqrt(5.0)):
            return "oracle: theta(C5) != sqrt(5)"
        if not _near(payload["theta_lovasz"], theta):
            return f"bounds {graph} theta {payload['theta_lovasz']!r}, want {theta!r}"
        return None

    @staticmethod
    def _check_sweep(params, text: str) -> str | None:
        test, theta, steps = params
        payload = json.loads(text)
        series = payload["series"]
        return sweep_problem(test, theta, [i / (steps - 1) for i in range(steps)],
                             payload["theta"], [p["eta"] for p in series],
                             [p["sum"] for p in series], payload["bounds"],
                             payload["crossings"])

    @staticmethod
    def _check_verify(params, text: str) -> str | None:
        (perturbed,) = params
        payload = json.loads(text)
        failures = [f["name"] for check in payload["checks"] for f in check["failures"]]
        if perturbed is None:
            ok = payload["passed"] and payload["normalization"]["passed"] and not failures
            return None if ok else f"verify rejected a valid table: {failures}"
        if payload["passed"] or not failures:
            return "verify passed a perturbed table"
        if not payload["normalization"]["passed"]:
            return "verify blamed normalization for a mass-preserving perturbation"
        stray = [name for name in failures if perturbed not in name]
        return f"verify failures that do not name {perturbed}: {stray}" if stray else None


# -- eta_sweep ---------------------------------------------------------------

SWEEP_POINTS = 1000
TESTS = ("pentagon", "triangle")


@dataclass(frozen=True)
class SweepSpec:
    theta: float
    grid: tuple[float, ...]
    explicit: bool
    bs: object


class EtaSweep:
    """sweep_eta of the pentagon and the triangle over 1000 points at one theta.

    An op sweeps both inequalities: a pentagon sweep costs about 1.3 times a
    triangle sweep, so one inequality per op would split the op times into
    two modes with the median between them.  Every other op passes a seeded,
    strictly increasing non-uniform grid instead of ``steps``.
    """

    name = "eta_sweep"

    def __init__(self, seed: int) -> None:
        from bosonctx import BeamsplitterSpec, contextuality

        self._lib = contextuality
        rng = random.Random(seed)
        uniform = tuple(i / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS))
        self.round = []
        for k in range(8):
            theta = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            grid = uniform
            if k % 2:
                inner = set()
                while len(inner) < SWEEP_POINTS - 2:
                    inner.add(rng.random())
                inner.discard(0.0)
                grid = (0.0, *sorted(inner), 1.0)
            self.round.append(SweepSpec(theta, grid, bool(k % 2), BeamsplitterSpec(theta)))

    def run(self, spec: SweepSpec):
        if spec.explicit:
            return [self._lib.sweep_eta(test, spec.bs, spec.grid) for test in TESTS]
        return [self._lib.sweep_eta(test, spec.bs, steps=SWEEP_POINTS) for test in TESTS]

    def check(self, spec: SweepSpec, results) -> str | None:
        for test, r in zip(TESTS, results):
            if r.test != test:
                return f"sweep of {test} reports test {r.test!r}"
            problem = sweep_problem(test, spec.theta, spec.grid, r.theta, r.etas, r.sums,
                                    r.bounds, r.crossings)
            if problem:
                return problem
        return None if len(results) == 2 else "sweep op returned the wrong number of sweeps"


# -- graph_bounds --------------------------------------------------------------

GRAPH_VERTICES = 12
# Edge probability of the random half: 12 of the 18 grammar events have 29.5
# exclusivity edges on average, about 0.45 of the 66 vertex pairs, so both
# halves give ops of the same size.
EDGE_PROBABILITY = 0.45


@dataclass(frozen=True)
class GraphSpec:
    graph: object
    n: int
    edges: frozenset
    events: tuple = ()


class GraphBounds:
    """independence_number and fractional_packing_max of one 12-vertex graph."""

    name = "graph_bounds"

    def __init__(self, seed: int) -> None:
        from bosonctx import EventSpec, ExclusivityGraph, contextuality, derive_exclusivity

        self._lib = contextuality
        rng = random.Random(seed)
        names = tuple(f"v{i}" for i in range(GRAPH_VERTICES))
        grammar = oracle.all_event_requirements()
        self.round = []
        for k in range(16):
            if k % 2 == 0:
                edges = frozenset()
                while not edges:
                    edges = frozenset((i, j) for i in range(GRAPH_VERTICES)
                                      for j in range(i + 1, GRAPH_VERTICES)
                                      if rng.random() < EDGE_PROBABILITY)
                graph = ExclusivityGraph(names, frozenset(
                    tuple(sorted((names[i], names[j]))) for i, j in edges))
                self.round.append(GraphSpec(graph, GRAPH_VERTICES, edges))
            else:
                events = rng.sample(grammar, GRAPH_VERTICES)
                graph = derive_exclusivity([
                    EventSpec(oracle.event_label(r), oracle.event_context(r), r)
                    for r in events])
                self.round.append(GraphSpec(graph, GRAPH_VERTICES,
                                            frozenset(oracle.exclusivity_edges(events)),
                                            tuple(events)))
        self._want: dict[int, tuple[int, float]] = {}

    def run(self, spec: GraphSpec):
        return (self._lib.independence_number(spec.graph),
                self._lib.fractional_packing_max(spec.graph))

    def check(self, spec: GraphSpec, result) -> str | None:
        if spec.events:
            labels = [oracle.event_label(r) for r in spec.events]
            want_edges = {tuple(sorted((labels[i], labels[j]))) for i, j in spec.edges}
            if tuple(spec.graph.vertices) != tuple(labels) or set(spec.graph.edges) != want_edges:
                return "derive_exclusivity disagrees with the exclusivity rule"
        key = id(spec)
        if key not in self._want:
            self._want[key] = (oracle.independence_number(spec.n, spec.edges),
                               oracle.fractional_packing_max(spec.n, spec.edges))
        alpha, packing = self._want[key]
        if result[0] != alpha:
            return f"independence_number {result[0]!r}, want {alpha}"
        if result[1] != packing:
            return f"fractional_packing_max {result[1]!r}, want {packing}"
        return None


# -- boson_scattering ----------------------------------------------------------

PHOTONS = 6
MODES = 5
SAMPLED_AMPLITUDES = 3


def mesh_unitary(rng: random.Random, modes: int) -> list[list[complex]]:
    """A rectangular mesh of phase-shifted beamsplitters on adjacent modes."""
    u = [[complex(i == j) for j in range(modes)] for i in range(modes)]
    for layer in range(modes):
        for top in range(layer % 2, modes - 1, 2):
            t = rng.uniform(0.0, math.pi / 2)
            phase = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            a = [phase * x for x in u[top]]
            b = u[top + 1]
            u[top] = [math.cos(t) * x + 1j * math.sin(t) * y for x, y in zip(a, b)]
            u[top + 1] = [1j * math.sin(t) * x + math.cos(t) * y for x, y in zip(a, b)]
    return u


def random_occupation(rng: random.Random, photons: int, modes: int) -> tuple[int, ...]:
    occ = [0] * modes
    for _ in range(photons):
        occ[rng.randrange(modes)] += 1
    return tuple(occ)


@dataclass(frozen=True)
class ScatterSpec:
    occupations: tuple[int, ...]
    unitary: tuple
    state: object
    samples: tuple


class BosonScattering:
    """apply_interferometer of a 6-photon Fock state over 5 modes: 210 permanents."""

    name = "boson_scattering"

    def __init__(self, seed: int) -> None:
        from bosonctx import basis_state, optics

        self._lib = optics
        rng = random.Random(seed)
        self.round = []
        for _ in range(8):
            occ = random_occupation(rng, PHOTONS, MODES)
            unitary = mesh_unitary(rng, MODES)
            samples = tuple(random_occupation(rng, PHOTONS, MODES)
                            for _ in range(SAMPLED_AMPLITUDES))
            self.round.append(ScatterSpec(occ, tuple(map(tuple, unitary)),
                                          basis_state(occ), samples))
        self._want: dict[int, tuple] = {}

    def run(self, spec: ScatterSpec):
        return self._lib.apply_interferometer(spec.state, spec.unitary)

    def check(self, spec: ScatterSpec, state) -> str | None:
        key = id(spec)
        if key not in self._want:
            self._want[key] = (
                oracle.mean_photon_numbers(spec.unitary, spec.occupations),
                [oracle.scattering_amplitude(spec.unitary, spec.occupations, out)
                 for out in spec.samples])
        means, amplitudes = self._want[key]
        terms = {tuple(fock.occupations): amp for fock, amp in state.terms.items()}
        if any(len(occ) != MODES or sum(occ) != PHOTONS for occ in terms):
            return "output holds a term outside the 6-photon, 5-mode space"
        norm = sum(abs(a) ** 2 for a in terms.values())
        if abs(norm - 1.0) > 1e-10:
            return f"output norm^2 {norm!r}, want 1"
        for i, want in enumerate(means):
            got = sum(abs(a) ** 2 * occ[i] for occ, a in terms.items())
            if abs(got - want) > 1e-10:
                return f"<n_{i}> = {got!r}, want {want!r}"
        for out, want in zip(spec.samples, amplitudes):
            got = terms.get(out, 0j)
            if abs(got - want) > 1e-10:
                return f"amplitude {out}: {got!r}, want {want!r}"
        return None


WORKLOADS = {w.name: w for w in (CliCalls, EtaSweep, GraphBounds, BosonScattering)}
