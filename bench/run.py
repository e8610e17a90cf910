"""Benchmark of bosonctx: four workloads, end-to-end or traced.

Run from the root of a bosonctx checkout:

    python3 bench/run.py --workload eta_sweep --seed 1 --seconds 20 --trace 0

One client runs ops in a closed loop, one after another, in whole rounds of
the workload's op list, until ``--seconds`` have passed and at least
MIN_SAMPLES ops have succeeded (so p90 has ten samples above it).  Every op
is checked against ``oracle`` after its timer stops.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human summary goes to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with every public function of the program wrapped in
a span (see ``tracer.py``), and reports the per-layer metrics plus the
tracing overhead.  cli_calls replays its argv matrix in-process when traced.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from tracer import LAYERS, Tracer

MIN_SAMPLES = 100
SETUP_STARTS = 9
IMPORT_STARTS = 5
HARD_LIMIT_S = 120.0

# On a shared host the CPU speed switches between states up to 1.8x apart for
# seconds to minutes, which moves the median of identical ops by up to 50%
# between runs.  So every timed interval is scaled by REFERENCE_S over the
# mean time of a fixed reference mix run just before and just after it:
# times read as at the host speed where the mix takes REFERENCE_S.  The mix
# is the benchmark's own code, so a change to the program moves only the op.
REFERENCE_S = 3.4e-3


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter work: JSON, sorting, regex, complex maths."""
    t0 = perf_counter()
    data = {f"k{i}": [i, i * 0.5, str(i)] for i in range(60)}
    for _ in range(12):
        text = json.dumps(data)
        json.loads(text)
        sorted(data.items(), key=lambda kv: kv[1][1], reverse=True)
        re.findall(r"k(\d+)", text)
        sum(cmath.exp(1j * x / 7) for x in range(100))
        "".join(f"{k}={v[0]:.3f};" for k, v in data.items())
    return perf_counter() - t0


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds * 2.0 * REFERENCE_S / (before + after)


def timed_loop(workload, run_op, seconds: float, min_samples: int, tracer=None) -> dict:
    """Run whole rounds of ops; time each op, then check it outside the timer."""
    times: list[float] = []
    attempted = failed = wrong = 0
    busy = 0.0
    problems: list[str] = []
    start = perf_counter()
    reference = reference_seconds()
    references = [reference]
    while True:
        for spec in workload.round:
            t0 = perf_counter()
            try:
                output = run_op(spec)
                error = None
            except Exception as exc:  # a crash of the program counts as a failed op
                error = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            after = reference_seconds()
            dt = calibrated(dt, reference, after)
            reference = after
            references.append(after)
            if tracer is not None:
                tracer.finish_op()
            attempted += 1
            busy += dt
            problem = error if error is not None else workload.check(spec, output)
            if problem is None:
                times.append(dt)
                continue
            failed += 1
            wrong += error is None
            if len(problems) < 5 and problem not in problems:
                problems.append(problem)
        elapsed = perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(times) >= min_samples):
            break
    return {"times": times, "attempted": attempted, "failed": failed, "wrong": wrong,
            "busy": busy, "problems": problems,
            "reference_ms": statistics.median(references) * 1e3}


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter to the workload's first op being ready.

    One unmeasured start first, so bytecode caches are written before timing.
    """
    cmd = [sys.executable, str(workloads.BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_STARTS + 1):
        before = reference_seconds()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=workloads.ROOT)
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        code, _ = workloads.reap(proc)
        if code != 0 or line.strip() != b"ready":
            sys.exit(f"error: setup probe for {workload} exited {code}")
        if i:
            times.append(calibrated(elapsed, before, reference_seconds()))
    return statistics.median(times)


def child_ms(args: list[str]) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            cwd=workloads.ROOT, env=workloads.child_env())
    out, err = proc.communicate(timeout=60)
    elapsed = (perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        sys.exit(f"error: {args!r} exited {proc.returncode}: {err.decode()[-200:]}")
    return elapsed, out.decode() + err.decode()


def import_metrics() -> dict[str, float]:
    """Interpreter floor, cumulative numpy and bosonctx import times, module count."""
    floor, numpy_us, package_us = [], [], []
    for _ in range(IMPORT_STARTS):
        floor.append(child_ms(["-c", "pass"])[0])
        _, log = child_ms(["-X", "importtime", "-c", "import bosonctx"])
        cumulative = {m.group(2).strip(): int(m.group(1))
                      for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|(.*)", log)}
        numpy_us.append(cumulative["numpy"])
        package_us.append(cumulative["bosonctx"])
    _, count = child_ms(["-c", "import sys; n = len(sys.modules); import bosonctx; "
                               "print(len(sys.modules) - n)"])
    return {"import.interpreter_ms": statistics.median(floor),
            "import.numpy_ms": statistics.median(numpy_us) / 1e3,
            "import.bosonctx_ms": statistics.median(package_us) / 1e3,
            "import.modules": int(count)}


def percentiles_ms(times: list[float]) -> tuple[float, float, int]:
    ms = [t * 1e3 for t in times]
    p90 = statistics.quantiles(ms, n=10)[-1]
    return statistics.median(ms), p90, sum(t > p90 for t in ms)


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s = setup_seconds(name, seed)
    workload = workloads.WORKLOADS[name](seed)
    if name == "cli_calls":
        try:
            run = timed_loop(workload, workload.run, seconds, MIN_SAMPLES)
        finally:
            workload.cleanup()
        rss = workload.peak_rss_mb
    else:
        run = timed_loop(workload, workload.run, seconds, MIN_SAMPLES)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(run["times"]) < 2:
        return run, {}
    p50, p90, above = percentiles_ms(run["times"])
    run["note"] = (f"{len(run['times'])} successful ops, {above} above p90; reference mix "
                   f"median {run['reference_ms']:.3f} ms (nominal {REFERENCE_S * 1e3} ms)")
    return run, {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(run["times"]) / run["busy"], "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    metrics = {k: (v, "ms" if k.endswith("_ms") else "count")
               for k, v in import_metrics().items()}
    workload = workloads.WORKLOADS[name](seed)
    run_op = workload.run
    output_bytes = 0
    if name == "cli_calls":
        def run_op(spec):
            nonlocal output_bytes
            result = workload.run_inprocess(spec)
            output_bytes += len(result.stdout.encode()) + len((result.file_text or "").encode())
            return result

    try:
        plain = timed_loop(workload, run_op, seconds / 2, 0)
        tracer = Tracer(len(workload.round))
        tracer.install()
        output_bytes = 0
        try:
            run = timed_loop(workload, run_op, seconds / 2, 0, tracer)
        finally:
            tracer.uninstall()
    finally:
        if name == "cli_calls":
            workload.cleanup()
    workloads.RUN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(workloads.RUN_DIR / f"trace-{name}-{seed}.jsonl")

    ops = run["attempted"]
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / ops, "count")
        metrics[f"{layer}.self_ms"] = (tracer.self_s[layer] * 1e3 / ops, "ms")
    metrics["optics.permanent.gray_steps"] = (tracer.gray_steps / ops, "count_computed")
    metrics["contextuality.fractional_packing_max.peak_mb"] = (
        tracer.packing_peak_bytes / 2**20, "MB")
    metrics["experiment.parse_table.bytes"] = (tracer.parse_bytes / ops, "bytes")
    metrics["cli.output_bytes"] = (output_bytes / ops, "bytes")
    untraced_rate = len(plain["times"]) / plain["busy"]
    traced_rate = len(run["times"]) / run["busy"]
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")
    combined = {key: plain[key] + run[key] for key in ("attempted", "failed", "wrong")}
    combined["problems"] = plain["problems"] + run["problems"]
    combined["note"] = (f"untraced {untraced_rate:.3f} ops/s over {plain['attempted']} ops, "
                        f"traced {traced_rate:.3f} ops/s over {ops} ops")
    return combined, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.require_program()

    measure = traced if args.trace else end_to_end
    run, metrics = measure(args.workload, args.seed, args.seconds)
    for problem in run["problems"]:
        print(f"{args.workload}: failed op: {problem}", file=sys.stderr)
    print(f"{args.workload}: {run['attempted']} ops, {run['failed']} failed "
          f"({run['wrong']} wrong); {run.get('note', '')}", file=sys.stderr)
    if not metrics:
        print("error: too few successful ops to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
