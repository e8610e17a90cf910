"""Command line front end.

Subcommands: ``simulate`` (emit an outcome table), ``analyze`` (inequality
sum vs bounds), ``bounds`` (graph bound hierarchy), ``sweep`` (sum vs eta
with bound crossings), ``verify`` (consistency checks on a table file).

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse error.
Data goes to stdout (or ``--output``), diagnostics to stderr.  Every input the
library refuses (``ValueError``) and every file that cannot be read or written
(``OSError``) is exit 2 with one ``error:`` line and no usage text.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import __version__
from .contextuality import (
    STANDARD_TESTS,
    cycle_graph,
    derive_exclusivity,
    event_probability,
    exact_search_size,
    fractional_packing_max,
    independence_number,
    inequality_sum,
    lovasz_theta_odd_cycle,
    standard_bounds,
    standard_events,
    sweep_eta,
)
from .experiment import (
    DEFAULT_TOLERANCE,
    SCHEMA_VERSION,
    OutcomeTable,
    check_indistinguishability,
    check_no_disturbance,
    dump_json,
    full_table,
    load_table,
    write_csv,
)
from .optics import BeamsplitterSpec, DistinguishabilityParam


def _add_angle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=None,
                        help="beamsplitter angle in radians (default: pi/4, a 50-50 splitter)")
    parser.add_argument("--theta-deg", type=float, default=None,
                        help="beamsplitter angle in degrees (overrides --theta)")


def _add_eta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, default=None,
                        help="photon overlap in [0, 1]; 1 = identical photons (default: 1)")


def _resolve_beamsplitter(args: argparse.Namespace) -> BeamsplitterSpec:
    if args.theta_deg is not None:
        return BeamsplitterSpec(math.radians(args.theta_deg))
    return BeamsplitterSpec(math.pi / 4 if args.theta is None else args.theta)


def _resolve_overlap(args: argparse.Namespace) -> DistinguishabilityParam:
    return DistinguishabilityParam(1.0 if args.eta is None else args.eta)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    with open(output, "w", newline="") as handle:
        handle.write(text)


def _header(**fields) -> dict:
    return {"schema": SCHEMA_VERSION, "version": __version__, **fields}


def cmd_simulate(args) -> int:
    table = full_table(_resolve_beamsplitter(args), _resolve_overlap(args))
    text = table.to_json() if args.format == "json" else table.to_csv()
    _emit(text, args.output)
    return 0


def _table_for_analysis(args) -> OutcomeTable:
    if args.input is None:
        return full_table(_resolve_beamsplitter(args), _resolve_overlap(args))
    given = [flag for flag, value in (("--theta", args.theta), ("--theta-deg", args.theta_deg),
                                      ("--eta", args.eta)) if value is not None]
    if given:
        raise ValueError(f"--input takes theta and eta from the table, not {', '.join(given):.40}")
    table = load_table(args.input)
    table.validate()
    return table


def cmd_analyze(args) -> int:
    table = _table_for_analysis(args)
    events = standard_events(args.test)
    total = inequality_sum(table, events)
    payload = _header(
        test=args.test,
        theta=table.theta,
        eta=table.eta,
        events=[{"label": e.label, "probability": event_probability(table, e)} for e in events],
        sum=total,
    )
    for key, bound in zip(("nc", "q"), standard_bounds(args.test).values()):
        payload[f"{key}_bound"] = bound
        payload[f"violates_{key}"] = total > bound + DEFAULT_TOLERANCE
    _emit(dump_json(payload), args.output)
    return 0


def cmd_bounds(args) -> int:
    spec: str = args.graph
    if spec in STANDARD_TESTS:
        graph = derive_exclusivity(standard_events(spec))
        cycle = STANDARD_TESTS[spec][1]
    elif spec.startswith("cycle:") and (n := spec[6:]).isascii() and n.isdigit():
        # 40 significant digits refuse any longer N and echo it as short as other errors
        cycle = exact_search_size(int((n.lstrip("0") or "0")[:40]))
        graph = cycle_graph(cycle)
    else:
        raise ValueError(f"--graph must be pentagon, triangle or cycle:N, got {spec!r:.40}")
    payload = _header(graph=spec, alpha=independence_number(graph))
    if cycle is not None and cycle % 2 == 1:
        payload["theta_lovasz"] = lovasz_theta_odd_cycle(cycle)
    payload["fractional_max"] = fractional_packing_max(graph)
    _emit(dump_json(payload), args.output)
    return 0


def cmd_sweep(args) -> int:
    result = sweep_eta(args.test, _resolve_beamsplitter(args), steps=args.steps)
    if args.format == "json":
        text = dump_json(_header(**result.to_dict()))
    else:
        meta = {"test": result.test, "theta": result.theta,
                **{f"bound_{name}": value for name, value in result.bounds.items()},
                **{f"crossing_{name}": value for name, value in result.crossings.items()}}
        text = write_csv(meta, ("eta", "sum"), zip(result.etas, result.sums))
    _emit(text, args.output)
    return 0


def cmd_verify(args) -> int:
    tol = args.tolerance
    table = load_table(args.input)
    # each checker validates the tolerance and the table's structure before it
    # compares anything
    reports = [check_no_disturbance(table, tol), check_indistinguishability(table, tol)]
    normalization, _ = table.normalization_deviation()
    norm_ok = normalization <= tol
    passed = norm_ok and all(r.passed for r in reports)
    payload = _header(
        input=args.input,
        tolerance=tol,
        theta=table.theta,
        eta=table.eta,
        passed=passed,
        normalization={"passed": norm_ok, "max_deviation": normalization},
        checks=[r.to_dict() for r in reports],
    )
    _emit(dump_json(payload), args.output)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonctx",
        description="Photon-pair beamsplitter statistics and exclusivity-graph "
                    "contextuality analysis.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit the six-context outcome table")
    _add_angle_args(p)
    _add_eta_arg(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("analyze", help="evaluate an inequality sum against its bounds")
    p.add_argument("--test", choices=tuple(STANDARD_TESTS), required=True)
    _add_angle_args(p)
    _add_eta_arg(p)
    p.add_argument("--input", default=None,
                   help="analyze a stored table file instead of simulating")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("bounds", help="bound hierarchy of an exclusivity graph")
    p.add_argument("--graph", required=True,
                   help="pentagon, triangle, or cycle:N")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("sweep", help="inequality sum vs photon overlap, with bound crossings")
    p.add_argument("--test", choices=tuple(STANDARD_TESTS), required=True)
    _add_angle_args(p)
    p.add_argument("--steps", type=int, default=101, help="grid points in [0, 1] (default: 101)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run consistency checks on a stored table")
    p.add_argument("--input", required=True, help="table file (JSON or CSV)")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(handler=cmd_verify)
    for p in sub.choices.values():
        p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
