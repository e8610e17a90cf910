"""Command line front end.

Subcommands: ``simulate`` (emit an outcome table), ``analyze`` (inequality
sum vs bounds), ``bounds`` (graph bound hierarchy), ``sweep`` (sum vs eta
with bound crossings), ``verify`` (consistency checks on a table file).

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse error.
Data goes to stdout (or ``--output``), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import __version__
from .contextuality import (
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
from .experiment import (
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
    parser.add_argument("--theta", type=float, default=math.pi / 4,
                        help="beamsplitter angle in radians (default: pi/4, a 50-50 splitter)")
    parser.add_argument("--theta-deg", type=float, default=None,
                        help="beamsplitter angle in degrees (overrides --theta)")


def _add_eta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, default=1.0,
                        help="photon overlap in [0, 1]; 1 = identical photons (default: 1)")


def _resolve_beamsplitter(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> BeamsplitterSpec:
    theta = args.theta
    if args.theta_deg is not None:
        theta = math.radians(args.theta_deg)
    if not math.isfinite(theta):
        parser.error(f"theta must be finite, got {theta!r}")
    return BeamsplitterSpec(theta)


def _resolve_eta(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> DistinguishabilityParam:
    if not (0.0 <= args.eta <= 1.0):
        parser.error(f"--eta must lie in [0, 1], got {args.eta!r}")
    return DistinguishabilityParam(args.eta)


def _emit(parser: argparse.ArgumentParser, text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        parser.exit(2, f"error: cannot write {output!r}: {exc}\n")


def _header(**fields) -> dict:
    return {"schema": SCHEMA_VERSION, "version": __version__, **fields}


def cmd_simulate(parser, args) -> int:
    bs = _resolve_beamsplitter(parser, args)
    d = _resolve_eta(parser, args)
    table = full_table(bs, d)
    text = table.to_json() if args.format == "json" else table.to_csv()
    _emit(parser, text, args.output)
    return 0


def _table_for_analysis(parser, args) -> OutcomeTable:
    if args.input is not None:
        try:
            table = load_table(args.input)
            table.validate()
            return table
        except (OSError, ValueError) as exc:
            parser.exit(2, f"error: cannot read table {args.input!r}: {exc}\n")
    return full_table(_resolve_beamsplitter(parser, args), _resolve_eta(parser, args))


def cmd_analyze(parser, args) -> int:
    table = _table_for_analysis(parser, args)
    events = standard_events(args.test)
    total = inequality_sum(table, events)
    nc_bound = noncontextual_max(events)
    payload = _header(
        test=args.test,
        theta=table.theta,
        eta=table.eta,
        events=[{"label": e.label, "probability": event_probability(table, e)}
                for e in events],
        sum=total,
        nc_bound=nc_bound,
        violates_nc=total > nc_bound,
    )
    if args.test == PENTAGON:
        q_bound = lovasz_theta_odd_cycle(5)
        payload["q_bound"] = q_bound
        payload["violates_q"] = total > q_bound
    _emit(parser, dump_json(payload), args.output)
    return 0


def cmd_bounds(parser, args) -> int:
    spec: str = args.graph
    theta_n: int | None = None
    if spec in (PENTAGON, TRIANGLE):
        graph = derive_exclusivity(standard_events(spec))
        if spec == PENTAGON:
            theta_n = 5
    elif spec.startswith("cycle:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            parser.error(f"bad cycle size in {spec!r}")
        if n < 3:
            parser.error(f"cycle size must be >= 3, got {n}")
        graph = cycle_graph(n)
        if n % 2 == 1:
            theta_n = n
    else:
        parser.error(f"--graph must be pentagon, triangle or cycle:N, got {spec!r}")
    try:
        alpha = independence_number(graph)
    except ValueError as exc:
        parser.exit(2, f"error: cannot bound {spec!r}: {exc}\n")
    payload = _header(graph=spec, alpha=alpha)
    if theta_n is not None:
        payload["theta_lovasz"] = lovasz_theta_odd_cycle(theta_n)
    payload["fractional_max"] = fractional_packing_max(graph)
    _emit(parser, dump_json(payload), args.output)
    return 0


def cmd_sweep(parser, args) -> int:
    bs = _resolve_beamsplitter(parser, args)
    if args.steps < 2:
        parser.error(f"--steps must be >= 2, got {args.steps}")
    result = sweep_eta(args.test, bs, steps=args.steps)
    if args.format == "json":
        text = dump_json(_header(**result.to_dict()))
    else:
        meta = {"test": result.test, "theta": result.theta,
                **{f"bound_{name}": value for name, value in result.bounds.items()},
                **{f"crossing_{name}": value for name, value in result.crossings.items()}}
        text = write_csv(meta, ("eta", "sum"), zip(result.etas, result.sums))
    _emit(parser, text, args.output)
    return 0


def cmd_verify(parser, args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        parser.error(f"--tolerance must be finite and positive, got {args.tolerance!r}")
    try:
        table = load_table(args.input)
        table.validate_structure()
    except (OSError, ValueError) as exc:
        parser.exit(2, f"error: cannot read table {args.input!r}: {exc}\n")

    tol = args.tolerance
    normalization = max(abs(sum(dist.values()) - 1.0)
                        for ctx, dist in table.contexts.items())
    norm_ok = normalization <= tol
    reports = [check_no_disturbance(table, tol), check_indistinguishability(table, tol)]
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
    _emit(parser, dump_json(payload), args.output)
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
    p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("analyze", help="evaluate an inequality sum against its bounds")
    p.add_argument("--test", choices=(PENTAGON, TRIANGLE), required=True)
    _add_angle_args(p)
    _add_eta_arg(p)
    p.add_argument("--input", default=None,
                   help="analyze a stored table file instead of simulating")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("bounds", help="bound hierarchy of an exclusivity graph")
    p.add_argument("--graph", required=True,
                   help="pentagon, triangle, or cycle:N")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("sweep", help="inequality sum vs photon overlap, with bound crossings")
    p.add_argument("--test", choices=(PENTAGON, TRIANGLE), required=True)
    _add_angle_args(p)
    p.add_argument("--steps", type=int, default=101, help="grid points in [0, 1] (default: 101)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run consistency checks on a stored table")
    p.add_argument("--input", required=True, help="table file (JSON or CSV)")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(parser, args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
