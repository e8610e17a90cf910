"""Command line front end.

Subcommands: ``simulate`` (emit an outcome table), ``analyze`` (inequality
sum vs bounds), ``bounds`` (graph bound hierarchy), ``sweep`` (sum vs eta
with bound crossings), ``verify`` (consistency checks on a table file).

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse error.
``main`` returns one for every argv, argparse's usage errors, ``--help`` and
``--version`` included.  Each handler returns its exit code and report, and ``main``
writes the report once, to ``--output`` or stdout; diagnostics go to stderr.  Each
option has one spelling: argparse takes no prefix of it.  Each option's text goes as
given to the library rule that reads it, so every value the library refuses
(``ValueError``) and every file that cannot be read or written (``OSError``), a closed
or full stdout included, is exit 2 with one ``error:`` line.  Only argparse's own
faults print usage first: an unknown or missing command, option or value, a bad
``--format``, and ``--theta`` with ``--theta-deg``.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
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
from .fock import real_number
from .optics import BeamsplitterSpec, DistinguishabilityParam


def _add_angle_args(parser: argparse.ArgumentParser) -> None:
    angle = parser.add_mutually_exclusive_group()
    angle.add_argument("--theta",
                       help="beamsplitter angle in radians (default: pi/4, a 50-50 splitter)")
    angle.add_argument("--theta-deg", help="beamsplitter angle in degrees (instead of --theta)")


def _add_eta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta",
                        help="photon overlap in [0, 1]; 1 = identical photons (default: 1)")


def _resolve_beamsplitter(args: argparse.Namespace) -> BeamsplitterSpec:
    if args.theta_deg is not None:
        return BeamsplitterSpec(math.radians(real_number(args.theta_deg, "--theta-deg")))
    return BeamsplitterSpec(math.pi / 4 if args.theta is None else args.theta)


def _resolve_overlap(args: argparse.Namespace) -> DistinguishabilityParam:
    return DistinguishabilityParam(1.0 if args.eta is None else args.eta)


def _header(**fields) -> dict:
    return {"schema": SCHEMA_VERSION, "version": __version__, **fields}


def cmd_simulate(args) -> tuple[int, str]:
    table = full_table(_resolve_beamsplitter(args), _resolve_overlap(args))
    return 0, table.to_json() if args.format == "json" else table.to_csv()


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


def cmd_analyze(args) -> tuple[int, str]:
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
    return 0, dump_json(payload)


def cmd_bounds(args) -> tuple[int, str]:
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
    return 0, dump_json(payload)


def cmd_sweep(args) -> tuple[int, str]:
    result = sweep_eta(args.test, _resolve_beamsplitter(args),
                       steps=real_number(args.steps, "steps"))
    if args.format == "json":
        text = dump_json(_header(**result.to_dict()))
    else:
        meta = {"test": result.test, "theta": result.theta,
                **{f"bound_{name}": value for name, value in result.bounds.items()},
                **{f"crossing_{name}": value for name, value in result.crossings.items()}}
        text = write_csv(meta, ("eta", "sum"), zip(result.etas, result.sums))
    return 0, text


def cmd_verify(args) -> tuple[int, str]:
    table = load_table(args.input)
    # each checker reads the tolerance and validates the table before it compares anything
    reports = [check_no_disturbance(table, args.tolerance),
               check_indistinguishability(table, args.tolerance)]
    tol = reports[0].tolerance
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
    return (0 if passed else 1), dump_json(payload)


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
    p.add_argument("--test", required=True, help="pentagon or triangle")
    _add_angle_args(p)
    _add_eta_arg(p)
    p.add_argument("--input", help="analyze a stored table file instead of simulating")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("bounds", help="bound hierarchy of an exclusivity graph")
    p.add_argument("--graph", required=True,
                   help="pentagon, triangle, or cycle:N")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("sweep", help="inequality sum vs photon overlap, with bound crossings")
    p.add_argument("--test", required=True, help="pentagon or triangle")
    _add_angle_args(p)
    p.add_argument("--steps", default=101, help="grid points in [0, 1] (default: 101)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run consistency checks on a stored table")
    p.add_argument("--input", required=True, help="table file (JSON or CSV)")
    p.add_argument("--tolerance", default=DEFAULT_TOLERANCE)
    p.set_defaults(handler=cmd_verify)
    for p in sub.choices.values():
        p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False  # one spelling per option: a prefix of it is an unknown option
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            code, text = args.handler(args)
            if args.output is not None:
                with open(args.output, "w", newline="") as handle:
                    handle.write(text)
            elif sys.stdout is None:  # the process started with fd 1 closed
                raise OSError("stdout is closed")
            else:
                sys.stdout.write(text)
            return code
        except (OSError, ValueError) as exc:
            parser.exit(2, f"error: {exc}\n")  # argparse's writer survives a closed stderr (3.11+)
    except SystemExit as exc:  # argparse's exits: usage errors, --help, --version and the above
        return exc.code


def entrypoint() -> None:
    gc.freeze()  # exit's collections then skip the import-time heap, which lives to exit anyway
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()  # what main() or argparse left in the buffer
    except OSError as exc:
        # the interpreter's flush at exit would fail again, outside any handler: send
        # the rest to devnull, as the Python docs do for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code != 2:  # a 2 has printed its one line already
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
