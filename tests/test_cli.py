import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from test_golden import GOLDEN, write_inputs

from bosonctx import __version__
from bosonctx.cli import main
from bosonctx.experiment import DEFAULT_TOLERANCE, dump_json, full_table, parse_table
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam


def run_cli(capsys, *argv):
    return main(list(argv)), capsys.readouterr().out


def refusal(capsys, argv: list[str], usage: bool = False) -> str:
    """Run ``main(argv)``, which must refuse it: exit 2, nothing on stdout, and on
    stderr one ``error:`` line (so no usage text), which is returned.  With ``usage``
    argparse's grammar refuses it instead, and stderr is its usage, then its error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if usage:
        assert captured.err.startswith("usage: bosonctx")
    else:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n")
    return captured.err


def python(args: list[str], stdout, unbuffered: bool = False,
           **options) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` with this checkout's ``src`` on its path and
    its stdout buffered, as it is when PYTHONUNBUFFERED is not set, unless ``unbuffered``
    sets it to 1.  ``options`` go to ``subprocess.run``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120, **options)


class TestSimulate:
    def test_json_table(self, capsys):
        code, out = run_cli(capsys, "simulate", "--theta", str(math.pi / 4), "--eta", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        table = parse_table(out)
        assert table.contexts["A"]["at"] == pytest.approx(0.5, abs=1e-12)

    def test_csv_table(self, capsys):
        code, out = run_cli(capsys, "simulate", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "# schema=1"
        table = parse_table(out)
        assert table.contexts["AB"]["ar,bt"] == pytest.approx(0.5, abs=1e-12)

    def test_output_is_deterministic(self, capsys):
        _, first = run_cli(capsys, "simulate", "--eta", "0.25")
        _, second = run_cli(capsys, "simulate", "--eta", "0.25")
        assert first == second

    def test_theta_deg_alias(self, capsys):
        _, by_rad = run_cli(capsys, "simulate", "--theta", str(math.pi / 4))
        _, by_deg = run_cli(capsys, "simulate", "--theta-deg", "45")
        assert json.loads(by_rad)["records"] == json.loads(by_deg)["records"]

    def test_fully_transmissive(self, capsys):
        _, out = run_cli(capsys, "simulate", "--theta", "0")
        table = parse_table(out)
        assert table.contexts["B"]["bt"] == 1.0

    def test_eta_out_of_range_is_usage_error(self, capsys):
        assert refusal(capsys, ["simulate", "--eta", "2"]) == (
            "error: eta must lie in [0, 1], got 2.0\n")

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out = run_cli(capsys, "simulate", "-o", str(target))
        assert code == 0 and out == ""
        assert parse_table(target.read_text()).eta == 1.0


class TestAnalyze:
    def test_pentagon_defaults(self, capsys):
        code, out = run_cli(capsys, "analyze", "--test", "pentagon")
        assert code == 0
        report = json.loads(out)
        assert report["sum"] == pytest.approx(2.5, abs=1e-12)
        assert report["nc_bound"] == 2
        assert report["q_bound"] == pytest.approx(math.sqrt(5), abs=1e-12)
        assert report["violates_nc"] is True
        assert report["violates_q"] is True

    def test_triangle_defaults(self, capsys):
        code, out = run_cli(capsys, "analyze", "--test", "triangle")
        assert code == 0
        report = json.loads(out)
        assert report["sum"] == pytest.approx(1.5, abs=1e-12)
        assert report["nc_bound"] == 1
        assert report["violates_nc"] is True
        assert "q_bound" not in report
        assert "violates_q" not in report

    def test_distinguishable_photons_do_not_violate(self, capsys):
        _, out = run_cli(capsys, "analyze", "--test", "pentagon", "--eta", "0")
        report = json.loads(out)
        assert report["sum"] == pytest.approx(1.5, abs=1e-12)
        assert report["violates_nc"] is False

    def test_round_trip_through_simulate(self, capsys, tmp_path):
        for fmt in ("json", "csv"):
            path = tmp_path / f"table.{fmt}"
            run_cli(capsys, "simulate", "--eta", "0.8", "--format", fmt, "-o", str(path))
            _, direct = run_cli(capsys, "analyze", "--test", "pentagon", "--eta", "0.8")
            _, loaded = run_cli(capsys, "analyze", "--test", "pentagon", "--input", str(path))
            assert abs(json.loads(direct)["sum"] - json.loads(loaded)["sum"]) <= 1e-12

    def test_missing_input_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert refusal(capsys, ["analyze", "--test", "pentagon", "--input", str(missing)]) == (
            f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")


class TestBoundTolerance:
    """A sum that meets a bound up to rounding is not reported as a violation."""

    @pytest.mark.parametrize("test,theta,eta,flag,bound", [
        # sweep crossings where the computed sum lands one ulp above the bound
        ("pentagon", "0.4445353604829558", "0.9652870165964988", "violates_nc", "nc_bound"),
        ("pentagon", "0.5301437602932776", "0.959617422732518", "violates_q", "q_bound"),
        # the balanced-splitter crossings 3/2 + eta = 2 and 3(1 + eta)/4 = 1
        ("pentagon", str(math.pi / 4), "0.5", "violates_nc", "nc_bound"),
        ("triangle", str(math.pi / 4), str(1 / 3), "violates_nc", "nc_bound"),
    ], ids=["pentagon_nc_rounding", "pentagon_q_rounding", "pentagon_nc_half",
            "triangle_nc_third"])
    def test_sum_at_the_bound_does_not_violate(self, capsys, test, theta, eta, flag, bound):
        code, out = run_cli(capsys, "analyze", "--test", test, "--theta", theta, "--eta", eta)
        assert code == 0
        report = json.loads(out)
        assert abs(report["sum"] - report[bound]) <= DEFAULT_TOLERANCE
        assert report[flag] is False

    def test_sum_just_past_the_tolerance_violates(self, capsys):
        _, out = run_cli(capsys, "analyze", "--test", "pentagon", "--eta", "0.500000001")
        assert json.loads(out)["violates_nc"] is True


class TestBounds:
    def test_pentagon(self, capsys):
        code, out = run_cli(capsys, "bounds", "--graph", "pentagon")
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == 2
        assert report["theta_lovasz"] == pytest.approx(math.sqrt(5), abs=1e-12)
        assert report["fractional_max"] == 2.5

    def test_triangle(self, capsys):
        _, out = run_cli(capsys, "bounds", "--graph", "triangle")
        report = json.loads(out)
        assert report["alpha"] == 1
        assert report["fractional_max"] == 1.5
        assert "theta_lovasz" not in report

    def test_seven_cycle(self, capsys):
        _, out = run_cli(capsys, "bounds", "--graph", "cycle:7")
        report = json.loads(out)
        assert report["alpha"] == 3
        assert report["theta_lovasz"] == pytest.approx(3.3176672073940964, abs=1e-12)
        assert report["fractional_max"] == 3.5

    def test_even_cycle_has_no_lovasz_field(self, capsys):
        _, out = run_cli(capsys, "bounds", "--graph", "cycle:6")
        report = json.loads(out)
        assert report["alpha"] == 3
        assert report["fractional_max"] == 3.0
        assert "theta_lovasz" not in report

    def test_thirteen_cycle(self, capsys):
        code, out = run_cli(capsys, "bounds", "--graph", "cycle:13")
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == 6
        assert report["fractional_max"] == 6.5

    def test_graph_beyond_alpha_search_is_usage_error(self, capsys):
        assert refusal(capsys, ["bounds", "--graph", "cycle:25"]) == (
            "error: exact search limited to 24 vertices, got 25\n")

    def test_oversized_cycle_is_refused_before_it_is_built(self, capsys):
        tracemalloc.start()
        try:
            error = refusal(capsys, ["bounds", "--graph", "cycle:1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert error == "error: exact search limited to 24 vertices, got 1000000\n"

    @pytest.mark.parametrize("digits", [300, 5000])
    def test_long_cycle_length_is_refused_with_a_short_echo(self, capsys, digits):
        """An N of hundreds or thousands of digits is refused by the exact-search
        cap, never converted whole, and echoed by its first 40 digits."""
        assert refusal(capsys, ["bounds", "--graph", "cycle:" + "9" * digits]) == (
            f"error: exact search limited to 24 vertices, got {'9' * 40}\n")

    def test_leading_zeros_are_not_significant(self, capsys):
        _, out = run_cli(capsys, "bounds", "--graph", "cycle:" + "0" * 100 + "5")
        assert json.loads(out)["alpha"] == 2

    def test_bad_graph_is_usage_error(self, capsys):
        """Only ASCII decimal digits follow ``cycle:``; any other spec gets the one
        --graph error, which echoes at most 40 characters of it."""
        for bad in ("hexagon", "cycle:x", "cycle:1_3", "cycle: 7", "cycle:+7", "cycle:7 ",
                    "cycle:\u0667", "cycle:", "c" * 100):
            assert refusal(capsys, ["bounds", "--graph", bad]) == (
                f"error: --graph must be pentagon, triangle or cycle:N, got {bad!r:.40}\n")


class TestSweep:
    def test_pentagon_crossings(self, capsys):
        code, out = run_cli(capsys, "sweep", "--test", "pentagon", "--steps", "101")
        assert code == 0
        report = json.loads(out)
        assert report["crossings"]["noncontextual"] == pytest.approx(0.5, abs=1e-9)
        assert report["crossings"]["quantum"] == pytest.approx(math.sqrt(5) - 1.5, abs=1e-9)
        assert len(report["series"]) == 101

    def test_triangle_crossing(self, capsys):
        _, out = run_cli(capsys, "sweep", "--test", "triangle")
        report = json.loads(out)
        assert report["crossings"]["noncontextual"] == pytest.approx(1 / 3, abs=1e-9)

    def test_csv_format(self, capsys):
        _, out = run_cli(capsys, "sweep", "--test", "pentagon", "--format", "csv",
                         "--steps", "11")
        lines = out.splitlines()
        assert "# crossing_noncontextual=0.5" in lines
        assert lines.count("eta,sum") == 1
        assert len([l for l in lines if not l.startswith("#")]) == 12

    @pytest.mark.parametrize("steps, points", [("7.0", 7), ("1e1", 10)])
    def test_steps_text_that_spells_a_whole_number_is_read(self, capsys, steps, points):
        _, out = run_cli(capsys, "sweep", "--test", "triangle", "--steps", steps)
        assert len(json.loads(out)["series"]) == points

    def test_deterministic(self, capsys):
        _, first = run_cli(capsys, "sweep", "--test", "pentagon", "--steps", "11")
        _, second = run_cli(capsys, "sweep", "--test", "pentagon", "--steps", "11")
        assert first == second

    def test_oversized_sweep_is_refused_before_it_is_built(self, capsys):
        tracemalloc.start()
        try:
            error = refusal(capsys, ["sweep", "--test", "pentagon", "--steps", "100000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert error == "error: sweep limited to 100001 grid points, got 100000000\n"

    def test_bad_steps_is_usage_error(self, capsys):
        assert refusal(capsys, ["sweep", "--test", "pentagon", "--steps", "1"]) == (
            "error: steps must be a whole number from 2 up that fits a float, got 1.0\n")


class TestVerify:
    def test_simulated_table_passes(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(path))
        code, out = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])

    def test_generic_parameters_pass(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "--theta", "0.9", "--eta", "0.6", "-o", str(path))
        code, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0

    def test_perturbed_table_fails_and_names_identity(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(path))
        payload = json.loads(path.read_text())
        for record in payload["records"]:
            if record["context"] == "AB" and record["outcome"] == "ar,bt":
                record["probability"] += 1e-3
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "verify", "--input", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        names = [f["name"] for check in report["checks"] for f in check["failures"]]
        assert any("A=r" in name and "AB" in name for name in names)

    def test_malformed_file_is_parse_error(self, capsys, refusal_inputs):
        assert refusal(capsys, ["verify", "--input", str(refusal_inputs["garbage"])]) == (
            "error: CSV header must be context,outcome,probability,"
            " got ['this is not a table']\n")

    def test_omitted_zero_entry_counts_as_zero(self, capsys, tmp_path):
        full, partial = tmp_path / "full.json", tmp_path / "partial.json"
        run_cli(capsys, "simulate", "--theta", "0", "--eta", "0.5", "-o", str(full))
        payload = json.loads(full.read_text())
        kept = [r for r in payload["records"] if (r["context"], r["outcome"]) != ("A", "ar")]
        assert len(kept) == len(payload["records"]) - 1
        partial.write_text(json.dumps({**payload, "records": kept}))
        code, out = run_cli(capsys, "verify", "--input", str(partial))
        assert code == 0
        _, full_out = run_cli(capsys, "verify", "--input", str(full))
        assert json.loads(out)["checks"] == json.loads(full_out)["checks"]

    def test_out_of_range_table_is_refused_like_analyze_input(self, capsys, refusal_inputs):
        for argv in (["verify"], ["analyze", "--test", "pentagon"]):
            assert refusal(capsys, [*argv, "--input", str(refusal_inputs["out_of_range"])]) == (
                "error: probability 1.5 of 'at' in 'A' is outside [0, 1]\n")

    def test_tolerance_text_is_read_as_its_float(self, capsys, refusal_inputs):
        code, out = run_cli(capsys, "verify", "--input", str(refusal_inputs["table"]),
                            "--tolerance", "1e-3")
        assert code == 0
        report = json.loads(out)
        assert report["tolerance"] == 0.001
        assert [check["tolerance"] for check in report["checks"]] == [0.001, 0.001]

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tolerance_is_usage_error(self, capsys, refusal_inputs,
                                                             tolerance):
        table = str(refusal_inputs["table"])
        assert refusal(capsys, ["verify", "--input", table, "--tolerance", tolerance]) == (
            f"error: tolerance must be finite and positive, got {float(tolerance)}\n")

    def test_reports_are_strict_json(self):
        with pytest.raises(ValueError):
            dump_json({"tolerance": math.nan})


OUTPUT_RUNS = (["simulate"], ["analyze", "--test", "pentagon"], ["bounds", "--graph", "pentagon"],
               ["sweep", "--test", "triangle", "--steps", "3"], ["verify", "--input", "{table}"])
REFUSALS = {  # id: argv, with {name} for a file of ``refusal_inputs``
    "eta_2": ["simulate", "--eta", "2"],
    "theta_nan": ["simulate", "--theta", "nan"],
    "theta_deg_inf": ["simulate", "--theta-deg", "inf"],
    "cycle_2": ["bounds", "--graph", "cycle:2"],
    "cycle_x": ["bounds", "--graph", "cycle:x"],
    "cycle_1_3": ["bounds", "--graph", "cycle:1_3"],
    "cycle_arabic_indic_7": ["bounds", "--graph", "cycle:\u0667"],
    "graph_million_chars": ["bounds", "--graph", "x" * 10**6],
    "cycle_25": ["bounds", "--graph", "cycle:25"],
    "cycle_300_nines": ["bounds", "--graph", "cycle:" + "9" * 300],
    "cycle_5000_nines": ["bounds", "--graph", "cycle:" + "9" * 5000],
    "graph_square": ["bounds", "--graph", "square"],
    "steps_1": ["sweep", "--test", "pentagon", "--steps", "1"],
    "tolerance_nan": ["verify", "--input", "{table}", "--tolerance", "nan"],
    "missing_input": ["analyze", "--test", "pentagon", "--input", "{dir}/missing.json"],
    "garbage_table": ["verify", "--input", "{garbage}"],
    "output_in_missing_dir": ["simulate", "--output", "{dir}/missing/out.json"],
    "verify_out_of_range": ["verify", "--input", "{out_of_range}"],
    "csv_schema_2": ["verify", "--input", "{csv_schema_2}"],
    "json_schema_true": ["verify", "--input", "{json_schema_true}"],
    "input_with_eta_theta": ["analyze", "--test", "triangle", "--input", "{table}", "--eta", "1",
                             "--theta", "0.1"],
    "input_with_theta_deg": ["analyze", "--test", "pentagon", "--input", "{table}",
                             "--theta-deg", "30"],
    "input_with_the_default_theta": ["analyze", "--test", "pentagon", "--input", "{table}",
                                     "--theta", "0.7853981633974483"],
    # option text that argparse once converted, read now by the library's rules alone
    "theta_abc": ["simulate", "--theta", "abc"],
    "eta_x": ["simulate", "--eta", "x"],
    "theta_deg_x": ["simulate", "--theta-deg", "x"],
    "steps_2.5": ["sweep", "--test", "pentagon", "--steps", "2.5"],
    "steps_x": ["sweep", "--test", "pentagon", "--steps", "x"],
    "tolerance_x": ["verify", "--input", "{table}", "--tolerance", "x"],
    "analyze_hexagon": ["analyze", "--test", "hexagon"],
    "sweep_hexagon": ["sweep", "--test", "hexagon"],
    "tolerance_0": ["verify", "--input", "{table}", "--tolerance", "0"],
    "analyze_probability_5": ["analyze", "--test", "pentagon", "--input", "{probability_5}"],
    "verify_no_bc_context": ["verify", "--input", "{no_bc}"],
    # a table number that is no float: a boolean, or an integer past the float range
    **{f"{name}_{argv[0]}": [*argv, "--input", "{%s}" % name]
       for name in ("bool_theta", "huge_theta", "huge_probability")
       for argv in (["analyze", "--test", "pentagon"], ["verify"])},
    # an --output path that cannot be written, for each command
    **{f"output_is_a_dir_{argv[0]}": [*argv, "-o", "{dir}"] for argv in OUTPUT_RUNS},
    **{f"output_in_missing_dir_{argv[0]}": [*argv, "-o", "{dir}/missing/out.json"]
       for argv in OUTPUT_RUNS},
}


@pytest.fixture
def refusal_inputs(tmp_path) -> dict[str, Path]:
    """The directory and the table files that ``REFUSALS`` names: ``table`` as
    ``simulate`` writes it by default, and tables broken in one way each."""
    table = full_table(BeamsplitterSpec(math.pi / 4), DistinguishabilityParam(1.0))
    payload = json.loads(table.to_json())
    simulated = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
    simulated_payload = json.loads(simulated.to_json())
    texts = {
        "table": table.to_json(),
        "garbage": "this is not a table",
        # p(t) = 1.5 and p(r) = -0.5 in each single-fiber context.  The pair contexts hold
        # unresolved coincidence mass, so no single-context identity is checked and both
        # checkers pass; only the range check refuses the table.
        "out_of_range": json.dumps({**simulated_payload, "records": [
            {**r, "probability": 1.5 if r["outcome"].endswith("t") else -0.5}
            if len(r["context"]) == 1 else r for r in simulated_payload["records"]]}),
        "csv_schema_2": simulated.to_csv().replace("# schema=1", "# schema=2"),
        "json_schema_true": simulated.to_json().replace('"schema": 1', '"schema": true'),
        "probability_5": json.dumps({**payload, "records": [  # p(at) = 5 in context A
            {**r, "probability": 5.0} if (r["context"], r["outcome"]) == ("A", "at") else r
            for r in payload["records"]]}),
        "no_bc": json.dumps({**payload, "records": [
            r for r in payload["records"] if r["context"] != "BC"]}),
        "bool_theta": json.dumps({**payload, "theta": True}),
        "huge_theta": json.dumps({**payload, "theta": 10**400}),
        "huge_probability": json.dumps({**payload, "records": [
            {**payload["records"][0], "probability": 10**400}, *payload["records"][1:]]}),
        "eta_5000_digits": '{"schema": 1, "theta": 0.3, "eta": ' + "9" * 5000 + ', "records": []}',
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {"dir": tmp_path, **{name: tmp_path / name for name in texts}}


class TestErrorPath:
    """Every input error is exit 2 with one ``error:`` line on stderr and no usage."""

    @pytest.mark.parametrize("argv", REFUSALS.values(), ids=REFUSALS.keys())
    def test_input_error_is_one_error_line(self, capsys, refusal_inputs, argv):
        refusal(capsys, [arg.format(**refusal_inputs) for arg in argv])

    @pytest.mark.parametrize("command", [["analyze", "--test", "pentagon"], ["verify"]],
                             ids=["analyze", "verify"])
    def test_an_integer_past_the_digit_limit_is_not_valid_json(self, capsys, refusal_inputs,
                                                               command):
        """``json`` refuses an integer of over 4300 digits with a plain ``ValueError``."""
        path = str(refusal_inputs["eta_5000_digits"])
        assert refusal(capsys, [*command, "--input", path]).startswith("error: not valid JSON: ")

    @pytest.mark.parametrize("field, message", [
        ("context", "unknown context"),
        ("note", "bad table record"),
        ("outcome", "has no outcome"),
        ("schema", "unsupported schema"),
        ("csv header", "CSV header must be"),
        ("csv field", "not valid CSV"),
    ])
    def test_huge_input_value_is_echoed_in_short(self, capsys, tmp_path, field, message):
        """A table value of a million characters gives one short ``error:`` line."""
        value = {"context": "A", "schema": "2."}.get(field, "x") + "0" * 10**6
        simulated = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        path = tmp_path / "table.json"
        if field == "csv header":  # short fields, a million characters in all
            text = simulated.to_csv().replace("probability", "probability," + ",".join(value))
        elif field == "csv field":  # one field past csv's size limit
            text = simulated.to_csv().replace("A,at,", "A,at," + value, 1)
        else:
            payload = json.loads(simulated.to_json())
            if field == "schema":
                payload["schema"] = value
            else:
                payload["records"][0][field] = value
            text = json.dumps(payload)
        path.write_text(text)
        error = refusal(capsys, ["verify", "--input", str(path)])
        assert message in error
        assert len(error.encode()) <= 200


class TestUsage:
    def test_unknown_command(self, capsys):
        refusal(capsys, ["frobnicate"], usage=True)

    @pytest.mark.parametrize("command", [["simulate"], ["analyze", "--test", "pentagon"],
                                         ["sweep", "--test", "pentagon"]],
                             ids=["simulate", "analyze", "sweep"])
    def test_theta_with_theta_deg_is_a_usage_error(self, capsys, command):
        """The two angle options are one choice, never one silently dropped."""
        error = refusal(capsys, [*command, "--theta", "0.3", "--theta-deg", "30"], usage=True)
        assert "[--theta THETA | --theta-deg THETA_DEG]" in error
        assert error.endswith("argument --theta-deg: not allowed with argument --theta\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--et", "0.5", "--form", "csv"], ["analyze", "--te", "pentagon"],
        ["verify", "--in", "{table}", "--tol", "1e-3"], ["simulate", "--out", "{dir}/out.json"],
        ["--vers"],
    ], ids=["simulate_et_form", "analyze_te", "verify_in_tol", "simulate_out", "vers"])
    def test_a_prefix_of_an_option_is_no_spelling_of_it(self, capsys, refusal_inputs, argv):
        """Each option has one spelling: argparse reads a prefix of it as no option."""
        refusal(capsys, [arg.format(**refusal_inputs) for arg in argv], usage=True)
        assert not (refusal_inputs["dir"] / "out.json").exists()

    def test_version_flag(self, capsys):
        assert run_cli(capsys, "--version") == (0, f"bosonctx {__version__}\n")

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_a_stdout_that_refuses_argparse_text_is_an_exit_code(self, capsys, flag):
        """argparse writes this text itself.  On 3.10 its write error reaches main()'s
        handler: exit 2 with one ``error:`` line.  3.11 and later swallow it: exit 0."""
        class Full(io.StringIO):
            def write(self, text):
                raise OSError("no space left on device")

        with contextlib.redirect_stdout(Full()):
            code = main([flag])
        error = capsys.readouterr().err
        if sys.version_info >= (3, 11):
            assert (code, error) == (0, "")
        else:
            assert code == 2 and error == "error: no space left on device\n"


class TestEntryPoint:
    """``python -m bosonctx`` and the ``bosonctx`` script run ``entrypoint()``, which
    freezes the import-time heap before ``main()``, so that no collection walks it,
    the ones at exit included.  ``main()`` itself never freezes its host."""

    # the freeze count an atexit hook reads after the run, on stderr's last line
    SCRIPT = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
              "runpy.run_module('bosonctx', run_name='__main__')\n")

    @pytest.mark.parametrize(("argv", "code", "golden"), [
        (["bounds", "--graph", "pentagon"], 0, "bounds-pentagon"),
        (["verify", "--input", "{dir}/perturbed.json"], 1, "verify-perturbed.json"),
        (["bounds", "--graph", "cycle:2"], 2, None),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_each_exit_keeps_its_bytes_with_the_heap_frozen_to_the_end(self, argv, code, golden,
                                                                       tmp_path):
        write_inputs(tmp_path)
        done = python(["-c", self.SCRIPT, *(arg.format(dir=tmp_path) for arg in argv)],
                      subprocess.PIPE)
        assert done.returncode == code
        *errors, frozen = done.stderr.splitlines()
        assert int(frozen) > 0
        if golden is None:
            assert done.stdout == "" and len(errors) == 1 and errors[0].startswith("error: ")
        else:
            assert errors == []
            assert done.stdout.replace(str(tmp_path), "<dir>") == \
                (GOLDEN / f"{golden}.out").read_text()

    def test_main_leaves_its_host_unfrozen(self, capsys):
        assert run_cli(capsys, "bounds", "--graph", "pentagon")[0] == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(("argv", "unbuffered"), [
        (["bounds", "--graph", "pentagon"], False), (["--version"], False),
        # not --version: on 3.11 and later argparse swallows its own write error, exit 0
        (["bounds", "--graph", "pentagon"], True),
    ], ids=["report", "version", "report-unbuffered"])
    @pytest.mark.parametrize("sink", ["dev_full", "closed_pipe"])
    def test_a_stdout_that_takes_nothing_is_one_error_line(self, argv, unbuffered, sink):
        """Exit 2 with one ``error:`` line, never the interpreter's ``Exception ignored``
        and exit 120 from its own flush of a buffered stdout at exit.  Unbuffered, as the
        benchmark runs its children, main()'s own write fails instead."""
        if sink == "closed_pipe":
            read, stdout = os.pipe()
            os.close(read)  # the reader has gone: a write raises BrokenPipeError
        elif os.path.exists("/dev/full"):  # a write raises OSError: no space left
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            pytest.skip("this system has no /dev/full")
        done = python(["-m", "bosonctx", *argv], stdout, unbuffered)
        os.close(stdout)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.skipif(os.name != "posix", reason="starts a child with fd 1 closed")
    @pytest.mark.parametrize(("argv", "code", "stderr"), [
        (["bounds", "--graph", "pentagon"], 2, "error: stdout is closed\n"),
        (["simulate", "--theta", "0.3", "--eta", "0.37", "-o", "{dir}/out.json"], 0, ""),
        (["--version"], 0, f"bosonctx {__version__}\n"),  # argparse's fallback is stderr
    ], ids=["report", "output_file", "version"])
    def test_a_closed_stdout_is_no_traceback(self, tmp_path, argv, code, stderr):
        """Started with fd 1 closed, so that ``sys.stdout`` is None: a report bound for
        stdout is one ``error:`` line, and a report bound for ``-o`` is written."""
        done = python(["-m", "bosonctx", *(arg.format(dir=tmp_path) for arg in argv)], None,
                      preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (code, stderr)
        if "-o" in argv:
            assert (tmp_path / "out.json").read_text() == \
                (GOLDEN / "simulate-json-theta0.3-eta0.37.out").read_text()
