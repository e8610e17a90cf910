import json
import math
import tracemalloc

import pytest

from bosonctx import __version__
from bosonctx.cli import main
from bosonctx.experiment import DEFAULT_TOLERANCE, dump_json, full_table, parse_table
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam

OUT_OF_RANGE_ERROR = "error: probability 1.5 of 'at' in 'A' is outside [0, 1]\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def out_of_range_table() -> str:
    """JSON table with p(t) = 1.5 and p(r) = -0.5 in each single-fiber context.

    The pair contexts are simulated at theta = 0.3, eta = 0.37.  They hold
    unresolved coincidence mass, so no single-context identity is checked and
    both checkers pass; only the range check refuses the table.
    """
    table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
    payload = json.loads(table.to_json())
    for record in payload["records"]:
        if len(record["context"]) == 1:
            record["probability"] = 1.5 if record["outcome"].endswith("t") else -0.5
    return json.dumps(payload)


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
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--eta", "2"])
        assert err.value.code == 2

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

    def test_missing_input_file_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--test", "pentagon", "--input", "/nonexistent.json"])
        assert err.value.code == 2

    def test_invalid_probability_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(path))
        payload = json.loads(path.read_text())
        for record in payload["records"]:
            if record["context"] == "A" and record["outcome"] == "at":
                record["probability"] = 5.0
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--test", "pentagon", "--input", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--graph", "cycle:25"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_oversized_cycle_is_refused_before_it_is_built(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as err:
                main(["bounds", "--graph", "cycle:1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.code == 2
        assert peak < 1_000_000
        assert capsys.readouterr().err == (
            "error: exact search limited to 24 vertices, got 1000000\n")

    @pytest.mark.parametrize("digits", [300, 5000])
    def test_long_cycle_length_is_refused_with_a_short_echo(self, capsys, digits):
        """An N of hundreds or thousands of digits is refused by the exact-search
        cap, never converted whole, and echoed by its first 40 digits."""
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--graph", "cycle:" + "9" * digits])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            f"error: exact search limited to 24 vertices, got {'9' * 40}\n")

    def test_leading_zeros_are_not_significant(self, capsys):
        _, out = run_cli(capsys, "bounds", "--graph", "cycle:" + "0" * 100 + "5")
        assert json.loads(out)["alpha"] == 2

    def test_bad_graph_is_usage_error(self, capsys):
        """Only ASCII decimal digits follow ``cycle:``; any other spec gets the one
        --graph error, which echoes at most 40 characters of it."""
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--graph", "cycle:2"])
        assert err.value.code == 2
        capsys.readouterr()
        for bad in ("hexagon", "cycle:x", "cycle:1_3", "cycle: 7", "cycle:+7", "cycle:7 ",
                    "cycle:\u0667", "cycle:", "c" * 100):
            with pytest.raises(SystemExit) as err:
                main(["bounds", "--graph", bad])
            assert err.value.code == 2
            assert capsys.readouterr().err == (
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

    def test_deterministic(self, capsys):
        _, first = run_cli(capsys, "sweep", "--test", "pentagon", "--steps", "11")
        _, second = run_cli(capsys, "sweep", "--test", "pentagon", "--steps", "11")
        assert first == second

    def test_oversized_sweep_is_refused_before_it_is_built(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as err:
                main(["sweep", "--test", "pentagon", "--steps", "100000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.code == 2
        assert peak < 1_000_000
        assert capsys.readouterr() == (
            "", "error: sweep limited to 100001 grid points, got 100000000\n")

    def test_bad_steps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--test", "pentagon", "--steps", "1"])
        assert err.value.code == 2


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

    def test_malformed_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not a table")
        with pytest.raises(SystemExit) as err:
            main(["verify", "--input", str(path)])
        assert err.value.code == 2

    def test_missing_context_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        run_cli(capsys, "simulate", "-o", str(path))
        payload = json.loads(path.read_text())
        payload["records"] = [r for r in payload["records"] if r["context"] != "BC"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as err:
            main(["verify", "--input", str(path)])
        assert err.value.code == 2

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

    def test_out_of_range_table_is_refused_like_analyze_input(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(out_of_range_table())
        for argv in (["verify"], ["analyze", "--test", "pentagon"]):
            with pytest.raises(SystemExit) as err:
                main([*argv, "--input", str(path)])
            assert err.value.code == 2
            assert capsys.readouterr().err == OUT_OF_RANGE_ERROR

    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(path))
        with pytest.raises(SystemExit) as err:
            main(["verify", "--input", str(path), "--tolerance", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tolerance_is_usage_error(self, capsys, tmp_path,
                                                             tolerance):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(path))
        with pytest.raises(SystemExit) as err:
            main(["verify", "--input", str(path), "--tolerance", tolerance])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_reports_are_strict_json(self):
        with pytest.raises(ValueError):
            dump_json({"tolerance": math.nan})


class TestStrictNumbers:
    @pytest.mark.parametrize("command", [["analyze", "--test", "pentagon"], ["verify"]],
                             ids=["analyze", "verify"])
    @pytest.mark.parametrize("field,value", [("theta", True), ("theta", 10 ** 400),
                                             ("probability", 10 ** 400)],
                             ids=["bool_theta", "huge_theta", "huge_probability"])
    def test_non_float_number_is_parse_error(self, capsys, tmp_path, command, field, value):
        path = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(path))
        payload = json.loads(path.read_text())
        (payload["records"][0] if field == "probability" else payload)[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as err:
            main([*command, "--input", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["analyze", "--test", "pentagon"],
        ["bounds", "--graph", "pentagon"],
        ["sweep", "--test", "triangle", "--steps", "3"],
        ["verify", "--input", "{table}"],
    ], ids=["simulate", "analyze", "bounds", "sweep", "verify"])
    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing_dir", "a_dir"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv, target):
        table = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(table))
        argv = [arg.format(table=table) for arg in argv]
        with pytest.raises(SystemExit) as err:
            main([*argv, "-o", str(tmp_path / target)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestErrorPath:
    """Every input error is exit 2 with one ``error:`` line on stderr and no usage."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--eta", "2"],
        ["simulate", "--theta", "nan"],
        ["simulate", "--theta-deg", "inf"],
        ["bounds", "--graph", "cycle:2"],
        ["bounds", "--graph", "cycle:x"],
        ["bounds", "--graph", "cycle:1_3"],
        ["bounds", "--graph", "cycle:\u0667"],
        ["bounds", "--graph", "x" * 10**6],
        ["bounds", "--graph", "cycle:25"],
        ["bounds", "--graph", "cycle:" + "9" * 300],
        ["bounds", "--graph", "cycle:" + "9" * 5000],
        ["bounds", "--graph", "square"],
        ["sweep", "--test", "pentagon", "--steps", "1"],
        ["verify", "--input", "{table}", "--tolerance", "nan"],
        ["analyze", "--test", "pentagon", "--input", "{dir}/missing.json"],
        ["verify", "--input", "{garbage}"],
        ["simulate", "-o", "{dir}/missing/out.json"],
        ["verify", "--input", "{out_of_range}"],
        ["verify", "--input", "{csv_schema_2}"],
        ["verify", "--input", "{json_schema_true}"],
        ["analyze", "--test", "triangle", "--input", "{table}", "--eta", "1", "--theta", "0.1"],
        ["analyze", "--test", "pentagon", "--input", "{table}", "--theta-deg", "30"],
        ["analyze", "--test", "pentagon", "--input", "{table}", "--theta", "0.7853981633974483"],
    ], ids=["eta_2", "theta_nan", "theta_deg_inf", "cycle_2", "cycle_x", "cycle_1_3",
            "cycle_arabic_indic_7", "graph_million_chars", "cycle_25",
            "cycle_300_nines", "cycle_5000_nines", "graph_square", "steps_1",
            "tolerance_nan", "missing_input", "garbage_table", "output_in_missing_dir",
            "verify_out_of_range", "csv_schema_2", "json_schema_true", "input_with_eta_theta",
            "input_with_theta_deg", "input_with_the_default_theta"])
    def test_input_error_is_one_error_line(self, capsys, tmp_path, argv):
        table = tmp_path / "table.json"
        run_cli(capsys, "simulate", "-o", str(table))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("this is not a table")
        out_of_range = tmp_path / "out-of-range.json"
        out_of_range.write_text(out_of_range_table())
        simulated = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        csv_schema_2 = tmp_path / "schema-2.csv"
        csv_schema_2.write_text(simulated.to_csv().replace("# schema=1", "# schema=2"))
        json_schema_true = tmp_path / "schema-true.json"
        json_schema_true.write_text(simulated.to_json().replace('"schema": 1', '"schema": true'))
        argv = [arg.format(table=table, garbage=garbage, dir=tmp_path,
                           out_of_range=out_of_range, csv_schema_2=csv_schema_2,
                           json_schema_true=json_schema_true) for arg in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.err.endswith("\n")
        assert "usage:" not in captured.err

    @pytest.mark.parametrize("command", [["analyze", "--test", "pentagon"], ["verify"]],
                             ids=["analyze", "verify"])
    def test_an_integer_past_the_digit_limit_is_not_valid_json(self, capsys, tmp_path, command):
        """``json`` refuses an integer of over 4300 digits with a plain ``ValueError``."""
        path = tmp_path / "table.json"
        path.write_text('{"schema": 1, "theta": 0.3, "eta": ' + "9" * 5000 + ', "records": []}')
        with pytest.raises(SystemExit) as err:
            main([*command, "--input", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

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
        with pytest.raises(SystemExit) as err:
            main(["verify", "--input", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert len(captured.err.encode()) <= 200


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out
