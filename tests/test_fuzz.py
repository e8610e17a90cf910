"""Property tests of the two outside inputs, table files and argv, of the
requirement matcher against labels read off the token text, and of the
library's parameter types fed junk.

``parse_table`` may refuse a text only with ``ValueError`` and reads the
header of a JSON and a CSV table alike, ``main`` must end with exit code 0, 1
or 2 whatever its arguments (with usage text only for a fault of argparse's
grammar, and any other refusal one ``error:`` line), and a table that
``verify`` passes also passes ``OutcomeTable.validate``.  The argv grammar
keeps ``--steps`` at most 200 and ``cycle:N`` at most 30, so no case does much
work.  ``check_requirements`` picks exactly the context's tokens whose spelled
labels meet the requirements (``oracles.token_meets``), and refuses exactly
the empty set and the sets no outcome of the context meets.  The library's constructors and readers
(``BeamsplitterSpec``, ``DistinguishabilityParam``, ``OutcomeTable.validate(tol)``,
``parse_table``, ``EventSpec``, ``ExclusivityGraph``, ``make_fock``,
``pure_state``, ``fock_basis``, ``cycle_graph`` and ``lovasz_theta_odd_cycle``)
given any value either refuse it with ``ValueError`` or return a value; an
accepted parameter is stored as a plain float, and a table simulated from any
accepted theta and eta reads back equal from its JSON and its CSV.  The three
number rules, and the builders that use them, refuse every boolean, numpy's
included, while numpy numbers are still read.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosonctx.cli import main
from bosonctx.contextuality import (
    EventSpec,
    ExclusivityGraph,
    cycle_graph,
    lovasz_theta_odd_cycle,
)
from bosonctx.experiment import (
    ALL_CONTEXTS,
    OUTCOMES,
    check_requirements,
    full_table,
    load_table,
    parse_table,
)
from bosonctx.fock import (
    complex_number,
    fock_basis,
    make_fock,
    pure_state,
    real_number,
    whole_number,
)
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam, permanent

from oracles import token_meets

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

TABLE = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
TABLE_TEXTS = (TABLE.to_json(), TABLE.to_csv())


def _edit_records(table, edit) -> str:
    """``table`` as JSON, with each record passed through ``edit`` (None drops it)."""
    payload = json.loads(table.to_json())
    payload["records"] = [r for r in map(edit, payload["records"]) if r is not None]
    return json.dumps(payload)


# p(t) = 1.5 and p(r) = -0.5 in each single-fiber context, normalized and
# passing both checkers, since every pair context holds unresolved mass
OUT_OF_RANGE = _edit_records(TABLE, lambda r: r if len(r["context"]) == 2 else {
    **r, "probability": 1.5 if r["outcome"].endswith("t") else -0.5})
# the table at theta = 0, eta = 0.5 without its zero A,ar record
OMITTED_ZERO = _edit_records(
    full_table(BeamsplitterSpec(0.0), DistinguishabilityParam(0.5)),
    lambda r: None if (r["context"], r["outcome"]) == ("A", "ar") else r)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8)


@st.composite
def edited_tables(draw) -> str:
    """A serialized table with a few short spans replaced by arbitrary text."""
    text = draw(st.sampled_from(TABLE_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 20)))
        text = text[:start] + draw(st.text(max_size=10)) + text[end:]
    return text


@st.composite
def json_tables(draw) -> str:
    """A JSON table with one header field or one record field set to any JSON value."""
    payload = json.loads(TABLE_TEXTS[0])
    value = draw(JSON_VALUES)
    if draw(st.booleans()):
        payload[draw(st.sampled_from(["schema", "theta", "eta", "records"]))] = value
    else:
        record = draw(st.sampled_from(payload["records"]))
        record[draw(st.sampled_from(["context", "outcome", "probability"]))] = value
    return json.dumps(payload)


@SETTINGS
@given(st.text() | edited_tables() | json_tables())
def test_parse_table_raises_only_value_error(text):
    try:
        parse_table(text)
    except ValueError:
        pass


# Any text a CSV comment line can hold: no line boundary of str.splitlines
HEADER_TEXTS = (st.sampled_from(["1", "2", " 1 ", "1.0", "0.3", "1e0", "nan", "inf", "true", ""])
                | st.floats().map(repr)
                | st.text(st.characters(blacklist_categories=("Cs", "Zl", "Zp"),
                                        blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85"),
                          max_size=8))


def _with_header(key: str, text: str | None) -> tuple[str, str]:
    """``TABLE`` as JSON and as CSV with the header field ``key`` set to ``text``,
    a JSON string in one and ``# key=text`` in the other, or removed from both."""
    payload = json.loads(TABLE_TEXTS[0])
    lines = [line for line in TABLE_TEXTS[1].splitlines(keepends=True)
             if not line.startswith(f"# {key}=")]
    if text is None:
        del payload[key]
    else:
        payload[key] = text
        lines.insert(0, f"# {key}={text}\n")
    return json.dumps(payload), "".join(lines)


def _parsed(text: str):
    """The table's header and records, with NaN comparable, or ``ValueError``."""
    try:
        table = parse_table(text)
    except ValueError:
        return ValueError
    return repr(table.theta), repr(table.eta), table.contexts


@SETTINGS
@given(st.sampled_from(["schema", "theta", "eta"]), st.none() | HEADER_TEXTS)
@example("schema", "2")
@example("schema", "1")
@example("theta", "0.3\x1f")
@example("eta", None)
def test_both_formats_read_the_header_alike(key, text):
    as_json, as_csv = _with_header(key, text)
    assert _parsed(as_json) == _parsed(as_csv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    directory = tmp_path_factory.mktemp("fuzz-inputs")
    files = {
        "table.json": TABLE_TEXTS[0],
        "table.csv": TABLE_TEXTS[1],
        "perturbed.csv": "".join("A,at,0.5\n" if line.startswith("A,at,") else line
                                 for line in TABLE_TEXTS[1].splitlines(keepends=True)),
        "bool-theta.json": TABLE_TEXTS[0].replace('"theta": 0.3', '"theta": true', 1),
        "garbage.txt": "not a table\n",
        "out-of-range.json": OUT_OF_RANGE,
        "omitted-zero.json": OMITTED_ZERO,
    }
    for name, text in files.items():
        (directory / name).write_text(text)
    paths = {name: str(directory / name) for name in files}
    paths.update(missing=str(directory / "missing.json"), directory=str(directory),
                 out=str(directory / "out.txt"), unwritable=str(directory / "missing" / "x"))
    return paths


NUMBERS = st.sampled_from(["0", "0.3", "1", "1.2", "-7", "1e308", "nan", "inf", "-inf", "x", ""])
ETAS = st.sampled_from(["0", "0.37", "1", "1.5", "-0.1", "nan", "x"])
STEPS = st.integers(-3, 200).map(str) | st.sampled_from(["x", "", "2.5", "7.0", "1e2"])
GRAPHS = (st.sampled_from(["pentagon", "triangle", "square", "cycle:", "cycle:x", ""])
          | st.integers(-2, 30).map(lambda n: f"cycle:{n}"))
TESTS = st.sampled_from(["pentagon", "triangle", "hexagon"])
FILES = st.sampled_from(["table.json", "table.csv", "perturbed.csv", "bool-theta.json",
                         "garbage.txt", "out-of-range.json", "omitted-zero.json", "missing",
                         "directory"])
TOLERANCES = st.sampled_from(["1e-12", "1e-3", "0", "-1", "nan", "inf", "x"])

OPTIONS = {
    "simulate": {"--theta": NUMBERS, "--theta-deg": NUMBERS, "--eta": ETAS,
                 "--format": st.sampled_from(["json", "csv", "xml"])},
    "analyze": {"--test": TESTS, "--theta": NUMBERS, "--theta-deg": NUMBERS, "--eta": ETAS,
                "--input": FILES},
    "bounds": {"--graph": GRAPHS},
    "sweep": {"--test": TESTS, "--theta": NUMBERS, "--theta-deg": NUMBERS, "--steps": STEPS,
              "--format": st.sampled_from(["json", "csv", "xml"])},
    "verify": {"--input": FILES, "--tolerance": TOLERANCES},
}


@st.composite
def argvs(draw, paths: dict[str, str]) -> list[str]:
    command = draw(st.sampled_from([*OPTIONS, "frobnicate"]))
    argv = [command]
    options = OPTIONS.get(command, {})
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)) if options else []:
        value = draw(options[flag])
        argv += [flag, paths.get(value, value) if flag == "--input" else value]
    if draw(st.booleans()):
        argv += ["-o", paths[draw(st.sampled_from(["out", "unwritable", "directory"]))]]
    if draw(st.integers(0, 9)) == 0:  # a stray flag, or an option spelt by a prefix of it
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.sampled_from([
            ["-h"], ["--version"], ["--bogus"], ["-o"], ["--et", "0.5"], ["--form", "csv"],
            ["--in", paths["table.json"]], ["--tol", "1e-3"]]))
    return argv


def syntax_fault(argv: list[str]) -> bool:
    """Whether argparse's own grammar refuses ``argv``, the one refusal that prints
    usage: an unknown command or option, an option with no value, a missing
    required option, ``--format xml``, or ``--theta`` with ``--theta-deg``.  An
    option's next token is no value when argparse takes it for an option: it
    starts with ``-`` and is not a negative number, as ``-inf`` or ``-h``.  Each
    option has one spelling, so any flag outside ``OPTIONS``, a prefix of an
    option included, is unknown, and the model is exact: for an argv without
    ``-h`` or ``--version``, which stop argparse where they stand, it holds just
    when argparse prints usage."""
    command, *rest = argv
    if command not in OPTIONS:
        return True
    given, i = set(), 0
    while i < len(rest):
        flag = rest[i]
        if flag == "-h":
            i += 1
            continue
        if flag not in OPTIONS[command] and flag != "-o":
            return True
        if i + 1 == len(rest) or (rest[i + 1].startswith("-")
                                  and not re.fullmatch(r"-\d+|-\d*\.\d+", rest[i + 1])):
            return True
        if flag == "--format" and rest[i + 1] not in ("json", "csv"):
            return True
        given.add(flag)
        i += 2
    required = {"analyze": "--test", "bounds": "--graph", "sweep": "--test", "verify": "--input"}
    missing = command in required and required[command] not in given
    return missing or {"--theta", "--theta-deg"} <= given


@SETTINGS
@given(data=st.data())
def test_main_exits_with_a_contract_code(inputs, data):
    """Exit 0, 1 or 2; usage text exactly for a fault of argparse's grammar, and any
    other refusal one ``error:`` line with nothing on stdout."""
    argv = data.draw(argvs(inputs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    usage = code == 2 and "usage:" in err.getvalue()
    if usage or not {"-h", "--version"} & set(argv):
        assert usage == syntax_fault(argv), err.getvalue()
    if code == 2 and not usage:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@SETTINGS
@given(edited_tables() | json_tables())
@example(OUT_OF_RANGE)
def test_a_table_verify_passes_is_valid(inputs, text):
    path = f"{inputs['directory']}/candidate.txt"
    with open(path, "w") as handle:
        handle.write(text)
    try:
        table = load_table(path)
    except ValueError:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--input", path])
    if code == 0:  # the report says "passed": true
        table.validate()


# Fibers A-C plus junk keys; labels t and r plus junk, None and an unhashable list
REQUIREMENTS = st.dictionaries(
    st.sampled_from(["A", "B", "C", "a", "D", "AB", "", 0]),
    st.sampled_from(["t", "r", None, "T", "x", "", 1]) | st.lists(st.sampled_from("tr"),
                                                                   max_size=2),
    max_size=4)


@SETTINGS
@given(st.sampled_from(ALL_CONTEXTS), REQUIREMENTS)
@example("AB", {"A": ["t"]})
@example("AB", {})
@example("AB", {"A": "t", "B": "t"})
@example("A", {"A": "t", "B": "t"})
def test_check_requirements_agrees_with_the_token_text(ctx, requirements):
    meeting = frozenset(t for t in OUTCOMES[ctx] if token_meets(t, requirements))
    try:
        tokens = check_requirements(ctx, requirements)
    except ValueError:
        tokens = None
    assert (tokens is None) == (not requirements or not meeting)
    assert tokens in (None, meeting)


# Anything a caller might pass where a number or a table text belongs
JUNK = (st.none() | st.booleans() | st.integers() | st.floats() | st.complex_numbers()
        | st.fractions() | st.decimals() | st.text(max_size=8) | st.binary(max_size=8)
        | st.lists(st.floats(), max_size=2))


def _junk_examples(test):
    for value in (None, "x", 1j, [0.5], b"{}", Decimal("NaN"), Decimal("sNaN"), 10**400):
        test = example(value)(test)
    return test


@SETTINGS
@given(JUNK)
@_junk_examples
def test_parameter_types_refuse_with_value_error_or_store_as_given(value):
    """"As given" means as the number rule reads it: a plain float."""
    for make, field in ((BeamsplitterSpec, "theta"), (DistinguishabilityParam, "eta")):
        try:
            made = make(value)
        except ValueError:
            continue
        stored = getattr(made, field)
        assert type(stored) is float and stored == float(value)


def numbers(lo: float, hi: float):
    """Numbers of every kind the parameter types read, from ``lo`` to ``hi``:
    ints, floats, fractions, decimals, numeric text, numpy floats and 0-d arrays."""
    floats = st.floats(lo, hi)
    return (floats | st.integers(math.ceil(lo), math.floor(hi)) | st.fractions(lo, hi)
            | st.decimals(lo, hi, allow_nan=False) | floats.map(repr)
            | floats.map(np.float64) | floats.map(np.array))


def _every_kind_examples(test):
    for theta, eta in ((1, 0), (0.3, 1), (Fraction(1, 3), Fraction(1, 3)),
                       (Decimal("0.7"), Decimal("0.5")), ("0.3", " 0.37 "),
                       (np.float64(0.3), np.float64(0.37)), (np.array(0.3), np.array(0.37)),
                       (b"0.3", b"1"), (1e300, 0.5)):
        test = example(theta, eta)(test)
    return test


@SETTINGS
@given(numbers(-10, 10), numbers(0, 1))
@_every_kind_examples
def test_a_simulated_table_reads_back_equal(theta, eta):
    table = full_table(BeamsplitterSpec(theta), DistinguishabilityParam(eta))
    assert parse_table(table.to_json()) == table
    assert parse_table(table.to_csv()) == table


@pytest.mark.parametrize("value", [True, np.array([0.5]), np.True_, np.array(True)],
                         ids=["True", "array", "np.True_", "array(True)"])
def test_a_boolean_or_an_array_is_no_parameter(value):
    for make in (BeamsplitterSpec, DistinguishabilityParam):
        with pytest.raises(ValueError, match="must be a number that fits a float"):
            make(value)


BOOLEANS = [True, False, np.True_, np.False_, np.array(True), np.array([True])]


@pytest.mark.parametrize("value", BOOLEANS, ids=map(repr, BOOLEANS))
def test_no_number_rule_reads_a_boolean(value):
    for read in (real_number, complex_number, lambda v, name: whole_number(v, name, 0)):
        with pytest.raises(ValueError, match="^x must be a"):
            read(value, "x")


@pytest.mark.parametrize("build", [
    lambda: make_fock([True, 0]),
    lambda: make_fock([np.int64(1), np.True_]),
    lambda: pure_state({(1, 0): True}),
    lambda: permanent([[np.True_]]),
    lambda: fock_basis(2, np.array(True)),
    lambda: cycle_graph(np.array(True)),
], ids=["make_fock", "make_fock-numpy", "pure_state", "permanent", "fock_basis", "cycle_graph"])
def test_the_builders_refuse_booleans(build):
    with pytest.raises(ValueError):
        build()


def test_numpy_numbers_are_still_read():
    for value in (np.float64(0.5), np.array(0.5)):
        assert type(real_number(value, "x")) is float and real_number(value, "x") == 0.5
        assert complex_number(value, "x") == 0.5 + 0j
    assert type(whole_number(np.int64(2), "n", 0)) is int and whole_number(np.int64(2), "n", 0) == 2
    assert make_fock([np.int64(2), np.float64(0.0)]) == make_fock([2, 0])
    assert DistinguishabilityParam(np.float64(0.5)).eta == 0.5
    assert pure_state({(1, 0): np.float64(0.5)}).amplitude((1, 0)) == 0.5


@SETTINGS
@given(JUNK)
@_junk_examples
def test_validate_tolerance_raises_only_value_error(tol):
    try:
        TABLE.validate(tol)
    except ValueError:
        pass


@SETTINGS
@given(JUNK)
@_junk_examples
def test_parse_table_of_any_value_raises_only_value_error(value):
    try:
        parse_table(value)
    except ValueError:
        pass


# Junk whose numbers stay small, for the builders whose work grows with a number
SMALL_JUNK = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-3, 6)
              | st.sampled_from([math.inf, -math.inf, math.nan, Decimal("NaN"), Decimal("sNaN")])
              | st.fractions(-3, 6) | st.decimals(-3, 6, allow_nan=False)
              | st.complex_numbers(max_magnitude=6) | st.text(max_size=4)
              | st.binary(max_size=4) | st.lists(st.integers(0, 3), max_size=3))
OCCUPATIONS = SMALL_JUNK | st.lists(SMALL_JUNK, max_size=3)
HASHABLE_OCCUPATIONS = st.lists(SMALL_JUNK.filter(lambda v: not isinstance(v, list)),
                                max_size=3).map(tuple) | st.text(max_size=3)


def _value_or_value_error(build, *args, **kwargs) -> None:
    try:
        build(*args, **kwargs)
    except ValueError:
        pass


@SETTINGS
@given(JUNK | st.sampled_from(ALL_CONTEXTS), JUNK | st.sampled_from(ALL_CONTEXTS),
       JUNK | REQUIREMENTS)
@example("x", "AB", None)
@example("x", "AB", 5)
@example("x", ["AB"], {"A": "t"})
def test_event_spec_of_any_value(label, context, requirements):
    _value_or_value_error(EventSpec, label, context, requirements)


VERTICES = JUNK | st.lists(st.sampled_from("abc") | JUNK, max_size=3)


@SETTINGS
@given(VERTICES, JUNK | st.lists(st.tuples(VERTICES, VERTICES) | JUNK, max_size=3))
@example(None, frozenset())
@example(["a", "b"], [("a", ["b"])])
@example([["a"]], [])
@example(["a", "b"], "ab")
def test_exclusivity_graph_of_any_value(vertices, edges):
    _value_or_value_error(ExclusivityGraph, vertices, edges)


@SETTINGS
@given(OCCUPATIONS)
@example(None)
@example(10**400)
@example([1, 2.5])
@example("12")
def test_make_fock_of_any_value(occupations):
    _value_or_value_error(make_fock, occupations)


@SETTINGS
@given(SMALL_JUNK | st.dictionaries(HASHABLE_OCCUPATIONS, JUNK, max_size=3),
       st.none() | SMALL_JUNK)
@example(None, None)
@example({(1, 0): "1"}, None)
@example({(1, 0): None}, None)
@example({}, "x")
def test_pure_state_of_any_value(terms, modes):
    _value_or_value_error(pure_state, terms, modes=modes)


@SETTINGS
@given(SMALL_JUNK, SMALL_JUNK)
@example(2.5, 2)
@example(None, 2)
@example(2, "2")
def test_fock_basis_of_any_value(total, modes):
    _value_or_value_error(fock_basis, total, modes)


@SETTINGS
@given(SMALL_JUNK)
@_junk_examples
def test_cycle_graph_of_any_value(n):
    _value_or_value_error(cycle_graph, n)


@SETTINGS
@given(JUNK)
@_junk_examples
@example(3.0)
@example(Decimal(5))
@example(2**1023)
def test_lovasz_theta_odd_cycle_of_any_value(n):
    _value_or_value_error(lovasz_theta_odd_cycle, n)
