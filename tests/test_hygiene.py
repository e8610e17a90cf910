"""Source and suite hygiene: no module of the package imports a name it never
uses or defines a top-level function or class that pytest would collect, no
private name the package defines goes unreferenced, and a failing property
test fails the run without stopping it.  Every field of a ``ValueError`` message
built in the package echoes at most 40 characters (``!r:.40``, ``!s:.40``, or
``:.40`` on the text of ``fock._echo``), and a huge input at each refusal that can
name one gives a message of at most 200 characters; an int past Python's
int-to-text digit limit, whose ``repr`` raises, still gets the refusal's own text.

``__init__`` is exempt from the import rule, since its imports are the
package's exports, and so are ``from __future__`` imports.  A name counts as
used when it appears as an identifier anywhere in the module, annotations
included.  A function or class named ``test…`` or ``Test…`` would run as a test
in every test module that imports it.  A private name is a single-underscore
name (not a dunder) defined at a module's top level or in a class body, by
``def``, ``class`` or assignment; it counts as referenced when some module of
the package reads it as an identifier or an attribute, or imports it by name.
A message field needs no precision only when it cannot grow with input: an
all-capitals module constant, a join of such constants or of their entries, a
``len(…)``, ``name`` (the label the number and matrix rules take from their
callers) and ``exc`` (the exception text the JSON and CSV readers pass on).
"""

from __future__ import annotations

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bosonctx.contextuality import (PENTAGON, ExclusivityGraph, cycle_graph, derive_exclusivity,
                                    exact_search_size, fractional_packing_max,
                                    independence_number, inequality_sum, lovasz_theta_odd_cycle,
                                    standard_events, sweep_eta)
from bosonctx.experiment import OutcomeTable, full_table, parse_table
from bosonctx.fock import make_fock, pure_state
from bosonctx.optics import (BALANCED, BeamsplitterSpec, DistinguishabilityParam, permanent,
                             scattering_amplitude)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bosonctx"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no identifier uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def collectable_names(source: str) -> list[str]:
    """Top-level functions and classes whose names start with ``test``, in any case."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.lower().startswith("test")]


def private_definitions(tree: ast.Module) -> list[str]:
    """Single-underscore names bound at the top level or in any class body."""
    names = []
    for body in [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(tree: ast.Module) -> set[str]:
    """Names read as identifiers or attributes, or imported by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def orphaned_private_names(sources: list[str]) -> list[str]:
    """The private names defined in ``sources`` that none of them references."""
    trees = [ast.parse(source) for source in sources]
    used = set().union(*map(references, trees))
    return [name for tree in trees for name in private_definitions(tree) if name not in used]


def _constant(node: ast.expr) -> bool:
    """An all-capitals name, or an entry of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id.isupper()


def _fixed(node: ast.expr) -> bool:
    """Whether a message field cannot grow with input (see the module docstring)."""
    if isinstance(node, ast.Name):
        return node.id.isupper() or node.id in ("name", "exc")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "len"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
            and all(map(_constant, node.args)))


def unbounded_echoes(source: str) -> list[str]:
    """The fields of ``ValueError`` f-string messages with neither a 40-character
    precision nor an exemption, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "ValueError":
            for field in (f for arg in node.args for f in ast.walk(arg)
                          if isinstance(f, ast.FormattedValue)):
                spec = field.format_spec
                bounded = spec is not None and [getattr(v, "value", None)
                                                for v in spec.values] == [".40"]
                if not bounded and not _fixed(field.value):
                    found.append(ast.unparse(field.value))
    return found


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"cli.py", "contextuality.py", "experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_nothing_pytest_would_collect(path):
    assert collectable_names(path.read_text()) == []


def test_every_private_name_is_referenced():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert sum(len(private_definitions(ast.parse(s))) for s in sources) > 0
    assert orphaned_private_names(sources) == []


def test_an_orphaned_private_name_is_found():
    helpers = ("_LIMIT: int = 3\n_CACHE = {}\n__version__ = '1'\n"
               "def _shared():\n    pass\n"
               "def _orphan():\n    _CACHE = 1\n"
               "class _Reader:\n    _header = None\n"
               "    def _read_header(self):\n        return self._header\n"
               "    def __repr__(self):\n        return ''\n")
    user = ("from helpers import _shared\n"
            "_ready = _LIMIT\n"
            "def read():\n    def _inner():\n        pass\n    return _Reader()\n")
    assert orphaned_private_names([helpers, user]) == ["_CACHE", "_orphan", "_read_header",
                                                      "_ready"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_refusal_echoes_at_most_40_characters(path):
    assert unbounded_echoes(path.read_text()) == []


def test_an_unbounded_echo_is_found():
    source = ("def check(x, name, exc, rows):\n"
              "    raise ValueError(f'{name} {x!r:.40} {LIMIT} {len(rows)} {exc}')\n"
              "    raise ValueError(f\"{', '.join(CONTEXTS)} {', '.join(OUTCOMES[x])}\")\n"
              "    raise ValueError(f'{x} got {x!r}, {rows[0]!s:.80} in {LIMIT + x}')\n"
              "    raise ValueError('got ' f'{\", \".join(rows)}')\n"
              "    raise TypeError(f'{x}')\n"
              "    return f'{x}'\n")
    assert unbounded_echoes(source) == ["x", "x", "rows[0]", "LIMIT + x", "', '.join(rows)"]


# refusals whose echoed value can grow with input, each driven by a huge one
_VALID = full_table(BALANCED, DistinguishabilityParam(1.0))
_HUGE = "x" * 10**5
ECHO_SITES = {
    "table-missing-contexts": lambda: OutcomeTable(
        0.1, 0.5, {f"k{i}": {} for i in range(10**5)}).validate_structure(),
    "table-has-no-context": lambda: _VALID.context_distribution(_HUGE),
    "probability-out-of-range": lambda: OutcomeTable(
        _VALID.theta, _VALID.eta, {**_VALID.contexts, "A": {"at": Fraction(10**3000, 3),
                                                           "ar": 0.0}}).validate_structure(),
    "table-text-type": lambda: parse_table(type(_HUGE, (), {})()),
    "unknown-test": lambda: standard_events(_HUGE),
    "graph-duplicate-labels": lambda: ExclusivityGraph(("v",) * 10**5, frozenset()),
    "graph-self-loop": lambda: ExclusivityGraph((_HUGE,), frozenset({(_HUGE, _HUGE)})),
    "graph-unknown-vertex": lambda: ExclusivityGraph(("a",), frozenset({("a", _HUGE)})),
    "exact-search-size": lambda: exact_search_size(10**300),
    "not-a-graph": lambda: independence_number(_HUGE),
    "not-iterable-events": lambda: derive_exclusivity(10**300),
    "ragged-matrix": lambda: permanent([[1] * (i % 200 + 1) for i in range(1000)]),
    "photon-number-mismatch": lambda: scattering_amplitude([[1, 0], [0, 1]], (10**300, 0),
                                                           (0, 1)),
    "pure-state-mode-count": lambda: pure_state({(1,): 1, (0,) * 10**5: 1}),
    "pure-state-modes-argument": lambda: pure_state({(1,): 1}, modes=_HUGE),
    "sweep-steps": lambda: sweep_eta(PENTAGON, BALANCED, steps=10**300),
    "sweep-grid-and-steps": lambda: sweep_eta(PENTAGON, BALANCED, [0.0, 1.0], steps=10**300),
    "odd-cycle-length": lambda: lovasz_theta_odd_cycle(10**300),
}


@pytest.mark.parametrize("site", ECHO_SITES)
def test_a_huge_input_gives_a_short_refusal(site):
    with pytest.raises(ValueError) as err:
        ECHO_SITES[site]()
    assert len(str(err.value)) <= 200, str(err.value)[:300]


# refusals that echo a number, each given one past Python's int-to-text digit limit,
# whose repr raises before the 40-character precision applies
_PAST_LIMIT = 10**5000
_FLOAT = "must be a number that fits a float, got <int too long to write out>"
_WHOLE = "must be a whole number from {} up that fits a float, got <int too long to write out>"


def _with_probability(p):
    return OutcomeTable(_VALID.theta, _VALID.eta, {**_VALID.contexts, "A": {"at": p, "ar": 0.0}})


DIGIT_LIMIT_SITES = {
    "eta": (lambda: DistinguishabilityParam(_PAST_LIMIT), "eta " + _FLOAT),
    "theta": (lambda: BeamsplitterSpec(_PAST_LIMIT), "theta " + _FLOAT),
    "cycle-graph": (lambda: cycle_graph(_PAST_LIMIT), "cycle length " + _WHOLE.format(3)),
    "odd-cycle-length": (lambda: lovasz_theta_odd_cycle(_PAST_LIMIT),
                         "cycle length " + _WHOLE.format(3)),
    "sweep-steps": (lambda: sweep_eta(PENTAGON, BALANCED, steps=_PAST_LIMIT),
                    "steps " + _WHOLE.format(2)),
    "sweep-grid": (lambda: sweep_eta(PENTAGON, BALANCED, [0.0, _PAST_LIMIT]), "eta " + _FLOAT),
    "sweep-grid-and-steps": (lambda: sweep_eta(PENTAGON, BALANCED, [0.0, 1.0], steps=_PAST_LIMIT),
                             "give an eta grid or steps, not both; "
                             "got steps <int too long to write out>"),
    "exact-search-size": (lambda: exact_search_size(_PAST_LIMIT),
                          "exact search limited to 24 vertices, got <int too long to write out>"),
    "not-a-graph": (lambda: fractional_packing_max(_PAST_LIMIT),
                    "a graph must be an ExclusivityGraph, got <int too long to write out>"),
    "not-iterable-events": (lambda: inequality_sum(_VALID, _PAST_LIMIT),
                            "events must be an iterable of EventSpec, "
                            "got <int too long to write out>"),
    "not-an-event": (lambda: derive_exclusivity([_PAST_LIMIT]),
                     "an event must be an EventSpec, got <int too long to write out>"),
    "occupation": (lambda: make_fock([_PAST_LIMIT]), "occupation number " + _WHOLE.format(0)),
    "amplitude": (lambda: pure_state({(1,): _PAST_LIMIT}),
                  "amplitude must be a finite number, got <int too long to write out>"),
    "probability-int": (lambda: _with_probability(_PAST_LIMIT).validate_structure(),
                        "probability <int too long to write out> of 'at' in 'A' "
                        "is outside [0, 1]"),
    "probability-fraction": (lambda: _with_probability(Fraction(_PAST_LIMIT, 3)).validate(),
                             "probability <Fraction too long to write out> of 'at' in 'A' "
                             "is outside [0, 1]"),
}


@pytest.mark.parametrize("site", DIGIT_LIMIT_SITES)
def test_a_number_past_the_digit_limit_gets_the_refusal(site):
    call, message = DIGIT_LIMIT_SITES[site]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_a_collectable_name_is_found():
    source = ("def test_bounds():\n    pass\n"
              "class TestTable:\n    pass\n"
              "async def testing():\n    pass\n"
              "def standard_bounds():\n    def test_inner():\n        pass\n"
              "class Table:\n    def test_method(self):\n        pass\n"
              "tested = 1\n")
    assert collectable_names(source) == ["test_bounds", "TestTable", "testing"]


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from itertools import combinations, islice\n"
              "x: j.Any = islice\n")
    assert unused_imports(source) == ["os", "combinations"]


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    """Under the repository's warning filters, hypothesis's failure report
    (which imports libcst) must not turn into an internal error (exit 3)."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
