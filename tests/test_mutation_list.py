"""The standing mutation list in ``mutants.py`` stays runnable: each mutant's
text occurs exactly once in its file, and each killing test id names tests
that pytest collects.  The full run takes minutes, so it stays outside the
suite; these checks take one collection.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("i", range(len(MUTANTS)))  # numbered as the runner reports them
def test_each_mutant_text_occurs_once_in_its_file(i):
    mutant = MUTANTS[i]
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def test_every_killer_id_is_collected():
    killers = sorted({m.killer for m in MUTANTS})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *killers], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = done.stdout.splitlines()
    for killer in killers:
        # a class or a parametrized test stands for the ids it collects
        assert any(line == killer or line.startswith((f"{killer}::", f"{killer}["))
                   for line in collected), killer


@pytest.mark.parametrize("old, new", [("if walked != index:", "if walked < 0:"),
                                      ("sub += [row] * m", "sub += [_Row(row)] * m")],
                         ids=["block-index-check", "walks-shared-across-outputs"])
def test_the_shared_walk_mutants_are_listed(old, new):
    """The two faults of the walk that one input state's outputs share: one
    changes results, the other only the work done, so its killer counts walks."""
    assert [(m.file, m.new) for m in MUTANTS if m.old == old] == [("src/bosonctx/optics.py", new)]


def test_the_index_pass_mutant_is_listed():
    """Dropping the reverse-direction append of ``ExclusivityGraph``'s index pass,
    killed by the neighbour oracle."""
    assert [(m.file, m.new, m.killer) for m in MUTANTS
            if m.old.strip() == "neighbours[index[v]].append(index[u])"] == [
        ("src/bosonctx/contextuality.py", "",
         "tests/test_contextuality.py::TestNeighbourIndex::"
         "test_matches_the_pair_oracle_on_random_graphs")]


@pytest.mark.parametrize("old, new, killer", [
    ("if (rest & near).bit_count() > 1:", "if (rest & near).bit_count() > 2:",
     "TestIndependenceNumber::test_matches_subset_enumeration"),
    ("stamp += 1", "",
     "TestFractionalPackingMax::test_matches_half_step_grid_oracle_on_random_graphs")],
    ids=["alpha-fold-degree", "packing-stamp"])
def test_the_bound_search_mutants_are_listed(old, new, killer):
    """A fold of a degree-2 vertex in the search for alpha, and dead ends kept
    across augmentations in the packing search, each killed by its oracle test."""
    assert [(m.file, m.new, m.killer) for m in MUTANTS if m.old.strip() == old] == [
        ("src/bosonctx/contextuality.py", new, f"tests/test_contextuality.py::{killer}")]


def test_the_splitter_constructor_mutant_is_listed():
    """A splitter whose reflectance is 1 - T rather than sin^2 theta, which agree
    only up to rounding, killed by the bit-for-bit T and R test."""
    assert [(m.file, m.new, m.killer) for m in MUTANTS
            if m.old == "reflectance=math.sin(theta) ** 2"] == [
        ("src/bosonctx/optics.py", "reflectance=1.0 - math.cos(theta) ** 2",
         "tests/test_optics.py::TestBeamsplitterSpec::"
         "test_transmittance_and_reflectance_are_cached_bit_for_bit")]


@pytest.mark.parametrize("file, old, new, killer", [
    ("src/bosonctx/fock.py", "if type(value) is float:", "if isinstance(value, float):",
     "tests/test_optics.py::TestParameterInputs::test_accepted_values_are_stored_as_given"),
    ("src/bosonctx/experiment.py", "for ctx in ALL_CONTEXTS:", "for ctx in ALL_CONTEXTS[:-1]:",
     "tests/test_experiment.py::TestFullTable::"
     "test_contexts_and_outcomes_follow_the_catalogue_order")],
    ids=["plain-float-pass-through", "table-context-loop"])
def test_the_sweep_point_mutants_are_listed(file, old, new, killer):
    """A numpy float passed through by the plain-float shortcut of ``real_number``,
    killed by the types of stored parameters, and a table missing a context,
    killed by the table-order test."""
    assert [(m.file, m.new, m.killer) for m in MUTANTS if m.old == old] == [(file, new, killer)]


@pytest.mark.parametrize("old, new, killer", [
    ("while held == index and", "while held < -1 and",
     "test_one_input_state_forms_each_leading_run_once"),
    ("rows[kept].walk[1] is blocks[kept]", "rows[kept].walk[1] == blocks[kept]",
     "test_rows_are_matched_by_identity_not_by_value")],
    ids=["chain-reuse-off", "chain-matched-by-value"])
def test_the_shared_product_mutants_are_listed(old, new, killer):
    """The two faults of the products that one input state's outputs share: both
    keep every bit and change only the work done, so their killers count products."""
    assert [(m.file, m.new, m.killer) for m in MUTANTS if m.old == old] == [
        ("src/bosonctx/optics.py", new, f"tests/test_optics.py::TestSharedProducts::{killer}")]
