"""The standing mutation list in ``mutants.py`` stays runnable: each mutant's
text occurs exactly once in its file, and each killing test id names tests
that pytest collects.  The mutants in ``PINNED`` stay listed exactly as there.
The full run takes minutes, so it stays outside the suite; these checks take
one collection, and the choice of mutants by file runs no pytest at all.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT, Mutant, main, selection


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


OPTICS, CONTEXTUALITY = "src/bosonctx/optics.py", "src/bosonctx/contextuality.py"
PINNED = {  # id: (file, old, new, killer); mutants.py says what each fault does
    "block-index-check": (OPTICS, "if walked != index:", "if walked < 0:",
                          "tests/test_optics.py::TestStepWalk::"
                          "test_named_call_sequences_match_the_step_walk[alternating-11]"),
    "walks-shared-across-outputs": (OPTICS, "sub += rows", "sub += [_Row(rows[0])] * m",
                                    "tests/test_optics.py::TestSharedWalk::"
                                    "test_one_input_state_walks_each_mode_row_once"),
    "index-pass": (CONTEXTUALITY, "                neighbours[index[v]].append(index[u])\n", "",
                   "tests/test_contextuality.py::TestNeighbourIndex::"
                   "test_matches_the_pair_oracle_on_random_graphs"),
    "alpha-fold-degree": (CONTEXTUALITY, "if (rest & near).bit_count() > 1:",
                          "if (rest & near).bit_count() > 2:",
                          "tests/test_contextuality.py::TestIndependenceNumber::"
                          "test_matches_subset_enumeration"),
    "packing-stamp": (CONTEXTUALITY, "                stamp += 1\n", "",
                      "tests/test_contextuality.py::TestFractionalPackingMax::"
                      "test_matches_half_step_grid_oracle_on_random_graphs"),
    "splitter-reflectance": (OPTICS, "reflectance=math.sin(theta) ** 2",
                             "reflectance=1.0 - math.cos(theta) ** 2",
                             "tests/test_optics.py::TestBeamsplitterSpec::"
                             "test_transmittance_and_reflectance_are_cached_bit_for_bit"),
    "plain-float-pass-through": ("src/bosonctx/fock.py", "if type(value) is float:",
                                 "if isinstance(value, float):",
                                 "tests/test_optics.py::TestParameterInputs::"
                                 "test_accepted_values_are_stored_as_given"),
    "table-context-loop": ("src/bosonctx/experiment.py", "for ctx in ALL_CONTEXTS:",
                           "for ctx in ALL_CONTEXTS[:-1]:",
                           "tests/test_experiment.py::TestFullTable::"
                           "test_contexts_and_outcomes_follow_the_catalogue_order"),
    "chain-reuse-off": (OPTICS, "while held == index and", "while held < -1 and",
                        "tests/test_optics.py::TestSharedProducts::"
                        "test_one_input_state_forms_each_leading_run_once"),
    "chain-matched-by-value": (OPTICS, "rows[kept].walk[1] is blocks[kept]",
                               "rows[kept].walk[1] == blocks[kept]",
                               "tests/test_optics.py::TestSharedProducts::"
                               "test_rows_are_matched_by_identity_not_by_value"),
    "pass-finite-check": ("src/bosonctx/fock.py",
                          'amp if cmath.isfinite(amp) else complex_number(amp, "amplitude")',
                          "amp", "tests/test_optics.py::TestApplyInterferometer::"
                          "test_an_amplitude_that_overflows_is_refused"),
    "pass-prune": (OPTICS, "[out for out, a in out_terms.items() if not _kept(a)]", "[]",
                   "tests/test_optics.py::TestApplyInterferometer::"
                   "test_terms_up_to_the_prune_threshold_are_dropped"),
    "one-pass-through": (OPTICS, "if type(matrix) is _Matrix:", "if isinstance(matrix, tuple):",
                         "tests/test_optics.py::TestPermanent::"
                         "test_a_non_square_tuple_of_rows_is_refused"),
    "prune-overflow": ("src/bosonctx/fock.py", "math.hypot(z.real, z.imag)", "abs(z)",
                       "tests/test_fock.py::TestPureState::"
                       "test_a_finite_amplitude_whose_modulus_overflows_is_kept"),
    "entry-freeze": ("src/bosonctx/cli.py", "gc.freeze()", "pass",
                     "tests/test_cli.py::TestEntryPoint::"
                     "test_each_exit_keeps_its_bytes_with_the_heap_frozen_to_the_end"),
    "crossing-strict-sign": (CONTEXTUALITY, "if lo * hi < 0.0:", "if lo * hi <= 0.0:",
                             "tests/test_contextuality.py::TestSweepEta::"
                             "test_a_hit_at_an_intervals_right_end_is_that_grid_point"),
    "tolerance-from-checkers": ("src/bosonctx/cli.py", "tol = reports[0].tolerance",
                                "tol = args.tolerance",
                                "tests/test_cli.py::TestVerify::"
                                "test_tolerance_text_is_read_as_its_float"),
    "one-spelling-per-option": ("src/bosonctx/cli.py", "p.allow_abbrev = False",
                                "p.allow_abbrev = True",
                                "tests/test_cli.py::TestUsage::"
                                "test_a_prefix_of_an_option_is_no_spelling_of_it"),
    "argparse-exit-returned": ("src/bosonctx/cli.py", "return exc.code", "raise",
                               "tests/test_cli.py::TestUsage::test_unknown_command"),
}


@pytest.mark.parametrize("row", PINNED.values(), ids=PINNED.keys())
def test_the_pinned_mutants_are_listed(row):
    """Each pinned mutant is listed once, with its file, replacement and killer."""
    assert [m for m in MUTANTS if m.old == row[1]] == [Mutant(*row)]


def test_files_choose_their_mutants_by_the_full_list_numbers(monkeypatch):
    assert selection([]) == list(range(len(MUTANTS)))
    in_optics = [i for i, m in enumerate(MUTANTS) if m.file == OPTICS]
    assert selection([str(ROOT / OPTICS)]) == in_optics
    monkeypatch.chdir(ROOT)
    assert selection([OPTICS, f"./{CONTEXTUALITY}", OPTICS]) == \
        [i for i, m in enumerate(MUTANTS) if m.file in (OPTICS, CONTEXTUALITY)]


@pytest.mark.parametrize("path", ["README.md", "tests/mutants.py", "src/bosonctx/nothing.py"])
def test_a_path_that_names_no_listed_file_exits_2_before_any_run(path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    with pytest.raises(ValueError, match="names no file of the mutation list"):
        selection([OPTICS, path])
    monkeypatch.setattr(subprocess, "run", None)  # a pytest child would fail here
    assert main([path]) == 2
    assert "names no file of the mutation list" in capsys.readouterr().out
