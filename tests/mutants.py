"""A standing mutation list: one-line faults the suite must catch, each with the
test expected to catch it.

Run from the root of a checkout (stdlib only; pytest must be importable):

    python3 tests/mutants.py [FILE ...]

With no FILE it runs every mutant; with FILEs, only the mutants of those
files, numbered as in the full list.  Each mutant replaces one exact text,
found exactly once, in one file of a fresh temporary copy of the checkout.
Its killing test then runs there with pytest, stopped after TIMEOUT seconds.
The report gives each mutant as killed (the test failed), survived (it passed)
or timed out.  Before any mutant, the killing tests must pass on an unmutated
copy.  The exit status is 0 when every mutant is killed, 1 when one survives
or times out, and 2 when a FILE names no file of the list, a mutant's text is
no longer in its file or a killing test fails on the unmutated copy.

This file is not a test module: pytest does not collect it.  A new mutant is
one more ``Mutant`` here and, to pin it against a later edit, one more row of
``PINNED`` in ``tests/test_mutation_list.py``, not one more test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0
SKIP = shutil.ignore_patterns(".git", "_run", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    killer: str


GATES = "tests/test_experiment.py::TestFullTable::test_gates_decide_exactly_at_the_tolerance"
BLOCKS = "tests/test_optics.py::TestRowWalk::test_walks_of_several_blocks_match_the_step_walk"
PASS = "tests/test_optics.py::TestAmplitudePass"
SHARED = "tests/test_optics.py::TestSharedWalk"
PRODUCTS = "tests/test_optics.py::TestSharedProducts"
APPLY = "tests/test_optics.py::TestApplyInterferometer"
MUTANTS = (
    # a probability up to two tolerances above 1 passes the range check
    Mutant("src/bosonctx/experiment.py",
           "if not (-tol <= p <= 1.0 + tol):", "if not (-tol <= p <= 1.0 + 2 * tol):",
           GATES),
    # normalization refuses only a deviation above two tolerances
    Mutant("src/bosonctx/experiment.py",
           "if deviation > tol:", "if deviation > 2 * tol:",
           GATES),
    # an unresolved mass of exactly the tolerance skips the single-context identity
    Mutant("src/bosonctx/experiment.py",
           "checked=unresolved <= tol", "checked=unresolved < tol",
           "tests/test_experiment.py::TestNoDisturbance::"
           "test_single_context_identities_are_checked_up_to_the_tolerance"),
    # a sweep that meets its bound on the last grid point reports no crossing
    Mutant("src/bosonctx/contextuality.py",
           "    if sums and sums[-1] - bound == 0.0:\n        return etas[-1]\n", "",
           "tests/test_contextuality.py::TestSweepEta::"
           "test_exact_hit_on_the_last_grid_point_is_a_crossing"),
    # a sweep that meets its bound on an inner grid point reports no crossing
    Mutant("src/bosonctx/contextuality.py",
           "        if lo == 0.0:\n            return etas[i]\n", "",
           "tests/test_acceptance.py::test_criterion_09_sweep_crossings"),
    # the resolved both-t and both-r entries vanish for eta in [0.999999, 1)
    Mutant("src/bosonctx/optics.py",
           "if eta < 1.0 else None", "if eta < 0.999999 else None",
           "tests/test_closed_forms.py::test_verify_passes_every_simulated_table"),
    # the resolved both-t and both-r probabilities trade places
    Mutant("src/bosonctx/optics.py",
           "((1.0 - eta) * T * T, (1.0 - eta) * R * R)",
           "((1.0 - eta) * R * R, (1.0 - eta) * T * T)",
           "tests/test_experiment.py::TestNoDisturbance::test_passes_over_parameter_grid"),
    # the unresolved coincidence loses its interference: (T + R)^2 for (T - R)^2
    Mutant("src/bosonctx/optics.py",
           "eta * (T - R) ** 2", "eta * (T + R) ** 2",
           "tests/test_table_contract.py::"
           "test_run_context_is_the_internal_mode_model_through_the_permanent"),
    # a sweep point adds its events' entries in reverse event order
    Mutant("src/bosonctx/contextuality.py",
           "for c, t in entries:", "for c, t in entries[::-1]:",
           "tests/test_golden.py::test_dense_digest_matches_the_record"),
    # the pentagon's single-fiber event asks for A reflected: no longer exclusive of its neighbours
    Mutant("src/bosonctx/contextuality.py",
           '("A", "at")', '("A", "ar")',
           "tests/test_contextuality.py::TestDeriveExclusivity::test_pentagon_is_a_five_cycle"),
    # the real number rules read a numpy complex as its real part, with a ComplexWarning
    Mutant("src/bosonctx/fock.py",
           '_NOT_REAL = ("b", "c")', '_NOT_REAL = ("b",)',
           "tests/test_optics.py::TestParameterInputs::test_non_numbers_are_value_errors"),
    # a table record with extra keys is read, its extra fields dropped
    Mutant("src/bosonctx/experiment.py",
           " or rec.keys() != set(_RECORD_FIELDS):", ":",
           "tests/test_experiment.py::TestSerialization::"
           "test_both_formats_refuse_a_record_with_extra_fields"),
    # the permanent's terms take the sign of the step after theirs
    Mutant("src/bosonctx/optics.py",
           "terms[::2] = map(operator.neg, terms[::2])",
           "terms[1::2] = map(operator.neg, terms[1::2])",
           "tests/test_optics.py::TestRowWalk::test_shared_rows_match_the_step_walk"),
    # each block of the permanent's walk starts every row's sum again from 0j
    Mutant("src/bosonctx/optics.py",
           "initial=block[-1] if index else 0j", "initial=0j",
           f"{BLOCKS}[11]"),
    # each block of the permanent's walk starts the total again from 0j
    Mutant("src/bosonctx/optics.py",
           "reduce(operator.add, terms, total)", "reduce(operator.add, terms, 0j)",
           f"{BLOCKS}[11]"),
    # each output's weight starts again from 1.0, without the input factorials
    Mutant("src/bosonctx/optics.py",
           "weight = weight_in", "weight = 1.0",
           f"{PASS}::test_terms_are_the_per_output_amplitudes_bit_for_bit"),
    # each output builds its own mode rows instead of sharing its input state's
    Mutant("src/bosonctx/optics.py",
           "zip(runs, out.occupations)",
           "zip([[([_Row(row[c] for c in cols)] * m, math.factorial(m))"
           " for m in range(len(cols) + 1)] for row in u], out.occupations)",
           f"{PASS}::test_outputs_of_one_input_share_its_mode_rows"),
    # a row's kept block of running sums is reused for every block of the walk
    Mutant("src/bosonctx/optics.py",
           "if walked != index:", "if walked < 0:",
           f"{SHARED}::test_alternating_rows_that_share_walks_match_the_step_walk[11]"),
    # each output of an input state takes fresh row objects: same results, 126 times the walks
    Mutant("src/bosonctx/optics.py",
           "sub += rows", "sub += [_Row(rows[0])] * m",
           f"{SHARED}::test_one_input_state_walks_each_mode_row_once"),
    # the Fock basis loses every vector whose last mode holds no photon
    Mutant("src/bosonctx/fock.py",
           "range(total + 1), modes - 1)", "range(total), modes - 1)",
           "tests/test_fock.py::TestFockBasis::test_order_is_the_recursive_lexicographic_order"),
    # every outcome token keeps its fiber's capital letter: At, Ar,Bt, ...
    Mutant("src/bosonctx/experiment.py",
           "f.lower() + v", "f + v",
           "tests/test_experiment.py::TestTokens::test_catalogue_has_the_nineteen_outcomes"),
    # the table gate reads True and False as the probabilities 1 and 0
    Mutant("src/bosonctx/experiment.py",
           "if isinstance(p, bool) or not isinstance(p, Real):",
           "if not isinstance(p, Real):",
           "tests/test_experiment.py::TestFullTable::"
           "test_malformed_tables_fail_every_gate[probability-true]"),
    # a graph's index pass lists each edge under its first endpoint only
    Mutant("src/bosonctx/contextuality.py",
           "                neighbours[index[v]].append(index[u])\n", "",
           "tests/test_contextuality.py::TestNeighbourIndex::"
           "test_matches_the_pair_oracle_on_random_graphs"),
    # the search for alpha also takes a candidate with two candidate neighbours unbranched
    Mutant("src/bosonctx/contextuality.py",
           "if (rest & near).bit_count() > 1:", "if (rest & near).bit_count() > 2:",
           "tests/test_contextuality.py::TestIndependenceNumber::"
           "test_matches_subset_enumeration"),
    # the packing search keeps its dead ends past an augmentation that may reopen them
    Mutant("src/bosonctx/contextuality.py",
           "                stamp += 1\n", "",
           "tests/test_contextuality.py::TestFractionalPackingMax::"
           "test_matches_half_step_grid_oracle_on_random_graphs"),
    # a splitter's reflectance is 1 - T: sin^2 theta only up to rounding
    Mutant("src/bosonctx/optics.py",
           "reflectance=math.sin(theta) ** 2", "reflectance=1.0 - math.cos(theta) ** 2",
           "tests/test_optics.py::TestBeamsplitterSpec::"
           "test_transmittance_and_reflectance_are_cached_bit_for_bit"),
    # a float subclass such as numpy.float64 is passed through, not read as a plain float
    Mutant("src/bosonctx/fock.py",
           "if type(value) is float:", "if isinstance(value, float):",
           "tests/test_optics.py::TestParameterInputs::test_accepted_values_are_stored_as_given"),
    # a table leaves out its last context, BC
    Mutant("src/bosonctx/experiment.py",
           "for ctx in ALL_CONTEXTS:", "for ctx in ALL_CONTEXTS[:-1]:",
           "tests/test_experiment.py::TestFullTable::"
           "test_contexts_and_outcomes_follow_the_catalogue_order"),
    # the first row's chain is never reused: same results, 79 380 products for 29 043
    Mutant("src/bosonctx/optics.py",
           "while held == index and", "while held < -1 and",
           f"{PRODUCTS}::test_one_input_state_forms_each_leading_run_once"),
    # the chain matches rows by the value of their sums: the same bits, as running sums
    # start from 0j and so never hold -0.0, but a pass over each held list of sums
    Mutant("src/bosonctx/optics.py",
           "rows[kept].walk[1] is blocks[kept]", "rows[kept].walk[1] == blocks[kept]",
           f"{PRODUCTS}::test_rows_are_matched_by_identity_not_by_value"),
    # the prune rule lets a NaN or infinite amplitude through: an overflowing pass drops it
    Mutant("src/bosonctx/fock.py",
           'amp if cmath.isfinite(amp) else complex_number(amp, "amplitude")', "amp",
           f"{APPLY}::test_an_amplitude_that_overflows_is_refused"),
    # the pass keeps every term it formed, also those of |amplitude| <= PRUNE
    Mutant("src/bosonctx/optics.py",
           "[out for out, a in out_terms.items() if not _kept(a)]", "[]",
           f"{APPLY}::test_terms_up_to_the_prune_threshold_are_dropped"),
)


def run_pytest(checkout: Path, targets: list[str]) -> int | None:
    """pytest's exit status on ``targets`` in ``checkout``, or None past the limit."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets]
    try:
        done = subprocess.run(argv, cwd=checkout, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def copy_checkout(into: str) -> Path:
    checkout = Path(into) / "checkout"
    shutil.copytree(ROOT, checkout, ignore=SKIP)
    return checkout


def outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        checkout = copy_checkout(scratch)
        path = checkout / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        status = run_pytest(checkout, [mutant.killer])
    if status is None:
        return "timed out"
    return "survived" if status == 0 else "killed"


def selection(paths: list[str]) -> list[int]:
    """The numbers of the mutants of the files ``paths`` name, or of every mutant
    for no paths.  A path that names no file of the list is a ``ValueError``."""
    listed = {(ROOT / m.file).resolve(): m.file for m in MUTANTS}
    files = set()
    for path in paths:
        if (resolved := Path(path).resolve()) not in listed:
            raise ValueError(f"{path} names no file of the mutation list")
        files.add(listed[resolved])
    return [i for i, m in enumerate(MUTANTS) if not files or m.file in files]


def main(paths: list[str]) -> int:
    try:
        chosen = selection(paths)
    except ValueError as exc:
        print(exc)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        killers = sorted({MUTANTS[i].killer for i in chosen})
        if run_pytest(copy_checkout(scratch), killers) != 0:
            print("a killing test fails or times out on the unmutated checkout")
            return 2
    results = []
    for i in chosen:
        mutant = MUTANTS[i]
        result = outcome(mutant)
        results.append(result)
        print(f"{i}  {result:<9}  {mutant.file}: {mutant.old.strip()!r} -> "
              f"{mutant.new.strip()!r}  [{mutant.killer}]", flush=True)
    print(", ".join(f"{results.count(r)} {r}"
                    for r in ("killed", "survived", "timed out", "stale")))
    if "stale" in results:
        return 2
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
