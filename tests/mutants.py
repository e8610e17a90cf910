"""A standing mutation list: one-line faults the suite must catch, each with the
test expected to catch it.

Run from the root of a checkout (stdlib only; pytest must be importable):

    python3 tests/mutants.py

Each mutant replaces one exact text, found exactly once, in one file of a
fresh temporary copy of the checkout.  Its killing test then runs there with
pytest, stopped after TIMEOUT seconds.  The report gives each mutant as killed
(the test failed), survived (it passed) or timed out.  Before any mutant, the
killing tests must pass on an unmutated copy.  The exit status is 0 when every
mutant is killed, 1 when one survives or times out, and 2 when a mutant's text
is no longer in its file or a killing test fails on the unmutated copy.

This file is not a test module: pytest does not collect it.
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
           "for c, t in entries]", "for c, t in entries[::-1]]",
           "tests/test_golden.py::test_dense_digest_matches_the_record"),
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
           "initial=carry[key]", "initial=0j",
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
           "zip(mode_rows, out.occupations)",
           "zip([tuple(row[c] for c in cols) for row in u], out.occupations)",
           f"{PASS}::test_outputs_of_one_input_share_its_mode_rows"),
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


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        killers = sorted({m.killer for m in MUTANTS})
        if run_pytest(copy_checkout(scratch), killers) != 0:
            print("a killing test fails or times out on the unmutated checkout")
            return 2
    results = []
    for i, mutant in enumerate(MUTANTS):
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
    sys.exit(main())
