"""Write the stored tables that cli_calls feeds to ``analyze`` and ``verify``.

    python3 bench/make_inputs.py

Both come from ``oracle.closed_form_table`` at theta=STORED_THETA,
eta=STORED_ETA, not from the program.  table_perturbed.csv moves
PERTURBATION of probability between the two bunching outcomes of context
PERTURBED_CONTEXT: every context still sums to 1, but the marginals of A and
C in that context no longer match the other contexts.
"""

import csv
import io
import json

import oracle
from workloads import (INPUTS, PERTURBATION, PERTURBED_CONTEXT, STORED_ETA,
                       STORED_THETA)


def valid_json() -> str:
    table = oracle.closed_form_table(STORED_THETA, STORED_ETA)
    payload = {"schema": 1, "theta": STORED_THETA, "eta": STORED_ETA,
               "records": oracle.table_records(table)}
    return json.dumps(payload, indent=2) + "\n"


def perturbed_csv() -> str:
    table = oracle.closed_form_table(STORED_THETA, STORED_ETA)
    x, y = PERTURBED_CONTEXT.lower()
    table[PERTURBED_CONTEXT][f"{x}t,{y}r"] += PERTURBATION
    table[PERTURBED_CONTEXT][f"{x}r,{y}t"] -= PERTURBATION
    buf = io.StringIO()
    buf.write(f"# schema=1\n# theta={STORED_THETA!r}\n# eta={STORED_ETA!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["context", "outcome", "probability"])
    for rec in oracle.table_records(table):
        writer.writerow([rec["context"], rec["outcome"], repr(rec["probability"])])
    return buf.getvalue()


STORED = {"table_valid.json": valid_json, "table_perturbed.csv": perturbed_csv}

if __name__ == "__main__":
    INPUTS.mkdir(exist_ok=True)
    for name, make in STORED.items():
        (INPUTS / name).write_text(make())
        print(INPUTS / name)
