"""One fresh start of a workload: import bosonctx, build the inputs, print "ready".

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` times this from process start to the "ready" line for setup_s.
"""

import sys

import workloads

workloads.require_program()
import bosonctx  # noqa: E402,F401  (the import every workload pays, cli_calls too)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
