"""Exclusive events, their graphs, and the bound hierarchy.

Three fibers A, B, C each hold one photon; a context plugs one or two fibers
into the beamsplitter.  Five events (one single-fiber, four pair) form a
cyclic exclusivity structure; three pair events form a pairwise-exclusive
triangle.  For identical photons at a balanced splitter every one of these
events has probability 1/2, pushing the sums to their algebraic ceilings,
above both the noncontextual and the projective quantum bounds.
"""

import math

from bosonctx import (
    BALANCED,
    DistinguishabilityParam,
    derive_exclusivity,
    event_probability,
    fractional_packing_max,
    full_table,
    independence_number,
    inequality_sum,
    standard_bounds,
    standard_events,
)

table = full_table(BALANCED, DistinguishabilityParam(1.0))

for test in ("pentagon", "triangle"):
    events = standard_events(test)
    graph = derive_exclusivity(events)
    print("=" * 64)
    print(f"{test}: {len(events)} events")
    print("=" * 64)
    for event in events:
        reqs = ", ".join(f"{f}:{v}" for f, v in sorted(event.requirements.items()))
        p = event_probability(table, event)
        print(f"  {event.label:<8} context {event.context:<3} requires [{reqs}]  p = {p:.6f}")
    print(f"  exclusivity edges: {sorted(graph.edges)}")

    total = inequality_sum(table, events)
    bounds = standard_bounds(test)
    nc = bounds["noncontextual"]
    alpha = independence_number(graph)
    frac = fractional_packing_max(graph)
    print(f"  sum of probabilities      = {total:.6f}")
    print(f"  noncontextual bound       = {nc}  (= independence number {alpha})")
    if "quantum" in bounds:
        print(f"  projective quantum bound  = {bounds['quantum']:.6f}  (sqrt(5))")
    print(f"  algebraic packing ceiling = {frac:.6f}")
    print(f"  violates noncontextual bound: {total > nc}")
    print()

print("Sandwich for the five-cycle: "
      f"2 <= {math.sqrt(5):.6f} <= 2.5, and the photons reach the top.")
