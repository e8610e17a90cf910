"""Photon-pair beamsplitter statistics and exclusivity-graph contextuality analysis.

The package simulates one or two single photons meeting at a beamsplitter
(including partial distinguishability), assembles the conditional outcome
table over all measurement contexts of a three-fiber setup, and evaluates
sums of exclusive-event probabilities against the noncontextual, projective
quantum, and algebraic packing bounds.
"""

__version__ = "0.1.0"

from .contextuality import (
    EventSpec,
    ExclusivityGraph,
    derive_exclusivity,
    event_probability,
    fractional_packing_max,
    independence_number,
    inequality_sum,
    lovasz_theta_odd_cycle,
    noncontextual_max,
    standard_bounds,
    standard_events,
    sweep_eta,
)
from .experiment import (
    OutcomeTable,
    check_indistinguishability,
    check_no_disturbance,
    full_table,
    parse_table,
)
from .fock import PureState, basis_state, make_fock
from .optics import (
    BALANCED,
    BeamsplitterSpec,
    DistinguishabilityParam,
    apply_interferometer,
    beamsplitter_unitary,
    pair_outcome_distribution,
    single_outcome_distribution,
)
