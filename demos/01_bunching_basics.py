"""Single-photon splitting and two-photon bunching at a beamsplitter.

A lone photon at a balanced splitter exits either port with probability 1/2.
Two identical photons, one per input port, interfere: the amplitude for one
photon per output port cancels and they leave together through a single
port.  Tuning the mutual overlap eta from 1 down to 0 turns the interference
off and recovers independent classical coin flips.
"""

import math

from bosonctx import (
    BALANCED,
    BeamsplitterSpec,
    DistinguishabilityParam,
    apply_interferometer,
    basis_state,
    beamsplitter_unitary,
    pair_outcome_distribution,
    single_outcome_distribution,
)


def coincidence(p_unresolved, resolved):
    """One photon per output port, whether or not the photons are told apart."""
    return p_unresolved + sum(resolved or ())


print("=" * 64)
print("One photon, balanced splitter")
print("=" * 64)
p_transmitted, p_reflected = single_outcome_distribution(BALANCED)
print(f"p(transmitted) = {p_transmitted:.6f}")
print(f"p(reflected)   = {p_reflected:.6f}")

print()
print("=" * 64)
print("Two identical photons: the output state")
print("=" * 64)
out = apply_interferometer(basis_state([1, 1]), beamsplitter_unitary(BALANCED))
for fock, amp in sorted(out, key=lambda kv: kv[0].occupations):
    print(f"  amplitude{fock} = {amp:+.6f}")
print("The |1,1> component is gone: both photons bunch into one port.")

print()
print("=" * 64)
print("Coincidence probability vs splitter angle (identical photons)")
print("=" * 64)
print(f"{'theta/pi':>10} {'T':>8} {'p(coinc)':>10}")
for frac in (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5):
    bs = BeamsplitterSpec(frac * math.pi)
    _, p_unresolved, resolved = pair_outcome_distribution(bs, DistinguishabilityParam(1.0))
    print(f"{frac:>10.2f} {bs.transmittance:>8.4f} {coincidence(p_unresolved, resolved):>10.6f}")
print("The dip bottoms out at exactly zero for the 50-50 splitter.")

print()
print("=" * 64)
print("Coincidence vs photon overlap eta (balanced splitter)")
print("=" * 64)
print(f"{'eta':>6} {'p(bunch each)':>14} {'p(coinc)':>10}")
for eta in (1.0, 0.75, 0.5, 0.25, 0.0):
    p_bunch, p_unresolved, resolved = pair_outcome_distribution(BALANCED, DistinguishabilityParam(eta))
    print(f"{eta:>6.2f} {p_bunch:>14.6f} {coincidence(p_unresolved, resolved):>10.6f}")
print("p(coinc) = (1 - eta)/2 at the balanced splitter: the standard dip.")
