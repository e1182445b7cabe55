"""Free evolution versus gate circuits under dephasing noise.

White-noise z-fields of strength Gamma act on every spin.  The network
needs only one short free evolution; the circuit compiles its gates into
XY pulses and stays exposed several times longer, so its fidelity falls
faster.  Both baselines reproduce their ideal values at Gamma = 0.
"""
import math

import numpy as np

from spinclone import (b_opt_xy, circuit_fidelities, noisy_network_fidelity,
                       pcc_circuit_schedule, star, t_c_xy)
from spinclone.noise import schedule_duration

theta = math.pi / 2
for m in (2, 3):
    _, schedule = pcc_circuit_schedule(m)
    print(f"1 -> {m}: network evolves for Jt = {t_c_xy(m):.3f}, "
          f"circuit pulses total Jt = {schedule_duration(schedule):.3f}")

print(f"\n{'gamma/J':>10} {'net 1->2':>10} {'circ 1->2':>10} "
      f"{'net 1->3':>10} {'circ 1->3':>10}")
gammas = [0.0] + list(np.logspace(-3, -1, 5))
# One circuit run per clone count, its density matrices stacked over Gamma.
circuits = {m: circuit_fidelities(m, theta, gammas) for m in (2, 3)}
for k, gamma in enumerate(gammas):
    row = [gamma]
    for m in (2, 3):
        row.append(noisy_network_fidelity(star(m), 0.0, b_opt_xy(m), theta,
                                          gamma, t_c_xy(m)))
        row.append(circuits[m][k])
    print(f"{row[0]:>10.4g} {row[1]:>10.6f} {row[2]:>10.6f} "
          f"{row[3]:>10.6f} {row[4]:>10.6f}")

print("\nAt every noise level the free evolution stays above the circuit.")
