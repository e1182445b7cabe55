"""Blind recovery of the optimal working point by a time scan.

No analytic knowledge goes in.  At fixed time the fidelity is one harmonic
in the field, so the optimizer maximizes the field in closed form over an
interval, splits time intervals until a curvature bound certifies the
maximum, and polishes the best peaks by Newton steps on the closed-form
time derivatives.  It should land on t_c = pi/sqrt(2), B = J/sqrt(2) for
the XY star and t_c = 2 pi/3 for the Heisenberg star.
"""
import math

from spinclone import optimize, star

xy = optimize(star(2), anisotropy=0.0, theta=math.pi / 2,
              t_range=(0.0, 10.0), field=(0.0, 2.0))
print("XY star, 2 clones:")
print(f"  F_max = {xy.fidelity:.9f}   target {(2 + math.sqrt(2)) / 4:.9f}")
print(f"  Jt_c  = {xy.t_c:.6f}      target {math.pi / math.sqrt(2):.6f}")
print(f"  B/J   = {xy.b_opt:.6f}      target {1 / math.sqrt(2):.6f}")
print(f"  ({xy.n_evaluations} fidelity evaluations)")

# Heisenberg: the field only moves the optimum in time, so pin B = 0.
heis = optimize(star(2), anisotropy=1.0, theta=math.pi / 2,
                t_range=(0.0, 10.0), field=(0.0, 0.0))
print("\nHeisenberg star, 2 clones (B = 0):")
print(f"  F_max = {heis.fidelity:.9f}   target {5 / 6:.9f}")
print(f"  Jt_c  = {heis.t_c:.6f}      target {2 * math.pi / 3:.6f}")
