"""N -> M cloning on complete bipartite networks.

Inputs couple to every output; the mean clone fidelity is maximized over
the evolution time with the field handled in closed form per time (every
clone coherence connects adjacent magnetization sectors, so the field
dependence at fixed time is one harmonic).

The full published scan uses Jt up to 3000 (see `spinclone table1`); this
demo keeps a shorter window to stay interactive.
"""
import math

from spinclone import bipartite, optimize, pcc_reference, run_protocol

print(f"{'N':>2} {'M':>2} {'F_found':>9} {'F_pcc':>7} {'Jt_c':>9} {'B/J':>9}")
for n, m in [(2, 3), (2, 4), (3, 4)]:
    net = bipartite(n, m)
    result = optimize(net, 0.0, math.pi / 2, t_range=(0.0, 300.0),
                      t_points=30001, field=(0.01, math.inf))
    print(f"{n:>2} {m:>2} {result.fidelity:>9.5f} {pcc_reference(n, m):>7} "
          f"{result.t_c:>9.3f} {result.b_opt:>9.5f}")

# The reported point re-evaluates exactly through the plain protocol runner:
net = bipartite(2, 3)
result = optimize(net, 0.0, math.pi / 2, t_range=(0.0, 300.0),
                  t_points=30001)
check = run_protocol(net, 0.0, result.b_opt, math.pi / 2, 0.0, result.t_c)
print(f"\nre-evaluation at the (2,3) optimum: {check.mean_fidelity:.12f} "
      f"(scan reported {result.fidelity:.12f})")
