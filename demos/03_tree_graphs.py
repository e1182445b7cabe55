"""Cloning through tree graphs: the fidelity barely depends on the topology.

The input sits at the root, the copies appear on the leaves.  With a single
excitation the dynamics lives in an (n_sites + 1)-dimensional sector, so
even the 40-site tree is instant.  Each tree result is compared against the
star closed form at the same number of clones.
"""
import math

from spinclone import optimize, tree, xy_star_fidelity

print(f"{'k':>2} {'j':>2} {'M':>3} {'F_tree':>10} {'F_star(M)':>10} {'Jt_c':>9}")
for branching, levels in [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]:
    result = optimize(tree(branching, levels), 0.0, math.pi / 2,
                      t_range=(0.0, 50.0))
    m = branching ** (levels + 1)
    print(f"{branching:>2} {levels:>2} {m:>3} {result.fidelity:>10.6f} "
          f"{xy_star_fidelity(m, math.pi / 2):>10.6f} {result.t_c:>9.4f}")

# j = 0 trees are stars; j = 1 trees reach the star value exactly because
# three-site uniform chains transfer perfectly.  The deeper trees fall short
# by less than a tenth of a percent.
