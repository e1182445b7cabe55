"""The benchmark's workloads: the CLI argument lists each one runs.

Every list is generated from the workload seed alone, so the same seed gives
the same inputs.  All calls run at ``--threads 1``, the CLI default.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("dephasing", "bipartite_scan", "many_small")

# Each Gamma > 0 value costs about 3.3 s of master-equation work, whatever
# its size, so the count fixes the cost of one dephasing call and the seed
# only moves the points.
GAMMA_RANGE = (1e-4, 1e-1)
GAMMA_COUNT = 2

# Number of [ok]/[FAIL] lines each command prints.
CLI_CHECKS = {"fig2": 4, "table1": 3, "fig3": 4, "tree": 2, "disorder": 2}


def gamma_values(seed: int) -> list[float]:
    """Log-uniform Gamma values in GAMMA_RANGE, ascending.

    The CLI's monotonicity check reads the grid in the order given, so the
    grid is passed sorted.
    """
    rng = np.random.default_rng(seed)
    lo, hi = (math.log10(g) for g in GAMMA_RANGE)
    return sorted(float(10.0 ** x) for x in rng.uniform(lo, hi, GAMMA_COUNT))


def cli_calls(workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """Argument lists of the CLI calls that make up one unit of a workload."""
    common = ["--seed", str(seed), "--threads", "1", "--out-dir", out_dir]
    if workload == "dephasing":
        grid = ",".join(repr(g) for g in gamma_values(seed))
        return [common + ["--gamma-grid", grid, "fig3"]]
    if workload == "bipartite_scan":
        return [common + ["table1"]]
    if workload == "many_small":
        return [common + [command] for command in ("fig2", "tree", "disorder")]
    raise ValueError(f"unknown workload {workload!r}")
