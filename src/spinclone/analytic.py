"""Closed-form star-cloner results and stored reference constants.

Covers the maximum clone fidelities of the Heisenberg and XY spin-star
protocols, their optimal times and fields, and the optimal
phase-covariant-cloning fidelities used for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class NoPccReference(LookupError):
    """No stored optimal-PCC fidelity for the requested (N, M) pair."""


def _require_clones(n_clones: int) -> None:
    if n_clones < 1:
        raise ValueError("need at least one clone")


def heis_star_fidelity(n_clones: int, theta: float) -> float:
    """Maximum mean clone fidelity of the Heisenberg (lambda=1) star at B=0."""
    _require_clones(n_clones)
    m = n_clones
    return (4.0 + (3.0 + m) * (m + (m - 1.0) * math.cos(theta))
            - (m - 1.0) * math.cos(2.0 * theta)) / (2.0 * (1.0 + m) ** 2)


def t_c_heis(n_clones: int) -> float:
    """Optimal evolution time of the Heisenberg star, in J t units."""
    _require_clones(n_clones)
    return 2.0 * math.pi / (n_clones + 1.0)


def xy_star_fidelity(n_clones: int, theta: float) -> float:
    """Maximum mean clone fidelity of the XY (lambda=0) star at optimal B."""
    _require_clones(n_clones)
    m = n_clones
    root = math.sqrt(m)
    return (1.0 + root + 2.0 * m + 2.0 * (m - 1.0) * math.cos(theta)
            - (root - 1.0) * math.cos(2.0 * theta)) / (4.0 * m)


def t_c_xy(n_clones: int) -> float:
    """Optimal evolution time of the XY star, in J t units."""
    _require_clones(n_clones)
    return math.pi / math.sqrt(n_clones)


def b_opt_xy(n_clones: int) -> float:
    """Optimal uniform field of the XY star, in B / J units."""
    _require_clones(n_clones)
    return 0.5 * math.sqrt(n_clones)


# Values are stored for the supported pairs only, never extrapolated.
_PCC_TABLE: dict[tuple[int, int], float] = {
    (1, 2): (2.0 + math.sqrt(2.0)) / 4.0,
    (2, 3): 0.941,
    (2, 4): 0.933,
    (2, 5): 0.912,
    (2, 6): 0.908,
    (2, 7): 0.898,
    (3, 4): 0.973,
    (4, 5): 0.987,
}


def pcc_reference(n_inputs: int, n_outputs: int) -> float:
    """Stored optimal-PCC fidelity; raises :class:`NoPccReference` if absent."""
    try:
        return _PCC_TABLE[(n_inputs, n_outputs)]
    except KeyError:
        raise NoPccReference(
            f"no stored PCC fidelity for {n_inputs} -> {n_outputs}"
        ) from None


@dataclass(frozen=True)
class NtomReference:
    """Published N -> M maximization result used for comparison columns."""

    n_inputs: int
    n_outputs: int
    fidelity: float
    jt_c: float
    j_over_b: float


# Reported maxima of the bipartite N -> M scans (XY model, theta = pi/2) over
# J/B in [0, 100] ([0, 60] for 9 sites) and J t in [0, 3e3].
NTOM_REFERENCE: tuple[NtomReference, ...] = (
    NtomReference(2, 3, 0.94, 81.04, 99.8),
    NtomReference(2, 4, 0.90, 346.75, 49.0),
    NtomReference(2, 5, 0.87, 73.66, 95.6),
    NtomReference(2, 6, 0.83, 277.59, 70.0),
    NtomReference(2, 7, 0.81, 69.04, 17.6),
    NtomReference(3, 4, 0.97, 581.07, 17.2),
    NtomReference(4, 5, 0.97, 584.65, 57.0),
)
