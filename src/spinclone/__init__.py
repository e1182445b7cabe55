"""Quantum cloning by free evolution of engineered spin networks.

Exact magnetization-sector dynamics of XY/Heisenberg coupling graphs, closed
forms for the spin-star cloner, (t, B) fidelity optimization, coupling
disorder averages and a dephasing-noise comparison against gate-compiled
cloning circuits.
"""

from .analytic import (NoPccReference, NtomReference, NTOM_REFERENCE,
                       b_opt_xy, heis_star_fidelity, pcc_reference, t_c_heis,
                       t_c_xy, xy_star_fidelity)
from .dynamics import (CloneResult, density_fidelities, prepare_input,
                       protocol_fidelities, run_protocol)
from .hamiltonian import (HamiltonianBlock, SectorBasis, build_block,
                          sector_basis)
from .noise import (GatePulse, MixedState, circuit_baseline,
                    circuit_ideal_fidelity, lindblad_evolve,
                    noisy_network_fidelity, pcc_circuit_schedule,
                    stochastic_evolve)
from .search import (DisorderSummary, OptimizationResult, ProtocolScan,
                     disorder_study, optimize)
from .topology import (DimensionLimitError, SpinNetwork, bipartite,
                       from_edge_list, from_text, jitter, star, to_text, tree)

__version__ = "0.1.0"
