"""Exchange Hamiltonians restricted to magnetization sectors.

The model is, with Pauli matrices and ``hbar = 1``,

    H = (1/4) sum_edges J_ij (sx_i sx_j + sy_i sy_j + lambda sz_i sz_j)
        + (1/2) sum_i B_i sz_i,

each undirected edge counted once.  Total z-magnetization is conserved, so
the operator never mixes excitation numbers and can be assembled directly on
a union of fixed-weight configuration sets.  ``|0>`` is the ``sz = +1``
eigenstate; bit ``1`` in a configuration word marks a site in ``|1>`` (an
excitation).  Site 0 occupies the lowest bit.

Times are reported as ``J t`` and fields as ``B / J`` throughout (``J = 1``
default energy scale).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.linalg

from .topology import SpinNetwork

MAX_DIM = 4096


class DimensionLimitError(RuntimeError):
    """Raised when a sector exceeds the configured dense-matrix budget."""


@dataclass(frozen=True)
class SectorBasis:
    """Ordered configuration basis for a union of excitation numbers.

    ``states`` lists n-bit configuration words in strictly ascending integer
    order; the ordering is part of the data contract.  ``state_weights``
    caches the excitation number of each configuration.
    """

    n_sites: int
    weights: tuple[int, ...]
    states: np.ndarray
    state_weights: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, SectorBasis)
                and self.n_sites == other.n_sites
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.n_sites, self.weights))

    def __len__(self):
        return len(self.states)

    def index_of(self, configs: np.ndarray) -> np.ndarray:
        """Positions of configuration words; assumes membership."""
        return np.searchsorted(self.states, configs)

    def occupancy(self) -> np.ndarray:
        """(dim, n_sites) array of site occupations (0 or 1)."""
        shifts = np.arange(self.n_sites, dtype=np.int64)
        return ((self.states[:, None] >> shifts[None, :]) & 1).astype(np.int8)


@lru_cache(maxsize=128)
def sector_basis(n_sites: int, weights: tuple[int, ...]) -> SectorBasis:
    """Shared basis instance for the given site count and excitation numbers."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    wset = tuple(sorted(set(int(w) for w in weights)))
    if not wset:
        raise ValueError("empty weight set")
    if wset[0] < 0 or wset[-1] > n_sites:
        raise ValueError(f"weights {wset} outside 0..{n_sites}")
    states: list[int] = []
    for w in wset:
        for positions in combinations(range(n_sites), w):
            word = 0
            for p in positions:
                word |= 1 << p
            states.append(word)
    order = np.sort(np.array(states, dtype=np.int64))
    if len(order) > MAX_DIM:
        raise DimensionLimitError(
            f"sector dimension {len(order)} exceeds maximum {MAX_DIM}"
        )
    shifts = np.arange(n_sites, dtype=np.int64)
    wts = ((order[:, None] >> shifts[None, :]) & 1).sum(axis=1).astype(np.int64)
    basis = SectorBasis(n_sites=n_sites, weights=wset, states=order,
                        state_weights=wts)
    return basis


def orbit_isometry(basis: SectorBasis, classes: np.ndarray) -> np.ndarray:
    """(dim, K) normalized indicators of the orbits of ``basis`` under
    permutations within each site class (equal excitation counts per class);
    singleton classes give the identity."""
    sizes = np.bincount(classes)
    if len(sizes) == basis.n_sites:
        return np.eye(len(basis))
    radix = np.cumprod(np.concatenate(([1], sizes[:-1] + 1)))
    code = basis.occupancy() @ radix[classes]
    _, orbit, counts = np.unique(code, return_inverse=True, return_counts=True)
    isometry = np.zeros((len(basis), len(counts)))
    isometry[np.arange(len(basis)), orbit] = counts[orbit] ** -0.5
    return isometry


@dataclass(frozen=True)
class HamiltonianBlock:
    """Dense Hermitian matrix of the exchange model on a sector basis.

    The matrix is real symmetric in the configuration basis (hopping plus
    diagonal terms); it is stored as float64 and promoted to complex only by
    arithmetic with amplitudes.
    """

    basis: SectorBasis
    matrix: np.ndarray
    anisotropy: float
    field_b: tuple[float, ...]
    network: SpinNetwork


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    basis: SectorBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def required_weights(theta: float, n_inputs: int) -> tuple[int, ...]:
    """Excitation numbers populated by a product input on ``n_inputs`` sites."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    if theta == 0.0:
        return (0,)
    if theta == np.pi:
        return (n_inputs,)
    return tuple(range(n_inputs + 1))


def build_block(net: SpinNetwork, weights) -> HamiltonianBlock:
    """Assemble the exchange Hamiltonian restricted to the given weights.

    The one-row case of :func:`assemble_blocks` with the network's own
    couplings.
    """
    basis = sector_basis(net.n_sites, tuple(weights))
    matrix = assemble_blocks(net, basis, net.coupling_array()[None, :])[0]
    return HamiltonianBlock(basis=basis, matrix=matrix,
                            anisotropy=net.anisotropy, field_b=net.field_b,
                            network=net)


def assemble_blocks(net: SpinNetwork, basis: SectorBasis,
                    couplings: np.ndarray) -> np.ndarray:
    """(R, dim, dim) Hamiltonians of ``net`` with its edge couplings replaced
    by each row of the (R, n_edges) array ``couplings`` (``net.edges`` order).

    Hopping moves one excitation across an edge with amplitude ``J_ij / 2``;
    the diagonal carries ``lambda J_ij / 4 * z_i z_j`` per edge plus
    ``B_i / 2 * z_i`` per site, with ``z = +1`` for ``|0>``.
    """
    dim = len(basis)
    occ = basis.occupancy()
    z = (1 - 2 * occ).astype(np.float64)

    field = np.asarray(net.field_b, dtype=float)
    diagonal = np.tile(0.5 * z @ field, (len(couplings), 1))
    lam = net.anisotropy
    matrix = np.zeros((len(couplings), dim, dim), dtype=np.float64)
    for e, (i, j, _) in enumerate(net.edges):
        coupling = couplings[:, e, None]
        if lam != 0.0:
            diagonal += 0.25 * lam * coupling * z[:, i] * z[:, j]
        rows = np.nonzero(occ[:, i] != occ[:, j])[0]
        partners = basis.states[rows] ^ ((1 << i) | (1 << j))
        # Distinct edges link distinct (row, col) pairs: assigning adds to 0.
        matrix[:, rows, basis.index_of(partners)] = 0.5 * coupling
    matrix.reshape(len(couplings), -1)[:, ::dim + 1] += diagonal
    return matrix


def spectral(block: HamiltonianBlock, max_dim: int = MAX_DIM) -> SpectralDecomposition:
    """Dense spectral decomposition of a sector block."""
    dim = len(block.basis)
    if dim > max_dim:
        raise DimensionLimitError(
            f"block dimension {dim} exceeds maximum {max_dim}"
        )
    eigenvalues, eigenvectors = scipy.linalg.eigh(block.matrix)
    return SpectralDecomposition(
        basis=block.basis,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors.astype(np.complex128),
    )
