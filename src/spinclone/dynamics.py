"""Input preparation, exact evolution, single-site reduction and fidelities.

The cloning protocol is: load the input state on the input sites (blanks in
``|0>``), let the network evolve freely for a time ``t``, then score every
output site against the original single-qubit state via the overlap
``<psi| rho |psi>``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (SectorBasis, SpectralDecomposition, build_block,
                          sector_basis, spectral)
from .topology import SpinNetwork


@dataclass(frozen=True)
class SectorState:
    """Normalized complex amplitude vector over a sector basis."""

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        if len(self.amplitudes) != len(self.basis):
            raise ValueError("amplitude count does not match basis dimension")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} too far from 1")


@dataclass(frozen=True)
class QubitDensity:
    """2x2 reduced state of one site, row/column order (|0>, |1>)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix not positive semidefinite")


@dataclass(frozen=True)
class CloneResult:
    """Per-site and mean clone fidelities of one protocol run."""

    per_site_fidelity: dict[int, float]
    mean_fidelity: float
    time: float
    theta: float
    phi: float
    anisotropy: float
    field: float


def prepare_input(net: SpinNetwork, theta: float, phi: float) -> SectorState:
    """Product input: each input site in cos(t/2)|0> + e^{i phi} sin(t/2)|1>.

    All other sites start blank (``|0>``); amplitudes are expanded in the
    union basis of excitation numbers ``0 .. n_inputs``.
    """
    if not net.input_sites:
        raise ValueError("network has no input sites")
    n_in = len(net.input_sites)
    basis = sector_basis(net.n_sites, tuple(range(n_in + 1)))
    input_mask = 0
    for s in net.input_sites:
        input_mask |= 1 << s
    outside = basis.states & ~np.int64(input_mask)
    k = ((basis.states & np.int64(input_mask))[:, None]
         >> np.arange(net.n_sites, dtype=np.int64)[None, :] & 1).sum(axis=1)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0) * np.exp(1j * phi)
    amplitudes = np.where(outside == 0, c ** (n_in - k) * s ** k, 0.0)
    return SectorState(basis=basis, amplitudes=amplitudes.astype(np.complex128))


def evolve(state: SectorState, decomposition: SpectralDecomposition,
           t: float) -> SectorState:
    """Exact evolution ``V exp(-i L t) V^dag`` of the amplitude vector."""
    if state.basis != decomposition.basis:
        raise ValueError("state and spectral decomposition use different bases")
    v = decomposition.eigenvectors
    phases = np.exp(-1j * decomposition.eigenvalues * t)
    amplitudes = v @ (phases * (v.conj().T @ state.amplitudes))
    return SectorState(basis=state.basis, amplitudes=amplitudes)


_PAIR_CACHE: dict[tuple, tuple] = {}


def site_pairs(basis: SectorBasis, site: int):
    """Index machinery for reducing a sector state to one site.

    Returns ``(mask0, mask1, idx0, idx1)``: boolean masks selecting
    configurations with the site empty/occupied, and index pairs coupling a
    configuration with the site empty to its partner with the site occupied
    (all other sites equal).  Pairs exist only when the partner weight is
    present in the basis.
    """
    key = (basis.n_sites, basis.weights, site)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    bit = np.int64(1 << site)
    mask1 = (basis.states & bit) != 0
    mask0 = ~mask1
    lower = basis.states[mask0]
    partners = lower | bit
    positions = np.searchsorted(basis.states, partners)
    valid = (positions < len(basis)) & (
        basis.states[np.minimum(positions, len(basis) - 1)] == partners)
    idx0 = np.nonzero(mask0)[0][valid]
    idx1 = positions[valid]
    result = (mask0, mask1, idx0, idx1)
    _PAIR_CACHE[key] = result
    return result


class OutputReadout:
    """Mean clone fidelity read off configuration-basis amplitudes ``a``.

    ``base = diagonal . |a|^2``; ``gbar = weight * sum a[lower] conj(a[upper])``
    over the pairs linking each configuration with an output empty to the
    one with it occupied, merged over all outputs (``weight = 1 / n_out``).
    """

    def __init__(self, net: SpinNetwork, basis: SectorBasis, theta: float,
                 phi: float):
        outputs = net.output_sites
        n_out = max(len(outputs), 1)
        c2 = math.cos(theta / 2.0) ** 2
        s2 = math.sin(theta / 2.0) ** 2
        empty = [np.zeros(0, dtype=np.int64)]
        self.lower = np.concatenate(
            [site_pairs(basis, o)[2] for o in outputs] + empty)
        self.upper = np.concatenate(
            [site_pairs(basis, o)[3] for o in outputs] + empty)
        self.weight = 1.0 / n_out
        occupied = basis.occupancy()[:, list(outputs)].sum(axis=1)
        self.diagonal = (c2 * (n_out - occupied) + s2 * occupied) / n_out
        self.cs = math.cos(theta / 2.0) * math.sin(theta / 2.0)
        self.phi = phi

    def fidelity(self, base, gbar, field_phase):
        """``base + 2cs Re[e^{i phi} gbar field_phase]``, ``field_phase =
        e^{-iBt}``: the single harmonic in the field."""
        return base + 2.0 * self.cs * np.real(
            np.exp(1j * self.phi) * gbar * field_phase)


def reduce_to_site(state: SectorState, site: int) -> QubitDensity:
    """Exact partial trace onto one site, done on the sector representation."""
    if not 0 <= site < state.basis.n_sites:
        raise ValueError("site index out of range")
    mask0, mask1, idx0, idx1 = site_pairs(state.basis, site)
    a = state.amplitudes
    p0 = float(np.sum(np.abs(a[mask0]) ** 2))
    p1 = float(np.sum(np.abs(a[mask1]) ** 2))
    coherence = np.sum(a[idx0] * np.conj(a[idx1]))
    matrix = np.array([[p0, coherence], [np.conj(coherence), p1]],
                      dtype=np.complex128)
    return QubitDensity(matrix=matrix)


def reduce_density_to_site(matrix: np.ndarray, basis: SectorBasis,
                           site: int) -> QubitDensity:
    """Partial trace of a density matrix given on a sector basis."""
    mask0, mask1, idx0, idx1 = site_pairs(basis, site)
    diag = np.real(np.diag(matrix))
    p0 = float(diag[mask0].sum())
    p1 = float(diag[mask1].sum())
    coherence = matrix[idx0, idx1].sum()
    reduced = np.array([[p0, coherence], [np.conj(coherence), p1]],
                       dtype=np.complex128)
    return QubitDensity(matrix=reduced)


def clone_fidelity(rho: QubitDensity, theta: float, phi: float) -> float:
    """Overlap of a clone with cos(t/2)|0> + e^{i phi} sin(t/2)|1>."""
    psi = np.array([np.cos(theta / 2.0),
                    np.exp(1j * phi) * np.sin(theta / 2.0)])
    return float(np.real(psi.conj() @ rho.matrix @ psi))


def run_protocol(net: SpinNetwork, anisotropy: float, field: float,
                 theta: float, phi: float, t: float) -> CloneResult:
    """Free-evolution cloning run; returns per-site and mean fidelities."""
    configured = net.with_params(anisotropy=anisotropy, field=field)
    state = prepare_input(configured, theta, phi)
    block = build_block(configured, state.basis.weights)
    decomposition = spectral(block)
    evolved = evolve(state, decomposition, t)
    per_site = {
        site: clone_fidelity(reduce_to_site(evolved, site), theta, phi)
        for site in net.output_sites
    }
    mean = float(np.mean(list(per_site.values())))
    return CloneResult(per_site_fidelity=per_site, mean_fidelity=mean,
                       time=t, theta=theta, phi=phi,
                       anisotropy=anisotropy, field=field)
