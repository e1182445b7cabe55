"""Input preparation, exact evolution, single-site reduction and fidelities.

The cloning protocol is: load the input state on the input sites (blanks in
``|0>``), let the network evolve freely for a time ``t``, then score every
output site against the original single-qubit state via the overlap
``<psi| rho |psi>``.

One evaluation, :func:`protocol_fidelities`, runs the protocol for a whole
array of input angles: the block does not depend on ``theta``, so it is
assembled and diagonalized once, and every input is a polynomial in
``cos(theta/2)`` and ``sin(theta/2)`` over ``n_inputs + 1`` fixed
configuration patterns, which one matrix product evolves together.
:func:`run_protocol` is its one-angle case.

Pure states and density matrices share one single-site reduction: the same
stacked index arrays and the same checked 2x2 assembly, with only the sums
differing.  :func:`density_fidelities` scores the clones of a density matrix,
as the dephasing layer needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (HamiltonianBlock, SectorBasis, build_block,
                          sector_basis)
from .topology import SpinNetwork


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_norms(amplitudes: np.ndarray) -> None:
    """Raise unless every amplitude vector (last axis) has norm 1 to 1e-9;
    NaN fails every check here."""
    gap = np.max(np.abs(np.linalg.norm(amplitudes, axis=-1) - 1.0),
                 initial=0.0)
    if not gap <= 1e-9:
        raise ValueError(f"state norm differs from 1 by {gap:.3g}")


def _check_densities(m: np.ndarray, hermitian: float = 1e-10,
                     trace: float = 1e-10, psd: float = 1e-10) -> None:
    """Raise unless every matrix (last two axes) is a density matrix:
    Hermitian, unit trace and positive semidefinite to the given bounds;
    NaN fails each check."""
    if not np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))),
                  initial=0.0) <= hermitian:
        raise ValueError("density matrix not Hermitian")
    gap = np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)
    if not np.max(gap, initial=0.0) <= trace:
        raise ValueError("density matrix trace differs from 1")
    if not np.min(np.linalg.eigvalsh(m), initial=0.0) >= -psd:
        raise ValueError("density matrix not positive semidefinite")


@dataclass(frozen=True)
class CloneResult:
    """Per-site and mean clone fidelities of one protocol run."""

    per_site_fidelity: dict[int, float]
    mean_fidelity: float


def _input_patterns(net: SpinNetwork, basis: SectorBasis) -> np.ndarray:
    """(dim, n_inputs + 1) parts of the product input on a count basis:
    column ``k`` holds ``prod_a sqrt(C(s_a, n_a))`` on the states with ``k``
    excitations, all of them in input classes, so the input at one angle is
    ``patterns @ _input_coefficients(...)``."""
    if not net.input_sites:
        raise ValueError("network has no input sites")
    inputs = sorted(set(basis.classes[i] for i in net.input_sites))
    k = basis.counts[:, inputs].sum(axis=1)
    k[np.delete(basis.counts, inputs, axis=1).any(axis=1)] = -1
    patterns = (k[:, None] == np.arange(len(net.input_sites) + 1)) * 1.0
    for a in inputs:
        binomials = [math.comb(basis.sizes[a], n)
                     for n in range(basis.sizes[a] + 1)]
        patterns *= np.sqrt(binomials)[basis.counts[:, a], None]
    return patterns


def _input_coefficients(thetas: np.ndarray, phi: float,
                        n_in: int) -> np.ndarray:
    """(n_theta, n_in + 1) amplitude ``c^(n_in-k) s^k`` of an input
    configuration with ``k`` excited inputs, ``c = cos(theta/2)`` and
    ``s = e^{i phi} sin(theta/2)``."""
    if not np.isfinite(thetas).all():
        raise ValueError("theta must be finite")
    _require_finite(phi=phi)
    k = np.arange(n_in + 1)
    c = np.cos(thetas / 2.0)[:, None]
    s = (np.sin(thetas / 2.0) * np.exp(1j * phi))[:, None]
    return c ** (n_in - k) * s ** k


def prepare_input(net: SpinNetwork, theta: float,
                  phi: float) -> tuple[SectorBasis, np.ndarray]:
    """Product input: each input site in cos(t/2)|0> + e^{i phi} sin(t/2)|1>.

    All other sites start blank (``|0>``).  Returns the configuration basis
    of excitation numbers ``0 .. n_inputs`` and the amplitudes on it, whose
    norm is checked.
    """
    basis = sector_basis(net.n_sites, tuple(range(len(net.input_sites) + 1)))
    amplitudes = count_input(net, basis, theta, phi)
    _check_norms(amplitudes)
    return basis, amplitudes


def count_input(net: SpinNetwork, basis: SectorBasis, theta: float,
                phi: float) -> np.ndarray:
    """Amplitudes of the product input on a count basis."""
    coefficients = _input_coefficients(np.array([float(theta)]), phi,
                                       len(net.input_sites))[0]
    return _input_patterns(net, basis) @ coefficients


def _propagate(block: HamiltonianBlock, amplitudes: np.ndarray,
               t: float) -> np.ndarray:
    """Exact evolution ``V exp(-i L t) V^dag`` of a vector or of matrix
    columns on the block's basis, from the block's eigenvalues ``L``
    (ascending) and orthonormal eigenvectors ``V``."""
    eigenvalues, v = np.linalg.eigh(block.matrix)
    v = v.astype(np.complex128)
    phases = np.exp(-1j * eigenvalues * t)
    return v @ (phases * (v.conj().T @ amplitudes).T).T


class OutputReadout:
    """Mean clone fidelity read off count-basis amplitudes ``a`` of an input
    at ``phi = 0``, its value at every ``phi`` (see :mod:`spinclone.search`).

    ``base = diagonal . |a|^2`` with ``diagonal = sum_a (c^2 (s_a - n_a) +
    s^2 n_a) / n_out`` over the output classes; ``gbar = sum weight a[lower]
    conj(a[upper])`` over the pairs ``n -> n + e_a`` of every output class,
    ``weight = sqrt((n_a + 1)(s_a - n_a)) / n_out``.
    """

    def __init__(self, net: SpinNetwork, basis: SectorBasis, theta: float):
        outputs = net.output_sites
        if not outputs:
            raise ValueError("network has no output sites")
        n_out = len(outputs)
        c2 = math.cos(theta / 2.0) ** 2
        s2 = math.sin(theta / 2.0) ** 2
        classes = list(dict.fromkeys(basis.classes[o] for o in outputs))
        self.lower, self.upper, elements = map(np.concatenate, zip(
            *[basis.raising(a) for a in classes]))
        self.weight = elements / n_out
        occupied = basis.counts[:, classes].sum(axis=1)
        self.diagonal = (c2 * (n_out - occupied) + s2 * occupied) / n_out
        self.cs = math.cos(theta / 2.0) * math.sin(theta / 2.0)

    def fidelity(self, base, gbar, field_phase):
        """``base + 2cs Re[gbar field_phase]``, ``field_phase = e^{-iBt}``."""
        return base + 2.0 * self.cs * np.real(gbar * field_phase)


def _site_indices(basis: SectorBasis, sites) -> tuple[np.ndarray, ...]:
    """(n_sites, k) index arrays ``empty, occupied, idx0, idx1`` that reduce
    a configuration-basis state to each of ``sites``: the positions with the
    site empty/occupied, and the pairs coupling a configuration with the site
    empty to its partner with the site occupied (all other sites equal,
    partner weight present in the basis)."""
    if not len(sites):
        raise ValueError("no sites to reduce")
    if not all(0 <= s < len(basis.classes) for s in sites):
        raise ValueError("site index out of range")

    def indices(site):
        occupied = basis.counts[:, site] != 0
        return (np.nonzero(~occupied)[0], np.nonzero(occupied)[0],
                *basis.raising(site)[:2])

    return tuple(np.stack(part) for part in zip(*map(indices, sites)))


def _reduced_states(p0, p1, coherence) -> np.ndarray:
    """Stacked 2x2 states ``[[p0, coherence], [conj, p1]]``, row/column
    order (|0>, |1>), each checked as a density matrix."""
    matrices = np.empty(np.shape(p0) + (2, 2), dtype=np.complex128)
    matrices[..., 0, 0] = p0
    matrices[..., 0, 1] = coherence
    matrices[..., 1, 0] = np.conj(coherence)
    matrices[..., 1, 1] = p1
    _check_densities(matrices)
    return matrices


def _site_densities(basis: SectorBasis, amplitudes: np.ndarray,
                    sites) -> np.ndarray:
    """(n_states, n_sites, 2, 2) reduced states of ``sites`` for every row of
    the (n_states, dim) ``amplitudes``, each checked as a density matrix."""
    empty, occupied, idx0, idx1 = _site_indices(basis, sites)
    # take() keeps each row's entries contiguous, so every row is summed in
    # the same order whatever the number of rows.
    def pick(index):
        return np.take(amplitudes, index, axis=-1)

    return _reduced_states(np.sum(np.abs(pick(empty)) ** 2, axis=-1),
                           np.sum(np.abs(pick(occupied)) ** 2, axis=-1),
                           np.sum(pick(idx0) * np.conj(pick(idx1)), axis=-1))


def density_fidelities(matrix: np.ndarray, basis: SectorBasis, sites,
                       theta: float, phi: float) -> np.ndarray:
    """Clone fidelity of each of ``sites`` for a density matrix given on a
    configuration basis; the reduction and checks of the pure-state protocol,
    with the sums read off the diagonal and ``matrix[idx0, idx1]``."""
    _require_finite(theta=theta, phi=phi)
    if np.shape(matrix) != (len(basis), len(basis)):
        raise ValueError("matrix shape does not match basis")
    empty, occupied, idx0, idx1 = _site_indices(basis, sites)
    diagonal = np.real(np.diag(matrix))
    densities = _reduced_states(diagonal[empty].sum(axis=-1),
                                diagonal[occupied].sum(axis=-1),
                                matrix[idx0, idx1].sum(axis=-1))
    return _overlaps(densities, theta, phi)


def _overlaps(matrices: np.ndarray, thetas, phi: float) -> np.ndarray:
    """``<psi|rho|psi>`` for ``psi = cos(t/2)|0> + e^{i phi} sin(t/2)|1>``
    over stacked 2x2 matrices; ``thetas`` broadcasts against their leading
    axes."""
    thetas = np.asarray(thetas)
    psi = np.stack([np.cos(thetas / 2.0) + 0j,
                    np.exp(1j * phi) * np.sin(thetas / 2.0)], axis=-1)
    psi = psi[..., None, :]
    return np.real(psi.conj() @ matrices @ np.swapaxes(psi, -1, -2))[..., 0, 0]


def protocol_fidelities(net: SpinNetwork, anisotropy: float, field: float,
                        thetas, phi: float, t: float) -> np.ndarray:
    """(n_theta, n_outputs) clone fidelities of the free-evolution protocol,
    one row per input angle in ``thetas`` and one column per output site in
    ``net.output_sites`` order.

    The block is built and diagonalized once for all angles.  Every row's
    evolved state passes the norm check and every reduced state the density
    checks.
    """
    if not net.output_sites:
        raise ValueError("network has no output sites")
    _require_finite(t=t, field=field)
    configured = net.with_params(anisotropy=anisotropy, field=field)
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    n_in = len(net.input_sites)
    basis = sector_basis(net.n_sites, tuple(range(n_in + 1)))
    patterns = _input_patterns(configured, basis)
    evolved = _propagate(build_block(configured, basis.weights), patterns,
                         t).T
    coefficients = _input_coefficients(thetas, phi, n_in)
    # Elementwise, so a row does not depend on how many angles share the call.
    amplitudes = sum(coefficients[:, k, None] * evolved[k]
                     for k in range(n_in + 1))
    _check_norms(amplitudes)
    densities = _site_densities(basis, amplitudes, net.output_sites)
    return _overlaps(densities, thetas[:, None], phi)


def run_protocol(net: SpinNetwork, anisotropy: float, field: float,
                 theta: float, phi: float, t: float) -> CloneResult:
    """Free-evolution cloning run at one input angle; the one-row case of
    :func:`protocol_fidelities`."""
    fidelities = protocol_fidelities(net, anisotropy, field, [theta], phi, t)[0]
    return CloneResult(per_site_fidelity=dict(zip(net.output_sites,
                                                  fidelities.tolist())),
                       mean_fidelity=float(np.mean(fidelities)))
