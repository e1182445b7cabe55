"""Independent brute-force oracles for the test suite.

Everything here works on the full 2^n space with dense Kronecker products
and generic tensor reshapes, deliberately sharing no machinery with the
package's sector-restricted implementation, with two exceptions:
``stochastic_stepwise`` takes its step unitary from ``noise._expm``, so that
it checks the chunked trajectory kernel bit for bit, and
``full_space_circuit`` exponentiates its Liouvillians with
``noise._propagator`` (``_expm`` itself is pinned against
``scipy.linalg.expm`` in ``test_noise``).  ``dense_optimize`` is the
optimizer's own dense scan, evaluator and refinement, the oracle for the
grid times that its coarse-to-fine scan skips.  The seeded-draw oracles call
numpy's own ``SeedSequence`` and ``default_rng``, one seed at a time.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from spinclone import search
from spinclone.dynamics import OutputReadout, count_input
from spinclone.hamiltonian import assemble_blocks, sector_dimension
from spinclone.noise import _expm, _propagator, pcc_circuit_schedule

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID = np.eye(2, dtype=complex)


def product_operator(ops, n_sites):
    """Kronecker product of ``ops[site]`` on the given sites and the identity
    elsewhere; site 0 is the lowest configuration bit."""
    full = np.eye(1)
    for site in range(n_sites - 1, -1, -1):
        full = np.kron(full, ops.get(site, ID))
    return full


def site_operator(op, site, n_sites):
    """Embed a single-site operator."""
    return product_operator({site: op}, n_sites)


def full_hamiltonian(net, anisotropy=None, field=None):
    """Dense 2^n Hamiltonian built from Kronecker products.

    Each two-site term is one Kronecker product with both Paulis in place,
    which costs O(4^n); a product of two embedded operators would cost
    O(8^n), most of the suite's time at 9 and 10 sites.
    """
    n = net.n_sites
    lam = net.anisotropy if anisotropy is None else anisotropy
    fields = net.field_b if field is None else [field] * n
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, coupling in net.edges:
        xx = product_operator({i: SX, j: SX}, n)
        yy = product_operator({i: SY, j: SY}, n)
        zz = product_operator({i: SZ, j: SZ}, n)
        h += 0.25 * coupling * (xx + yy + lam * zz)
    for i in range(n):
        h += 0.5 * fields[i] * site_operator(SZ, i, n)
    return h


def full_input_state(net, theta, phi):
    """Product input on the full 2^n space, blanks in |0>."""
    single = {True: np.array([np.cos(theta / 2.0),
                              np.exp(1j * phi) * np.sin(theta / 2.0)]),
              False: np.array([1.0, 0.0], dtype=complex)}
    state = single[net.n_sites - 1 in net.input_sites]
    for site in range(net.n_sites - 2, -1, -1):
        state = np.kron(state, single[site in net.input_sites])
    return state


def schedule_unitary(n_qubits, schedule):
    """Noiseless 2^n unitary of a pulse schedule: an XY pulse of duration t
    on (a, b) is ``expm(-i t (XX + YY)/4)`` and a rotation by ``angle`` is
    ``expm(-i angle Z/2)`` or ``expm(-i angle X/2)`` on its site."""
    total = np.eye(2 ** n_qubits, dtype=complex)
    for pulse in schedule:
        if pulse.kind == "xy_pulse":
            a, b = pulse.sites
            generator = 0.25 * (product_operator({a: SX, b: SX}, n_qubits)
                                + product_operator({a: SY, b: SY}, n_qubits))
        else:
            op = SZ if pulse.kind == "z_rotation" else SX
            generator = 0.5 * site_operator(op, pulse.sites[0], n_qubits)
        total = scipy.linalg.expm(-1j * pulse.value * generator) @ total
    return total


def full_space_circuit(n_clones, theta, gamma):
    """Mean clone fidelity of the compiled cloning circuit under dephasing,
    as ``noise.circuit_baseline`` computed it before its pulses factorized:
    on the full 2^n space, each XY pulse as the exponential of its whole
    4^n-dimensional Liouvillian and each rotation as an embedded unitary,
    every qubit read as a clone of the input ``(cos theta/2, sin theta/2)``.
    """
    n_qubits, schedule = pcc_circuit_schedule(n_clones)
    dim = 2 ** n_qubits
    z = 1.0 - 2.0 * ((np.arange(dim)[:, None] >> np.arange(n_qubits)) & 1)
    single = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    psi = np.zeros(dim, dtype=complex)
    psi[:2] = single
    rho = np.outer(psi, psi.conj())
    for pulse in schedule:
        if pulse.kind == "xy_pulse":
            a, b = pulse.sites
            h = 0.25 * (product_operator({a: SX, b: SX}, n_qubits)
                        + product_operator({a: SY, b: SY}, n_qubits))
            propagator = _propagator(h, z, gamma, pulse.value)
            rho = (propagator @ rho.ravel()).reshape(dim, dim)
        else:
            op = SZ if pulse.kind == "z_rotation" else SX
            generator = site_operator(op, pulse.sites[0], n_qubits)
            u = scipy.linalg.expm(-0.5j * pulse.value * generator)
            rho = u @ rho @ u.conj().T
    fidelities = []
    for site in range(n_qubits):
        above, below = 2 ** (n_qubits - 1 - site), 2 ** site
        reduced = np.einsum("aibajb->ij",
                            rho.reshape(above, 2, below, above, 2, below))
        fidelities.append((single @ reduced @ single).real)
    return float(np.mean(fidelities))


def full_evolve(h, state, t):
    return scipy.linalg.expm(-1j * h * t) @ state


def full_reduce(state, site, n_sites):
    """One-site reduced density matrix by tensor contraction.

    The full-space index is sum_i bit_i 2^i, so reshaping to n axes puts
    site n-1 on axis 0 and site 0 on the last axis.
    """
    psi = state.reshape([2] * n_sites)
    axis = n_sites - 1 - site
    others = [a for a in range(n_sites) if a != axis]
    rho = np.tensordot(psi, psi.conj(), axes=(others, others))
    return rho


def full_reduce_density(basis, matrix, site, n_sites):
    """One-site reduced state of a density matrix given on a configuration
    basis: embedded in the full 2^n space, then traced over the sites above
    and below ``site`` by a reshape."""
    words = configuration_words(basis)
    full = np.zeros((2 ** n_sites, 2 ** n_sites), dtype=complex)
    full[np.ix_(words, words)] = matrix
    above, below = 2 ** (n_sites - 1 - site), 2 ** site
    return np.einsum("aibajb->ij",
                     full.reshape(above, 2, below, above, 2, below))


def configuration_words(basis):
    """Full-space index of every state of a configuration basis (one site
    per class): site k excited sets bit k."""
    return basis.counts @ (1 << np.arange(basis.counts.shape[1]))


def embed_full(basis, amplitudes, n_sites):
    """Lift a sector-basis amplitude vector to the full 2^n space."""
    full = np.zeros(2 ** n_sites, dtype=complex)
    full[configuration_words(basis)] = amplitudes
    return full


def restacked_counts(classes, weights):
    """Count vectors of a site partition with an excitation number in
    ``weights``, class 0 the lowest digit, by the enumeration that restacks
    the whole count array at every class; the oracle for ``count_basis``."""
    wset = sorted(set(weights))
    sizes = np.bincount(classes)
    counts = np.zeros((1, 0), dtype=np.int64)
    room = len(classes)   # sites of the classes not yet enumerated
    for size in sizes[::-1]:
        room -= size
        counts = np.column_stack((np.tile(np.arange(size + 1), len(counts)),
                                  np.repeat(counts, size + 1, axis=0)))
        total = counts.sum(axis=1, keepdims=True)
        counts = counts[((total <= wset) & (wset <= total + room)).any(axis=1)]
    return counts


def dense_twin_classes(net):
    """Twin class per site, numbered by smallest member, from one
    n x n x (n + 2) comparison of every pair of rows; the oracle for
    ``topology.twin_classes``."""
    n = net.n_sites
    rows = np.zeros((n, n + 2))   # couplings, then role and field
    for i, j, coupling in net.edges:
        rows[i, j] = rows[j, i] = coupling
    rows[list(net.input_sites), n] = 1.0
    rows[list(net.output_sites), n] = 2.0
    rows[:, n + 1] = net.field_b
    same = rows[:, None, :] == rows[None, :, :]   # [i, j, k]
    sites = np.arange(n)
    same[sites, :, sites] = same[:, sites, sites] = True   # skip k = i, j
    first = same.all(axis=2).argmax(axis=1)
    return (np.cumsum(first == sites) - 1)[first]


@dataclass(frozen=True)
class StarEigenstate:
    """One analytic eigenvalue of the XY star, with a readable label."""

    energy: float
    description: str


def xy_star_spectrum(n_clones, field):
    """Analytic XY star eigenvalues in the maximal outer-spin multiplet.

    For outer angular momentum j = M/2 the paired eigenstates
    ``(|1>|j,m> +/- |0>|j,m-1>)/sqrt(2)`` carry energies
    ``+/- (1/2) sqrt((j+m)(j-m+1)) + B (m - 1/2)`` for ``m = j .. -j+1``;
    the two extremal product states have energies ``+/- B (j + 1/2)``.
    """
    if n_clones < 1:
        raise ValueError("need at least one clone")
    j = n_clones / 2.0
    lines = [
        StarEigenstate(field * (j + 0.5), "|0>|j,j>  (all sites blank)"),
        StarEigenstate(-field * (j + 0.5), "|1>|j,-j>  (all sites excited)"),
    ]
    m = j
    while m > -j + 0.5:
        gap = 0.5 * math.sqrt((j + m) * (j - m + 1.0))
        shift = field * (m - 0.5)
        lines.append(StarEigenstate(
            gap + shift, f"(|1>|j,{m:g}> + |0>|j,{m - 1:g}>)/sqrt(2)"))
        lines.append(StarEigenstate(
            -gap + shift, f"(|1>|j,{m:g}> - |0>|j,{m - 1:g}>)/sqrt(2)"))
        m -= 1.0
    return lines


def orbit_isometry(basis, classes):
    """(dim, K) normalized indicators of the orbits of a configuration basis
    under permutations within each site class, that is of the sets of
    configurations with equal excitation counts per class.  Orbits are
    ordered by the mixed-radix code of their counts, class 0 the lowest
    digit."""
    words = configuration_words(basis)
    occupancy = (words[:, None] >> np.arange(len(classes))) & 1
    sizes = np.bincount(classes)
    radix = np.cumprod(np.concatenate(([1], sizes[:-1] + 1)))
    code = occupancy @ radix[classes]
    _, orbit, counts = np.unique(code, return_inverse=True, return_counts=True)
    isometry = np.zeros((len(basis), len(counts)))
    isometry[np.arange(len(basis)), orbit] = counts[orbit] ** -0.5
    return isometry


def full_dephasing_evolve(h, rho, gamma, t):
    """Dephasing master equation on the full 2^n space, solved exactly.

    Column-stacking vectorization, vec(A X B) = (B^T kron A) vec(X), with the
    dissipator (Gamma/4) sum_i (Z_i rho Z_i - rho) assembled from embedded
    site operators.
    """
    dim = len(h)
    n_sites = dim.bit_length() - 1
    eye = np.eye(dim)
    liouvillian = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for i in range(n_sites):
        zi = site_operator(SZ, i, n_sites)
        liouvillian += (gamma / 4.0) * (np.kron(zi.T, zi) - np.kron(eye, eye))
    vec = scipy.linalg.expm(liouvillian * t) @ rho.ravel(order="F")
    return vec.reshape((dim, dim), order="F")


def golden_max(func, lo, hi):
    """Scalar golden-section maximization of a unimodal ``func`` on
    ``[lo, hi]`` to a bracket of 1e-10, one point per call; returns the
    better final point and its value."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = func(x1), func(x2)
    while b - a > 1e-10:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = func(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = func(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def stochastic_stepwise(psi0, block, gamma, t, dt=1e-3, n_traj=1000, seed=0):
    """Trajectory average one step at a time, one kick draw per step.

    The original per-step loop of ``noise.stochastic_evolve``, kept as the
    oracle for its chunked kernel: same random stream, same arithmetic, and
    the same step unitary, from the package's ``noise._expm``.  Returns the
    averaged density matrix and the (n_traj, dim) final trajectory states.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    z = 1.0 - 2.0 * block.basis.counts   # sz per site
    rng = np.random.default_rng(seed)

    n_full = int(math.floor(t / dt + 1e-12))
    remainder = t - n_full * dt
    states = np.tile(psi0, (n_traj, 1))
    half = (n_traj + 1) // 2

    def run_segment(states, duration, n_steps):
        if n_steps == 0 or duration == 0.0:
            return states
        u = _expm(-1j * duration * block.matrix)
        scale = math.sqrt(gamma * duration)
        for _ in range(n_steps):
            states = states @ u.T
            if scale > 0.0:
                kicks = rng.normal(0.0, scale, size=(half, z.shape[1]))
                phases = np.exp(-0.5j * (kicks @ z.T))
                states = states * np.concatenate(
                    [phases, phases.conj()])[:n_traj]
        return states

    states = run_segment(states, dt, n_full)
    if remainder > 1e-15:
        states = run_segment(states, remainder, 1)
    rho = (states.T @ states.conj()) / n_traj
    return rho, states


def split_step_average(rho, block, gamma, t, dt):
    """Exact average over the kicks of ``noise.stochastic_evolve``'s steps.

    Each step maps ``rho -> D * (U rho U^dagger)`` elementwise, with ``U``
    the block propagator over the step and ``D_ab = exp(-Gamma dt
    hamming(a, b) / 2)`` the mean of the kick phases; the steps are split
    into full steps and one remainder as the trajectories split them.  Its
    distance to the master equation is the trajectories' deterministic bias.
    """
    z = 1.0 - 2.0 * block.basis.counts   # sz per site
    hamming = (z.shape[1] - z @ z.T) / 2.0
    n_full = int(math.floor(t / dt + 1e-12))
    remainder = t - n_full * dt
    rho = np.asarray(rho, dtype=np.complex128)
    for duration, n_steps in ((dt, n_full), (remainder, 1)):
        if duration <= 1e-15:
            continue
        u = scipy.linalg.expm(-1j * duration * block.matrix)
        damping = np.exp(-0.5 * gamma * duration * hamming)
        for _ in range(n_steps):
            rho = damping * (u @ rho @ u.conj().T)
    return rho


def synthesized_components(net, basis, couplings, theta, phi, t_rows,
                           t_cols=(0.0,)):
    """``(base, gbar)`` of ``search._Spectra.stacked_components`` by
    amplitude synthesis, as the package computed them before the
    Bohr-frequency form: the blocks of ``net`` (at zero field) on ``basis``
    for each row of ``couplings``, one ``eigh`` per weight, the amplitudes
    ``V (e^{-iEt} V^T psi)`` at every time ``t_rows[j] + t_cols[m]``
    (row-major), each phase the product of a row and a column phase, then
    ``D |a|^2`` and ``sum weight a[lower] conj(a[upper])``.  The input is
    loaded at azimuth ``phi`` and ``gbar`` turned back by ``e^{i phi}``:
    phase covariance makes that the scans' ``phi = 0`` value."""
    configured = net.with_params(field=0.0)
    readout = OutputReadout(configured, basis, theta)
    psi = count_input(configured, basis, theta, phi)
    blocks = assemble_blocks(configured, basis, np.atleast_2d(couplings))
    t_rows, t_cols = np.asarray(t_rows), np.asarray(t_cols)
    amps = np.empty((len(blocks), len(basis), len(t_rows) * len(t_cols)),
                    dtype=complex)
    for w in basis.weights:
        idx = np.nonzero(basis.state_weights == w)[0]
        vals, vecs = np.linalg.eigh(blocks[:, idx[:, None], idx])
        coeffs = np.swapaxes(vecs, 1, 2) @ psi[idx]
        phases = (np.exp(-1j * vals[:, :, None, None] * t_rows[:, None])
                  * np.exp(-1j * vals[:, :, None, None] * t_cols))
        amps[:, idx] = vecs @ (coeffs[:, :, None]
                               * phases.reshape(len(blocks), len(idx), -1))
    return (readout.diagonal @ np.abs(amps) ** 2,
            np.exp(1j * phi) * (readout.weight @ (
                amps[:, readout.lower] * np.conj(amps[:, readout.upper]))))


def peak_indices_argsort(values, peaks, indices=None):
    """The scan's peak choice by a full sort of the values at the grid
    ``indices`` (every index by default, in any order): the best points,
    of equal values the smaller index first, more than two grid indices
    from every chosen one, until ``peaks`` are chosen."""
    indices = np.arange(len(values)) if indices is None else indices
    chosen = []
    for idx in indices[np.lexsort((indices, -values))]:
        if len(chosen) >= peaks:
            break
        if all(abs(int(idx) - c) > 2 for c in chosen):
            chosen.append(int(idx))
    return chosen


def numpy_coupling_factors(epsilon, seeds, n_edges):
    """``default_rng(s).uniform(1 - eps, 1 + eps, n_edges)`` for every seed
    ``s``, stacked to shape ``np.shape(seeds) + (n_edges,)``."""
    shape = np.shape(seeds)
    rows = [np.random.default_rng(int(s)).uniform(1.0 - epsilon,
                                                  1.0 + epsilon, n_edges)
            for s in np.ravel(np.array(seeds, dtype=object))]
    return np.array(rows, dtype=float).reshape(shape + (n_edges,))


def numpy_generate_state(seed, n_words):
    """``SeedSequence(seed).generate_state(n_words)``: 32-bit words."""
    return np.random.SeedSequence(seed).generate_state(n_words)


def dense_optimize(net, anisotropy, theta, t_range, t_points,
                   field=(0.0, math.inf), peaks=10):
    """A dense scan: the field maximum at every one of the ``t_points`` grid
    times, each evaluated directly (one batch of arbitrary times), then the
    package's Newton refinement within one spacing of the ``peaks`` best
    separated grid points (:func:`peak_indices_argsort`).  Refined maxima
    within ``TIE_TOLERANCE`` resolve to the smallest time.  A lower bound
    for ``search.optimize``; a grid certifies nothing, so its
    ``certified_gap`` is infinite."""
    t_lo, t_hi = t_range
    b_lo, b_hi = field
    scan = search.ProtocolScan(net, anisotropy, theta)
    t_values = np.linspace(t_lo, t_hi, t_points)
    values = scan.field_optimum(t_values, b_lo, b_hi)[0]
    spacing = (t_hi - t_lo) / (t_points - 1)
    centers = t_values[peak_indices_argsort(values, peaks)]
    times, maxima = search._newton_refine(
        lambda t: scan._time_derivatives(t, b_lo, b_hi), centers,
        np.maximum(t_lo, centers - spacing),
        centers + np.minimum(spacing, t_hi - centers))
    best_t = times[maxima >= maxima.max() - search.TIE_TOLERANCE].min()
    best, fields = scan.field_optimum([best_t], b_lo, b_hi)
    return search.OptimizationResult(
        fidelity=float(best[0]), t_c=float(best_t), b_opt=float(fields[0]),
        n_evaluations=scan.n_eval,
        sector_dim=(sector_dimension([1] * net.n_sites, scan.basis.weights),
                    scan.dim),
        certified_gap=math.inf)
