"""Independent brute-force oracles for the test suite.

Everything here works on the full 2^n space with dense Kronecker products
and generic tensor reshapes, deliberately sharing no machinery with the
package's sector-restricted implementation.
"""
import numpy as np
import scipy.linalg

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID = np.eye(2, dtype=complex)


def site_operator(op, site, n_sites):
    """Embed a single-site operator; site 0 is the lowest configuration bit."""
    mats = [ID] * n_sites
    mats[site] = op
    full = mats[n_sites - 1]
    for k in range(n_sites - 2, -1, -1):
        full = np.kron(full, mats[k])
    return full


def full_hamiltonian(net, anisotropy=None, field=None):
    """Dense 2^n Hamiltonian built from Kronecker products."""
    n = net.n_sites
    lam = net.anisotropy if anisotropy is None else anisotropy
    fields = net.field_b if field is None else [field] * n
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, coupling in net.edges:
        xi, xj = site_operator(SX, i, n), site_operator(SX, j, n)
        yi, yj = site_operator(SY, i, n), site_operator(SY, j, n)
        zi, zj = site_operator(SZ, i, n), site_operator(SZ, j, n)
        h += 0.25 * coupling * (xi @ xj + yi @ yj + lam * (zi @ zj))
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


def embed_full(basis, amplitudes, n_sites):
    """Lift a sector-basis amplitude vector to the full 2^n space."""
    full = np.zeros(2 ** n_sites, dtype=complex)
    full[basis.states] = amplitudes
    return full


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
