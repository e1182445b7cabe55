import math

import numpy as np
import pytest

from spinclone import (DimensionLimitError, bipartite, build_block,
                       from_edge_list, sector_basis, star, tree)
from spinclone.dynamics import _propagate
from reference import full_hamiltonian


def test_basis_ordering_and_size():
    basis = sector_basis(4, (0, 1, 2))
    assert list(basis.states) == sorted(basis.states)
    assert len(basis) == 1 + 4 + 6
    assert basis.weights == (0, 1, 2)


def test_basis_rejects_empty_weights():
    with pytest.raises(ValueError):
        sector_basis(4, ())


def test_single_excitation_dimension():
    basis = sector_basis(40, (1,))
    assert len(basis) == 40


def test_dimension_checked_before_enumeration():
    # 2^40 configurations: raising must not wait for them to be listed.
    for error in (DimensionLimitError, ValueError):
        with pytest.raises(error, match=str(2 ** 40)):
            sector_basis(40, tuple(range(41)))


def test_two_site_xy_hopping_block():
    # Hand Pauli algebra: (1/4)(sx sx + sy sy) on {|01>, |10>} hops with J/2.
    net = from_edge_list(2, [(0, 1, 1.0)], [0], [1])
    block = build_block(net, (1,))
    np.testing.assert_allclose(block.matrix, [[0.0, 0.5], [0.5, 0.0]],
                               atol=1e-15)


def test_two_site_weight_zero_diagonal():
    # |00> has z_0 = z_1 = +1: diagonal lam*J/4 + B, checked against the
    # independent full 4x4 construction.
    lam, field = 0.7, 0.3
    net = from_edge_list(2, [(0, 1, 1.0)], [0], [1],
                         anisotropy=lam, field=field)
    block = build_block(net, (0,))
    assert block.matrix.shape == (1, 1)
    expected = lam / 4.0 + field
    np.testing.assert_allclose(block.matrix[0, 0], expected, atol=1e-14)
    full = full_hamiltonian(net)
    np.testing.assert_allclose(full[0, 0].real, expected, atol=1e-14)


@pytest.mark.parametrize("net", [
    star(3).with_params(anisotropy=0.4, field=0.21),
    bipartite(2, 3).with_params(anisotropy=1.0, field=0.13),
    tree(2, 1).with_params(anisotropy=0.0, field=0.4),
])
def test_block_matches_full_hamiltonian(net):
    # All-weights block must equal the independent Kronecker construction.
    block = build_block(net, tuple(range(net.n_sites + 1)))
    full = full_hamiltonian(net)
    assert np.max(np.abs(full.imag)) <= 1e-14
    np.testing.assert_allclose(block.matrix, full.real, atol=1e-12)


def test_block_is_hermitian_and_weight_diagonal():
    net = bipartite(2, 4).with_params(anisotropy=0.6, field=0.2)
    block = build_block(net, (0, 1, 2))
    m = block.matrix
    assert np.max(np.abs(m - m.T)) <= 1e-12
    w = block.basis.state_weights
    mixes = m[w[:, None] != w[None, :]]
    assert np.max(np.abs(mixes)) == 0.0


def test_star_field_block_eigenvalues():
    # Weight-1 star(2) block: E = +/- sqrt(2)/2 + B/2 plus a dark state B/2.
    field = 0.37
    net = star(2).with_params(field=field)
    vals = np.linalg.eigvalsh(build_block(net, (1,)).matrix)
    expected = np.sort([math.sqrt(2) / 2 + field / 2,
                        -math.sqrt(2) / 2 + field / 2,
                        field / 2])
    np.testing.assert_allclose(vals, expected, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_star_single_excitation_spectrum(m):
    # At B=0 the block is (J/2) x star adjacency: +/- sqrt(M)/2 and zeros.
    vals = np.linalg.eigvalsh(build_block(star(m), (1,)).matrix)
    expected = np.sort([-math.sqrt(m) / 2] + [0.0] * (m - 1)
                       + [math.sqrt(m) / 2])
    np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_single_excitation_block_is_half_adjacency():
    net = tree(2, 1)
    block = build_block(net, (1,))
    adjacency = np.zeros((net.n_sites, net.n_sites))
    for i, j, coupling in net.edges:
        adjacency[i, j] = adjacency[j, i] = coupling
    np.testing.assert_allclose(block.matrix, adjacency / 2.0, atol=1e-15)


def test_propagate_contract():
    # The propagator on the full 512-state block is unitary, commutes with
    # the block, is the identity at t = 0 and composes in time.
    net = bipartite(4, 5).with_params(anisotropy=0.4, field=0.3)
    block = build_block(net, tuple(range(10)))
    eye = np.eye(len(block.basis))
    u = _propagate(block, eye, 0.7)
    scale = max(1.0, np.max(np.abs(block.matrix)))
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10
    assert np.max(np.abs(block.matrix @ u - u @ block.matrix)) <= 1e-10 * scale
    assert np.max(np.abs(_propagate(block, eye, 0.0) - eye)) <= 1e-10
    assert np.max(np.abs(_propagate(block, u, 0.7)
                         - _propagate(block, eye, 1.4))) <= 1e-10
