import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclone import (DimensionLimitError, bipartite, build_block,
                       from_edge_list, sector_basis, star, tree)
from spinclone.dynamics import _propagate
from spinclone.hamiltonian import count_basis, sector_dimension
from reference import full_hamiltonian, restacked_counts


def test_basis_ordering_and_size():
    # Lexicographic with class 0 the lowest digit: lexsort's last key, the
    # highest class, is its primary one.
    basis = sector_basis(4, (0, 1, 2))
    assert np.array_equal(np.lexsort(basis.counts.T), np.arange(len(basis)))
    assert len(basis) == 1 + 4 + 6
    assert basis.weights == (0, 1, 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       data=st.data())
def test_count_basis_matches_restacked_enumeration(sizes, data):
    # Same states in the same order as the enumeration that restacks the
    # count array at every class, with distinct codes whose lookup and
    # raising pairs land on the right rows.
    classes = tuple(np.repeat(np.arange(len(sizes)), sizes).tolist())
    weights = tuple(data.draw(st.sets(st.integers(0, len(classes)),
                                      min_size=1)))
    basis = count_basis(classes, weights)
    counts = restacked_counts(classes, weights)
    assert np.array_equal(basis.counts, counts)
    assert np.array_equal(basis.state_weights, counts.sum(axis=1))
    assert len(basis) == sector_dimension(sizes, weights)
    assert len(np.unique(basis.codes)) == len(basis)
    assert np.array_equal(basis.index_of(basis.codes), np.arange(len(basis)))
    rows = {tuple(c): k for k, c in enumerate(counts.tolist())}
    for cls, size in enumerate(sizes):
        lower, upper, elements = basis.raising(cls)
        expected = [(k, rows[c[:cls] + (c[cls] + 1,) + c[cls + 1:]])
                    for k, c in enumerate(map(tuple, counts.tolist()))
                    if c[cls] < size
                    and c[:cls] + (c[cls] + 1,) + c[cls + 1:] in rows]
        assert list(zip(lower.tolist(), upper.tolist())) == expected
        n = counts[lower, cls]
        assert np.array_equal(elements, np.sqrt((n + 1) * (size - n)))


@pytest.mark.parametrize("sizes,weights,expected", [
    ([1] * 1001, (0, 1), 1002),
    ([1] * 40, tuple(range(41)), 2 ** 40),
    ([4, 500], (0, 1, 2, 3, 4), 15),
    ([1] * 504, (0, 1, 2, 3, 4), sum(math.comb(504, w) for w in range(5))),
    ([2, 3], (1, 9, -1), 2),
])
def test_sector_dimension_closed_forms(sizes, weights, expected):
    assert sector_dimension(sizes, weights) == expected


def test_basis_rejects_empty_weights():
    with pytest.raises(ValueError):
        sector_basis(4, ())


def test_single_excitation_dimension():
    basis = sector_basis(40, (1,))
    assert len(basis) == 40
    # Past 64 sites: the vacuum, then site k excited, at 1001 sites.
    basis = sector_basis(1001, (0, 1))
    assert np.array_equal(basis.counts[1:], np.eye(1001, dtype=np.int64))
    assert not basis.counts[0].any()
    lower, upper, _ = basis.raising(1000)
    assert (lower.tolist(), upper.tolist()) == ([0], [1001])


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
                         anisotropy=lam).with_params(field=field)
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
