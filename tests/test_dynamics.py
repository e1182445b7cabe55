import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclone import (ProtocolScan, b_opt_xy, bipartite, build_block,
                       circuit_baseline, density_fidelities, disorder_study,
                       from_edge_list, noisy_network_fidelity, optimize,
                       prepare_input, protocol_fidelities, run_protocol,
                       sector_basis, star, t_c_xy, tree)
from spinclone.dynamics import (_check_densities, _check_norms, _propagate,
                                _site_densities)
from reference import (configuration_words, embed_full, full_evolve,
                       full_hamiltonian, full_input_state, full_reduce,
                       full_reduce_density)
from strategies import small_networks

EQUATOR = math.pi / 2
ONE_SITE = sector_basis(1, (0, 1))   # |0>, |1>: a 2x2 matrix reduces to itself


def test_prepare_input_polar():
    _, amplitudes = prepare_input(star(3), 0.0, 1.3)
    assert abs(amplitudes[0] - 1.0) < 1e-15
    assert np.sum(np.abs(amplitudes[1:])) < 1e-15


def test_prepare_input_star_equator():
    basis, amplitudes = prepare_input(star(2), EQUATOR, 0.0)
    # Basis over weights {0, 1}: |000>, then single excitations.
    lookup = dict(zip(configuration_words(basis).tolist(), amplitudes))
    assert abs(lookup[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(lookup[1] - 1 / math.sqrt(2)) < 1e-12
    assert abs(lookup[2]) == 0.0
    assert abs(lookup[4]) == 0.0


def test_prepare_input_two_inputs():
    # Explicit 2-qubit tensor product: amplitude 1/2 on the four input
    # configurations of bipartite(2, M).
    basis, amplitudes = prepare_input(bipartite(2, 3), EQUATOR, 0.0)
    lookup = dict(zip(configuration_words(basis).tolist(), amplitudes))
    for config in (0, 1, 2, 3):
        assert abs(lookup[config] - 0.5) < 1e-12


def test_prepare_input_matches_full_space():
    net = bipartite(2, 3)
    theta, phi = 0.9, 1.1
    basis, amplitudes = prepare_input(net, theta, phi)
    full = embed_full(basis, amplitudes, net.n_sites)
    np.testing.assert_allclose(full, full_input_state(net, theta, phi),
                               atol=1e-14)


def test_evolve_identity_at_zero_time():
    net = star(2)
    basis, amplitudes = prepare_input(net, EQUATOR, 0.0)
    after = _propagate(build_block(net, basis.weights), amplitudes, 0.0)
    np.testing.assert_allclose(after, amplitudes, atol=1e-15)


def test_two_site_swap():
    # XY pair at Jt = pi moves the excitation completely (global phase free).
    net = from_edge_list(2, [(0, 1, 1.0)], [0], [1])
    basis = sector_basis(2, (0, 1))
    words = configuration_words(basis).tolist()
    amplitudes = np.zeros(3, dtype=complex)
    amplitudes[words.index(1)] = 1.0
    after = _propagate(build_block(net, (0, 1)), amplitudes, math.pi)
    swapped = words.index(2)
    assert abs(abs(after[swapped]) - 1.0) < 1e-12


def test_single_clone_star_needs_the_field():
    # Brute-force two-site check: at B = 0 the transferred state carries a
    # -i phase, so the equatorial fidelity is only 1/2; the optimal field
    # restores perfect transfer.
    net = star(1)
    h = full_hamiltonian(net, anisotropy=0.0, field=0.0)
    full = full_evolve(h, full_input_state(net, EQUATOR, 0.0), math.pi)
    rho = full_reduce(full, 1, 2)
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs((psi.conj() @ rho @ psi).real - 0.5) < 1e-12
    no_field = run_protocol(net, 0.0, 0.0, EQUATOR, 0.0, math.pi)
    assert abs(no_field.mean_fidelity - 0.5) < 1e-12
    tuned = run_protocol(net, 0.0, 0.5, EQUATOR, 0.0, math.pi)
    assert abs(tuned.mean_fidelity - 1.0) < 1e-12


def test_unitarity_long_time():
    net = bipartite(2, 3).with_params(field=0.35)
    basis, amplitudes = prepare_input(net, EQUATOR, 0.4)
    after = _propagate(build_block(net, basis.weights), amplitudes, 3.0e3)
    assert abs(np.linalg.norm(after) - 1.0) <= 1e-10


@pytest.mark.parametrize("net", [
    star(4).with_params(anisotropy=0.8, field=0.29),
    bipartite(2, 3).with_params(anisotropy=0.0, field=0.5),
    bipartite(4, 5).with_params(anisotropy=1.0, field=0.11),
    star(9).with_params(anisotropy=0.3, field=0.07),
])
def test_sector_evolution_matches_full_space(net):
    # Evolving in the union-of-weights block equals full 2^n evolution.
    theta, phi, t = 1.1, 0.7, 3.7
    basis, amplitudes = prepare_input(net, theta, phi)
    evolved = _propagate(build_block(net, basis.weights), amplitudes, t)
    full = full_evolve(full_hamiltonian(net),
                       full_input_state(net, theta, phi), t)
    lifted = embed_full(basis, evolved, net.n_sites)
    assert np.max(np.abs(lifted - full)) <= 1e-10


def test_reduce_product_state():
    basis, amplitudes = prepare_input(star(3), 0.0, 0.0)
    rho = _site_densities(basis, amplitudes[None], [2])[0, 0]
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_reduce_bell_pair():
    basis = sector_basis(2, (0, 1, 2))
    words = configuration_words(basis).tolist()
    amplitudes = np.zeros(4, dtype=complex)
    amplitudes[words.index(1)] = 1 / math.sqrt(2)
    amplitudes[words.index(2)] = 1 / math.sqrt(2)
    _check_norms(amplitudes)
    for rho in _site_densities(basis, amplitudes[None], [0, 1])[0]:
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_reduce_matches_full_space():
    net = bipartite(2, 3).with_params(field=0.17)
    basis, amplitudes = prepare_input(net, 1.0, 0.3)
    evolved = _propagate(build_block(net, basis.weights), amplitudes, 2.2)
    full = full_evolve(full_hamiltonian(net),
                       full_input_state(net, 1.0, 0.3), 2.2)
    matrices = _site_densities(basis, evolved[None], net.output_sites)[0]
    for site, rho in zip(net.output_sites, matrices):
        expected = full_reduce(full, site, net.n_sites)
        np.testing.assert_allclose(rho, expected, atol=1e-10)


@pytest.mark.parametrize("site", [3, 7, -1])
def test_reduce_density_rejects_site_out_of_range(site):
    # star(2) has 3 sites; no site outside 0..2 may read as a blank |0><0|.
    basis, amplitudes = prepare_input(star(2), EQUATOR, 0.0)
    matrix = np.outer(amplitudes, amplitudes.conj())
    with pytest.raises(ValueError, match="site index out of range"):
        density_fidelities(matrix, basis, [1, site], EQUATOR, 0.0)
    with pytest.raises(ValueError, match="site index out of range"):
        _site_densities(basis, amplitudes[None], [site])


@pytest.mark.parametrize("matrix", [np.eye(2) / 2, np.full(8, 1 / 8)],
                         ids=["too_small", "one_dimensional"])
def test_density_matrix_must_match_basis(matrix):
    with pytest.raises(ValueError, match="matrix shape does not match basis"):
        density_fidelities(matrix, sector_basis(3, (0, 1, 2, 3)), [0], 0.3,
                           0.0)


def test_reduction_needs_a_site():
    basis, amplitudes = prepare_input(star(2), EQUATOR, 0.0)
    with pytest.raises(ValueError, match="no sites to reduce"):
        density_fidelities(np.outer(amplitudes, amplitudes.conj()), basis, [],
                           EQUATOR, 0.0)
    with pytest.raises(ValueError, match="no sites to reduce"):
        _site_densities(basis, amplitudes[None], [])


def test_star_clone_value_at_optimum():
    net = star(2).with_params(field=b_opt_xy(2))
    basis, amplitudes = prepare_input(net, EQUATOR, 0.0)
    evolved = _propagate(build_block(net, basis.weights), amplitudes,
                         t_c_xy(2))
    [value] = density_fidelities(np.outer(evolved, evolved.conj()), basis,
                                 [1], EQUATOR, 0.0)
    assert abs(value - 0.853553) < 1e-6


def test_clone_fidelity_basics():
    theta, phi = 1.2, 0.8
    psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    pure = np.outer(psi, psi.conj())
    assert abs(density_fidelities(pure, ONE_SITE, [0], theta, phi)[0]
               - 1.0) < 1e-12
    mixed = np.eye(2) / 2
    for th in (0.0, 0.7, EQUATOR):
        assert abs(density_fidelities(mixed, ONE_SITE, [0], th, 0.1)[0]
                   - 0.5) < 1e-12
    blank = np.diag([1.0, 0.0]).astype(complex)
    assert abs(density_fidelities(blank, ONE_SITE, [0], EQUATOR, 0.0)[0]
               - 0.5) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       field=st.floats(-2.0, 2.0), theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2 * math.pi),
       mixture=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.05, 1.0)),
                        min_size=1, max_size=4))
def test_density_fidelities_match_full_space(net, anisotropy, field, theta,
                                             phi, mixture):
    # A random mixture of evolved states, scored at every site against the
    # partial trace of its full-space embedding.
    configured = net.with_params(anisotropy=anisotropy, field=field)
    basis, amplitudes = prepare_input(configured, theta, phi)
    block = build_block(configured, basis.weights)
    total = sum(weight for _, weight in mixture)
    matrix = 0.0
    for t, weight in mixture:
        state = _propagate(block, amplitudes, t)
        matrix = matrix + weight / total * np.outer(state, state.conj())
    values = density_fidelities(matrix, basis, range(net.n_sites), theta, phi)
    psi = np.array([math.cos(theta / 2),
                    np.exp(1j * phi) * math.sin(theta / 2)])
    for site, value in enumerate(values):
        rho = full_reduce_density(basis, matrix, site, net.n_sites)
        assert abs(value - (psi.conj() @ rho @ psi).real) <= 1e-12


def test_density_validation():
    good = np.stack([np.eye(2) / 2] * 5).astype(complex).reshape(5, 1, 2, 2)
    _check_densities(good)
    for bad in (np.array([[0.5, 0.4], [0.2, 0.5]]),    # not Hermitian
                np.diag([0.8, 0.8]),                   # trace 1.6
                np.array([[1.2, 0.0], [0.0, -0.2]]),   # negative eigenvalue
                # NaN compares false with every bound.
                np.array([[0.5, math.nan], [math.nan, 0.5]]),
                np.diag([math.nan, 0.5])):
        with pytest.raises(ValueError):
            _check_densities(bad.astype(complex))
        # The reader assembles each state from the diagonal and the upper
        # coherence, and checks it: every Hermitian bad matrix fails there.
        if np.array_equal(bad, bad.T, equal_nan=True):
            with pytest.raises(ValueError, match="density matrix"):
                density_fidelities(bad.astype(complex), ONE_SITE, [0],
                                   EQUATOR, 0.0)
        # The batched check rejects a stack with one bad matrix anywhere.
        stack = good.copy()
        stack[3, 0] = bad
        with pytest.raises(ValueError):
            _check_densities(stack)


@pytest.mark.parametrize("theta,t,message", [
    (EQUATOR, math.nan, "t must be finite"),
    (EQUATOR, math.inf, "t must be finite"),
    (math.nan, 1.0, "theta must be finite")],
    ids=["nan_time", "infinite_time", "nan_theta"])
def test_protocol_rejects_nan(theta, t, message):
    # NaN compares false with every bound, so each check must fail on it; a
    # NaN time or angle is named before anything evolves.
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            run_protocol(star(2), 0.0, 0.0, theta, 0.0, t)


def test_norm_check_covers_every_row():
    rows = np.zeros((4, 3), dtype=complex)
    rows[:, 0] = 1.0
    _check_norms(rows)
    rows[2, 1] = 1e-4
    with pytest.raises(ValueError, match="state norm differs from 1"):
        _check_norms(rows)
    rows[2, 1] = math.nan
    with pytest.raises(ValueError, match="state norm differs from 1"):
        _check_norms(rows)


def test_protocol_fidelities_shape_and_no_outputs():
    thetas = np.linspace(0.0, math.pi, 7)
    rows = protocol_fidelities(star(3), 0.0, b_opt_xy(3), thetas, 0.0,
                               t_c_xy(3))
    assert rows.shape == (7, 3)
    with pytest.raises(ValueError, match="no output sites"):
        protocol_fidelities(from_edge_list(2, [(0, 1, 1.0)], [0], []), 0.0,
                            0.0, [EQUATOR], 0.0, 1.0)


def _star_density_fidelities(theta, phi):
    basis, amplitudes = prepare_input(star(2), 0.3, 0.0)
    return density_fidelities(np.outer(amplitudes, amplitudes.conj()), basis,
                              star(2).output_sites, theta, phi)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda theta: protocol_fidelities(star(2), 0.0, 0.0, [0.3, theta], 0.0,
                                      1.0),
    lambda theta: ProtocolScan(star(2), 0.0, theta),
    lambda theta: optimize(star(2), 0.0, theta, (0.0, 5.0), 10),
    lambda theta: disorder_study(star(2), 0.1, 5, 0.0, theta, 1.0, 0.5, 0),
    lambda theta: noisy_network_fidelity(star(2), 0.0, 0.0, theta, 0.1, 1.0),
    lambda theta: circuit_baseline(2, theta, 0.1),
    lambda theta: _star_density_fidelities(theta, 0.0),
], ids=["protocol_fidelities", "scan", "optimize",
        "disorder", "noisy_network", "circuit", "density_fidelities"])
def test_non_finite_theta_is_named(call, theta):
    # Where the input is built, not as a numpy reduction or a density check
    # failing further in.
    with pytest.raises(ValueError, match="^theta must be finite"):
        call(theta)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, name", [
    (lambda v: protocol_fidelities(star(2), 0.0, 0.0, [0.3], 0.0, v), "t"),
    (lambda v: protocol_fidelities(star(2), 0.0, v, [0.3], 0.0, 1.0),
     "field"),
    (lambda v: ProtocolScan(star(2), 0.0, 0.3).mean_fidelity(v, 0.5), "t"),
    (lambda v: ProtocolScan(star(2), 0.0, 0.3).mean_fidelity(1.0, v), "b"),
    (lambda v: disorder_study(star(2), 0.1, 5, 0.0, 1.0, v, 0.5, 0),
     "t_fixed"),
    (lambda v: disorder_study(star(2), 0.1, 5, 0.0, 1.0, 1.0, v, 0),
     "b_fixed"),
    (lambda v: protocol_fidelities(star(2), 0.0, 0.0, [0.3], v, 1.0), "phi"),
    (lambda v: prepare_input(star(2), 1.0, v), "phi"),
    (lambda v: _star_density_fidelities(0.3, v), "phi"),
], ids=["protocol_fidelities_t", "protocol_fidelities_field",
        "scan_t", "scan_b", "disorder_t", "disorder_b",
        "protocol_fidelities_phi", "prepare_input_phi",
        "density_fidelities_phi"])
def test_non_finite_time_or_field_is_named(call, name, value):
    # Not a NaN result, nor an unnamed norm check failing further in.
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(max_sites=7), anisotropy=st.floats(0.0, 1.0),
       field=st.floats(-2.0, 2.0), phi=st.floats(0.0, 2 * math.pi),
       t=st.floats(0.0, 20.0),
       thetas=st.lists(st.floats(0.0, math.pi), max_size=5))
def test_protocol_fidelities_match_full_space(net, anisotropy, field, phi, t,
                                              thetas):
    thetas = [0.0] + thetas + [math.pi]
    rows = protocol_fidelities(net, anisotropy, field, thetas, phi, t)
    assert rows.shape == (len(thetas), len(net.output_sites))
    h = full_hamiltonian(net, anisotropy=anisotropy, field=field)
    for theta, row in zip(thetas, rows):
        full = full_evolve(h, full_input_state(net, theta, phi), t)
        psi = np.array([math.cos(theta / 2),
                        np.exp(1j * phi) * math.sin(theta / 2)])
        for site, value in zip(net.output_sites, row):
            rho = full_reduce(full, site, net.n_sites)
            assert abs(value - (psi.conj() @ rho @ psi).real) <= 1e-12
        # The one-angle run is the same evaluation: equal to the last bit.
        single = run_protocol(net, anisotropy, field, theta, phi, t)
        assert single.per_site_fidelity == dict(zip(net.output_sites,
                                                    row.tolist()))
        assert single.mean_fidelity == float(np.mean(row))


def test_run_protocol_heisenberg_value():
    result = run_protocol(star(2), 1.0, 0.0, EQUATOR, 0.0,
                          2.0 * math.pi / 3.0)
    assert abs(result.mean_fidelity - 5.0 / 6.0) < 1e-9


def test_run_protocol_xy_value():
    result = run_protocol(star(2), 0.0, 1.0 / math.sqrt(2.0), EQUATOR, 0.0,
                          math.pi / math.sqrt(2.0))
    assert abs(result.mean_fidelity - (2.0 + math.sqrt(2.0)) / 4.0) < 1e-9


def test_blank_clones_at_zero_time():
    for net in (star(3), bipartite(2, 4)):
        result = run_protocol(net, 0.0, 0.3, EQUATOR, 0.0, 0.0)
        assert abs(result.mean_fidelity - 0.5) < 1e-12


@pytest.mark.parametrize("net,t", [(star(4), 0.7), (tree(2, 1), 1.9)])
def test_clone_permutation_symmetry(net, t):
    configured = net.with_params(anisotropy=0.0, field=0.4)
    basis, amplitudes = prepare_input(configured, 1.0, 0.5)
    evolved = _propagate(build_block(configured, basis.weights), amplitudes, t)
    matrices = _site_densities(basis, evolved[None], net.output_sites)[0]
    for other in matrices[1:]:
        assert np.max(np.abs(other - matrices[0])) <= 1e-10


def test_phase_independence_on_star():
    values = [
        run_protocol(star(3), 0.0, 0.6, EQUATOR, phi, 1.3).mean_fidelity
        for phi in np.arange(0.0, 2.0 * math.pi + 1e-9, math.pi / 4.0)
    ]
    assert max(values) - min(values) <= 1e-10


def test_heisenberg_field_changes_only_the_time():
    # A commensurate field shifts the optimum in time, not in value.
    from spinclone import optimize
    base = optimize(star(2), 1.0, EQUATOR, (0.0, 8.0), 900, field=(0.0, 0.0))
    with_field = optimize(star(2), 1.0, EQUATOR, (0.0, 8.0), 900,
                          field=(1.0, 1.0))
    assert abs(base.fidelity - with_field.fidelity) <= 1e-6
    assert abs(with_field.t_c - base.t_c) > 0.5
