import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinclone.noise
from spinclone import (b_opt_xy, bipartite, build_block, circuit_baseline,
                       circuit_ideal_fidelity, from_edge_list, lindblad_evolve,
                       noisy_network_fidelity, pcc_circuit_schedule,
                       prepare_input, run_protocol, sector_basis, star,
                       stochastic_evolve, t_c_xy, tree)
from spinclone import cli
from spinclone.cli import main
from spinclone.dynamics import _propagate, density_fidelities
from spinclone.noise import (MixedState, _expm, cnot_pulses, cry_pulses,
                             schedule_duration)
from reference import (configuration_words, full_dephasing_evolve,
                       full_hamiltonian, full_input_state, full_space_circuit,
                       lie_split_average, schedule_unitary,
                       split_step_average, stochastic_stepwise)
from strategies import small_networks as connected_networks

EQUATOR = math.pi / 2


def _pure(basis, amplitudes):
    return MixedState(basis=basis,
                      matrix=np.outer(amplitudes, amplitudes.conj()))


def _trace_distance(a, b):
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)))


def _star_setup(m, gamma_field=None):
    field = b_opt_xy(m) if gamma_field is None else gamma_field
    net = star(m).with_params(anisotropy=0.0, field=field)
    basis, amplitudes = prepare_input(net, EQUATOR, 0.0)
    block = build_block(net, basis.weights)
    return net, basis, amplitudes, block


def test_lindblad_gamma_zero_matches_unitary():
    _, basis, amplitudes, block = _star_setup(2)
    out = lindblad_evolve(_pure(basis, amplitudes), block, 0.0, 1.7)
    pure = _propagate(block, amplitudes, 1.7)
    expected = np.outer(pure, pure.conj())
    assert np.max(np.abs(out.matrix - expected)) <= 1e-9


def test_single_qubit_dephasing_analytic():
    net = from_edge_list(1, [], [0], [])
    block = build_block(net, (0, 1))
    basis, amplitudes = prepare_input(net, EQUATOR, 0.0)
    gamma, t = 0.05, 1.0
    out = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t)
    expected = 0.5 * math.exp(-gamma * t / 2.0)
    assert abs(out.matrix[0, 1] - expected) <= 1e-10


def test_lindblad_trace_and_positivity():
    _, basis, amplitudes, block = _star_setup(3)
    out = lindblad_evolve(_pure(basis, amplitudes), block, 0.01, t_c_xy(3))
    assert abs(np.trace(out.matrix).real - 1.0) <= 1e-8
    assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9


@pytest.mark.parametrize("gamma", [0.1, 2.0, 1e6, 1e7, 1e8, 1e9, 1e12])
def test_dephasing_propagators_keep_the_trace(gamma):
    # The propagator is exponentiated with the trace as a coordinate of its
    # own, so stiff dephasing cannot leak population (scaling and squaring
    # lost 3e-10 of it per pi/2 pulse at Gamma = 1e7).
    _, basis, amplitudes, block = _star_setup(3)
    out = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t_c_xy(3))
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-14
    _, pair, pair_z, pulses, _, _ = spinclone.noise._compiled_circuit(2)
    diagonal = np.arange(4) * 5
    for duration in sorted({pulse[1] for pulse in pulses}):
        propagator = spinclone.noise._propagator(pair, pair_z, gamma,
                                                 duration)
        # Column (c, d) of the populations' sum is the trace of the image
        # of |c><d|: 1 on the diagonal, 0 off it.
        sums = propagator[diagonal].sum(axis=0)
        assert np.max(np.abs(sums - np.isin(np.arange(16), diagonal))) \
            <= 1e-14


@pytest.mark.parametrize("grid", ["1e-4:1e-1:10", "0.5,1,2,4"])
def test_expm_matches_scipy_on_fig3(tmp_path, monkeypatch, grid):
    # Every Liouvillian and trajectory step that fig3 exponentiates; the
    # second grid holds the pair Liouvillian's exceptional point Gamma = 2J.
    arguments = []

    def recording(a):
        arguments.append(a.copy())
        return _expm(a)

    monkeypatch.setattr(spinclone.noise, "_expm", recording)
    main(["--out-dir", str(tmp_path), "--gamma-grid", grid, "fig3"])
    assert len(arguments) > 20
    for a in arguments:
        assert np.max(np.abs(_expm(a) - scipy.linalg.expm(a))) <= 1e-14


@pytest.mark.parametrize("dim", [2, 4, 16, 36])
def test_expm_matches_scipy_on_random_matrices(dim):
    rng = np.random.default_rng(dim)
    for norm in (1e-3, 0.1, 1.0, 5.0, 5.4, 20.0, 200.0):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        a *= norm / np.linalg.norm(a, 1)
        expected = scipy.linalg.expm(a)
        assert (np.linalg.norm(_expm(a) - expected, 1)
                <= 1e-12 * np.linalg.norm(expected, 1))


def test_expm_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((5, 5))), np.eye(5))
    assert np.array_equal(_expm(np.zeros((3, 3), dtype=complex)), np.eye(3))


@st.composite
def small_networks(draw):
    """Connected graphs of 2-4 sites: a random spanning tree plus extra edges."""
    n_sites = draw(st.integers(2, 4))
    coupling = st.floats(0.2, 2.0)
    edges = [(draw(st.integers(0, k - 1)), k, draw(coupling))
             for k in range(1, n_sites)]
    tree_pairs = {(i, j) for i, j, _ in edges}
    edges += [(i, j, draw(coupling))
              for i in range(n_sites) for j in range(i + 1, n_sites)
              if (i, j) not in tree_pairs and draw(st.booleans())]
    n_inputs = draw(st.integers(1, n_sites - 1))
    return from_edge_list(n_sites, edges, list(range(n_inputs)),
                          list(range(n_inputs, n_sites)),
                          anisotropy=draw(st.floats(0.0, 1.0))).with_params(
                              field=draw(st.floats(-1.0, 1.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), gamma=st.floats(0.0, 2.0), t=st.floats(0.0, 5.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi))
@example(net=star(1), gamma=2.0, t=1.0, theta=EQUATOR, phi=0.0)
def test_lindblad_matches_full_space_oracle(net, gamma, t, theta, phi):
    basis, amplitudes = prepare_input(net, theta, phi)
    block = build_block(net, basis.weights)
    out = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t).matrix
    assert abs(np.trace(out) - 1.0) <= 1e-10
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-10

    psi = full_input_state(net, theta, phi)
    oracle = full_dephasing_evolve(full_hamiltonian(net),
                                   np.outer(psi, psi.conj()), gamma, t)
    lifted = np.zeros_like(oracle)
    words = configuration_words(basis)
    lifted[np.ix_(words, words)] = out
    assert np.max(np.abs(lifted - oracle)) <= 1e-10


def test_lindblad_rejects_oversized_liouvillian():
    from spinclone import DimensionLimitError
    net = star(6)
    block = build_block(net, tuple(range(net.n_sites + 1)))
    rho0 = MixedState(basis=block.basis,
                      matrix=np.eye(len(block.basis)) / len(block.basis))
    with pytest.raises(DimensionLimitError):
        lindblad_evolve(rho0, block, 0.01, 1.0)


def test_lindblad_first_order_loss():
    net = _star_setup(2)[0]
    gamma = 1e-3
    noiseless = noisy_network_fidelity(net, 0.0, b_opt_xy(2), EQUATOR, 0.0,
                                       t_c_xy(2))
    noisy = noisy_network_fidelity(net, 0.0, b_opt_xy(2), EQUATOR, gamma,
                                   t_c_xy(2))
    assert noisy < noiseless
    assert noiseless - noisy < 10.0 * gamma * t_c_xy(2)


def test_stochastic_gamma_zero_is_exact():
    _, _, amplitudes, block = _star_setup(2)
    out = stochastic_evolve(amplitudes, block, 0.0, 1.3, n_traj=3, seed=1)
    pure = _propagate(block, amplitudes, 1.3)
    expected = np.outer(pure, pure.conj())
    assert np.max(np.abs(out.matrix - expected)) <= 1e-9


@pytest.mark.parametrize("n_traj", [0, -3])
def test_stochastic_needs_a_trajectory(n_traj):
    _, _, amplitudes, block = _star_setup(2)
    with pytest.raises(ValueError, match="trajectory"):
        stochastic_evolve(amplitudes, block, 1e-3, 1.0, n_traj=n_traj)


def test_stochastic_single_qubit_three_sigma():
    net = from_edge_list(1, [], [0], [])
    block = build_block(net, (0, 1))
    basis, amplitudes = prepare_input(net, EQUATOR, 0.0)
    gamma, t, n_traj = 0.05, 1.0, 1000
    out = stochastic_evolve(amplitudes, block, gamma, t,
                            n_traj=n_traj, seed=123)
    target = 0.5 * math.exp(-gamma * t / 2.0)
    # Spread of e^{-i W} with Var W = gamma t, divided by sqrt(n).
    sigma = math.sqrt(max(0.5 * (1 - math.exp(-2 * gamma * t))
                          - (1 - math.exp(-gamma * t / 2)) ** 2, 0.0) / 2)
    sigma = max(sigma / math.sqrt(n_traj), 1e-4)
    assert abs(out.matrix[0, 1].real - target) <= 3.0 * sigma
    assert abs(out.matrix[0, 1].imag) <= 3.0 * sigma


@pytest.mark.parametrize("n_traj,gamma,t", [
    (2, 0.05, 0.5),
    (999, 0.05, 0.5),          # odd: the antithetic half is one row short
    (1000, 0.1, t_c_xy(2)),    # 2222 equal steps, 2223 kicks
    (1000, 0.1, 0.0237),       # 24 equal steps, 25 kicks
    (1000, 0.0, 0.5),          # no kicks drawn
])
def test_stochastic_matches_stepwise_oracle(n_traj, gamma, t):
    _, _, amplitudes, block = _star_setup(2)
    out = stochastic_evolve(amplitudes, block, gamma, t,
                            n_traj=n_traj, seed=7)
    rho, _ = stochastic_stepwise(amplitudes, block, gamma, t,
                                 n_traj=n_traj, seed=7)
    assert np.array_equal(out.matrix, rho)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_traj=st.integers(2, 1200), gamma=st.sampled_from([0.0, 0.1]) |
       st.floats(0.0, 2.0), steps=st.integers(0, 40),
       dt=st.floats(1e-3, 0.1),
       fraction=st.just(0.0) | st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_traj=999, gamma=0.3, steps=7, dt=1e-2, fraction=0.5, seed=3)
@example(n_traj=1200, gamma=0.0, steps=5, dt=1e-2, fraction=0.0, seed=0)
def test_stochastic_matches_stepwise_oracle_property(n_traj, gamma, steps,
                                                     dt, fraction, seed):
    # Chunk boundaries, the odd antithetic half, a zero rate and steps that
    # do not divide t leave the result bit for bit that of the oracle.
    _, _, amplitudes, block = _star_setup(2)
    t = (steps + fraction) * dt
    out = stochastic_evolve(amplitudes, block, gamma, t, dt=dt,
                            n_traj=n_traj, seed=seed)
    rho, _ = stochastic_stepwise(amplitudes, block, gamma, t, dt=dt,
                                 n_traj=n_traj, seed=seed)
    assert np.array_equal(out.matrix, rho)


def test_stochastic_single_trajectory_near_oracle():
    # One-row products may take another BLAS path than the oracle's.
    _, _, amplitudes, block = _star_setup(2)
    out = stochastic_evolve(amplitudes, block, 0.1, 0.5, n_traj=1,
                            seed=7)
    rho, _ = stochastic_stepwise(amplitudes, block, 0.1, 0.5,
                                 n_traj=1, seed=7)
    assert np.max(np.abs(out.matrix - rho)) <= 1e-14


@pytest.mark.parametrize("n_traj", [1000, 2000, 25202])
def test_stochastic_memory_stays_bounded(n_traj):
    # The counts of this suite, of fig3's default grid and of fig3 from
    # Gamma = 10 up, at that grid's step: the kicks are drawn one at a time,
    # so the peak is a few trajectory arrays, whatever the step count.
    _, basis, amplitudes, block = _star_setup(2)
    stochastic_evolve(amplitudes, block, 0.1, 0.01, n_traj=1)  # warm-up
    tracemalloc.start()
    try:
        stochastic_evolve(amplitudes, block, 0.1, t_c_xy(2), dt=1e-2,
                          n_traj=n_traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_traj * len(basis) * 16
    if n_traj == 1000:
        assert peak < 1 << 20


MALFORMED_T_GAMMA = [("t", {"t": -1.0}), ("t", {"t": math.inf}),
                     ("t", {"t": math.nan}), ("gamma", {"gamma": math.nan}),
                     ("gamma", {"gamma": -1e-3}),
                     ("gamma", {"gamma": math.inf})]


@pytest.mark.parametrize("name,kwargs", MALFORMED_T_GAMMA + [
    ("dt", {"dt": 0.0}), ("dt", {"dt": -1e-3}), ("dt", {"dt": math.nan})])
def test_stochastic_rejects_malformed_inputs(name, kwargs):
    _, _, amplitudes, block = _star_setup(2)
    args = {"gamma": 1e-3, "t": 1.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        stochastic_evolve(amplitudes, block, n_traj=2, **args)


@pytest.mark.parametrize("name,kwargs", MALFORMED_T_GAMMA)
def test_lindblad_rejects_malformed_inputs(name, kwargs):
    _, basis, amplitudes, block = _star_setup(2)
    args = {"gamma": 1e-3, "t": 1.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        lindblad_evolve(_pure(basis, amplitudes), block, **args)


@pytest.mark.parametrize("name,kwargs", [
    case for case in MALFORMED_T_GAMMA if case[0] == "gamma"])
def test_circuit_rejects_malformed_gamma(name, kwargs):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        circuit_baseline(2, EQUATOR, **kwargs)


@pytest.mark.parametrize("caller", ["lindblad_evolve",
                                    "noisy_network_fidelity",
                                    "stochastic_evolve", "cli"])
def test_overflowing_gamma_is_rejected_by_name(tmp_path, monkeypatch,
                                               caller):
    # A finite gamma whose generator or gamma * t overflows raises a
    # ValueError naming both, before any exponential of a non-finite
    # argument and without a RuntimeWarning (which the suite makes an error).
    _, basis, amplitudes, block = _star_setup(2)
    calls = {
        "lindblad_evolve": lambda: lindblad_evolve(
            _pure(basis, amplitudes), block, 1e308, t_c_xy(2)),
        "noisy_network_fidelity": lambda: noisy_network_fidelity(
            star(2), 0.0, b_opt_xy(2), EQUATOR, 1e308, t_c_xy(2)),
        "stochastic_evolve": lambda: stochastic_evolve(
            amplitudes, block, 1.7e308, 2.0, n_traj=2),
        "cli": lambda: main(["--out-dir", str(tmp_path), "--gamma-grid",
                             "1e308", "fig3"]),
    }
    arguments = []

    def recording(a):
        arguments.append(np.isfinite(a).all())
        return _expm(a)

    monkeypatch.setattr(spinclone.noise, "_expm", recording)
    with pytest.raises(ValueError, match=r"^gamma \* t .* got gamma=.*, t="):
        calls[caller]()
    assert all(arguments)


def test_largest_computable_gamma_still_computes():
    # The rejection above takes nothing that computed before it.
    _, basis, amplitudes, block = _star_setup(2)
    out = lindblad_evolve(_pure(basis, amplitudes), block, 1e306, t_c_xy(2))
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-14
    stochastic_evolve(amplitudes, block, 1e306, t_c_xy(2), dt=0.1, n_traj=2)
    for m in (2, 3):
        assert abs(circuit_baseline(m, EQUATOR, 1e308) - 0.5) <= 1e-15


def _mean_clone_fidelity(matrix, net, basis, theta, phi):
    return np.mean(density_fidelities(matrix, basis, net.output_sites, theta,
                                      phi))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(net=connected_networks(max_sites=4), gamma=st.floats(0.0, 0.5),
       t=st.floats(0.0, 1.5), theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2 * math.pi))
def test_trajectories_match_master_within_three_sigma(net, gamma, t, theta,
                                                      phi):
    n_traj = 200
    basis, amplitudes = prepare_input(net, theta, phi)
    block = build_block(net, basis.weights)
    master = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t).matrix
    sampled = stochastic_evolve(amplitudes, block, gamma, t,
                                n_traj=n_traj, seed=5).matrix
    _, states = stochastic_stepwise(amplitudes, block, gamma, t,
                                    n_traj=n_traj, seed=5)
    per_traj = np.array([
        _mean_clone_fidelity(np.outer(psi, psi.conj()), net, basis,
                             theta, phi) for psi in states])
    pairs = 0.5 * (per_traj[:n_traj // 2] + per_traj[n_traj // 2:])
    sigma = max(np.std(pairs, ddof=1) / math.sqrt(len(pairs)), 1e-4)
    gap = (_mean_clone_fidelity(sampled, net, basis, theta, phi)
           - _mean_clone_fidelity(master, net, basis, theta, phi))
    assert abs(gap) <= 3.0 * sigma


@pytest.mark.parametrize("gamma", [1e-3, 1e-2])
def test_solver_agreement_on_star(gamma):
    _, basis, amplitudes, block = _star_setup(2)
    master = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t_c_xy(2))
    sampled = stochastic_evolve(amplitudes, block, gamma, t_c_xy(2),
                                n_traj=1000, seed=11)
    assert _trace_distance(master.matrix, sampled.matrix) <= 0.01


def _split_step_bias(gamma, dt, average=split_step_average):
    _, basis, amplitudes, block = _star_setup(2)
    master = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t_c_xy(2))
    averaged = average(np.outer(amplitudes, amplitudes.conj()), block, gamma,
                       t_c_xy(2), dt)
    return _trace_distance(master.matrix, averaged)


@pytest.mark.parametrize("gamma,bound", [(0.1, 2e-4), (1.0, 1e-3)])
def test_split_step_bias_of_the_cross_check(gamma, bound):
    # The exact average of fig3's trajectories (23 steps of at most 0.1 on
    # the star(2) cross-check up to Gamma = 1) misses the master equation by
    # a deterministic bias of second order in the step, far below the 0.01
    # bound and the sampling error: 223 steps cut it (223 / 23)^2 = 94-fold.
    coarse = _split_step_bias(gamma, 0.1)
    assert coarse <= bound
    assert 0.9 * 94.0 <= coarse / _split_step_bias(gamma, 1e-2) <= 1.1 * 94.0


@pytest.mark.parametrize("gamma", [1e-4, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0,
                                   100.0, 1e3, 1e7])
def test_cross_check_step_is_no_worse_than_the_first_order_split(gamma):
    # At the step derived from Gamma, the symmetric split misses the master
    # equation by no more than the first-order split at dt = 1e-2, with its
    # remainder step, that the cross-check sampled before.
    derived = _split_step_bias(gamma, cli._trajectory_step(gamma))
    assert derived <= _split_step_bias(gamma, 1e-2, lie_split_average)


def test_trajectories_average_to_the_split_step_map():
    # At a step this coarse (5 steps of at most 0.5) the bias (0.027)
    # exceeds the sampling error of 20000 trajectories, which land on the
    # split-step map, not the master.
    _, basis, amplitudes, block = _star_setup(2)
    gamma, dt, t = 3.0, 0.5, t_c_xy(2)
    master = lindblad_evolve(_pure(basis, amplitudes), block, gamma, t).matrix
    averaged = split_step_average(np.outer(amplitudes, amplitudes.conj()),
                                  block, gamma, t, dt)
    sampled = stochastic_evolve(amplitudes, block, gamma, t, dt=dt,
                                n_traj=20000, seed=0).matrix
    assert (_trace_distance(sampled, averaged) <= 0.01
            < _trace_distance(sampled, master))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=connected_networks().filter(lambda n: len(n.input_sites) == 1),
       anisotropy=st.floats(0.0, 1.0), field=st.floats(-2.0, 2.0),
       gamma=st.floats(0.0, 5.0), t=st.floats(0.0, 5.0))
@example(net=star(3), anisotropy=0.0, field=b_opt_xy(3), gamma=0.3,
         t=t_c_xy(3))
@example(net=tree(2, 1), anisotropy=0.4, field=0.7, gamma=1.3, t=2.1)
@example(net=bipartite(1, 4), anisotropy=1.0, field=-0.5, gamma=4.0, t=0.9)
def test_equator_dephasing_closed_form(net, anisotropy, field, gamma, t):
    # One input at the equator: each clone's coherence pairs weight 0 with
    # weight 1, Hamming distance 1, so dephasing damps it by exactly
    # exp(-Gamma t / 2) and F(Gamma) = 1/2 + exp(-Gamma t / 2) (F(0) - 1/2).
    ideal = run_protocol(net, anisotropy, field, EQUATOR, 0.0, t).mean_fidelity
    noisy = noisy_network_fidelity(net, anisotropy, field, EQUATOR, gamma, t)
    assert abs(noisy - 0.5 - math.exp(-gamma * t / 2.0) * (ideal - 0.5)) \
        <= 1e-12


def test_noisy_network_reduces_to_ideal():
    value = noisy_network_fidelity(star(2), 0.0, b_opt_xy(2), EQUATOR, 0.0,
                                   t_c_xy(2))
    assert abs(value - (2 + math.sqrt(2)) / 4) <= 1e-6


def test_noisy_network_strong_dephasing_limit():
    value = noisy_network_fidelity(star(2), 0.0, b_opt_xy(2), EQUATOR, 1e3,
                                   t_c_xy(2))
    assert abs(value - 0.5) <= 0.02


def test_noisy_network_regression_point():
    # Frozen solver output at Gamma/J = 1e-3 after cross-validation.
    value = noisy_network_fidelity(star(2), 0.0, b_opt_xy(2), EQUATOR, 1e-3,
                                   t_c_xy(2))
    assert abs(value - 0.8531609) <= 1e-6


def test_mixed_state_validation():
    # Each check keeps its bound (1e-9 Hermitian, 1e-8 trace, 1e-9 positive)
    # and fails on NaN.
    basis = sector_basis(2, (0, 1, 2))
    MixedState(basis=basis, matrix=np.diag([1.0 - 5e-9, 5e-9, 0.0, 0.0]))
    MixedState(basis=basis, matrix=np.diag([1.0 + 5e-9, 0.0, 0.0, 0.0]))
    for bad in (np.diag([0.5, 0.5 + 2e-8, 0.0, 0.0]),
                np.diag([1.0 + 2e-9, -2e-9, 0.0, 0.0]),
                np.eye(4) / 4 + np.triu(np.full((4, 4), 2e-9), 1),
                np.diag([1.0, math.nan, 0.0, 0.0]),
                np.eye(4) / 4 + np.triu(np.full((4, 4), math.nan), 1)):
        with pytest.raises(ValueError, match="density matrix"):
            MixedState(basis=basis, matrix=bad)
    with pytest.raises(ValueError, match="shape"):
        MixedState(basis=basis, matrix=np.eye(3) / 3)


def _distance_up_to_phase(a, b):
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    return np.max(np.abs(a - (a[k] / b[k]) * b))


def test_compiled_cnot_exact():
    ideal = np.zeros((4, 4), dtype=complex)
    for x in range(4):
        ideal[x ^ 2 if x & 1 else x, x] = 1.0     # bit 0 controls bit 1
    compiled = schedule_unitary(2, cnot_pulses(0, 1))
    assert _distance_up_to_phase(compiled, ideal) <= 1e-12


@pytest.mark.parametrize("beta", [-math.pi / 2, math.pi / 2, 1.2309594173407747])
def test_compiled_cry_exact(beta):
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    ideal = np.eye(4, dtype=complex)
    # control bit 1, target bit 0: rows/cols {10, 11} = {2, 3}
    ideal[2, 2], ideal[2, 3] = c, -s
    ideal[3, 2], ideal[3, 3] = s, c
    compiled = schedule_unitary(2, cry_pulses(1, 0, beta))
    assert _distance_up_to_phase(compiled, ideal) <= 1e-12


def test_schedule_durations():
    nq2, sched2 = pcc_circuit_schedule(2)
    assert nq2 == 2
    assert abs(schedule_duration(sched2) - 2.5 * math.pi) <= 1e-12
    nq3, sched3 = pcc_circuit_schedule(3)
    assert nq3 == 3
    assert schedule_duration(sched3) > 2.5 * math.pi
    with pytest.raises(ValueError):
        pcc_circuit_schedule(4)


def test_circuit_ideal_values():
    assert abs(circuit_baseline(2, EQUATOR, 0.0)
               - (2 + math.sqrt(2)) / 4) <= 1e-9
    assert abs(circuit_baseline(3, EQUATOR, 0.0)
               - (0.5 + 0.5 / math.sqrt(3))) <= 1e-9
    assert circuit_ideal_fidelity(2) == (2 + math.sqrt(2)) / 4


@pytest.mark.parametrize("m", [2, 3])
def test_network_beats_circuit_at_low_noise(m):
    gamma = 1e-3
    network = noisy_network_fidelity(star(m), 0.0, b_opt_xy(m), EQUATOR,
                                     gamma, t_c_xy(m))
    circuit = circuit_baseline(m, EQUATOR, gamma)
    assert network > circuit


@pytest.mark.parametrize("m", [2, 3])
def test_circuit_monotone_in_noise(m):
    grid = np.logspace(-4, -1, 10)
    values = [circuit_baseline(m, EQUATOR, g) for g in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.sampled_from([2, 3]), theta=st.floats(0.0, math.pi),
       gamma=st.floats(0.0, 10.0))
@example(m=2, theta=EQUATOR, gamma=0.0)
@example(m=3, theta=EQUATOR, gamma=0.0)
@example(m=3, theta=1.0, gamma=0.5)
@example(m=3, theta=EQUATOR, gamma=1.0)
@example(m=2, theta=EQUATOR, gamma=2.0)   # the pair's exceptional point
@example(m=3, theta=EQUATOR, gamma=2.0)
@example(m=3, theta=2.5, gamma=4.0)
def test_circuit_matches_full_space_oracle(m, theta, gamma):
    # Each pulse as the pair's 16 x 16 propagator times the spectators'
    # damping against the whole Liouvillian's exponential.
    assert abs(circuit_baseline(m, theta, gamma)
               - full_space_circuit(m, theta, gamma)) <= 1e-12


def test_threads_compile_and_share_one_circuit():
    # More threads than cores race to fill the cache, then read it at once.
    items = [(m, g) for m in (2, 3) for g in (0.0, 0.1, 2.0)] * 4
    serial = [circuit_baseline(m, EQUATOR, g) for m, g in items]
    spinclone.noise._compiled_circuit.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(circuit_baseline, m, EQUATOR, g)
                       for m, g in items]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_compiled_circuit_is_read_only():
    # One compiled pulse per XY pulse of the schedule, each after the fused
    # rotations since the one before, which match the oracle's unitary of
    # that run of rotations; every cached array refuses writes.
    for m, n_pulses in ((2, 6), (3, 8)):
        n_qubits, schedule = pcc_circuit_schedule(m)
        durations = [p.value for p in schedule if p.kind == "xy_pulse"]
        runs = [[]]
        for pulse in schedule:
            if pulse.kind == "xy_pulse":
                runs.append([])
            else:
                runs[-1].append(pulse)
        _, pair, pair_z, pulses, closing, hamming = (
            spinclone.noise._compiled_circuit(m))
        assert len(durations) == n_pulses
        assert [duration for _, duration, _ in pulses] == durations
        fused = [u for u, _, _ in pulses] + [closing]
        for u, run in zip(fused, runs, strict=True):
            assert np.max(np.abs(u - schedule_unitary(n_qubits, run))) \
                <= 1e-14
        arrays = [pair, pair_z, closing, hamming] + [u for u, _, _ in pulses]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
