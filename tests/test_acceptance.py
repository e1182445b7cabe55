"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS|FAIL <name>` line (visible under
``pytest -s`` or in the captured output on failure) and then asserts.
"""
import math

import numpy as np
import pytest
from spinclone import (ProtocolScan, b_opt_xy, bipartite, build_block,
                       circuit_baseline, circuit_ideal_fidelity,
                       disorder_study, heis_star_fidelity, lindblad_evolve,
                       noisy_network_fidelity, optimize, prepare_input,
                       run_protocol, star, stochastic_evolve, t_c_heis,
                       t_c_xy, tree, xy_star_fidelity)
from spinclone.cli import main as cli_main
from spinclone.dynamics import _propagate, _site_densities
from spinclone.noise import MixedState
from reference import (embed_full, full_evolve, full_hamiltonian,
                       full_input_state)

EQUATOR = math.pi / 2
THETAS = (0.0, math.pi / 6, math.pi / 3, EQUATOR, 2 * math.pi / 3, math.pi)


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"criterion {number}: {name}"


def test_criterion_1_closed_form_agreement():
    worst = 0.0
    for m in range(1, 8):
        net = star(m)
        for theta in THETAS:
            xy = run_protocol(net, 0.0, b_opt_xy(m), theta, 0.0, t_c_xy(m))
            worst = max(worst, abs(xy.mean_fidelity
                                   - xy_star_fidelity(m, theta)))
            heis = run_protocol(net, 1.0, 0.0, theta, 0.0, t_c_heis(m))
            worst = max(worst, abs(heis.mean_fidelity
                                   - heis_star_fidelity(m, theta)))
    report(1, f"closed-form agreement, worst |dev| = {worst:.2e}",
           worst <= 1e-8)


def test_criterion_2_optimal_point_recovery():
    xy = optimize(star(2), 0.0, EQUATOR, t_range=(0.0, 10.0), t_points=600,
                  field=(0.0, 2.0))
    heis = optimize(star(2), 1.0, EQUATOR, t_range=(0.0, 10.0), t_points=600,
                    field=(0.0, 0.0))
    ok = (abs(xy.fidelity - (2 + math.sqrt(2)) / 4) <= 1e-6
          and abs(xy.t_c - math.pi / math.sqrt(2)) <= 1e-3
          and abs(heis.fidelity - 5.0 / 6.0) <= 1e-6
          and abs(heis.t_c - 2.0 * math.pi / 3.0) <= 1e-3)
    report(2, "blind optimization recovers both star optima", ok)


def test_criterion_3_scaling_laws():
    analytic_ok = all(
        abs(xy_star_fidelity(m, EQUATOR) - 0.5 - 0.5 / math.sqrt(m)) <= 1e-10
        and abs(heis_star_fidelity(m, EQUATOR) - 0.5 - 1 / (m + 1)) <= 1e-10
        for m in range(1, 65))
    numeric_ok = True
    for m in range(1, 8):
        xy = run_protocol(star(m), 0.0, b_opt_xy(m), EQUATOR, 0.0, t_c_xy(m))
        heis = run_protocol(star(m), 1.0, 0.0, EQUATOR, 0.0, t_c_heis(m))
        numeric_ok &= abs(xy.mean_fidelity - 0.5 - 0.5 / math.sqrt(m)) <= 1e-6
        numeric_ok &= abs(heis.mean_fidelity - 0.5 - 1 / (m + 1)) <= 1e-6
    report(3, "1/sqrt(M) and 1/(M+1) scaling laws", analytic_ok and numeric_ok)


@pytest.mark.parametrize("m", [8, 16, 32, 61, 62, 63, 64, 100, 300, 1000])
def test_criterion_3_scaling_laws_at_large_m(m):
    # On its twin classes star(M) scans 3 count states, so the closed forms
    # are checked where the laws are asymptotic.
    xy = ProtocolScan(star(m), 0.0, EQUATOR).mean_fidelity(t_c_xy(m),
                                                           b_opt_xy(m))
    heis = ProtocolScan(star(m), 1.0, EQUATOR).mean_fidelity(t_c_heis(m), 0.0)
    worst = max(abs(xy - xy_star_fidelity(m, EQUATOR)),
                abs(heis - heis_star_fidelity(m, EQUATOR)))
    report(3, f"scaling laws at M = {m}, |dev| = {worst:.2e}", worst <= 1e-8)


def test_criterion_4_tree_graphs():
    eight = optimize(tree(2, 2), 0.0, EQUATOR, (0.0, 50.0), 5001)
    twenty_seven = optimize(tree(3, 2), 0.0, EQUATOR, (0.0, 50.0), 5001)
    ok = (abs(eight.fidelity - 0.676) <= 0.005
          and abs(twenty_seven.fidelity - 0.596) <= 0.005)
    report(4, f"tree fidelities {eight.fidelity:.4f} / "
              f"{twenty_seven.fidelity:.4f}", ok)


def test_criterion_5_disorder():
    summary = disorder_study(star(2), 0.1, 500, 0.0, EQUATOR,
                             t_c_xy(2), b_opt_xy(2), seed=42)
    report(5, f"disorder drop {summary.relative_drop:.5f} < 0.002",
           0.0 < summary.relative_drop < 0.002)


def test_criterion_6_ntom_table(tmp_path):
    code = cli_main(["--out-dir", str(tmp_path), "table1"])
    lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    by_pair = {(r["N"], r["M"]): r for r in rows}
    dev_23 = float(by_pair[("2", "3")]["deviation"])
    dev_34 = float(by_pair[("3", "4")]["deviation"])
    ok = (code == 0 and len(rows) == 7
          and "deviation" in header and "flag" in header
          and abs(dev_23) <= 0.03 and abs(dev_34) <= 0.03)
    report(6, f"N->M table: dev(2,3) = {dev_23:+.4f}, "
              f"dev(3,4) = {dev_34:+.4f}, 7 rows emitted", ok)


def test_criterion_7_noise_solver_cross_validation():
    net = star(2).with_params(anisotropy=0.0, field=b_opt_xy(2))
    basis, amplitudes = prepare_input(net, EQUATOR, 0.0)
    block = build_block(net, basis.weights)
    rho0 = MixedState(basis=basis,
                      matrix=np.outer(amplitudes, amplitudes.conj()))
    distances = []
    for gamma in (1e-3, 1e-2):
        master = lindblad_evolve(rho0, block, gamma, t_c_xy(2))
        sampled = stochastic_evolve(amplitudes, block, gamma,
                                    t_c_xy(2), n_traj=1000, seed=11)
        gaps = np.linalg.eigvalsh(master.matrix - sampled.matrix)
        distances.append(0.5 * float(np.sum(np.abs(gaps))))

    from spinclone import from_edge_list
    single = from_edge_list(1, [], [0], [])
    sblock = build_block(single, (0, 1))
    _, samplitudes = prepare_input(single, EQUATOR, 0.0)
    gamma, t, n_traj = 0.05, 1.0, 1000
    out = stochastic_evolve(samplitudes, sblock, gamma, t,
                            n_traj=n_traj, seed=123)
    target = 0.5 * math.exp(-gamma * t / 2.0)
    sigma = max(gamma * t / math.sqrt(2.0) / math.sqrt(n_traj), 1e-4)
    coherence_ok = abs(out.matrix[0, 1].real - target) <= 3.0 * sigma
    ok = max(distances) <= 0.01 and coherence_ok
    report(7, f"solver agreement (trace distances {distances[0]:.4f}, "
              f"{distances[1]:.4f}), coherence within 3 sigma", ok)


def test_criterion_8_noise_ordering():
    grid = np.logspace(-4, -1, 10)
    ok = True
    for m in (2, 3):
        ideal = circuit_baseline(m, EQUATOR, 0.0)
        ok &= abs(ideal - circuit_ideal_fidelity(m)) <= 1e-9
        network = noisy_network_fidelity(star(m), 0.0, b_opt_xy(m), EQUATOR,
                                         1e-3, t_c_xy(m))
        circuit = circuit_baseline(m, EQUATOR, 1e-3)
        ok &= network > circuit
        net_curve = [noisy_network_fidelity(star(m), 0.0, b_opt_xy(m),
                                            EQUATOR, g, t_c_xy(m))
                     for g in grid]
        circ_curve = [circuit_baseline(m, EQUATOR, g) for g in grid]
        for curve in (net_curve, circ_curve):
            ok &= all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
    report(8, "network beats circuit at low noise; curves monotone", ok)


def test_criterion_9_structural_properties():
    # Unitarity at Jt = 3e3.
    net = bipartite(2, 3).with_params(field=0.4)
    basis, amplitudes = prepare_input(net, EQUATOR, 0.2)
    evolved = _propagate(build_block(net, basis.weights), amplitudes, 3.0e3)
    drift = abs(np.linalg.norm(evolved) - 1.0)
    unitary_ok = drift <= 1e-10

    # Sector-vs-full-space equivalence up to ten sites.
    sector_ok = True
    for test_net in (bipartite(4, 5).with_params(anisotropy=0.7, field=0.23),
                     star(9).with_params(anisotropy=0.2, field=0.11)):
        st_basis, st_amplitudes = prepare_input(test_net, 1.1, 0.6)
        evolved = _propagate(build_block(test_net, st_basis.weights),
                             st_amplitudes, 2.9)
        lifted = embed_full(st_basis, evolved, test_net.n_sites)
        full = full_evolve(full_hamiltonian(test_net),
                           full_input_state(test_net, 1.1, 0.6), 2.9)
        sector_ok &= np.max(np.abs(lifted - full)) <= 1e-10

    # Clone permutation symmetry and phase independence on stars.
    sym_net = star(5).with_params(field=0.3)
    sym_basis, sym_amplitudes = prepare_input(sym_net, 1.0, 0.9)
    sym_block = build_block(sym_net, sym_basis.weights)
    evolved = _propagate(sym_block, sym_amplitudes, 1.4)
    reduced = _site_densities(sym_basis, evolved[None],
                              sym_net.output_sites)[0]
    perm_ok = all(np.max(np.abs(r - reduced[0])) <= 1e-10 for r in reduced)
    values = [run_protocol(star(3), 0.0, 0.5, EQUATOR, phi, 1.2).mean_fidelity
              for phi in np.arange(0.0, 2 * math.pi + 1e-9, math.pi / 4)]
    phase_ok = max(values) - min(values) <= 1e-10

    # Density-matrix invariants after dephasing evolution.
    noisy = lindblad_evolve(
        MixedState(basis=sym_basis,
                   matrix=np.outer(sym_amplitudes, sym_amplitudes.conj())),
        sym_block, 0.02, 1.5)
    trace_ok = abs(np.trace(noisy.matrix).real - 1.0) <= 1e-8
    psd_ok = np.linalg.eigvalsh(noisy.matrix).min() >= -1e-9

    ok = (unitary_ok and sector_ok and perm_ok and phase_ok
          and trace_ok and psd_ok)
    report(9, "unitarity, sector equivalence, symmetry, positivity", ok)
