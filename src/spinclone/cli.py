"""Reproduction harness: one subcommand per headline artifact.

Each ``cmd_*`` computes and returns ``(tables, networks, params, checks)``;
``_run`` alone writes them: deterministic CSV (9 significant digits, fixed
row order), network dumps and a manifest file recording the full parameter
set, seed and output hashes.  Commands exit nonzero when one of their
tolerance checks fails, so they can gate CI runs.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (NTOM_REFERENCE, NoPccReference, b_opt_xy,
                       heis_star_fidelity, pcc_reference, t_c_heis, t_c_xy,
                       xy_star_fidelity)
from .dynamics import prepare_input, protocol_fidelities, run_protocol
from .hamiltonian import build_block
from .noise import (MixedState, circuit_baseline, circuit_ideal_fidelity,
                    lindblad_evolve, stochastic_evolve)
from .search import ProtocolScan, disorder_study, optimize
from .topology import bipartite, star, to_text, tree

TREE_CASES = ((2, 0), (2, 1), (2, 2), (3, 1), (3, 2))
DISORDER_STARS = (2, 3, 4)
DISORDER_EPSILON = 0.1
DISORDER_SAMPLES = 500
CROSS_CHECK_BOUND = 0.01


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _run(command, args) -> int:
    """Run one command, then write its tables as CSV, its network dumps and
    a manifest of parameters and output hashes, and print its checks.
    Nothing is written when the command raises.  Returns 1 when any check
    fails."""
    started = time.perf_counter()
    tables, networks, params, checks = command(args)
    files = [(f"{stem}.csv", _csv_text(*table))
             for stem, table in tables.items()]
    files += [(f"networks/{name}.txt", to_text(net))
              for name, net in networks.items()]
    out_dir = Path(args.out_dir)
    (out_dir / "networks").mkdir(parents=True, exist_ok=True)
    lines = [f"command={args.command}", f"version={__version__}"]
    params = {"seed": args.seed, **params}
    lines += [f"{key}={value}" for key, value in sorted(params.items())]
    for name, text in files:
        path, data = out_dir / name, text.encode()
        path.write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        lines.append(f"output={path.name} sha256={digest}")
    lines.append(f"duration_s={time.perf_counter() - started:.3f}")
    (out_dir / f"{args.command}.manifest").write_text("\n".join(lines) + "\n")
    for line, ok in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {line}")
    return 0 if all(ok for _, ok in checks) else 1


def cmd_fig2(args) -> tuple:
    """Equatorial-sweep fidelity curves for two clones, plus the clone-count
    scaling at theta = pi/2 (analytic and numeric columns side by side)."""
    net2 = star(2)
    thetas = [math.pi * k / 180.0 for k in range(181)]
    xy_sweep = protocol_fidelities(net2, 0.0, b_opt_xy(2), thetas, 0.0,
                                   t_c_xy(2)).mean(axis=1).tolist()
    heis_sweep = protocol_fidelities(net2, 1.0, 0.0, thetas, 0.0,
                                     t_c_heis(2)).mean(axis=1).tolist()
    # For two clones the optimal PCC curve coincides with the XY model.
    theta_rows = [[theta, xy_star_fidelity(2, theta), xy_num,
                   heis_star_fidelity(2, theta), heis_num,
                   xy_star_fidelity(2, theta)]
                  for theta, xy_num, heis_num in zip(thetas, xy_sweep,
                                                     heis_sweep)]
    inset_rows = []
    for m in range(2, 8):
        xy_num = run_protocol(star(m), 0.0, b_opt_xy(m), math.pi / 2, 0.0,
                              t_c_xy(m)).mean_fidelity
        heis_num = run_protocol(star(m), 1.0, 0.0, math.pi / 2, 0.0,
                                t_c_heis(m)).mean_fidelity
        try:
            pcc = _fmt(pcc_reference(1, m))
        except NoPccReference:
            pcc = ""
        inset_rows.append([m, xy_star_fidelity(m, math.pi / 2), xy_num,
                           heis_star_fidelity(m, math.pi / 2), heis_num, pcc])

    mid = theta_rows[90]
    polar = max(abs(theta_rows[0][2] - 1.0), abs(theta_rows[0][4] - 1.0))
    gap = max(max(abs(r[1] - r[2]), abs(r[3] - r[4])) for r in theta_rows)
    checks = [
        (f"theta=pi/2 XY fidelity {mid[2]:.9f}, target 0.853553391±1e-6",
         abs(mid[2] - 0.853553391) < 1e-6),
        (f"theta=pi/2 Heisenberg fidelity {mid[4]:.9f}, "
         f"target 0.833333333±1e-6", abs(mid[4] - 5.0 / 6.0) < 1e-6),
        (f"theta=0 fidelities are 1: max deviation {polar:.3g}, bound 1e-9",
         polar < 1e-9),
        (f"analytic-numeric agreement: max {gap:.3g}, bound 1e-8",
         gap < 1e-8),
    ]
    columns = ["F_xy_analytic", "F_xy_numeric", "F_heis_analytic",
               "F_heis_numeric", "F_pcc"]
    tables = {"fig2_theta": (["theta"] + columns, theta_rows),
              "fig2_inset": (["M"] + columns, inset_rows)}
    return tables, {"star_2": net2}, {}, checks


def cmd_table1(args) -> tuple:
    """Bipartite N -> M maximization over the quoted (t, B) ranges, with the
    published values and deviations as comparison columns."""
    rows = []
    networks = {}
    params = {}
    for ref in NTOM_REFERENCE:
        net = bipartite(ref.n_inputs, ref.n_outputs)
        # The published scans cover J t in [0, 3000] and bound the field
        # below by J/B <= 100 (J/B <= 60 at nine sites).
        min_field = (1.0 / 60.0 if ref.n_inputs + ref.n_outputs == 9
                     else 1.0 / 100.0)
        scan = ProtocolScan(net, 0.0, math.pi / 2)
        result = scan.optimize((0.0, 3000.0), field=(min_field, math.inf))
        # F_at_ref_point: this model's F at the published (Jt, J/B), in this
        # Hamiltonian's units.
        at_ref = scan.mean_fidelity(ref.jt_c, 1.0 / ref.j_over_b)
        name = f"bipartite_{ref.n_inputs}_{ref.n_outputs}"
        params[f"sector_dim.{name}"] = "%d/%d" % result.sector_dim
        params[f"certified_gap.{name}"] = result.certified_gap
        networks[name] = net
        deviation = result.fidelity - ref.fidelity
        flag = "TOPOLOGY_MISMATCH" if abs(deviation) > 0.03 else ""
        rows.append([
            ref.n_inputs, ref.n_outputs,
            pcc_reference(ref.n_inputs, ref.n_outputs), ref.fidelity,
            result.fidelity, deviation, result.t_c, result.b_opt,
            result.j_over_b, ref.jt_c, ref.j_over_b, at_ref,
            result.n_evaluations, flag,
        ])

    by_pair = {(r[0], r[1]): r for r in rows}
    checks = [("all seven rows emitted", len(rows) == 7)]
    for n, m in ((2, 3), (3, 4)):
        deviation = by_pair[(n, m)][5]
        checks.append((f"{n}->{m} within 0.03 of published value: "
                       f"deviation {deviation:.3g}, bound 0.03",
                       abs(deviation) <= 0.03))
    header = ["N", "M", "F_pcc", "F_ref", "F_found", "deviation",
              "Jt_c_found", "B_over_J_found", "J_over_B_found", "Jt_c_ref",
              "J_over_B_ref", "F_at_ref_point", "n_eval", "flag"]
    return {"table1": (header, rows)}, networks, params, checks


def _parse_gamma_grid(spec: str) -> list[float]:
    """Either 'start:stop:count' (log spaced) or a comma-separated list of
    finite gammas >= 0, at least one of them > 0."""
    try:
        if ":" in spec:
            lo, hi, count = spec.split(":")
            numbers = [float(lo), float(hi)]
        else:
            numbers = [float(v) for v in spec.split(",")]
        if not all(math.isfinite(v) and v >= 0.0 for v in numbers):
            raise ValueError("every gamma must be finite and >= 0")
        if ":" in spec and min(numbers) == 0.0:
            raise ValueError("a log-spaced grid needs start > 0 and stop > 0")
        values = (np.logspace(math.log10(numbers[0]), math.log10(numbers[1]),
                              int(count)).tolist() if ":" in spec else numbers)
    except ValueError as error:
        raise ValueError(f"--gamma-grid {spec!r}: {error}") from error
    if max(values, default=0.0) <= 0.0:
        raise ValueError(f"--gamma-grid {spec!r} has no gamma > 0")
    return values


def cmd_fig3(args) -> tuple:
    """Dephasing comparison of the free-evolution protocol against the
    compiled cloning circuits, for two and three clones."""
    gammas = [0.0] + _parse_gamma_grid(args.gamma_grid)

    curves: dict[tuple[str, int], list[float]] = {}
    for m in (2, 3):
        # One input at the equator: each clone's coherence pairs weight 0
        # with weight 1, Hamming distance 1, so dephasing damps it by exactly
        # exp(-Gamma t / 2): F(Gamma) = 1/2 + exp(-Gamma t / 2) (F(0) - 1/2).
        t_c = t_c_xy(m)
        ideal = run_protocol(star(m), 0.0, b_opt_xy(m), math.pi / 2, 0.0,
                             t_c).mean_fidelity
        curves[("network", m)] = [
            0.5 + math.exp(-g * t_c / 2.0) * (ideal - 0.5) for g in gammas]
        curves[("circuit", m)] = [circuit_baseline(m, math.pi / 2, g)
                                  for g in gammas]
    rows = [[protocol, m, g, f] for (protocol, m), values in curves.items()
            for g, f in zip(gammas, values)]

    probe = min((g for g in gammas if g > 0.0), key=lambda g: abs(g - 1e-3))
    k = gammas.index(probe)
    n_traj = _trajectory_count(max(gammas))
    cross = _trajectory_cross_check(max(gammas), n_traj, args.seed)
    ideal_gap = max(abs(curves[("circuit", m)][0] - circuit_ideal_fidelity(m))
                    for m in (2, 3))
    margin = min(curves[("network", m)][k] - curves[("circuit", m)][k]
                 for m in (2, 3))
    by_gamma = np.argsort(gammas, kind="stable")
    rise = max(v[i] - v[j] for v in curves.values()
               for j, i in zip(by_gamma, by_gamma[1:]))
    checks = [
        (f"circuit gamma=0 at ideal value: max deviation {ideal_gap:.3g}, "
         f"bound 1e-9", ideal_gap < 1e-9),
        (f"network above circuit at gamma={probe:g}: min margin "
         f"{margin:.3g}, bound 0", margin > 0.0),
        (f"curves monotone nonincreasing: max rise {rise:.3g}, bound 1e-12",
         rise <= 1e-12),
        (f"trajectory/master cross-check ({n_traj} trajectories): "
         f"trace distance {cross:.3g}, bound {CROSS_CHECK_BOUND:g}",
         cross <= CROSS_CHECK_BOUND),
    ]
    tables = {"fig3": (["protocol", "M", "gamma_over_J", "F"], rows)}
    networks = {f"star_{m}": star(m) for m in (2, 3)}
    params = {"gamma_grid": args.gamma_grid, "n_traj": n_traj}
    return tables, networks, params, checks


def _trajectory_step(gamma: float) -> float:
    return 0.1 / min(max(gamma, 1.0), 10.0)


def _trajectory_count(gamma: float) -> int:
    """Trajectories of the cross-check at the grid's largest Gamma: a base
    count keeps their sampling error, ``w / sqrt(n)`` for the weight ``w = 1
    - e^{-Gamma t_c_xy(2)}`` dephased, at its value for 1000 at Gamma = 0.1,
    and at most doubles while trajectories x steps stay within 223 x base."""
    w, w_ref = (-math.expm1(-g * t_c_xy(2)) for g in (gamma, 0.1))
    base = max(1000, math.ceil(1000.0 * (w / w_ref) ** 2))
    steps = math.ceil(t_c_xy(2) / _trajectory_step(gamma))
    return min(2 * base, base * 223 // steps)


def _trajectory_cross_check(gamma: float, n_traj: int, seed: int) -> float:
    """Trace distance between the two dephasing solvers on the 1->2 star.

    At steps of at most ``_trajectory_step(gamma)`` the symmetric split that
    the trajectories sample misses the master equation by 1.6e-5 at Gamma =
    0.1, 2.9e-4 at 1 and 7.4e-5 at 10, at no Gamma more than the first-order
    split at steps of 1e-2."""
    net = star(2).with_params(anisotropy=0.0, field=b_opt_xy(2))
    basis, amplitudes = prepare_input(net, math.pi / 2, 0.0)
    block = build_block(net, basis.weights)
    rho0 = MixedState(basis, np.outer(amplitudes, amplitudes.conj()))
    master = lindblad_evolve(rho0, block, gamma, t_c_xy(2))
    sampled = stochastic_evolve(amplitudes, block, gamma, t_c_xy(2),
                                _trajectory_step(gamma), n_traj, seed)
    gaps = np.linalg.eigvalsh(master.matrix - sampled.matrix)
    return 0.5 * float(np.sum(np.abs(gaps)))


def cmd_tree(args) -> tuple:
    """Tree-graph single-input maxima with the equal-M star value alongside."""
    rows = []
    networks = {}
    params = {}
    for branching, levels in TREE_CASES:
        name = f"tree_{branching}_{levels}"
        networks[name] = tree(branching, levels)
        result = optimize(networks[name], 0.0, math.pi / 2,
                          t_range=(0.0, 50.0))
        params[f"sector_dim.{name}"] = "%d/%d" % result.sector_dim
        params[f"certified_gap.{name}"] = result.certified_gap
        m = branching ** (levels + 1)
        rows.append([branching, levels, m, result.fidelity, result.t_c,
                     result.b_opt, xy_star_fidelity(m, math.pi / 2)])

    by_case = {(r[0], r[1]): r[3] for r in rows}
    checks = [
        (f"tree({k},{j}) F={by_case[(k, j)]:.6f} target {target}±0.005",
         abs(by_case[(k, j)] - target) <= 0.005)
        for k, j, target in ((2, 2, 0.676), (3, 2, 0.596))
    ]
    header = ["k", "j", "M", "F", "Jt_c", "B_over_J", "F_star_formula"]
    return {"tree": (header, rows)}, networks, params, checks


def cmd_disorder(args) -> tuple:
    """Coupling-disorder averages for small stars at the ideal XY point."""
    rows = []
    params = {"epsilon": DISORDER_EPSILON, "samples": DISORDER_SAMPLES}
    for m in DISORDER_STARS:
        s = disorder_study(star(m), DISORDER_EPSILON, DISORDER_SAMPLES, 0.0,
                           math.pi / 2, t_c_xy(m), b_opt_xy(m),
                           seed=args.seed + m)
        rows.append([m, DISORDER_EPSILON, s.samples, s.mean_fidelity,
                     s.std_fidelity, s.ideal_fidelity, s.relative_drop])
        params[f"sector_dim.star_{m}"] = s.sector_dim

    lowest = min(r[6] for r in rows)
    checks = [
        (f"star(2) relative drop {rows[0][6]:.3g}, bound 0.002",
         rows[0][6] < 0.002),
        (f"every relative drop non-negative: min {lowest:.3g}", lowest >= 0.0),
    ]
    header = ["M", "epsilon", "samples", "mean_F", "std_F", "ideal_F",
              "relative_drop"]
    networks = {f"star_{m}": star(m) for m in DISORDER_STARS}
    return {"disorder": (header, rows)}, networks, params, checks


# name: (command, help)
COMMANDS = {
    "fig2": (cmd_fig2, "two-clone fidelity curves and scaling inset"),
    "table1": (cmd_table1, "bipartite N->M maxima versus published"),
    "fig3": (cmd_fig3, "dephasing comparison against circuits"),
    "tree": (cmd_tree, "tree-graph cloning maxima"),
    "disorder": (cmd_disorder, "coupling-disorder robustness"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinclone",
        description="Reproduction harness for spin-network cloning results.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--gamma-grid", default="1e-4:1e-1:10",
                        help="'start:stop:count' log grid or comma list")
    parser.add_argument("--threads", type=int, default=1, help="accepted for "
                        "compatibility; every command runs serially")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, _ = COMMANDS[args.command]
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return _run(command, args)


if __name__ == "__main__":
    sys.exit(main())
