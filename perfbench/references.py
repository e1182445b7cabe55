"""Correctness checks on the CSVs a workload's CLI calls wrote.

Three kinds of check feed ``failed_ratio``:

- the CLI's own ``[ok]``/``[FAIL]`` lines and its exit code, for every call;
- independent references the benchmark computes itself: an exact
  Liouvillian propagator for ``fig3``, a re-evaluation of each ``table1``
  optimum with ``run_protocol``, and a re-run of the disorder averages with
  ``run_protocol`` instead of the scan the CLI uses;
- values recorded when the benchmark was defined (``recorded.json``).

No tolerance is looser than the acceptance module's (1e-6 in F and 1e-3 in
Jt for optima, 1e-9 for circuit fidelities).  The CSVs carry nine
significant digits, which sets the floor of 1e-9.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import CLI_CHECKS

RECORDED = Path(__file__).with_name("recorded.json")

FIG3_TOL = 1e-9          # fig3 F against the exact propagator
REEVAL_TOL = 1e-8        # table1 F_found against run_protocol at its (Jt, B)
OPTIMUM_F_TOL = 1e-8     # optimum F against the recorded value
OPTIMUM_T_TOL = 1e-3     # optimum Jt against the recorded value
VALUE_TOL = 1e-9         # any other fidelity column

EQUATOR = math.pi / 2.0


# The one CLI self-check known to fail on correct outputs (see NOTES.md):
# the command and the start of its line.  Its failure is counted in
# ``failed`` but does not make a run incorrect.
KNOWN_DEFECT = ("fig3", "[FAIL] trajectory/master cross-check")


class Checker:
    """Collects named pass/fail checks; a failure may be the known defect."""

    def __init__(self):
        self.results: list[tuple[str, bool, str, bool]] = []

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _, _ in self.results if not ok)

    @property
    def unexpected(self) -> int:
        """Failures other than the known defect."""
        return sum(1 for _, ok, _, known in self.results
                   if not ok and not known)

    def truth(self, name: str, ok: bool, detail: str = "",
              known: bool = False) -> None:
        self.results.append((name, bool(ok), detail, known))

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        diff = abs(got - want)
        self.truth(name, diff <= tol,
                   f"got {got:.12g} want {want:.12g} diff {diff:.3g} bound {tol:g}")

    def guarded(self, label: str, expected: int, check, *args) -> None:
        """Run ``check(self, *args)``; every check it should have made but
        did not, because it raised or found too few rows, fails."""
        before = len(self.results)
        reason = "not reached"
        try:
            check(self, *args)
        except Exception as exc:  # a crash fails the checks it left undone
            reason = f"{type(exc).__name__}: {exc}"
        for k in range(len(self.results) - before, expected):
            self.truth(f"{label} check {k + 1}", False, reason)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# -- the CLI's own checks ------------------------------------------------------

def cli_call(checker: Checker, call: dict) -> None:
    command = call["argv"][-1]
    lines = [line for line in call["stdout"].splitlines()
             if line.startswith(("[ok]", "[FAIL]"))]
    known = [(command, line[:len(KNOWN_DEFECT[1])]) == KNOWN_DEFECT
             for line in lines]
    for line, is_known in zip(lines, known):
        checker.truth(f"{command}: {line}", line.startswith("[ok]"),
                      known=is_known)
    reason = (call["error"] or "").strip().splitlines()[-1:] or ["not printed"]
    for k in range(len(lines), CLI_CHECKS[command]):
        checker.truth(f"{command}: check {k + 1}", False, reason[0])
    # Exit code 1 is the known defect's when it is the only failed line.
    only_known = (call["exit_code"] == 1 and any(known)
                  and len(lines) == CLI_CHECKS[command]
                  and all(k or line.startswith("[ok]")
                          for line, k in zip(lines, known)))
    checker.truth(f"{command}: exit code 0", call["exit_code"] == 0,
                  f"exit code {call['exit_code']}", known=only_known)


# -- dephasing: exact Liouvillian reference --------------------------------------
#
# Full 2^n configuration space, bit p set = site p excited (|1>), |0> the
# sz = +1 state.  With row-major vec(rho), the generator of
# drho/dt = -i[H, rho] + (Gamma/4) sum_i (z_i rho z_i - rho) is
# -i (H x 1 - 1 x H^T) + diag(-Gamma/2 * hamming(a, b)).

def _states(n: int) -> np.ndarray:
    return np.arange(1 << n)


def _hopping(n: int, edges) -> np.ndarray:
    """XY exchange (1/4) J (XX + YY): amplitude J/2 between swapped configs."""
    states = _states(n)
    h = np.zeros((1 << n, 1 << n))
    for i, j, coupling in edges:
        moves = states[((states >> i) ^ (states >> j)) & 1 == 1]
        h[moves ^ ((1 << i) | (1 << j)), moves] += 0.5 * coupling
    return h


def _z_sum(n: int) -> np.ndarray:
    states = _states(n)
    return sum(1 - 2 * ((states >> p) & 1) for p in range(n)).astype(float)


def _dephase_evolve(rho: np.ndarray, h: np.ndarray, gamma: float, t: float,
                    n: int) -> np.ndarray:
    states = _states(n)
    flips = states[:, None] ^ states[None, :]
    hamming = sum((flips >> p) & 1 for p in range(n))
    eye = np.eye(len(h))
    generator = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
                 + np.diag(-0.5 * gamma * hamming.ravel()))
    return (scipy.linalg.expm(generator * t) @ rho.ravel()).reshape(rho.shape)


def _site_fidelity(rho: np.ndarray, site: int, theta: float) -> float:
    """<psi| tr_others(rho) |psi> for psi = cos(theta/2)|0> + sin(theta/2)|1>."""
    bit = 1 << site
    states = _states(int(math.log2(len(rho))))
    empty = states[states & bit == 0]
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    p0 = rho[empty, empty].real.sum()
    p1 = rho[empty | bit, empty | bit].real.sum()
    coherence = rho[empty, empty | bit].sum()
    return float(c * c * p0 + s * s * p1 + 2.0 * c * s * coherence.real)


def _input_state(n: int, theta: float) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0], psi[1] = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.outer(psi, psi.conj())


def network_reference(m: int, gamma: float, theta: float = EQUATOR) -> float:
    """XY star with M clones at its optimal field sqrt(M)/2 and time pi/sqrt(M)."""
    n = m + 1
    h = (_hopping(n, [(0, k, 1.0) for k in range(1, n)])
         + np.diag(0.25 * math.sqrt(m) * _z_sum(n)))
    rho = _dephase_evolve(_input_state(n, theta), h, gamma,
                          math.pi / math.sqrt(m), n)
    return float(np.mean([_site_fidelity(rho, q, theta) for q in range(1, n)]))


def _rotation(kind: str, angle: float) -> np.ndarray:
    half = angle / 2.0
    if kind == "z_rotation":
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    return np.array([[math.cos(half), -1j * math.sin(half)],
                     [-1j * math.sin(half), math.cos(half)]])


def _on_site(u: np.ndarray, site: int, n: int) -> np.ndarray:
    states = _states(n)
    occupied = (states >> site) & 1
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    full[states, states] = u[occupied, occupied]
    full[states ^ (1 << site), states] = u[1 - occupied, occupied]
    return full


def circuit_reference(m: int, gamma: float, theta: float = EQUATOR) -> float:
    """The CLI's compiled circuit, replayed with exact dephased XY pulses.

    The schedule is the library's public ``pcc_circuit_schedule``: an
    ``xy_pulse`` of duration tau is exp(-i tau (XX + YY)/4) on its pair under
    dephasing of every register qubit; rotations are instantaneous.
    """
    from spinclone.noise import pcc_circuit_schedule
    n, schedule = pcc_circuit_schedule(m)
    rho = _input_state(n, theta)
    for pulse in schedule:
        if pulse.kind == "xy_pulse":
            a, b = pulse.sites
            rho = _dephase_evolve(rho, _hopping(n, [(a, b, 1.0)]), gamma,
                                  pulse.value, n)
        else:
            u = _on_site(_rotation(pulse.kind, pulse.value), pulse.sites[0], n)
            rho = u @ rho @ u.conj().T
    return float(np.mean([_site_fidelity(rho, q, theta) for q in range(n)]))


def dephasing_expected(gammas: list[float]) -> int:
    return 4 * (len(gammas) + 1)


def dephasing(checker: Checker, out_dir: Path, gammas: list[float]) -> None:
    rows = read_rows(out_dir / "fig3.csv")
    grid = [0.0] + list(gammas)
    reference = {"network": network_reference, "circuit": circuit_reference}
    for protocol in ("network", "circuit"):
        for m in (2, 3):
            values = [float(r["F"]) for r in rows
                      if r["protocol"] == protocol and int(r["M"]) == m]
            for gamma, value in zip(grid, values):
                checker.close(
                    f"fig3 {protocol} M={m} gamma={gamma:.4g} against the "
                    "exact Liouvillian", value,
                    reference[protocol](m, gamma), FIG3_TOL)


# -- bipartite_scan ---------------------------------------------------------------

def bipartite_expected() -> int:
    return 7 * 4


def bipartite(checker: Checker, out_dir: Path, recorded: dict) -> None:
    from spinclone.dynamics import run_protocol
    from spinclone.topology import bipartite as bipartite_net
    by_pair = {(r["N"], r["M"]): r for r in recorded["table1"]}
    for row in read_rows(out_dir / "table1.csv"):
        n, m = int(row["N"]), int(row["M"])
        ref = by_pair[(n, m)]
        f_found = float(row["F_found"])
        t_found = float(row["Jt_c_found"])
        again = run_protocol(bipartite_net(n, m), 0.0,
                             float(row["B_over_J_found"]), EQUATOR, 0.0,
                             t_found).mean_fidelity
        label = f"table1 {n}->{m}"
        checker.close(f"{label} F_found re-evaluated by run_protocol",
                      f_found, again, REEVAL_TOL)
        checker.close(f"{label} F_found against recorded", f_found,
                      ref["F_found"], OPTIMUM_F_TOL)
        checker.close(f"{label} Jt_c_found against recorded", t_found,
                      ref["Jt_c_found"], OPTIMUM_T_TOL)
        checker.close(f"{label} F_at_ref_point against recorded",
                      float(row["F_at_ref_point"]), ref["F_at_ref_point"],
                      VALUE_TOL)


# -- many_small -------------------------------------------------------------------

def many_small_expected(seed: int, recorded: dict) -> int:
    by_seed = 3 * 3 if str(seed) in recorded["disorder"]["by_seed"] else 0
    return 5 * 2 + 3 * 5 + by_seed


def disorder_average(m: int, epsilon: float, samples: int,
                     seed: int) -> tuple[float, float, float, float]:
    """(mean, std, ideal, drop) of the XY star at its ideal point, sampled
    like the CLI: child seeds of SeedSequence(seed), one jitter each, but
    every sample evaluated by run_protocol."""
    from spinclone.dynamics import run_protocol
    from spinclone.topology import jitter, star
    field, t = 0.5 * math.sqrt(m), math.pi / math.sqrt(m)
    net = star(m)
    ideal = run_protocol(net, 0.0, field, EQUATOR, 0.0, t).mean_fidelity
    child_seeds = np.random.SeedSequence(seed).generate_state(samples)
    values = np.array([
        run_protocol(jitter(net, epsilon, int(s)), 0.0, field, EQUATOR, 0.0,
                     t).mean_fidelity
        for s in child_seeds])
    mean = float(values.mean())
    return mean, float(values.std(ddof=1)), ideal, 1.0 - mean / ideal


def many_small(checker: Checker, out_dir: Path, seed: int,
               recorded: dict) -> None:
    trees = {(r["k"], r["j"]): r for r in recorded["tree"]}
    for row in read_rows(out_dir / "tree.csv"):
        k, j = int(row["k"]), int(row["j"])
        ref = trees[(k, j)]
        checker.close(f"tree({k},{j}) F against recorded", float(row["F"]),
                      ref["F"], OPTIMUM_F_TOL)
        checker.close(f"tree({k},{j}) Jt_c against recorded",
                      float(row["Jt_c"]), ref["Jt_c"], OPTIMUM_T_TOL)

    disorder = recorded["disorder"]
    by_seed = {r["M"]: r for r in disorder["by_seed"].get(str(seed), [])}
    for row in read_rows(out_dir / "disorder.csv"):
        m = int(row["M"])
        epsilon, samples = float(row["epsilon"]), int(row["samples"])
        checker.truth(f"disorder M={m} epsilon and samples as recorded",
                      (epsilon, samples) == (disorder["epsilon"],
                                             disorder["samples"]),
                      f"epsilon {epsilon} samples {samples}")
        checker.close(f"disorder M={m} ideal_F against recorded",
                      float(row["ideal_F"]), disorder["ideal_F"][str(m)],
                      VALUE_TOL)
        mean, std, _, drop = disorder_average(m, epsilon, samples, seed + m)
        got = {"mean_F": float(row["mean_F"]), "std_F": float(row["std_F"]),
               "relative_drop": float(row["relative_drop"])}
        for column, want in (("mean_F", mean), ("std_F", std),
                             ("relative_drop", drop)):
            checker.close(f"disorder M={m} {column} re-run by run_protocol",
                          got[column], want, VALUE_TOL)
        if m in by_seed:
            for column in got:
                checker.close(f"disorder M={m} {column} against recorded "
                              f"(seed {seed})", got[column],
                              by_seed[m][column], VALUE_TOL)


def load_recorded() -> dict:
    return json.loads(RECORDED.read_text())
