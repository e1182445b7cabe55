"""Dephasing noise: exact master equation, trajectory unraveling, circuit baseline.

White-noise longitudinal fields ``sum_i (b_i(t)/2) sz_i`` with
``<b_i(t) b_j(t')> = Gamma delta_ij delta(t - t')`` average to the master
equation

    drho/dt = -i [H, rho] + (Gamma/4) sum_i (sz_i rho sz_i - rho),

which damps single-qubit coherences at the rate ``Gamma / 2``.  The
free-evolution protocol and the gate-compiled circuit baseline share this
normalization and score their clones with one reader,
:func:`~spinclone.dynamics.density_fidelities`, so their comparison depends
on neither.

In the configuration basis the dissipator acts elementwise: it multiplies
``rho_ab`` by ``-(Gamma/2) hamming(a, b)``.  The Liouvillian is therefore one
dense matrix on ``vec(rho)`` and ``expm(L t)`` solves the master equation
exactly (vectorization as in Havel, J. Math. Phys. 44, 534 (2003)) by
:func:`_expm`, scaling and squaring of the [13/13] Pade approximant, exact
where an eigendecomposition of the Liouvillian fails (its exceptional point
at Gamma = 2J).  The trajectory unraveling, stepped by the Hamiltonian's
eigendecomposition, never forms the Liouvillian: the independent check.

The circuit baseline compiles cloning gate sequences to schedules of XY
coupling pulses (two pulses per two-qubit gate) plus instantaneous
single-qubit rotations; dephasing acts on every qubit for the full pulsed
duration.  A pulse's Liouvillian is ``L_pair x 1 + 1 x L_rest`` with
commuting terms, so its propagator factorizes exactly: the pair's 16 x 16
exponential, one per distinct duration (the XY block is symmetric in its
two sites), acts on the pair's axes of ``rho`` (one axis per ket and bra
qubit), and the spectators' factor is the damping
``exp(-Gamma t hamming / 2)``.  Compiled once per clone count, the circuit
is its pulses alone: the noise-free rotations between two pulses are
multiplied into one unitary.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (_check_densities, _input_coefficients, _propagate,
                       density_fidelities, prepare_input)
from .hamiltonian import (HamiltonianBlock, SectorBasis, build_block,
                          sector_basis)
from .topology import (MAX_DIM, DimensionLimitError, SpinNetwork,
                       from_edge_list)


@dataclass(frozen=True)
class MixedState:
    """Density matrix over a sector (or full) configuration basis."""

    basis: SectorBasis
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (len(self.basis), len(self.basis)):
            raise ValueError("matrix shape does not match basis")
        _check_densities(self.matrix, hermitian=1e-9, trace=1e-8, psd=1e-9)


class GatePulse(NamedTuple):
    """One schedule element: an XY pulse on two sites or a rotation of one.

    ``value`` is the duration (in J t) of an ``xy_pulse`` and the angle of a
    ``z_rotation`` or ``x_rotation``.
    """

    kind: str
    sites: tuple[int, ...]
    value: float


def _require(name: str, value: float, positive: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and >= 0 (> 0 if
    ``positive``)."""
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the [13/13] Pade
# approximant of exp is accurate to double precision for 1-norms up to
# THETA_13; larger arguments are scaled down by a power of two and squared
# back.  PADE_13[j] = (26 - j)! 13! / (26! j! (13 - j)!) multiplies A^j in
# the numerator, and (-1)^j PADE_13[j] in the denominator.
THETA_13 = 5.371920351148152
PADE_13 = tuple(
    math.factorial(26 - j) * math.factorial(13)
    / (math.factorial(26) * math.factorial(j) * math.factorial(13 - j))
    for j in range(14))


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square array by Pade scaling and squaring."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, math.ceil(math.log2(norm / THETA_13))) if norm else 0
    a = a / 2.0 ** squarings
    b = PADE_13
    eye = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def _require_finite_exponent(a: np.ndarray, gamma: float, t: float) -> None:
    """Reject a ``gamma * t`` or an exponent ``a`` that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(a, 1)
    if not (math.isfinite(gamma * t) and math.isfinite(norm)):
        raise ValueError(f"gamma * t and the generator it scales must be "
                         f"finite, got gamma={gamma!r}, t={t!r}")


def _propagator(matrix: np.ndarray, z: np.ndarray, gamma: float,
                t: float) -> np.ndarray:
    """Exact dephasing propagator ``expm(L t)`` on row-major ``vec(rho)``,
    from the Pade exponential :func:`_expm`.

    With row-major ``vec``, ``-i [H, rho]`` is ``-i (H x 1 - 1 x H^T)`` and
    the dissipator is diagonal: ``(Gamma/4) sum_i (z_ai z_bi - 1)`` on
    ``rho_ab``, which is ``-(Gamma/2) hamming(a, b)``.
    """
    dim = len(matrix)
    if dim * dim > MAX_DIM:
        raise DimensionLimitError(
            f"Liouvillian dimension {dim * dim} exceeds maximum {MAX_DIM}")
    # Entry ((a, b), (c, d)) of the generator, built by index.
    k = np.arange(dim)
    generator = np.zeros((dim,) * 4, dtype=complex)
    generator[:, k, :, k] = -1j * matrix        # -i H[a, c] delta_bd
    generator[k, :, k, :] += 1j * matrix.T      # +i H[d, b] delta_ac
    # Exponentiate in coordinates whose first one is the trace, sum_a rho_aa,
    # the others unchanged: the generator's trace row is then exactly zero,
    # so the trace is kept exactly, however stiff the dephasing.
    diagonal = k * (dim + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        generator[k[:, None], k, k[:, None], k] += (gamma / 4.0) * (
            z @ z.T - z.shape[1])
        generator = generator.reshape(dim * dim, dim * dim) * t
        generator[0] = generator[diagonal].sum(axis=0)
        generator[:, diagonal[1:]] -= generator[:, :1]
    _require_finite_exponent(generator, gamma, t)
    result = _expm(generator)
    result[0] -= result[diagonal[1:]].sum(axis=0)
    result[:, diagonal[1:]] += result[:, :1]
    return result


def lindblad_evolve(rho0: MixedState, block: HamiltonianBlock, gamma: float,
                    t: float) -> MixedState:
    """Evolve a density matrix under the block Hamiltonian with dephasing."""
    _require("gamma", gamma)
    _require("t", t)
    if rho0.basis != block.basis:
        raise ValueError("state and block use different bases")
    propagator = _propagator(block.matrix, 1.0 - 2.0 * block.basis.counts,
                             gamma, t)
    rho = rho0.matrix.astype(np.complex128)
    final = (propagator @ rho.ravel()).reshape(rho.shape)
    return MixedState(basis=block.basis, matrix=final)


def stochastic_evolve(psi0: np.ndarray, block: HamiltonianBlock, gamma: float,
                      t: float, dt: float = 1e-3, n_traj: int = 1000,
                      seed: int = 0) -> MixedState:
    """Trajectory average: unitary steps between random phase kicks.

    ``n = ceil(t / dt)`` equal steps ``e^{-iHh}``, ``h = t / n``, from
    ``eigh`` sit between ``n + 1`` per-site z-phase kicks (field ``b_i / 2
    sz_i``) of variance ``gamma h``, the first and last halved: Strang's
    split (SIAM J. Numer. Anal. 5, 506 (1968)), second order in ``h``.
    Trajectory ``k + ceil(n_traj / 2)`` receives the negated kicks of
    trajectory ``k``, the complex conjugate phases: each is still an exact
    sample of the noise while the error of the average that is odd in the
    kicks cancels.  Deterministic under a fixed seed: each kick is one
    ``(ceil(n_traj / 2), n_sites)`` draw, applied before the next step.
    """
    basis = block.basis
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if psi0.shape != (len(basis),):
        raise ValueError("state dimension does not match block basis")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    _require("gamma", gamma)
    _require("t", t)
    _require("dt", dt, positive=True)
    rng = np.random.default_rng(seed)

    n = max(1, math.ceil(t / dt))
    with np.errstate(over="ignore", invalid="ignore"):
        generator = -1j * (t / n) * block.matrix
    _require_finite_exponent(generator, gamma, t)
    u_t = _propagate(block, np.eye(len(basis)), t / n).T
    scale, edge = math.sqrt(gamma * t / n), math.sqrt(gamma * t / n / 2.0)
    states = np.tile(psi0, (n_traj, 1))
    half = (n_traj + 1) // 2
    # Kick -> phase angle -(kicks . z) / 2 with z the sz per site; the factor
    # -1/2 is exact, so the angles do not depend on where it is applied.
    to_angle = -0.5 * (1.0 - 2.0 * basis.counts).T
    phases = np.empty_like(states)
    for step in range(n + 1):
        if step:
            states = states @ u_t
        if scale > 0.0:
            kicks = rng.standard_normal((half, len(to_angle)))
            angle = ((scale if step % n else edge) * kicks) @ to_angle
            np.cos(angle, out=phases[:half].real)
            np.sin(angle, out=phases[:half].imag)
            np.conjugate(phases[:n_traj - half], out=phases[half:])
            states *= phases
    return MixedState(basis, (states.T @ states.conj()) / n_traj)


def noisy_network_fidelity(net: SpinNetwork, anisotropy: float, field: float,
                           theta: float, gamma: float, t: float) -> float:
    """Mean clone fidelity of the free-evolution protocol under dephasing."""
    configured = net.with_params(anisotropy=anisotropy, field=field)
    basis, amplitudes = prepare_input(configured, theta, 0.0)
    block = build_block(configured, basis.weights)
    rho0 = MixedState(basis=basis,
                      matrix=np.outer(amplitudes, amplitudes.conj()))
    evolved = lindblad_evolve(rho0, block, gamma, t)
    return float(np.mean(density_fidelities(evolved.matrix, basis,
                                            net.output_sites, theta, 0.0)))


# --- gate compilation -------------------------------------------------------
#
# Native operations: XY coupling pulses exp(-i chi (XX + YY)/2) on a pair
# (duration J t = 2 chi) and instantaneous z/x rotations.  Useful exact
# identities, with all conjugations by instantaneous rotations:
#   exp(-i chi XX) = XY(chi) . X_a . XY(chi) . X_a        (XX and YY commute)
#   Z_a . XY(chi) . Z_a = XY(-chi)
#   H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2)
#   Rz(pi/2) X Rz(-pi/2) = Y


def _rot(kind: str, site: int, angle: float) -> GatePulse:
    return GatePulse(kind=kind, sites=(site,), value=angle)


def _pulse(a: int, b: int, duration: float) -> GatePulse:
    return GatePulse(kind="xy_pulse", sites=(a, b), value=duration)


def _hadamard(site: int) -> list[GatePulse]:
    return [_rot("z_rotation", site, math.pi / 2.0),
            _rot("x_rotation", site, math.pi / 2.0),
            _rot("z_rotation", site, math.pi / 2.0)]


def _ry(site: int, angle: float) -> list[GatePulse]:
    return [_rot("z_rotation", site, -math.pi / 2.0),
            _rot("x_rotation", site, angle),
            _rot("z_rotation", site, math.pi / 2.0)]


def _xx_pulses(a: int, b: int, chi: float) -> list[GatePulse]:
    """Pulse realization of exp(-i chi XX) on sites (a, b)."""
    if chi >= 0.0:
        half = [_rot("x_rotation", a, math.pi), _pulse(a, b, 2.0 * chi)]
        return half + half
    inner = _xx_pulses(a, b, -chi)
    return ([_rot("z_rotation", a, math.pi)] + inner
            + [_rot("z_rotation", a, math.pi)])


def cnot_pulses(control: int, target: int) -> list[GatePulse]:
    """CNOT from two XY pulses of duration pi/2 plus instantaneous rotations."""
    schedule = _hadamard(control)
    schedule += _xx_pulses(control, target, math.pi / 4.0)
    schedule += _hadamard(control)
    schedule += [_rot("z_rotation", control, -math.pi / 2.0),
                 _rot("x_rotation", target, -math.pi / 2.0)]
    return schedule


def cry_pulses(control: int, target: int, angle: float) -> list[GatePulse]:
    """Controlled y-rotation from two XY pulses of duration |angle| / 2 each."""
    schedule = _hadamard(control)
    schedule += [_rot("z_rotation", target, -math.pi / 2.0)]
    schedule += _xx_pulses(control, target, -angle / 4.0)
    schedule += _hadamard(control)
    schedule += [_rot("z_rotation", target, math.pi / 2.0)]
    schedule += _ry(target, angle / 2.0)
    return schedule


def pcc_circuit_schedule(n_clones: int) -> tuple[int, list[GatePulse]]:
    """Pulse schedule of the gate-based phase-covariant cloning baseline.

    1 -> 2: the economical two-qubit circuit (two CNOTs around a controlled
    rotation), ideal fidelity (2 + sqrt 2)/4 at the equator.  1 -> 3: a
    CNOT/controlled-rotation circuit distributing the excitation evenly over
    three qubits, ideal equatorial fidelity 1/2 + 1/(2 sqrt 3), matching the
    free-evolution star so the noise comparison isolates exposure time.
    """
    if n_clones == 2:
        schedule = cnot_pulses(0, 1)
        schedule += cry_pulses(1, 0, -math.pi / 2.0)
        schedule += cnot_pulses(0, 1)
        return 2, schedule
    if n_clones == 3:
        split = 2.0 * math.asin(1.0 / math.sqrt(3.0))
        schedule = cry_pulses(0, 1, split)
        schedule += cnot_pulses(1, 0)
        schedule += cry_pulses(0, 2, math.pi / 2.0)
        schedule += cnot_pulses(2, 0)
        return 3, schedule
    raise ValueError("circuit baseline supports 2 or 3 clones")


def circuit_ideal_fidelity(n_clones: int) -> float:
    """Equatorial fidelity 1/2 + 1/(2 sqrt M) of the noiseless circuit."""
    if n_clones not in (2, 3):
        raise ValueError("circuit baseline supports 2 or 3 clones")
    return 0.5 + 0.5 / math.sqrt(n_clones)


def schedule_duration(schedule: list[GatePulse]) -> float:
    return sum(p.value for p in schedule if p.kind == "xy_pulse")


def _rotation_matrix(pulse: GatePulse) -> np.ndarray:
    half = pulse.value / 2.0
    if pulse.kind == "z_rotation":
        return np.array([[np.exp(-1j * half), 0.0],
                         [0.0, np.exp(1j * half)]])
    return np.array([[np.cos(half), -1j * np.sin(half)],
                     [-1j * np.sin(half), np.cos(half)]])


@functools.cache
def _compiled_circuit(n_clones: int) -> tuple:
    """The Gamma- and theta-independent part of :func:`circuit_baseline`.

    Returns ``(basis, pair, pair_z, pulses, closing, hamming)``: the
    configuration basis, the XY Hamiltonian of one pair and its sz per site,
    one ``(u, duration, order)`` per XY pulse, in order, and the product of
    the rotations after the last pulse.  ``u`` is the product of the
    rotations since the previous pulse, each applied to its qubit's bit of
    the configuration index, as the pulses are; ``order`` transposes
    ``rho``, as a ``(2,) * 2n`` array, to put the pair's ket and bra axes
    first, in the pair basis order, then the spectators' ket and bra axes;
    ``hamming`` holds the spectators' Hamming distances in that layout,
    raveled.  Every array is read-only, so callers share one compilation.
    """
    n_qubits, schedule = pcc_circuit_schedule(n_clones)
    basis = sector_basis(n_qubits, tuple(range(n_qubits + 1)))
    pair = build_block(from_edge_list(2, [(0, 1, 1.0)], input_sites=[0],
                                      output_sites=[1]), (0, 1, 2))
    pair_z = 1.0 - 2.0 * pair.basis.counts
    ket, bra = np.indices((2,) * 2 * (n_qubits - 2)).reshape(
        2, n_qubits - 2, 4 ** (n_qubits - 2))
    hamming = np.sum(ket != bra, axis=0, dtype=np.float64)
    u = np.eye(len(basis), dtype=np.complex128)
    pulses = []
    for pulse in schedule:
        if pulse.kind != "xy_pulse":
            # Qubit q is the bit of weight 2^q of u's row index.
            u = (_rotation_matrix(pulse) @ u.reshape(
                -1, 2, 2 ** pulse.sites[0] * len(u))).reshape(u.shape)
            continue
        # Qubit q is ket axis n - 1 - q, the highest bit first; a pair
        # state's first site is its lower bit.
        kets = [n_qubits - 1 - q for q in pulse.sites[::-1]]
        kets += [k for k in range(n_qubits) if k not in kets]
        bras = [k + n_qubits for k in kets]
        pulses.append((u, pulse.value,
                       tuple(kets[:2] + bras[:2] + kets[2:] + bras[2:])))
        u = np.eye(len(basis), dtype=np.complex128)
    for array in (pair.matrix, pair_z, u, hamming, *(p[0] for p in pulses)):
        array.flags.writeable = False
    return basis, pair.matrix, pair_z, tuple(pulses), u, hamming


def circuit_baseline(n_clones: int, theta: float, gamma: float) -> float:
    """Mean clone fidelity of the compiled cloning circuit under dephasing.

    Dephasing of strength ``gamma`` acts on every register qubit for the
    full duration of each XY pulse; single-qubit rotations are instantaneous
    and noise-free.  Each pulse applies its pair's propagator and its
    spectators' damping, the exact factors of its Liouvillian's exponential.
    """
    _require("gamma", gamma)
    basis, pair, pair_z, pulses, closing, hamming = _compiled_circuit(n_clones)
    amplitudes = np.zeros(len(basis), dtype=np.complex128)
    # |0...0> and configuration |1> on qubit 0, the input's one excitation.
    amplitudes[:2] = _input_coefficients(np.array([float(theta)]), 0.0, 1)[0]
    rho = np.outer(amplitudes, amplitudes.conj())
    factors = {}   # one pair propagator per distinct duration
    for u, duration, order in pulses:
        rho = u @ rho @ u.conj().T
        if duration not in factors:
            factors[duration] = _propagator(pair, pair_z, gamma, duration)
        view = rho.reshape((2,) * len(order)).transpose(order)
        view[...] = (factors[duration] @ view.reshape(16, -1)
                     * np.exp((-0.5 * gamma * duration) * hamming)
                     ).reshape(view.shape)
    rho = closing @ rho @ closing.conj().T
    return float(np.mean(density_fidelities(rho, basis,
                                            range(len(basis.classes)),
                                            theta, 0.0)))
