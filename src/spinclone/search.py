"""Fidelity maximization over evolution time and field, plus disorder runs.

The mean clone fidelity of a weight-conserving network factorizes usefully:
the field is diagonal and constant inside each excitation sector, so the
zero-field sector blocks can be diagonalized once and the field enters only
through relative phases between sectors.  Every single-site coherence couples
adjacent sectors, hence the field dependence at fixed time is a single
harmonic,

    F(t, B) = base(t) + 2 c s Re[ e^{-i B t} gbar(t) ],

with ``c = cos(theta/2)``, ``s = sin(theta/2)`` and ``gbar`` the site-mean
coherence sum.  The grid optimizer evaluates this expression on (t, B) grids;
the exact-field variant replaces the B scan by the analytic maximum
``base + 2 c s |gbar|``.

Scans run on orbit states: swapping twin sites commutes with H, fixes the
input and permutes the outputs, so the state stays in the span of the
normalized orbit sums ``S`` (:func:`spinclone.hamiltonian.orbit_isometry`).
bipartite(4, 5) needs 15 amplitudes instead of 256; without twins ``S`` is
the identity.  ``run_protocol`` stays on configurations: it is the
independent oracle the scans are tested against.

A disorder study evaluates one point for many realizations that differ only
in their couplings, so it builds no scan per realization: it assembles their
blocks as one stack (:func:`spinclone.hamiltonian.assemble_blocks`),
diagonalizes them with one stacked ``eigh`` per excitation weight, and reads
every fidelity off the same readout and single-harmonic formula the scans
use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OutputReadout, prepare_input
from .hamiltonian import assemble_blocks, build_block, orbit_isometry
from .topology import SpinNetwork, coupling_factors, tree, twin_classes

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Matrix entries per chunk of disorder realizations assembled at once, so a
# study's memory does not grow with its sample count.
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Coarse-scan layout and refinement stopping tolerance.

    A degenerate field range is allowed only in fixed-field mode
    (``b_points == 1``), used e.g. for Heisenberg runs pinned at B = 0.
    """

    t_range: tuple[float, float]
    t_points: int
    b_range: tuple[float, float]
    b_points: int
    refine_tolerance: float = 1e-7

    def __post_init__(self):
        if self.t_range[1] <= self.t_range[0]:
            raise ValueError("degenerate time range")
        if self.t_points < 2:
            raise ValueError("need at least two time points")
        if self.b_points < 1:
            raise ValueError("need at least one field point")
        if self.b_points > 1 and self.b_range[1] <= self.b_range[0]:
            raise ValueError("degenerate field range needs b_points == 1")
        if self.refine_tolerance <= 0.0:
            raise ValueError("refine tolerance must be positive")

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.t_points)

    def b_values(self) -> np.ndarray:
        if self.b_points == 1:
            return np.array([self.b_range[0]])
        return np.linspace(self.b_range[0], self.b_range[1], self.b_points)


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found by a scan, with enough context to reproduce it."""

    fidelity: float
    t_c: float
    b_opt: float
    grid: GridSpec
    n_evaluations: int
    refinement_history: tuple[tuple[str, float, float, float], ...]
    sector_dim: tuple[int, int]   # (configurations, orbit states)

    @property
    def j_over_b(self) -> float:
        return math.inf if self.b_opt == 0.0 else 1.0 / self.b_opt

    def csv_row(self, n_inputs: int, n_outputs: int, anisotropy: float,
                theta: float) -> str:
        cells = [str(n_inputs), str(n_outputs), f"{anisotropy:.9g}",
                 f"{theta:.9g}", f"{self.fidelity:.9g}", f"{self.t_c:.9g}",
                 f"{self.b_opt:.9g}", f"{self.j_over_b:.9g}",
                 str(self.n_evaluations)]
        return ",".join(cells)


@dataclass(frozen=True)
class DisorderSummary:
    """Average fidelity over seeded coupling-disorder realizations."""

    samples: int
    mean_fidelity: float
    std_fidelity: float
    ideal_fidelity: float
    relative_drop: float
    sector_dim: int   # configurations each realization is evaluated on


class ProtocolScan:
    """Precomputed fast evaluator of the mean clone fidelity.

    Diagonalizes the zero-field Hamiltonian on the ``dim`` orbit states once
    per excitation sector; any (t, B) point is then a phase application plus
    two weighted reductions.  Results agree with
    :func:`spinclone.dynamics.run_protocol` to round-off.
    """

    def __init__(self, net: SpinNetwork, anisotropy: float, theta: float,
                 phi: float = 0.0, weights=None):
        self.net = net
        self.anisotropy = float(anisotropy)
        self.theta = float(theta)
        self.phi = float(phi)
        configured = net.with_params(anisotropy=anisotropy, field=0.0)
        if weights is None:
            weights = tuple(range(len(net.input_sites) + 1))
        state = prepare_input(configured, theta, phi)
        basis = state.basis
        if tuple(weights) != basis.weights:
            raise ValueError("weights must match the input-state basis")
        block = build_block(configured, weights)

        orbits = orbit_isometry(basis, twin_classes(configured))
        orbit, scale = orbits.argmax(axis=1), orbits.max(axis=1)
        k = orbits.shape[1]

        def project(rows, cols, values):   # S^T X S from the entries of X
            return np.bincount(orbit[rows] * k + orbit[cols],
                               scale[rows] * values * scale[cols],
                               k * k).reshape(k, k)

        self.basis = basis
        self.dim = k
        self.n_eval = 0
        self._blocks = []
        entries = np.nonzero(block.matrix)
        matrix = project(*entries, block.matrix[entries])
        amplitudes = orbits.T @ state.amplitudes
        orbit_weights = basis.state_weights[orbits.argmax(axis=0)]
        for w in basis.weights:
            idx = np.nonzero(orbit_weights == w)[0]
            vals, vecs = np.linalg.eigh(matrix[np.ix_(idx, idx)])
            coeffs = vecs.conj().T @ amplitudes[idx]
            self._blocks.append((idx, vals, vecs.astype(np.complex128), coeffs))

        # Output means S^T D S (diagonal) and S^T G S (pairs).
        self._readout = OutputReadout(net, basis, self.theta, self.phi)
        self._base = np.bincount(orbit, scale ** 2 * self._readout.diagonal, k)
        coherence = project(self._readout.lower, self._readout.upper,
                            self._readout.weight)
        self._pairs = np.nonzero(coherence)
        self._pair_weights = coherence[self._pairs]

    def _amplitudes(self, t_values: np.ndarray) -> np.ndarray:
        """Zero-field orbit amplitudes for a batch of times, (dim, T)."""
        amps = np.empty((self.dim, len(t_values)), dtype=np.complex128)
        for idx, vals, vecs, coeffs in self._blocks:
            phases = np.exp(-1j * np.outer(vals, t_values))
            amps[idx, :] = vecs @ (coeffs[:, None] * phases)
        return amps

    def components(self, t_values) -> tuple[np.ndarray, np.ndarray]:
        """Field-independent pieces ``(base, gbar)`` for a batch of times."""
        t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
        amps = self._amplitudes(t_values)
        base = self._base @ np.abs(amps) ** 2
        rows, cols = self._pairs
        gbar = self._pair_weights @ (amps[rows] * np.conj(amps[cols]))
        self.n_eval += len(t_values)
        return base, gbar

    def grid(self, t_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        """Mean fidelity on the Cartesian (t, B) grid, shape (T, B)."""
        base, gbar = self.components(t_values)
        field_phase = np.exp(-1j * np.outer(t_values, b_values))
        self.n_eval += (len(t_values) * len(b_values)) - len(t_values)
        return self._readout.fidelity(base[:, None], gbar[:, None],
                                      field_phase)

    def mean_fidelity(self, t: float, b: float) -> float:
        return float(self.grid(np.array([t]), np.array([b]))[0, 0])

    def envelope(self, t_values) -> tuple[np.ndarray, np.ndarray]:
        """Exact field maximum per time: ``base + 2cs |gbar|``.

        Also returns the aligning phase ``chi = arg(gbar) + phi`` so that a
        realizing field is ``B = chi / t`` modulo ``2 pi / t``.
        """
        base, gbar = self.components(t_values)
        best = base + 2.0 * self._readout.cs * np.abs(gbar)
        chi = np.angle(gbar) + self.phi
        return best, chi


def _golden_max(func, lo: float, hi: float, xtol: float,
                lo_clip: float = 0.0) -> tuple[float, float, int]:
    """Golden-section maximization of a unimodal scalar on [lo, hi]."""
    lo = max(lo, lo_clip)
    calls = 0
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = func(x1), func(x2)
    calls += 2
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = func(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = func(x1)
        calls += 1
    x = x1 if f1 >= f2 else x2
    return x, max(f1, f2), calls


def _refine_candidate(scan: ProtocolScan, grid: GridSpec, t0: float,
                      b0: float, f0: float,
                      history: list) -> tuple[float, float, float]:
    """Coordinate-wise golden-section ascent from one coarse candidate."""
    t_spacing = (grid.t_range[1] - grid.t_range[0]) / (grid.t_points - 1)
    b_spacing = ((grid.b_range[1] - grid.b_range[0]) / (grid.b_points - 1)
                 if grid.b_points > 1 else 0.0)
    best_t, best_b, best_f = t0, b0, f0
    width_t, width_b = t_spacing, b_spacing
    for _ in range(60):
        previous = best_f
        t_ref, f_t, _ = _golden_max(
            lambda t: scan.mean_fidelity(t, best_b),
            best_t - width_t, best_t + width_t, xtol=1e-10,
            lo_clip=grid.t_range[0])
        if f_t > best_f:
            best_t, best_f = t_ref, f_t
        if grid.b_points > 1:
            b_ref, f_b, _ = _golden_max(
                lambda b: scan.mean_fidelity(best_t, b),
                best_b - width_b, best_b + width_b, xtol=1e-10,
                lo_clip=grid.b_range[0])
            if f_b > best_f:
                best_b, best_f = b_ref, f_b
        history.append(("refine", best_t, best_b, best_f))
        width_t = max(width_t * 0.5, 1e-9)
        width_b = max(width_b * 0.5, 1e-9)
        if best_f - previous < grid.refine_tolerance and width_t < t_spacing / 8:
            break
    return best_t, best_b, best_f


def optimize(net: SpinNetwork, anisotropy: float, theta: float,
             grid: GridSpec, phi: float = 0.0,
             dense_windows: int = 10) -> OptimizationResult:
    """Coarse (t, B) scan, dense windows around the best peaks, then
    coordinate-wise golden-section refinement of each candidate peak.

    Deterministic.  Periodic revivals produce exactly tied maxima; ties
    within the refinement tolerance resolve toward the smallest time, then
    the smallest field.  Refinement sweeps never decrease an incumbent.
    """
    scan = ProtocolScan(net, anisotropy, theta, phi=phi)
    t_values = grid.t_values()
    b_values = grid.b_values()
    surface = scan.grid(t_values, b_values)
    it, ib = np.unravel_index(int(np.argmax(surface)), surface.shape)
    history: list = [("coarse", float(t_values[it]), float(b_values[ib]),
                      float(surface[it, ib]))]

    t_spacing = (grid.t_range[1] - grid.t_range[0]) / (grid.t_points - 1)
    # Candidate peaks: the best coarse time slices, densely re-scanned so
    # that structure narrower than the coarse spacing is not missed.
    column_best = surface.max(axis=1)
    order = np.argsort(column_best, kind="stable")[::-1]
    picked: list[int] = []
    for idx in order:
        if len(picked) >= max(dense_windows, 1):
            break
        if all(abs(int(idx) - p) > 1 for p in picked):
            picked.append(int(idx))
    if int(it) not in picked:
        picked.append(int(it))

    candidates: list[tuple[float, float, float]] = []
    for k in picked:
        lo = max(grid.t_range[0], t_values[k] - t_spacing)
        hi = min(grid.t_range[1], t_values[k] + t_spacing)
        window_t = np.linspace(lo, hi, 21)
        window = scan.grid(window_t, b_values)
        wi, wb = np.unravel_index(int(np.argmax(window)), window.shape)
        history.append(("window", float(window_t[wi]), float(b_values[wb]),
                        float(window[wi, wb])))
        t_ref, b_ref, f_ref = _refine_candidate(
            scan, grid, float(window_t[wi]), float(b_values[wb]),
            float(window[wi, wb]), history)
        candidates.append((f_ref, t_ref, b_ref))

    top = max(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] >= top - grid.refine_tolerance]
    tied.sort(key=lambda c: (c[1], c[2]))
    best_f, best_t, best_b = tied[0]
    history.append(("final", best_t, best_b, best_f))
    return OptimizationResult(
        fidelity=best_f, t_c=best_t, b_opt=best_b, grid=grid,
        n_evaluations=scan.n_eval, refinement_history=tuple(history),
        sector_dim=(len(scan.basis), scan.dim))


def optimize_exact_field(net: SpinNetwork, anisotropy: float, theta: float,
                         t_range: tuple[float, float], t_points: int,
                         phi: float = 0.0, refine_tolerance: float = 1e-7,
                         peaks: int = 10, min_field: float = 0.0,
                         chunk: int = 8192) -> OptimizationResult:
    """Dense time scan with the field maximized in closed form per time.

    Used for the long-time bipartite scans, where a Cartesian field grid
    would either alias or dominate the budget.  The reported field realizes
    the aligning phase and is lifted by multiples of ``2 pi / t`` until it
    reaches ``min_field``.
    """
    scan = ProtocolScan(net, anisotropy, theta, phi=phi)
    t_values = np.linspace(t_range[0], t_range[1], t_points)
    best_values = np.empty(t_points)
    for lo in range(0, t_points, chunk):
        hi = min(lo + chunk, t_points)
        best_values[lo:hi], _ = scan.envelope(t_values[lo:hi])

    def envelope_at(t: float) -> float:
        value, _ = scan.envelope([t])
        return float(value[0])

    order = np.argsort(best_values)[::-1]
    spacing = (t_range[1] - t_range[0]) / (t_points - 1)
    chosen: list[int] = []
    for idx in order:
        if len(chosen) >= peaks:
            break
        if all(abs(int(idx) - c) > 2 for c in chosen):
            chosen.append(int(idx))
    history = [("coarse", float(t_values[chosen[0]]), 0.0,
                float(best_values[chosen[0]]))]
    refined: list[tuple[float, float]] = []
    for idx in chosen:
        t0 = float(t_values[idx])
        lo = max(t_range[0], t0 - spacing)
        hi = min(t_range[1], t0 + spacing)
        t_ref, f_ref, _ = _golden_max(envelope_at, lo, hi, xtol=1e-10)
        refined.append((f_ref, t_ref))
    top = max(f for f, _ in refined)
    tied = sorted((t for f, t in refined if f >= top - refine_tolerance))
    best_t = tied[0]
    best_f = envelope_at(best_t)
    history.append(("refine", best_t, 0.0, best_f))

    _, chi = scan.envelope([best_t])
    b_opt = float(np.mod(chi[0], 2.0 * math.pi)) / best_t if best_t > 0 else 0.0
    while b_opt < min_field:
        b_opt += 2.0 * math.pi / best_t
    history.append(("field", best_t, b_opt, best_f))
    grid = GridSpec(t_range=t_range, t_points=t_points,
                    b_range=(0.0, 0.0), b_points=1,
                    refine_tolerance=refine_tolerance)
    return OptimizationResult(
        fidelity=best_f, t_c=best_t, b_opt=b_opt, grid=grid,
        n_evaluations=scan.n_eval, refinement_history=tuple(history),
        sector_dim=(len(scan.basis), scan.dim))


def optimize_tree(branching: int, levels: int, anisotropy: float = 0.0,
                  theta: float = math.pi / 2.0,
                  t_range: tuple[float, float] = (0.0, 50.0),
                  t_points: int = 5001,
                  coupling: float = 1.0) -> OptimizationResult:
    """Single-input tree maximization in the {0, 1} excitation sector.

    The sector dimension is the site count plus one, so even the 40-site
    trees are cheap.  The field is maximized in closed form per time.
    """
    net = tree(branching, levels, coupling=coupling)
    return optimize_exact_field(net, anisotropy, theta,
                                t_range=t_range, t_points=t_points)


def disorder_fidelities(net_template: SpinNetwork, epsilon: float, seeds,
                        anisotropy: float, theta: float, t: float, b: float,
                        phi: float = 0.0) -> np.ndarray:
    """Mean clone fidelity at ``(t, B)`` of ``jitter(net_template, epsilon,
    s)`` for every ``s`` in ``seeds``.

    The realizations share the template's configuration basis, input and
    readout, so they are evaluated stacked: chunks of at most
    ``STACK_ENTRIES`` matrix entries are assembled at once and diagonalized
    with one stacked ``eigh`` per excitation weight.
    """
    net = net_template.with_params(anisotropy=anisotropy, field=0.0)
    state = prepare_input(net, theta, phi)
    basis = state.basis
    readout = OutputReadout(net, basis, theta, phi)
    field_phase = np.exp(-1j * (t * b))
    template = net.coupling_array()
    sectors = [np.nonzero(basis.state_weights == w)[0] for w in basis.weights]
    chunk = max(1, STACK_ENTRIES // len(basis) ** 2)
    values = np.empty(len(seeds))
    for lo in range(0, len(seeds), chunk):
        part = seeds[lo:lo + chunk]
        couplings = template * np.array(
            [coupling_factors(epsilon, int(s), len(template)) for s in part])
        blocks = assemble_blocks(net, basis, couplings)
        amps = np.empty((len(part), len(basis)), dtype=np.complex128)
        for idx in sectors:
            vals, vecs = np.linalg.eigh(blocks[:, idx[:, None], idx])
            coeffs = np.swapaxes(vecs, 1, 2) @ state.amplitudes[idx]
            phases = np.exp(-1j * (vals * t))
            amps[:, idx] = (vecs @ (coeffs * phases)[:, :, None])[:, :, 0]
        base = np.abs(amps) ** 2 @ readout.diagonal
        gbar = readout.weight * np.sum(
            amps[:, readout.lower] * np.conj(amps[:, readout.upper]), axis=1)
        values[lo:lo + len(part)] = readout.fidelity(base, gbar, field_phase)
    return values


def disorder_study(net_template: SpinNetwork, epsilon: float, samples: int,
                   anisotropy: float, theta: float, t_fixed: float,
                   b_fixed: float, seed: int) -> DisorderSummary:
    """Average fidelity over seeded disorder at the ideal operating point.

    Realization ``k`` is ``jitter(net_template, epsilon, seeds[k])`` with
    ``seeds`` the child seeds of ``SeedSequence(seed)`` (both draw through
    :func:`spinclone.topology.coupling_factors`), evaluated stacked by
    :func:`disorder_fidelities` at the unperturbed ``(t, B)``; nothing is
    re-optimized.  The ideal fidelity comes from the template's scan.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ideal_scan = ProtocolScan(net_template, anisotropy, theta)
    ideal = ideal_scan.mean_fidelity(t_fixed, b_fixed)
    dim = len(ideal_scan.basis)
    if epsilon == 0.0:
        return DisorderSummary(samples=samples, mean_fidelity=ideal,
                               std_fidelity=0.0, ideal_fidelity=ideal,
                               relative_drop=0.0, sector_dim=dim)
    child_seeds = np.random.SeedSequence(seed).generate_state(samples)
    values = disorder_fidelities(net_template, epsilon, child_seeds,
                                 anisotropy, theta, t_fixed, b_fixed)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if samples > 1 else 0.0
    return DisorderSummary(
        samples=samples, mean_fidelity=mean, std_fidelity=std,
        ideal_fidelity=ideal, relative_drop=1.0 - mean / ideal,
        sector_dim=dim)
