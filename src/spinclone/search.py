"""Fidelity maximization over evolution time and field, plus disorder runs.

The mean clone fidelity of a weight-conserving network factorizes usefully:
the field is diagonal and constant inside each excitation sector, so the
zero-field sector blocks can be diagonalized once and the field enters only
through relative phases between sectors.  Every single-site coherence couples
adjacent sectors, hence at fixed time the field enters as one harmonic,

    F(t, B) = base(t) + 2 c s |gbar(t)| cos(chi(t) - B t),

with ``c = cos(theta/2)``, ``s = sin(theta/2)``, ``gbar`` the site-mean
coherence sum and ``chi = arg(gbar) + phi``.  Its maximum over a field
interval is therefore known at every time, and the one optimizer,
:func:`optimize`, searches in time only: a dense scan of that maximum, then
golden-section refinement of the best peaks, all of them in lockstep.
Every evaluation is batched through one phase builder: a uniform grid takes
its phases ``e^{-iEt}`` as products of row and column phases, about
``2 sqrt(T)`` exponentials per eigenvalue for ``T`` times, and a batch of
arbitrary times is its one-column case.  Each evaluator writes its phases,
amplitudes and readout into one workspace of its own, grown to the largest
batch it has seen, so a dense scan allocates only its results.  The peaks
are picked from the ``5 PEAKS + 1`` largest scan values alone, which is
exact (see :func:`_peak_indices`).

Scans run on the count basis of the twin classes
(:func:`spinclone.hamiltonian.count_basis`): swapping twin sites commutes
with H, fixes the input and permutes the outputs, so the state is fixed by
its excitation count per class.  Disorder realizations take the same
evaluator, stacked, with one site per class.  ``run_protocol`` stays on
configurations as the independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OutputReadout, count_input
from .hamiltonian import (SectorBasis, assemble_blocks, count_basis,
                          sector_basis, sector_dimension)
from .topology import SpinNetwork, coupling_factors, twin_classes

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# optimize refines the PEAKS best separated scan points, counts maxima within
# TIE_TOLERANCE as tied, and evaluates the scan in batches of CHUNK times.
PEAKS = 10
TIE_TOLERANCE = 1e-7
CHUNK = 8192

# Matrix entries per chunk of disorder realizations assembled at once, so a
# study's memory does not grow with its sample count.
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found by :func:`optimize`."""

    fidelity: float
    t_c: float
    b_opt: float
    n_evaluations: int
    sector_dim: tuple[int, int]   # (configurations, count states)

    @property
    def j_over_b(self) -> float:
        return math.inf if self.b_opt == 0.0 else 1.0 / self.b_opt


@dataclass(frozen=True)
class DisorderSummary:
    """Average fidelity over seeded coupling-disorder realizations."""

    samples: int
    mean_fidelity: float
    std_fidelity: float
    ideal_fidelity: float
    relative_drop: float
    sector_dim: int   # configurations each realization is evaluated on


class _Spectra:
    """Stacked evaluator of the zero-field fidelity components: the blocks of
    ``net`` on ``basis`` for each row of the (R, n_edges) array
    ``couplings``, diagonalized with one ``eigh`` per weight, with the input
    expanded in their eigenvectors and read out by :class:`OutputReadout`,
    all through one workspace of its own."""

    def __init__(self, net: SpinNetwork, basis: SectorBasis,
                 couplings: np.ndarray, theta: float, phi: float):
        self.basis, self.dim, self.phi = basis, len(basis), float(phi)
        self._realizations = len(couplings)
        self._readout = OutputReadout(net, basis, theta, self.phi)
        psi = count_input(net, basis, theta, self.phi)
        blocks = assemble_blocks(net, basis, couplings)
        self._sectors = []
        for w in basis.weights:
            idx = np.nonzero(basis.state_weights == w)[0]
            vals, vecs = np.linalg.eigh(blocks[:, idx[:, None], idx])
            coeffs = np.swapaxes(vecs, 1, 2) @ psi[idx]
            consecutive = idx[-1] - idx[0] < len(idx)
            run = slice(idx[0], idx[-1] + 1) if consecutive else None
            self._sectors.append((idx, run, vals[:, :, None],
                                  vecs.astype(np.complex128),
                                  coeffs[:, :, None]))
        # Workspace rows, each one complex per time and realization: the
        # amplitudes first, then a sector's weighted phases and, unless its
        # states are consecutive amplitude rows, its phases; or the float
        # |amps|^2; or, from row max(dim, pairs) on, the two coherence
        # factors, whose product overwrites the spent amplitudes.
        pairs = len(self._readout.lower)
        self._rows = max(
            self.dim + max(len(idx) * (1 if run is not None else 2)
                           for idx, run, *_ in self._sectors),
            self.dim + (self.dim + 1) // 2, max(self.dim, pairs) + 2 * pairs)
        self._work = np.empty(0, dtype=np.complex128)

    def stacked_components(self, t_rows: np.ndarray, t_cols=(0.0,)):
        """``(base, gbar)``, each (R, T), at the ``T = len(t_rows) *
        len(t_cols)`` times ``t_rows[j] + t_cols[m]`` in row-major order.

        The phase ``e^{-iE(t_rows[j] + t_cols[m])}`` is the product of a row
        and a column phase.  A batch of arbitrary times is the one-column
        case at offset 0, whose phase is exactly ``1 + 0j``.  Every large
        intermediate goes into the workspace through ``out=``, by the same
        ufuncs in the same operand order as into fresh arrays, and no
        complex product overwrites its own operand (numpy rounds a
        one-element product in place differently), so the results match
        fresh arrays bit for bit.
        """
        realizations, count = self._realizations, len(t_rows) * len(t_cols)
        size = realizations * count
        if len(self._work) < self._rows * size:
            self._work = np.empty(self._rows * size, dtype=np.complex128)

        def carve(rows, start, dtype=np.complex128):
            """(R, rows, T) view of the workspace from row ``start`` on, in
            rows of ``dtype``."""
            flat = self._work.view(dtype)[start * size:(start + rows) * size]
            return flat.reshape(realizations, rows, count)

        amps = carve(self.dim, 0)
        grid = amps.reshape(realizations, self.dim, len(t_rows), len(t_cols))
        for idx, run, vals, vecs, coeffs in self._sectors:
            # Consecutive states are synthesized in place; others past the
            # weighted phases, then scattered.
            if run is None:
                target = carve(len(idx), self.dim + len(idx))
                phase = target.reshape(grid.shape[:1] + (len(idx),)
                                       + grid.shape[2:])
            else:
                target, phase = amps[:, run], grid[:, run]
            np.multiply(np.exp(-1j * (vals * t_rows))[..., None],
                        np.exp(-1j * (vals * t_cols))[..., None, :],
                        out=phase)
            weighted = np.multiply(coeffs, target,
                                   out=carve(len(idx), self.dim))
            np.matmul(vecs, weighted, out=target)
            if run is None:
                amps[:, idx, :] = target
        r = self._readout
        squares = carve(self.dim, 2 * self.dim, np.float64)
        np.abs(amps, out=squares)
        base = r.diagonal @ np.square(squares, out=squares)
        # mode="clip" takes straight into out; "raise" would buffer a copy.
        pairs, top = len(r.lower), max(self.dim, len(r.lower))
        lower = np.take(amps, r.lower, axis=1, out=carve(pairs, top),
                        mode="clip")
        upper = np.take(amps, r.upper, axis=1, out=carve(pairs, top + pairs),
                        mode="clip")
        np.conjugate(upper, out=upper)
        return base, r.weight @ np.multiply(lower, upper,
                                            out=carve(pairs, 0))


class ProtocolScan(_Spectra):
    """Precomputed fast evaluator of the mean clone fidelity.

    The one-realization case of the stacked evaluator, on the ``dim`` count
    states of the twin classes: any batch of times is a phase application
    plus two weighted reductions, and the field enters in closed form.
    Results agree with :func:`spinclone.dynamics.run_protocol` to round-off.
    """

    def __init__(self, net: SpinNetwork, anisotropy: float, theta: float,
                 phi: float = 0.0):
        configured = net.with_params(anisotropy=anisotropy, field=0.0)
        basis = count_basis(tuple(twin_classes(configured).tolist()),
                            tuple(range(len(net.input_sites) + 1)))
        super().__init__(configured, basis, configured.coupling_array()[None],
                         theta, phi)
        self.n_eval = 0

    def components(self, t_values,
                   grid: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Field-independent pieces ``(base, gbar)`` for a batch of times.

        ``grid=True`` declares ``t_values`` a uniform grid of ``T`` times:
        its phases are then products of one row phase per ``w =
        ceil(sqrt(T))`` times and ``w`` column phases at multiples of the
        step (see :meth:`_Spectra.stacked_components`).
        """
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        rows, cols = t, (0.0,)
        if grid and len(t) > 1:
            width = math.isqrt(len(t) - 1) + 1
            rows = t[::width]
            cols = np.arange(width) * ((t[-1] - t[0]) / (len(t) - 1))
        base, gbar = self.stacked_components(rows, cols)
        self.n_eval += len(t)
        return base[0, :len(t)], gbar[0, :len(t)]

    def mean_fidelity(self, t: float, b: float) -> float:
        base, gbar = self.components([t])
        return float(self._readout.fidelity(base, gbar,
                                            np.exp(-1j * (t * b)))[0])

    def field_maximum(self, t_values, b_lo: float, b_hi: float,
                      grid: bool = False) -> np.ndarray:
        """The values of :meth:`field_optimum`.  An interval unbounded above
        reaches ``base + 2cs |gbar|`` at every ``t > 0``, needing no field."""
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        if b_hi < math.inf or t.min() <= 0.0:
            return self.field_optimum(t, b_lo, b_hi, grid)[0]
        base, gbar = self.components(t, grid)
        return base + 2.0 * self._readout.cs * np.abs(gbar)

    def field_optimum(self, t_values, b_lo: float, b_hi: float,
                      grid: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Maximum of ``F(t, B)`` over ``b_lo <= B <= b_hi`` for a batch of
        times, and a field attaining it; ``grid`` as in :meth:`components`.

        ``base + 2cs |gbar|`` is reached at the smallest ``B >= b_lo`` with
        ``B = chi / t (mod 2 pi / t)``; where that exceeds ``b_hi``, and at
        ``t = 0`` where F does not depend on B, the better endpoint wins
        (``b_lo`` on a tie).
        """
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        base, gbar = self.components(t, grid)
        best = base + 2.0 * self._readout.cs * np.abs(gbar)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            period = 2.0 * math.pi / np.abs(t)
            aligned = (np.angle(gbar) + self.phi) / t
            fields = aligned + np.ceil((b_lo - aligned) / period) * period
        # t = 0 (or overflow) leaves a nan field, which compares endpoints.
        off = np.nonzero(~(fields <= b_hi))[0]
        if len(off):
            ends = np.array([[b_lo], [b_hi if math.isfinite(b_hi) else b_lo]])
            values = self._readout.fidelity(base[off], gbar[off],
                                            np.exp(-1j * (ends * t[off])))
            best[off] = values.max(axis=0)
            fields[off] = ends[np.argmax(values, axis=0), 0]   # b_lo on ties
        return best, fields


def _golden_refine(func, lo: np.ndarray,
                   hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of a unimodal function on every bracket
    ``[lo[k], hi[k]]``, each to a width of 1e-10.  The brackets advance in
    lockstep: ``func`` maps an array of times to values and is called once
    per step with the new point of every bracket still open.  Returns the
    better final point of each bracket and its value."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = np.split(func(np.concatenate((x1, x2))), 2)
    active = np.nonzero(b - a > 1e-10)[0]
    while len(active):
        rising = f1[active] < f2[active]
        up, down = active[rising], active[~rising]
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + GOLDEN * (b[up] - a[up])
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - GOLDEN * (b[down] - a[down])
        values = func(np.concatenate((x2[up], x1[down])))
        f2[up], f1[down] = values[:len(up)], values[len(up):]
        active = active[b[active] - a[active] > 1e-10]
    first = f1 >= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def _peak_indices(values: np.ndarray) -> list[int]:
    """Indices of the ``PEAKS`` best scan values more than two points apart,
    best first.

    Only the ``5 PEAKS + 1`` largest values are sorted.  That is exact:
    every index the walk visits lies within two points of a chosen one, so
    before it has ``PEAKS`` points it has visited at most ``5 PEAKS``.
    """
    top = min(5 * PEAKS + 1, len(values))
    best = np.argpartition(values, -top)[-top:]
    # The sort is not stable, so the first maximum goes first: a flat
    # landscape then refines its smallest time.
    chosen = [int(np.argmax(values))]
    for idx in best[np.argsort(values[best])[::-1]]:
        if len(chosen) >= PEAKS:
            break
        if all(abs(int(idx) - c) > 2 for c in chosen):
            chosen.append(int(idx))
    return chosen


def optimize(net: SpinNetwork, anisotropy: float, theta: float,
             t_range: tuple[float, float], t_points: int,
             field: tuple[float, float] = (0.0, math.inf),
             phi: float = 0.0) -> OptimizationResult:
    """Maximize the mean clone fidelity over time and a field interval.

    The field is maximized in closed form at every time (see
    :meth:`ProtocolScan.field_optimum`), so only time is searched: a dense
    scan of ``t_points`` times over ``t_range``, then lockstep golden-section
    refinement within one spacing of the ``PEAKS`` best scan points more than
    two points apart.  A fixed field ``B`` is the interval ``(B, B)``.
    Refined maxima within ``TIE_TOLERANCE`` resolve to the smallest time.
    """
    t_lo, t_hi = t_range
    b_lo, b_hi = field
    if t_points < 2:
        raise ValueError("need at least two time points")
    if not 0.0 <= t_lo < t_hi < math.inf:
        raise ValueError("time range needs finite 0 <= t_lo < t_hi")
    if not (math.isfinite(b_lo) and b_lo <= b_hi):
        raise ValueError("field interval needs finite b_lo <= b_hi")
    scan = ProtocolScan(net, anisotropy, theta, phi=phi)
    t_values = np.linspace(t_lo, t_hi, t_points)
    values = np.empty(t_points)
    for lo in range(0, t_points, CHUNK):
        values[lo:lo + CHUNK] = scan.field_maximum(t_values[lo:lo + CHUNK],
                                                   b_lo, b_hi, grid=True)

    spacing = (t_hi - t_lo) / (t_points - 1)
    centers = t_values[_peak_indices(values)]
    times, maxima = _golden_refine(
        lambda t: scan.field_maximum(t, b_lo, b_hi),
        np.maximum(t_lo, centers - spacing),
        np.minimum(t_hi, centers + spacing))
    best_t = times[maxima >= maxima.max() - TIE_TOLERANCE].min()
    best, fields = scan.field_optimum([best_t], b_lo, b_hi)
    return OptimizationResult(
        fidelity=float(best[0]), t_c=float(best_t), b_opt=float(fields[0]),
        n_evaluations=scan.n_eval,
        sector_dim=(sector_dimension([1] * net.n_sites, scan.basis.weights),
                    scan.dim))


def disorder_fidelities(net_template: SpinNetwork, epsilon: float, seeds,
                        anisotropy: float, theta: float, t: float, b: float,
                        phi: float = 0.0) -> np.ndarray:
    """Mean clone fidelity at ``(t, B)`` of ``jitter(net_template, epsilon,
    s)`` for every ``s`` in ``seeds``, evaluated stacked in chunks of at most
    ``STACK_ENTRIES`` matrix entries (one ``eigh`` per weight and chunk) on
    configurations, the count basis with one site per class.
    """
    net = net_template.with_params(anisotropy=anisotropy, field=0.0)
    basis = sector_basis(net.n_sites, tuple(range(len(net.input_sites) + 1)))
    field_phase = np.exp(-1j * (t * b))
    template = net.coupling_array()
    chunk = max(1, STACK_ENTRIES // len(basis) ** 2)
    values = np.empty(len(seeds))
    for lo in range(0, len(seeds), chunk):
        part = seeds[lo:lo + chunk]
        couplings = template * np.array(
            [coupling_factors(epsilon, int(s), len(template)) for s in part])
        spectra = _Spectra(net, basis, couplings, theta, phi)
        base, gbar = spectra.stacked_components(np.array([t]))
        values[lo:lo + len(part)] = spectra._readout.fidelity(
            base[:, 0], gbar[:, 0], field_phase)
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
    dim = sector_dimension([1] * net_template.n_sites,
                           ideal_scan.basis.weights)
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
