"""Fidelity maximization over evolution time and field, plus disorder runs.

The mean clone fidelity of a weight-conserving network factorizes usefully:
the field is diagonal and constant inside each excitation sector, so the
zero-field sector blocks can be diagonalized once and the field enters only
through relative phases between sectors.  Every single-site coherence couples
adjacent sectors, hence at fixed time the field enters as one harmonic,

    F(t, B) = base(t) + 2 c s |gbar(t)| cos(chi(t) - B t),

with ``c = cos(theta/2)``, ``s = sin(theta/2)``, ``gbar`` the site-mean
coherence sum and ``chi = arg(gbar)``.  Its maximum over a field interval is
therefore known at every time, and the one optimizer, :func:`optimize`,
searches in time only: a dense scan of that maximum, then golden-section
refinement of the best peaks, all of them in lockstep.  Every evaluation
sums fixed Bohr-frequency harmonics ``e^{-i(E_k - E_l)t}``
(:class:`_Spectra`).  A uniform grid takes its phases ``e^{-iEt}`` as
products of row and column phases, about ``2 sqrt(T)`` exponentials per
eigenvalue for ``T`` times, so each harmonic is a row factor times a column
factor and each component one small matrix product; a batch of arbitrary
times is its one-column case.  The peaks are picked from the ``5 PEAKS + 1``
largest scan values alone, which is exact (see :func:`_peak_indices`).

Scans run on the count basis of the twin classes
(:func:`spinclone.hamiltonian.count_basis`): swapping twin sites commutes
with H, fixes the input and permutes the outputs, so the state is fixed by
its excitation count per class.  Disorder realizations take the same
evaluator, stacked, with one site per class.  The input's azimuth cancels
from every clone's overlap with its target, so scans load it at 0;
``run_protocol`` takes it, on configurations, as the independent oracle.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import OutputReadout, _require_finite, count_input
from .hamiltonian import (SectorBasis, assemble_blocks, count_basis,
                          sector_basis, sector_dimension)
from .topology import (SpinNetwork, _generate_state, coupling_factors,
                       twin_classes)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# optimize refines the PEAKS best separated scan points, counts maxima within
# TIE_TOLERANCE as tied, and evaluates the scan in batches of CHUNK times.
PEAKS = 10
TIE_TOLERANCE = 1e-7
CHUNK = 8192

# Entries of one working array: pair factors per block of the harmonic sums,
# and matrix entries per chunk of disorder realizations assembled at once, so
# that memory grows with neither the sector nor the sample count.
PAIR_ENTRIES = 1 << 18


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


# A weight's states, the index of its first eigenstate, its eigenvalues E
# (R, n) and eigenvectors V (R, n, n), and the input's c = V^T psi (R, n).
_Sector = namedtuple("_Sector", "states start e v c")


class _Spectra:
    """Zero-field fidelity components of the blocks of ``net`` on ``basis``
    at each row of the (R, n_edges) array ``couplings``, in Bohr-frequency
    form.  With one ``eigh`` per weight, ``base = const + 2 Re sum`` and
    ``gbar = sum`` of ``c_k (V^T X V)_kl conj(c_l) e^{-i(E_k - E_l)t}`` over
    the pairs ``k, l = first, second``: first ``split`` pairs ``k < l`` of a
    weight with ``X = D``, the readout's diagonal (``const`` holds their
    ``k = l`` terms), then pairs of adjacent weights with ``X = W``, its
    coherence weights at ``(lower, upper)``."""

    def __init__(self, net: SpinNetwork, basis: SectorBasis,
                 couplings: np.ndarray, theta: float):
        self.basis, self.dim = basis, len(basis)
        psi = count_input(net, basis, theta, 0.0)   # first: names a bad theta
        self._readout = r = OutputReadout(net, basis, theta)
        blocks = assemble_blocks(net, basis, couplings)
        sectors, start = {}, 0
        for w in basis.weights:
            idx = np.nonzero(basis.state_weights == w)[0]
            vals, vecs = np.linalg.eigh(blocks[:, idx[:, None], idx])
            sectors[w] = _Sector(idx, start, vals, vecs, psi[idx] @ vecs)
            start += len(idx)
        self._energies = np.concatenate([s.e for s in sectors.values()], 1)

        def harmonics(low, high, x, keep):
            """Pairs and ``c_k x_kl conj(c_l)`` at the entries ``keep``."""
            k, l = np.nonzero(keep)
            return (low.start + k, high.start + l,
                    low.c[:, k] * x[:, k, l] * np.conj(high.c[:, l]))

        const, terms = 0.0, []
        for s in sectors.values():
            m = np.swapaxes(s.v, 1, 2) @ (r.diagonal[s.states, None] * s.v)
            const = const + np.einsum("rk,rkk->r", abs(s.c) ** 2, m)
            terms.append(harmonics(s, s, 2.0 * m,
                                   np.triu(np.ones(m.shape[1:], bool), 1)))
        self._const, self._split = const, sum(len(t[0]) for t in terms)
        for w in basis.weights:
            if w + 1 not in sectors:
                continue
            low, high = sectors[w], sectors[w + 1]
            on = basis.state_weights[r.lower] == w
            couple = np.zeros((len(low.states), len(high.states)))
            couple[np.searchsorted(low.states, r.lower[on]),   # once each
                   np.searchsorted(high.states, r.upper[on])] = r.weight[on]
            g = np.swapaxes(low.v, 1, 2) @ (couple @ high.v)
            terms.append(harmonics(low, high, g, np.ones(g.shape[1:], bool)))
        self._first, self._second, self._coeffs = (
            np.concatenate(part, axis=-1) for part in zip(*terms))

    def stacked_components(self, t_rows: np.ndarray, t_cols=(0.0,)):
        """``(base, gbar)``, each (R, T), at the ``T = len(t_rows) *
        len(t_cols)`` times ``t_rows[j] + t_cols[m]`` in row-major order.

        Each phase is a row phase times a column phase, so each component
        is one (R, rows, P) @ (R, P, cols) product of pair factors, summed
        over blocks of at most ``PAIR_ENTRIES`` factor entries.  A batch of
        arbitrary times is the one-column case at offset 0.
        """
        energies = self._energies[:, None, :]
        rows = np.exp(-1j * (np.asarray(t_rows)[:, None] * energies))
        cols = np.exp(-1j * (np.asarray(t_cols)[:, None] * energies))
        rows_conj, cols_conj = np.conj(rows), np.conj(cols)
        block = max(1, PAIR_ENTRIES // (len(rows) * (rows.shape[1]
                                                     + cols.shape[1])))
        for lo in range(0, len(self._first), block):
            f, s = self._first[lo:lo + block], self._second[lo:lo + block]
            left = np.take(rows, f, axis=2)
            left *= np.take(rows_conj, s, axis=2)
            right = np.take(cols, f, axis=2)
            right *= np.take(cols_conj, s, axis=2)
            right *= self._coeffs[:, None, lo:lo + block]
            cut = min(max(self._split - lo, 0), len(f))
            # Re(x + iy)(u + iv) = x u - y v: the base is one real product of
            # the interleaved floats of left and of conj(right).
            parts = (left[:, :, :cut].view(np.float64) @ np.swapaxes(
                         np.conj(right[:, :, :cut]).view(np.float64), 1, 2),
                     left[:, :, cut:] @ np.swapaxes(right[:, :, cut:], 1, 2))
            base, gbar = (parts if lo == 0
                          else (base + parts[0], gbar + parts[1]))
        base += self._const[:, None, None]
        return base.reshape(len(rows), -1), gbar.reshape(len(rows), -1)


def _check_field_interval(b_lo: float, b_hi: float) -> None:
    """Raise ValueError unless ``b_lo`` is finite and ``b_lo <= b_hi``
    (``b_hi`` may be infinite)."""
    if not (math.isfinite(b_lo) and b_lo <= b_hi):
        raise ValueError("field interval needs finite b_lo <= b_hi")


class ProtocolScan(_Spectra):
    """Precomputed fast evaluator of the mean clone fidelity.

    The one-realization case of the stacked evaluator, on the ``dim`` count
    states of the twin classes: any batch of times is two small products of
    pair factors, and the field enters in closed form.
    Results agree with :func:`spinclone.dynamics.run_protocol` to round-off.
    """

    def __init__(self, net: SpinNetwork, anisotropy: float, theta: float):
        configured = net.with_params(anisotropy=anisotropy, field=0.0)
        basis = count_basis(tuple(twin_classes(configured).tolist()),
                            tuple(range(len(net.input_sites) + 1)))
        super().__init__(configured, basis, configured.coupling_array()[None],
                         theta)
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
        finite = np.isfinite(t)
        if not finite.all():
            _require_finite(t=float(t[~finite][0]))
        rows, cols = t, (0.0,)
        if grid and len(t) > 1:
            width = math.isqrt(len(t) - 1) + 1
            rows = t[::width]
            cols = np.arange(width) * ((t[-1] - t[0]) / (len(t) - 1))
        base, gbar = self.stacked_components(rows, cols)
        self.n_eval += len(t)
        return base[0, :len(t)], gbar[0, :len(t)]

    def mean_fidelity(self, t: float, b: float) -> float:
        _require_finite(t=t, b=b)
        base, gbar = self.components([t])
        return float(self._readout.fidelity(base, gbar,
                                            np.exp(-1j * (t * b)))[0])

    def field_maximum(self, t_values, b_lo: float, b_hi: float,
                      grid: bool = False) -> np.ndarray:
        """The values of :meth:`field_optimum`.  An interval unbounded above
        reaches ``base + 2cs |gbar|`` at every ``t > 0``, needing no field."""
        _check_field_interval(b_lo, b_hi)
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        if b_hi < math.inf or (t <= 0.0).any():
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
        _check_field_interval(b_lo, b_hi)
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        base, gbar = self.components(t, grid)
        best = base + 2.0 * self._readout.cs * np.abs(gbar)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            period = 2.0 * math.pi / np.abs(t)
            aligned = np.angle(gbar) / t
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
             field: tuple[float, float] = (0.0, math.inf)
             ) -> OptimizationResult:
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
    _check_field_interval(b_lo, b_hi)
    scan = ProtocolScan(net, anisotropy, theta)
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
                        anisotropy: float, theta: float, t: float,
                        b: float) -> np.ndarray:
    """Mean clone fidelity at ``(t, B)`` of ``jitter(net_template, epsilon,
    s)`` for every ``s`` in the integer array ``seeds``, evaluated stacked in
    chunks of at most ``PAIR_ENTRIES`` matrix entries (one
    :func:`spinclone.topology.coupling_factors` draw and one ``eigh`` per
    weight and chunk) on configurations, the count basis with one site per
    class.
    """
    net = net_template.with_params(anisotropy=anisotropy, field=0.0)
    basis = sector_basis(net.n_sites, tuple(range(len(net.input_sites) + 1)))
    field_phase = np.exp(-1j * (t * b))
    template = net.coupling_array()
    chunk = max(1, PAIR_ENTRIES // len(basis) ** 2)
    values = np.empty(len(seeds))
    for lo in range(0, len(seeds), chunk):
        part = seeds[lo:lo + chunk]
        couplings = template * coupling_factors(epsilon, part, len(template))
        spectra = _Spectra(net, basis, couplings, theta)
        base, gbar = spectra.stacked_components(np.array([t]))
        values[lo:lo + len(part)] = spectra._readout.fidelity(
            base[:, 0], gbar[:, 0], field_phase)
    return values


def disorder_study(net_template: SpinNetwork, epsilon: float, samples: int,
                   anisotropy: float, theta: float, t_fixed: float,
                   b_fixed: float, seed: int) -> DisorderSummary:
    """Average fidelity over seeded disorder at the ideal operating point.

    Realization ``k`` is ``jitter(net_template, epsilon, seeds[k])`` with
    ``seeds = SeedSequence(seed).generate_state(samples)``, replayed without
    ``numpy.random`` like the draws themselves (both in
    :mod:`spinclone.topology`), evaluated stacked by
    :func:`disorder_fidelities` at the unperturbed ``(t, B)``; nothing is
    re-optimized.  The ideal fidelity comes from the template's scan.  A
    negative ``seed`` raises ``ValueError``, whatever ``epsilon``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _require_finite(t_fixed=t_fixed, b_fixed=b_fixed)
    child_seeds = _generate_state(seed, samples)
    ideal_scan = ProtocolScan(net_template, anisotropy, theta)
    ideal = ideal_scan.mean_fidelity(t_fixed, b_fixed)
    dim = sector_dimension([1] * net_template.n_sites,
                           ideal_scan.basis.weights)
    if epsilon == 0.0:
        return DisorderSummary(samples=samples, mean_fidelity=ideal,
                               std_fidelity=0.0, ideal_fidelity=ideal,
                               relative_drop=0.0, sector_dim=dim)
    values = disorder_fidelities(net_template, epsilon, child_seeds,
                                 anisotropy, theta, t_fixed, b_fixed)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if samples > 1 else 0.0
    return DisorderSummary(
        samples=samples, mean_fidelity=mean, std_fidelity=std,
        ideal_fidelity=ideal, relative_drop=1.0 - mean / ideal,
        sector_dim=dim)
