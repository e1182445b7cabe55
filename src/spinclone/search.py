"""Fidelity maximization over evolution time and field, plus disorder runs.

The mean clone fidelity of a weight-conserving network factorizes usefully:
the field is diagonal and constant inside each excitation sector, so the
zero-field sector blocks can be diagonalized once and the field enters only
through relative phases between sectors.  Every single-site coherence couples
adjacent sectors, hence at fixed time the field enters as one harmonic,

    F(t, B) = base(t) + 2 c s |gbar(t)| cos(chi(t) - B t),

with ``c = cos(theta/2)``, ``s = sin(theta/2)`` (theta folded into [0, pi]),
``gbar`` the site-mean coherence sum and ``chi = arg(gbar)``.  Its maximum over
a field interval is therefore known at every time, and the one optimizer,
:func:`optimize`, searches in time only: a coarse-to-fine scan of that maximum
under a curvature bound, then lockstep Newton steps on its closed-form time
derivatives at the best peaks.  Every evaluation sums fixed Bohr-frequency
harmonics ``e^{-i(E_k - E_l)t}`` (:class:`_Spectra`), so each time derivative
is the same sum with its coefficients multiplied by ``-i(E_k - E_l)``.  A
uniform grid takes its phases ``e^{-iEt}`` as products of row and column
phases, about ``2 sqrt(T)`` exponentials per eigenvalue for ``T`` times, so
each harmonic is a row factor times a column factor and each component one
small matrix product; a batch of arbitrary times is its one-column case.  The
peaks are picked from the two unmerged passes, ordering only the values down to
the ``5 PEAKS + 1``-th largest, which is exact (:func:`_peak_indices`).

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

# optimize scans every STRIDE-th grid time first, in batches of CHUNK, refines
# the PEAKS best separated points and ties values within TIE_TOLERANCE.
PEAKS = 10
STRIDE = 16
TIE_TOLERANCE = 1e-10
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
    n_evaluations: int            # grid and refinement times evaluated
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
        self._omega = (np.take(self._energies, self._first, axis=1)
                       - np.take(self._energies, self._second, axis=1))

    def stacked_components(self, t_rows: np.ndarray, t_cols=(0.0,),
                           order: int = 0):
        """``(base, gbar)``, each (R, T), at the ``T = len(t_rows) *
        len(t_cols)`` times ``t_rows[j] + t_cols[m]`` in row-major order.

        Each phase is a row phase times a column phase, so each component
        is one (R, rows, P) @ (R, P, cols) product of pair factors, summed
        over blocks of at most ``PAIR_ENTRIES`` factor entries.  A batch of
        arbitrary times is the one-column case at offset 0.  ``order = n``
        adds the time derivatives up to the n-th as further columns, of
        coefficients ``(-i omega)^k c`` for the Bohr frequency ``omega``:
        (R, T (n + 1)) in (row, derivative, column) order.
        """
        energies = self._energies[:, None, :]
        rows = np.exp(-1j * (np.asarray(t_rows)[:, None] * energies))
        cols = np.exp(-1j * (np.asarray(t_cols)[:, None] * energies))
        rows_conj, cols_conj = np.conj(rows), np.conj(cols)
        block = max(1, PAIR_ENTRIES // (len(rows) * (
            rows.shape[1] + cols.shape[1] * (order + 1))))
        for lo in range(0, len(self._first), block):
            f, s = self._first[lo:lo + block], self._second[lo:lo + block]
            left = np.take(rows, f, axis=2)
            left *= np.take(rows_conj, s, axis=2)
            right = np.take(cols, f, axis=2)
            right *= np.take(cols_conj, s, axis=2)
            right *= self._coeffs[:, None, lo:lo + block]
            if order:
                rate = -1j * self._omega[:, None, lo:lo + block]
                right = np.concatenate(
                    [right * rate ** k for k in range(order + 1)], axis=1)
            cut = min(max(self._split - lo, 0), len(f))
            # Re(x + iy)(u + iv) = x u - y v: the base is one real product of
            # the interleaved floats of left and of conj(right).
            parts = (left[:, :, :cut].view(np.float64) @ np.swapaxes(
                         np.conj(right[:, :, :cut]).view(np.float64), 1, 2),
                     left[:, :, cut:] @ np.swapaxes(right[:, :, cut:], 1, 2))
            base, gbar = (parts if lo == 0
                          else (base + parts[0], gbar + parts[1]))
        base[:, :, :cols.shape[1]] += self._const[:, None, None]
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
        # F is even and 2 pi periodic in theta; cs >= 0 on [0, pi].
        if math.isfinite(theta) and not 0.0 <= theta <= math.pi:
            theta = math.acos(math.cos(theta))
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
        """The values of :meth:`field_optimum` (see :meth:`_maximum`)."""
        _check_field_interval(b_lo, b_hi)
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        return self._maximum(t, *self.components(t, grid), b_lo, b_hi)

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
        return self._choose_field(t, *self.components(t, grid), b_lo, b_hi)[:2]

    def _maximum(self, t, base, gbar, b_lo: float, b_hi: float):
        """The values of :meth:`_choose_field`: ``base + 2cs |gbar|`` in an
        interval unbounded above wherever the period ``2 pi / |t|`` is finite
        (every ``t > 0`` but the smallest), which needs no field."""
        best = base + 2.0 * self._readout.cs * np.abs(gbar)
        with np.errstate(divide="ignore", over="ignore"):
            off = (b_hi < math.inf) | ~(2.0 * math.pi / np.abs(t) < math.inf)
        if off.any():
            best[off] = self._choose_field(t[off], base[off], gbar[off],
                                           b_lo, b_hi)[0]
        return best

    def _choose_field(self, t, base, gbar, b_lo: float, b_hi: float):
        """:meth:`field_optimum` from the components at the times ``t``,
        and the mask of the times whose field is held at an end."""
        best = base + 2.0 * self._readout.cs * np.abs(gbar)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            period = 2.0 * math.pi / np.abs(t)
            aligned = np.angle(gbar) / t
            fields = aligned + np.ceil((b_lo - aligned) / period) * period
        # t = 0 (or overflow) leaves a nan field, which compares endpoints.
        held = ~(fields <= b_hi)
        off = np.nonzero(held)[0]
        if len(off):
            ends = np.array([[b_lo], [b_hi if math.isfinite(b_hi) else b_lo]])
            values = self._readout.fidelity(base[off], gbar[off],
                                            np.exp(-1j * (ends * t[off])))
            best[off] = values.max(axis=0)
            fields[off] = ends[np.argmax(values, axis=0), 0]   # b_lo on ties
        return best, fields, held

    def _time_derivatives(self, t, b_lo: float, b_hi: float):
        """:meth:`field_maximum` at the times ``t`` and its first two time
        derivatives, from one batch with derivative columns, at the field
        of :meth:`_choose_field` (envelope theorem).  At every fixed field F
        is even in t, so ``F'(0) = 0``; at ``t = 0`` a bounded interval
        takes the end of larger ``F''(0)``, the end that wins as ``t ->
        0+``.  At kinks, ``t = 0`` in an unbounded interval (where ``base +
        2cs |gbar|`` rises like ``|t|``) and aligned times with ``|g|``
        below the smallest normal float (0 in effect), the second is nan
        and the first is one-sided towards larger t."""
        base, gbar = (part[0].reshape(-1, 3).T
                      for part in self.stacked_components(t, order=2))
        self.n_eval += len(t)
        g, g1 = gbar[:2]
        value, b, held = self._choose_field(t, base[0], g, b_lo, b_hi)
        if math.isfinite(b_hi):
            # F''(0) at each end, less its field-free part, picks the end.
            lo, hi = (e * (2.0 * g1.imag - e * g.real) for e in (b_lo, b_hi))
            b = np.where((t == 0.0) & (hi > lo), b_hi, b)
        tiny = np.abs(g) < np.finfo(float).tiny   # where 1/|g| overflows
        norm, b = np.where(tiny, 1.0, np.abs(g)), np.where(held, b, 0.0)
        # gbar and its derivatives turned by e^{-iBt}: conj(g)/|g| at the
        # aligned field, whose B terms vanish there (B is set to 0) and whose
        # envelope bends by a further Im(q1)^2/|g|.
        h, q1, q2 = gbar * np.where(held, np.exp(-1j * (t * b)),
                                    np.conj(g) / norm)
        bend = np.where(held, 2.0 * b * q1.imag - b * b * h.real,
                        q1.imag ** 2 / norm)
        cs2 = 2.0 * self._readout.cs
        kink = ((t == 0.0) & (b_hi == math.inf)) | (~held & tiny)
        d1 = base[1] + cs2 * np.where(kink, abs(g1), q1.real + b * h.imag)
        d2 = np.where(kink, math.nan, base[2] + cs2 * (q2.real + bend))
        return value, np.where(t == 0.0, 0.0, d1), d2

    def _curvature(self, b_lo: float, b_hi: float) -> float:
        """``K`` with ``M'' >= -K`` for the field maximum M at t > 0: ``sum |c|
        omega^2`` over ``base``'s harmonics ``c e^{-i omega t}`` plus ``2|cs|
        sum |c| (|omega| + B_max)^2`` over ``gbar``'s, ``B_max = max(|b_lo|,
        |b_hi|)`` or 0 if ``b_hi = inf``, where ``|g|'' >= -|g''|`` and the
        kinks at ``gbar = 0`` are convex (cs >= 0)."""
        c, w, k = abs(self._coeffs[0]), abs(self._omega[0]), self._split
        b_max = max(abs(b_lo), abs(b_hi)) if b_hi < math.inf else 0.0
        return float(c[:k] @ w[:k] ** 2 + 2.0 * abs(self._readout.cs)
                     * (c[k:] @ (w[k:] + b_max) ** 2))

    def optimize(self, t_range: tuple[float, float], t_points: int,
                 field: tuple[float, float] = (0.0, math.inf)
                 ) -> OptimizationResult:
        """Maximize the mean clone fidelity over time and a field interval,
        in closed form in the field (:meth:`field_optimum`; a fixed field
        ``B`` is the interval ``(B, B)``): a scan of ``t_points`` times over
        ``t_range``, then lockstep safeguarded Newton refinement
        (:func:`_newton_refine`) within one spacing of the scan's
        :func:`_peak_indices`.  Refined maxima within ``TIE_TOLERANCE``
        resolve to the smallest time.

        The scan evaluates every ``STRIDE``-th time first.  Between coarse
        values ``M_a`` and ``M_b`` a time ``H`` apart the maximum stays below
        the chord plus ``K (t - a)(b - t) / 2`` (:meth:`_curvature`), so the
        other times go only where that parabola's maximum reaches the ``5
        PEAKS + 1``-th largest coarse value, and into the first (M jumps at 0)
        and last intervals: the peaks are the dense scan's.  ``n_evaluations``
        counts this call's times.
        """
        t_lo, t_hi = t_range
        b_lo, b_hi = field
        if t_points < 2:
            raise ValueError("need at least two time points")
        if not 0.0 <= t_lo < t_hi < math.inf:
            raise ValueError("time range needs finite 0 <= t_lo < t_hi")
        _check_field_interval(b_lo, b_hi)
        n_before = self.n_eval
        dt = (t_hi - t_lo) / (t_points - 1)
        starts = np.arange(0, t_points, STRIDE)
        coarse_t, steps = starts * dt + t_lo, np.arange(1, STRIDE) * dt
        coarse = np.concatenate([
            self.field_maximum(coarse_t[lo:lo + CHUNK], b_lo, b_hi, grid=True)
            for lo in range(0, len(starts), CHUNK)])
        floor = (np.partition(coarse, -5 * PEAKS - 1)[-5 * PEAKS - 1]
                 if len(coarse) > 5 * PEAKS else -math.inf) - TIE_TOLERANCE
        # The parabola's maximum, off its ends if Q = K H^2 / 2 > |M_b - M_a|.
        bend = self._curvature(b_lo, b_hi) * (STRIDE * dt) * (STRIDE * dt) / 2
        rise = (bend / 4.0 * np.maximum(1.0 - abs(np.diff(coarse)) / bend,
                                        0.0) ** 2 if bend > 0.0 else 0.0)
        reach = np.maximum(coarse[:-1], coarse[1:]) + rise
        fill = (starts == 0) | np.append(reach >= floor,
                                         starts[-1] < t_points - 1)
        fine_indices = (starts[fill, None] + np.arange(1, STRIDE)).ravel()
        count = int(np.searchsorted(fine_indices, t_points))
        base, gbar = self.stacked_components(coarse_t[fill], steps)
        fine = self._maximum((coarse_t[fill, None] + steps).ravel()[:count],
                             base[0, :count], gbar[0, :count], b_lo, b_hi)
        self.n_eval += count
        peaks = np.array(_peak_indices(np.append(starts, fine_indices[:count]),
                                       np.append(coarse, fine)))
        centers = np.where(peaks == t_points - 1, t_hi, peaks * dt + t_lo)
        times, maxima = _newton_refine(
            lambda t: self._time_derivatives(t, b_lo, b_hi), centers,
            np.maximum(t_lo, centers - dt), np.minimum(t_hi, centers + dt))
        best_t = times[maxima >= maxima.max() - TIE_TOLERANCE].min()
        best, fields = self.field_optimum([best_t], b_lo, b_hi)
        return OptimizationResult(
            fidelity=float(best[0]), t_c=float(best_t), b_opt=float(fields[0]),
            n_evaluations=self.n_eval - n_before,
            sector_dim=(sector_dimension([1] * len(self.basis.classes),
                                         self.basis.weights), self.dim))


def _newton_refine(func, centers, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton maximization on every bracket ``[lo[k], hi[k]]``
    from ``centers[k]``, in lockstep: ``func`` maps times to the values and
    first two derivatives there, called once per step for the open brackets.
    The derivative's sign makes each point a bracket end.  A Newton step at
    negative curvature is taken if it lands inside, at most half the last
    step; one past an original end not yet reached goes there; else bisect.
    Brackets close at a step or width of 1e-10 (two ulps of large times).
    Returns each bracket's best point and value."""
    x = np.array(centers, dtype=float)
    a, b, step = lo.copy(), hi.copy(), hi - lo
    tol = np.maximum(1e-10, 2.0 * np.spacing(hi))
    fresh = np.ones((2, len(x)), bool)   # lo, hi: neither end moved yet
    best_t, best_f = x.copy(), np.full(len(x), -math.inf)
    k = np.arange(len(x))
    while len(k):
        t = x[k]
        f, d1, d2 = func(t)
        better = f >= best_f[k]
        best_t[k[better]], best_f[k[better]] = t[better], f[better]
        up = d1 >= 0.0
        a[k[up]], b[k[~up]] = t[up], t[~up]
        fresh[0, k[up]] = fresh[1, k[~up]] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(d2 < 0.0, -d1 / d2, np.where(up, math.inf,
                                                           -math.inf))
        aim = t + newton
        to_end = np.where(up, fresh[1, k] & (aim >= hi[k]),
                          fresh[0, k] & (aim <= lo[k]))
        inside = ((a[k] < aim) & (aim < b[k])
                  & (abs(newton) <= 0.5 * step[k]))
        x[k] = np.where(inside, aim, np.where(
            to_end, np.where(up, hi[k], lo[k]), 0.5 * (a[k] + b[k])))
        step[k] = abs(x[k] - t)
        k = k[(abs(newton) > tol[k]) & (b[k] - a[k] > tol[k])]
    return best_t, best_f


def _peak_indices(indices: np.ndarray, values: np.ndarray) -> list[int]:
    """Grid indices of the ``PEAKS`` best values at the grid ``indices``
    (in any order) more than two points apart, best first, the smaller
    index first among equal values (a flat landscape refines its smallest
    time).  Only the values down to the ``5 PEAKS + 1``-th largest are
    ordered, which is exact: every index the walk visits lies within two
    points of a chosen one, so it has visited at most ``5 PEAKS`` before it
    holds ``PEAKS``.
    """
    top = min(5 * PEAKS + 1, len(values))
    keep = np.nonzero(values >= np.partition(values, -top)[-top])[0]
    chosen = []
    for idx in indices[keep[np.lexsort((indices[keep], -values[keep]))]]:
        if len(chosen) >= PEAKS:
            break
        if all(abs(int(idx) - c) > 2 for c in chosen):
            chosen.append(int(idx))
    return chosen


def optimize(net: SpinNetwork, anisotropy: float, theta: float,
             t_range: tuple[float, float], t_points: int,
             field=(0.0, math.inf)) -> OptimizationResult:
    """:meth:`ProtocolScan.optimize` on the scan of ``net``."""
    scan = ProtocolScan(net, anisotropy, theta)
    return scan.optimize(t_range, t_points, field)


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
