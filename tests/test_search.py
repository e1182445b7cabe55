import argparse
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinclone import (ProtocolScan, b_opt_xy, bipartite, build_block,
                       disorder_study, from_edge_list, heis_star_fidelity,
                       jitter, optimize, prepare_input, run_protocol, star,
                       t_c_xy, tree, xy_star_fidelity)
from spinclone import cli, search
from spinclone.dynamics import OutputReadout, count_input
from spinclone.hamiltonian import (assemble_blocks, count_basis,
                                   sector_basis, sector_dimension)
from spinclone.search import disorder_fidelities
from spinclone.topology import coupling_factors, twin_classes
from reference import (configuration_words, dense_optimize, golden_max,
                       orbit_isometry, synthesized_components)
from strategies import small_networks, twinned_networks

EQUATOR = math.pi / 2

# The star scans: Jt in [0, 10], the field in [0, 2] for the XY model and
# pinned at B = 0 for the Heisenberg model.
STAR_SCAN = {"t_range": (0.0, 10.0), "field": (0.0, 2.0)}
FIXED_B0 = {"t_range": (0.0, 10.0), "field": (0.0, 0.0)}


@pytest.mark.parametrize("t_range,field,message", [
    ((1.0, 1.0), (0.0, 1.0), "time range"),
    ((2.0, 1.0), (0.0, 1.0), "time range"),
    ((-1.0, 1.0), (0.0, 1.0), "time range"),
    ((0.0, math.inf), (0.0, 1.0), "time range"),
    ((0.0, 1.0), (1.0, 0.5), "field interval"),
    ((0.0, 1.0), (-math.inf, 1.0), "field interval"),
    ((0.0, 1.0), (math.nan, 1.0), "field interval"),
], ids=["degenerate_time", "descending_time", "negative_time",
        "unbounded_time", "descending_field", "unbounded_below", "nan_field"])
def test_optimize_rejects_bad_grid(t_range, field, message):
    # Each rejection names what it rejects, so that no numpy error raised
    # further in passes for it.
    with pytest.raises(ValueError, match=message):
        optimize(star(2), 0.0, EQUATOR, t_range, field=field)


def test_scan_matches_run_protocol():
    net = bipartite(2, 3)
    scan = ProtocolScan(net, 0.7, 1.1)
    for t, b in [(0.0, 0.0), (1.7, 0.45), (13.2, 0.08)]:
        direct = run_protocol(net, 0.7, b, 1.1, 0.4, t).mean_fidelity
        assert abs(scan.mean_fidelity(t, b) - direct) <= 1e-12


@pytest.mark.parametrize("networks", [
    small_networks(), twinned_networks().map(lambda drawn: drawn[0])],
    ids=["small", "twinned"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
       t=st.floats(0.0, 20.0), b=st.floats(-2.0, 2.0))
def test_scan_is_phase_covariant(networks, data, anisotropy, theta, phi, t,
                                 b):
    # The scan takes no azimuth and loads the input at 0; the oracle loads it
    # at phi, and the clone fidelity does not depend on it.
    net = data.draw(networks)
    direct = run_protocol(net, anisotropy, b, theta, phi, t).mean_fidelity
    scan = ProtocolScan(net, anisotropy, theta)
    assert abs(scan.mean_fidelity(t, b) - direct) <= 1e-12


NO_OUTPUTS = from_edge_list(2, [(0, 1, 1.0)], [0], [])


@pytest.mark.parametrize("call", [
    lambda: optimize(NO_OUTPUTS, 0.0, EQUATOR, (0.0, 5.0)),
    lambda: ProtocolScan(NO_OUTPUTS, 1.0, 0.2).mean_fidelity(1.0, 0.2),
    lambda: disorder_study(NO_OUTPUTS, 0.1, 5, 1.0, 0.2, 1.0, 0.2, seed=0),
], ids=["optimize", "scan", "disorder"])
def test_network_without_outputs_is_rejected(call):
    # The scans refuse it with the oracle's message, instead of scoring no
    # clones.
    with pytest.raises(ValueError, match="^network has no output sites$"):
        call()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn=twinned_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
       t=st.floats(0.0, 20.0), b=st.floats(-2.0, 2.0))
def test_orbit_scan_on_planted_twins(drawn, anisotropy, theta, phi, t, b):
    net, planted = drawn
    classes = twin_classes(net)
    assert all(len(set(classes[members])) == 1 for members in planted)
    scan = ProtocolScan(net, anisotropy, theta)
    direct = run_protocol(net, anisotropy, b, theta, phi, t).mean_fidelity
    assert abs(scan.mean_fidelity(t, b) - direct) <= 1e-12

    configured = net.with_params(anisotropy=anisotropy, field=b)
    config_basis, psi = prepare_input(configured, theta, phi)
    orbits = orbit_isometry(config_basis, classes)
    assert scan.dim == orbits.shape[1] <= len(config_basis)
    lifted = orbits @ (orbits.T @ psi)
    assert np.max(np.abs(lifted - psi)) <= 1e-12
    h = build_block(configured, config_basis.weights).matrix
    leak = h @ orbits - orbits @ (orbits.T @ h @ orbits)
    assert np.max(np.abs(leak)) <= 1e-12

    # The count basis spans the orbit sums S: its block, input and readout
    # are S^T H S, S^T psi, S^T D S and S^T G S, with the configuration
    # readout D (diagonal) and G (output coherence pairs) built here bit by
    # bit.
    basis = count_basis(tuple(classes.tolist()), config_basis.weights)
    assert (len(basis), basis) == (scan.dim, scan.basis)
    block = assemble_blocks(configured, basis,
                            configured.coupling_array()[None])[0]
    assert np.max(np.abs(block - orbits.T @ h @ orbits)) <= 1e-12
    amplitudes = count_input(configured, basis, theta, phi)
    assert np.max(np.abs(amplitudes - orbits.T @ psi)) <= 1e-12

    words = configuration_words(config_basis).tolist()
    where = {w: k for k, w in enumerate(words)}
    n_out = len(net.output_sites)
    c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    diagonal = np.zeros(len(words))
    pairs = np.zeros((len(words), len(words)))
    for k, w in enumerate(words):
        for o in net.output_sites:
            diagonal[k] += (s2 if w >> o & 1 else c2) / n_out
            if not w >> o & 1 and w | 1 << o in where:
                pairs[k, where[w | 1 << o]] += 1.0 / n_out
    readout = OutputReadout(net, basis, theta)
    projected = orbits.T @ (diagonal[:, None] * orbits)
    assert np.max(np.abs(projected - np.diag(readout.diagonal))) <= 1e-12
    counted = np.zeros((len(basis), len(basis)))
    np.add.at(counted, (readout.lower, readout.upper), readout.weight)
    assert np.max(np.abs(counted - orbits.T @ pairs @ orbits)) <= 1e-12

    jittered = ProtocolScan(jitter(net, 0.1, seed=3), anisotropy, theta)
    assert jittered.dim == len(config_basis)


@pytest.mark.parametrize("net,full,reduced", [
    (bipartite(4, 5), 256, 15),
    (bipartite(3, 4), 64, 10),
    *[(bipartite(2, m), 1 + (m + 2) + (m + 2) * (m + 1) // 2, 6)
      for m in range(3, 8)],
    *[(star(m), m + 2, 3) for m in (2, 5, 7)],
    (tree(2, 2), 16, 12),
    (tree(3, 2), 41, 23),
    (jitter(star(4), 0.1, seed=0), 6, 6),
    # More configurations than MAX_DIM; the scan builds none of them.
    (bipartite(4, 57), 559737, 15),
    (star(61), 63, 3),
    (star(1000), 1002, 3),
    (tree(3, 3), 122, 68),
    (bipartite(4, 500), sum(math.comb(504, w) for w in range(5)), 15),
], ids=["bipartite_4_5", "bipartite_3_4",
        *[f"bipartite_2_{m}" for m in range(3, 8)],
        *[f"star_{m}" for m in (2, 5, 7)],
        "tree_2_2", "tree_3_2", "jittered_star_4", "bipartite_4_57",
        "star_61", "star_1000", "tree_3_3", "bipartite_4_500"])
def test_reduced_sector_dims(net, full, reduced):
    scan = ProtocolScan(net, 0.0, EQUATOR)
    configurations = sector_dimension([1] * net.n_sites, scan.basis.weights)
    assert (configurations, scan.dim) == (full, reduced)


@pytest.mark.parametrize("net", [tree(2, 4), tree(2, 5), bipartite(2, 63)],
                         ids=["tree_2_4", "tree_2_5", "bipartite_2_63"])
def test_large_scan_matches_configurations(net):
    # Past 62 sites (64 configuration bits for the two-input coupler) the
    # twin-class scan agrees with the configuration-basis protocol.
    scan = ProtocolScan(net, 0.3, 1.1)
    direct = run_protocol(net, 0.3, 0.4, 1.1, 0.3, 1.3).mean_fidelity
    assert abs(scan.mean_fidelity(1.3, 0.4) - direct) <= 1e-10


@pytest.mark.parametrize("net", [tree(3, 3), tree(2, 5), bipartite(4, 500)],
                         ids=["tree_3_3", "tree_2_5", "bipartite_4_500"])
def test_optimize_large_networks(net):
    result = optimize(net, 0.0, EQUATOR, (0.0, 50.0))
    assert 0.5 < result.fidelity < 1.0
    assert result.sector_dim[1] == ProtocolScan(net, 0.0, EQUATOR).dim


FAR_TIMES = [1141653370721529.5, 1.2121226987735194e+100,
             1.5429799831716356e+300]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi),
       times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4),
       far=st.lists(st.floats(1e15, 1e300), max_size=4),
       b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["degenerate", "finite", "unbounded"]),
       width=st.floats(0.0, 3.0))
@example(net=star(2), anisotropy=0.0, theta=EQUATOR, times=[1.0],
         far=FAR_TIMES, b_lo=0.5, kind="degenerate", width=0.0)
@example(net=star(2), anisotropy=0.0, theta=EQUATOR, times=[1.0],
         far=FAR_TIMES, b_lo=0.5, kind="unbounded", width=0.0)
def test_field_maximum_over_interval(net, anisotropy, theta, times, far,
                                     b_lo, kind, width):
    # The closed-form maximum dominates every sampled field of the interval
    # and is attained at the reported field, which lies in the interval; the
    # scan passes' values-only path agrees exactly, with and without t = 0
    # and on an empty batch.  At times up to 1e300, where the phases keep no
    # digit, the field still lies in the interval: at FAR_TIMES the aligned
    # field of star(2) rounded one ulp below 0.5, and was kept.
    b_hi = {"degenerate": b_lo, "finite": b_lo + width,
            "unbounded": math.inf}[kind]
    scan = ProtocolScan(net, anisotropy, theta)
    times = np.array([0.0] + times)
    best, fields = scan.field_optimum(times, b_lo, b_hi)
    for batch in (times, times[1:], times[:0]):
        assert np.array_equal(
            scan._maximum(batch, *scan.components(batch), b_lo, b_hi),
            scan.field_optimum(batch, b_lo, b_hi)[0])
    sampled = np.linspace(b_lo, b_lo + 10.0 if kind == "unbounded" else b_hi,
                          101)
    for t, value, b in zip(times, best, fields):
        assert b_lo <= b <= b_hi
        assert abs(scan.mean_fidelity(t, b) - value) <= 1e-12
        assert max(scan.mean_fidelity(t, s) for s in sampled) <= value + 1e-12
    far_fields = scan.field_optimum(np.array(far), b_lo, b_hi)[1]
    assert ((b_lo <= far_fields) & (far_fields <= b_hi)).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi),
       centers=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=9),
       spacing=st.floats(1e-3, 0.5), b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
@example(net=from_edge_list(3, [(0, 1, 1.0), (0, 2, 0.25)], [1], [2]),
         anisotropy=0.0, theta=1.0, centers=[2.8094464825428526e-20],
         spacing=0.5, b_lo=0.0, kind="unbounded", width=0.0)
def test_newton_refinement_matches_scalar_oracle(net, anisotropy, theta,
                                                 centers, spacing, b_lo,
                                                 kind, width):
    # Every bracket of the lockstep search returns a time inside it, the
    # field maximum there and no less than at its center, to the rounding
    # of a differently shaped product; where F, sampled at 1001 points, is
    # unimodal on the bracket, it reaches the value of the oracle's scalar
    # golden-section search, one single-time call per point, and at least
    # the best sample.  The first bracket is clipped at t = 0.  The oracle
    # stops up to 1e-10 short of a maximum at an end, which Newton reaches,
    # so it bounds the value from below only.  Near t = 0, where gbar
    # vanishes, its computed phase is rounding noise: at t = 2.8e-20 it gave
    # F' < 0 and F'' < 0 on a rising F, and the bracket closed on 0.
    b_hi = {"fixed": b_lo, "bounded": b_lo + width,
            "unbounded": math.inf}[kind]
    scan = ProtocolScan(net, anisotropy, theta)
    centers = np.array([0.0] + centers)
    lo, hi = np.maximum(0.0, centers - spacing), centers + spacing
    times, maxima = search._newton_refine(
        lambda t: scan._time_derivatives(t, b_lo, b_hi), centers, lo, hi)

    def value(x):
        return scan.field_optimum([x], b_lo, b_hi)[0][0]

    for k in range(len(centers)):
        assert lo[k] <= times[k] <= hi[k]
        assert abs(maxima[k] - value(times[k])) <= 1e-15
        assert maxima[k] >= value(centers[k]) - 1e-15
        samples = scan.field_optimum(np.linspace(lo[k], hi[k], 1001),
                                     b_lo, b_hi)[0]
        steps = np.diff(samples)
        falls = np.nonzero(steps < 0.0)[0]
        if len(falls) and (steps[falls[0]:] > 0.0).any():
            continue
        _, oracle = golden_max(value, lo[k], hi[k])
        assert maxima[k] >= max(oracle - 1e-12, samples.max() - 1e-15)


def _difference_error(func, t, h):
    """Five-point central differences of ``func`` (arrays of times to
    arrays) at ``t``: the first and second derivatives and a bound on each
    one's error, ``|D(h) - D(2h)|`` (about 15 times the h^4 truncation
    error of ``D(h)``) plus the rounding of the stencil."""
    def stencil(step):
        f = [func(np.array([t + j * step]))[..., 0] for j in (-2, -1, 0, 1, 2)]
        first = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * step)
        second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (
            12 * step ** 2)
        return first, second, max(np.max(np.abs(x)) for x in f)

    first, second, size = stencil(h)
    first2, second2, _ = stencil(2 * h)
    rounding = 1e-13 * (1.0 + size)
    return ((first, np.abs(first - first2) + rounding / h),
            (second, np.abs(second - second2) + rounding / h ** 2))


@pytest.mark.parametrize("networks", [
    small_networks(), twinned_networks().map(lambda drawn: drawn[0])],
    ids=["small", "twinned"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.1, math.pi - 0.1), t=st.floats(0.05, 20.0),
       b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
def test_time_derivatives_match_differences(networks, data, anisotropy,
                                            theta, t, b_lo, kind, width):
    # The derivative columns and the field maximum's F' and F'' agree with
    # central differences of amplitude synthesis: held at the reported
    # field B, F = base + 2cs Re(gbar e^{-iBt}), and aligned, base + 2cs
    # |gbar|.
    net = data.draw(networks)
    b_hi = {"fixed": b_lo, "bounded": b_lo + width,
            "unbounded": math.inf}[kind]
    scan = ProtocolScan(net, anisotropy, theta)
    configured = net.with_params(anisotropy=anisotropy, field=0.0)

    def synthesized(times):
        base, gbar = synthesized_components(
            configured, scan.basis, configured.coupling_array()[None], theta,
            0.0, times)
        return base[0], gbar[0]

    base, gbar = (part[0].reshape(-1, 3)[0]
                  for part in scan.stacked_components([t], order=2))
    for k, want in enumerate(_difference_error(
            lambda x: np.stack(synthesized(x)), t, 1e-3)):
        got = np.array([base[k + 1], gbar[k + 1]])
        assert np.all(np.abs(got - want[0]) <= want[1])

    value, d1, d2 = scan._time_derivatives(np.array([t]), b_lo, b_hi)
    _, field = scan.field_optimum([t], b_lo, b_hi)
    cs2 = 2.0 * scan._readout.cs
    aligned = abs(value[0] - (base[0] + cs2 * abs(gbar[0]))) <= 1e-13
    assume(not aligned or abs(gbar[0]) > 1e-3)

    def fidelity(times):
        base, gbar = synthesized(times)
        if aligned:
            return base + cs2 * np.abs(gbar)
        return base + cs2 * np.real(gbar * np.exp(-1j * field[0] * times))

    for got, want in zip((d1[0], d2[0]),
                         _difference_error(fidelity, t, 1e-3)):
        assert abs(got - want[0]) <= want[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.1, math.pi - 0.1), b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
def test_time_derivatives_at_zero(net, anisotropy, theta, b_lo, kind, width):
    # The field maximum is even in t, so F'(0) = 0; below an interval's
    # finite top its F''(0) is the right limit, that of the end that wins as
    # t -> 0+.  Unbounded, base + 2cs |gbar| rises like |t| from gbar(0) = 0:
    # a kink, with no second derivative.
    b_hi = {"fixed": b_lo, "bounded": b_lo + width,
            "unbounded": math.inf}[kind]
    scan = ProtocolScan(net, anisotropy, theta)
    value, d1, d2 = scan._time_derivatives(np.array([0.0]), b_lo, b_hi)
    assert abs(value[0] - scan.field_optimum([0.0], b_lo, b_hi)[0][0]) <= 1e-15
    assert d1[0] == 0.0
    if kind == "unbounded":
        assert math.isnan(d2[0])
        return
    _, (second, error) = _difference_error(
        lambda x: scan.field_optimum(np.abs(x), b_lo, b_hi)[0], 0.0, 1e-3)
    assert abs(d2[0] - second) <= error


@pytest.mark.parametrize("net,field", [
    (bipartite(4, 5), (1.0 / 100.0, math.inf)),
    (bipartite(2, 3), (0.0, 0.5)),
    (tree(3, 2), (0.0, math.inf)),
], ids=["bipartite_4_5", "bipartite_2_3_bounded", "tree_3_2"])
@pytest.mark.parametrize("n", [3, 7, 1000, 5001, 8191])
def test_grid_phases_match_direct_times(net, field, n):
    # A grid of ceil(sqrt(n)) columns, as optimize's coarse pass takes, whose
    # width divides none of these n: its first n times are the direct ones.
    # Both sides round the phase argument to about |E t| 2^-53, t <= 3000.
    scan = ProtocolScan(net, 0.0, EQUATOR)
    step, width = 3000.0 / (n - 1), math.isqrt(n - 1) + 1
    grid = scan._grid_maximum(np.arange(0, n, width) * step,
                              np.arange(width) * step, n, *field)
    direct = scan.field_optimum(np.arange(n) * step, *field)[0]
    assert np.max(np.abs(grid - direct)) <= 1e-11
    assert scan.n_eval == 2 * n


def table1_coarse_grid():
    """Rows, columns and time count of a grid over table1's time range, every
    STRIDE-th of 150001 times over [0, 3000] (9376 times, as optimize's
    first round takes about as many on table1's largest network)."""
    starts = np.arange(0, 150001, search.STRIDE)
    width = math.isqrt(len(starts) - 1) + 1
    step = 3000.0 / 150000
    return starts[::width] * step, starts[:width] * step, len(starts)


def _grid_batch(drawn):
    n_rows, n_cols, step = drawn
    return np.arange(n_rows) * (n_cols * step), np.arange(n_cols) * step


# A batch of stacked_components: arbitrary times, or a factorized grid of
# row offsets and column steps.
BATCHES = st.one_of(
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30).map(
        lambda t: (np.array(t), (0.0,))),
    st.tuples(st.integers(1, 30), st.integers(2, 12),
              st.floats(1e-3, 1.0)).map(_grid_batch))


def _assert_matches_synthesis(spectra, net, couplings, theta, phi, batches):
    # Every batch agrees with amplitude synthesis on the same basis, which
    # diagonalizes its own blocks.
    for rows, cols in batches:
        got = spectra.stacked_components(rows, cols)
        want = synthesized_components(net, spectra.basis, couplings, theta,
                                      phi, rows, cols)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
       epsilon=st.floats(0.0, 0.5),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3),
       batches=st.lists(BATCHES, min_size=1, max_size=4))
def test_frequency_form_matches_synthesis(net, anisotropy, theta, phi,
                                          epsilon, seeds, batches):
    # Stacked jittered realizations on configurations, and the one-row scan
    # on twin-class counts.
    configured = net.with_params(anisotropy=anisotropy, field=0.0)
    basis = sector_basis(net.n_sites, tuple(range(len(net.input_sites) + 1)))
    couplings = configured.coupling_array() * np.array(
        [coupling_factors(epsilon, s, len(net.edges)) for s in seeds])
    stacked = search._Spectra(configured, basis, couplings, theta)
    _assert_matches_synthesis(stacked, configured, couplings, theta, phi,
                              batches)
    scan = ProtocolScan(net, anisotropy, theta)
    _assert_matches_synthesis(scan, configured,
                              configured.coupling_array()[None], theta, phi,
                              batches)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drawn=twinned_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
       batches=st.lists(BATCHES, min_size=1, max_size=4))
def test_frequency_form_matches_synthesis_on_twins(drawn, anisotropy, theta,
                                                   phi, batches):
    # Count states of planted twin classes, several states per weight.
    net, _ = drawn
    configured = net.with_params(anisotropy=anisotropy, field=0.0)
    scan = ProtocolScan(net, anisotropy, theta)
    _assert_matches_synthesis(scan, configured,
                              configured.coupling_array()[None], theta, phi,
                              batches)


def test_pair_blocks_match_one_block(monkeypatch):
    # A bound of 7 pairs per block splits the coarse grid of table1's largest
    # network into 9 blocks, one of them straddling the base and coherence
    # pairs; tree(3, 3), whose 67-state weight alone has 2211 pairs, still
    # scans to the same optimum.
    scan = ProtocolScan(bipartite(4, 5), 0.0, EQUATOR)
    rows, cols, _ = table1_coarse_grid()
    whole = scan.stacked_components(rows, cols)
    tree_whole = optimize(tree(3, 3), 0.0, EQUATOR, (0.0, 50.0))
    monkeypatch.setattr(search, "PAIR_ENTRIES", 7 * (len(rows) + len(cols)))
    assert len(scan._first) == 60 and 0 < scan._split % 7
    blocked = scan.stacked_components(rows, cols)
    for a, b in zip(blocked, whole):
        assert np.max(np.abs(a - b)) <= 1e-14
    tree_blocked = optimize(tree(3, 3), 0.0, EQUATOR, (0.0, 50.0))
    assert abs(tree_blocked.fidelity - tree_whole.fidelity) <= 1e-12
    assert abs(tree_blocked.t_c - tree_whole.t_c) <= 1e-6


def test_dense_scan_allocates_only_its_results():
    # After the first, the coarse pass of table1's 150001-point
    # bipartite(4, 5) scan, 9376 times, allocates its pair factors, its
    # (base, gbar) and the field maximum's temporaries, at most 64 bytes a
    # time, instead of about 6 MB of phases, amplitudes and coherence
    # factors.
    scan = ProtocolScan(bipartite(4, 5), 0.0, EQUATOR)
    rows, cols, count = table1_coarse_grid()
    scan._grid_maximum(rows, cols, count, 0.01, math.inf)
    tracemalloc.start()
    try:
        scan._grid_maximum(rows, cols, count, 0.01, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi),
       times=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
                      min_size=1, max_size=8),
       length=st.floats(0.0, 30.0), n=st.integers(1, 40),
       b_lo=st.floats(-2.0, 2.0))
@example(net=star(2), anisotropy=0.0, theta=1.1,
         times=[0.0, 5e-324, 1e-310, 3e-308, 4e-308, 1e-300, 1.0],
         length=10.0, n=7, b_lo=0.5)
def test_unbounded_field_maximum_is_the_field_choice(net, anisotropy, theta,
                                                     times, length, n, b_lo):
    # Without an upper bound, base + 2cs |gbar| stands wherever the aligned
    # field exists; t = 0 and the smallest times, whose period 2 pi / t
    # overflows, compare endpoints.  Either way, in batches mixing them, on
    # a grid of n columns or not, the values are the field choice's to the
    # bit.
    scan = ProtocolScan(net, anisotropy, theta)
    step = length / n
    for rows, cols in ((np.array(times), np.zeros(1)),
                       (np.zeros(1), np.arange(n) * step),
                       (times[-1] + np.arange(2) * length,
                        np.arange(n) * step)):
        base, gbar = (part[0] for part in scan.stacked_components(rows, cols))
        t = (rows[:, None] + cols).ravel()
        assert np.array_equal(
            scan._grid_maximum(rows, cols, len(t), b_lo, math.inf),
            scan._choose_field(t, base, gbar, b_lo, math.inf)[0])


@pytest.mark.parametrize("method", ["field_optimum"])
@pytest.mark.parametrize("b_lo,b_hi", [
    (1.0, 0.0), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)],
    ids=["empty", "unbounded_below", "nan_lower", "nan_upper"])
def test_field_methods_reject_malformed_interval(method, b_lo, b_hi):
    # The same interval check as optimize's, instead of a field of 1.0,
    # -inf or nan.
    scan = ProtocolScan(bipartite(2, 3), 0.0, EQUATOR)
    with pytest.raises(ValueError,
                       match="^field interval needs finite b_lo <= b_hi$"):
        getattr(scan, method)([1.0, 2.0], b_lo, b_hi)


@pytest.mark.parametrize("method,args", [
    ("components", ()), ("field_optimum", (0.0, 1.0))],
    ids=["components", "field_optimum"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus_inf"])
def test_scan_rejects_non_finite_time(method, args, bad):
    # Named, as in mean_fidelity, instead of a nan fidelity and a
    # RuntimeWarning.
    scan = ProtocolScan(bipartite(2, 3), 0.0, EQUATOR)
    with pytest.raises(ValueError, match="^t must be finite"):
        getattr(scan, method)([1.0, bad], *args)


def test_field_maximum_at_time_zero_ignores_the_field():
    # At t = 0 every field gives the input's fidelity; b_lo is reported.
    scan = ProtocolScan(bipartite(2, 3), 0.4, 1.1)
    for b_lo, b_hi in [(0.0, math.inf), (0.5, 0.5), (-1.0, 2.0)]:
        best, fields = scan.field_optimum([0.0], b_lo, b_hi)
        assert fields[0] == b_lo
        assert abs(best[0] - scan.mean_fidelity(0.0, 0.0)) <= 1e-15


def test_scan_optimize_counts_its_own_evaluations():
    # The optimizer is the scan's method, and optimize builds the scan: on
    # a scan that has evaluated before, the result is the same, n_eval too.
    scan = ProtocolScan(star(2), 0.0, EQUATOR)
    first = scan.optimize(**STAR_SCAN)
    scan.mean_fidelity(1.0, 0.5)
    assert scan.optimize(**STAR_SCAN) == first == optimize(
        star(2), 0.0, EQUATOR, **STAR_SCAN)


def test_optimize_xy_star_two_clones():
    result = optimize(star(2), 0.0, EQUATOR, **STAR_SCAN)
    assert abs(result.fidelity - (2 + math.sqrt(2)) / 4) <= 1e-6
    assert abs(result.t_c - math.pi / math.sqrt(2)) <= 1e-3
    assert abs(result.b_opt - 1 / math.sqrt(2)) <= 1e-3


def test_optimize_lands_on_exact_star_optimum():
    # Newton steps on the closed-form derivatives reach t_c = pi/sqrt(2)
    # and B = 1/sqrt(2) to rounding, where comparing values at a flat
    # maximum stops about 3e-8 short.
    result = optimize(star(2), 0.0, EQUATOR, (0.0, 10.0))
    assert abs(result.t_c - math.pi / math.sqrt(2)) <= 1e-12
    assert abs(result.b_opt - 1 / math.sqrt(2)) <= 1e-12


@pytest.mark.parametrize("branching,levels,t_c,b_opt", [
    (2, 1, math.pi, 1.0),
    (3, 1, math.pi / math.sqrt(1.5), math.sqrt(1.5))], ids=["2_1", "3_1"])
def test_optimize_lands_on_exact_tree_optimum(branching, levels, t_c, b_opt):
    result = tree_optimum(branching, levels)
    assert abs(result.t_c - t_c) <= 1e-12
    assert abs(result.b_opt - b_opt) <= 1e-12


# Two cases where a tie tolerance of 1e-7 chose the earlier of two refined
# maxima, 2.9e-8 and 9.4e-8 below the best scan value.
SHALLOW_TIES = [
    dict(net=from_edge_list(2, [(0, 1, 0.5)], [0], [1]), anisotropy=0.5,
         theta=0.015625, t_lo=0.0, length=1.0, b_lo=0.0, kind="fixed",
         width=0.0),
    dict(net=from_edge_list(3, [(0, 1, 0.25), (0, 2, 0.25)], [1], [0, 2]),
         anisotropy=0.0, theta=1.0, t_lo=0.0, length=18.0, b_lo=0.0,
         kind="bounded", width=1.0)]


def phase_rounding(scan, t_hi, b_lo, b_hi):
    """optimize's bound on the rounding of its phases up to ``t_hi``."""
    b_max = max(abs(b_lo), abs(b_hi)) if b_hi < math.inf else 0.0
    return np.finfo(float).eps * (1.0 + t_hi * (abs(scan._omega).max()
                                                + b_max))


def assert_certified(net, anisotropy, theta, t_range, field, values):
    """optimize's result lies in the range, is at least every value the
    caller found less TIE_TOLERANCE, and bounds them all by its certified
    gap, up to the phases' rounding."""
    result = optimize(net, anisotropy, theta, t_range, field=field)
    rounding = phase_rounding(ProtocolScan(net, anisotropy, theta),
                              t_range[1], *field)
    assert t_range[0] <= result.t_c <= t_range[1]
    assert 0.0 <= result.certified_gap <= search.TIE_TOLERANCE + rounding
    assert result.fidelity >= max(values) - search.TIE_TOLERANCE - rounding
    assert max(values) <= result.fidelity + result.certified_gap + rounding
    return result


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, math.pi),
                       st.floats(math.pi - 1e-3, math.pi)),
       t_lo=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       length=st.floats(0.5, 30.0), b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
@example(**SHALLOW_TIES[0])
@example(**SHALLOW_TIES[1])
@example(net=from_edge_list(2, [(0, 1, 0.21875)], [0], [1]), anisotropy=0.0,
         theta=6.103515625e-05, t_lo=0.0, length=1.0, b_lo=0.0,
         kind="unbounded", width=0.0)
def test_optimize_beats_its_dense_scan(net, anisotropy, theta, t_lo, length,
                                       b_lo, kind, width):
    # No time of a 4001-time scan of the range beats the certified maximum
    # by more than TIE_TOLERANCE, or its bound at all: for fixed, bounded
    # and unbounded fields, ranges from t = 0 and later, and inputs near the
    # poles, where cs and with it the field's part vanish.  The last
    # example's best value is at t = 1, 9.3e-11 above that at t = 0.5,
    # where the grid optimizer once stopped.
    field = (b_lo, {"fixed": b_lo, "bounded": b_lo + width,
                    "unbounded": math.inf}[kind])
    t_range = (t_lo, t_lo + length)
    scan = ProtocolScan(net, anisotropy, theta)
    assert_certified(net, anisotropy, theta, t_range, field,
                     scan.field_optimum(np.linspace(*t_range, 4001),
                                        *field)[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), t_lo=st.floats(0.0, 10.0),
       length=st.floats(0.5, 3000.0), points=st.integers(2, 3000),
       b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
def test_optimize_matches_its_dense_scan(net, anisotropy, theta, t_lo,
                                         length, points, b_lo, kind, width):
    # The dense scan's Newton-refined peaks, the optimizer before it was
    # certified, never beat the certified maximum by more than
    # TIE_TOLERANCE, or its bound at all.  Long ranges put several
    # oscillations between the dense scan's times, where only a sound
    # curvature bound finds the best peak.
    field = (b_lo, {"fixed": b_lo, "bounded": b_lo + width,
                    "unbounded": math.inf}[kind])
    t_range = (t_lo, t_lo + length)
    dense = dense_optimize(net, anisotropy, theta, t_range, points, field)
    result = assert_certified(net, anisotropy, theta, t_range, field,
                              [dense.fidelity])
    assert result.sector_dim == dense.sector_dim


def test_optimize_matches_its_dense_scan_on_table1():
    # table1's 4->5 row against the 150001-time dense scan that table1 took
    # before its maxima were certified: the same peak to the CSV's 9
    # significant digits, and the same value to the phases' rounding.  The
    # two refine from different brackets, so Newton's last steps land on
    # different floats within 2e-12 of the peak.
    net, field = bipartite(4, 5), (1.0 / 60.0, math.inf)
    dense = dense_optimize(net, 0.0, EQUATOR, (0.0, 3000.0), 150001, field)
    result = assert_certified(net, 0.0, EQUATOR, (0.0, 3000.0), field,
                              [dense.fidelity])
    assert [f"{x:.9g}" for x in (result.t_c, result.fidelity, result.b_opt)
            ] == [f"{x:.9g}" for x in (dense.t_c, dense.fidelity, dense.b_opt)]
    rounding = phase_rounding(ProtocolScan(net, 0.0, EQUATOR), 3000.0, *field)
    assert abs(result.fidelity - dense.fidelity) <= rounding


LONG_RANGE = "^time range too long: phase rounding .* exceeds TIE_TOLERANCE$"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", [(0.5, 0.5), (0.0, 1.0), (0.0, math.inf)],
                         ids=["fixed", "bounded", "unbounded"])
@pytest.mark.parametrize("t_lo", [2, 17, 601])
@pytest.mark.parametrize("t_hi", [1e308, 1.79e308])
def test_optimize_near_the_float_maximum(t_hi, t_lo, field):
    # The phases keep no digit there (they reported t_c = 1.9e307 and
    # F = 0.853 over [0, 1.79e308]).  The rounding guard names the range
    # before any time is evaluated, wherever it starts, and its bound,
    # infinite here, overflows without a warning.
    scan = ProtocolScan(star(2), 0.0, EQUATOR)
    with pytest.raises(ValueError, match=LONG_RANGE):
        scan.optimize((t_lo, t_hi), field=field)
    assert scan.n_eval == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_hi", [6e5, 1e7, 1e12])
def test_optimize_returns_on_long_time_ranges(t_hi):
    # star(2)'s phases round beyond TIE_TOLERANCE past t = 3.2e5 (its
    # largest Bohr frequency is sqrt(2)); a grid and direct times differed
    # by 3.1e-5 over [0, 1e12] and by 0.32 over [0, 1e16].  The guard names
    # the range before any time is evaluated.
    scan = ProtocolScan(star(2), 0.0, EQUATOR)
    with pytest.raises(ValueError, match=LONG_RANGE):
        scan.optimize((0.0, t_hi))
    assert scan.n_eval == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(-2 * math.pi, 2 * math.pi), a=st.floats(0.0, 20.0),
       spacing=st.floats(1e-2, 3.0), b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
def test_field_maximum_stays_under_its_curvature_bound(net, anisotropy, theta,
                                                       a, spacing, b_lo, kind,
                                                       width):
    # M'' >= -K for the field maximum M, so between its values at a and
    # b = a + H it stays below the chord plus K (t - a)(b - t) / 2: the bound
    # that optimize's search closes.  Unbounded, t = 0 compares the field's
    # ends, so the bound holds from t > 0.
    b_hi = {"fixed": b_lo, "bounded": b_lo + width,
            "unbounded": math.inf}[kind]
    assume(a > 0.0 or kind != "unbounded")
    scan = ProtocolScan(net, anisotropy, theta)
    t = np.linspace(a, a + spacing, 1001)
    values = scan.field_optimum(t, b_lo, b_hi)[0]
    chord = values[0] + (values[-1] - values[0]) * (t - a) / spacing
    bend = scan._curvature(b_lo, b_hi) * (t - a) * (t[-1] - t) / 2.0
    assert (values <= chord + bend + 1e-12).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(-2 * math.pi, 2 * math.pi), t_lo=st.floats(0.0, 10.0),
       length=st.floats(0.5, 30.0), b_lo=st.floats(-2.0, 2.0),
       kind=st.sampled_from(["fixed", "bounded", "unbounded"]),
       width=st.floats(0.0, 3.0))
@example(net=star(2), anisotropy=0.0, theta=4.0, t_lo=0.0, length=10.0,
         b_lo=0.0, kind="unbounded", width=0.0)
def test_scans_fold_theta_into_zero_to_pi(net, anisotropy, theta, t_lo,
                                          length, b_lo, kind, width):
    # F is even and 2 pi periodic in theta, so the scan folds theta into
    # [0, pi], where cs >= 0 and base + 2cs |gbar| is the field maximum, not
    # the minimum.  optimize's F is the oracle's at its (t_c, b_opt), and no
    # field of the interval (one period of an unbounded one) beats the field
    # maximum there or at a time inside the range.  star(2) at theta = 4
    # found F = 0.2409 at B = 2.121 against 0.6459 at B = 1/sqrt(2).
    b_hi = {"fixed": b_lo, "bounded": b_lo + width,
            "unbounded": math.inf}[kind]
    result = optimize(net, anisotropy, theta, (t_lo, t_lo + length),
                      field=(b_lo, b_hi))
    direct = run_protocol(net, anisotropy, result.b_opt, theta, 0.0,
                          result.t_c).mean_fidelity
    assert abs(result.fidelity - direct) <= 1e-12
    scan = ProtocolScan(net, anisotropy, theta)
    for t in (result.t_c, t_lo + length / 3):
        top = b_hi if b_hi < math.inf else b_lo + 2 * math.pi / max(t, 1e-3)
        fields = np.linspace(b_lo, top, 2001)
        base, gbar = scan.components([t])
        values = scan._readout.fidelity(base, gbar, np.exp(-1j * (fields * t)))
        best = scan.field_optimum([t], b_lo, b_hi)[0][0]
        assert values.max() <= best + 1e-12


def table1_rows() -> list:
    return cli.cmd_table1(argparse.Namespace())[0]["table1"][1]


# Upper bounds on n_eval, the grid times evaluated plus the refinement's,
# per table1 row and tree case in their CSV order.  The 150001- and
# 5001-time grids took 11006-12452 and 1213-1295.
TABLE1_EVALUATIONS = [7019, 6668, 6924, 6806, 7305, 7188, 9513]
TREE_EVALUATIONS = [712, 519, 124, 613, 151]


def test_evaluation_counts_stay_pinned():
    rows = table1_rows()
    assert len(rows) == 7
    for row, most in zip(rows, TABLE1_EVALUATIONS):
        assert row[12] <= most
    for (branching, levels), most in zip(cli.TREE_CASES, TREE_EVALUATIONS):
        assert tree_optimum(branching, levels).n_evaluations <= most


def test_refinement_takes_few_evaluations(monkeypatch):
    # Every bracket the search leaves, on every table1 row and tree case,
    # closes in at most 5 Newton evaluations; golden section spent 42 per
    # peak.  So does a peak at t = 0, which bisection closed in 30 rounds
    # before F''(0) was known.
    counts = []
    refine = search._newton_refine

    def counting(func, centers, lo, hi):
        times = []
        result = refine(lambda t: times.append(len(t)) or func(t), centers,
                        lo, hi)
        counts.append((len(centers), sum(times)))
        return result

    monkeypatch.setattr(search, "_newton_refine", counting)
    assert len(table1_rows()) == 7
    for branching, levels in cli.TREE_CASES:
        tree_optimum(branching, levels)
    result = optimize(star(3), 0.0, 1.1, (0.0, 10.0), field=(0.0, 0.0))
    assert result.t_c == 0.0
    assert len(counts) == 13
    assert all(spent <= 5 * brackets for brackets, spent in counts)


def test_table1_builds_one_scan_per_row(monkeypatch):
    # Each row reads its optimum and F_at_ref_point from one scan, and the
    # column is a fresh scan's value at the published point to the bit.
    built = []
    init = ProtocolScan.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProtocolScan, "__init__", counting)
    rows = table1_rows()
    monkeypatch.undo()
    assert len(rows) == len(built) == 7
    for row in rows:
        fresh = ProtocolScan(bipartite(row[0], row[1]), 0.0, EQUATOR)
        assert row[11] == fresh.mean_fidelity(row[9], 1.0 / row[10])


def test_refinement_at_subnormal_time_stays_finite():
    # At t = 2.2e-313 the coherence sum is subnormal and 1/|g| overflowed,
    # a RuntimeWarning; it is now a kink, as at g = 0.
    net = from_edge_list(2, [(0, 1, 1.0)], [0], [1])
    t_range = (2.2250738585e-313, 1.0)
    dense = dense_optimize(net, 0.0, 1.0, t_range, 2, (0.0, 0.0))
    result = assert_certified(net, 0.0, 1.0, t_range, (0.0, 0.0),
                              [dense.fidelity])
    assert math.isfinite(result.fidelity) and 0.0 < result.t_c


def test_optimize_heisenberg_star_two_clones():
    result = optimize(star(2), 1.0, EQUATOR, **FIXED_B0)
    assert abs(result.fidelity - 5.0 / 6.0) <= 1e-6
    assert abs(result.t_c - 2.0 * math.pi / 3.0) <= 1e-3
    assert result.b_opt == 0.0
    assert result.j_over_b == math.inf


@pytest.mark.parametrize("m", range(1, 8))
def test_star_consistency_both_models(m):
    xy = optimize(star(m), 0.0, EQUATOR, **STAR_SCAN)
    assert abs(xy.fidelity - xy_star_fidelity(m, EQUATOR)) <= 1e-5
    heis = optimize(star(m), 1.0, EQUATOR, **FIXED_B0)
    assert abs(heis.fidelity - heis_star_fidelity(m, EQUATOR)) <= 1e-5


def test_reevaluation_consistency():
    result = optimize(star(3), 0.0, EQUATOR, **STAR_SCAN)
    direct = run_protocol(star(3), 0.0, result.b_opt, EQUATOR, 0.0,
                          result.t_c).mean_fidelity
    assert abs(direct - result.fidelity) <= 1e-7


def test_optimize_deterministic():
    a = optimize(star(2), 0.0, EQUATOR, **STAR_SCAN)
    b = optimize(star(2), 0.0, EQUATOR, **STAR_SCAN)
    assert a == b


def test_flat_landscape_returns_smallest_time():
    # theta = 0 keeps every clone exactly blank: F = 1 everywhere.
    result = optimize(star(2), 0.0, 0.0, **STAR_SCAN)
    assert abs(result.fidelity - 1.0) <= 1e-12
    assert result.t_c == 0.0


def test_bounded_and_unbounded_field_agree_on_star():
    # The star optimum B = 1/sqrt(2) lies inside [0, 2], so bounding the
    # field changes nothing; the reported point re-evaluates exactly.
    bounded = optimize(star(2), 0.0, EQUATOR, **STAR_SCAN)
    unbounded = optimize(star(2), 0.0, EQUATOR, t_range=(0.0, 10.0))
    assert abs(unbounded.fidelity - bounded.fidelity) <= 1e-6
    assert abs(unbounded.t_c - bounded.t_c) <= 1e-3
    direct = run_protocol(star(2), 0.0, unbounded.b_opt, EQUATOR, 0.0,
                          unbounded.t_c).mean_fidelity
    assert abs(direct - unbounded.fidelity) <= 1e-10


def test_field_interval_lower_end_lifts_the_field():
    # Raising b_lo moves the reported field up by whole periods 2 pi / t_c
    # without changing the time or the fidelity.
    free = optimize(star(2), 0.0, EQUATOR, (0.0, 10.0))
    lifted = optimize(star(2), 0.0, EQUATOR, (0.0, 10.0),
                      field=(3.0, math.inf))
    assert lifted.t_c == free.t_c and lifted.fidelity == free.fidelity
    periods = (lifted.b_opt - free.b_opt) * free.t_c / (2.0 * math.pi)
    assert lifted.b_opt >= 3.0 and abs(periods - round(periods)) <= 1e-9
    assert round(periods) >= 1


def tree_optimum(branching, levels):
    return optimize(tree(branching, levels), 0.0, EQUATOR, (0.0, 50.0))


def test_tree_values():
    small = tree_optimum(2, 0)
    assert abs(small.fidelity - (2 + math.sqrt(2)) / 4) <= 1e-4
    mid = tree_optimum(2, 1)
    assert abs(mid.fidelity - 0.75) <= 1e-4   # three-site chains transfer perfectly


def test_tree_headline_numbers():
    eight = tree_optimum(2, 2)
    assert abs(eight.fidelity - 0.676) <= 0.005
    twenty_seven = tree_optimum(3, 2)
    assert abs(twenty_seven.fidelity - 0.596) <= 0.005


def test_disorder_zero_epsilon():
    summary = disorder_study(star(2), 0.0, 20, 0.0, EQUATOR,
                             t_c_xy(2), b_opt_xy(2), seed=3)
    assert summary.relative_drop == 0.0
    assert summary.std_fidelity <= 1e-15


def test_disorder_star_two():
    summary = disorder_study(star(2), 0.1, 500, 0.0, EQUATOR,
                             t_c_xy(2), b_opt_xy(2), seed=42)
    assert summary.samples == 500
    assert 0.0 < summary.relative_drop < 0.002
    assert abs(summary.ideal_fidelity - (2 + math.sqrt(2)) / 4) < 1e-12


def test_disorder_star_four_regression():
    # Frozen measurement: the drop stays in the same order as the 1->2 case.
    summary = disorder_study(star(4), 0.1, 500, 0.0, EQUATOR,
                             t_c_xy(4), b_opt_xy(4), seed=42)
    assert summary.relative_drop < 0.005
    assert abs(summary.relative_drop - 0.00081) < 5e-4


def test_disorder_deterministic():
    a = disorder_study(star(2), 0.1, 40, 0.0, EQUATOR, t_c_xy(2),
                       b_opt_xy(2), seed=7)
    b = disorder_study(star(2), 0.1, 40, 0.0, EQUATOR, t_c_xy(2),
                       b_opt_xy(2), seed=7)
    assert a == b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=small_networks(), anisotropy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
       t=st.floats(0.0, 20.0), b=st.floats(-2.0, 2.0),
       epsilon=st.floats(0.0, 0.5),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4))
def test_stacked_disorder_matches_run_protocol(net, anisotropy, theta, phi, t,
                                               b, epsilon, seeds):
    values = disorder_fidelities(net, epsilon, np.array(seeds), anisotropy,
                                 theta, t, b)
    assert values.shape == (len(seeds),)
    for value, s in zip(values, seeds):
        direct = run_protocol(jitter(net, epsilon, s), anisotropy, b, theta,
                              phi, t).mean_fidelity
        assert abs(value - direct) <= 1e-12

    # Each stacked row is bit-identical to the block of its jittered network.
    configured = net.with_params(anisotropy=anisotropy, field=b)
    basis, _ = prepare_input(configured, theta, phi)
    couplings = configured.coupling_array() * np.array(
        [coupling_factors(epsilon, s, len(net.edges)) for s in seeds])
    stacked = assemble_blocks(configured, basis, couplings)
    for row, s in zip(stacked, seeds):
        single = build_block(jitter(configured, epsilon, s), basis.weights)
        assert np.array_equal(row, single.matrix)


def test_stacked_disorder_across_chunks(monkeypatch):
    # star(2) has 4 configurations: a budget of 48 entries makes chunks of
    # 3 realizations, so 7 samples take chunks of 3, 3 and 1.
    seeds = np.arange(7)
    args = (star(2), 0.1, seeds, 0.0, EQUATOR, t_c_xy(2), b_opt_xy(2))
    whole = disorder_fidelities(*args)
    monkeypatch.setattr(search, "PAIR_ENTRIES", 48)
    chunked = disorder_fidelities(*args)
    assert np.max(np.abs(chunked - whole)) <= 1e-15
    for value, s in zip(chunked, seeds):
        direct = run_protocol(jitter(star(2), 0.1, int(s)), 0.0, b_opt_xy(2),
                              EQUATOR, 0.0, t_c_xy(2)).mean_fidelity
        assert abs(value - direct) <= 1e-12


def test_disorder_summary_is_average_of_jittered_runs():
    summary = disorder_study(star(3), 0.2, 9, 0.0, EQUATOR, t_c_xy(3),
                             b_opt_xy(3), seed=11)
    seeds = np.random.SeedSequence(11).generate_state(9)
    direct = np.array([
        run_protocol(jitter(star(3), 0.2, int(s)), 0.0, b_opt_xy(3), EQUATOR,
                     0.0, t_c_xy(3)).mean_fidelity for s in seeds])
    assert abs(summary.mean_fidelity - direct.mean()) <= 1e-12
    assert abs(summary.std_fidelity - direct.std(ddof=1)) <= 1e-12
    assert summary.sector_dim == 5


def test_disorder_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        disorder_study(star(2), 1.0, 5, 0.0, EQUATOR, t_c_xy(2), b_opt_xy(2),
                       seed=0)
