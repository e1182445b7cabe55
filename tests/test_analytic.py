import math

import numpy as np
import pytest

from spinclone import (NoPccReference, b_opt_xy, build_block,
                       heis_star_fidelity, pcc_reference, run_protocol, star,
                       t_c_heis, t_c_xy, xy_star_fidelity)
from reference import xy_star_spectrum

EQUATOR = math.pi / 2


def test_heisenberg_known_values():
    assert abs(heis_star_fidelity(2, EQUATOR) - 5.0 / 6.0) < 1e-15
    assert abs(heis_star_fidelity(5, 0.0) - 1.0) < 1e-15
    assert abs(heis_star_fidelity(3, EQUATOR) - 0.75) < 1e-15
    assert abs(t_c_heis(2) - 2.0 * math.pi / 3.0) < 1e-15


def test_xy_known_values():
    assert abs(xy_star_fidelity(2, EQUATOR) - (2 + math.sqrt(2)) / 4) < 1e-15
    assert abs(xy_star_fidelity(4, 0.0) - 1.0) < 1e-15
    assert abs(xy_star_fidelity(8, EQUATOR) - (0.5 + 0.5 / math.sqrt(8))) < 1e-15
    assert abs(t_c_xy(4) - math.pi / 2.0) < 1e-15
    assert abs(b_opt_xy(4) - 1.0) < 1e-15


@pytest.mark.parametrize("helper", [
    t_c_xy, t_c_heis, b_opt_xy,
    lambda m: xy_star_fidelity(m, EQUATOR),
    lambda m: heis_star_fidelity(m, EQUATOR)],
    ids=["t_c_xy", "t_c_heis", "b_opt_xy", "xy_star_fidelity",
         "heis_star_fidelity"])
@pytest.mark.parametrize("m", [0, -1])
def test_helpers_need_a_clone(helper, m):
    with pytest.raises(ValueError, match="need at least one clone"):
        helper(m)


@pytest.mark.parametrize("m", range(1, 65))
def test_equatorial_simplifications_agree(m):
    # Transcription tripwire: the full formulas must match the independently
    # simplified equatorial forms 1/2 + 1/(M+1) and 1/2 + 1/(2 sqrt(M)) to
    # near round-off.
    assert abs(heis_star_fidelity(m, EQUATOR)
               - (0.5 + 1.0 / (m + 1.0))) <= 1e-12
    assert abs(xy_star_fidelity(m, EQUATOR)
               - (0.5 + 0.5 / math.sqrt(m))) <= 1e-12


@pytest.mark.parametrize("m", range(1, 65))
def test_scaling_laws(m):
    assert abs(xy_star_fidelity(m, EQUATOR) - 0.5
               - 0.5 / math.sqrt(m)) <= 1e-10
    assert abs(heis_star_fidelity(m, EQUATOR) - 0.5
               - 1.0 / (m + 1.0)) <= 1e-10


@pytest.mark.parametrize("m", range(2, 20))
def test_xy_dominates_heisenberg_at_equator(m):
    assert xy_star_fidelity(m, EQUATOR) > heis_star_fidelity(m, EQUATOR)


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 3, EQUATOR,
                                   2 * math.pi / 3, math.pi])
def test_closed_forms_match_protocol(m, theta):
    xy = run_protocol(star(m), 0.0, b_opt_xy(m), theta, 0.0, t_c_xy(m))
    assert abs(xy.mean_fidelity - xy_star_fidelity(m, theta)) <= 1e-8
    heis = run_protocol(star(m), 1.0, 0.0, theta, 0.0, t_c_heis(m))
    assert abs(heis.mean_fidelity - heis_star_fidelity(m, theta)) <= 1e-8


def test_fidelity_bounds():
    # Both formulas stay physical on [0, pi] and hit 1 at the pole; at
    # theta = pi they drop to 1/M and 4/(M+1)^2 respectively.
    for m in (1, 2, 5, 16):
        for theta in np.linspace(0.0, math.pi, 25):
            for f in (xy_star_fidelity(m, theta), heis_star_fidelity(m, theta)):
                assert -1e-12 <= f <= 1.0 + 1e-12
        assert abs(xy_star_fidelity(m, 0.0) - 1.0) < 1e-12
        assert abs(heis_star_fidelity(m, 0.0) - 1.0) < 1e-12
        assert abs(xy_star_fidelity(m, math.pi) - 1.0 / m) < 1e-12
        assert abs(heis_star_fidelity(m, math.pi) - 4.0 / (m + 1) ** 2) < 1e-12


def test_xy_spectrum_small_cases():
    lines = xy_star_spectrum(1, 0.0)
    np.testing.assert_allclose(sorted(e.energy for e in lines),
                               [-0.5, 0.0, 0.0, 0.5], atol=1e-15)
    m2 = {round(e.energy, 12) for e in xy_star_spectrum(2, 0.0)}
    assert round(math.sqrt(2) / 2, 12) in m2
    assert round(-math.sqrt(2) / 2, 12) in m2


def test_xy_spectrum_extremal_field_scaling():
    field = 0.83
    for m in (1, 2, 5):
        energies = sorted(e.energy for e in xy_star_spectrum(m, field))
        j = m / 2.0
        assert any(abs(e - field * (j + 0.5)) < 1e-12 for e in energies)
        assert any(abs(e + field * (j + 0.5)) < 1e-12 for e in energies)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_xy_spectrum_contained_in_numeric(m):
    # Every analytic eigenvalue appears in the exact spectrum of the full
    # star, up to degeneracy (multiset containment).
    field = 0.41
    net = star(m).with_params(field=field)
    numeric = np.linalg.eigvalsh(
        build_block(net, tuple(range(m + 2))).matrix).tolist()
    for line in xy_star_spectrum(m, field):
        hits = [k for k, e in enumerate(numeric) if abs(e - line.energy) < 1e-10]
        assert hits, f"{line.energy} missing from numeric spectrum"
        numeric.pop(hits[0])


def test_pcc_reference_values():
    assert abs(pcc_reference(2, 3) - 0.941) < 1e-12
    assert abs(pcc_reference(4, 5) - 0.987) < 1e-12
    assert abs(pcc_reference(1, 2) - (2 + math.sqrt(2)) / 4) < 1e-15
    assert abs(pcc_reference(2, 5) - 0.912) < 1e-12


def test_pcc_reference_never_extrapolates():
    with pytest.raises(NoPccReference):
        pcc_reference(1, 3)
    with pytest.raises(NoPccReference):
        pcc_reference(5, 6)


def test_optimal_time_is_global_on_window():
    # The quoted optimal times are global maxima of the exact protocol on
    # Jt in [0, 20], not merely the first local peak.
    from spinclone.search import ProtocolScan
    for m in (2, 3):
        times = np.linspace(0.0, 20.0, 4001)
        scan = ProtocolScan(star(m), 0.0, EQUATOR)
        sweep = scan.field_maximum(times, 0.0, math.inf)
        assert sweep.max() <= xy_star_fidelity(m, EQUATOR) + 1e-9
        heis = ProtocolScan(star(m), 1.0, EQUATOR)
        values = heis.field_maximum(times, 0.0, 0.0)
        assert values.max() <= heis_star_fidelity(m, EQUATOR) + 1e-9
