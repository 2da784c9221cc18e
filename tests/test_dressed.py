"""Closed-form peak predictions and spectrum validation helpers."""

import numpy as np
import pytest

from cbsim import dressed, spectra
from cbsim.errors import CoverageError


def test_generalized_rabi_values():
    assert dressed.generalized_rabi(100.0, 0.0) == 100.0
    assert np.isclose(dressed.generalized_rabi(100.0, 20.0), np.sqrt(10400.0),
                      rtol=1e-15)
    assert dressed.generalized_rabi(0.0, 20.0) == 20.0


def test_peak_positions_on_resonance():
    peaks = dressed.peak_positions(100.0, 0.0)
    assert tuple(sorted(peaks.values())) == (-200.0, -100.0, -50.0, 0.0, 50.0, 100.0, 200.0)


def test_peak_positions_detuned():
    peaks = dressed.peak_positions(100.0, 20.0)
    omega_r = np.sqrt(10400.0)
    expected = {
        "mollow_central": 0.0,
        "mollow_plus": omega_r,
        "mollow_minus": -omega_r,
        "autler_townes_plus": (omega_r - 20.0) / 2.0,
        "autler_townes_minus": -(omega_r + 20.0) / 2.0,
        "hyper_raman_plus": 2.0 * omega_r,
        "hyper_raman_minus": -2.0 * omega_r,
    }
    assert tuple(peaks) == dressed.PEAK_LABELS
    for label, value in expected.items():
        assert np.isclose(peaks[label], value, rtol=1e-14)
    # worked values
    assert np.isclose(peaks["autler_townes_plus"], 40.990195135927845)
    assert np.isclose(peaks["autler_townes_minus"], -60.990195135927845)
    assert np.isclose(peaks["mollow_plus"], 101.98039027185569)
    assert np.isclose(peaks["hyper_raman_plus"], 203.96078054371138)


def test_autler_townes_is_half_mollow_on_resonance():
    for rabi in (10.0, 57.0, 100.0):
        peaks = dressed.peak_positions(rabi, 0.0)
        assert np.isclose(peaks["autler_townes_plus"], peaks["mollow_plus"] / 2.0)
        assert np.isclose(peaks["autler_townes_minus"], peaks["mollow_minus"] / 2.0)


def test_peak_set_symmetric_under_detuning_flip():
    for detuning in (0.0, 7.0, 20.0):
        direct = sorted(dressed.peak_positions(80.0, detuning).values())
        mirrored = sorted(-p for p in dressed.peak_positions(80.0, -detuning).values())
        assert np.allclose(direct, mirrored, atol=1e-12)


def test_seven_distinct_positions_with_minimum_gap():
    for rabi, detuning in ((100.0, 0.0), (100.0, 20.0), (44.7, 0.0)):
        peaks = dressed.peak_positions(rabi, detuning)
        pos = np.sort(list(peaks.values()))
        assert len(set(pos)) == 7
        omega_r = dressed.generalized_rabi(rabi, detuning)
        gap_floor = min(omega_r / 2.0 - abs(detuning) / 2.0, omega_r / 2.0)
        assert np.diff(pos).min() >= gap_floor - 1e-9


def dressed_splitting(rabi, detuning):
    """Eigenvalue gap of the driven two-level block [[0, rabi/2], [rabi/2, -detuning]]."""
    vals = np.linalg.eigvalsh([[0.0, 0.5 * rabi], [0.5 * rabi, -detuning]])
    return vals[1] - vals[0]


def test_dressed_splitting_equals_generalized_rabi():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rabi, detuning = rng.uniform(0, 100), rng.uniform(-50, 50)
        assert np.isclose(dressed_splitting(rabi, detuning),
                          dressed.generalized_rabi(rabi, detuning), rtol=1e-12)


def test_dressed_splitting_limits_on_log_grid():
    for rabi in np.geomspace(1e-4, 1e-1, 7):
        assert abs(dressed.generalized_rabi(rabi, 20.0) - 20.0) < 1e-3
    for detuning in np.geomspace(1e-4, 1e-1, 7):
        assert abs(dressed.generalized_rabi(30.0, detuning) - 30.0) < 1e-3


# -- extrema and validation ---------------------------------------------------


def lorentzian_comb(grid, centers, width=1.0):
    out = np.zeros_like(grid)
    for c in centers:
        out += width / (width**2 + (grid - c) ** 2)
    return out


def test_local_extrema_on_planted_signal():
    x = np.linspace(0.0, 4.0 * np.pi, 400)
    y = np.sin(x)
    maxima = dressed.local_maxima(y)
    minima = dressed.local_maxima(-y)
    assert maxima.size == 2 and minima.size == 2
    assert np.union1d(maxima, minima).size == 4


def test_validate_spectrum_planted_lorentzians():
    peaks = dressed.peak_positions(100.0, 0.0)
    grid = np.arange(-260.0, 260.01, 0.05)
    density = lorentzian_comb(grid, peaks.values())
    spectrum = spectra.SpectrumSeries(omega=grid, density=density,
                                      elastic_weight=0.0, kind=spectra.BACKGROUND)
    report = dressed.validate_spectrum(spectrum, peaks, tolerance=0.5)
    assert all(m.passed for m in report)
    assert all(m.offset <= 0.051 for m in report)


def test_validate_spectrum_interference_accepts_negative_peaks():
    peaks = dressed.peak_positions(100.0, 0.0)
    grid = np.arange(-260.0, 260.01, 0.05)
    signs = dict(zip(dressed.PEAK_LABELS, (1, -1, -1, 1, 1, 1, 1)))
    density = np.zeros_like(grid)
    for label in dressed.PEAK_LABELS:
        c = peaks[label]
        density += signs[label] / (1.0 + (grid - c) ** 2)
    spectrum = spectra.SpectrumSeries(omega=grid, density=density,
                                      elastic_weight=0.0, kind=spectra.INTERFERENCE)
    report = dressed.validate_spectrum(spectrum, peaks, tolerance=0.5)
    assert all(m.passed for m in report)


def test_validate_spectrum_coverage_error():
    peaks = dressed.peak_positions(100.0, 0.0)
    grid = np.arange(-120.0, 120.01, 0.1)  # misses the outer doublet
    spectrum = spectra.SpectrumSeries(omega=grid, density=lorentzian_comb(grid, [0.0]),
                                      elastic_weight=0.0, kind=spectra.BACKGROUND)
    with pytest.raises(CoverageError):
        dressed.validate_spectrum(spectrum, peaks, tolerance=0.5)


@pytest.mark.parametrize("kind", [spectra.BACKGROUND, spectra.INTERFERENCE])
def test_validate_spectrum_without_extrema_raises_coverage_error(kind):
    # a monotone density covers the grid but has nothing to match
    peaks = dressed.peak_positions(10.0, 0.0)
    grid = np.arange(-30.0, 30.01, 0.1)
    spectrum = spectra.SpectrumSeries(omega=grid, density=np.exp(grid / 10.0),
                                      elastic_weight=0.0, kind=kind)
    with pytest.raises(CoverageError, match="no local extrema"):
        dressed.validate_spectrum(spectrum, peaks, tolerance=0.5)
