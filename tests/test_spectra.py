"""Quantum-regression correlations and single-atom emission spectra."""

import numpy as np
import pytest

from cbsim import atoms, dressed, liouvillian as lv, solver, spectra

from test_solver import bloch_coherent_fraction, bloch_excited_population


def driven_atom(rabi, detuning=0.0):
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    liou = lv.assemble_single(scheme, lv.PhysicalParams(rabi=rabi, detuning=detuning))
    rho = solver.steady_state(liou)
    low = atoms.lowering_operator(scheme, 0)
    return liou, rho, low, low.conj().T


# -- correlation --------------------------------------------------------------


def test_correlation_off_resonant_tail_is_small():
    liou, rho, low, high = driven_atom(1.0)
    peak = max(abs(spectra.correlation(liou, rho, high, low, w))
               for w in (0.5, 1.0, 1.5))
    far = abs(spectra.correlation(liou, rho, high, low, 1e4))
    assert far < 1e-3 * peak


def test_correlation_real_part_peaks_at_mollow_positions():
    liou, rho, low, high = driven_atom(100.0)
    grid = np.arange(-130.0, 130.5, 0.5)
    values = np.array([
        spectra.correlation(liou, rho, high, low, w, connected=True).real
        for w in grid
    ])
    idx = dressed.local_extrema(values, kind="max", min_relative_height=1e-4)
    assert sorted(np.round(grid[idx])) == [-100.0, 0.0, 100.0]


def test_correlation_time_reversal_conjugation():
    """<R(0) L(tau)> equals the conjugate of <R(tau) L(0)> in steady state."""
    liou, rho, low, high = driven_atom(2.0, 0.6)
    for tau in (0.3, 1.1, 2.7):
        forward = np.trace(low @ solver.evolve(liou, rho @ high, tau))
        backward = np.trace(high @ solver.evolve(liou, low @ rho, tau))
        assert np.isclose(forward, backward.conjugate(), atol=1e-12)


def test_correlation_at_zero_tau_reduces_to_one_time_average():
    liou, rho, low, high = driven_atom(3.0, -1.0)
    # integral of the real spectral density recovers C(0) = <R L> - <R><L>
    grid = spectra.default_omega_grid(3.0, -1.0, span=150.0)
    density = np.array([
        spectra.correlation(liou, rho, high, low, w, connected=True).real / np.pi
        for w in grid
    ])
    c0 = np.trace(rho @ high @ low) - np.trace(rho @ high) * np.trace(rho @ low)
    assert np.isclose(np.trapezoid(density, grid), c0.real, rtol=1e-2)


def test_spectral_response_matches_connected_correlation():
    # the batched kernel against independent rcond-checked single solves
    scheme = atoms.build_scheme(atoms.V_TYPE)
    rabi, detuning = 10.0, 2.0
    params = lv.PhysicalParams(rabi=rabi, detuning=detuning, laser_phase_a=0.7,
                               prop_phase_p=1.3)
    liou = lv.assemble(scheme, params)
    rho = solver.steady_state(liou)
    low = atoms.lowering_operator(scheme, scheme.cbs_transition)
    lows = [atoms.embed(low, 1), atoms.embed(low, 2)]
    highs = [op.conj().T for op in lows]
    omega_r = dressed.generalized_rabi(rabi, detuning)
    omegas = np.array([0.0, omega_r, -omega_r, 1e3])
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    response = spectra.spectral_response(liou, rho, seeds, lows, omegas)
    assert response.shape == (2, 2, omegas.size)
    for i, w in enumerate(omegas):
        for j in range(2):
            for k in range(2):
                ref = spectra.correlation(liou, rho, highs[j], lows[k], w,
                                          connected=True)
                assert ref != 0.0
                assert abs(response[j, k, i] - ref) <= 1e-12 * abs(ref)


# -- elastic weight -----------------------------------------------------------


def test_elastic_weight_vanishes_without_drive():
    liou, rho, low, high = driven_atom(0.0)
    assert abs(spectra.elastic_weight(rho, high, low)) == 0.0


def test_elastic_fraction_approaches_one_at_weak_drive():
    rabi = lv.rabi_for_saturation(1e-4, 0.0)
    liou, rho, low, high = driven_atom(rabi)
    elastic = spectra.elastic_weight(rho, high, low).real
    total = np.trace(rho @ high @ low).real
    assert np.isclose(elastic / total, 1.0, atol=2e-4)
    assert np.isclose(elastic / total, bloch_coherent_fraction(rabi, 0.0), atol=1e-9)


def test_elastic_fraction_vanishes_at_strong_drive():
    liou, rho, low, high = driven_atom(100.0)
    elastic = spectra.elastic_weight(rho, high, low).real
    total = np.trace(rho @ high @ low).real
    assert elastic / total < 1e-3


# -- frequency grid -----------------------------------------------------------


def test_default_grid_symmetric_and_covering():
    grid = spectra.default_omega_grid(100.0, 0.0)
    assert grid.max() >= 250.0 and grid.min() <= -250.0
    assert np.array_equal(grid, -grid[::-1])  # exact mirror symmetry
    # refinement present around every predicted peak
    for pos in dressed.peak_positions(100.0, 0.0).positions:
        nearby = np.diff(grid[(grid > pos - 4.9) & (grid < pos + 4.9)])
        assert nearby.max() < 0.0201


def test_default_grid_covers_detuned_peaks():
    grid = spectra.default_omega_grid(100.0, 20.0)
    for pos in dressed.peak_positions(100.0, 20.0).positions:
        assert grid.min() <= pos <= grid.max()


# -- single-atom spectrum -------------------------------------------------------


def test_mollow_triplet_structure(mollow_spectrum):
    spec, _ = mollow_spectrum
    idx = dressed.local_extrema(spec.density, kind="max", min_relative_height=1e-6)
    positions = spec.omega[idx]
    assert positions.size == 3
    assert np.allclose(np.sort(positions), [-100.0, 0.0, 100.0], atol=0.5)


def test_mollow_sideband_to_central_area_ratio(mollow_spectrum):
    spec, _ = mollow_spectrum
    w, d = spec.omega, spec.density

    def area(lo, hi):
        m = (w >= lo) & (w <= hi)
        return np.trapezoid(d[m], w[m])

    central = area(-25.0, 25.0)
    assert abs(area(75.0, 125.0) / central - 0.5) < 0.025
    assert abs(area(-125.0, -75.0) / central - 0.5) < 0.025


def test_mollow_peak_widths(mollow_spectrum):
    spec, _ = mollow_spectrum
    w, d = spec.omega, spec.density

    def halfwidth(center):
        m = (w >= center - 10.0) & (w <= center + 10.0)
        wm, dm = w[m], d[m]
        above = wm[dm >= dm.max() / 2.0]
        return (above.max() - above.min()) / 2.0

    assert abs(halfwidth(0.0) - 1.0) < 0.05
    assert abs(halfwidth(100.0) - 1.5) < 0.075


def test_mollow_spectrum_symmetric_on_resonance(mollow_spectrum):
    spec, _ = mollow_spectrum
    rel = np.abs(spec.density - spec.density[::-1]).max() / spec.density.max()
    assert rel < 1e-6


def test_mollow_elastic_fraction_negligible(mollow_spectrum):
    spec, _ = mollow_spectrum
    assert spec.elastic_weight / spec.total() < 1e-3


def test_single_atom_sum_rule(mollow_spectrum):
    spec, _ = mollow_spectrum
    pop = bloch_excited_population(100.0, 0.0)
    assert abs(spec.total() / pop - 1.0) < 0.01


def test_single_atom_incoherent_fraction_at_unit_saturation():
    rabi = lv.rabi_for_saturation(1.0, 0.0)
    spec = spectra.single_atom_spectrum(lv.PhysicalParams(rabi=rabi),
                                        omega_grid=np.arange(-40.0, 40.01, 0.02))
    total = bloch_excited_population(rabi, 0.0)
    assert abs(spec.integral / total - 0.5) < 0.01  # s/(1+s) at s=1


def test_single_atom_spectrum_nonnegative(mollow_spectrum):
    spec, _ = mollow_spectrum
    assert spec.density.min() >= -1e-8 * spec.density.max()


def test_single_atom_spectrum_on_v_scheme_matches_two_level():
    rabi = lv.rabi_for_saturation(2.0, 0.0)
    grid = np.arange(-15.0, 15.01, 0.05)
    two = spectra.single_atom_spectrum(lv.PhysicalParams(rabi=rabi), omega_grid=grid)
    vee = spectra.single_atom_spectrum(
        lv.PhysicalParams(rabi=rabi), omega_grid=grid,
        scheme=atoms.build_scheme(atoms.V_TYPE))
    # undetected sigma-minus arm stays empty, so the driven-arm spectra agree
    assert np.allclose(two.density, vee.density, atol=1e-12)
