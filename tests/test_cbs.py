"""Backscattering intensities, harmonic extraction, and spectra."""

import numpy as np
import pytest

from cbsim import atoms, cbs, dressed, liouvillian as lv, spectra
from cbsim.errors import ConfigurationError, DomainError


def default_params(**kwargs):
    return lv.PhysicalParams(**kwargs)


# -- harmonic extraction -------------------------------------------------------


def planted_grid(fn, n=4):
    a = cbs.phase_values(n)
    samples = np.empty((n, n, n))
    for i, ai in enumerate(a):
        for j, bj in enumerate(a):
            for k, pk in enumerate(a):
                samples[i, j, k] = fn(ai, bj, pk)
    return cbs.PhaseGrid(n, n, n, samples)


def test_harmonics_of_constant_grid():
    h = cbs.harmonic_extract(planted_grid(lambda a, b, p: 3.5))
    assert np.isclose(h.ladder, 3.5)
    assert np.isclose(h.crossed, 0.0, atol=1e-14)


def test_harmonics_of_planted_interference():
    h = cbs.harmonic_extract(planted_grid(lambda a, b, p: 1.0 + np.cos(a + b)))
    assert np.isclose(h.ladder, 1.0)
    assert np.isclose(h.crossed, 1.0)
    assert h.residue < 1e-14


def test_harmonics_ignore_pure_propagation_phase():
    h = cbs.harmonic_extract(planted_grid(lambda a, b, p: 2.0 + np.cos(p)))
    assert np.isclose(h.ladder, 2.0)
    assert np.isclose(h.crossed, 0.0, atol=1e-14)


def test_harmonics_reject_other_phase_combinations():
    # a - b interference does not masquerade as the reversed-path term
    h = cbs.harmonic_extract(planted_grid(lambda a, b, p: 1.0 + np.cos(a - b)))
    assert np.isclose(h.crossed, 0.0, atol=1e-14)


def test_phase_grid_requires_four_points():
    with pytest.raises(ConfigurationError):
        cbs.PhaseGrid(2, 4, 4, np.zeros((2, 4, 4)))


# -- detected intensity ---------------------------------------------------------


def test_intensity_zero_without_exchange(v_scheme):
    p = default_params(rabi=2.0)
    assert abs(cbs.detected_intensity(v_scheme, p, include_exchange=False)) < 1e-20


def test_intensity_zero_in_scalar_mode(v_scheme):
    p = default_params(rabi=2.0, coupling_mode=lv.SCALAR)
    assert abs(cbs.detected_intensity(v_scheme, p)) < 1e-20


def test_intensity_real_and_nonnegative_for_phase_samples(v_scheme):
    for a in (0.0, 1.0):
        for b in (0.5, 4.0):
            for prop in (0.3, 2.0):
                p = default_params(rabi=2.0, laser_phase_a=a, detect_phase_b=b,
                                   prop_phase_p=prop)
                value = cbs.detected_intensity(v_scheme, p)
                assert value >= -1e-18


def test_intensity_inverse_square_in_kr(v_scheme):
    rabi = lv.rabi_for_saturation(1.0, 0.0)
    near = cbs.detected_intensity(v_scheme, default_params(
        rabi=rabi, kr=100.0, laser_phase_a=0.7, detect_phase_b=1.1, prop_phase_p=0.9))
    far = cbs.detected_intensity(v_scheme, default_params(
        rabi=rabi, kr=200.0, laser_phase_a=0.7, detect_phase_b=1.1, prop_phase_p=0.9))
    assert abs(near / far / 4.0 - 1.0) < 0.01


def test_intensity_matches_grid_sample(v_scheme):
    # the analytic detection-phase expansion agrees with a direct evaluation
    p = default_params(rabi=1.3, laser_phase_a=np.pi / 2, detect_phase_b=np.pi,
                       prop_phase_p=3 * np.pi / 2)
    grid_total, _ = cbs.intensity_grids(v_scheme, p)
    direct = cbs.detected_intensity(v_scheme, p)
    assert np.isclose(grid_total.samples[1, 2, 3], direct, rtol=1e-12)


def test_same_atom_terms_are_detected_level_populations(v_scheme):
    # diagonal dipole moments <R_j L_j> reduce to the |2> populations
    p = default_params(rabi=2.0, laser_phase_a=0.4, prop_phase_p=1.2)
    m, _, _, rho = cbs._moment_matrices(v_scheme, p)
    pop = [atoms.embed(atoms.level_projector(v_scheme, 1), atom) for atom in (1, 2)]
    for j in range(2):
        assert np.isclose(m[j, j], np.trace(rho @ pop[j]), atol=1e-14)


def test_harmonic_residue_small_on_computed_grids(v_scheme):
    grid_total, grid_elastic = cbs.intensity_grids(
        v_scheme, default_params(rabi=2.0))
    for grid in (grid_total, grid_elastic):
        h = cbs.harmonic_extract(grid)
        assert h.residue <= 1e-9 * max(abs(h.ladder), 1e-300)


def _custom_scheme(kind, n_levels, transitions):
    return atoms.LevelScheme(
        kind=kind, levels=tuple(atoms.Level(f"|{i}>") for i in range(n_levels)),
        transitions=tuple(atoms.Transition(*t) for t in transitions))


@pytest.mark.parametrize("scheme", [
    # Lambda: the detected upper level is the driven one
    _custom_scheme("lambda", 3, [(0, 2, atoms.SIGMA_PLUS), (1, 2, atoms.SIGMA_MINUS)]),
    # the driven upper level also decays into the detected upper level
    _custom_scheme("branching", 3, [(0, 2, atoms.SIGMA_PLUS), (0, 1, atoms.SIGMA_MINUS),
                                    (1, 2, atoms.PI)]),
], ids=["lambda", "branching"])
def test_detected_channel_with_single_atom_background_rejected(scheme):
    with pytest.raises(ConfigurationError):
        cbs.cbs_components(scheme, default_params(), s=1.0)


# -- components ------------------------------------------------------------------


def test_weak_field_contrast_and_alpha(v_scheme):
    comp = cbs.cbs_components(v_scheme, default_params(), s=1e-4, detuning=0.0)
    assert abs(comp.c2_total / comp.l2_total - 1.0) < 0.02
    assert abs(comp.alpha - 2.0) < 0.02


@pytest.mark.parametrize("detuning,s", [(0.0, 1e-3), (20.0, 1e-5)])
def test_alpha_two_in_elastic_limit_any_detuning(v_scheme, detuning, s):
    # The elastic limit needs s << (gamma/detuning)^2: the weak inelastic
    # sideband of one atom sits on the other atom's bare resonance, so its
    # rescattering is enhanced by (detuning/gamma)^2 relative to the
    # detuned elastic light.
    comp = cbs.cbs_components(v_scheme, default_params(), s=s, detuning=detuning)
    assert abs(comp.alpha - 2.0) < 0.02


def test_component_signs_and_alpha_consistency(v_scheme):
    comp = cbs.cbs_components(v_scheme, default_params(), s=2.0, detuning=5.0)
    assert comp.l2_el >= 0.0 and comp.l2_inel >= 0.0
    expected = (comp.l2_total + comp.c2_total) / comp.l2_total
    assert abs(comp.alpha - expected) < 1e-12


def test_alpha_field_validated():
    with pytest.raises(DomainError):
        cbs.CbsComponents(l2_el=1.0, l2_inel=0.0, c2_el=1.0, c2_inel=0.0, alpha=1.5)


def test_reciprocity_over_sweep(alpha_sweep_on_resonance):
    for s, comp in alpha_sweep_on_resonance:
        assert abs(comp.c2_el - comp.l2_el) <= 0.01 * abs(comp.l2_el) + 1e-30


def test_enhancement_bounds_on_resonance(alpha_sweep_on_resonance):
    for s, comp in alpha_sweep_on_resonance:
        assert 1.0 - 1e-9 <= comp.alpha <= 2.0 + 1e-9


def test_inverse_square_scaling_of_components(v_scheme):
    raw_100 = cbs.cbs_components(v_scheme, default_params(kr=100.0), s=1.0,
                                 detuning=0.0, normalize=False)
    raw_200 = cbs.cbs_components(v_scheme, default_params(kr=200.0), s=1.0,
                                 detuning=0.0, normalize=False)
    assert abs(raw_100.l2_total / raw_200.l2_total / 4.0 - 1.0) < 0.01
    assert abs(raw_100.c2_total / raw_200.c2_total / 4.0 - 1.0) < 0.01


def test_phase_grid_refinement_invariance(v_scheme):
    coarse = cbs.cbs_components(v_scheme, default_params(), s=1.0, detuning=0.0)
    fine = cbs.cbs_components(v_scheme, default_params(), s=1.0, detuning=0.0,
                              n_a=8, n_b=8, n_p=8)
    for name in ("l2_el", "l2_inel", "c2_el", "c2_inel"):
        a, b = getattr(coarse, name), getattr(fine, name)
        assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))
    assert abs(coarse.alpha - fine.alpha) <= 1e-6 * fine.alpha


def test_components_deterministic(v_scheme):
    first = cbs.cbs_components(v_scheme, default_params(), s=0.3, detuning=5.0)
    second = cbs.cbs_components(v_scheme, default_params(), s=0.3, detuning=5.0)
    assert first == second  # bitwise-equal fields


def test_full_scheme_matches_v_type_for_perpendicular_axis(v_scheme, full_scheme):
    comp_v = cbs.cbs_components(v_scheme, default_params(), s=1.0, detuning=0.0)
    comp_f = cbs.cbs_components(full_scheme, default_params(), s=1.0, detuning=0.0)
    for name in ("l2_el", "l2_inel", "c2_el", "c2_inel", "alpha"):
        a, b = getattr(comp_v, name), getattr(comp_f, name)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-300)


def test_isotropic_average_is_seed_deterministic(v_scheme):
    kwargs = dict(s=0.5, detuning=0.0, n_configs=4, seed=42)
    first = cbs.cbs_components_isotropic(v_scheme, default_params(), **kwargs)
    second = cbs.cbs_components_isotropic(v_scheme, default_params(), **kwargs)
    assert first == second
    other = cbs.cbs_components_isotropic(v_scheme, default_params(), s=0.5,
                                         detuning=0.0, n_configs=4, seed=43)
    assert other != first


# -- sweeps ----------------------------------------------------------------------


def test_sweep_requires_sorted_positive_saturations(v_scheme):
    with pytest.raises(DomainError):
        cbs.sweep_alpha(v_scheme, 0.0, [0.5, 0.1])
    with pytest.raises(DomainError):
        cbs.sweep_alpha(v_scheme, 0.0, [-1.0, 0.1])


def test_sweep_matches_pointwise_components(v_scheme):
    rows = cbs.sweep_alpha(v_scheme, 0.0, [0.1, 1.0])
    for s, comp in rows:
        direct = cbs.cbs_components(v_scheme, default_params(), s=s, detuning=0.0)
        assert comp == direct


def test_sweep_workers_value_reproducible(v_scheme):
    serial = cbs.sweep_alpha(v_scheme, 0.0, [0.1, 0.5, 2.0], workers=1)
    parallel = cbs.sweep_alpha(v_scheme, 0.0, [0.1, 0.5, 2.0], workers=2)
    assert serial == parallel


def test_small_s_alpha_linear_decrease(v_scheme):
    s_values = np.linspace(0.01, 0.1, 10)
    rows = cbs.sweep_alpha(v_scheme, 0.0, s_values)
    alphas = np.array([comp.alpha for _, comp in rows])
    slope, intercept = np.polyfit(s_values, alphas, 1)
    predicted = slope * s_values + intercept
    r2 = 1.0 - np.sum((alphas - predicted) ** 2) / np.sum((alphas - alphas.mean()) ** 2)
    assert slope < 0.0
    assert r2 >= 0.99


# -- spectra ---------------------------------------------------------------------


def test_background_spectrum_nonnegative(spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    bg = result.background.density
    assert bg.min() >= -1e-8 * bg.max()


def test_background_spectrum_symmetric_on_resonance(spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    bg = result.background
    assert np.array_equal(bg.omega, -bg.omega[::-1])
    asym = np.abs(bg.density - bg.density[::-1]).max()
    assert asym <= 0.005 * bg.density.max()


def test_interference_spectrum_symmetric_on_resonance(spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    inter = result.interference
    asym = np.abs(inter.density - inter.density[::-1]).max()
    assert asym <= 0.005 * np.abs(inter.density).max()


def test_background_normalized_to_unit_area(spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    assert abs(result.background.integral - 1.0) < 1e-9


def test_normalized_interference_area_equals_component_ratio(spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    comp = result.components
    assert abs(result.interference.integral - comp.c2_inel / comp.l2_inel) < 0.002


def test_spectral_sum_rules_raw(spectrum_on_resonance_raw):
    # with normalize=False both spectra and components carry raw units
    result = spectrum_on_resonance_raw
    comp = result.components
    bg_total = result.background.total()
    int_total = result.interference.total()
    assert abs(bg_total - comp.l2_total) <= 0.02 * comp.l2_total
    assert abs(int_total - comp.c2_total) <= 0.02 * abs(comp.c2_total)


def test_detuned_spectrum_peaks(spectrum_detuned):
    result, _ = spectrum_detuned
    peaks = dressed.peak_positions(100.0, 20.0)
    report = dressed.validate_spectrum(result.background, peaks, tolerance=0.5)
    assert report.all_passed


def test_spectrum_components_match_intensity_route(v_scheme, spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    direct = cbs.cbs_components(v_scheme, default_params(rabi=100.0, detuning=0.0))
    assert result.components == direct
