"""Backscattering intensities, the phase average, and spectra."""

from dataclasses import replace

import numpy as np
import pytest

from cbsim import atoms, cbs, dressed, liouvillian as lv, solver, spectra
from cbsim.errors import ConditioningError, ConfigurationError, DomainError
from conftest import completed_sweep, count_phase_points


def default_params(**kwargs):
    return lv.PhysicalParams(**kwargs)


# -- phase average ---------------------------------------------------------------


def test_components_match_fourier_analysis_of_full_phase_grid(v_scheme):
    # independent oracle: sample <D+ D> on the full (a, b, p) grid and take
    # its harmonics here, with no use of the closed-form b average
    n_a, n_b, n_p = 4, 8, 4
    a, b, p = (cbs.phase_values(n) for n in (n_a, n_b, n_p))
    base = default_params(rabi=lv.rabi_for_saturation(1.0, 3.0), detuning=3.0)
    samples = np.array([[[cbs.detected_intensity(v_scheme, replace(
        base, laser_phase_a=ai, detect_phase_b=bj, prop_phase_p=pk))
        for pk in p] for bj in b] for ai in a])
    weight = np.exp(1j * (a[:, None, None] + b[None, :, None]))
    ladder = samples.mean()
    crossed = 2.0 * (weight * samples).mean().real
    comp = cbs.cbs_components(v_scheme, base, normalize=False)
    assert abs(comp.l2_total - ladder) <= 1e-12 * abs(ladder)
    assert abs(comp.c2_total - crossed) <= 1e-12 * abs(crossed)


def test_planted_non_hermitian_moments_rejected(v_scheme, monkeypatch):
    # an anti-Hermitian part of the moment matrix would make <D+ D> complex
    calls = []
    original = cbs.steady_state

    def planted(stack):
        calls.append(len(stack))
        return original(stack) + 1e-6j * np.eye(stack.hilbert_dim)

    monkeypatch.setattr(cbs, "steady_state", planted)
    with pytest.raises(ConditioningError, match="anti-Hermitian"):
        cbs.cbs_components(v_scheme, default_params(rabi=2.0))
    assert calls == [16]


def test_phase_point_spy_sees_every_point(v_scheme, monkeypatch):
    # positive control of count_phase_points: one stacked solve per phase grid
    calls = count_phase_points(monkeypatch)
    cbs.cbs_components(v_scheme, default_params(rabi=2.0))
    assert calls == [16]
    cbs.cbs_components(v_scheme, default_params(rabi=2.0), n_a=8, n_p=5)
    assert calls == [16, 40]


@pytest.mark.parametrize("observable,sizes", [
    (cbs.cbs_components, dict(n_a=2)),
    (cbs.cbs_spectrum, dict(n_p=3)),
], ids=["components_n_a_2", "spectrum_n_p_3"])
def test_grid_sizes_checked_before_any_steady_state(v_scheme, monkeypatch, observable,
                                                    sizes):
    calls = count_phase_points(monkeypatch)
    with pytest.raises(ConfigurationError):
        observable(v_scheme, default_params(rabi=2.0), **sizes)
    assert calls == []


def _sweep(scheme, params, **sizes):
    return cbs.sweep_alpha_collect(scheme, 0.0, [1.0], params=params, **sizes)


@pytest.mark.parametrize("observable,sizes", [
    (cbs.cbs_components, dict(n_a=4.5)),
    (cbs.cbs_components, dict(n_p=4.0)),
    (cbs.cbs_components_isotropic, dict(n_configs=0)),
    (cbs.cbs_components_isotropic, dict(n_configs=-1)),
    (cbs.cbs_components_isotropic, dict(n_configs=2.5)),
    (cbs.cbs_components_isotropic, dict(n_a=4.5)),
    (_sweep, dict(n_a=4.5)),
    (_sweep, dict(n_configs=0)),
    (_sweep, dict(n_configs=2.5)),
    (cbs.cbs_spectrum, dict(n_p=4.5)),
], ids=["components_n_a_4.5", "components_n_p_4.0", "isotropic_n_configs_0",
        "isotropic_n_configs_-1", "isotropic_n_configs_2.5", "isotropic_n_a_4.5",
        "sweep_n_a_4.5", "sweep_n_configs_0", "sweep_n_configs_2.5", "spectrum_n_p_4.5"])
def test_non_integral_or_empty_sizes_rejected_before_any_steady_state(
        v_scheme, monkeypatch, observable, sizes):
    calls = count_phase_points(monkeypatch)
    with pytest.raises(ConfigurationError, match=next(iter(sizes))):
        observable(v_scheme, default_params(rabi=2.0), **sizes)
    assert calls == []


def test_numpy_integer_sizes_accepted(v_scheme):
    params = default_params(rabi=2.0)
    assert (cbs.cbs_components(v_scheme, params, n_a=np.int64(4), n_p=np.int32(4))
            == cbs.cbs_components(v_scheme, params))
    iso = cbs.cbs_components_isotropic(v_scheme, params, s=1.0, detuning=0.0,
                                       n_configs=np.int64(1))
    (_, comp, err), = _sweep(v_scheme, params, n_configs=np.int16(1))
    assert err is None and comp == iso


# -- stacked solve against one solve per point ------------------------------------


@pytest.mark.parametrize("kind,options,switches,sizes", [
    (atoms.V_TYPE, {}, {}, (4, 4)),
    (atoms.FULL_J0_J1, dict(orientation=(0.3, -0.5, 0.8)), {}, (4, 4)),
    (atoms.V_TYPE, dict(coupling_mode=lv.SCALAR), {}, (4, 4)),
    (atoms.V_TYPE, {}, dict(include_exchange=False), (4, 4)),
    (atoms.V_TYPE, {}, dict(cross_damping=False), (4, 4)),
    (atoms.V_TYPE, {}, {}, (8, 5)),
], ids=["v_type", "full_tilted_axis", "scalar", "no_exchange", "no_cross_damping",
        "grid_8x5"])
def test_stacked_densities_match_pointwise_solves(kind, options, switches, sizes):
    scheme = atoms.build_scheme(kind)
    params = default_params(rabi=lv.rabi_for_saturation(1.5, 2.0), detuning=2.0, **options)
    a, p = cbs.phase_grid(*sizes)
    assert sorted(zip(a, p)) == sorted((ai, pj) for ai in cbs.phase_values(sizes[0])
                                       for pj in cbs.phase_values(sizes[1]))
    m, _, stack, rho = cbs._moment_matrices(scheme, params, phases=(a, p), **switches)
    assert len(stack) == rho.shape[0] == m.shape[2] == a.size
    (low_1, low_2), (high_1, high_2) = cbs._detection_operators(scheme)
    for i in range(a.size):
        point = replace(params, laser_phase_a=a[i], prop_phase_p=p[i])
        alone = solver.steady_state(lv.assemble(scheme, point, **switches))
        assert np.abs(rho[i] - alone).max() <= 1e-12
        moments = np.array([[np.trace(alone @ high @ low) for low in (low_1, low_2)]
                            for high in (high_1, high_2)])
        assert np.abs(m[..., i] - moments).max() <= 1e-12 * max(np.abs(moments).max(), 1e-300)


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
    # the closed-form detection-phase dependence agrees with <D+ D> taken
    # directly from the steady state at a grid point
    p = default_params(rabi=1.3, laser_phase_a=np.pi / 2, detect_phase_b=np.pi / 2,
                       prop_phase_p=3 * np.pi / 2)
    _, _, _, rho = cbs._moment_matrices(v_scheme, p)
    (low_1, low_2), _ = cbs._detection_operators(v_scheme)
    dipole = low_1 + np.exp(-1j * p.detect_phase_b) * low_2
    direct = np.trace(rho @ dipole.conj().T @ dipole).real
    assert np.isclose(cbs.detected_intensity(v_scheme, p), direct, rtol=1e-12)


def test_same_atom_terms_are_detected_level_populations(v_scheme):
    # diagonal dipole moments <R_j L_j> reduce to the |2> populations
    p = default_params(rabi=2.0, laser_phase_a=0.4, prop_phase_p=1.2)
    m, _, _, rho = cbs._moment_matrices(v_scheme, p)
    pop = [atoms.embed(atoms.level_projector(v_scheme, 1), atom) for atom in (1, 2)]
    for j in range(2):
        assert np.isclose(m[j, j], np.trace(rho @ pop[j]), atol=1e-14)


def test_computed_moment_matrices_hermitian(v_scheme, full_scheme):
    # computed moment matrices are Hermitian far inside the tolerance
    for scheme in (v_scheme, full_scheme):
        for a, prop in ((0.0, 0.0), (0.7, 2.1)):
            p = default_params(rabi=2.0, detuning=1.5, laser_phase_a=a, prop_phase_p=prop)
            m, e, _, _ = cbs._moment_matrices(scheme, p)
            for mat in (m, e):
                assert np.abs(mat - mat.conj().T).max() <= 1e-3 * cbs._REAL_RESIDUE_TOL


def test_detection_operators_built_once_per_phase_grid(v_scheme, monkeypatch):
    calls = []
    original = cbs._detection_operators

    def spy(scheme):
        calls.append(scheme.kind)
        return original(scheme)

    monkeypatch.setattr(cbs, "_detection_operators", spy)
    cbs.cbs_spectrum(v_scheme, default_params(rabi=2.0),
                     omega_grid=np.linspace(-5.0, 5.0, 11))
    assert calls == [v_scheme.kind]


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
                              n_a=8, n_p=8)
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
        cbs.sweep_alpha_collect(v_scheme, 0.0, [0.5, 0.1])
    with pytest.raises(DomainError):
        cbs.sweep_alpha_collect(v_scheme, 0.0, [-1.0, 0.1])


def test_sweep_matches_pointwise_components(v_scheme):
    rows = completed_sweep(v_scheme, 0.0, [0.1, 1.0])
    for s, comp in rows:
        direct = cbs.cbs_components(v_scheme, default_params(), s=s, detuning=0.0)
        assert comp == direct


def test_small_s_alpha_linear_decrease(v_scheme):
    s_values = np.linspace(0.01, 0.1, 10)
    rows = completed_sweep(v_scheme, 0.0, s_values)
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
