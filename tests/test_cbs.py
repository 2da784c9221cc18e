"""Backscattering intensities, the phase average, and spectra."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsim import atoms, cbs, dressed, liouvillian as lv, solver, spectra
from cbsim.errors import ConditioningError, ConfigurationError, DomainError
from conftest import (completed_sweep, count_phase_points, forbid_builders, generator_at,
                      uncoupled_pair)
from oracles import correlation, phase_average_unfolded


def default_params(**kwargs):
    return lv.PhysicalParams(**kwargs)


def at_point(scheme, params, a, p):
    """``_moment_matrices`` at the phase point (a, p) alone: the moment
    matrices, elastic moments and density of that one point."""
    m, e, _, rho = cbs._moment_matrices(scheme, params, ([a], [p]))
    return m[..., 0], e[..., 0], rho[0]


# -- phase average ---------------------------------------------------------------


def test_components_match_fourier_analysis_of_full_phase_grid(v_scheme):
    # independent oracle: sample <D+ D> on the full (a, b, p) grid and take
    # its harmonics here, with no use of the closed-form b average
    n_a, n_b, n_p = 4, 8, 4
    a, b, p = (cbs.phase_values(n) for n in (n_a, n_b, n_p))
    base = default_params(rabi=lv.rabi_for_saturation(1.0, 3.0), detuning=3.0)
    samples = np.array([[[cbs.detected_intensity(v_scheme, base, ai, bj, pk)
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
    assert calls == [5]  # one point per symmetry orbit of the 4 x 4 grid at detuning 0


def test_phase_point_spy_sees_every_point(v_scheme, monkeypatch):
    # positive control of count_phase_points: one stacked solve per phase
    # grid, of one point per symmetry orbit (at detuning 0, 4 x 4: 5 of 16 and
    # 8 x 5: 25 of 40; detuned, 4 x 4: 6 of 16)
    calls = count_phase_points(monkeypatch)
    cbs.cbs_components(v_scheme, default_params(rabi=2.0))
    assert calls == [5]
    cbs.cbs_components(v_scheme, default_params(rabi=2.0), n_a=8, n_p=5)
    assert calls == [5, 25]
    cbs.cbs_components(v_scheme, default_params(rabi=2.0, detuning=1.0))
    assert calls == [5, 25, 6]


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
    (cbs.cbs_components_isotropic, dict(seed=-1)),
    (cbs.cbs_components_isotropic, dict(seed=1.5)),
    (_sweep, dict(seed=-1, n_configs=1)),
    (_sweep, dict(seed=1.5, n_configs=1)),
], ids=["components_n_a_4.5", "components_n_p_4.0", "isotropic_n_configs_0",
        "isotropic_n_configs_-1", "isotropic_n_configs_2.5", "isotropic_n_a_4.5",
        "sweep_n_a_4.5", "sweep_n_configs_0", "sweep_n_configs_2.5", "spectrum_n_p_4.5",
        "isotropic_seed_-1", "isotropic_seed_1.5", "sweep_seed_-1", "sweep_seed_1.5"])
def test_non_integral_or_empty_sizes_rejected_before_any_steady_state(
        v_scheme, monkeypatch, observable, sizes):
    calls = count_phase_points(monkeypatch)
    with pytest.raises(ConfigurationError, match=next(iter(sizes))):
        observable(v_scheme, default_params(rabi=2.0), **sizes)
    assert calls == []


@pytest.mark.parametrize("observable,sizes", [
    (cbs.cbs_components, dict(n_a=10**9)),
    (cbs.cbs_components, dict(n_p=cbs.MAX_PHASE_POINTS + 1)),
    (cbs.cbs_components_isotropic, dict(n_configs=10**9)),
    (cbs.cbs_components_isotropic, dict(n_a=cbs.MAX_PHASE_POINTS + 1)),
    (_sweep, dict(n_a=10**9)),
    (_sweep, dict(n_configs=cbs.MAX_ORIENTATIONS + 1)),
    (cbs.cbs_spectrum, dict(n_p=10**9)),
], ids=["components_n_a_1e9", "components_n_p_65", "isotropic_n_configs_1e9",
        "isotropic_n_a_65", "sweep_n_a_1e9", "sweep_n_configs_10001", "spectrum_n_p_1e9"])
def test_oversized_sizes_rejected_before_any_array_is_built(v_scheme, monkeypatch, observable,
                                                            sizes):
    # n_a = 1e9 used to pass: phase_orbits then asked np.arange for 4e9
    # indices, and n_configs = 1e9 had sample_orientations build 1e9 tuples
    cbs._check_sizes(cbs.MAX_PHASE_POINTS, cbs.MAX_PHASE_POINTS, cbs.MAX_ORIENTATIONS)  # allowed
    forbid_builders(monkeypatch)
    with pytest.raises(ConfigurationError, match=f"{next(iter(sizes))} = .* too large"):
        observable(v_scheme, default_params(rabi=2.0), **sizes)


@pytest.mark.parametrize("kind,s_values,error", [
    (atoms.V_TYPE, [], ConfigurationError),
    (atoms.V_TYPE, [0.5, np.nan], DomainError),
    (atoms.V_TYPE, [0.5, np.inf], DomainError),
    (atoms.TWO_LEVEL, [0.5, 2.0], ConfigurationError),
], ids=["empty", "nan", "inf", "two_level"])
def test_sweep_inputs_rejected_before_any_steady_state(monkeypatch, kind, s_values, error):
    # each would otherwise fill the sweep with error rows (or return none)
    calls = count_phase_points(monkeypatch)
    with pytest.raises(error):
        cbs.sweep_alpha_collect(atoms.build_scheme(kind), 0.0, s_values)
    assert calls == []


@pytest.mark.parametrize("observable,s", [
    (cbs.cbs_components, np.nan),
    (cbs.cbs_components, np.inf),
    (cbs.cbs_components_isotropic, np.nan),
], ids=["components_nan", "components_inf", "isotropic_nan"])
def test_non_finite_saturation_rejected_before_any_steady_state(v_scheme, monkeypatch,
                                                                observable, s):
    # named as the saturation, not as the NaN Rabi frequency it would give
    calls = count_phase_points(monkeypatch)
    with pytest.raises(DomainError, match="saturation must be finite"):
        observable(v_scheme, default_params(), s=s)
    assert calls == []


def test_subnormal_intensities_rejected_before_any_steady_state(v_scheme, monkeypatch):
    # at kr = 1e150 the raw inelastic intensities scale as 2.25e-300 s^2 below
    # s = 1 (s = 1 itself stays admissible); a huge detuning drives s to 0
    far = default_params(kr=lv.KR_MAX)
    calls = count_phase_points(monkeypatch)
    for observable in (
            lambda: cbs.sweep_alpha_collect(v_scheme, 0.0, [1e-20, 1e-12, 1.0], params=far),
            lambda: cbs.cbs_components(v_scheme, far, s=1e-12, detuning=0.0),
            lambda: cbs.cbs_components(v_scheme, default_params(rabi=1.0, detuning=1e200)),
            lambda: cbs.cbs_spectrum(v_scheme, default_params(rabi=1e-3, kr=lv.KR_MAX))):
        with pytest.raises(DomainError, match="subnormal"):
            observable()
    assert calls == []


@pytest.mark.parametrize("detuning,s_values,params,match", [
    (1e200, [1.0], None, "detuning"),
    (None, [1.0], dict(detuning=-1e200), "detuning"),
    (0.0, [1.0, 1e300], None, "saturation 1e\\+300"),
], ids=["detuning", "params_detuning", "saturation"])
def test_sweep_drive_beyond_bound_rejected_before_any_steady_state(
        v_scheme, monkeypatch, detuning, s_values, params, match):
    # past |detuning| ~ 1.35e154 the Rabi frequency overflowed in
    # rabi_for_saturation; past ~1e153 the generator's Frobenius norm does
    calls = count_phase_points(monkeypatch)
    with pytest.raises(DomainError, match=match):
        cbs.sweep_alpha_collect(v_scheme, detuning, s_values,
                                params=params and default_params(**params))
    assert calls == []
    # the bound itself is admissible
    cbs._check_sweep_drive([0.5], cbs.MAX_DRIVE)


def test_numpy_integer_sizes_accepted(v_scheme):
    params = default_params(rabi=2.0)
    assert (cbs.cbs_components(v_scheme, params, n_a=np.int64(4), n_p=np.int32(4))
            == cbs.cbs_components(v_scheme, params))
    iso = cbs.cbs_components_isotropic(v_scheme, params, s=1.0, detuning=0.0,
                                       n_configs=np.int64(1))
    (_, comp, err), = _sweep(v_scheme, params, n_configs=np.int16(1))
    assert err is None and comp == iso


# -- stacked solve against one solve per point ------------------------------------


@pytest.mark.parametrize("kind,options,sizes", [
    (atoms.V_TYPE, {}, (4, 4)),
    (atoms.FULL_J0_J1, dict(orientation=(0.3, -0.5, 0.8)), (4, 4)),
    (atoms.V_TYPE, dict(orientation=(0.0, 0.0, 1.0)), (4, 4)),
    (atoms.V_TYPE, {}, (8, 5)),
], ids=["v_type", "full_tilted_axis", "v_type_axis_z", "grid_8x5"])
def test_stacked_densities_match_pointwise_solves(kind, options, sizes):
    scheme = atoms.build_scheme(kind)
    params = default_params(rabi=lv.rabi_for_saturation(1.5, 2.0), detuning=2.0, **options)
    a, p = cbs.phase_grid(*sizes)
    assert sorted(zip(a, p)) == sorted((ai, pj) for ai in cbs.phase_values(sizes[0])
                                       for pj in cbs.phase_values(sizes[1]))
    m, _, stack, rho = cbs._moment_matrices(scheme, params, (a, p))
    assert len(stack) == rho.shape[0] == m.shape[2] == a.size
    (low_1, low_2), (high_1, high_2) = cbs._detection_operators(scheme)
    for i in range(a.size):
        alone = solver.steady_state(lv.GeneratorStack.from_dense(
            [generator_at(scheme, params, a[i], p[i])]))[0]
        assert np.abs(rho[i] - alone).max() <= 1e-12
        moments = np.array([[np.trace(alone @ high @ low) for low in (low_1, low_2)]
                            for high in (high_1, high_2)])
        # The floor, about 5 ulp of ||rho|| <= 1, covers the moments that vanish in
        # exact arithmetic and are pure roundoff: with the axis along z, T does not
        # couple sigma-plus to sigma-minus, so nothing reaches the detected level.
        assert np.abs(m[..., i] - moments).max() <= 1e-12 * np.abs(moments).max() + 1e-15


# -- detected intensity ---------------------------------------------------------


def test_intensity_zero_without_exchange(v_scheme):
    rho = solver.steady_state(lv.GeneratorStack.from_dense(
        [uncoupled_pair(v_scheme, default_params(rabi=2.0))]))[0]
    (low_1, low_2), _ = cbs._detection_operators(v_scheme)
    dipole = low_1 + low_2
    assert abs(np.trace(rho @ dipole.conj().T @ dipole)) < 1e-20


def test_intensity_real_and_nonnegative_for_phase_samples(v_scheme):
    for a in (0.0, 1.0):
        for b in (0.5, 4.0):
            for prop in (0.3, 2.0):
                value = cbs.detected_intensity(v_scheme, default_params(rabi=2.0), a, b, prop)
                assert value >= -1e-18


def test_intensity_inverse_square_in_kr(v_scheme):
    rabi = lv.rabi_for_saturation(1.0, 0.0)
    near, far = (cbs.detected_intensity(v_scheme, default_params(rabi=rabi, kr=kr),
                                        0.7, 1.1, 0.9) for kr in (100.0, 200.0))
    assert abs(near / far / 4.0 - 1.0) < 0.01


def test_intensity_matches_grid_sample(v_scheme):
    # the closed-form detection-phase dependence agrees with <D+ D> taken
    # directly from the steady state at a grid point
    p = default_params(rabi=1.3)
    a, b, prop = np.pi / 2, np.pi / 2, 3 * np.pi / 2
    _, _, rho = at_point(v_scheme, p, a, prop)
    (low_1, low_2), _ = cbs._detection_operators(v_scheme)
    dipole = low_1 + np.exp(-1j * b) * low_2
    direct = np.trace(rho @ dipole.conj().T @ dipole).real
    assert np.isclose(cbs.detected_intensity(v_scheme, p, a, b, prop), direct, rtol=1e-12)


def test_same_atom_terms_are_detected_level_populations(v_scheme):
    # diagonal dipole moments <R_j L_j> reduce to the |2> populations
    m, _, rho = at_point(v_scheme, default_params(rabi=2.0), 0.4, 1.2)
    pop = [atoms.embed(atoms.level_projector(v_scheme, 1), atom) for atom in (1, 2)]
    for j in range(2):
        assert np.isclose(m[j, j], np.trace(rho @ pop[j]), atol=1e-14)


def test_computed_moment_matrices_hermitian(v_scheme, full_scheme):
    # computed moment matrices are Hermitian far inside the tolerance
    for scheme in (v_scheme, full_scheme):
        for a, prop in ((0.0, 0.0), (0.7, 2.1)):
            m, e, _ = at_point(scheme, default_params(rabi=2.0, detuning=1.5), a, prop)
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
        kind=kind, levels=tuple(f"|{i}>" for i in range(n_levels)),
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


def test_phase_grid_aliasing_falls_like_inverse_fourth_power_of_kr(v_scheme):
    # Four (a, p) points are exact only at leading order in 1/kr: the
    # harmonics they alias move the components by O(kr^-4) against 8 points.
    def shift(kr):
        coarse, fine = (cbs.cbs_components(v_scheme, default_params(kr=kr), s=0.1,
                                           n_a=n, n_p=n) for n in (4, 8))
        return max(abs(getattr(coarse, name) / getattr(fine, name) - 1.0)
                   for name in ("l2_el", "l2_inel", "c2_el", "c2_inel"))

    shift_100 = shift(100.0)
    assert shift_100 <= 1e-6
    assert abs(shift(30.0) / shift_100 / (10.0 / 3.0) ** 4 - 1.0) <= 0.1


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


# full_j0_j1 at s >= 100 takes the SVD check of steady_state (up to 0.7 s a
# call), so the two properties below run fewer examples than the others.
@settings(max_examples=6, deadline=None)
@given(log_s=st.floats(-2.0, 3.0), detuning=st.floats(-30.0, 30.0),
       phi=st.floats(0.0, 2 * np.pi), kr=st.floats(100.0, 1000.0))
def test_full_scheme_matches_v_type_for_any_axis_perpendicular_to_z(log_s, detuning, phi,
                                                                     kr):
    # With the axis in the xy plane the pi transition has no transverse weight
    # to sigma+ or sigma-, so the J = 0 -> 1 atom acts as the V atom.
    params = default_params(kr=kr, orientation=(np.cos(phi), np.sin(phi), 0.0))
    full, v = (cbs.cbs_components(atoms.build_scheme(kind), params, s=10.0**log_s,
                                  detuning=detuning, normalize=False)
               for kind in (atoms.FULL_J0_J1, atoms.V_TYPE))
    # The floor, about 5 ulp of ||rho|| <= 1, covers the roundoff of the raw
    # intensities, which are moments of the steady state: the two schemes
    # solve systems of different size, and at some points they differ by up
    # to 3e-17 (5e-9 of a small c2_inel).
    for name in ("l2_el", "l2_inel", "c2_el", "c2_inel"):
        got, want = getattr(full, name), getattr(v, name)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-15
    assert abs(full.alpha - v.alpha) <= 1e-12 * v.alpha + 4e-15 / v.l2_total


def test_full_scheme_differs_from_v_type_for_a_tilted_axis(v_scheme, full_scheme):
    # positive control of the property above: off the xy plane the pi
    # transition takes part
    params = default_params(orientation=(0.3, -0.5, 0.8))
    alpha_v = cbs.cbs_components(v_scheme, params, s=1.0, detuning=0.0).alpha
    alpha_f = cbs.cbs_components(full_scheme, params, s=1.0, detuning=0.0).alpha
    assert abs(alpha_v - 1.75949) <= 5e-6 and abs(alpha_f - 1.75966) <= 5e-6


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       log_s=st.floats(-2.0, 3.0), detuning=st.floats(-30.0, 30.0),
       kr=st.floats(100.0, 1000.0),
       # along z no exchanged light reaches the detected channel (l2 = 0)
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.hypot(v[0], v[1]) > 0.1))
def test_elastic_reciprocity_defect_falls_like_inverse_square_kr(kind, log_s, detuning, kr,
                                                                 axis):
    # c2_el = l2_el up to O(kr^-2): ten times the distance, a hundredth of the defect
    scheme = atoms.build_scheme(kind)

    def defect(distance):
        comp = cbs.cbs_components(scheme, default_params(kr=distance, orientation=axis),
                                  s=10.0**log_s, detuning=detuning)
        return abs(comp.c2_el - comp.l2_el) / comp.l2_el

    assert abs(defect(kr) / defect(10.0 * kr) / 100.0 - 1.0) <= 0.01


def test_isotropic_average_is_seed_deterministic(v_scheme):
    kwargs = dict(s=0.5, detuning=0.0, n_configs=4, seed=42)
    first = cbs.cbs_components_isotropic(v_scheme, default_params(), **kwargs)
    second = cbs.cbs_components_isotropic(v_scheme, default_params(), **kwargs)
    assert first == second
    other = cbs.cbs_components_isotropic(v_scheme, default_params(), s=0.5,
                                         detuning=0.0, n_configs=4, seed=43)
    assert other != first


@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_isotropic_average_is_the_mean_over_its_axes(kind):
    # pinned bit for bit: the isotropic components are np.mean of the
    # fixed-axis components over the seeded axes
    scheme, params = atoms.build_scheme(kind), default_params(kr=50.0)
    drive = dict(s=0.7, detuning=3.0)
    isotropic = cbs.cbs_components_isotropic(scheme, params, n_configs=3, seed=5, **drive)
    fixed = [astuple(cbs.cbs_components(scheme, default_params(kr=50.0, orientation=axis),
                                        **drive))
             for axis in cbs.sample_orientations(3, 5)]
    assert astuple(isotropic) == tuple(np.mean(fixed, axis=0).tolist())


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


@pytest.mark.parametrize("saturations,extra,sizes", [
    (0, 1, [5] * 5), (2, 0, [10, 10, 5]), (2, -1, [5] * 5), (5, 0, [25]),
], ids=["one_point", "two_saturations", "just_below_two", "one_stack"])
def test_sweep_spans_stacks_of_whole_saturations(v_scheme, monkeypatch, saturations, extra,
                                                 sizes):
    # a budget of that many saturations of 5 orbit points (4 x 4 grid at detuning 0),
    # plus extra entries
    budget = saturations * 5 * lv.generator_entries(v_scheme) + extra
    s_values = [0.1, 0.5, 1.0, 2.0, 5.0]
    one_stack = cbs.sweep_alpha_collect(v_scheme, 0.0, s_values)
    calls = count_phase_points(monkeypatch)
    monkeypatch.setattr(cbs, "STACK_ENTRIES", budget)
    assert cbs.sweep_alpha_collect(v_scheme, 0.0, s_values) == one_stack
    assert calls == sizes


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       detuning=st.floats(-20.0, 20.0), log_kr=st.floats(1.0, 3.0),
       log_s=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=4, unique=True),
       n_a=st.integers(4, 6), n_p=st.integers(4, 6))
def test_stacked_sweep_matches_pointwise_components(kind, detuning, log_kr, log_s, n_a, n_p):
    scheme = atoms.build_scheme(kind)
    params = default_params(kr=10.0**log_kr, orientation=(0.3, -0.5, 0.8))
    s_values = sorted(10.0**x for x in log_s)
    rows = cbs.sweep_alpha_collect(scheme, detuning, s_values, params=params, n_a=n_a,
                                   n_p=n_p)
    for s, comp, err in rows:
        assert err is None
        expected = np.array(astuple(cbs.cbs_components(scheme, params, s=s, detuning=detuning,
                                                       n_a=n_a, n_p=n_p)))
        assert np.all(np.abs(np.array(astuple(comp)) - expected) <= 1e-13 * np.abs(expected))


# -- spectra ---------------------------------------------------------------------


def test_spectrum_with_non_positive_background_area_rejected(v_scheme, monkeypatch):
    # At rabi <= 1e-7 the inelastic area is roundoff, of either sign from one
    # drive or machine to the next, so its sign is planted in the pole sum.
    original = spectra.real_pole_sum
    monkeypatch.setattr(spectra, "real_pole_sum", lambda *args: -original(*args))
    params = default_params(rabi=2.0)
    grid = np.linspace(-5.0, 5.0, 11)
    assert cbs.cbs_spectrum(v_scheme, params, omega_grid=grid, normalize=False)
    with pytest.raises(DomainError, match="background spectrum integral is not positive"):
        cbs.cbs_spectrum(v_scheme, params, omega_grid=grid)


@pytest.mark.parametrize("rabi", [1e-6, 1e-8])
def test_weak_drive_spectrum_of_roundoff_rejected(v_scheme, rabi):
    # A power spectrum is non-negative.  At these drives the background dips
    # to -8.4e-3 and -5.4e-2 of its maximum while its area stays positive;
    # roundoff of the other sign would fail the area check instead.
    params = default_params(rabi=rabi, detuning=5.0)
    with pytest.raises(DomainError, match="background spectrum (density dips to -|integral)"):
        cbs.cbs_spectrum(v_scheme, params)


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
    assert all(m.passed for m in report)


def test_spectrum_components_match_intensity_route(v_scheme, spectrum_on_resonance):
    result, _ = spectrum_on_resonance
    direct = cbs.cbs_components(v_scheme, default_params(rabi=100.0, detuning=0.0))
    assert result.components == direct


def _detected_spectrum_by_lu(scheme, params, grid):
    """(ladder, crossed) densities of the 4 x 4 phase grid from one
    :func:`spectra.correlation` LU solve per point, operator pair and
    frequency, with the detection phase b averaged here: at each point the
    density Re sum_jk exp(i(b_j - b_k)) t[j, k] / pi has the b-average
    Re(t00 + t11) / pi and the exp(-ib) coefficient (t01 + conj t10) / 2pi."""
    low = atoms.lowering_operator(scheme, scheme.cbs_transition)
    lows = [atoms.embed(low, 1), atoms.embed(low, 2)]
    highs = [op.conj().T for op in lows]
    a, p = cbs.phase_grid(4, 4)
    ladder, crossed = np.zeros(grid.size), np.zeros(grid.size)
    for a_i, p_i in zip(a, p):
        gen = generator_at(scheme, params, a_i, p_i)
        rho = solver.steady_state(lv.GeneratorStack.from_dense([gen]))[0]
        t = np.array([[[correlation(gen, rho, highs[j], lows[k], w, connected=True)
                        for w in grid] for k in range(2)] for j in range(2)])
        ladder += (t[0, 0] + t[1, 1]).real / np.pi
        crossed += 2.0 * (np.exp(1j * a_i) * (t[0, 1] + t[1, 0].conj()) / (2.0 * np.pi)).real
    return ladder / a.size, crossed / a.size


def _peak_grid(rabi, detuning):
    """The seven predicted peaks plus three frequencies between and beyond them."""
    peaks = list(dressed.peak_positions(rabi, detuning).values())
    return np.unique(np.concatenate([peaks, [-3.0 * rabi, 0.37, 3.0 * rabi]]))


@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_phase_averaged_spectrum_matches_lu_correlations(kind):
    scheme, params = atoms.build_scheme(kind), default_params(rabi=10.0, detuning=2.0)
    grid = _peak_grid(10.0, 2.0)
    if kind == atoms.FULL_J0_J1:  # one 256 x 256 LU per correlation: two peaks only
        peaks = dressed.peak_positions(10.0, 2.0)
        grid = np.array([peaks["autler_townes_minus"], peaks["autler_townes_plus"]])
    result = cbs.cbs_spectrum(scheme, params, omega_grid=grid, normalize=False)
    for series, reference in zip((result.background, result.interference),
                                 _detected_spectrum_by_lu(scheme, params, grid)):
        assert np.abs(series.density - reference).max() <= 1e-10 * np.abs(reference).max()


def test_spectrum_sends_only_untrusted_points_to_lu(v_scheme, monkeypatch):
    params, grid = default_params(rabi=10.0, detuning=2.0), _peak_grid(10.0, 2.0)
    eigen = cbs.cbs_spectrum(v_scheme, params, omega_grid=grid, normalize=False)
    diagonalized, refused, factored = [], [], []
    eigen_poles, factor = spectra._eigen_poles, solver.ResolventSolver.factor

    def every_other_point(base, *args):
        diagonalized.append(base)
        if len(diagonalized) % 2:
            refused.append(base)
            return None
        return eigen_poles(base, *args)

    def spy_factor(self, omega):
        factored.append(self.base)
        return factor(self, omega)

    monkeypatch.setattr(spectra, "_eigen_poles", every_other_point)
    monkeypatch.setattr(solver.ResolventSolver, "factor", spy_factor)
    mixed = cbs.cbs_spectrum(v_scheme, params, omega_grid=grid, normalize=False)
    # every solved point (one per symmetry orbit, 6 of 16) takes the eigen
    # step once, and only the refused ones are factored
    assert (len(diagonalized), len(refused)) == (6, 3)
    assert len(factored) == len(refused) * grid.size
    assert all(any(base is r for r in refused) for base in factored)
    for name in ("background", "interference"):
        expected, got = getattr(eigen, name).density, getattr(mixed, name).density
        assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


# -- one solved point per symmetry orbit of the phase grid ---------------------------


@pytest.mark.parametrize("sizes,solved", [((4, 4), 6), ((5, 4), 12), ((8, 5), 25),
                                          ((6, 6), 12), ((8, 8), 20)])
def test_phase_orbit_counts(sizes, solved):
    points, counts = cbs.phase_orbits(*sizes)
    assert (len(points), counts.sum()) == (solved, sizes[0] * sizes[1])


@pytest.mark.parametrize("sizes,solved", [((4, 4), 5), ((5, 4), 9), ((8, 5), 25),
                                          ((6, 6), 6), ((8, 8), 13), ((4, 7), 21)])
def test_resonant_phase_orbit_counts(sizes, solved):
    # the conjugate image p -> pi - p needs an even n_p
    points, counts = cbs.phase_orbits(*sizes, resonant=True)
    assert (len(points), counts.sum()) == (solved, sizes[0] * sizes[1])


@pytest.mark.parametrize("build", [cbs.phase_grid, cbs.phase_orbits])
def test_phase_grid_and_orbits_built_once_per_size(build):
    # a sweep or an isotropic average reuses one grid for every point
    first, again = build(5, 4), build(5, 4)
    assert all(x is y for x, y in zip(first, again))
    for x in first:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       log_rabi=st.floats(-1.0, 2.0), detuning=st.floats(-30.0, 30.0),
       kr=st.floats(10.0, 1000.0),
       # along z no exchanged light reaches the detected channel (l2 = 0)
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.hypot(v[0], v[1]) > 0.1),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi))
def test_phase_point_symmetries_keep_the_rows(kind, log_rabi, detuning, kr, axis, a, p):
    # the mirror (a, p) -> (-a, p) and the half shift (a, p) -> (a + pi, p + pi)
    # leave the ladder and crossed rows of both moment matrices unchanged
    params = default_params(rabi=10.0**log_rabi, detuning=detuning, kr=kr,
                            orientation=axis)
    a_images = np.array([a, -a, a + np.pi, -a - np.pi])
    p_images = np.array([p, p, p + np.pi, p + np.pi])
    m, e, _, _ = cbs._moment_matrices(atoms.build_scheme(kind), params, (a_images, p_images))
    # The floor, 5 ulp of the squared exchange amplitude that every detected
    # moment carries, covers rows far below it, such as the weak detuned drive
    # (rabi 1, detuning 24, kr 11: 9.2e-21 apart, 1.2e-12 of rows of 7.8e-9).
    floor = 1e-15 * cbs.exchange_scale(params)
    for mat in (m, e):
        rows = cbs._b_harmonics(mat, np.exp(1j * a_images)).real
        assert np.abs(rows - rows[:, :1]).max() <= 1e-12 * np.abs(rows).max() + floor


def _conjugate_rows(kind, params, a, p):
    """The real rows of both moment matrices at (a, p) and at (a, pi - p)."""
    a_images, p_images = np.array([a, a]), np.array([p, np.pi - p])
    m, e, _, _ = cbs._moment_matrices(atoms.build_scheme(kind), params, (a_images, p_images))
    return [cbs._b_harmonics(mat, np.exp(1j * a_images)).real for mat in (m, e)]


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       log_rabi=st.floats(-1.0, 2.0), kr=st.floats(10.0, 1000.0),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.hypot(v[0], v[1]) > 0.1),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi))
def test_resonant_conjugation_keeps_the_rows(kind, log_rabi, kr, axis, a, p):
    # at detuning 0 complex conjugation maps (a, p) to (a, pi - p)
    params = default_params(rabi=10.0**log_rabi, detuning=0.0, kr=kr, orientation=axis)
    floor = 1e-15 * cbs.exchange_scale(params)  # as in the test above
    for rows in _conjugate_rows(kind, params, a, p):
        assert np.abs(rows[:, 1] - rows[:, 0]).max() <= 1e-12 * np.abs(rows).max() + floor


@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_detuned_conjugate_points_differ(kind):
    # detuning changes sign under the conjugation, so a detuned grid is not folded
    params = default_params(rabi=3.0, detuning=2.0, kr=30.0, orientation=(0.3, -0.5, 0.8))
    total, elastic = _conjugate_rows(kind, params, 0.9, 0.4)
    for rows in (total, elastic):
        assert np.abs(rows[:, 1] - rows[:, 0]).max() >= 1e-4 * np.abs(rows).max()


@pytest.mark.parametrize("sizes", [(4, 4), (5, 4), (6, 6), (4, 7)],
                         ids=lambda sizes: "x".join(map(str, sizes)))
@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_resonant_folded_average_matches_every_point_solved(kind, sizes):
    scheme = atoms.build_scheme(kind)
    params = default_params(rabi=10.0, detuning=0.0, kr=40.0, orientation=(0.3, -0.5, 0.8))
    folded, = cbs._phase_average(scheme, params, *sizes, [params.rabi])
    unfolded = phase_average_unfolded(scheme, params, *sizes)
    got, expected = (cbs._parts(*pairs[:2]) for pairs in (folded, unfolded))
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_resonant_spectrum_solves_the_unfolded_orbits(v_scheme, monkeypatch):
    # conjugation reverses the frequency axis of a spectrum, so it is not folded
    calls = count_phase_points(monkeypatch)
    params = default_params(rabi=3.0, detuning=0.0)
    cbs.cbs_spectrum(v_scheme, params, omega_grid=_peak_grid(3.0, 0.0), normalize=False)
    cbs.cbs_components(v_scheme, params)
    assert calls == [6, 5]


@pytest.mark.parametrize("sizes", [(4, 4), (5, 4), (4, 7), (6, 6), (8, 5)],
                         ids=lambda sizes: "x".join(map(str, sizes)))
@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_folded_phase_average_matches_every_point_solved(kind, sizes):
    scheme = atoms.build_scheme(kind)
    params = default_params(rabi=10.0, detuning=2.0, kr=40.0, orientation=(0.3, -0.5, 0.8))
    # full_j0_j1 diagonalizes a 256 x 256 generator per point, so its spectrum
    # is checked on the two smallest grids: one with both symmetries, one
    # with the mirror alone (the property test above covers the rows per point)
    grid = _peak_grid(10.0, 2.0)
    if kind == atoms.FULL_J0_J1 and sizes not in ((4, 4), (5, 4)):
        grid = None
    folded, = cbs._phase_average(scheme, params, *sizes, [params.rabi], omega_grid=grid)
    unfolded = phase_average_unfolded(scheme, params, *sizes, omega_grid=grid)
    got, expected = (cbs._parts(*pairs[:2]) for pairs in (folded, unfolded))
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
    if grid is not None:
        for got, expected in zip(folded[2], unfolded[2]):
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
