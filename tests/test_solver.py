"""Steady states, propagation, and resolvent solves against closed-form oracles."""

import numpy as np
import pytest

from cbsim import atoms, cbs, cli, config, liouvillian as lv, solver, spectra
from cbsim.errors import ConditioningError, DomainError, MultiplicityError


def bloch_excited_population(rabi, detuning, gamma=1.0):
    """Independent steady-state oracle for one two-level atom.

    Textbook optical Bloch result, s / (2 (1 + s)) with the saturation
    parameter s; kept separate from the production formulas on purpose.
    """
    s = rabi**2 / (2.0 * (gamma**2 + detuning**2))
    return s / (2.0 * (1.0 + s))


def bloch_coherent_fraction(rabi, detuning, gamma=1.0):
    """Coherent (elastic) fraction 1 / (1 + s) of the same oracle."""
    s = rabi**2 / (2.0 * (gamma**2 + detuning**2))
    return 1.0 / (1.0 + s)


def single_two_level(rabi, detuning=0.0):
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    return lv.assemble_single(scheme, lv.PhysicalParams(rabi=rabi, detuning=detuning))


# -- steady states ------------------------------------------------------------


def test_steady_state_no_drive_is_ground():
    liou = single_two_level(0.0)
    rho = solver.steady_state(liou)
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_steady_state_matches_bloch_oracle_at_unit_saturation():
    rabi = lv.rabi_for_saturation(1.0, 0.0)
    rho = solver.steady_state(single_two_level(rabi))
    assert np.isclose(rho[1, 1].real, 0.25, atol=1e-12)
    assert np.isclose(rho[1, 1].real, bloch_excited_population(rabi, 0.0), atol=1e-12)


@pytest.mark.parametrize("rabi,detuning", [(0.3, 0.0), (2.0, 1.5), (40.0, -7.0)])
def test_steady_state_matches_bloch_oracle(rabi, detuning):
    rho = solver.steady_state(single_two_level(rabi, detuning))
    assert np.isclose(rho[1, 1].real, bloch_excited_population(rabi, detuning),
                      atol=1e-12)


def test_steady_state_saturates_to_half():
    rho = solver.steady_state(single_two_level(lv.rabi_for_saturation(1e6, 0.0)))
    assert abs(rho[1, 1].real - 0.5) < 1e-5


def test_steady_state_invariants_across_parameters():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    for s in (1e-3, 0.5, 10.0, 1e3):
        for detuning in (0.0, 20.0):
            p = lv.PhysicalParams(rabi=lv.rabi_for_saturation(s, detuning),
                                  detuning=detuning, laser_phase_a=1.0,
                                  prop_phase_p=0.5)
            rho = solver.steady_state(lv.assemble(scheme, p))
            solver.validate_density(rho)  # hermitian, unit trace, positive


def test_degenerate_manifold_reports_multiplicity():
    # block-diagonal generator with two independent decay-free subspaces
    gen = np.zeros((16, 16), dtype=complex)
    liou = lv.Liouvillian(4, gen)
    with pytest.raises(MultiplicityError):
        solver.steady_state(liou)


def planted_slow_mode(slow_rate, rng, n_levels=3):
    """Generator dense in a random basis: levels 0 and 1 pump each other,
    level 2 leaks into 0 at ``slow_rate``, a second slow mode, and every
    further level decays into 0 at unit rate."""
    ket = np.eye(n_levels)
    pairs = [(0, 1), (1, 0), (0, 2)] + [(0, k) for k in range(3, n_levels)]
    jumps = np.array([np.outer(ket[i], ket[j]) for i, j in pairs], dtype=complex)
    h = np.zeros((n_levels, n_levels), dtype=complex)
    h[:2, :2] = [[0.3, 0.7 - 0.2j], [0.7 + 0.2j, -0.4]]
    q, _ = np.linalg.qr(rng.standard_normal((n_levels, n_levels))
                        + 1j * rng.standard_normal((n_levels, n_levels)))
    jumps = q @ jumps @ q.conj().T
    rates = np.diag([1.0, 0.6, slow_rate] + [1.0] * (n_levels - 3))
    gen = lv.master_generator(q @ h @ q.conj().T, jumps, rates)
    return lv.Liouvillian(n_levels, gen)


def svd_nullity(gen):
    """The singular-value criterion of the uniqueness check, restated."""
    svals = np.linalg.svd(gen, compute_uv=False)
    return int((svals / svals[0] < solver.NULLITY_RATIO).sum()), svals[-2] / svals[0]


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` during the test."""
    calls = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


# 3 levels, and the Liouville dimensions of the shipped pair generators
# (v_type 81, full_j0_j1 256)
@pytest.mark.parametrize("n_levels", [3, 9, 16], ids=["N9", "N81", "N256"])
def test_slow_mode_reported_exactly_when_svd_criterion_fires(n_levels, svd_calls):
    rng = np.random.default_rng(4)
    ratios, fired, unchecked = [], 0, 0
    for slow_rate in np.geomspace(1e-9, 1.0, 28):
        liou = planted_slow_mode(slow_rate, rng, n_levels)
        nullity, ratio = svd_nullity(liou.generator)
        ratios.append(ratio)
        svds_before = len(svd_calls)
        if nullity > 1:
            fired += 1
            with pytest.raises(MultiplicityError) as err:
                solver.steady_state(liou)
            assert err.value.nullity == nullity
        else:
            solver.validate_density(solver.steady_state(liou))
            unchecked += len(svd_calls) == svds_before
    assert min(ratios) < 1e-8 and max(ratios) > 1e-4
    assert 0 < fired < len(ratios)
    # well-separated slow modes pass the condition estimate without an SVD
    assert unchecked > 0


def test_svd_fallback_returns_the_same_density(monkeypatch, svd_calls):
    scheme = atoms.build_scheme(atoms.V_TYPE)
    liou = lv.assemble(scheme, lv.PhysicalParams(rabi=2.0, detuning=1.0,
                                                 laser_phase_a=0.7, prop_phase_p=1.9))
    rho = solver.steady_state(liou)
    assert svd_calls == []
    monkeypatch.setattr(solver, "UNIQUENESS_MARGIN", np.inf)
    assert np.array_equal(solver.steady_state(liou), rho)
    assert svd_calls == [(81, 81)]


def test_sweep_runs_no_svd(svd_calls, tmp_path):
    cfg = config.parse_config("detuning = 0\nsweep_s = logspace(0.01, 1000, 25)\n"
                              f"output_dir = {tmp_path}\n")
    _, failures = cli.run_alpha_sweep(cfg)
    assert failures == 0
    assert svd_calls == []


@pytest.fixture
def uniqueness_checks(monkeypatch):
    """Shapes of the generators that ``steady_state`` sends to its SVD check."""
    calls = []
    original = solver._check_unique
    monkeypatch.setattr(solver, "_check_unique",
                        lambda gen: calls.append(gen.shape) or original(gen))
    return calls


def test_production_workloads_never_take_the_svd_check(uniqueness_checks, tmp_path):
    cfg = config.parse_config("detuning = 0\nsweep_s = logspace(0.01, 1000, 25)\n"
                              f"output_dir = {tmp_path}\n")
    assert cli.run_alpha_sweep(cfg)[1] == 0
    cbs.cbs_spectrum(atoms.build_scheme(atoms.V_TYPE),
                     lv.PhysicalParams(rabi=100.0, detuning=20.0))
    assert uniqueness_checks == []


def test_svd_check_runs_at_extreme_drive(uniqueness_checks):
    # the spy above sees the check once the drive is strong enough
    cbs.cbs_components(atoms.build_scheme(atoms.V_TYPE), lv.PhysicalParams(),
                       s=1e6, detuning=0.0)
    assert uniqueness_checks == [(81, 81)] * 16


# -- one generator stack, one slice at a time ---------------------------------


def _v_type_generator(s, a, prop):
    scheme = atoms.build_scheme(atoms.V_TYPE)
    return lv.assemble(scheme, lv.PhysicalParams(rabi=lv.rabi_for_saturation(s, 0.0),
                                                 laser_phase_a=a, prop_phase_p=prop))


def test_stack_takes_the_svd_check_only_for_the_slice_that_trips_it(monkeypatch):
    liouvillians = [_v_type_generator(1.0, 0.3, 1.1), _v_type_generator(1e6, 0.3, 1.1),
                    _v_type_generator(10.0, 2.0, 4.0)]
    stack = lv.GeneratorStack.from_dense(liouvillians)
    checked = []
    original = solver._check_unique
    monkeypatch.setattr(solver, "_check_unique",
                        lambda gen: checked.append(gen) or original(gen))
    rho = solver.steady_state(stack)
    assert len(checked) == 1
    assert np.array_equal(checked[0], liouvillians[1].generator)
    for slice_rho, liou in zip(rho, liouvillians):
        assert np.abs(slice_rho - solver.steady_state(liou)).max() <= 1e-12


def test_slow_mode_slice_reports_its_own_nullity():
    rng = np.random.default_rng(5)
    slow = planted_slow_mode(1e-9, rng, 9)
    with pytest.raises(MultiplicityError) as alone:
        solver.steady_state(slow)
    assert alone.value.nullity > 1
    stack = lv.GeneratorStack.from_dense([planted_slow_mode(1.0, rng, 9), slow,
                                          planted_slow_mode(0.5, rng, 9)])
    with pytest.raises(MultiplicityError) as stacked:
        solver.steady_state(stack)
    assert stacked.value.nullity == alone.value.nullity


def test_residual_bound_applies_per_slice():
    # the residual bound applies to each slice with that slice's own norm
    liouvillians = [_v_type_generator(1.0, 0.0, 0.0), _v_type_generator(2.0, 1.0, 2.0)]
    stack = lv.GeneratorStack.from_dense(liouvillians)
    # row 0 is not in the bordered system; a decay-in rate planted there
    # leaves the solve alone and shows only in the residual
    pattern, planted = stack.pattern, stack.values.copy()
    n = pattern.hilbert_dim
    into_ground = (pattern.rows == 0) & (pattern.cols > 0) & (pattern.cols % (n + 1) == 0)
    planted[1, into_ground] += 1e-3
    bad = lv.GeneratorStack(pattern, planted)
    with pytest.raises(ConditioningError, match="residual") as stacked:
        solver.steady_state(bad)
    with pytest.raises(ConditioningError, match="residual") as alone:
        solver.steady_state(bad.liouvillian(1))
    assert str(stacked.value) == str(alone.value)
    solver.steady_state(lv.GeneratorStack(stack.pattern, planted[:1]))


def test_steady_state_populations_invariant_under_global_drive_phase():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, detuning=1.0, laser_phase_a=0.7, prop_phase_p=1.9)
    rho_ref = solver.steady_state(lv.assemble(scheme, p))
    h = lv.drive_hamiltonian(scheme, p, n_atoms=2, global_phase=1.1)
    gen = (lv.hamiltonian_generator(h) + lv.decay_dissipator(scheme, n_atoms=2)
           + lv.exchange_term(scheme, p))
    rho_shift = solver.steady_state(lv.Liouvillian(9, gen))
    assert np.allclose(np.diag(rho_shift).real, np.diag(rho_ref).real, atol=1e-9)


# -- time evolution -----------------------------------------------------------


def test_evolve_identity_at_zero_time():
    liou = single_two_level(1.0)
    rho0 = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    assert np.allclose(solver.evolve(liou, rho0, 0.0), rho0, atol=1e-14)


def test_evolve_decay_law():
    liou = single_two_level(0.0)
    rho_e = np.diag([0.0, 1.0]).astype(complex)
    rho_t = solver.evolve(liou, rho_e, 0.5)
    assert np.isclose(rho_t[1, 1].real, np.exp(-1.0), rtol=1e-10)


def test_evolve_converges_to_steady_state():
    liou = single_two_level(2.0, 0.5)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho_inf = solver.evolve(liou, rho0, 200.0)
    assert np.linalg.norm(rho_inf - solver.steady_state(liou)) < 1e-8


def test_evolve_semigroup_property():
    liou = single_two_level(3.0, -1.0)
    rho0 = np.diag([0.4, 0.6]).astype(complex)
    once = solver.evolve(liou, rho0, 1.7)
    twice = solver.evolve(liou, solver.evolve(liou, rho0, 0.9), 0.8)
    assert np.linalg.norm(once - twice) < 1e-9


def test_evolve_preserves_trace_and_hermiticity():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, laser_phase_a=0.2, prop_phase_p=0.4)
    liou = lv.assemble(scheme, p)
    rho0 = np.zeros((9, 9), dtype=complex)
    rho0[0, 0] = 1.0
    rho_t = solver.evolve(liou, rho0, 3.0)
    assert abs(np.trace(rho_t) - 1.0) < 1e-9
    assert np.abs(rho_t - rho_t.conj().T).max() < 1e-9


def test_evolve_rejects_negative_time():
    with pytest.raises(DomainError):
        solver.evolve(single_two_level(1.0), np.eye(2, dtype=complex) / 2, -1.0)


# -- resolvent ----------------------------------------------------------------


def test_resolvent_zero_generator_is_scalar_inversion():
    liou = lv.Liouvillian(2, np.zeros((4, 4), dtype=complex))
    rhs = np.array([1.0, 2.0, -1.0, 0.5], dtype=complex)
    x = solver.resolvent_solve(liou, rhs, 1.0)
    assert np.allclose(x, rhs / 1.0j, atol=1e-14)


def test_resolvent_zero_rhs_gives_zero():
    liou = single_two_level(1.0)
    x = solver.resolvent_solve(liou, np.zeros(4, dtype=complex), 2.0)
    assert np.all(x == 0)


def test_resolvent_reports_singular_system():
    liou = lv.Liouvillian(2, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ConditioningError):
        solver.resolvent_solve(liou, np.ones(4, dtype=complex), 0.0)


def test_resolvent_matches_time_domain_correlation():
    """Inverse transform of resolvent solutions vs evolve-based decay.

    The dipole correlation is computed twice: in the time domain by
    propagating the regression seed with the matrix exponential, and in the
    frequency domain from resolvent solves on a dense grid that is then
    Fourier-inverted (with the known smooth asymptote subtracted to control
    the truncated tails).
    """
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    liou = lv.assemble_single(scheme, lv.PhysicalParams(rabi=2.0, detuning=0.7))
    rho = solver.steady_state(liou)
    low = atoms.lowering_operator(scheme, 0)
    high = low.conj().T

    taus = np.linspace(0.0, 5.0, 101)
    seed = rho @ high - np.trace(rho @ high) * rho
    c_time = np.array([np.trace(low @ solver.evolve(liou, seed, t)) for t in taus])

    omegas = np.arange(-300.0, 300.0001, 0.05)
    c_freq = np.array([
        spectra.correlation(liou, rho, high, low, w, connected=True) for w in omegas
    ])
    c0 = np.trace(low @ seed)
    c1 = np.trace(low @ solver.unvectorize(liou.generator @ seed.reshape(-1)))
    w0 = 2.0
    b = c1 + w0 * c0
    regular = c_freq - c0 / (w0 - 1j * omegas) - b / (w0 - 1j * omegas) ** 2
    kernel = np.exp(-1j * np.outer(omegas, taus))
    c_rebuilt = (np.trapezoid(regular[:, None] * kernel, omegas, axis=0) / (2 * np.pi)
                 + (c0 + b * taus) * np.exp(-w0 * taus))
    err = np.abs(c_rebuilt - c_time).max() / np.abs(c_time).max()
    assert err < 1e-3
