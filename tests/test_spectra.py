"""Quantum-regression correlations and single-atom emission spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsim import atoms, cbs, dressed, liouvillian as lv, solver, spectra
from cbsim.errors import ConditioningError, DomainError
from conftest import generator_at

from test_solver import bloch_coherent_fraction, bloch_excited_population
from oracles import correlation, evolve


def driven_atom(rabi, detuning=0.0):
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    stack = lv.assemble_single(scheme, lv.PhysicalParams(rabi=rabi, detuning=detuning))
    rho = solver.steady_state(stack)[0]
    low = atoms.lowering_operator(scheme, 0)
    return stack, rho, low, low.conj().T


# -- correlation --------------------------------------------------------------


def test_correlation_off_resonant_tail_is_small():
    stack, rho, low, high = driven_atom(1.0)
    peak = max(abs(correlation(stack.standard(0), rho, high, low, w))
               for w in (0.5, 1.0, 1.5))
    far = abs(correlation(stack.standard(0), rho, high, low, 1e4))
    assert far < 1e-3 * peak


def test_correlation_real_part_peaks_at_mollow_positions():
    stack, rho, low, high = driven_atom(100.0)
    grid = np.arange(-130.0, 130.5, 0.5)
    values = np.array([
        correlation(stack.standard(0), rho, high, low, w, connected=True).real
        for w in grid
    ])
    idx = dressed.local_maxima(values, 1e-4)
    assert sorted(np.round(grid[idx])) == [-100.0, 0.0, 100.0]


def test_correlation_time_reversal_conjugation():
    """<R(0) L(tau)> equals the conjugate of <R(tau) L(0)> in steady state."""
    stack, rho, low, high = driven_atom(2.0, 0.6)
    for tau in (0.3, 1.1, 2.7):
        forward = np.trace(low @ evolve(stack.standard(0), rho @ high, tau))
        backward = np.trace(high @ evolve(stack.standard(0), low @ rho, tau))
        assert np.isclose(forward, backward.conjugate(), atol=1e-12)


def test_correlation_at_zero_tau_reduces_to_one_time_average():
    stack, rho, low, high = driven_atom(3.0, -1.0)
    # integral of the real spectral density recovers C(0) = <R L> - <R><L>
    grid = spectra.default_omega_grid(3.0, -1.0, span=150.0)
    density = np.array([
        correlation(stack.standard(0), rho, high, low, w, connected=True).real / np.pi
        for w in grid
    ])
    c0 = np.trace(rho @ high @ low) - np.trace(rho @ high) * np.trace(rho @ low)
    assert np.isclose(np.trapezoid(density, grid), c0.real, rtol=1e-2)


def detected_pair(kind, rabi, detuning, a=0.7, p=1.3, orientation=(1.0, 0.0, 0.0)):
    """Pair generator, steady state and detected-transition operators."""
    scheme = atoms.build_scheme(kind)
    params = lv.PhysicalParams(rabi=rabi, detuning=detuning, orientation=orientation)
    stack = lv.GeneratorStack.from_dense([generator_at(scheme, params, a, p)])
    rho = solver.steady_state(stack)[0]
    low = atoms.lowering_operator(scheme, scheme.cbs_transition)
    lows = [atoms.embed(low, 1), atoms.embed(low, 2)]
    highs = [op.conj().T for op in lows]
    return stack, rho, lows, highs


def test_spectral_response_matches_connected_correlation():
    # the batched kernel against independent rcond-checked single solves
    rabi, detuning = 10.0, 2.0
    stack, rho, lows, highs = detected_pair(atoms.V_TYPE, rabi, detuning)
    omega_r = dressed.generalized_rabi(rabi, detuning)
    omegas = np.array([0.0, omega_r, -omega_r, 1e3])
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    response = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    assert response.shape == (2, 2, omegas.size)
    for i, w in enumerate(omegas):
        for j in range(2):
            for k in range(2):
                ref = correlation(stack.standard(0), rho, highs[j], lows[k], w,
                                          connected=True)
                assert ref != 0.0
                assert abs(response[j, k, i] - ref) <= 1e-12 * abs(ref)


def spy_factor(monkeypatch):
    """Record the frequency of every ``ResolventSolver.factor`` call."""
    calls = []
    original = solver.ResolventSolver.factor

    def factor(self, omega):
        calls.append(omega)
        return original(self, omega)

    monkeypatch.setattr(solver.ResolventSolver, "factor", factor)
    return calls


@pytest.mark.parametrize("guard", ["EIGVEC_COND_MAX", "RESOLVENT_RESIDUAL_TOL"])
def test_spectral_response_falls_back_to_lu_when_guard_trips(monkeypatch, guard):
    stack, rho, lows, highs = detected_pair(atoms.V_TYPE, 100.0, 20.0)
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    omegas = np.concatenate([np.linspace(-250.0, 250.0, 51), [0.03, 101.98]])
    calls = spy_factor(monkeypatch)
    eigen = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    assert calls == []
    # a zero condition limit or residual tolerance trips the eigen-route guard only
    monkeypatch.setattr(spectra, guard, 0.0)
    fallback = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    assert calls == list(-omegas)
    assert np.all(np.abs(fallback - eigen) <= 1e-9 * np.abs(fallback))


def test_near_defective_generator_takes_lu_fallback(monkeypatch):
    # On resonance at rabi = gamma/2 two Bloch modes merge into a Jordan
    # block at -3 gamma/2: the eigenvectors are numerically parallel.
    stack, rho, low, high = driven_atom(0.5)
    _, vecs = np.linalg.eig(-stack.standard(0))
    assert np.linalg.cond(vecs) > spectra.EIGVEC_COND_MAX
    omegas = np.array([-3.0, -0.5, 0.0, 0.25, 1.0, 40.0])
    calls = spy_factor(monkeypatch)
    response = spectra.spectral_response(
        stack, rho, [spectra.connected_initial(rho, high)], [low], omegas)
    assert len(calls) == omegas.size
    for i, w in enumerate(omegas):
        ref = correlation(stack.standard(0), rho, high, low, w, connected=True)
        assert abs(response[0, 0, i] - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("case", [atoms.V_TYPE, atoms.FULL_J0_J1, "near_defective"])
def test_real_pair_condition_number_is_that_of_the_eigenvectors(monkeypatch, case):
    # the guard's real SVD against the complex SVD of the eigenvectors it judges
    pairs = []
    real_pair = spectra._eigvec_cond

    def both(lam, vecs):
        pairs.append((real_pair(lam, vecs), np.linalg.cond(vecs)))
        return pairs[-1][0]

    monkeypatch.setattr(spectra, "_eigvec_cond", both)
    if case == "near_defective":
        stack, rho, low, high = driven_atom(0.5)
        lows, highs = [low], [high]
    else:  # a phase point of the production spectrum
        stack, rho, lows, highs = detected_pair(case, 100.0, 20.0)
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    spectra.spectral_response(stack, rho, seeds, lows, np.array([0.0, 1.0]))
    [(real, complex_svd)] = pairs
    assert abs(real - complex_svd) <= 1e-12 * complex_svd
    assert (complex_svd > spectra.EIGVEC_COND_MAX) == (case == "near_defective")


def test_pole_sum_far_beyond_every_pole_stays_quiet():
    # (Im lam - omega)^2 overflows past |omega| ~ 1e154: those terms, below
    # 1e-154 of their weight, are dropped without a RuntimeWarning
    stack, rho, low, high = driven_atom(2.0)
    response = spectra.spectral_response(stack, rho, [spectra.connected_initial(rho, high)],
                                         [low], np.array([0.0, 1e200, -1e308]))[0, 0]
    assert np.all(np.abs(response[1:]) <= 1e-150 * abs(response[0]))


def test_nan_generator_raises_through_the_lu_fallback(monkeypatch):
    stack, rho, low, high = driven_atom(1.0)
    gen = stack.standard(0)
    gen[1, 2] = np.nan
    calls = spy_factor(monkeypatch)
    with pytest.raises(ConditioningError):
        spectra.spectral_response(lv.GeneratorStack.from_dense([gen]), rho,
                                  [spectra.connected_initial(rho, high)], [low],
                                  np.linspace(-2.0, 2.0, 9))
    assert calls == [2.0]  # the eigen route gave up; the first LU solve raised


# -- the coupled subspace ------------------------------------------------------


def spy_coupled(monkeypatch):
    """Record the size of every coupled index set the kernel solves on."""
    sizes = []
    original = spectra._coupled

    def coupled(base, rhs, project):
        keep = original(base, rhs, project)
        sizes.append(keep.size)
        return keep

    monkeypatch.setattr(spectra, "_coupled", coupled)
    return sizes


@pytest.mark.parametrize("kind,axis,size", [
    (atoms.V_TYPE, (1.0, 0.0, 0.0), 64),
    (atoms.V_TYPE, (0.3, 0.5, 0.8), 64),
    (atoms.V_TYPE, (0.0, 0.0, 1.0), 0),
    (atoms.FULL_J0_J1, (1.0, 0.0, 0.0), 64),
    (atoms.FULL_J0_J1, (0.3, 0.5, 0.8), 144),
    (atoms.FULL_J0_J1, (0.0, 0.0, 1.0), 0),
], ids=["v_type_x", "v_type_oblique", "v_type_z", "full_x", "full_oblique", "full_z"])
def test_coupled_subspace_transforms_match_full_space_solves(monkeypatch, kind, axis, size):
    # no pair state with both atoms in an undriven excited level is reached
    # from the ground state; along z no exchange turns sigma-plus into sigma-minus
    stack, rho, lows, highs = detected_pair(kind, 10.0, 2.0, orientation=axis)
    sizes = spy_coupled(monkeypatch)
    omegas = np.array([0.0, 10.2, -10.2, 3.7, -250.0])
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    response = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    assert sizes == [size]
    ref = np.array([[[correlation(stack.standard(0), rho, highs[j], lows[k], w, connected=True)
                      for w in omegas] for k in range(2)] for j in range(2)])
    if size == 0:
        assert np.all(ref == 0.0) and np.all(response == 0.0)
    else:
        assert np.all(np.abs(response - ref) <= 1e-12 * np.abs(ref))


def test_empty_coupled_subspace_has_no_poles():
    stack, rho, lows, highs = detected_pair(atoms.V_TYPE, 5.0, 1.0, orientation=(0.0, 0.0, 1.0))
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    lam, w = spectra.spectral_poles(stack, rho, seeds, lows, np.linspace(-9.0, 9.0, 7))
    assert lam.shape == (0,) and w.shape == (2, 2, 0)
    # the spectrum then fails where it failed before: no background to normalize
    params = lv.PhysicalParams(rabi=5.0, detuning=1.0, orientation=(0.0, 0.0, 1.0))
    with pytest.raises(DomainError, match="background intensity 0.0 is not positive"):
        cbs.cbs_spectrum(atoms.build_scheme(atoms.V_TYPE), params)


def test_dense_generator_keeps_every_coordinate(monkeypatch):
    rng = np.random.default_rng(5)

    def random_operator():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    h = random_operator()
    gen = lv.master_generator(h + h.conj().T, random_operator()[None], np.eye(1))
    stack = lv.GeneratorStack.from_dense([gen])
    assert np.all(stack.dense(0) != 0.0)
    rho = solver.steady_state(stack)[0]
    seed_op, observable = random_operator(), random_operator()
    sizes = spy_coupled(monkeypatch)
    omegas = np.array([-2.0, 0.0, 1.5])
    response = spectra.spectral_response(stack, rho, [spectra.connected_initial(rho, seed_op)],
                                         [observable], omegas)[0, 0]
    assert sizes == [9]
    ref = [correlation(gen, rho, seed_op, observable, w, connected=True) for w in omegas]
    assert np.all(np.abs(response - ref) <= 1e-12 * np.abs(ref))


def test_coupled_set_keeps_a_block_that_feeds_the_observed_one():
    # Coordinates 0-3 are observed; 4-7 are seeded and feed 0-3 through the
    # one entry base[1, 6]; 8-9 are reached from 0-3 (base[3, 9]) but reach
    # no seed; 10-11 are seeded but never reached from 0-3.  A closure that
    # follows the edges one way for both sets keeps only one of 0-3 and 4-7.
    rng = np.random.default_rng(11)
    base = 6.0 * np.eye(12)
    for lo, hi in ((0, 4), (4, 8), (8, 10), (10, 12)):
        base[lo:hi, lo:hi] += rng.standard_normal((hi - lo, hi - lo))
    base[1, 6], base[3, 9] = 0.5, 0.7
    rhs = np.zeros((12, 2), dtype=complex)
    rhs[4:8] = rng.standard_normal((4, 2))
    rhs[10:12] = rng.standard_normal((2, 2))
    project = np.zeros((3, 12))
    project[:, :4] = rng.standard_normal((3, 4))
    keep = spectra._coupled(base, rhs, project)
    assert keep.tolist() == list(range(8))
    for w in (-3.0, 0.0, 2.5):
        shift = 1j * w * np.eye(12)
        full = project @ np.linalg.solve(base - shift, rhs)
        reduced = project[:, keep] @ np.linalg.solve((base - shift)[np.ix_(keep, keep)],
                                                     rhs[keep])
        assert np.abs(full).min() > 0.0
        assert np.all(np.abs(reduced - full) <= 1e-12 * np.abs(full))


def test_lu_fallback_on_the_coupled_subspace_matches_the_eigen_route(monkeypatch):
    stack, rho, lows, highs = detected_pair(atoms.V_TYPE, 100.0, 20.0)
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    omegas = np.array([-122.0, -20.0, 0.0, 0.03, 101.98, 250.0])
    eigen = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    orders = []
    original = solver.ResolventSolver.factor

    def factor(self, omega):
        orders.append(len(self.base))
        return original(self, omega)

    monkeypatch.setattr(solver.ResolventSolver, "factor", factor)
    monkeypatch.setattr(spectra, "EIGVEC_COND_MAX", 0.0)
    fallback = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    assert orders == [64] * omegas.size
    assert np.all(np.abs(fallback - eigen) <= 1e-12 * np.abs(fallback))


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       log_rabi=st.floats(-3.0, 3.0), detuning=st.floats(-30.0, 30.0),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi),
       omega=st.floats(-1e3, 1e3))
def test_spectral_response_matches_correlation_anywhere(kind, log_rabi, detuning, a, p,
                                                        omega):
    rabi = 10.0 ** log_rabi
    stack, rho, lows, highs = detected_pair(kind, rabi, detuning, a, p)
    omega_r = dressed.generalized_rabi(rabi, detuning)
    omegas = np.array([0.0, omega_r, -omega_r, omega])
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    response = spectra.spectral_response(stack, rho, seeds, lows, omegas)
    # At weak drive tr[B X] is ~1e-8 of |B| |X| (the detected level fills
    # only through exchange), so roundoff of either solve sets a floor of a
    # few hundred ulps of |B_k| |seed_j| under the 1e-9 relative bound.
    floor = 1e-13 * np.outer([np.linalg.norm(s) for s in seeds],
                             [np.linalg.norm(op) for op in lows])
    for i, w in enumerate(omegas):
        ref = np.array([[correlation(stack.standard(0), rho, highs[j], lows[k], w,
                                             connected=True) for k in range(2)]
                        for j in range(2)])
        assert np.all(np.abs(response[:, :, i] - ref) <= 1e-9 * np.abs(ref) + floor)


# -- elastic weight -----------------------------------------------------------


def test_elastic_weight_vanishes_without_drive():
    stack, rho, low, high = driven_atom(0.0)
    assert abs(spectra.elastic_weight(rho, high, low)) == 0.0


def test_elastic_fraction_approaches_one_at_weak_drive():
    rabi = lv.rabi_for_saturation(1e-4, 0.0)
    stack, rho, low, high = driven_atom(rabi)
    elastic = spectra.elastic_weight(rho, high, low).real
    total = np.trace(rho @ high @ low).real
    assert np.isclose(elastic / total, 1.0, atol=2e-4)
    assert np.isclose(elastic / total, bloch_coherent_fraction(rabi, 0.0), atol=1e-9)


def test_elastic_fraction_vanishes_at_strong_drive():
    stack, rho, low, high = driven_atom(100.0)
    elastic = spectra.elastic_weight(rho, high, low).real
    total = np.trace(rho @ high @ low).real
    assert elastic / total < 1e-3


# -- frequency grid -----------------------------------------------------------


def test_default_grid_symmetric_and_covering():
    grid = spectra.default_omega_grid(100.0, 0.0)
    assert grid.max() >= 250.0 and grid.min() <= -250.0
    assert np.array_equal(grid, -grid[::-1])  # exact mirror symmetry
    # refinement present around every predicted peak
    for pos in dressed.peak_positions(100.0, 0.0).values():
        nearby = np.diff(grid[(grid > pos - 4.9) & (grid < pos + 4.9)])
        assert nearby.max() < 0.0201


def test_default_grid_covers_detuned_peaks():
    grid = spectra.default_omega_grid(100.0, 20.0)
    for pos in dressed.peak_positions(100.0, 20.0).values():
        assert grid.min() <= pos <= grid.max()


@pytest.mark.parametrize("bad", [
    lambda grid: np.random.default_rng(3).permutation(grid),
    lambda grid: grid[::-1],
    lambda grid: np.where(grid == 1.0, np.nan, grid),
    lambda grid: np.concatenate([grid[:5], grid[4:]]),
    lambda grid: grid[None, :],
    lambda grid: np.float64(1.0),
    lambda grid: grid[:1],
    lambda grid: grid[:0],
], ids=["shuffled", "descending", "nan", "repeated", "2d", "scalar", "one_point", "empty"])
@pytest.mark.parametrize("observable", [
    lambda grid: cbs.cbs_spectrum(atoms.build_scheme(atoms.V_TYPE), lv.PhysicalParams(rabi=2.0),
                                  omega_grid=grid),
    lambda grid: spectra.single_atom_spectrum(lv.PhysicalParams(rabi=2.0), omega_grid=grid),
], ids=["cbs_spectrum", "single_atom_spectrum"])
def test_bad_frequency_grid_rejected_before_any_steady_state(monkeypatch, bad, observable):
    calls = []
    for module in (cbs, spectra):
        monkeypatch.setattr(module, "steady_state", lambda stack: calls.append(stack))
    with pytest.raises(DomainError, match="frequency grid"):
        observable(bad(np.linspace(-5.0, 5.0, 11)))
    assert calls == []


@pytest.mark.parametrize("span", [-5.0, 0.0, np.nan, np.inf])
def test_default_grid_rejects_bad_span(span):
    with pytest.raises(DomainError, match="span"):
        spectra.default_omega_grid(10.0, 0.0, span=span)


@pytest.mark.parametrize("rabi,options", [
    (100.0, dict(span=1e308)),
    (1e7, {}),
], ids=["span_1e308", "auto_span_of_rabi_1e7"])
def test_default_grid_bounded_before_it_is_built(rabi, options):
    # each used to overflow an integer conversion or build ~1e8+ points
    assert spectra.default_omega_grid(100.0, 20.0).size == 7909
    assert spectra.default_omega_grid(10.0, 0.0).size == 2501
    with pytest.raises(DomainError, match="points, more than 1,000,000"):
        spectra.default_omega_grid(rabi, 0.0, **options)


# -- single-atom spectrum -------------------------------------------------------


def test_mollow_triplet_structure(mollow_spectrum):
    spec, _ = mollow_spectrum
    idx = dressed.local_maxima(spec.density, 1e-6)
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
