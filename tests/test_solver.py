"""Steady states, propagation, and resolvent solves against closed-form oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsim import atoms, cbs, cli, config, liouvillian as lv, solver, spectra
from cbsim.errors import (ConditioningError, ConfigurationError, DimensionError,
                          DomainError, MultiplicityError)
from conftest import generator_at
from oracles import correlation, evolve


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
    rho = solver.steady_state(single_two_level(0.0))[0]
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_steady_state_matches_bloch_oracle_at_unit_saturation():
    rabi = lv.rabi_for_saturation(1.0, 0.0)
    rho = solver.steady_state(single_two_level(rabi))[0]
    assert np.isclose(rho[1, 1].real, 0.25, atol=1e-12)
    assert np.isclose(rho[1, 1].real, bloch_excited_population(rabi, 0.0), atol=1e-12)


@pytest.mark.parametrize("rabi,detuning", [(0.3, 0.0), (2.0, 1.5), (40.0, -7.0)])
def test_steady_state_matches_bloch_oracle(rabi, detuning):
    rho = solver.steady_state(single_two_level(rabi, detuning))[0]
    assert np.isclose(rho[1, 1].real, bloch_excited_population(rabi, detuning),
                      atol=1e-12)


def test_steady_state_saturates_to_half():
    rho = solver.steady_state(single_two_level(lv.rabi_for_saturation(1e6, 0.0)))[0]
    assert abs(rho[1, 1].real - 0.5) < 1e-5


def test_steady_state_invariants_across_parameters():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    for s in (1e-3, 0.5, 10.0, 1e3):
        for detuning in (0.0, 20.0):
            p = lv.PhysicalParams(rabi=lv.rabi_for_saturation(s, detuning),
                                  detuning=detuning)
            rho = solver.steady_state(lv.GeneratorStack.from_dense(
                [generator_at(scheme, p, 1.0, 0.5)]))[0]
            solver.validate_density(rho)  # hermitian, unit trace, positive


def test_degenerate_manifold_reports_multiplicity():
    # block-diagonal generator with two independent decay-free subspaces
    stack = lv.GeneratorStack.from_dense([np.zeros((16, 16), dtype=complex)])
    with pytest.raises(MultiplicityError):
        solver.steady_state(stack)


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
    return lv.master_generator(q @ h @ q.conj().T, jumps, rates)


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
        gen = planted_slow_mode(slow_rate, rng, n_levels)
        stack = lv.GeneratorStack.from_dense([gen])
        nullity, ratio = svd_nullity(gen)
        ratios.append(ratio)
        svds_before = len(svd_calls)
        if nullity > 1:
            fired += 1
            with pytest.raises(MultiplicityError) as err:
                solver.steady_state(stack)
            assert err.value.nullity == nullity
        else:
            solver.validate_density(solver.steady_state(stack))
            unchecked += len(svd_calls) == svds_before
    assert min(ratios) < 1e-8 and max(ratios) > 1e-4
    assert 0 < fired < len(ratios)
    # well-separated slow modes pass the condition estimate without an SVD
    assert unchecked > 0


def test_svd_fallback_returns_the_same_density(monkeypatch, svd_calls):
    scheme = atoms.build_scheme(atoms.V_TYPE)
    stack = lv.GeneratorStack.from_dense(
        [generator_at(scheme, lv.PhysicalParams(rabi=2.0, detuning=1.0), 0.7, 1.9)])
    rho = solver.steady_state(stack)
    assert svd_calls == []
    monkeypatch.setattr(solver, "UNIQUENESS_MARGIN", np.inf)
    assert np.array_equal(solver.steady_state(stack), rho)
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
    # the spy above sees the check once the drive is strong enough, at each
    # of the 5 solved points (one per symmetry orbit of the 4 x 4 grid at
    # detuning 0)
    cbs.cbs_components(atoms.build_scheme(atoms.V_TYPE), lv.PhysicalParams(),
                       s=1e6, detuning=0.0)
    assert uniqueness_checks == [(81, 81)] * 5


@pytest.mark.parametrize("drive", [dict(s=1e4, detuning=0.0),
                                   dict(s=lv.saturation(100.0, 20.0), detuning=20.0)],
                         ids=["s_1e4", "rabi_100_detuning_20"])
def test_full_scheme_strong_drive_takes_no_svd_check(uniqueness_checks, drive):
    # sigma_min(M) stays hundreds of times above r ||L||_F at every phase point
    cbs.cbs_components(atoms.build_scheme(atoms.FULL_J0_J1), lv.PhysicalParams(), **drive)
    assert uniqueness_checks == []


# -- one generator stack, one slice at a time ---------------------------------


def _v_type_generator(s, a, prop):
    scheme = atoms.build_scheme(atoms.V_TYPE)
    return generator_at(scheme, lv.PhysicalParams(rabi=lv.rabi_for_saturation(s, 0.0)),
                        a, prop)


def test_stack_takes_the_svd_check_only_for_the_slice_that_trips_it(monkeypatch):
    generators = [_v_type_generator(1.0, 0.3, 1.1), _v_type_generator(1e6, 0.3, 1.1),
                    _v_type_generator(10.0, 2.0, 4.0)]
    stack = lv.GeneratorStack.from_dense(generators)
    checked = []
    original = solver._check_unique
    monkeypatch.setattr(solver, "_check_unique",
                        lambda gen: checked.append(gen) or original(gen))
    rho = solver.steady_state(stack)
    assert len(checked) == 1
    # the check sees slice 1 in the Hermitian basis, where the stack holds it
    assert np.array_equal(checked[0], stack.dense(1))
    for slice_rho, gen in zip(rho, generators):
        alone = solver.steady_state(lv.GeneratorStack.from_dense([gen]))[0]
        assert np.abs(slice_rho - alone).max() <= 1e-12


def test_slow_mode_slice_reports_its_own_nullity():
    rng = np.random.default_rng(5)
    slow = planted_slow_mode(1e-9, rng, 9)
    with pytest.raises(MultiplicityError) as alone:
        solver.steady_state(lv.GeneratorStack.from_dense([slow]))
    assert alone.value.nullity > 1
    stack = lv.GeneratorStack.from_dense([planted_slow_mode(1.0, rng, 9), slow,
                                          planted_slow_mode(0.5, rng, 9)])
    with pytest.raises(MultiplicityError) as stacked:
        solver.steady_state(stack)
    assert stacked.value.nullity == alone.value.nullity


def test_residual_bound_applies_per_slice():
    # the residual bound applies to each slice with that slice's own norm
    generators = [_v_type_generator(1.0, 0.0, 0.0), _v_type_generator(2.0, 1.0, 2.0)]
    stack = lv.GeneratorStack.from_dense(generators)
    # row 0 is not in the bordered system; a decay-in rate planted there
    # leaves the solve alone and shows only in the residual
    planted, n = stack.values.copy(), stack.hilbert_dim
    into_ground = (stack.rows == 0) & (stack.cols > 0) & (stack.cols % (n + 1) == 0)
    planted[1, into_ground] += 1e-3
    bad = replace(stack, values=planted)
    with pytest.raises(ConditioningError, match="residual") as stacked:
        solver.steady_state(bad)
    with pytest.raises(ConditioningError, match="residual") as alone:
        solver.steady_state(bad.point(1))
    assert str(stacked.value) == str(alone.value)
    solver.steady_state(replace(stack, values=planted[:1]))


# -- the drive split: the odd-parity block eliminated once per phase point ----


def drive_stack(kind, params, points, s_values):
    """The assembled stack of every saturation of ``s_values`` at each (a, p)
    of ``points``, ordered as a sweep stacks them."""
    a, p = (np.array(x, dtype=float) for x in zip(*points))
    rabi = [lv.rabi_for_saturation(s, params.detuning) for s in s_values]
    return lv.assemble(atoms.build_scheme(kind), params,
                       (np.tile(a, len(rabi)), np.tile(p, len(rabi))),
                       rabi=np.repeat(rabi, a.size))


@pytest.fixture
def direct_slices(monkeypatch):
    """The generators that ``steady_state`` solves by the LU of their bordered matrix."""
    solved = []
    original = solver._direct_route

    def spy(stack, i):
        solved.append(int(i))
        return original(stack, i)

    monkeypatch.setattr(solver, "_direct_route", spy)
    return solved


def detected_rows(kind, rho, a):
    """Per density of ``rho``, the real ladder and crossed rows of the total and
    of the elastic moment matrix of the detected transition at drive phase ``a``."""
    lows, highs = cbs._detection_operators(atoms.build_scheme(kind))
    observables = [high @ low for high in highs for low in lows] + lows + highs
    moments = np.array([op.T.reshape(-1) for op in observables]) @ rho.reshape(len(rho), -1).T
    total = moments[:4].reshape(2, 2, -1)
    elastic = moments[6:8, None] * moments[None, 4:6]
    weight = np.exp(1j * np.asarray(a))
    return [cbs._b_harmonics(mat, weight).real for mat in (total, elastic)]


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       log_kr=st.floats(1.0, 3.0), detuning=st.floats(-20.0, 20.0),
       # over a decade, so that some drive is clear of the band in which the
       # direct path decides the uniqueness check
       log_s=st.lists(st.floats(-2.0, 4.0), min_size=solver.ELIMINATION_MIN_DRIVES,
                      max_size=solver.ELIMINATION_MIN_DRIVES + 2, unique=True).filter(
           lambda xs: max(xs) - min(xs) >= 1.0),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.hypot(v[0], v[1]) > 0.1),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi))
def test_eliminated_and_direct_steady_states_give_the_same_moments(
        kind, log_kr, detuning, log_s, axis, a, p):
    # kr = 10 is the strong-exchange corner where the refinement step first mattered
    params = lv.PhysicalParams(detuning=detuning, kr=10.0**log_kr, orientation=axis)
    stack = drive_stack(kind, params, [(a, p)], 10.0 ** np.array(log_s))
    solved = []
    original = solver._direct_route
    try:
        solver._direct_route = lambda stack, i: solved.append(i) or original(stack, i)
        eliminated = solver.steady_state(stack)
    finally:
        solver._direct_route = original
    direct = solver.steady_state(replace(stack, split=None))
    assert len(solved) < len(stack)
    phase = np.full(len(stack), a)
    (total, elastic), (total_ref, elastic_ref) = (detected_rows(kind, rho, phase)
                                                  for rho in (eliminated, direct))
    # relative to the largest detected row of each generator: the elastic rows
    # and the total ones carry the same exchange scale, and the inelastic part
    # is their difference
    scale = np.abs(total_ref).max(axis=0)
    for got, expected in ((total, total_ref), (elastic, elastic_ref)):
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)


@pytest.mark.parametrize("detuning", [0.0, 20.0, -5.0])
@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_eliminated_path_checks_uniqueness_of_the_slices_the_direct_path_does(
        monkeypatch, direct_slices, kind, detuning):
    params = lv.PhysicalParams(detuning=detuning, orientation=(0.3, -0.5, 0.8))
    stack = drive_stack(kind, params, [(0.4, 1.1), (2.5, 4.0)], np.geomspace(1e3, 1e7))
    slice_of = {stack.dense(i).tobytes(): i for i in range(len(stack))}
    checked = []
    # the spy records which generator is checked, in full, and skips the SVD
    monkeypatch.setattr(solver, "_check_unique", lambda gen: checked.append(
        slice_of[gen.tobytes()] if gen.shape == (stack.dim, stack.dim) else None))
    solver.steady_state(stack)
    eliminated_checks, on_direct_path = sorted(checked), set(direct_slices)
    checked.clear()
    solver.steady_state(replace(stack, split=None))
    assert eliminated_checks == sorted(checked)
    # the Schur complement's estimate itself fired for some eliminated slices
    assert set(eliminated_checks) - on_direct_path


def test_ill_conditioned_odd_block_falls_back_to_the_direct_path(monkeypatch, direct_slices):
    params = lv.PhysicalParams(orientation=(0.3, -0.5, 0.8))
    stack = drive_stack(atoms.V_TYPE, params, [(0.4, 1.1), (2.5, 4.0)],
                        np.geomspace(0.01, 1000.0, 8))
    rho = solver.steady_state(stack)
    assert direct_slices == []
    # B's estimate, at the first phase point only, below every trigger
    odd_size = stack.dim - 41
    estimates = []
    original = solver.lapack

    class FirstOddBlockIllConditioned:
        def __getattr__(self, name):
            return getattr(original, name)

        def dgecon(self, lu, anorm):
            rcond, info = original.dgecon(lu, anorm)
            if len(lu) == odd_size:
                estimates.append(rcond)
                if len(estimates) == 1:
                    return 1e-300, info
            return rcond, info

    monkeypatch.setattr(solver, "lapack", FirstOddBlockIllConditioned())
    fallback = solver.steady_state(stack)
    first_point = np.flatnonzero(stack.split.point == stack.split.point[0])
    assert len(estimates) == 2 and sorted(direct_slices) == first_point.tolist()
    # the fallen-back point is the direct solve itself, the other is unchanged
    direct = solver.steady_state(replace(stack, split=None))
    assert np.array_equal(fallback[first_point], direct[first_point])
    others = np.setdiff1d(np.arange(len(stack)), first_point)
    assert np.array_equal(fallback[others], rho[others])


@pytest.mark.parametrize("drives", [1, solver.ELIMINATION_MIN_DRIVES - 1])
def test_phase_points_with_few_drives_take_the_direct_path(direct_slices, drives):
    # factoring B and forming C B^-1 D does not pay for so few drives
    stack = drive_stack(atoms.V_TYPE, lv.PhysicalParams(), [(0.4, 1.1), (2.5, 4.0)],
                        np.geomspace(0.1, 10.0, drives))
    rho = solver.steady_state(stack)
    assert sorted(direct_slices) == list(range(len(stack)))
    assert np.array_equal(rho, solver.steady_state(replace(stack, split=None)))


def test_phase_point_without_a_nonzero_drive_takes_the_direct_path(direct_slices):
    # C and D are read off at the strongest drive, so all of them at 0 leave
    # nothing to eliminate
    s = np.zeros(solver.ELIMINATION_MIN_DRIVES)
    stack = drive_stack(atoms.V_TYPE, lv.PhysicalParams(), [(0.4, 1.1)], s)
    rho = solver.steady_state(stack)
    assert sorted(direct_slices) == list(range(len(stack)))
    assert np.array_equal(rho, solver.steady_state(replace(stack, split=None)))
    # one drive at Rabi frequency 1 among the zeros is enough
    direct_slices.clear()
    s[2] = 0.5
    stack = drive_stack(atoms.V_TYPE, lv.PhysicalParams(), [(0.4, 1.1)], s)
    assert stack.split.rabi.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    rho = solver.steady_state(stack)
    assert direct_slices == []
    assert np.abs(rho - solver.steady_state(replace(stack, split=None))).max() <= 1e-14


@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_both_routes_read_their_bordered_matrix_from_one_scatter(monkeypatch, kind):
    params = lv.PhysicalParams(detuning=3.0, orientation=(0.3, -0.5, 0.8))
    stack = drive_stack(kind, params, [(0.4, 1.1)],
                        np.geomspace(0.1, 10.0, solver.ELIMINATION_MIN_DRIVES))
    strongest = len(stack) - 1
    even, odd = np.flatnonzero(~stack.split.odd), np.flatnonzero(stack.split.odd)
    order = np.concatenate([even, odd])
    at = np.argsort(order)
    assert at[0] == 0
    natural = stack.dense(strongest)
    placed = stack.dense(strongest, at)
    assert natural.flags.f_contiguous and placed.flags.f_contiguous
    assert np.array_equal(placed, natural[np.ix_(order, order)])
    # the bordered matrix built independently: the entries added one by one
    # into a C-ordered array, row 0 replaced by the trace functional
    trace = np.eye(stack.hilbert_dim).reshape(-1)
    bordered = np.zeros((stack.dim, stack.dim))
    np.add.at(bordered, (stack.rows, stack.cols), stack.values[strongest])
    assert np.array_equal(natural, bordered)
    bordered[0] = trace
    for places, expected in ((None, bordered), (at, bordered[np.ix_(order, order)])):
        system = solver._bordered(stack, strongest, places)
        assert system.flags.f_contiguous and np.array_equal(system, expected)
        assert np.array_equal(system[0], trace if places is None else trace[order])
    # the eliminated route receives that matrix placed even-first, and its
    # corners are the blocks A, C, D, B
    received = []
    original = solver._eliminated_batch

    def spy(system, *args):
        received.append(system.copy(order="K"))
        return original(system, *args)

    monkeypatch.setattr(solver, "_eliminated_batch", spy)
    solver.steady_state(stack)
    (system,) = received
    assert system.flags.f_contiguous
    m = even.size
    for corner, (rows, cols) in (((slice(None, m), slice(None, m)), (even, even)),
                                 ((slice(None, m), slice(m, None)), (even, odd)),
                                 ((slice(m, None), slice(None, m)), (odd, even)),
                                 ((slice(m, None), slice(m, None)), (odd, odd))):
        assert np.array_equal(system[corner], bordered[np.ix_(rows, cols)])


def sweep_stack(monkeypatch, tmp_path, text):
    """The one stack that ``cli.run_alpha_sweep`` solves for the config ``text``."""
    stacks = []
    real = cbs.steady_state
    monkeypatch.setattr(cbs, "steady_state", lambda stack: stacks.append(stack) or real(stack))
    assert cli.run_alpha_sweep(config.parse_config(text + f"output_dir = {tmp_path}\n"))[1] == 0
    monkeypatch.setattr(cbs, "steady_state", real)
    (stack,) = stacks
    return stack


def test_sweep_stack_is_solved_one_phase_point_at_a_time_in_block_solves(
        monkeypatch, tmp_path, svd_calls, direct_slices):
    stack = sweep_stack(monkeypatch, tmp_path,
                        "detuning = 0\nsweep_s = logspace(0.01, 1000, 25)\n")
    assert len(stack) == 125 and len(np.unique(stack.split.point)) == 5
    svd_calls.clear()
    direct_slices.clear()
    spy = LapackSpy(solver.lapack)
    monkeypatch.setattr(solver, "lapack", spy)
    solver.steady_state(stack)
    assert svd_calls == [] and direct_slices == []
    # one B (40 x 40) per phase point and one Schur complement (41 x 41) per drive
    factored = sorted(shapes[0] for name, shapes in spy.shapes if name == "dgetrf")
    assert factored == [(40, 40)] * 5 + [(41, 41)] * 125
    # per point, E = B^-1 D and the odd part of the refinement are one solve
    # each through B, with the 41 columns of D and the 25 drives; each drive
    # solves its Schur complement twice, for one column each time
    solved = sorted(shapes[-1] for name, shapes in spy.shapes if name == "dgetrs")
    assert solved == [(40, 25)] * 5 + [(40, 41)] * 5 + [(41,)] * 250


def test_drive_in_the_estimate_band_alone_takes_the_direct_path(monkeypatch, direct_slices):
    stack = drive_stack(atoms.V_TYPE, lv.PhysicalParams(), [(0.4, 1.1)],
                        np.geomspace(0.01, 1000.0, 8))
    frobenius = np.linalg.norm(stack.values, axis=1)
    triggers = solver.UNIQUENESS_MARGIN * math.sqrt(stack.dim) * solver.NULLITY_RATIO * frobenius
    # the third Schur complement factored, that of drive 2, reads inside the band
    schurs = []
    original = solver._factor

    def planted(matrix, overwrite=False):
        info, inverse_norm, lu, piv = original(matrix, overwrite)
        if len(matrix) == 41:
            schurs.append(matrix.shape)
            if len(schurs) == 3:
                inverse_norm = 1.5 * triggers[2]
        return info, inverse_norm, lu, piv

    monkeypatch.setattr(solver, "_factor", planted)
    spy = LapackSpy(solver.lapack)
    monkeypatch.setattr(solver, "lapack", spy)
    rho = solver.steady_state(stack)
    assert direct_slices == [2] and len(schurs) == 8
    # the seven others stay one batch: the refinement solves them through B at once
    assert [shapes[-1] for name, shapes in spy.shapes
            if name == "dgetrs" and shapes[0] == (40, 40)] == [(40, 41), (40, 7)]
    direct = solver.steady_state(replace(stack, split=None))
    assert np.abs(rho - direct).max() <= 1e-13


class FakeThreadSetter:
    """Stands in for ``openblas_set_num_threads_local``: sets a count and
    returns the previous one, recording every count set."""

    def __init__(self, count):
        self.count, self.history = count, []

    def __call__(self, count):
        previous, self.count = self.count, count
        self.history.append(count)
        return previous


def test_blas_thread_guard_restores_each_library_count(monkeypatch):
    setters = FakeThreadSetter(2), FakeThreadSetter(3)
    monkeypatch.setattr(solver, "_blas_thread_setters", lambda: setters)
    inside = []
    original = solver._factor
    monkeypatch.setattr(solver, "_factor", lambda *args: inside.append(
        [setter.count for setter in setters]) or original(*args))
    solver.steady_state(single_two_level(1.3, 0.4))
    assert inside == [[1, 1]]
    assert [setter.count for setter in setters] == [2, 3]
    with pytest.raises(ConditioningError):
        solver.steady_state(exactly_singular_border())
    assert [setter.history for setter in setters] == [[1, 2, 1, 2], [1, 3, 1, 3]]
    # the spectral kernel takes the guard too, after its steady state
    spectra.single_atom_spectrum(lv.PhysicalParams(rabi=2.0), omega_grid=np.linspace(-5, 5, 11))
    assert [setter.history[4:] for setter in setters] == [[1, 2, 1, 2], [1, 3, 1, 3]]


def test_blas_thread_guard_sets_the_real_libraries_for_the_calling_thread(monkeypatch):
    setters = solver._blas_thread_setters()
    if not setters:
        pytest.skip("no bundled OpenBLAS exports openblas_set_num_threads_local")
    before = [setter(2) for setter in setters]
    inside = []
    original = solver._factor
    monkeypatch.setattr(solver, "_factor", lambda *args: inside.append(
        [setter(1) for setter in setters]) or original(*args))
    try:
        solver.steady_state(single_two_level(1.3, 0.4))
    finally:
        after = [setter(count) for setter, count in zip(setters, before)]
    assert inside == [[1] * len(setters)] and after == [2] * len(setters)


def test_blas_thread_guard_is_a_no_op_without_the_symbol(monkeypatch):
    import _ctypes
    monkeypatch.setattr(solver.glob, "glob", lambda pattern: [_ctypes.__file__])
    assert solver._blas_thread_setters.__wrapped__() == ()
    stack = single_two_level(1.3, 0.4)
    rho = solver.steady_state(stack)
    monkeypatch.setattr(solver, "_blas_thread_setters", lambda: ())
    assert np.array_equal(solver.steady_state(stack), rho)


def hermiticity_breaking(gen, strength=1e-6):
    """``gen`` plus ``strength`` [P, .] for the projector P on level 1: still
    trace preserving, but it maps Hermitian operators to non-Hermitian ones."""
    n = math.isqrt(len(gen))
    projector = np.zeros((n, n))
    projector[1, 1] = 1.0
    commutator = np.kron(projector, np.eye(n)) - np.kron(np.eye(n), projector.T)
    return gen + strength * commutator


class LapackSpy:
    """Stands in for ``scipy.linalg.lapack``: records every routine looked up,
    and per call its name and the shapes of the arrays it is given."""

    def __init__(self, lapack):
        self.lapack, self.calls, self.shapes = lapack, [], []

    def __getattr__(self, name):
        self.calls.append(name)
        routine = getattr(self.lapack, name)

        def call(*args, **kwargs):
            self.shapes.append((name, [np.shape(a) for a in args if isinstance(a, np.ndarray)]))
            return routine(*args, **kwargs)

        return call


@pytest.mark.parametrize("kind", [atoms.TWO_LEVEL, atoms.V_TYPE])
def test_non_hermiticity_preserving_generator_rejected_before_any_factorization(
        kind, monkeypatch, svd_calls):
    if kind == atoms.TWO_LEVEL:
        gen = single_two_level(1.3, 0.4).standard(0)
    else:
        gen = _v_type_generator(2.0, 0.3, 1.1)
    bad = hermiticity_breaking(gen)
    n = math.isqrt(len(gen))
    assert np.abs(np.eye(n).reshape(-1) @ bad).max() <= 1e-15  # trace preserving
    spy = LapackSpy(solver.lapack)
    monkeypatch.setattr(solver, "lapack", spy)
    with pytest.raises(ConfigurationError, match="Hermiticity"):
        solver.steady_state(lv.GeneratorStack.from_dense([bad]))
    with pytest.raises(ConfigurationError, match="Hermiticity"):
        lv.GeneratorStack.from_dense([gen, bad])
    assert spy.calls == [] and svd_calls == []
    # the spy sees the real LU of the generator that does preserve Hermiticity
    solver.steady_state(lv.GeneratorStack.from_dense([gen]))
    assert spy.calls == ["dgetrf", "dgecon", "dgetrs", "dgetrs"]


def nan_two_level():
    """Two-level generator with entry (1, 2) set to NaN."""
    gen = single_two_level(1.0).standard(0)
    gen[1, 2] = np.nan
    return gen


def test_resolvent_rejects_nan_generator():
    with pytest.raises(ConditioningError):
        solver.ResolventSolver(nan_two_level()).factor(0.5)(
            np.array([0.3, 1.0, -1.0j, -0.3]))


def test_steady_state_populations_invariant_under_global_drive_phase():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, detuning=1.0)
    gen = generator_at(scheme, p, 0.7, 1.9)
    rho_ref = solver.steady_state(lv.GeneratorStack.from_dense([gen]))[0]
    # the same generator with the drive phases (0, 0.7) shifted by 1.1
    drive, shifted = (lv.hamiltonian_generator(lv.drive_hamiltonian(scheme, p, phases))
                      for phases in ((0.0, 0.7), (1.1, 1.8)))
    rho_shift = solver.steady_state(lv.GeneratorStack.from_dense([gen - drive + shifted]))[0]
    assert np.allclose(np.diag(rho_shift).real, np.diag(rho_ref).real, atol=1e-9)


# -- density invariants and the exactly singular border -------------------------


@pytest.mark.parametrize("rho,match", [
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
    (np.diag([0.6, 0.6]), "trace deviates"),
    (np.diag([1.1, -0.1]), "negative eigenvalue"),
], ids=["non_hermitian", "trace", "negative_eigenvalue"])
def test_density_invariants_rejected(rho, match):
    with pytest.raises(ConditioningError, match=match):
        solver.validate_density(rho)
    with pytest.raises(ConditioningError, match=match):
        solver.validate_density(np.stack([np.eye(2) / 2, rho]))  # a stack, by its worst


def rotated_density(eigenvalues, seed=6):
    """A density matrix with ``eigenvalues`` in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    unitary, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return unitary @ np.diag(eigenvalues) @ unitary.conj().T


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)) or original(a))
    return calls


def test_density_below_the_eigenvalue_floor_rejected_with_its_eigenvalue(eigvalsh_calls):
    with pytest.raises(ConditioningError, match=r"^density matrix has negative eigenvalue "
                                                r"-2\.000e-08$"):
        solver.validate_density(rotated_density([0.6, 0.4 + 2e-8, -2e-8]))
    # in a stack, the message names the eigenvalue of the slice that fails
    stack = np.stack([rotated_density([0.5, 0.3, 0.2]), rotated_density([0.7, 0.3 + 3e-8, -3e-8]),
                      rotated_density([0.6, 0.4 - 5e-9, 5e-9])])
    with pytest.raises(ConditioningError, match=r"negative eigenvalue -3\.000e-08$"):
        solver.validate_density(stack)
    assert eigvalsh_calls == [(3, 3), (3, 3, 3)]


def test_density_within_the_eigenvalue_floor_passes_without_eigenvalues(eigvalsh_calls):
    solver.validate_density(rotated_density([0.6, 0.4 + 5e-9, -5e-9]))
    solver.validate_density(np.stack([rotated_density([0.5, 0.5]), np.diag([1 + 5e-9, -5e-9])]))
    assert eigvalsh_calls == []


def exactly_singular_border():
    """L = diag(-1, 0, -1, -1) in the Hermitian basis of 2 x 2 operators."""
    on = np.array([0, 2, 3])
    return lv.GeneratorStack(2, on, on.copy(), np.array([[-1.0, -1.0, -1.0]]))


def test_exactly_singular_border_with_unique_null_vector_raises_conditioning_error():
    # L = diag(-1, 0, -1, -1) in the Hermitian basis of 2 x 2 operators has
    # the one null vector e_1 (sqrt(2) Re rho_01), which is trace-free, so
    # the bordered M annihilates it too: dgetrf meets an exact zero pivot,
    # the singular-value check finds nullity 1, and the solve is refused
    stack = exactly_singular_border()
    assert (np.linalg.svd(stack.dense(0), compute_uv=False) < 1e-12).sum() == 1
    with pytest.raises(ConditioningError, match="bordered steady-state system is singular"):
        solver.steady_state(stack)


def test_unvectorize_rejects_non_square_length():
    with pytest.raises(DimensionError, match="length 5"):
        solver.unvectorize(np.arange(5.0))


# -- time evolution -----------------------------------------------------------


def test_evolve_identity_at_zero_time():
    gen = single_two_level(1.0).standard(0)
    rho0 = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    assert np.allclose(evolve(gen, rho0, 0.0), rho0, atol=1e-14)


def test_evolve_decay_law():
    gen = single_two_level(0.0).standard(0)
    rho_e = np.diag([0.0, 1.0]).astype(complex)
    rho_t = evolve(gen, rho_e, 0.5)
    assert np.isclose(rho_t[1, 1].real, np.exp(-1.0), rtol=1e-10)


def test_evolve_converges_to_steady_state():
    stack = single_two_level(2.0, 0.5)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho_inf = evolve(stack.standard(0), rho0, 200.0)
    assert np.linalg.norm(rho_inf - solver.steady_state(stack)[0]) < 1e-8


def test_evolve_semigroup_property():
    gen = single_two_level(3.0, -1.0).standard(0)
    rho0 = np.diag([0.4, 0.6]).astype(complex)
    once = evolve(gen, rho0, 1.7)
    twice = evolve(gen, evolve(gen, rho0, 0.9), 0.8)
    assert np.linalg.norm(once - twice) < 1e-9


def test_evolve_preserves_trace_and_hermiticity():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    gen = generator_at(scheme, lv.PhysicalParams(rabi=2.0), 0.2, 0.4)
    rho0 = np.zeros((9, 9), dtype=complex)
    rho0[0, 0] = 1.0
    rho_t = evolve(gen, rho0, 3.0)
    assert abs(np.trace(rho_t) - 1.0) < 1e-9
    assert np.abs(rho_t - rho_t.conj().T).max() < 1e-9


def test_evolve_rejects_negative_time():
    with pytest.raises(DomainError):
        evolve(single_two_level(1.0).standard(0), np.eye(2, dtype=complex) / 2, -1.0)


# -- resolvent ----------------------------------------------------------------


def test_resolvent_zero_generator_is_scalar_inversion():
    rhs = np.array([1.0, 2.0, -1.0, 0.5], dtype=complex)
    x = solver.ResolventSolver(np.zeros((4, 4), dtype=complex)).factor(1.0)(rhs)
    assert np.allclose(x, rhs / 1.0j, atol=1e-14)


def test_resolvent_zero_rhs_gives_zero():
    gen = single_two_level(1.0).standard(0)
    x = solver.ResolventSolver(gen).factor(2.0)(np.zeros(4, dtype=complex))
    assert np.all(x == 0)


def test_resolvent_reports_singular_system():
    with pytest.raises(ConditioningError):
        solver.ResolventSolver(np.zeros((4, 4), dtype=complex)).factor(0.0)(
            np.ones(4, dtype=complex))


def test_resolvent_residual_bound_enforced(monkeypatch):
    # every LU solve leaves some roundoff, which a zero bound refuses
    gen = single_two_level(1.3).standard(0)
    rhs = np.array([0.3, 1.0, -1.0j, -0.3])
    solve = solver.ResolventSolver(gen).factor(0.7)
    system = -gen
    system.flat[::5] += 0.7j
    assert np.linalg.norm(system @ solve(rhs) - rhs) > 0
    monkeypatch.setattr(solver, "RESOLVENT_RESIDUAL_TOL", 0.0)
    with pytest.raises(ConditioningError, match="resolvent residual"):
        solve(rhs)


def test_resolvent_matches_time_domain_correlation():
    """Inverse transform of resolvent solutions vs evolve-based decay.

    The dipole correlation is computed twice: in the time domain by
    propagating the regression seed with the matrix exponential, and in the
    frequency domain from resolvent solves on a dense grid that is then
    Fourier-inverted (with the known smooth asymptote subtracted to control
    the truncated tails).
    """
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    stack = lv.assemble_single(scheme, lv.PhysicalParams(rabi=2.0, detuning=0.7))
    gen = stack.standard(0)
    rho = solver.steady_state(stack)[0]
    low = atoms.lowering_operator(scheme, 0)
    high = low.conj().T

    taus = np.linspace(0.0, 5.0, 101)
    seed = rho @ high - np.trace(rho @ high) * rho
    c_time = np.array([np.trace(low @ evolve(gen, seed, t)) for t in taus])

    omegas = np.arange(-300.0, 300.0001, 0.05)
    c_freq = np.array([
        correlation(gen, rho, high, low, w, connected=True) for w in omegas
    ])
    c0 = np.trace(low @ seed)
    c1 = np.trace(low @ solver.unvectorize(gen @ seed.reshape(-1)))
    w0 = 2.0
    b = c1 + w0 * c0
    regular = c_freq - c0 / (w0 - 1j * omegas) - b / (w0 - 1j * omegas) ** 2
    kernel = np.exp(-1j * np.outer(omegas, taus))
    c_rebuilt = (np.trapezoid(regular[:, None] * kernel, omegas, axis=0) / (2 * np.pi)
                 + (c0 + b * taus) * np.exp(-w0 * taus))
    err = np.abs(c_rebuilt - c_time).max() / np.abs(c_time).max()
    assert err < 1e-3
