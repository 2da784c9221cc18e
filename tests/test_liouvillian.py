"""Generator assembly: drive, decay, exchange, and their invariants."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsim import atoms, cbs, liouvillian as lv, solver
from cbsim.errors import ConfigurationError, DimensionError, DomainError


def random_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return h + h.conj().T


# -- saturation conversions --------------------------------------------------


def test_saturation_values():
    assert np.isclose(lv.saturation(np.sqrt(2.0), 0.0), 1.0, rtol=1e-14)
    assert lv.saturation(0.0, 17.3) == 0.0
    assert np.isclose(lv.saturation(100.0, 20.0), 10000.0 / 802.0, rtol=1e-14)


def test_rabi_for_saturation_inverts():
    assert np.isclose(lv.rabi_for_saturation(1.0, 0.0), np.sqrt(2.0), rtol=1e-14)
    # far-detuned: s = 1/2 corresponds to rabi close to the detuning
    rabi = lv.rabi_for_saturation(0.5, 20.0)
    assert abs(rabi / 20.0 - 1.0) < 2e-3
    # round trip at the worked strong-drive point
    s = lv.saturation(100.0, 20.0)
    assert np.isclose(lv.rabi_for_saturation(s, 20.0), 100.0, rtol=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s, d = rng.uniform(0, 50), rng.uniform(-30, 30)
        assert np.isclose(lv.saturation(lv.rabi_for_saturation(s, d), d), s,
                          rtol=1e-12, atol=1e-12)


def test_negative_saturation_rejected():
    with pytest.raises(DomainError):
        lv.rabi_for_saturation(-0.1, 0.0)


# -- parameter validation ----------------------------------------------------


def test_params_reduce_phases():
    p = lv.PhysicalParams(laser_phase_a=7.0, detect_phase_b=-1.0, prop_phase_p=2.0)
    for phase in (p.laser_phase_a, p.detect_phase_b, p.prop_phase_p):
        assert 0.0 <= phase < 2.0 * np.pi
    assert np.isclose(p.laser_phase_a, 7.0 - 2.0 * np.pi)
    assert np.isclose(p.detect_phase_b, 2.0 * np.pi - 1.0)


def test_transverse_weights_normalize_orientation(v_scheme):
    p = lv.PhysicalParams(orientation=(0.0, 2.0, 0.0))
    assert p.orientation == (0.0, 2.0, 0.0)
    unit = lv.PhysicalParams(orientation=(0.0, 1.0, 0.0))
    assert np.array_equal(lv.transverse_weights(v_scheme, p),
                          lv.transverse_weights(v_scheme, unit))


def test_replace_keeps_orientation_bits():
    # re-normalizing on every construction moved 14 of these in the last bit
    for orientation in cbs.sample_orientations(2000, 5):
        p = lv.PhysicalParams(orientation=orientation)
        assert replace(p, rabi=1.0).orientation == orientation


def test_params_reject_bad_values():
    with pytest.raises(DomainError):
        lv.PhysicalParams(rabi=-1.0)
    with pytest.raises(DomainError):
        lv.PhysicalParams(kr=5.0)
    with pytest.raises(ConfigurationError):
        lv.PhysicalParams(coupling_mode="tensor")
    with pytest.raises(ConfigurationError):
        lv.PhysicalParams(orientation=(0.0, 0.0, 0.0))
    # nonzero, but its norm underflows to 0 in transverse_weights
    with pytest.raises(ConfigurationError):
        lv.PhysicalParams(orientation=(1e-170, 1e-170, 0.0))


def test_params_store_orientation_as_float_tuple():
    p = lv.PhysicalParams(orientation=np.array([0, 2, 0]))
    assert p.orientation == (0.0, 2.0, 0.0) and type(p.orientation) is tuple
    assert hash(p) == hash(lv.PhysicalParams(orientation=[0.0, 2.0, 0.0]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["rabi", "detuning", "gamma", "kr", "laser_phase_a",
                                   "detect_phase_b", "prop_phase_p"])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(DomainError, match=field):
        lv.PhysicalParams(**{field: value})


# -- drive Hamiltonian -------------------------------------------------------


def test_drive_vanishes_without_field():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    h = lv.drive_hamiltonian(scheme, lv.PhysicalParams(rabi=0.0, detuning=0.0), n_atoms=1)
    assert np.all(h == 0)


def test_drive_single_atom_structure():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    h = lv.drive_hamiltonian(scheme, lv.PhysicalParams(rabi=3.0, detuning=0.0), n_atoms=1)
    assert np.allclose(h, np.array([[0.0, 1.5], [1.5, 0.0]]))


def test_drive_detuning_pulls_every_excited_level():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    h = lv.drive_hamiltonian(scheme, lv.PhysicalParams(rabi=0.0, detuning=2.5), n_atoms=1)
    assert np.allclose(np.diag(h), [0.0, -2.5, -2.5])


def test_drive_hermitian_with_phases():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=4.0, detuning=-3.0, laser_phase_a=1.2)
    h = lv.drive_hamiltonian(scheme, p)
    assert np.allclose(h, h.conj().T)


def test_drive_requires_driven_transition():
    bare = atoms.LevelScheme(
        kind="bare", levels=(atoms.Level("|g>"), atoms.Level("|e>")),
        transitions=(atoms.Transition(0, 1, atoms.SIGMA_MINUS),))
    with pytest.raises(ConfigurationError):
        lv.drive_hamiltonian(bare, lv.PhysicalParams(rabi=1.0))


# -- decay -------------------------------------------------------------------


def test_undriven_excited_population_decays_at_2gamma():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    liou = lv.assemble_single(scheme, lv.PhysicalParams(rabi=0.0))
    rho_e = np.zeros((2, 2), dtype=complex)
    rho_e[1, 1] = 1.0
    for t in (0.2, 0.5, 1.3):
        rho_t = solver.evolve(liou, rho_e, t)
        assert np.isclose(rho_t[1, 1].real, np.exp(-2.0 * t), rtol=1e-9)


def test_ground_state_stationary_under_decay():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    diss = lv.decay_dissipator(scheme, n_atoms=2)
    ground = np.zeros((9, 9), dtype=complex)
    ground[0, 0] = 1.0
    assert np.abs(diss @ ground.reshape(-1)).max() < 1e-14


def test_decay_preserves_trace():
    rng = np.random.default_rng(1)
    scheme = atoms.build_scheme(atoms.FULL_J0_J1)
    diss = lv.decay_dissipator(scheme, n_atoms=1)
    for _ in range(10):
        rho = random_hermitian(rng, 4)
        out = solver.unvectorize(diss @ rho.reshape(-1))
        assert abs(np.trace(out)) < 1e-12 * np.abs(rho).max()


# -- exchange ----------------------------------------------------------------


def test_transverse_weights_perpendicular_axis():
    scheme = atoms.build_scheme(atoms.FULL_J0_J1)
    p = lv.PhysicalParams(orientation=(1.0, 0.0, 0.0))
    t = lv.transverse_weights(scheme, p)
    plus, minus, pi_ = (scheme.transition_index(pol) for pol in
                        (atoms.SIGMA_PLUS, atoms.SIGMA_MINUS, atoms.PI))
    assert np.isclose(t[plus, plus], 0.5)
    assert np.isclose(t[plus, minus], 0.5)
    assert np.isclose(t[minus, plus], 0.5)
    assert np.isclose(t[pi_, pi_], 1.0)
    assert np.isclose(t[plus, pi_], 0.0)


def test_transverse_weights_hermitian_any_axis():
    scheme = atoms.build_scheme(atoms.FULL_J0_J1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = lv.PhysicalParams(orientation=tuple(rng.standard_normal(3)))
        t = lv.transverse_weights(scheme, p)
        assert np.allclose(t, t.conj().T)
        # eigenvalues of the projector sandwich lie in [0, 1]
        eigs = np.linalg.eigvalsh(t)
        assert eigs.min() > -1e-12 and eigs.max() < 1.0 + 1e-12


def test_scalar_weights_are_identity():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(coupling_mode=lv.SCALAR)
    assert np.array_equal(lv.transverse_weights(scheme, p), np.eye(2))


def test_exchange_scales_exactly_as_inverse_kr():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p1 = lv.PhysicalParams(kr=100.0, prop_phase_p=0.8)
    p2 = lv.PhysicalParams(kr=200.0, prop_phase_p=0.8)
    ex1 = lv.exchange_term(scheme, p1)
    ex2 = lv.exchange_term(scheme, p2)
    assert np.allclose(ex1, 2.0 * ex2, rtol=1e-13, atol=1e-16)


def test_exchange_vanishes_at_large_separation():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    near = lv.exchange_term(scheme, lv.PhysicalParams(kr=100.0, prop_phase_p=0.8))
    far = lv.exchange_term(scheme, lv.PhysicalParams(kr=1e9, prop_phase_p=0.8))
    assert np.abs(far).max() < 1.01e-7 * np.abs(near).max()  # ratio is exactly 1e-7
    assert np.abs(far).max() < 2e-9  # absolute decoupling scale


def test_scalar_mode_never_populates_detected_level():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, coupling_mode=lv.SCALAR,
                          laser_phase_a=0.4, prop_phase_p=1.0)
    rho = solver.steady_state(lv.assemble(scheme, p))
    pop2 = atoms.embed(atoms.level_projector(scheme, 1), 1)
    assert abs(np.trace(rho @ pop2)) < 1e-14


def test_assemble_pure_decay_steady_state_is_double_ground():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    liou = lv.assemble(scheme, lv.PhysicalParams(rabi=0.0), include_exchange=False)
    rho = solver.steady_state(liou)
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_assembled_generator_spectrum_in_left_half_plane():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=lv.rabi_for_saturation(2.0, 1.0), detuning=1.0,
                          laser_phase_a=0.9, prop_phase_p=2.2)
    liou = lv.assemble(scheme, p)
    eigs = np.linalg.eigvals(liou.generator)
    assert eigs.real.max() <= 1e-10
    assert np.abs(eigs).min() <= 1e-10  # stationary mode present


def test_trace_preservation_on_random_states():
    rng = np.random.default_rng(6)
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=3.0, detuning=-2.0, laser_phase_a=1.0, prop_phase_p=0.3)
    gen = lv.assemble(scheme, p).generator
    for _ in range(100):
        rho = random_hermitian(rng, 9)
        out = solver.unvectorize(gen @ rho.reshape(-1))
        assert abs(np.trace(out)) <= 1e-10 * np.abs(rho).max()


def test_trace_preservation_on_operator_basis():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=1.5, prop_phase_p=1.0)
    gen = lv.assemble(scheme, p).generator
    # tr(L(E_ij)) for the complete matrix-unit basis, all at once
    trace_of_columns = np.eye(9, dtype=complex).reshape(-1) @ gen
    assert np.abs(trace_of_columns).max() < 1e-12 * np.abs(gen).max()


def test_hermiticity_preservation():
    rng = np.random.default_rng(7)
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, detuning=4.0, laser_phase_a=2.0, prop_phase_p=5.0)
    gen = lv.assemble(scheme, p).generator
    for _ in range(10):
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        lx = solver.unvectorize(gen @ x.reshape(-1))
        lxd = solver.unvectorize(gen @ (x.conj().T).reshape(-1))
        assert np.abs(lx.conj().T - lxd).max() < 1e-12 * np.abs(lx).max()


def test_uncoupled_pair_factorizes():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, detuning=1.0, laser_phase_a=0.8)
    pair = lv.assemble(scheme, p, include_exchange=False)

    # action on a product operator equals the sum of single-atom actions
    single_0 = lv.assemble_single(scheme, p)
    h2 = lv.drive_hamiltonian(scheme, p, n_atoms=1, global_phase=p.laser_phase_a)
    gen2 = lv.hamiltonian_generator(h2) + lv.decay_dissipator(scheme, n_atoms=1)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = solver.unvectorize(pair.generator @ np.kron(x, y).reshape(-1))
    dx = solver.unvectorize(single_0.generator @ x.reshape(-1))
    dy = solver.unvectorize(gen2 @ y.reshape(-1))
    assert np.allclose(lhs, np.kron(dx, y) + np.kron(x, dy), atol=1e-12)

    # steady state of the pair is the product of single-atom steady states
    rho_pair = solver.steady_state(pair)
    rho_1 = solver.steady_state(single_0)
    rho_2 = solver.steady_state(lv.Liouvillian(3, gen2))
    assert np.linalg.norm(rho_pair - np.kron(rho_1, rho_2)) < 1e-9


# -- independent reference: term-by-term Lindblad and exchange formulas ------------


def _ref_hamiltonian(h):
    """rho -> -i [h, rho] with vec(A rho B) = (A kron B^T) vec(rho)."""
    ident = np.eye(h.shape[0])
    return -1j * (np.kron(h, ident) - np.kron(ident, h.T))


def _ref_dissipator(jump_b, jump_a, rate):
    """rho -> rate (J_b rho J_a+ - {J_a+ J_b, rho} / 2)."""
    ident = np.eye(jump_b.shape[0])
    prod = jump_a.conj().T @ jump_b
    return rate * (np.kron(jump_b, jump_a.conj()) - 0.5 * np.kron(prod, ident)
                   - 0.5 * np.kron(ident, prod.T))


def _ref_decay(scheme, n_atoms, gamma):
    dim = scheme.n_levels**n_atoms
    out = np.zeros((dim**2, dim**2), dtype=complex)
    for t in range(len(scheme.transitions)):
        low = atoms.lowering_operator(scheme, t)
        for jump in ([low] if n_atoms == 1 else [atoms.embed(low, 1), atoms.embed(low, 2)]):
            out += _ref_dissipator(jump, jump, 2.0 * gamma)
    return out


def _ref_exchange(scheme, p, cross_damping):
    g0 = 1.5 * p.gamma / p.kr
    weights = lv.transverse_weights(scheme, p)
    dim = scheme.n_levels**2
    h = np.zeros((dim, dim), dtype=complex)
    damping = np.zeros((dim**2, dim**2), dtype=complex)
    n_t = len(scheme.transitions)
    for j, k in ((1, 2), (2, 1)):
        for q in range(n_t):
            raise_jq = atoms.embed(atoms.raising_operator(scheme, q), j)
            for qp in range(n_t):
                lower_kqp = atoms.embed(atoms.lowering_operator(scheme, qp), k)
                h += -g0 * np.cos(p.prop_phase_p) * weights[q, qp] * (raise_jq @ lower_kqp)
                if cross_damping:
                    rate = 2.0 * g0 * np.sin(p.prop_phase_p) * weights[q, qp]
                    damping += _ref_dissipator(lower_kqp, raise_jq.conj().T, rate)
    return _ref_hamiltonian(h) + damping


def _assert_same_generator(built, reference):
    assert built.shape == reference.shape
    assert np.abs(built - reference).max() <= 1e-14 * np.abs(reference).max()


@pytest.mark.parametrize("kind", atoms.SCHEME_KINDS)
@pytest.mark.parametrize("mode", [lv.VECTOR, lv.SCALAR])
@pytest.mark.parametrize("include_exchange", [True, False])
@pytest.mark.parametrize("cross_damping", [True, False])
def test_generator_matches_term_by_term_reference(kind, mode, include_exchange,
                                                   cross_damping):
    rng = np.random.default_rng(11)
    scheme = atoms.build_scheme(kind)
    p = lv.PhysicalParams(rabi=2.7, detuning=-1.3, gamma=0.8, kr=37.0,
                          laser_phase_a=0.9, prop_phase_p=2.2,
                          orientation=tuple(rng.standard_normal(3)), coupling_mode=mode)
    pair = lv.drive_hamiltonian(scheme, p, n_atoms=2)
    reference = _ref_hamiltonian(pair) + _ref_decay(scheme, 2, p.gamma)
    if include_exchange:
        reference = reference + _ref_exchange(scheme, p, cross_damping)
    built = lv.assemble(scheme, p, include_exchange=include_exchange,
                        cross_damping=cross_damping)
    _assert_same_generator(built.generator, reference)
    _assert_same_generator(lv.exchange_term(scheme, p, cross_damping=cross_damping),
                           _ref_exchange(scheme, p, cross_damping))
    for n_atoms in (1, 2):
        _assert_same_generator(lv.decay_dissipator(scheme, n_atoms=n_atoms, gamma=p.gamma),
                               _ref_decay(scheme, n_atoms, p.gamma))
    single = _ref_hamiltonian(lv.drive_hamiltonian(scheme, p, n_atoms=1))
    _assert_same_generator(lv.assemble_single(scheme, p).generator,
                           single + _ref_decay(scheme, 1, p.gamma))


@pytest.mark.parametrize("kind", atoms.SCHEME_KINDS)
@pytest.mark.parametrize("mode", [lv.VECTOR, lv.SCALAR])
@pytest.mark.parametrize("include_exchange", [True, False])
@pytest.mark.parametrize("cross_damping", [True, False])
@settings(max_examples=10, deadline=None)
@given(log_rabi=st.floats(-3.0, 3.0), detuning=st.floats(-30.0, 30.0),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi))
def test_cached_assembly_matches_reference_anywhere(kind, mode, include_exchange,
                                                    cross_damping, log_rabi, detuning, a, p):
    scheme = atoms.build_scheme(kind)
    params = lv.PhysicalParams(rabi=10.0**log_rabi, detuning=detuning, gamma=0.8, kr=37.0,
                               laser_phase_a=a, prop_phase_p=p,
                               orientation=(0.3, -0.5, 0.8), coupling_mode=mode)
    reference = (_ref_hamiltonian(lv.drive_hamiltonian(scheme, params, n_atoms=2))
                 + _ref_decay(scheme, 2, params.gamma))
    if include_exchange:
        reference = reference + _ref_exchange(scheme, params, cross_damping)
    built = lv.assemble(scheme, params, include_exchange=include_exchange,
                        cross_damping=cross_damping)
    _assert_same_generator(built.generator, reference)


def test_non_trace_preserving_slice_rejected(v_scheme):
    params = lv.PhysicalParams(rabi=2.0, detuning=1.0)
    stack = lv.assemble(v_scheme, params, phases=([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]))
    lv._check_trace_preserving(stack)
    planted = stack.values.copy()
    first_trace_entry = np.flatnonzero(stack.pattern.on_trace_row)[0]
    planted[1, first_trace_entry] += 1e-6
    with pytest.raises(ConfigurationError, match="not trace preserving"):
        lv._check_trace_preserving(lv.GeneratorStack(stack.pattern, planted))
    # the same slice alone fails too, the others pass
    with pytest.raises(ConfigurationError, match="not trace preserving"):
        lv._check_trace_preserving(lv.GeneratorStack(stack.pattern, planted[1:2]))
    lv._check_trace_preserving(lv.GeneratorStack(stack.pattern, planted[::2]))


def test_stack_slices_equal_single_point_assembly(v_scheme):
    params = lv.PhysicalParams(rabi=1.7, detuning=-0.4, prop_phase_p=0.2)
    a, p = [0.0, 0.9, 4.0], [3.0, 0.1, 5.5]
    stack = lv.assemble(v_scheme, params, phases=(a, p), cross_damping=False)
    assert len(stack) == 3
    for i in range(3):
        alone = lv.assemble(v_scheme, replace(params, laser_phase_a=a[i], prop_phase_p=p[i]),
                            cross_damping=False).generator
        assert np.abs(stack.dense(i) - alone).max() <= 1e-15 * np.abs(alone).max()
    with pytest.raises(DimensionError):
        lv.assemble(v_scheme, params, phases=(a, p[:2]))


def test_cached_blocks_are_read_only(v_scheme):
    params = lv.PhysicalParams(rabi=2.0)
    pattern, values = lv._pair_blocks(v_scheme, params)
    parts = [values] + [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
    assert len(parts) == 7  # values and the pattern's six index arrays
    for part in parts:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 1
    # every call gets a generator of its own
    first, second = lv.assemble(v_scheme, params), lv.assemble(v_scheme, params)
    first.generator[0, 0] += 1.0
    assert first.generator[0, 0] != second.generator[0, 0]


def test_block_cache_bounded_over_isotropic_average(v_scheme):
    cbs.cbs_components_isotropic(v_scheme, lv.PhysicalParams(), s=1.0, n_configs=64)
    info = lv._affine_blocks.cache_info()
    assert info.maxsize == lv.BLOCK_CACHE_SIZE
    assert info.currsize == lv.BLOCK_CACHE_SIZE


def test_two_orientation_average_reuses_blocks_across_saturations(v_scheme):
    # an isotropic sweep loops over orientations inside every saturation;
    # each phase grid looks its blocks up once
    lv._affine_blocks.cache_clear()
    cbs.sweep_alpha_collect(v_scheme, 0.0, [0.5, 2.0], n_configs=2, seed=3)
    info = lv._affine_blocks.cache_info()
    assert (info.misses, info.hits) == (2, 2)
