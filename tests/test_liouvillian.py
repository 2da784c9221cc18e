"""Generator assembly: drive, decay, exchange, and their invariants."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsim import atoms, cbs, liouvillian as lv, solver
from cbsim.errors import ConfigurationError, DimensionError, DomainError
from conftest import generator_at, uncoupled_pair
from oracles import evolve


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


def test_saturation_conversions_do_not_overflow():
    # both sides square neither rabi nor detuning
    assert lv.saturation(1e200, 0.0) == math.inf
    assert lv.saturation(1e200, 1e200) == 0.5
    assert lv.saturation(1.0, 1e200) == 0.0
    assert lv.rabi_for_saturation(1.0, 1e200) == math.sqrt(2.0) * 1e200


# -- parameter validation ----------------------------------------------------


def test_params_hold_only_what_a_run_sets():
    # gamma is the unit; the disorder phases are arguments of assemble
    assert [f.name for f in fields(lv.PhysicalParams)] == [
        "rabi", "detuning", "kr", "orientation"]


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
    with pytest.raises(DomainError, match="kr <= 1e\\+150"):
        lv.PhysicalParams(kr=1e160)
    with pytest.raises(ConfigurationError):
        lv.PhysicalParams(orientation=(0.0, 0.0, 0.0))
    # finite and nonzero, but the norm transverse_weights divides by
    # underflows to 0 or overflows to inf (which would make T the identity)
    for orientation in ((1e-170, 1e-170, 0.0), (1e200, 1e200, 0.0)):
        with pytest.raises(ConfigurationError, match="finite nonzero norm"):
            lv.PhysicalParams(orientation=orientation)


def test_alpha_unchanged_up_to_kr_max(v_scheme):
    # the intensities scale as (1.5 / kr)^2, subnormal past kr ~ 1e154
    far, near = (cbs.cbs_components(v_scheme, lv.PhysicalParams(kr=kr), s=1.0, detuning=0.0)
                 for kr in (lv.KR_MAX, 1e10))
    assert abs(far.alpha - near.alpha) <= 1e-14 * near.alpha


def test_params_store_orientation_as_float_tuple():
    p = lv.PhysicalParams(orientation=np.array([0, 2, 0]))
    assert p.orientation == (0.0, 2.0, 0.0) and type(p.orientation) is tuple
    assert hash(p) == hash(lv.PhysicalParams(orientation=[0.0, 2.0, 0.0]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["rabi", "detuning", "kr", "laser_phase_a",
                                   "detect_phase_b", "prop_phase_p"])
def test_params_reject_non_finite_values(v_scheme, field, value):
    # the drive (a), detection (b) and propagation (p) phases are rejected
    # by the calls that take them
    params = lv.PhysicalParams(rabi=1.0)
    phases = {
        "laser_phase_a": lambda: lv.assemble(v_scheme, params, ([0.0, value], [0.0, 0.0])),
        "detect_phase_b": lambda: cbs.detected_intensity(v_scheme, params, b=value),
        "prop_phase_p": lambda: lv.assemble(v_scheme, params, ([0.0, 0.0], [0.0, value])),
    }
    reject = phases.get(field, lambda: lv.PhysicalParams(**{field: value}))
    with pytest.raises(DomainError, match="phase" if field in phases else field):
        reject()


# -- drive Hamiltonian -------------------------------------------------------


def test_drive_vanishes_without_field():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    h = lv.drive_hamiltonian(scheme, lv.PhysicalParams(rabi=0.0, detuning=0.0), (0.0,))
    assert np.all(h == 0)


def test_drive_single_atom_structure():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    h = lv.drive_hamiltonian(scheme, lv.PhysicalParams(rabi=3.0, detuning=0.0), (0.0,))
    assert np.allclose(h, np.array([[0.0, 1.5], [1.5, 0.0]]))


def test_drive_detuning_pulls_every_excited_level():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    h = lv.drive_hamiltonian(scheme, lv.PhysicalParams(rabi=0.0, detuning=2.5), (0.0,))
    assert np.allclose(np.diag(h), [0.0, -2.5, -2.5])


def test_drive_hermitian_with_phases():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=4.0, detuning=-3.0)
    h = lv.drive_hamiltonian(scheme, p, (0.3, 1.5))
    assert np.allclose(h, h.conj().T)
    with pytest.raises(ConfigurationError, match="one drive phase per atom"):
        lv.drive_hamiltonian(scheme, p, (0.0, 0.0, 0.0))


def test_drive_requires_driven_transition():
    bare = atoms.LevelScheme(
        kind="bare", levels=("|g>", "|e>"),
        transitions=(atoms.Transition(0, 1, atoms.SIGMA_MINUS),))
    with pytest.raises(ConfigurationError):
        lv.drive_hamiltonian(bare, lv.PhysicalParams(rabi=1.0))


# -- decay -------------------------------------------------------------------


def test_undriven_excited_population_decays_at_2gamma():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    gen = lv.assemble_single(scheme, lv.PhysicalParams(rabi=0.0)).standard(0)
    rho_e = np.zeros((2, 2), dtype=complex)
    rho_e[1, 1] = 1.0
    for t in (0.2, 0.5, 1.3):
        rho_t = evolve(gen, rho_e, t)
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


def exchange(scheme, params, p):
    """The exchange part of the generator at propagation phase ``p``."""
    return generator_at(scheme, params, p=p) - uncoupled_pair(scheme, params)


def test_exchange_scales_exactly_as_inverse_kr():
    # L(kr) - L(2 kr) is half the exchange at kr, all from the cached blocks
    scheme = atoms.build_scheme(atoms.V_TYPE)
    l100, l200, l400 = (generator_at(scheme, lv.PhysicalParams(kr=kr), p=0.8)
                        for kr in (100.0, 200.0, 400.0))
    assert np.allclose(l100 - l200, 2.0 * (l200 - l400), rtol=1e-13, atol=1e-16)


def test_exchange_vanishes_at_large_separation():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    near = exchange(scheme, lv.PhysicalParams(kr=100.0), 0.8)
    far = exchange(scheme, lv.PhysicalParams(kr=1e9), 0.8)
    assert np.abs(far).max() < 1.01e-7 * np.abs(near).max()  # ratio is exactly 1e-7
    assert np.abs(far).max() < 2e-9  # absolute decoupling scale


def test_assemble_pure_decay_steady_state_is_double_ground():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    gen = uncoupled_pair(scheme, lv.PhysicalParams(rabi=0.0))
    rho = solver.steady_state(lv.GeneratorStack.from_dense([gen]))[0]
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_assembled_generator_spectrum_in_left_half_plane():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=lv.rabi_for_saturation(2.0, 1.0), detuning=1.0)
    eigs = np.linalg.eigvals(generator_at(scheme, p, 0.9, 2.2))
    assert eigs.real.max() <= 1e-10
    assert np.abs(eigs).min() <= 1e-10  # stationary mode present


def test_trace_preservation_on_random_states():
    rng = np.random.default_rng(6)
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=3.0, detuning=-2.0)
    gen = generator_at(scheme, p, 1.0, 0.3)
    for _ in range(100):
        rho = random_hermitian(rng, 9)
        out = solver.unvectorize(gen @ rho.reshape(-1))
        assert abs(np.trace(out)) <= 1e-10 * np.abs(rho).max()


def test_trace_preservation_on_operator_basis():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    gen = generator_at(scheme, lv.PhysicalParams(rabi=1.5), p=1.0)
    # tr(L(E_ij)) for the complete matrix-unit basis, all at once
    trace_of_columns = np.eye(9, dtype=complex).reshape(-1) @ gen
    assert np.abs(trace_of_columns).max() < 1e-12 * np.abs(gen).max()


def test_hermiticity_preservation():
    rng = np.random.default_rng(7)
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, detuning=4.0)
    gen = generator_at(scheme, p, 2.0, 5.0)
    for _ in range(10):
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        lx = solver.unvectorize(gen @ x.reshape(-1))
        lxd = solver.unvectorize(gen @ (x.conj().T).reshape(-1))
        assert np.abs(lx.conj().T - lxd).max() < 1e-12 * np.abs(lx).max()


def test_uncoupled_pair_factorizes():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    p = lv.PhysicalParams(rabi=2.0, detuning=1.0)
    pair = uncoupled_pair(scheme, p, a=0.8)

    # action on a product operator equals the sum of single-atom actions
    single_0 = lv.assemble_single(scheme, p)
    h2 = lv.drive_hamiltonian(scheme, p, (0.8,))
    gen2 = lv.hamiltonian_generator(h2) + lv.decay_dissipator(scheme, n_atoms=1)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = solver.unvectorize(pair @ np.kron(x, y).reshape(-1))
    dx = solver.unvectorize(single_0.standard(0) @ x.reshape(-1))
    dy = solver.unvectorize(gen2 @ y.reshape(-1))
    assert np.allclose(lhs, np.kron(dx, y) + np.kron(x, dy), atol=1e-12)

    # steady state of the pair is the product of single-atom steady states
    rho_pair = solver.steady_state(lv.GeneratorStack.from_dense([pair]))[0]
    rho_1 = solver.steady_state(single_0)[0]
    rho_2 = solver.steady_state(lv.GeneratorStack.from_dense([gen2]))[0]
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


def _ref_decay(scheme, n_atoms):
    dim = scheme.n_levels**n_atoms
    out = np.zeros((dim**2, dim**2), dtype=complex)
    for t in range(len(scheme.transitions)):
        low = atoms.lowering_operator(scheme, t)
        for jump in ([low] if n_atoms == 1 else [atoms.embed(low, 1), atoms.embed(low, 2)]):
            out += _ref_dissipator(jump, jump, 2.0)
    return out


def _ref_exchange(scheme, params, p, cross_damping=True, mode="vector"):
    """Photon exchange term by term; ``mode="scalar"`` takes T = 1 for every
    transition pair, and ``cross_damping=False`` keeps only the coherent part."""
    g0 = 1.5 / params.kr
    n_t = len(scheme.transitions)
    weights = np.eye(n_t) if mode == "scalar" else lv.transverse_weights(scheme, params)
    dim = scheme.n_levels**2
    h = np.zeros((dim, dim), dtype=complex)
    damping = np.zeros((dim**2, dim**2), dtype=complex)
    for j, k in ((1, 2), (2, 1)):
        for q in range(n_t):
            raise_jq = atoms.embed(atoms.raising_operator(scheme, q), j)
            for qp in range(n_t):
                lower_kqp = atoms.embed(atoms.lowering_operator(scheme, qp), k)
                h += -g0 * np.cos(p) * weights[q, qp] * (raise_jq @ lower_kqp)
                if cross_damping:
                    rate = 2.0 * g0 * np.sin(p) * weights[q, qp]
                    damping += _ref_dissipator(lower_kqp, raise_jq.conj().T, rate)
    return _ref_hamiltonian(h) + damping


def _model_part(scheme, params, a, p, mode, include_exchange, cross_damping):
    """One part of the pair generator, combined from cached assemblies only.

    L is affine in (cos p, sin p) and linear in T: L(p) + L(p + pi) cancels
    the exchange, L(p) + L(-p) its sin p part (the cross damping), and the
    weights of the three coordinate axes sum to 2 (T = 1, the scalar weights).
    """
    def full(phase, at=params):
        return generator_at(scheme, at, a, phase)

    def exchanged(at):
        return full(p, at) if cross_damping else 0.5 * (full(p, at) + full(-p, at))

    uncoupled = 0.5 * (full(p) + full(p + np.pi))
    if not include_exchange:
        return uncoupled
    if mode == "vector":
        return exchanged(params)
    on_axes = sum(exchanged(replace(params, orientation=tuple(n))) for n in np.eye(3))
    return 0.5 * (on_axes - uncoupled)


def _reference(scheme, params, a, p, mode, include_exchange, cross_damping):
    reference = (_ref_hamiltonian(lv.drive_hamiltonian(scheme, params, (0.0, a)))
                 + _ref_decay(scheme, 2))
    if include_exchange:
        reference = reference + _ref_exchange(scheme, params, p, cross_damping, mode)
    return reference


def _assert_same_generator(built, reference):
    assert built.shape == reference.shape
    assert np.abs(built - reference).max() <= 1e-14 * np.abs(reference).max()


@pytest.mark.parametrize("kind", atoms.SCHEME_KINDS)
@pytest.mark.parametrize("mode", ["vector", "scalar"])
@pytest.mark.parametrize("include_exchange", [True, False])
@pytest.mark.parametrize("cross_damping", [True, False])
def test_generator_matches_term_by_term_reference(kind, mode, include_exchange,
                                                   cross_damping):
    rng = np.random.default_rng(11)
    scheme = atoms.build_scheme(kind)
    params = lv.PhysicalParams(rabi=2.7, detuning=-1.3, kr=37.0,
                               orientation=tuple(rng.standard_normal(3)))
    a, p = 0.9, 2.2
    case = (mode, include_exchange, cross_damping)
    _assert_same_generator(_model_part(scheme, params, a, p, *case),
                           _reference(scheme, params, a, p, *case))
    for n_atoms in (1, 2):
        _assert_same_generator(lv.decay_dissipator(scheme, n_atoms=n_atoms),
                               _ref_decay(scheme, n_atoms))
    single = _ref_hamiltonian(lv.drive_hamiltonian(scheme, params, (0.0,)))
    _assert_same_generator(lv.assemble_single(scheme, params).standard(0),
                           single + _ref_decay(scheme, 1))


@pytest.mark.parametrize("kind", atoms.SCHEME_KINDS)
@pytest.mark.parametrize("mode", ["vector", "scalar"])
@pytest.mark.parametrize("include_exchange", [True, False])
@pytest.mark.parametrize("cross_damping", [True, False])
@settings(max_examples=10, deadline=None)
@given(log_rabi=st.floats(-3.0, 3.0), detuning=st.floats(-30.0, 30.0),
       log_kr=st.floats(1.0, 4.0),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda n: np.linalg.norm(n) > 0.1),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi))
def test_cached_assembly_matches_reference_anywhere(kind, mode, include_exchange,
                                                    cross_damping, log_rabi, detuning,
                                                    log_kr, axis, a, p):
    # one cached block set per scheme serves every kr and axis
    scheme = atoms.build_scheme(kind)
    params = lv.PhysicalParams(rabi=10.0**log_rabi, detuning=detuning, kr=10.0**log_kr,
                               orientation=axis)
    case = (mode, include_exchange, cross_damping)
    _assert_same_generator(_model_part(scheme, params, a, p, *case),
                           _reference(scheme, params, a, p, *case))


def test_non_trace_preserving_slice_rejected(v_scheme):
    params = lv.PhysicalParams(rabi=2.0, detuning=1.0)
    stack = lv.assemble(v_scheme, params, ([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]))
    lv._check_trace_preserving(stack)
    planted = stack.values.copy()
    n = stack.hilbert_dim
    first_trace_entry = np.flatnonzero(stack.rows % (n + 1) == 0)[0]
    planted[1, first_trace_entry] += 1e-6
    with pytest.raises(ConfigurationError, match="not trace preserving"):
        lv._check_trace_preserving(replace(stack, values=planted))
    # the same slice alone fails too, the others pass
    with pytest.raises(ConfigurationError, match="not trace preserving"):
        lv._check_trace_preserving(replace(stack, values=planted[1:2]))
    lv._check_trace_preserving(replace(stack, values=planted[::2]))


def test_planted_non_trace_preserving_block_rejected(v_scheme, monkeypatch):
    # a decay block whose ground population leaks at rate 1e-6 out of the trace
    original = lv._dense_blocks

    def leaking(scheme):
        blocks = original(scheme)
        decay = next(blocks).copy()
        decay[0, 0] -= 1e-6
        yield decay
        yield from blocks

    monkeypatch.setattr(lv, "_dense_blocks", leaking)
    lv._affine_blocks.cache_clear()
    for _ in range(2):  # a failed block set is not cached
        with pytest.raises(ConfigurationError, match="not trace preserving"):
            lv.assemble(v_scheme, lv.PhysicalParams(rabi=1.0), ([0.0], [0.0]))
    assert lv._affine_blocks.cache_info().currsize == 0


def test_trace_preservation_checked_once_per_block_set(v_scheme, monkeypatch):
    checked = []
    original = lv._check_trace_preserving
    monkeypatch.setattr(lv, "_check_trace_preserving",
                        lambda stack: checked.append(len(stack)) or original(stack))
    lv._affine_blocks.cache_clear()
    for rabi in (0.5, 2.0, 40.0):
        lv.assemble(v_scheme, lv.PhysicalParams(rabi=rabi, kr=30.0), ([0.0, 1.0], [0.5, 1.5]))
    assert checked == [len(lv._affine_blocks(v_scheme))]  # the 13 v_type blocks, once
    lv.assemble_single(v_scheme, lv.PhysicalParams(rabi=1.0))
    assert checked == [13, 1]  # a single-atom generator is checked on its own


# -- the drive-parity split ---------------------------------------------------


def _odd_parity(scheme):
    """Coordinates j*n + k of odd n_j + n_k, n the excitation number of the pair
    built from the excited-level projectors of both atoms."""
    excited = sum(atoms.level_projector(scheme, level) for level in scheme.excited_levels)
    number = np.diag(atoms.embed(excited, 1) + atoms.embed(excited, 2)).real
    return ((number[:, None] + number[None, :]) % 2 == 1).reshape(-1)


@pytest.mark.parametrize("kind", [atoms.V_TYPE, atoms.FULL_J0_J1])
def test_drive_flips_the_excitation_parity_and_nothing_else_does(kind):
    rng = np.random.default_rng(23)
    scheme = atoms.build_scheme(kind)
    odd = _odd_parity(scheme)
    assert np.array_equal(lv._odd_coordinates(scheme), odd)
    assert np.count_nonzero(~odd) == {atoms.V_TYPE: 41, atoms.FULL_J0_J1: 136}[kind]
    flips = odd[:, None] != odd[None, :]
    # the cached blocks: H_1, H_2c and H_2s couple opposite parities only, the others equal ones
    blocks = lv._affine_blocks(scheme)
    for index in range(len(blocks)):
        block = blocks.dense(index)
        is_drive = index in range(len(blocks))[lv._DRIVE_BLOCKS]
        assert np.abs(block).max() > 0
        assert not block[flips != is_drive].any()
    # the term-by-term reference at random axes and phases, where the drive is
    # what a nonzero Rabi frequency adds
    for _ in range(2):
        params = lv.PhysicalParams(rabi=0.0, detuning=rng.uniform(-5, 5), kr=rng.uniform(10, 100),
                                   orientation=tuple(rng.standard_normal(3)))
        a, p = rng.uniform(0, 2 * np.pi, 2)
        undriven = _reference(scheme, params, a, p, "vector", True, True)
        drive = _reference(scheme, replace(params, rabi=2.5), a, p, "vector", True, True) - undriven
        assert not undriven[flips].any() and np.abs(undriven).max() > 0
        assert not drive[~flips].any() and np.abs(drive).max() > 0


@pytest.mark.parametrize("planted", ["drive_in_decay", "detuning_in_drive"])
def test_planted_entry_across_the_drive_split_rejected(v_scheme, monkeypatch, planted):
    # both plants keep the trace and Hermiticity, so only the parity check sees them
    original = lv._dense_blocks

    def planting(scheme):
        blocks = list(original(scheme))
        decay, pull, drive = blocks[0], blocks[1], blocks[2]
        if planted == "drive_in_decay":
            blocks[0] = decay + 1e-3 * drive
        else:
            blocks[2] = drive + 1e-3 * pull
        yield from blocks

    monkeypatch.setattr(lv, "_dense_blocks", planting)
    lv._affine_blocks.cache_clear()
    try:
        with pytest.raises(ConfigurationError, match="drive parity"):
            lv.assemble(v_scheme, lv.PhysicalParams(rabi=1.0), ([0.0], [0.0]))
        assert lv._affine_blocks.cache_info().currsize == 0
    finally:
        lv._affine_blocks.cache_clear()


def test_assembled_stack_records_its_phase_points_and_drives(v_scheme):
    a, p = [0.3, 1.2, 0.3, 0.3], [2.0, 2.0, 2.0, 5.0]
    stack = lv.assemble(v_scheme, lv.PhysicalParams(), (a, p), rabi=[1.0, 2.0, 3.0, 4.0])
    split = stack.split
    assert np.array_equal(split.rabi, [1.0, 2.0, 3.0, 4.0])
    # equal (a, p) pairs share a point index, distinct ones do not
    assert split.point[0] == split.point[2] and len(set(split.point)) == 3
    assert split.odd is lv._odd_coordinates(v_scheme)
    # a stack of other generators than the assembled ones carries no split
    assert stack.point(1).split is None
    assert replace(stack, values=stack.values[:2]).split is None
    assert lv.GeneratorStack.from_dense([stack.standard(0)]).split is None


def test_stack_slices_equal_single_point_assembly(v_scheme):
    params = lv.PhysicalParams(rabi=1.7, detuning=-0.4)
    a, p = [0.0, 0.9, 4.0], [3.0, 0.1, 5.5]
    stack = lv.assemble(v_scheme, params, (a, p))
    assert len(stack) == 3
    for i in range(3):
        alone = generator_at(v_scheme, params, a[i], p[i])
        mapped_back = stack.standard(i)
        assert np.abs(mapped_back - alone).max() <= 1e-15 * np.abs(alone).max()
    with pytest.raises(DimensionError):
        lv.assemble(v_scheme, params, (a, p[:2]))


def test_per_point_rabi_equals_one_drive_per_stack(v_scheme):
    # a sweep assembles the drives of all its saturations in one stack
    a, p, rabi = [0.0, 0.9, 4.0], [3.0, 0.1, 5.5], [0.3, 0.0, 7.5]
    stack = lv.assemble(v_scheme, lv.PhysicalParams(rabi=2.0, detuning=-0.4), (a, p),
                        rabi=rabi)
    for i in range(3):
        alone = lv.assemble(v_scheme, lv.PhysicalParams(rabi=rabi[i], detuning=-0.4),
                            ([a[i]], [p[i]]))
        assert np.array_equal(stack.values[i], alone.values[0])
    assert stack.values.size == 3 * lv.generator_entries(v_scheme)


@pytest.mark.parametrize("rabi,error", [
    ([1.0, 2.0], DimensionError), ([1.0, -1.0, 2.0], DomainError),
    ([1.0, np.nan, 2.0], DomainError), ([1.0, np.inf, 2.0], DomainError),
], ids=["length", "negative", "nan", "inf"])
def test_per_point_rabi_checked(v_scheme, rabi, error):
    with pytest.raises(error, match="Rabi frequencies"):
        lv.assemble(v_scheme, lv.PhysicalParams(), ([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]),
                    rabi=rabi)


def test_cached_blocks_are_read_only(v_scheme):
    params = lv.PhysicalParams(rabi=2.0)
    blocks = lv._affine_blocks(v_scheme)
    parts = [v for v in vars(blocks).values() if isinstance(v, np.ndarray)]
    assert len(parts) == 3  # values and the two index arrays
    assert blocks.values.dtype == np.float64  # real in the Hermitian basis
    for part in parts:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 1
    # a stack assembled from the blocks shares their index arrays
    stack = lv.assemble(v_scheme, params, ([0.0, 1.0], [0.5, 1.5]))
    assert stack.rows is blocks.rows and stack.cols is blocks.cols
    # every call gets values of its own
    first, second = (lv.assemble(v_scheme, params, ([0.0], [0.5])) for _ in range(2))
    first.values[0, 0] += 1.0
    assert first.values[0, 0] != second.values[0, 0]


def test_block_cache_is_the_stack_of_the_dense_blocks(v_scheme):
    # the one sparse-stack builder takes the blocks one at a time from an
    # iterator, as from a list
    blocks = lv._affine_blocks(v_scheme)
    listed = lv.GeneratorStack.from_dense(list(lv._dense_blocks(v_scheme)))
    for part in ("rows", "cols", "values"):
        assert np.array_equal(getattr(blocks, part), getattr(listed, part))


def test_from_dense_rejects_mixed_sizes():
    with pytest.raises(DimensionError, match="2-level"):
        lv.GeneratorStack.from_dense(iter([np.zeros((4, 4)), np.zeros((9, 9))]))


@pytest.mark.parametrize("generators", [[], iter(())], ids=["list", "iterator"])
def test_from_dense_rejects_no_generators(generators):
    with pytest.raises(DimensionError, match="at least one generator, got none"):
        lv.GeneratorStack.from_dense(generators)


def test_block_cache_bounded_over_isotropic_average(v_scheme):
    # every orientation, and any other kr, reuse the scheme's one set
    lv._affine_blocks.cache_clear()
    cbs.cbs_components_isotropic(v_scheme, lv.PhysicalParams(), s=1.0, n_configs=64)
    lv.assemble(v_scheme, lv.PhysicalParams(rabi=1.0, kr=840.0), ([0.0], [0.0]))
    info = lv._affine_blocks.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_two_orientation_average_reuses_blocks_across_saturations(v_scheme):
    # an isotropic sweep solves all its saturations in one stack per
    # orientation: the scheme's one set is looked up once to size the stacks
    # and once per orientation
    lv._affine_blocks.cache_clear()
    cbs.sweep_alpha_collect(v_scheme, 0.0, [0.5, 2.0], n_configs=2, seed=3)
    info = lv._affine_blocks.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_non_hermitian_weights_rejected(v_scheme, monkeypatch):
    # T enters through its real coordinates in the Hermitian basis
    monkeypatch.setattr(lv, "transverse_weights", lambda scheme, params: np.triu(np.ones((2, 2))))
    with pytest.raises(ConfigurationError, match="Hermiticity"):
        lv.assemble(v_scheme, lv.PhysicalParams(rabi=1.0), ([0.0], [0.0]))


# -- the Hermitian operator basis ---------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_hermitian_basis_is_an_orthonormal_index_map(n):
    rng = np.random.default_rng(n)
    maps = lv._basis_map(n)
    # n^2 entries per array: no dense n^2 x n^2 matrix of the change of basis
    arrays = [maps["partner"], maps["scale"], *maps["forward"], *maps["inverse"]]
    assert all(array.shape == (n * n,) for array in arrays)
    ops = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    coords = lv.hermitian_coordinates(ops.reshape(3, -1))
    # orthonormal: norms kept, the inverse is the adjoint, tr[B X] = c(B) . c(X)
    assert np.allclose(np.linalg.norm(coords, axis=1), np.linalg.norm(ops, axis=(1, 2)),
                       rtol=1e-14)
    assert np.allclose(lv.vectorized_operators(coords), ops.reshape(3, -1), atol=1e-14)
    assert np.isclose(coords[0] @ coords[1], np.trace(ops[0] @ ops[1]), rtol=1e-13)
    # Hermitian operators have real coordinates, populations keep their index
    herm = random_hermitian(rng, n)
    c = lv.hermitian_coordinates(herm.reshape(-1))
    assert np.abs(c.imag).max() <= 1e-15 * np.abs(c).max()
    assert np.array_equal(c.real[::n + 1], np.diag(herm).real)
    assert np.array_equal(lv.vectorized_operators(c.real).reshape(n, n),
                          lv.vectorized_operators(c.real).reshape(n, n).conj().T)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from([atoms.V_TYPE, atoms.FULL_J0_J1]),
       log_rabi=st.floats(-3.0, 3.0), detuning=st.floats(-30.0, 30.0),
       a=st.floats(0.0, 2 * np.pi), p=st.floats(0.0, 2 * np.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       log_kr=st.floats(1.0, 4.0))
def test_real_basis_generator_and_steady_state_anywhere(kind, log_rabi, detuning, a, p,
                                                        axis, log_kr):
    scheme = atoms.build_scheme(kind)
    params = lv.PhysicalParams(rabi=10.0**log_rabi, detuning=detuning, kr=10.0**log_kr,
                               orientation=axis)
    stack = lv.assemble(scheme, params, ([a], [p]))
    assert stack.values.dtype == np.float64
    reference = (_ref_hamiltonian(lv.drive_hamiltonian(scheme, params, (0.0, a)))
                 + _ref_decay(scheme, 2)
                 + _ref_exchange(scheme, params, p))
    _assert_same_generator(stack.standard(0), reference)

    rho = solver.steady_state(stack)[0]
    n = stack.hilbert_dim
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= solver.DENSITY_EIG_FLOOR
    # the complex bordered system, solved here in the standard vectorization
    bordered = reference.copy()
    bordered[0] = np.eye(n).reshape(-1)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    expected = np.linalg.solve(bordered, rhs).reshape(n, n)
    assert np.abs(rho - expected).max() <= 1e-10 * np.abs(rho).max()
