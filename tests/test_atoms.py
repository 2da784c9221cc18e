"""Level schemes, ladder operators, and two-atom embedding."""

import numpy as np
import pytest

from cbsim import atoms
from cbsim.errors import ConfigurationError, DimensionError


def test_two_level_scheme_counts():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    assert scheme.n_levels == 2
    assert len(scheme.transitions) == 1
    assert scheme.transitions[0].polarization == atoms.SIGMA_PLUS


def test_v_type_scheme_shares_ground_level():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    assert scheme.n_levels == 3
    assert len(scheme.transitions) == 2
    driven = scheme.transitions[scheme.driven_transition]
    detected = scheme.transitions[scheme.cbs_transition]
    assert driven.polarization == atoms.SIGMA_PLUS
    assert detected.polarization == atoms.SIGMA_MINUS
    assert driven.lower == detected.lower == 0


def test_full_scheme_has_three_polarizations():
    scheme = atoms.build_scheme(atoms.FULL_J0_J1)
    assert scheme.n_levels == 4
    assert {t.polarization for t in scheme.transitions} == set(atoms.POLARIZATIONS)
    # every excited sublevel decays to the single ground level
    assert all(t.lower == 0 for t in scheme.transitions)


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigurationError):
        atoms.build_scheme("lambda_type")


def test_duplicate_level_labels_rejected():
    with pytest.raises(ConfigurationError, match="duplicate level labels"):
        atoms.LevelScheme(kind="twin", levels=("|g>", "|g>"),
                          transitions=(atoms.Transition(0, 1, atoms.SIGMA_PLUS),))


def test_lowering_operator_is_single_matrix_element():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    low = atoms.lowering_operator(scheme, 0)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(low, expected)


def test_cbs_lowering_operator_in_v_scheme():
    scheme = atoms.build_scheme(atoms.V_TYPE)
    low = atoms.lowering_operator(scheme, scheme.cbs_transition)
    # |1><2| with levels ordered (|1>, |2>, |4>)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(low, expected)


def test_adjoint_of_lowering_raises_ground_state():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    raising = atoms.raising_operator(scheme, 0)
    ground = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(raising @ ground, np.array([0.0, 1.0], dtype=complex))


def test_invalid_transition_index_rejected():
    scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    with pytest.raises(ConfigurationError):
        atoms.lowering_operator(scheme, 5)


@pytest.mark.parametrize("kind,expected", [
    (atoms.TWO_LEVEL, 4), (atoms.V_TYPE, 9), (atoms.FULL_J0_J1, 16),
])
def test_composite_dimension_is_square_of_single(kind, expected):
    scheme = atoms.build_scheme(kind)
    op = atoms.embed(atoms.lowering_operator(scheme, 0), 1)
    assert op.shape == (expected, expected)


def test_lowering_squares_to_zero_and_number_projector():
    for kind in atoms.SCHEME_KINDS:
        scheme = atoms.build_scheme(kind)
        for t in range(len(scheme.transitions)):
            low = atoms.lowering_operator(scheme, t)
            assert np.all(low @ low == 0)
            number = low.conj().T @ low
            assert np.allclose(number @ number, number)  # projector
            assert np.isclose(np.trace(number), 1.0)  # onto the upper level
            upper = scheme.transitions[t].upper
            assert np.isclose(number[upper, upper], 1.0)


def test_embed_identity_gives_composite_identity():
    ident = np.eye(3, dtype=complex)
    assert np.array_equal(atoms.embed(ident, 1), np.eye(9, dtype=complex))
    assert np.array_equal(atoms.embed(ident, 2), np.eye(9, dtype=complex))


def test_embedded_operators_of_different_atoms_commute():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a1 = atoms.embed(a, 1)
    b2 = atoms.embed(b, 2)
    assert np.allclose(a1 @ b2, b2 @ a1)


def test_embed_trace_scaling():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.isclose(np.trace(atoms.embed(a, 1)), np.trace(a) * 3)


def test_embed_preserves_adjoints():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for atom in (1, 2):
        assert np.array_equal(atoms.embed(a.conj().T, atom),
                              atoms.embed(a, atom).conj().T)


def test_embed_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        atoms.embed(np.zeros((2, 3)), 1)
    with pytest.raises(DimensionError):
        atoms.embed(np.eye(2), 3)


@pytest.mark.parametrize("transition,match", [
    (atoms.Transition(0, 2, atoms.SIGMA_PLUS), "outside 0..1"),
    (atoms.Transition(1, 1, atoms.SIGMA_PLUS), "connects a level to itself"),
    (atoms.Transition(0, 1, "sigma_zero"), "unknown polarization"),
], ids=["out_of_range", "self_transition", "polarization"])
def test_malformed_transition_rejected(transition, match):
    with pytest.raises(ConfigurationError, match=match):
        atoms.LevelScheme(kind="custom", levels=("|g>", "|e>"), transitions=(transition,))
