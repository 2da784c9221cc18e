"""Atomic level schemes and dipole ladder operators.

A scheme lists internal levels and the dipole-allowed transitions between
them, each tagged with a circular/linear polarization label.  Operators are
plain dense complex ``numpy`` arrays; single-atom operators act on the
scheme's own Hilbert space and are promoted to the two-atom product space
with :func:`embed` (atom 1 is always the left tensor factor).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError

SIGMA_PLUS = "sigma_plus"
SIGMA_MINUS = "sigma_minus"
PI = "pi"

POLARIZATIONS = (SIGMA_PLUS, SIGMA_MINUS, PI)

# Spherical polarization unit vectors, quantization axis along z (the laser
# propagation direction).
POLARIZATION_VECTORS = {
    SIGMA_PLUS: np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2.0),
    SIGMA_MINUS: np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0),
    PI: np.array([0.0, 0.0, 1.0], dtype=complex),
}

TWO_LEVEL = "two_level"
V_TYPE = "v_type"
FULL_J0_J1 = "full_j0_j1"

SCHEME_KINDS = (TWO_LEVEL, V_TYPE, FULL_J0_J1)


@dataclass(frozen=True)
class Level:
    label: str


@dataclass(frozen=True)
class Transition:
    lower: int
    upper: int
    polarization: str


@dataclass(frozen=True)
class LevelScheme:
    """Internal structure of one atom.

    All levels of a manifold are degenerate; in the frame rotating at the
    drive frequency only the detuning shifts the excited levels.
    Transition endpoints index into ``levels``.
    """

    kind: str
    levels: tuple
    transitions: tuple

    def __post_init__(self):
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate level labels in scheme {self.kind!r}")
        n = len(self.levels)
        for t in self.transitions:
            if not (0 <= t.lower < n and 0 <= t.upper < n):
                raise ConfigurationError(
                    f"transition {t} references a level outside 0..{n - 1}"
                )
            if t.lower == t.upper:
                raise ConfigurationError(f"transition {t} connects a level to itself")
            if t.polarization not in POLARIZATIONS:
                raise ConfigurationError(f"unknown polarization {t.polarization!r}")

    @property
    def n_levels(self):
        return len(self.levels)

    def transition_index(self, polarization):
        for i, t in enumerate(self.transitions):
            if t.polarization == polarization:
                return i
        raise ConfigurationError(
            f"scheme {self.kind!r} has no {polarization} transition"
        )

    @property
    def driven_transition(self):
        """Index of the laser-driven (sigma-plus) transition."""
        return self.transition_index(SIGMA_PLUS)

    @property
    def cbs_transition(self):
        """Index of the detected (sigma-minus) transition."""
        return self.transition_index(SIGMA_MINUS)

    @property
    def excited_levels(self):
        """Indices of levels that are the upper end of some transition."""
        return tuple(sorted({t.upper for t in self.transitions}))


def build_scheme(kind):
    """Return one of the predefined level schemes.

    ``two_level`` holds the driven pair only, ``v_type`` adds the detected
    sigma-minus arm sharing the ground level, and ``full_j0_j1`` is the
    complete ground J=0 to excited J=1 manifold including the pi sublevel.
    """
    key = str(kind).strip().lower()
    if key == TWO_LEVEL:
        return LevelScheme(
            kind=TWO_LEVEL,
            levels=(Level("|1>"), Level("|4>")),
            transitions=(Transition(0, 1, SIGMA_PLUS),),
        )
    if key == V_TYPE:
        return LevelScheme(
            kind=V_TYPE,
            levels=(Level("|1>"), Level("|2>"), Level("|4>")),
            transitions=(Transition(0, 2, SIGMA_PLUS), Transition(0, 1, SIGMA_MINUS)),
        )
    if key == FULL_J0_J1:
        return LevelScheme(
            kind=FULL_J0_J1,
            levels=(Level("|1>"), Level("|2>"), Level("|3>"), Level("|4>")),
            transitions=(
                Transition(0, 3, SIGMA_PLUS),
                Transition(0, 1, SIGMA_MINUS),
                Transition(0, 2, PI),
            ),
        )
    raise ConfigurationError(f"unknown scheme kind {kind!r}")


def lowering_operator(scheme, transition):
    """Single-atom lowering operator |lower><upper| of the given transition."""
    if not (0 <= transition < len(scheme.transitions)):
        raise ConfigurationError(
            f"transition index {transition} outside 0..{len(scheme.transitions) - 1}"
        )
    t = scheme.transitions[transition]
    op = np.zeros((scheme.n_levels, scheme.n_levels), dtype=complex)
    op[t.lower, t.upper] = 1.0
    return op


def raising_operator(scheme, transition):
    return lowering_operator(scheme, transition).conj().T


def level_projector(scheme, level):
    op = np.zeros((scheme.n_levels, scheme.n_levels), dtype=complex)
    op[level, level] = 1.0
    return op


def embed(op, atom):
    """Promote a single-atom operator to the two-atom product space.

    Atom 1 is the left tensor factor, so ``embed(A, 1) = A (x) Id`` and
    ``embed(B, 2) = Id (x) B``.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {op.shape}")
    ident = np.eye(op.shape[0], dtype=complex)
    if atom == 1:
        return np.kron(op, ident)
    if atom == 2:
        return np.kron(ident, op)
    raise DimensionError(f"atom index must be 1 or 2, got {atom}")
