"""Master-equation generator for one or two driven atoms.

The generator acts on row-major vectorized density matrices and collects
three pieces: the semiclassical drive Hamiltonian in the frame rotating at
the laser frequency, independent radiative decay of every transition, and
the far-field photon-exchange coupling between the atoms.  The exchange
carries a single complex amplitude per transition pair,

    G = (3*gamma/2) * exp(i*p) / kr * T[q, q'],

whose real part (cos p) enters a coherent exchange Hamiltonian and whose
imaginary part (sin p) enters a cross-atom damping term.  ``T`` is the
transverse projector weight between the spherical polarization vectors of
the two transitions; in scalar mode it is replaced by the identity.

All quantities are expressed in units of gamma (half the excited-state
population decay rate) and the propagation phase p is treated as an
independent disorder variable while the amplitude is fixed by kr.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import atoms
from .errors import ConfigurationError, DomainError

SCALAR = "scalar"
VECTOR = "vector"
COUPLING_MODES = (SCALAR, VECTOR)

#: Smallest admissible dimensionless interatomic distance; below this the
#: weak-coupling expansion underlying the model is not trustworthy.
KR_MIN = 10.0

TWO_PI = 2.0 * math.pi


def saturation(rabi, detuning, gamma=1.0):
    """Dimensionless drive strength s = rabi^2 / (2 (gamma^2 + detuning^2))."""
    return rabi**2 / (2.0 * (gamma**2 + detuning**2))


def rabi_for_saturation(s, detuning, gamma=1.0):
    """Rabi frequency that produces saturation ``s`` at the given detuning."""
    if s < 0:
        raise DomainError(f"saturation must be non-negative, got {s}")
    return math.sqrt(2.0 * s * (gamma**2 + detuning**2))


@dataclass(frozen=True)
class PhysicalParams:
    """Complete physical parameter set, everything in units of gamma.

    ``laser_phase_a`` is the drive-phase difference between the atoms,
    ``detect_phase_b`` the detection-phase difference, and ``prop_phase_p``
    the photon-exchange propagation phase; all three are reduced to
    [0, 2*pi).  ``orientation`` is the unit vector of the interatomic axis
    and only enters in vector coupling mode.
    """

    rabi: float = 0.0
    detuning: float = 0.0
    gamma: float = 1.0
    kr: float = 100.0
    laser_phase_a: float = 0.0
    detect_phase_b: float = 0.0
    prop_phase_p: float = 0.0
    orientation: tuple = (1.0, 0.0, 0.0)
    coupling_mode: str = VECTOR

    def __post_init__(self):
        if self.rabi < 0:
            raise DomainError(f"rabi frequency must be non-negative, got {self.rabi}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.kr < KR_MIN:
            raise DomainError(
                f"kr >= {KR_MIN:g} required (weak-coupling regime), got {self.kr}"
            )
        if self.coupling_mode not in COUPLING_MODES:
            raise ConfigurationError(f"unknown coupling mode {self.coupling_mode!r}")
        n = np.asarray(self.orientation, dtype=float)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise ConfigurationError(f"orientation must be a finite 3-vector, got {self.orientation}")
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ConfigurationError("orientation vector must be nonzero")
        object.__setattr__(self, "orientation", tuple(n / norm))
        for name in ("laser_phase_a", "detect_phase_b", "prop_phase_p"):
            object.__setattr__(self, name, float(getattr(self, name)) % TWO_PI)

    @property
    def saturation(self):
        return saturation(self.rabi, self.detuning, self.gamma)


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Generator of the master equation on vectorized density matrices."""

    hilbert_dim: int
    generator: np.ndarray

    @property
    def dim(self):
        return self.hilbert_dim**2


# -- superoperator helpers (row-major vectorization: vec(A rho B) = (A kron B^T) vec(rho))


def spre(a):
    return np.kron(a, np.eye(a.shape[0], dtype=complex))


def spost(b):
    return np.kron(np.eye(b.shape[0], dtype=complex), b.T)


def sandwich(a, b):
    """Superoperator of rho -> a @ rho @ b."""
    return np.kron(a, b.T)


def hamiltonian_generator(h):
    """Superoperator of rho -> -i [h, rho]."""
    return -1j * (spre(h) - spost(h))


def lindblad_dissipator(c, rate):
    """Superoperator of rho -> rate * (c rho c+ - {c+ c, rho} / 2)."""
    cdc = c.conj().T @ c
    return rate * (sandwich(c, c.conj().T) - 0.5 * spre(cdc) - 0.5 * spost(cdc))


def drive_hamiltonian(scheme, params, n_atoms=2, global_phase=0.0):
    """Rotating-frame drive Hamiltonian.

    Detuning pulls every excited level by ``-detuning`` and the Rabi
    coupling acts on the sigma-plus transition only, with per-atom phases
    (``global_phase``, ``global_phase + laser_phase_a``).
    """
    driven = scheme.driven_transition  # raises ConfigurationError if absent
    h_single = np.zeros((scheme.n_levels, scheme.n_levels), dtype=complex)
    for upper in scheme.excited_levels:
        h_single -= params.detuning * atoms.level_projector(scheme, upper)
    raising = atoms.raising_operator(scheme, driven)

    if n_atoms == 1:
        coupling = 0.5 * params.rabi * np.exp(1j * global_phase) * raising
        return h_single + coupling + coupling.conj().T

    if n_atoms != 2:
        raise ConfigurationError(f"n_atoms must be 1 or 2, got {n_atoms}")
    phases = (global_phase, global_phase + params.laser_phase_a)
    h = np.zeros((scheme.n_levels**2,) * 2, dtype=complex)
    for atom_index, phase in zip((1, 2), phases):
        h += atoms.embed(h_single, atom_index)
        coupling = 0.5 * params.rabi * np.exp(1j * phase) * atoms.embed(raising, atom_index)
        h += coupling + coupling.conj().T
    return h


def decay_dissipator(scheme, n_atoms=2, gamma=1.0):
    """Independent radiative decay of every transition of every atom.

    Each excited level decays through its single allowed transition with
    total population rate 2*gamma.
    """
    dim = scheme.n_levels**n_atoms
    diss = np.zeros((dim**2, dim**2), dtype=complex)
    for t in range(len(scheme.transitions)):
        low = atoms.lowering_operator(scheme, t)
        if n_atoms == 1:
            diss += lindblad_dissipator(low, 2.0 * gamma)
        else:
            for atom_index in (1, 2):
                diss += lindblad_dissipator(atoms.embed(low, atom_index), 2.0 * gamma)
    return diss


def transverse_weights(scheme, params):
    """Polarization weight matrix T[q, q'] between transition pairs.

    Vector mode sandwiches the transverse projector of the interatomic axis
    between the spherical polarization vectors, which allows sigma-plus to
    sigma-minus conversion; scalar mode couples like polarizations with unit
    weight.
    """
    n_t = len(scheme.transitions)
    if params.coupling_mode == SCALAR:
        return np.eye(n_t, dtype=complex)
    n = np.asarray(params.orientation, dtype=float)
    projector = np.eye(3) - np.outer(n, n)
    weights = np.zeros((n_t, n_t), dtype=complex)
    for i, ti in enumerate(scheme.transitions):
        ei = atoms.POLARIZATION_VECTORS[ti.polarization]
        for j, tj in enumerate(scheme.transitions):
            ej = atoms.POLARIZATION_VECTORS[tj.polarization]
            weights[i, j] = ei.conj() @ projector @ ej
    return weights


def exchange_term(scheme, params, cross_damping=True):
    """Photon-exchange coupling between the two atoms.

    Builds, for every ordered transition pair (q raised on one atom, q'
    lowered on the other), the coherent exchange Hamiltonian with amplitude
    ``-g0 cos(p) T[q, q']`` and the cross-damping term with amplitude
    ``2 g0 sin(p) T[q, q']`` where ``g0 = 3 gamma / (2 kr)``.  Setting
    ``cross_damping=False`` keeps only the Hamiltonian part (diagnostic
    switch, not a physical regime).  ``PhysicalParams`` guarantees
    ``kr >= KR_MIN``.
    """
    g0 = 1.5 * params.gamma / params.kr
    coherent_amp = -g0 * math.cos(params.prop_phase_p)
    damping_amp = 2.0 * g0 * math.sin(params.prop_phase_p)
    weights = transverse_weights(scheme, params)

    dim = scheme.n_levels**2
    h_ex = np.zeros((dim, dim), dtype=complex)
    damp = np.zeros((dim**2, dim**2), dtype=complex)
    lowering = [atoms.lowering_operator(scheme, t) for t in range(len(scheme.transitions))]
    for j, k in ((1, 2), (2, 1)):
        for q, low_q in enumerate(lowering):
            r_jq = atoms.embed(low_q.conj().T, j)
            for qp, low_qp in enumerate(lowering):
                w = weights[q, qp]
                if w == 0.0:
                    continue
                l_kqp = atoms.embed(low_qp, k)
                h_ex += coherent_amp * w * (r_jq @ l_kqp)
                if cross_damping:
                    rl = r_jq @ l_kqp
                    damp += (damping_amp * w) * (
                        sandwich(l_kqp, r_jq) - 0.5 * spre(rl) - 0.5 * spost(rl)
                    )
    return hamiltonian_generator(h_ex) + damp


def _check_trace_preserving(generator, dim):
    trace_vec = np.eye(dim, dtype=complex).reshape(-1)
    residual = trace_vec @ generator
    scale = max(np.abs(generator).max(), 1.0)
    if np.abs(residual).max() > 1e-12 * scale:
        raise ConfigurationError(
            "assembled generator is not trace preserving "
            f"(max residual {np.abs(residual).max():.3e})"
        )


def assemble(scheme, params, include_exchange=True, cross_damping=True):
    """Full two-atom generator: drive, decay, and photon exchange."""
    gen = hamiltonian_generator(drive_hamiltonian(scheme, params, n_atoms=2))
    gen = gen + decay_dissipator(scheme, n_atoms=2, gamma=params.gamma)
    if include_exchange:
        gen = gen + exchange_term(scheme, params, cross_damping=cross_damping)
    dim = scheme.n_levels**2
    _check_trace_preserving(gen, dim)
    return Liouvillian(hilbert_dim=dim, generator=gen)


def assemble_single(scheme, params):
    """Generator for one driven atom (no exchange, drive phase zero)."""
    gen = hamiltonian_generator(drive_hamiltonian(scheme, params, n_atoms=1))
    gen = gen + decay_dissipator(scheme, n_atoms=1, gamma=params.gamma)
    _check_trace_preserving(gen, scheme.n_levels)
    return Liouvillian(hilbert_dim=scheme.n_levels, generator=gen)
