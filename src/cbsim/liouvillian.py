"""Master-equation generator for one or two driven atoms.

The generator acts on row-major vectorized density matrices and has
Lehmberg's collective form, built by :func:`master_generator`: one
Hamiltonian H plus one rate matrix R over the lowering operators J_a of
every transition of every atom (atom by atom; 2 n_t x 2 n_t for a pair),

    L rho = -i [H, rho] + sum_ab R[a, b] (J_b rho J_a+ - {J_a+ J_b, rho} / 2).

H is the drive Hamiltonian in the frame rotating at the laser frequency
plus the coherent photon exchange.  R holds independent radiative decay
(2*gamma on its diagonal) and the cross-atom damping in its off-diagonal
(atom-to-atom) blocks, which ``cross_damping=False`` zeroes.  The exchange
carries one complex amplitude per transition pair,

    G = (3*gamma/2) * exp(i*p) / kr * T[q, q'],

whose real part (cos p) enters H and whose imaginary part (sin p) enters R.
``T`` is the transverse projector weight between the spherical polarization
vectors of the two transitions; in scalar mode it is the identity.

All quantities are in units of gamma (half the excited-state population
decay rate); the propagation phase p is an independent disorder variable
while the amplitude is fixed by kr.

The pair generator is affine in its per-point parameters,

    L(rabi, delta, a, p) = D + delta H_delta + rabi H_1 + rabi e^{ia} H_2+
                           + rabi e^{-ia} H_2- + cos(p) X_c + sin(p) X_s,

with D the decay, H_delta, H_1 and H_2+- the commutator superoperators of
minus the excited-level projector, of the atom-1 drive and of the sigma+
and sigma- halves of the atom-2 drive, and X_c, X_s the coherent exchange
and the cross damping.  Every block is built once by
:func:`master_generator` for a given (scheme, gamma, kr, T) and kept
read-only in a bounded cache (``BLOCK_CACHE_SIZE`` entries), so
:func:`assemble` only combines them.  The blocks are superoperators of
few-body operators and so are sparse (the seven together cover under 3%
of the 256 x 256 full_j0_j1 generator); the cache keeps their values on
the union of their supports only.
"""

import functools
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

#: Block sets kept by :func:`assemble`, one per (scheme, gamma, kr, T).  A
#: fixed-orientation sweep or spectrum uses one; an isotropic average
#: cycles through its orientations at every saturation, so two carry a
#: two-orientation average from one saturation to the next.  One set takes
#: 0.07 MB (v_type) to 0.21 MB (full_j0_j1, vector mode).
BLOCK_CACHE_SIZE = 2


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
    [0, 2*pi).  ``orientation`` is the direction of the interatomic axis,
    stored unnormalized as a float tuple (so ``replace`` never moves it) and
    normalized by :func:`transverse_weights`; it only enters in vector
    coupling mode.
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
        for name in ("rabi", "detuning", "gamma", "kr",
                     "laser_phase_a", "detect_phase_b", "prop_phase_p"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not np.linalg.norm(n) > 0.0:
            raise ConfigurationError("orientation vector must have a nonzero norm")
        object.__setattr__(self, "orientation", tuple(float(x) for x in n))
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


# -- superoperators (row-major vectorization: vec(A rho B) = (A kron B^T) vec(rho))


def _quadratic_form(coefficients, jumps):
    """Operator sum_ab coefficients[a, b] J_a+ J_b over a stack of jump operators."""
    return np.einsum("ab,aji,bjk->ik", coefficients, jumps.conj(), jumps, optimize=True)


def master_generator(h, jumps, rates):
    """Superoperator of rho -> -i [h, rho] + sum_ab rates[a, b] D_ab(rho).

    D_ab(rho) = J_b rho J_a+ - {J_a+ J_b, rho} / 2 over the stack ``jumps``,
    for Hermitian rates; the map is linear in h, which need not be
    Hermitian (the affine drive blocks are not).  The anticommutators fold
    into the effective Hamiltonian h_eff = h - (i/2) K with
    K = sum_ab rates[a, b] J_a+ J_b.
    """
    dim = h.shape[0]
    ident = np.eye(dim, dtype=complex)
    k = _quadratic_form(rates, jumps)
    left = -1j * (h - 0.5j * k)
    # rho -> i rho h_eff+, h_eff+ = h + (i/2) K: transposing this sum rather than
    # conjugating h_eff is exact also where h is Hermitian only to round-off.
    right = 1j * (h + 0.5j * k)
    jump = np.einsum("ab,bij,akl->ikjl", rates, jumps, jumps.conj(), optimize=True)
    return np.kron(left, ident) + np.kron(ident, right.T) + jump.reshape(dim**2, dim**2)


def hamiltonian_generator(h):
    """Superoperator of rho -> -i [h, rho]."""
    return master_generator(h, np.zeros((0,) + h.shape, dtype=complex), np.zeros((0, 0)))


def _jumps(scheme, n_atoms):
    """Lowering operators of every transition, ordered atom by atom."""
    lowering = [atoms.lowering_operator(scheme, t) for t in range(len(scheme.transitions))]
    if n_atoms == 1:
        return np.array(lowering)
    return np.array([atoms.embed(low, atom) for atom in (1, 2) for low in lowering])


def _drive_parts(scheme):
    """Single-atom drive operators: minus the excited-level projector (per
    unit detuning) and half the driven raising operator (per unit
    rabi * exp(i phase))."""
    driven = scheme.driven_transition  # raises ConfigurationError if absent
    pull = np.zeros((scheme.n_levels, scheme.n_levels), dtype=complex)
    for upper in scheme.excited_levels:
        pull -= atoms.level_projector(scheme, upper)
    return pull, 0.5 * atoms.raising_operator(scheme, driven)


def drive_hamiltonian(scheme, params, n_atoms=2, global_phase=0.0):
    """Rotating-frame drive Hamiltonian.

    Detuning pulls every excited level by ``-detuning`` and the Rabi
    coupling acts on the sigma-plus transition only, with per-atom phases
    (``global_phase``, ``global_phase + laser_phase_a``).
    """
    pull, half_raise = _drive_parts(scheme)

    def single(phase):
        coupling = params.rabi * np.exp(1j * phase) * half_raise
        return params.detuning * pull + coupling + coupling.conj().T

    if n_atoms == 1:
        return single(global_phase)
    if n_atoms != 2:
        raise ConfigurationError(f"n_atoms must be 1 or 2, got {n_atoms}")
    return (atoms.embed(single(global_phase), 1)
            + atoms.embed(single(global_phase + params.laser_phase_a), 2))


def decay_dissipator(scheme, n_atoms=2, gamma=1.0):
    """Independent radiative decay of every transition of every atom.

    Each excited level decays through its single allowed transition with
    total population rate 2*gamma.
    """
    jumps = _jumps(scheme, n_atoms)
    dim = scheme.n_levels**n_atoms
    return master_generator(np.zeros((dim, dim), dtype=complex), jumps,
                            2.0 * gamma * np.eye(len(jumps)))


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
    n = n / np.linalg.norm(n)
    projector = np.eye(3) - np.outer(n, n)
    weights = np.zeros((n_t, n_t), dtype=complex)
    for i, ti in enumerate(scheme.transitions):
        ei = atoms.POLARIZATION_VECTORS[ti.polarization]
        for j, tj in enumerate(scheme.transitions):
            ej = atoms.POLARIZATION_VECTORS[tj.polarization]
            weights[i, j] = ei.conj() @ projector @ ej
    return weights


def _dense_blocks(scheme, gamma, kr, weights):
    """The pair generator's affine blocks [D, H_delta, H_1, H_2+, H_2-, X_c,
    X_s] (module docstring), one at a time; ``weights`` is T.

    ``swap (x) T`` puts T in the atom-to-atom blocks of the atom-major jumps.
    """
    jumps = _jumps(scheme, 2)
    pull, half_raise = _drive_parts(scheme)
    half_lower = half_raise.conj().T
    g0 = 1.5 * gamma / kr
    coupling = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array(weights))
    yield decay_dissipator(scheme, n_atoms=2, gamma=gamma)
    yield hamiltonian_generator(atoms.embed(pull, 1) + atoms.embed(pull, 2))
    yield hamiltonian_generator(atoms.embed(half_raise + half_lower, 1))
    yield hamiltonian_generator(atoms.embed(half_raise, 2))
    yield hamiltonian_generator(atoms.embed(half_lower, 2))
    yield hamiltonian_generator(_quadratic_form(-g0 * coupling, jumps))
    yield master_generator(np.zeros(jumps.shape[1:], dtype=complex), jumps,
                           2.0 * g0 * coupling)


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _affine_blocks(scheme, gamma, kr, weights):
    """Read-only ``(support, values)`` of the affine blocks: ``values[k]``
    holds block k at the row-major flat indices ``support`` where any block
    is nonzero.  ``weights`` is T as a tuple of rows.

    Only one dense block is alive at a time.
    """
    entries = []
    for block in _dense_blocks(scheme, gamma, kr, weights):
        flat = np.flatnonzero(block)
        entries.append((flat, block.reshape(-1)[flat]))
    support = np.unique(np.concatenate([flat for flat, _ in entries]))
    values = np.zeros((len(entries), support.size), dtype=complex)
    for row, (flat, entry) in zip(values, entries):
        row[np.searchsorted(support, flat)] = entry
    support.flags.writeable = values.flags.writeable = False
    return support, values


def _pair_blocks(scheme, params):
    weights = transverse_weights(scheme, params)
    return _affine_blocks(scheme, params.gamma, params.kr, tuple(map(tuple, weights)))


def _block_sum(scheme, params, coefficients, first=0):
    """Dense sum over k of coefficients[k] times affine block first + k."""
    support, values = _pair_blocks(scheme, params)
    dim = scheme.n_levels**4
    generator = np.zeros((dim, dim), dtype=complex)
    generator.reshape(-1)[support] = np.dot(coefficients,
                                            values[first:first + len(coefficients)])
    return generator


def _exchange_phases(params, cross_damping):
    """Coefficients of X_c and X_s; the cross damping is zeroed on request."""
    p = params.prop_phase_p
    return [math.cos(p), math.sin(p) if cross_damping else 0.0]


def exchange_term(scheme, params, cross_damping=True):
    """Photon-exchange coupling between the two atoms.

    The coherent exchange Hamiltonian has amplitude ``-g0 cos(p) T[q, q']``
    and the cross damping rate ``2 g0 sin(p) T[q, q']`` for every ordered
    transition pair (q raised on one atom, q' lowered on the other), where
    ``g0 = 3 gamma / (2 kr)``.  Setting ``cross_damping=False`` keeps only
    the Hamiltonian part (diagnostic switch, not a physical regime).
    ``PhysicalParams`` guarantees ``kr >= KR_MIN``.
    """
    return _block_sum(scheme, params, _exchange_phases(params, cross_damping), first=5)


def _checked_liouvillian(generator, dim):
    trace_vec = np.eye(dim, dtype=complex).reshape(-1)
    residual = trace_vec @ generator
    scale = max(np.abs(generator).max(), 1.0)
    if np.abs(residual).max() > 1e-12 * scale:
        raise ConfigurationError(
            "assembled generator is not trace preserving "
            f"(max residual {np.abs(residual).max():.3e})"
        )
    return Liouvillian(hilbert_dim=dim, generator=generator)


def assemble(scheme, params, include_exchange=True, cross_damping=True):
    """Full two-atom generator: drive, decay, and photon exchange, combined
    from the cached affine blocks."""
    drive = params.rabi * np.exp(1j * params.laser_phase_a)
    coefficients = [1.0, params.detuning, params.rabi, drive, drive.conjugate()]
    if include_exchange:
        coefficients += _exchange_phases(params, cross_damping)
    return _checked_liouvillian(_block_sum(scheme, params, coefficients),
                                scheme.n_levels**2)


def assemble_single(scheme, params):
    """Generator for one driven atom (no exchange, drive phase zero)."""
    jumps = _jumps(scheme, 1)
    gen = master_generator(drive_hamiltonian(scheme, params, n_atoms=1), jumps,
                           2.0 * params.gamma * np.eye(len(jumps)))
    return _checked_liouvillian(gen, scheme.n_levels)
