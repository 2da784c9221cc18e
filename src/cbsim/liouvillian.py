"""Master-equation generator for one or two driven atoms.

The generator acts on row-major vectorized density matrices and has
Lehmberg's collective form, built by :func:`master_generator`: one
Hamiltonian H plus one rate matrix R over the lowering operators J_a of
every transition of every atom (atom by atom; 2 n_t x 2 n_t for a pair),

    L rho = -i [H, rho] + sum_ab R[a, b] (J_b rho J_a+ - {J_a+ J_b, rho} / 2).

H is the drive Hamiltonian in the frame rotating at the laser frequency
plus the coherent photon exchange.  R holds independent radiative decay
(2 on its diagonal) and the cross-atom damping in its off-diagonal
(atom-to-atom) blocks.  The exchange carries one complex amplitude per
transition pair,

    G = (3/2) * exp(i*p) / kr * T[q, q'],

whose real part (cos p) enters H and whose imaginary part (sin p) enters R.
``T`` is the transverse projector weight between the spherical polarization
vectors of the two transitions; it alone converts the sigma-plus drive into
the detected sigma-minus light.

All quantities are in units of gamma, half the excited-state population
decay rate, so gamma = 1 throughout.  The drive-phase difference a and the
propagation phase p are disorder variables, passed to :func:`assemble`
per phase point; the exchange amplitude is fixed by kr.

The pair generator is affine in its per-point parameters,

    L = D + delta H_delta + rabi (H_1 + cos(a) H_2c + sin(a) H_2s)
        + g0 sum_E c_E (cos(p) X_c^E + sin(p) X_s^E),

with D the decay, H_delta and H_1 the commutator
superoperators of minus the excited-level projector and of the atom-1
drive, H_2c = H_2+ + H_2- and H_2s = i (H_2+ - H_2-) built from those of
the sigma+ and sigma- halves of the atom-2 drive, and X_c^E, X_s^E the
coherent exchange and the cross damping for T = E at g0 = 1.  The E are
the n_t^2 Hermitian basis matrices (below) of n_t x n_t weights and c_E
the real coordinates of T, T = sum_E c_E E.  Every coefficient is real
and every block maps Hermitian operators to Hermitian operators.

In the orthonormal basis of Hermitian operators, with coordinates

    c[j*n + j] = rho_jj,  c[j*n + k] = sqrt(2) Re rho_jk,
    c[k*n + j] = sqrt(2) Im rho_jk  (j < k),

every such generator is therefore a real matrix (:func:`hermitian_coordinates`
maps row-major vectors to these coordinates and :func:`vectorized_operators`
back).  The change of basis touches each index r = j*n + k and its
transpose k*n + j only, so it is applied as an index map and no dense
matrix of it is built.  The populations keep their indices j*n + j, so the
trace functional is the same vector in both bases; the basis is
orthonormal, so singular values and 2- and Frobenius norms are those of
the standard vectorization.

The blocks are built once per scheme by :func:`master_generator` (13 for
v_type, 23 for full_j0_j1) and kept read-only in the Hermitian basis as
one sparse :class:`GeneratorStack` on the union of their supports (about
4% of the 256 x 256 full_j0_j1 generator), built by
:meth:`GeneratorStack.from_dense` one dense block at a time;
:func:`assemble` weights them by one row of 5 + 2 n_t^2 coefficients per
phase point, [1, delta, rabi, rabi cos(a), rabi sin(a), g0 cos(p) c_E,
g0 sin(p) c_E], in one product with the cached block values.

A :class:`GeneratorStack` is the one sparse form of a generator: it holds
the row and the column of every entry (``rows``, ``cols``, read-only, in
row-major order) and one row of real values per generator.  A whole grid
of (a, p) phase points, at one Rabi frequency or at one per point (the
grids of all the saturations of a sweep), is assembled in one call:
generator i of its stack is the row ``coef[i] @ values`` of the block
values, shares the index arrays of the cached blocks and stays sparse.
Trace preservation is checked once per block set, on the blocks: a finite
combination of them preserves the trace.  ``stack.dense(i)`` is the one
scatter of generator i's entries into a dense array, in the stack's own
coordinate order or in any other placement of the coordinates (the
steady-state solver reads its bordered matrices from it, in both);
``stack.standard(i)`` is the dense array of generator i in the standard
(row-major, complex) vectorization, and :meth:`GeneratorStack.from_dense`
builds a stack from such arrays.

Decay, detuning and exchange keep the parity of the excitation number
n_j + n_k of a coordinate j*n + k (n_j counts the excited atoms of pair
level j), and the three drive blocks flip it.  That split is checked once
per block set, with trace preservation, and every stack :func:`assemble`
builds carries it as a :class:`DriveSplit`, with the phase point and the
Rabi frequency of each generator, for :func:`cbsim.solver.steady_state`.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import atoms
from .errors import ConfigurationError, DimensionError, DomainError

#: Smallest admissible dimensionless interatomic distance; below this the
#: weak-coupling expansion underlying the model is not trustworthy.
KR_MIN = 10.0
#: Largest admissible kr: the intensities scale as (1.5 / kr)^2, which goes
#: subnormal beyond kr ~ 1e154.
KR_MAX = 1e150
#: Least admissible (1.5 / kr)^2 min(s, s^2): at weak drive the raw elastic
#: intensities scale as s (1.5 / kr)^2 and the inelastic ones as s^2 (1.5 / kr)^2,
#: and this keeps them eight decades above the subnormal range, where they
#: would lose their digits.
MIN_RAW_INTENSITY = 1e-300


def saturation(rabi, detuning):
    """Dimensionless drive strength s = rabi^2 / (2 (1 + detuning^2)), formed
    without squaring rabi or detuning: it overflows (to inf) only where s does."""
    ratio = rabi / math.hypot(1.0, detuning)
    return 0.5 * ratio * ratio


def rabi_for_saturation(s, detuning):
    """Rabi frequency sqrt(2 s) hypot(1, detuning) that produces saturation
    ``s`` at the given detuning."""
    if not 0 <= s < math.inf:
        raise DomainError(f"saturation must be finite and non-negative, got {s}")
    return math.sqrt(2.0 * s) * math.hypot(1.0, detuning)


@dataclass(frozen=True)
class PhysicalParams:
    """The parameters a run sets, in units of gamma.

    ``orientation`` is the direction of the interatomic axis, stored
    unnormalized as a float tuple (so ``replace`` never moves it) and
    normalized by :func:`transverse_weights`, so its norm must be finite
    and nonzero.  The disorder phases are not parameters of a run:
    :func:`assemble` takes them per phase point.
    """

    rabi: float = 0.0
    detuning: float = 0.0
    kr: float = 100.0
    orientation: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("rabi", "detuning", "kr"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rabi < 0:
            raise DomainError(f"rabi frequency must be non-negative, got {self.rabi}")
        if self.kr < KR_MIN:
            raise DomainError(f"kr >= {KR_MIN:g} required (weak-coupling regime), got {self.kr}")
        if self.kr > KR_MAX:
            raise DomainError(f"kr <= {KR_MAX:g} required (finite intensities), got {self.kr}")
        n = np.asarray(self.orientation, dtype=float)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise ConfigurationError(f"orientation must be a finite 3-vector, got {self.orientation}")
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.linalg.norm(n)
        if not 0.0 < norm < math.inf:
            raise ConfigurationError(
                f"orientation vector must have a finite nonzero norm, got {norm:g}")
        object.__setattr__(self, "orientation", tuple(float(x) for x in n))


# -- the Hermitian operator basis (module docstring)

#: Largest imaginary part, relative to the largest entry, of a generator
#: in the Hermitian basis; above it the generator does not map Hermitian
#: operators to Hermitian operators.
HERMITICITY_TOL = 1e-12


@functools.lru_cache(maxsize=8)
def _basis_map(n):
    """Index data of the change to the Hermitian basis of n x n operators.

    Coordinate r = j*n + k of a row-major vector x is
    ``scale[r] * (own[r] * x[r] + other[r] * x[partner[r]])`` with
    partner[r] = k*n + j.  The inverse map, which is the adjoint, has the
    same form with the coefficients ``inverse``; all arrays have n^2 entries.
    """
    j, k = np.divmod(np.arange(n * n), n)
    partner = k * n + j
    own = np.where(j > k, 1j, 1.0 + 0j)
    other = np.select([j < k, j > k], [1.0 + 0j, -1j], 0j)
    scale = np.where(j == k, 1.0, math.sqrt(0.5))
    maps = dict(partner=partner, scale=scale, forward=(own, other),
                inverse=(own.conj(), other[partner].conj()))
    for array in (partner, scale, own, other, *maps["inverse"]):
        array.flags.writeable = False
    return maps


def _change_basis(x, direction, axis=-1, conjugate=False):
    """Apply the ``direction`` ("forward" or "inverse") map of
    :func:`_basis_map` along ``axis`` of ``x``, with conjugated
    coefficients if ``conjugate``."""
    maps = _basis_map(math.isqrt(x.shape[axis]))
    own, other = (c.conj() if conjugate else c for c in maps[direction])
    x = np.moveaxis(x, axis, -1)
    out = maps["scale"] * (own * x + other * x[..., maps["partner"]])
    return np.moveaxis(out, -1, axis)


def hermitian_coordinates(x):
    """Coordinates in the Hermitian basis of the row-major vectorized n x n
    operators along the last axis of ``x``; real for Hermitian operators.

    For any operators B and X, tr[B X] is the plain (unconjugated) dot
    product of their coordinates.
    """
    return _change_basis(np.asarray(x, dtype=complex), "forward")


def vectorized_operators(c):
    """Row-major vectorized operators of the coordinates along the last axis
    of ``c``; the operators are Hermitian by construction for real ``c``."""
    return _change_basis(np.asarray(c), "inverse")


def _generator_map(generator, direction):
    """U L U+ ("forward", complex; real when L preserves Hermiticity) or
    U+ L U ("inverse") for the change of basis U."""
    return _change_basis(_change_basis(generator, direction, axis=0), direction,
                         axis=1, conjugate=True)


def _real_values(values):
    """``values``, one generator or block per row in the Hermitian basis, as
    float64.

    Raises :class:`ConfigurationError` if a row has an imaginary part above
    ``HERMITICITY_TOL`` times its largest magnitude.  NaN entries pass this
    structural check; the rcond and residual checks of the solvers reject
    them with :class:`~cbsim.errors.ConditioningError`.
    """
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return values.astype(float, copy=False)
    worst = np.abs(values.imag).max(axis=-1, initial=0.0)
    bad = np.flatnonzero(worst > HERMITICITY_TOL * np.abs(values).max(axis=-1, initial=0.0))
    if bad.size:
        raise ConfigurationError(
            "generator does not preserve Hermiticity (imaginary part "
            f"{worst.flat[bad[0]]:.3e} in the Hermitian basis)")
    return np.ascontiguousarray(values.real)


def _grouped_sums(keys, weights, size):
    """``out[i, j]``: the sum of ``weights[i, e]`` over the entries e with
    ``keys[e] == j``, for a real (k, m) ``weights``."""
    k = weights.shape[0]
    index = (keys + size * np.arange(k)[:, None]).reshape(-1)
    sums = np.bincount(index, weights.reshape(-1), minlength=k * size)
    return sums.astype(float, copy=False).reshape(k, size)  # int64 when nothing is summed


@dataclass(frozen=True, eq=False)
class DriveSplit:
    """The drive-parity structure of a stack built by :func:`assemble`.

    ``odd`` marks the N coordinates j*n + k whose excitation number
    n_j + n_k is odd.  Decay, detuning and exchange keep that parity and the
    drive flips it, so with the even coordinates first generator i is
    [[A, r_i C], [r_i D, B]], r_i = ``rabi[i]``, and the generators of one
    phase point, those with equal ``point[i]``, share A, B, C and D.
    """

    odd: np.ndarray
    point: np.ndarray
    rabi: np.ndarray


@dataclass(frozen=True, eq=False)
class GeneratorStack:
    """k generators of N x N entries (N = n^2 for Hilbert dimension n) on
    shared sparse entries: ``values[i, e]`` is entry (``rows[e]``,
    ``cols[e]``) of generator i in the Hermitian basis.

    The entries are in row-major order.  ``rows`` and ``cols`` are made
    read-only, so every stack built from one block set shares them.  The
    values are real (float64); complex ones are accepted only with an
    imaginary part within ``HERMITICITY_TOL`` (:func:`_real_values`).
    :func:`assemble` builds one per grid of phase points, with its
    :class:`DriveSplit` as ``split``, and :func:`cbsim.solver.steady_state`
    solves all of them in one call.  A stack whose values are replaced by a
    different number of generators, a single :meth:`point` among them, has
    no split.
    """

    hilbert_dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    split: DriveSplit = None

    def __post_init__(self):
        self.rows.flags.writeable = self.cols.flags.writeable = False
        object.__setattr__(self, "values", _real_values(self.values))
        if self.split is not None and self.split.rabi.size != len(self.values):
            object.__setattr__(self, "split", None)

    @property
    def dim(self):
        return self.hilbert_dim**2

    @property
    def trace_columns(self):
        """Columns j*n + j, where the trace functional vec(Id) is one."""
        return np.arange(self.hilbert_dim) * (self.hilbert_dim + 1)

    def __len__(self):
        return len(self.values)

    def apply(self, x):
        """(k, N) products of generator i with row i of the real (k, N) ``x``,
        from the entries, 16 generators at a time so that no temporary
        grows with the stack."""
        out = np.empty((len(self), self.dim))
        for first in range(0, len(self), 16):
            at = slice(first, first + 16)
            products = np.take(x[at], self.cols, axis=1)
            products *= self.values[at]
            out[at] = _grouped_sums(self.rows, products, self.dim)
        return out

    def dense(self, i, at=None):
        """Generator i in the Hermitian basis as a new dense real N x N
        Fortran-ordered array, the one scatter of the entries into dense
        storage; with ``at``, a permutation of the N coordinates, coordinate j
        is placed at row and column ``at[j]``."""
        rows, cols = (self.rows, self.cols) if at is None else (at[self.rows], at[self.cols])
        generator = np.zeros((self.dim, self.dim), order="F")
        generator[rows, cols] = self.values[i]
        return generator

    def point(self, i):
        """Generator i as a stack of one."""
        return replace(self, values=self.values[i:i + 1])

    def standard(self, i):
        """Generator i in the standard vectorization, as a dense complex
        C-ordered array."""
        return np.ascontiguousarray(_generator_map(self.dense(i), "inverse"))

    @classmethod
    def from_dense(cls, generators):
        """Stack of dense N x N generators in the standard vectorization, all
        of one Hilbert dimension n = isqrt(N), on the union of their supports
        in the Hermitian basis.  ``generators`` may be any iterable, and only
        one dense array is held at a time.  Raises :class:`DimensionError` for
        no generators or mixed sizes and :class:`ConfigurationError` for a
        generator that does not preserve Hermiticity."""
        entries = []
        for gen in generators:
            gen = np.asarray(gen, dtype=complex)
            n = n if entries else math.isqrt(len(gen))
            if gen.shape != (n * n, n * n):
                raise DimensionError(f"generator of shape {gen.shape} does not act on a "
                                     f"{n}-level system")
            gen = _generator_map(gen, "forward").reshape(-1)
            entries.append((np.flatnonzero(gen), gen[gen != 0]))
        if not entries:
            raise DimensionError("a generator stack needs at least one generator, got none")
        support = np.unique(np.concatenate([flat for flat, _ in entries]))
        values = np.zeros((len(entries), support.size), dtype=complex)
        for row, (flat, entry) in zip(values, entries):
            row[np.searchsorted(support, flat)] = entry
        return cls(n, *np.divmod(support, n * n), values)


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


def drive_hamiltonian(scheme, params, phases=(0.0, 0.0)):
    """Rotating-frame drive Hamiltonian of ``len(phases)`` (1 or 2) atoms.

    Detuning pulls every excited level by ``-detuning`` and the Rabi
    coupling acts on the sigma-plus transition only, with drive phase
    ``phases[j]`` on atom j + 1.
    """
    pull, half_raise = _drive_parts(scheme)

    def single(phase):
        coupling = params.rabi * np.exp(1j * phase) * half_raise
        return params.detuning * pull + coupling + coupling.conj().T

    if len(phases) == 1:
        return single(phases[0])
    if len(phases) != 2:
        raise ConfigurationError(f"one drive phase per atom (1 or 2), got {len(phases)}")
    return atoms.embed(single(phases[0]), 1) + atoms.embed(single(phases[1]), 2)


def decay_dissipator(scheme, n_atoms=2):
    """Independent radiative decay of every transition of every atom.

    Each excited level decays through its single allowed transition with
    total population rate 2 (twice gamma).
    """
    jumps = _jumps(scheme, n_atoms)
    dim = scheme.n_levels**n_atoms
    return master_generator(np.zeros((dim, dim), dtype=complex), jumps,
                            2.0 * np.eye(len(jumps)))


def transverse_weights(scheme, params):
    """Polarization weight matrix T[q, q'] between transition pairs: the
    transverse projector of the interatomic axis sandwiched between the
    spherical polarization vectors, which allows sigma-plus to sigma-minus
    conversion.
    """
    n_t = len(scheme.transitions)
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


def _dense_blocks(scheme):
    """The pair generator's affine blocks [D, H_delta, H_1, H_2c, H_2s],
    every X_c^E, then every X_s^E (module docstring), in the standard
    vectorization, one at a time; ``swap (x) E`` puts E in the atom-to-atom
    blocks of the atom-major jumps."""
    jumps = _jumps(scheme, 2)
    pull, half_raise = _drive_parts(scheme)
    half_lower = half_raise.conj().T
    n_t = len(scheme.transitions)
    couplings = [np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), e.reshape(n_t, n_t))
                 for e in vectorized_operators(np.eye(n_t**2))]
    yield decay_dissipator(scheme, n_atoms=2)
    yield hamiltonian_generator(atoms.embed(pull, 1) + atoms.embed(pull, 2))
    yield hamiltonian_generator(atoms.embed(half_raise + half_lower, 1))
    yield hamiltonian_generator(atoms.embed(half_raise + half_lower, 2))
    yield hamiltonian_generator(atoms.embed(1j * (half_raise - half_lower), 2))
    yield from (hamiltonian_generator(_quadratic_form(-c, jumps)) for c in couplings)
    yield from (master_generator(np.zeros(jumps.shape[1:]), jumps, 2.0 * c) for c in couplings)


def _check_trace_preserving(stack):
    """Raise :class:`ConfigurationError` unless every generator L of the
    stack has tr(L x) = 0, i.e. vanishing column sums over the rows j*n + j
    (the populations, in the Hermitian basis as in the standard one)."""
    values = stack.values
    on_trace_row = stack.rows % (stack.hilbert_dim + 1) == 0
    residual = np.abs(_grouped_sums(stack.cols[on_trace_row], values[:, on_trace_row],
                                    stack.dim)).max(axis=1)
    # The largest |entry| per generator, without a stack-sized temporary.
    largest = np.maximum(values.max(axis=1, initial=0.0), -values.min(axis=1, initial=0.0))
    scale = np.maximum(largest, 1.0)
    bad = np.flatnonzero(~(residual <= 1e-12 * scale))
    if bad.size:
        raise ConfigurationError("generator is not trace preserving "
                                 f"(max residual {residual[bad[0]]:.3e})")


#: The drive blocks H_1, H_2c, H_2s among the affine blocks (:func:`_dense_blocks`).
_DRIVE_BLOCKS = slice(2, 5)


@functools.cache
def _odd_coordinates(scheme):
    """Read-only (N,) mask of the pair coordinates j*n + k of odd excitation
    number n_j + n_k, where a pair level l1*n_levels + l2 (atom 1 major, as
    :func:`cbsim.atoms.embed`) counts the excited levels among l1 and l2."""
    excited = np.isin(np.arange(scheme.n_levels), scheme.excited_levels)
    pair = (excited[:, None].astype(int) + excited).reshape(-1)
    odd = ((pair[:, None] + pair) % 2 == 1).reshape(-1)
    odd.flags.writeable = False
    return odd


def _check_drive_parity(blocks, odd):
    """Raise :class:`ConfigurationError` unless the drive blocks of the block
    stack couple only coordinates of opposite parity in ``odd`` and every
    other block only coordinates of equal parity (:class:`DriveSplit`)."""
    flips = odd[blocks.rows] != odd[blocks.cols]
    drive = np.zeros((len(blocks), 1), dtype=bool)
    drive[_DRIVE_BLOCKS] = True
    misplaced = (blocks.values != 0.0) & (drive != flips)
    if misplaced.any():
        block = np.flatnonzero(misplaced.any(axis=1))[0]
        raise ConfigurationError(f"affine block {block} does not split by drive parity")


@functools.cache
def _affine_blocks(scheme):
    """Read-only :class:`GeneratorStack` of the affine blocks in the Hermitian
    basis, one generator per block, on the entries where any block is nonzero;
    each block is checked trace preserving and split by the drive parity of
    :func:`_odd_coordinates` here, once per scheme."""
    blocks = GeneratorStack.from_dense(_dense_blocks(scheme))
    _check_trace_preserving(blocks)
    _check_drive_parity(blocks, _odd_coordinates(scheme))
    blocks.values.flags.writeable = False
    return blocks


def assemble(scheme, params, phases, rabi=None):
    """Two-atom generators: drive, decay, and photon exchange, combined
    from the cached affine blocks.

    ``phases`` is an (a, p) pair of equal-length sequences of finite
    drive-phase differences and propagation phases (:class:`DomainError`
    otherwise); the result is the :class:`GeneratorStack` of one sparse
    real generator per pair.  ``rabi``, if given, is one Rabi frequency per
    pair in place of ``params.rabi``, so that the generators of several
    drives share one stack: a sequence of that length
    (:class:`DimensionError` otherwise) of finite non-negative values
    (:class:`DomainError` otherwise).  The exchange enters as the coherent
    amplitude ``-g0 cos(p) T[q, q']`` and the cross damping rate
    ``2 g0 sin(p) T[q, q']`` of every ordered transition pair, with
    ``g0 = 3 / (2 kr)``: one product of the coefficient rows of the module
    docstring with the cached block values, whose trace preservation
    :func:`_affine_blocks` checks once; finite combinations keep it.
    """
    a, p = (np.asarray(x, dtype=float).reshape(-1) for x in phases)
    if a.shape != p.shape:
        raise DimensionError(f"{a.size} drive phases for {p.size} propagation phases")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise DomainError("drive and propagation phases must be finite")
    if rabi is None:
        rabi = np.full_like(a, params.rabi)
    else:
        rabi = np.asarray(rabi, dtype=float).reshape(-1)
        if rabi.shape != a.shape:
            raise DimensionError(f"{rabi.size} Rabi frequencies for {a.size} phase points")
        if not np.all((rabi >= 0.0) & (rabi < math.inf)):
            raise DomainError("Rabi frequencies must be finite and non-negative")
    c = 1.5 / params.kr * _real_values(
        hermitian_coordinates(transverse_weights(scheme, params).ravel()))
    coefficients = np.column_stack([np.ones_like(a), np.full_like(a, params.detuning), rabi,
                                    rabi * np.cos(a), rabi * np.sin(a),
                                    np.outer(np.cos(p), c), np.outer(np.sin(p), c)])
    blocks = _affine_blocks(scheme)
    point = np.unique(np.column_stack([a, p]), axis=0, return_inverse=True)[1].reshape(-1)
    return replace(blocks, values=coefficients @ blocks.values,
                   split=DriveSplit(_odd_coordinates(scheme), point, rabi))


def generator_entries(scheme):
    """Number of stored entries of each generator :func:`assemble` builds for
    ``scheme``, the length of a row of its stack's values."""
    return _affine_blocks(scheme).rows.size


def assemble_single(scheme, params):
    """Generator for one driven atom (no exchange, drive phase zero), as a
    :class:`GeneratorStack` of one."""
    jumps = _jumps(scheme, 1)
    stack = GeneratorStack.from_dense([master_generator(
        drive_hamiltonian(scheme, params, phases=(0.0,)), jumps, 2.0 * np.eye(len(jumps)))])
    _check_trace_preserving(stack)
    return stack
