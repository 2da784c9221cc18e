"""Two-time dipole correlations and emission spectra.

Stationary two-time correlations <A(t) B(t+tau)> follow from the same
generator as one-time expectations: the operator rho_ss A is propagated and
closed with a trace against B.  The half-line Fourier transform is obtained
directly in the frequency domain.  Every spectrum goes through the one
kernel :func:`spectral_poles`, which diagonalizes the deflated generator
once, checks itself and falls back to one LU solve per frequency; the
poles are summed over the grid in real arithmetic by
:func:`real_pole_sum`, once per spectrum: a backscattering spectrum
concatenates the poles of all its phase points.  The kernel
works in the Hermitian operator basis of :mod:`cbsim.liouvillian`, where
the generator and the deflation by the (Hermitian) steady state are real,
so the diagonalization is that of a real matrix; seeds and observables are
mapped into the basis, and an orthonormal basis leaves the eigenvector
condition number and the residual norms of the guard unchanged.  Both
routes solve only on the coordinates that the seeds feed and the
observables see (:func:`_coupled`): in the detected sigma-minus channel
no pair state with both atoms in an undriven excited level is reached
from the ground state, so 64 of 81 coordinates remain for v_type, and 64
(axis x) or 144 (an oblique axis) of 256 for full_j0_j1.  Spectra
use the connected correlator (means subtracted), which removes the
coherent delta at the drive frequency exactly; that elastic weight is
reported separately.  Frequency grids have fixed steps
(:func:`default_omega_grid`).
"""

from dataclasses import dataclass

import numpy as np

from . import atoms, dressed
from .errors import DomainError
from .liouvillian import assemble_single, hermitian_coordinates
from .solver import (RESOLVENT_RESIDUAL_TOL, ResolventSolver, one_blas_thread, steady_state,
                     vectorize)

BACKGROUND = "background"
INTERFERENCE = "interference"

#: The frequency grid (units of gamma): total span as a multiple of the
#: generalized Rabi frequency, base spacing, and the finer spacing applied
#: within ``REFINE_HALFWIDTH`` of each predicted peak.
SPAN_FACTOR = 2.5
BASE_STEP = 0.1
REFINE_STEP = 0.02
REFINE_HALFWIDTH = 5.0
#: Most frequencies a grid may hold: 126 times the production grid's 7,909.
MAX_GRID_POINTS = 10**6

#: Eigen-route guard of :func:`spectral_poles`: the largest eigenvector
#: condition number trusted, and how many of the slowest-decaying poles
#: get a residual check at their nearest grid frequency.
EIGVEC_COND_MAX = 1e7
CHECKED_POLES = 4
#: Largest first-order eigenvector correction |E_ij / (lam_j - lam_i)| that
#: :func:`_refined_eigenpairs` applies; closer pairs keep their vectors.
EIGVEC_CORRECTION_MAX = 1e-6
#: Poles and frequencies per block of :func:`real_pole_sum` (0.26 MB of scratch).
POLE_CHUNK = OMEGA_CHUNK = 128


@dataclass(frozen=True, eq=False)
class SpectrumSeries:
    """Sampled inelastic spectral density plus a separate elastic weight.

    ``density`` is real; non-negative for background-type spectra, signed
    for interference-type ones.  ``elastic_weight`` is the weight of the
    delta at the drive frequency.
    """

    omega: np.ndarray
    density: np.ndarray
    elastic_weight: float
    kind: str

    @property
    def integral(self):
        """Trapezoidal integral of the density over the grid."""
        return float(np.trapezoid(self.density, self.omega))

    def total(self):
        """Density integral plus elastic weight."""
        return self.integral + self.elastic_weight


def connected_initial(rho_ss, a_op):
    """Vectorized rho_ss A - <A> rho_ss, the trace-free regression seed."""
    init = rho_ss @ a_op
    return vectorize(init - np.trace(init) * rho_ss)


def spectral_response(stack, rho_ss, seeds, observables, omegas):
    """Connected regression transforms ``t[j, k, i]`` over a frequency grid:
    those of :func:`spectral_poles`, with its pole sum evaluated by
    :func:`real_pole_sum` on the real and imaginary parts."""
    lam, w = spectral_poles(stack, rho_ss, seeds, observables, omegas)
    if lam is None:
        return w
    # Re(-i c / (lam - i omega)) is Im(c / (lam - i omega)).
    rows = np.concatenate([w, -1j * w]).reshape(2 * len(w) * w.shape[1], lam.size)
    parts = real_pole_sum(lam, rows, omegas)
    re, im = parts.reshape((2,) + w.shape[:2] + (-1,))
    return re + 1j * im


@one_blas_thread()
def spectral_poles(stack, rho_ss, seeds, observables, omegas):
    """Poles of the connected regression transforms over a frequency grid.

    The transforms are ``t[j, k, i] = tr[B_k X_j]`` with
    (B - i omega_i) X_j = seeds[j], B = -L + |rho_ss><tr|, for vectorized
    trace-free seeds (:func:`connected_initial` of A_j) and observables
    B_k, i.e. the half-line transforms of the connected <A_j(t) B_k(t+tau)>
    at every frequency, for the generator L of the one-generator
    :class:`~cbsim.liouvillian.GeneratorStack` ``stack``.  One
    diagonalization of the real B = V diag(lam) V^-1 gives ``(lam, w)`` with
    t[j, k, i] = sum_m w[j, k, m] / (lam_m - i omega_i); when the guard of
    :func:`_eigen_poles` trips, ``(None, t)`` holds t solved by LU at every
    frequency instead.

    Both routes work on B_GG, the block of B on the coupled set G = O & F
    of :func:`_coupled`: O holds the coordinates reached from the support
    of the observables along the edges i -> j with B[i, j] != 0, F those
    that reach the support of the seeds.  t = P_G (B_GG - i omega)^-1 R_G
    exactly, for every B: (1) rows outside F have no entry in F's columns
    and the seeds vanish there, so X vanishes off F; (2) rows inside O have
    no entry outside O, and the observables vanish off O; (3) so only B_GG
    enters t.  G comes from the numeric pattern of B, the seeds and the
    observables, so an entry that roundoff leaves nonzero only enlarges it.
    |G| is 64 of 81 for v_type and 64 (axis x) or 144 (oblique axis) of 256
    for full_j0_j1; along z no exchange turns sigma-plus into sigma-minus,
    G is empty and there are no poles (empty ``lam``, ``w`` of shape
    (j, k, 0)).  The steady state stays on the full space, since its
    uniqueness check covers every coordinate.

    Both routes carry an absolute roundoff of about eps * ||B_k|| ||X_j||.
    At weak drive the detected-channel transform is far smaller than that
    scale (at rabi = 1e-3, v_type, omega = 0: 2.8e-17 against
    ||X|| ~ 3e-9), so it keeps only about eight significant digits there.
    """
    rhs = hermitian_coordinates(np.array(seeds)).T
    # tr[B X] is the plain dot product of the coordinates of B and X.
    project = hermitian_coordinates(np.array([vectorize(op) for op in observables]))
    omegas = np.asarray(omegas, dtype=float)
    # rho_ss is Hermitian, so its coordinates are real.
    solver = ResolventSolver(stack.dense(0),
                             deflate=hermitian_coordinates(vectorize(rho_ss)).real)
    keep = _coupled(solver.base, rhs, project)
    if not keep.size:
        return np.empty(0, dtype=complex), np.zeros((rhs.shape[1], len(project), 0), complex)
    # Restricted after the deflation term is added, which needs the full space.
    solver.base = solver.base[np.ix_(keep, keep)]
    rhs, project = rhs[keep], project[:, keep]
    poles = _eigen_poles(solver.base, rhs, project, omegas)
    if poles is not None:
        return poles
    out = np.empty((rhs.shape[1], project.shape[0], omegas.size), dtype=complex)
    for i, w in enumerate(omegas):
        out[:, :, i] = (project @ solver.factor(-w)(rhs)).T
    return None, out


def _coupled(base, rhs, project):
    """Indices G of the coordinates that both reach the support of ``rhs``
    and are reached from that of ``project`` along the edges i -> j with
    base[i, j] != 0: the only ones the transforms of :func:`spectral_poles`
    depend on."""
    edges = base != 0
    observed = _closure(edges, (project != 0).any(axis=0))
    fed = _closure(edges.T, (rhs != 0).any(axis=1))
    return np.flatnonzero(observed & fed)


def _closure(edges, start):
    """Mask of the nodes reachable from the mask ``start`` along edges[i, j]."""
    reached, frontier = start.copy(), start
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~reached
        reached |= frontier
    return reached


def _eigen_poles(base, rhs, project, omegas):
    """Eigen route of :func:`spectral_poles`, or ``None`` if it is not trusted.

    The eigenvector matrix must be invertible with condition number below
    ``EIGVEC_COND_MAX``, and the true residual ||(B - i omega) x - rhs||
    must stay within ``RESOLVENT_RESIDUAL_TOL * ||rhs||`` at the grid ends
    and at the grid points nearest the slowest-decaying poles.
    """
    try:
        lam, vecs = np.linalg.eig(base)
        if not _eigvec_cond(lam, vecs) < EIGVEC_COND_MAX:
            return None
        lam, vecs = _refined_eigenpairs(base, lam, vecs)
        coeffs = np.linalg.solve(vecs, rhs)
    except np.linalg.LinAlgError:
        return None
    if omegas.size:
        # Pole m sits nearest the real axis at omega = Im lam_m.
        slow = np.argsort(lam.real)[:CHECKED_POLES]
        nearest = np.abs(omegas[:, None] - lam.imag[slow]).argmin(axis=0)
        tol = RESOLVENT_RESIDUAL_TOL * max(np.linalg.norm(rhs), 1e-300)
        for w in omegas[np.unique([0, omegas.size - 1, *nearest])]:
            x = vecs @ (coeffs / (lam - 1j * w)[:, None])
            if not np.linalg.norm(base @ x - 1j * w * x - rhs) <= tol:
                return None
    # w[j, k, m] = (project V)[k, m] (V^-1 rhs)[m, j].
    return lam, np.einsum("km,mj->jkm", project @ vecs, coeffs)


def _eigvec_cond(lam, vecs):
    """2-norm cond(vecs) for the eigenpairs of a real matrix, by a real SVD:
    ``np.linalg.eig`` returns each complex pair as exact conjugates, and
    [v, conj v] is [sqrt(2) Re v, sqrt(2) Im conj v] times the unitary
    [[1, 1], [-i, i]] / sqrt(2)."""
    return np.linalg.cond(np.where(lam.imag < 0, vecs.imag, vecs.real)
                          * np.where(lam.imag == 0, 1.0, np.sqrt(2.0)))


@np.errstate(over="ignore")
def real_pole_sum(lam, weights, omegas):
    """``Re sum_m weights[r, m] / (lam_m - i omega_i)`` in real arithmetic.

    With lam = x + iy and u = y - omega, Re c / (x + iu) is
    (x Re c + u Im c) / (x^2 + u^2), so each block of ``POLE_CHUNK`` poles
    and ``OMEGA_CHUNK`` frequencies is one real product of [x Re c, Im c]
    with 1 / (x^2 + u^2) stacked on u / (x^2 + u^2) in one scratch buffer.
    Short products keep the rounding at that of one phase point's poles.
    Where u^2 overflows (|u| > 1e154) the term, below 1e-154 |c|, is 0.
    """
    out = np.zeros((len(weights), len(omegas)))
    buffer = np.empty((2 * POLE_CHUNK, OMEGA_CHUNK))
    for first in range(0, lam.size, POLE_CHUNK):
        poles, c = lam[first:first + POLE_CHUNK], weights[:, first:first + POLE_CHUNK]
        coeffs, m = np.hstack([c.real * poles.real, c.imag]), poles.size
        y, x2 = poles.imag[:, None], poles.real[:, None] ** 2
        for start in range(0, len(omegas), OMEGA_CHUNK):
            block = omegas[start:start + OMEGA_CHUNK]
            n = len(block)
            scale, shift = buffer[:m, :n], buffer[m:2 * m, :n]
            np.subtract(y, block, out=shift)
            np.multiply(shift, shift, out=scale)
            scale += x2
            np.reciprocal(scale, out=scale)
            shift *= scale
            out[:, start:start + n] += coeffs @ buffer[:2 * m, :n]
    return out


def _refined_eigenpairs(base, lam, vecs):
    """One first-order correction of the eigenpairs ``(lam, vecs)`` of ``base``.

    With E = V^-1 (B V - V diag(lam)), lam_m gains E_mm and column j of V
    gains sum_i V[:, i] E_ij / (lam_j - lam_i) over the pairs within
    ``EIGVEC_CORRECTION_MAX``.  LAPACK's eigenpairs carry a dense backward
    error of about eps ||B||, which costs the detected-channel transforms,
    small against ||B_k|| ||X_j||, their relative accuracy; B V is formed
    from B itself, so the step brings them to that of an LU solve (v_type,
    rabi 10, detuning 2: 1.3e-12 before the step, 3.5e-15 after, 3.0e-15
    by LU, against a long-double reference).
    """
    residual = base @ vecs
    residual -= vecs * lam
    e = np.linalg.solve(vecs, residual)
    lam = lam + np.diagonal(e)
    gap = lam - lam[:, None]
    keep = np.abs(e) < EIGVEC_CORRECTION_MAX * np.abs(gap)
    # e becomes the correction in place: E_ij / (lam_j - lam_i) where kept, else 0.
    np.divide(e, gap, out=e, where=keep)
    e[~keep] = 0.0
    correction = vecs @ e
    correction += vecs
    return lam, correction


def elastic_weight(rho_ss, a_op, b_op):
    """Factorized (coherent) part <A><B>, the delta weight at the drive frequency."""
    return complex(np.trace(rho_ss @ a_op) * np.trace(rho_ss @ b_op))


def checked_grid(omega_grid, params):
    """``omega_grid`` as a float array, or the default grid of ``params`` if it
    is None; raises :class:`DomainError` unless it is one-dimensional, finite
    and strictly increasing, with the two points a trapezoidal area needs."""
    if omega_grid is None:
        return default_omega_grid(params.rabi, params.detuning)
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not (np.isfinite(grid).all()
                                                and (np.diff(grid) > 0).all()):
        raise DomainError("frequency grid must be 1-D, finite, strictly increasing, 2+ points")
    return grid


def _lattice(span):
    """The half-width of a grid in units of ``REFINE_STEP``, once the span and
    the size (at most ``MAX_GRID_POINTS``, counted in floating point) are
    checked."""
    if not (np.isfinite(span) and span > 0):
        raise DomainError(f"grid span must be finite and positive, got {span}")
    # Python floats overflow to inf without a warning; 7 peaks, 2 sides each.
    span = float(span)
    n_span = span / REFINE_STEP
    count = 2.0 * span / BASE_STEP + 14.0 * REFINE_HALFWIDTH / REFINE_STEP
    if not (n_span < np.inf and count <= MAX_GRID_POINTS):
        raise DomainError(f"a grid of span {span:g} has about {count:.3g} points, "
                          f"more than {MAX_GRID_POINTS:,}")
    return int(np.ceil(n_span))


def default_omega_grid(rabi, detuning, span=None):
    """Symmetric frequency grid resolving all predicted resonances.

    Covers ``+- SPAN_FACTOR * Omega_R`` (or an explicit ``span``) at
    ``BASE_STEP`` spacing with ``REFINE_STEP`` refinement inside
    ``+- REFINE_HALFWIDTH`` of each predicted peak.  All points are integer
    multiples of ``REFINE_STEP`` so that a zero-detuning grid is exactly
    mirror symmetric; :func:`_lattice` checks the span and the size.
    """
    if span is None:
        span = SPAN_FACTOR * max(dressed.generalized_rabi(rabi, detuning), 1.0)
    n_span = _lattice(span)
    positive = set(range(0, n_span + 1, round(BASE_STEP / REFINE_STEP)))
    positive.add(n_span)
    lattice = positive | {-k for k in positive}
    for pos in dressed.peak_positions(rabi, detuning).values():
        lo = max(np.floor((pos - REFINE_HALFWIDTH) / REFINE_STEP), -n_span)
        hi = min(np.ceil((pos + REFINE_HALFWIDTH) / REFINE_STEP), n_span)
        if lo <= hi:  # skip a window outside the span: its offsets may be infinite
            lattice.update(range(int(lo), int(hi) + 1))
    return REFINE_STEP * np.array(sorted(lattice), dtype=float)


def single_atom_spectrum(params, omega_grid=None, scheme=None):
    """Resonance-fluorescence spectrum of one driven atom.

    The density is the real part of the connected dipole correlation
    divided by pi, so that its integral equals the incoherent intensity;
    the coherent intensity appears as the separate elastic weight.
    """
    if scheme is None:
        scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    omega_grid = checked_grid(omega_grid, params)
    low = atoms.lowering_operator(scheme, scheme.driven_transition)
    high = low.conj().T
    stack = assemble_single(scheme, params)
    rho = steady_state(stack)[0]

    seeds = [connected_initial(rho, high)]
    density = spectral_response(stack, rho, seeds, [low], omega_grid)[0, 0].real / np.pi
    elastic = elastic_weight(rho, high, low).real
    return SpectrumSeries(omega=omega_grid, density=density,
                          elastic_weight=elastic, kind=BACKGROUND)
