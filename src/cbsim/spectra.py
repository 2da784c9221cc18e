"""Two-time dipole correlations and emission spectra.

Stationary two-time correlations <A(t) B(t+tau)> follow from the same
generator as one-time expectations: the operator rho_ss A is propagated and
closed with a trace against B.  The half-line Fourier transform is obtained
directly in the frequency domain from a single resolvent solve per
frequency; every spectrum goes through the one kernel
:func:`spectral_response`.  Spectra use the connected correlator (means
subtracted), which removes the coherent delta at the drive frequency
exactly; that elastic weight is reported separately.
"""

from dataclasses import dataclass

import numpy as np

from . import atoms, dressed
from .errors import DomainError
from .liouvillian import assemble_single
from .solver import ResolventSolver, steady_state, vectorize, unvectorize

BACKGROUND = "background"
INTERFERENCE = "interference"

#: Default frequency-grid parameters (units of gamma): total span as a
#: multiple of the generalized Rabi frequency, base spacing, and the finer
#: spacing applied within ``REFINE_HALFWIDTH`` of each predicted peak.
SPAN_FACTOR = 2.5
BASE_STEP = 0.1
REFINE_STEP = 0.02
REFINE_HALFWIDTH = 5.0


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


def correlation(liou, rho_ss, a_op, b_op, omega, connected=False):
    """Half-line transform of <A(t) B(t+tau)> at a frequency offset.

    Computes integral_0^inf dtau exp(i omega tau) tr[B exp(L tau)(rho_ss A)]
    through one dense resolvent solve.  With ``connected=True`` the
    factorized part <A><B> is subtracted first (and the stationary mode is
    deflated), which makes the transform finite at every real omega
    including zero.
    """
    if connected:
        rhs = connected_initial(rho_ss, a_op)
        deflate = vectorize(rho_ss)
    else:
        rhs = vectorize(rho_ss @ a_op)
        deflate = None
    # exp(i omega tau) integrated against exp(L tau) gives (-i omega - L)^(-1),
    # i.e. the resolvent evaluated at the opposite frequency sign.
    solve = ResolventSolver(liou, deflate=deflate).factor(-omega)
    return complex(np.trace(b_op @ unvectorize(solve(rhs))))


def spectral_response(liou, rho_ss, seeds, observables, omegas):
    """Connected regression transforms over a frequency grid.

    Returns ``t[j, k, i] = tr[B_k X_j]`` with (-i omega_i - L + |rho_ss><tr|)
    X_j = seeds[j] for vectorized trace-free seeds (:func:`connected_initial`)
    and observables B_k, i.e. ``correlation(..., connected=True)`` at every
    frequency.  The deflated system is nonsingular for every real frequency,
    so the condition estimate is skipped; the residual bound still applies.
    """
    rhs = np.column_stack(seeds)
    # tr[B X] = vec(B^T) . vec(X) in the row-major vectorization.
    project = np.array([vectorize(op.T) for op in observables])
    omegas = np.asarray(omegas, dtype=float)
    solver = ResolventSolver(liou, deflate=vectorize(rho_ss), check_condition=False)
    out = np.empty((rhs.shape[1], project.shape[0], omegas.size), dtype=complex)
    for i, w in enumerate(omegas):
        out[:, :, i] = (project @ solver.factor(-w)(rhs)).T
    return out


def elastic_weight(rho_ss, a_op, b_op):
    """Factorized (coherent) part <A><B>, the delta weight at the drive frequency."""
    return complex(np.trace(rho_ss @ a_op) * np.trace(rho_ss @ b_op))


def default_omega_grid(rabi, detuning, gamma=1.0, span=None, span_factor=SPAN_FACTOR,
                       base_step=BASE_STEP, refine_step=REFINE_STEP,
                       refine_halfwidth=REFINE_HALFWIDTH):
    """Symmetric frequency grid resolving all predicted resonances.

    Covers ``+- span_factor * Omega_R`` (or an explicit ``span``) at
    ``base_step`` spacing with ``refine_step`` refinement inside
    ``+- refine_halfwidth`` of each predicted peak.  All points are integer
    multiples of ``refine_step`` so that a zero-detuning grid is exactly
    mirror symmetric.
    """
    if base_step <= 0 or refine_step <= 0 or base_step < refine_step:
        raise DomainError("grid steps must satisfy base_step >= refine_step > 0")
    omega_r = dressed.generalized_rabi(rabi, detuning)
    if span is None:
        span = span_factor * max(omega_r, 1.0) * gamma
    coarse_every = max(int(round(base_step / refine_step)), 1)
    n_span = int(np.ceil(span / refine_step))
    positive = set(range(0, n_span + 1, coarse_every))
    positive.add(n_span)
    lattice = positive | {-k for k in positive}
    for pos in dressed.peak_positions(rabi, detuning).as_dict().values():
        lo = int(np.floor((pos - refine_halfwidth) / refine_step))
        hi = int(np.ceil((pos + refine_halfwidth) / refine_step))
        lattice.update(range(max(lo, -n_span), min(hi, n_span) + 1))
    return refine_step * np.array(sorted(lattice), dtype=float)


def single_atom_spectrum(params, omega_grid=None, scheme=None):
    """Resonance-fluorescence spectrum of one driven atom.

    The density is the real part of the connected dipole correlation
    divided by pi, so that its integral equals the incoherent intensity;
    the coherent intensity appears as the separate elastic weight.
    """
    if scheme is None:
        scheme = atoms.build_scheme(atoms.TWO_LEVEL)
    low = atoms.lowering_operator(scheme, scheme.driven_transition)
    high = low.conj().T
    liou = assemble_single(scheme, params)
    rho = steady_state(liou)
    if omega_grid is None:
        omega_grid = default_omega_grid(params.rabi, params.detuning, params.gamma)
    omega_grid = np.asarray(omega_grid, dtype=float)

    seeds = [connected_initial(rho, high)]
    density = spectral_response(liou, rho, seeds, [low], omega_grid)[0, 0].real / np.pi
    elastic = elastic_weight(rho, high, low).real
    return SpectrumSeries(omega=omega_grid, density=density,
                          elastic_weight=elastic, kind=BACKGROUND)
