"""Independent references the tests hold the program against.

Each oracle takes a route of its own: the time domain by the matrix
exponential, single LU solves in the standard vectorization, the phase
average solved at every grid point, and a plain reader of the emitted CSV
text.  Only the phase-average oracle calls the spectral kernel
(``cbsim.spectra.spectral_poles``), since what it checks is the fold of the
grid into symmetry orbits, not the kernel.
"""

import numpy as np
import scipy.linalg as sla

from cbsim import cbs, spectra
from cbsim.errors import DomainError
from cbsim.solver import ResolventSolver


def evolve(generator, rho0, t):
    """Propagate ``rho0`` for a time ``t`` (units of 1/gamma) under exp(L t),
    for the dense ``generator`` L in the standard vectorization."""
    if t < 0:
        raise DomainError(f"evolution time must be non-negative, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    return (sla.expm(generator * t) @ rho0.reshape(-1)).reshape(rho0.shape)


def correlation(generator, rho_ss, a_op, b_op, omega, connected=False):
    """Half-line transform of <A(t) B(t+tau)> at a frequency offset.

    Computes integral_0^inf dtau exp(i omega tau) tr[B exp(L tau)(rho_ss A)]
    through one dense resolvent solve of the ``generator`` L in the
    standard vectorization.  With ``connected=True`` the
    factorized part <A><B> is subtracted first (and the stationary mode is
    deflated), which makes the transform finite at every real omega
    including zero.
    """
    seed = rho_ss @ a_op
    deflate = None
    if connected:
        seed = seed - np.trace(seed) * rho_ss
        deflate = rho_ss.reshape(-1)
    # exp(i omega tau) integrated against exp(L tau) gives (-i omega - L)^(-1),
    # i.e. the resolvent evaluated at the opposite frequency sign.
    solve = ResolventSolver(generator, deflate=deflate).factor(-omega)
    x = solve(seed.reshape(-1).astype(complex))
    return complex(np.trace(b_op @ x.reshape(seed.shape)))


def phase_average_unfolded(scheme, params, n_a, n_p, omega_grid=None):
    """The (ladder, crossed) pairs of ``cbs._phase_average`` with every one of
    the n_a * n_p (a, p) points solved and b averaged here, with no use of
    the phase-point symmetries: at each point the b-average of
    Re sum_jk exp(i(b_j - b_k)) x[j, k] is Re(x00 + x11), and twice the real
    part of its exp(-i(a + b)) harmonic is Re(exp(ia) x01 + exp(-ia) x10).
    The pole sum of a spectrum is evaluated in complex arithmetic."""
    lows, highs = cbs._detection_operators(scheme)
    a, p = cbs.phase_grid(n_a, n_p)
    m, e, stack, rho = cbs._moment_matrices(scheme, params, (a, p))

    def rows(x, a_i):
        return np.array([(x[0, 0] + x[1, 1]).real,
                         (np.exp(1j * a_i) * x[0, 1] + np.exp(-1j * a_i) * x[1, 0]).real])

    sums = [sum(rows(mat[:, :, i], a_i) for i, a_i in enumerate(a)) for mat in (m, e)]
    if omega_grid is not None:
        density = np.zeros((2, omega_grid.size))
        for i, a_i in enumerate(a):
            seeds = [spectra.connected_initial(rho[i], op) for op in highs]
            lam, w = spectra.spectral_poles(stack.point(i), rho[i], seeds, lows, omega_grid)
            if lam is not None:
                w = w @ (1.0 / (lam[:, None] - 1j * omega_grid[None, :]))
            density += rows(w, a_i) / np.pi
        sums.append(density)
    return [(ladder / a.size, crossed / a.size) for ladder, crossed in sums]


def read_csv(path):
    """Read back an emitted CSV: (metadata lines, header fields, rows)."""
    metadata, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                metadata.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, header, rows
