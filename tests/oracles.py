"""Independent references the tests hold the program against.

Each oracle takes a route of its own: the time domain by the matrix
exponential, single LU solves in the standard vectorization, and a plain
reader of the emitted CSV text.  None of them calls the spectral kernel
(``cbsim.spectra.spectral_poles``) that they check.
"""

import numpy as np
import scipy.linalg as sla

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
