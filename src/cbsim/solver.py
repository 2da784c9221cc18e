"""Steady states, time evolution, and frequency-domain solves.

Everything here is a dense linear-algebra operation on the vectorized
Liouville space (dimension <= 256 for the schemes shipped with the
package), so direct LU factorization with partial pivoting is used
throughout.  All functions are pure; independent solves may run
concurrently without shared state.
"""

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import ConditioningError, DimensionError, DomainError, MultiplicityError

#: Residual bound for the steady-state solve, relative to ||L||.
STEADY_RESIDUAL_TOL = 1e-10
#: Density-matrix invariants: hermiticity and trace tolerances, eigenvalue floor.
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-8
#: Ratio of the two smallest singular values below which the stationary
#: manifold is reported as degenerate.
NULLITY_RATIO = 1e-6
#: Reciprocal-condition floor for resolvent solves (condition > 1e12 fails).
RCOND_MIN = 1e-12
#: Residual bound for resolvent solves, relative to ||rhs||.
RESOLVENT_RESIDUAL_TOL = 1e-9


def vectorize(rho):
    """Row-major vectorization of a density matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvectorize(v):
    v = np.asarray(v)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionError(f"vector of length {v.size} is not a vectorized matrix")
    return v.reshape(n, n)


def validate_density(rho):
    """Raise if ``rho`` is not Hermitian, unit trace, and positive (up to noise)."""
    herm_err = np.abs(rho - rho.conj().T).max()
    if herm_err > DENSITY_HERM_TOL:
        raise ConditioningError(f"density matrix not Hermitian (max deviation {herm_err:.3e})")
    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > DENSITY_TRACE_TOL:
        raise ConditioningError(f"density matrix trace deviates by {trace_err:.3e}")
    min_eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if min_eig < DENSITY_EIG_FLOOR:
        raise ConditioningError(f"density matrix has negative eigenvalue {min_eig:.3e}")


def steady_state(liou):
    """Stationary density matrix of a trace-preserving generator.

    The singular linear system L x = 0 is regularized by replacing its
    first row with the trace constraint.  The two smallest singular values
    of L are compared first; a second near-vanishing one raises
    :class:`MultiplicityError` with the estimated nullity.
    """
    gen = liou.generator
    n = liou.hilbert_dim
    svals = np.linalg.svd(gen, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    small = svals / scale < NULLITY_RATIO
    if small.sum() > 1:
        raise MultiplicityError(int(small.sum()))

    system = gen.copy()
    system[0, :] = np.eye(n, dtype=complex).reshape(-1)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    x = sla.solve(system, rhs)
    rho = unvectorize(x)
    rho = 0.5 * (rho + rho.conj().T)

    residual = np.linalg.norm(gen @ rho.reshape(-1))
    if residual > STEADY_RESIDUAL_TOL * np.linalg.norm(gen):
        raise ConditioningError(
            f"steady-state residual {residual:.3e} exceeds tolerance"
        )
    validate_density(rho)
    return rho


def evolve(liou, rho0, t):
    """Propagate ``rho0`` for a time ``t`` (units of 1/gamma) under exp(L t)."""
    if t < 0:
        raise DomainError(f"evolution time must be non-negative, got {t}")
    propagator = sla.expm(liou.generator * t)
    return unvectorize(propagator @ vectorize(rho0))


class ResolventSolver:
    """Repeated solves of (i omega Id - L) x = rhs against one generator.

    ``deflate`` may be the vectorized steady state; adding the rank-one
    map x -> tr(x) rho_ss removes the stationary zero mode so that
    trace-free right-hand sides can be solved at any real omega, including
    omega = 0, without changing the solution on the trace-free subspace.
    The omega-independent system matrix ``base`` (-L plus the deflation)
    is prepared once; every factorization is checked by a reciprocal
    condition estimate and every solve by a residual bound.
    """

    def __init__(self, liou, deflate=None):
        base = -liou.generator
        if deflate is not None:
            trace_vec = np.eye(liou.hilbert_dim, dtype=complex).reshape(-1)
            base = base + np.outer(np.asarray(deflate, dtype=complex), trace_vec)
        else:
            base = base.copy()
        self.base = base
        self._n = base.shape[0]

    def factor(self, omega):
        """LU-factorize at one frequency and return a solve closure."""
        m = self.base.copy()
        m.flat[:: self._n + 1] += 1j * omega
        anorm = np.abs(m).sum(axis=0).max()
        lu, piv, info = lapack.zgetrf(m)
        if info != 0:
            raise ConditioningError(f"LU factorization failed (info={info})")
        rcond, _ = lapack.zgecon(lu, anorm)
        if rcond < RCOND_MIN:
            raise ConditioningError(
                f"resolvent system at omega={omega:g} is ill-conditioned "
                f"(condition estimate {1.0 / max(rcond, 1e-300):.3e})"
            )

        def solve(rhs):
            x, info_s = lapack.zgetrs(lu, piv, rhs)
            if info_s != 0:
                raise ConditioningError(f"LU solve failed (info={info_s})")
            res = np.linalg.norm(m @ x - rhs)
            if res > RESOLVENT_RESIDUAL_TOL * max(np.linalg.norm(rhs), 1e-300):
                raise ConditioningError(
                    f"resolvent residual {res:.3e} exceeds tolerance at omega={omega:g}"
                )
            return x

        return solve


def resolvent_solve(liou, rhs, omega, deflate=None):
    """Solve (i omega Id - L) x = rhs by dense LU with partial pivoting."""
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (liou.dim,):
        raise DimensionError(
            f"rhs must be a vectorized operator of length {liou.dim}, got {rhs.shape}"
        )
    if not np.any(rhs):
        return np.zeros_like(rhs)
    return ResolventSolver(liou, deflate=deflate).factor(omega)(rhs)
