"""Steady states, time evolution, and frequency-domain solves.

Everything here is a dense linear-algebra operation on the vectorized
Liouville space (dimension <= 256 for the schemes shipped with the
package), so direct LU factorization with partial pivoting is used
throughout.  All functions are pure; independent solves may run
concurrently without shared state.

The steady state solves the bordered system M x = e_0, where M is the
generator with its first row replaced by the trace functional.  M is
singular exactly when the stationary manifold is degenerate, so the LU
factorization of M doubles as the uniqueness test: the singular-value
check that reports the nullity runs only when the LAPACK condition
estimate of that factorization falls below a bound derived in
:func:`steady_state`.
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
#: Singular values below this fraction of the largest count towards the
#: nullity; more than one reports the stationary manifold as degenerate.
NULLITY_RATIO = 1e-6
#: Safety factor on the rcond trigger of the singular-value check, since
#: LAPACK's estimate can exceed the true reciprocal condition number.
UNIQUENESS_MARGIN = 10.0
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


def _check_unique(gen):
    """Raise :class:`MultiplicityError` with the estimated nullity when more
    than one singular value of ``gen`` is below ``NULLITY_RATIO`` of the largest."""
    svals = np.linalg.svd(gen, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    small = svals / scale < NULLITY_RATIO
    if small.sum() > 1:
        raise MultiplicityError(int(small.sum()))


def steady_state(liou):
    """Stationary density matrix of a trace-preserving generator.

    The singular linear system L x = 0 is regularized by replacing its
    first row with the trace constraint, and that bordered matrix M is
    LU-factorized once.  A second near-vanishing singular value of L
    raises :class:`MultiplicityError` with the estimated nullity; it is
    looked for only when M is near singular.
    """
    gen = liou.generator
    n = liou.hilbert_dim
    system = np.array(gen, order="F")  # Fortran order: zgetrf factors it in place
    system[0, :] = np.eye(n, dtype=complex).reshape(-1)
    m_norm = np.abs(system).sum(axis=0).max()
    lu, piv, info = lapack.zgetrf(system, overwrite_a=True)
    rcond = lapack.zgecon(lu, m_norm)[0] if info == 0 else 0.0
    # When the singular-value check fires, sigma_{N-1}(L) < r ||L||_2 with
    # N = n^2 and r = NULLITY_RATIO.  M is a rank-one update of L (row 0),
    # so Weyl's inequality gives sigma_min(M) <= sigma_{N-1}(L), and with
    # ||M^-1||_1 >= 1 / (sqrt(N) sigma_min(M)) and ||L||_2 <= sqrt(N) ||L||_1
    #     rcond_1(M) <= sqrt(N) sigma_min(M) / ||M||_1 < N r ||L||_1 / ||M||_1.
    # zgecon bounds ||M^-1||_1 from below and so can overestimate rcond;
    # UNIQUENESS_MARGIN covers that.  NaN entries also take the check.
    trigger = UNIQUENESS_MARGIN * n**2 * NULLITY_RATIO * np.abs(gen).sum(axis=0).max() / m_norm
    if info != 0 or not rcond >= trigger:
        _check_unique(gen)
        if info != 0:
            raise ConditioningError(f"bordered steady-state system is singular (info={info})")

    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    x, info = lapack.zgetrs(lu, piv, rhs)
    if info != 0:
        raise ConditioningError(f"steady-state LU solve failed (info={info})")
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
