"""Steady states and frequency-domain (resolvent) solves.

Everything here is a dense linear-algebra operation on the vectorized
Liouville space (dimension <= 256 for the schemes shipped with the
package), so direct LU factorization with partial pivoting is used
throughout.  All functions are pure; independent solves may run
concurrently without shared state.  :class:`ResolventSolver` is the LU
route of the spectral kernel :func:`cbsim.spectra.spectral_poles`.

The steady state solves the bordered system M x = e_0, where M is the
generator with its first row replaced by the trace functional.  M is
singular exactly when the stationary manifold is degenerate, so the LU
factorization of M doubles as the uniqueness test: the singular-value
check that reports the nullity runs only when the LAPACK condition
estimate of that factorization falls below a bound derived in
:func:`steady_state`.  It takes a :class:`~cbsim.liouvillian.GeneratorStack`
only, and solves the whole stack in one call: each sparse generator is
scattered into one reused Fortran-ordered buffer, zeroed once per call,
at offsets computed once per call from the stack's ``rows`` and ``cols``,
and LAPACK factors a copy.  The Frobenius norms come from the entries and
the residuals from grouped row sums of them; they and the density checks
act on the whole stack.  A single generator is a stack of one
(:meth:`~cbsim.liouvillian.GeneratorStack.from_dense`).

Stacks hold their generators in the orthonormal Hermitian operator basis
of :mod:`cbsim.liouvillian`, where they are real, so the steady state is a
real LU solve (dgetrf, dgecon, and dgetrs twice: the solve and one step of
iterative refinement against the buffer) for real coordinates, from which
the density matrix is rebuilt Hermitian by construction.  Singular values,
Frobenius norms and residual norms are those of the standard
vectorization, and the populations, with them the trace functional and
the border row 0, keep their indices.  The resolvent solves stay complex:
i omega Id - L is complex in either basis.

A stack from :func:`~cbsim.liouvillian.assemble` carries its
:class:`~cbsim.liouvillian.DriveSplit`: with the coordinates of even
excitation number first (row 0 and the trace columns are populations, so
even), every bordered M_i is [[A, r_i C], [r_i D, B]], and the drives r_i of
one phase point share A, B, C and D.  At a point with at least
``ELIMINATION_MIN_DRIVES`` drives, B is factored once, E = B^-1 D formed,
and each drive factors only the Schur complement S_i = A - r_i^2 C E
(dgetrf, dgecon, dgetrs; 41 x 41 for v_type, 136 x 136 for full_j0_j1),
with x_odd = -r_i E x_even.  One step of iterative refinement follows, with
the residual of the full bordered M_i, scattered as on the direct path, and
the correction solved through the same block factors.  Factoring B and
forming E repays itself from about five drives of a v_type point on: a
sweep's points carry one drive per saturation, a single ``cbs_components``
call or a spectrum one.  E is formed by one single right-hand-side dgetrs
per column.  One dgetrs with all its columns as a block of right-hand sides
is faster alone, but inside the benchmark's fig2a sweep, under OpenBLAS's
default two threads, it made an operation take 24.5 ms instead of 12.5 ms.
A block solve runs on OpenBLAS's level-3 kernels, which may use the second
thread; the likely cost is waking it between the many small one-thread
calls, which was not measured further.

The uniqueness test holds on that path as well.  S_i^-1 is the even block of
M_i^-1, so 1 / ||S_i^-1||_1 >= 1 / ||M_i^-1||_1, and dgecon's estimates were
measured in the ratio 1.0003 to 1.71 (both schemes, s from 1e-2 to 1e7, kr
from 10 to 1000, random axes and phases).  An estimate of S_i below the
trigger, or a singular S_i, runs the singular-value check of the full
generator as M_i's would; one less than ``SCHUR_ESTIMATE_RATIO`` times the
trigger above it leaves that drive to the direct path, where the estimate of
M_i decides.  So the check runs for exactly the drives it runs for on the
direct path while that ratio holds.  A drive whose trigger B's estimate does
not reach, and every drive of a point whose B is singular, takes the direct
path too.  Stacks built otherwise (``from_dense``) take the direct path.
"""

import math

import numpy as np
from scipy.linalg import lapack

from .errors import ConditioningError, DimensionError, MultiplicityError
from .liouvillian import vectorized_operators

#: Residual bound for the steady-state solve, relative to ||L||.
STEADY_RESIDUAL_TOL = 1e-10
#: Density-matrix invariants: hermiticity and trace tolerances, eigenvalue floor.
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-8
#: Singular values below this fraction of the largest count towards the
#: nullity; more than one reports the stationary manifold as degenerate.
NULLITY_RATIO = 1e-6
#: Safety factor on the trigger of the singular-value check, since LAPACK's
#: estimate of 1 / ||M^-1||_1 can exceed the true value.
UNIQUENESS_MARGIN = 10.0
#: Least number of drives of one phase point for which its steady states are
#: solved through the drive split (module docstring).  Eliminated over direct
#: time, at the 5 resonant orbit points of the 4 x 4 grid: v_type 1.09, 0.95,
#: 0.91 and 0.84 with 4, 5, 6 and 8 drives per point; full_j0_j1 1.21 with 2.
ELIMINATION_MIN_DRIVES = 6
#: Largest ratio of the condition estimate of the Schur complement S to that of
#: the bordered matrix M it comes from (module docstring); measured 1.0003 to
#: 1.71 over both schemes.
SCHUR_ESTIMATE_RATIO = 2.0
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
    """Raise unless ``rho``, one density matrix or a stack of them, is
    Hermitian, unit trace, and positive (up to noise)."""
    rho = np.asarray(rho)
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    herm_err = np.abs(rho - adjoint).max()
    if not herm_err <= DENSITY_HERM_TOL:
        raise ConditioningError(f"density matrix not Hermitian (max deviation {herm_err:.3e})")
    trace_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if not trace_err <= DENSITY_TRACE_TOL:
        raise ConditioningError(f"density matrix trace deviates by {trace_err:.3e}")
    min_eig = np.linalg.eigvalsh(0.5 * (rho + adjoint)).min()
    if not min_eig >= DENSITY_EIG_FLOOR:
        raise ConditioningError(f"density matrix has negative eigenvalue {min_eig:.3e}")


def _check_unique(gen):
    """Raise :class:`MultiplicityError` with the estimated nullity when more
    than one singular value of ``gen`` is below ``NULLITY_RATIO`` of the largest."""
    svals = np.linalg.svd(gen, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    small = svals / scale < NULLITY_RATIO
    if small.sum() > 1:
        raise MultiplicityError(int(small.sum()))


def _bordered_buffer(stack, at=None):
    """A function that writes the bordered matrix M_i of generator i of
    ``stack`` into one reused Fortran-ordered N x N buffer and returns that
    buffer, with coordinate c at position ``at[c]`` (c by default; row 0 must
    stay there).  The buffer is zeroed once: every generator writes the same
    entries, then row 0 and the border."""
    dim = stack.dim
    system = np.zeros((dim, dim), order="F")
    entries = system.reshape(-1, order="F")
    rows, cols, border = stack.rows, stack.cols, stack.trace_columns
    if at is not None:
        rows, cols, border = at[rows], at[cols], at[border]
    # Where the stack's entries and the border row go in that buffer.
    entry_at = cols * dim + rows
    border_at = border * dim

    def fill(i):
        entries[entry_at] = stack.values[i]
        system[0] = 0.0
        entries[border_at] = 1.0
        return system

    return fill


def _check_slice(stack, i, info, inverse_norm, trigger):
    """The singular-value check of generator i when its LU failed (``info``)
    or its estimate of 1 / ||M_i^-1||_1 is below ``trigger``; a failed LU
    then raises."""
    if info != 0 or not inverse_norm >= trigger:
        _check_unique(stack.dense(i))
        if info != 0:
            raise ConditioningError(f"bordered steady-state system is singular (info={info})")


def _bordered_solves(stack, slices, triggers, x):
    """Real coordinates x[i] solving M_i x[i] = e_0 for the generators i of
    ``slices``, one LU of the bordered matrix each."""
    fill = _bordered_buffer(stack)
    rhs = np.zeros(stack.dim)
    rhs[0] = 1.0
    for i in slices:
        system = fill(i)
        lu, piv, info = lapack.dgetrf(system)
        # With anorm = 1, dgecon's rcond is its estimate of 1 / ||M^-1||_1.
        inverse_norm = lapack.dgecon(lu, 1.0)[0] if info == 0 else 0.0
        _check_slice(stack, i, info, inverse_norm, triggers[i])
        x[i], info = lapack.dgetrs(lu, piv, rhs)
        if info != 0:
            raise ConditioningError(f"steady-state LU solve failed (info={info})")
        # One step of iterative refinement: the first solve leaves the small
        # coordinates, which carry the detected moments, with errors up to
        # 1e-11 of their size; the corrected ones agree to roundoff.
        x[i] += lapack.dgetrs(lu, piv, rhs - system @ x[i])[0]


def _eliminated_solves(stack, triggers, x):
    """Real coordinates x[i] solving M_i x[i] = e_0 through the drive split of
    the stack (module docstring) at the phase points with at least
    ``ELIMINATION_MIN_DRIVES`` drives; returns the generators left to
    :func:`_bordered_solves`."""
    split = stack.split
    groups = [np.flatnonzero(split.point == point) for point in np.unique(split.point)]
    direct = [group for group in groups if group.size < ELIMINATION_MIN_DRIVES]
    if len(direct) == len(groups):
        return np.concatenate(direct)
    order = np.argsort(split.odd, kind="stable")  # even coordinates first, 0 among them
    even = order.size - np.count_nonzero(split.odd)
    fill = _bordered_buffer(stack, at=np.argsort(order))
    rhs = np.zeros(stack.dim)
    rhs[0] = 1.0
    for group in groups:
        if group.size < ELIMINATION_MIN_DRIVES:
            continue  # listed in direct above
        strongest = group[np.argmax(split.rabi[group])]
        if not split.rabi[strongest] > 0.0:
            direct.append(group)
            continue
        # A, B, C and D at unit drive, from the bordered matrix of the strongest drive.
        system = fill(strongest)
        a = system[:even, :even].copy(order="F")
        c = system[:even, even:] / split.rabi[strongest]
        d = system[even:, :even] / split.rabi[strongest]
        lu_b, piv_b, info = lapack.dgetrf(system[even:, even:])
        # Generators whose trigger B's estimate does not reach, and all of them
        # if B is singular, are left to the direct path.
        inverse_norm = lapack.dgecon(lu_b, 1.0)[0] if info == 0 else 0.0
        usable = triggers[group] <= inverse_norm
        direct.append(group[~usable])
        group = group[usable]
        if not group.size:
            continue
        # One right-hand side per solve (module docstring).
        b_d = np.column_stack([lapack.dgetrs(lu_b, piv_b, column)[0] for column in d.T])
        w = np.asfortranarray(c @ b_d)
        schur = np.empty_like(a)
        x_sorted = np.empty((group.size, stack.dim))
        solved = np.ones(group.size, dtype=bool)
        for k, (i, rabi, trigger) in enumerate(zip(group, split.rabi[group].tolist(),
                                                   triggers[group].tolist())):
            np.multiply(w, -rabi * rabi, out=schur)
            schur += a
            lu, piv, info = lapack.dgetrf(schur, overwrite_a=True)
            inverse_norm = lapack.dgecon(lu, 1.0)[0] if info == 0 else 0.0
            if trigger <= inverse_norm < SCHUR_ESTIMATE_RATIO * trigger:
                solved[k] = False  # M's own estimate decides
                continue
            _check_slice(stack, i, info, inverse_norm, trigger)
            x_i = x_sorted[k]
            x_i[:even] = lapack.dgetrs(lu, piv, rhs[:even])[0]
            x_i[even:] = -rabi * (b_d @ x_i[:even])
            # One step of iterative refinement against the full M_i, solved
            # through the same block factors.
            residual = rhs - fill(i) @ x_i
            z = lapack.dgetrs(lu_b, piv_b, residual[even:])[0]
            y_even = lapack.dgetrs(lu, piv, residual[:even] - rabi * (c @ z))[0]
            x_i[:even] += y_even
            x_i[even:] += z - rabi * (b_d @ y_even)
        x[group[solved, None], order] = x_sorted[solved]
        direct.append(group[~solved])
    return np.concatenate(direct)


def steady_state(stack):
    """The (k, n, n) stationary density matrices of the k trace-preserving
    generators of a :class:`~cbsim.liouvillian.GeneratorStack`.

    The singular linear system L x = 0 is regularized by replacing its
    first row with the trace constraint, and that bordered matrix M is
    LU-factorized once, in real arithmetic in the Hermitian basis; at a
    phase point of an assembled stack with at least
    ``ELIMINATION_MIN_DRIVES`` drives, only the Schur complement of its
    odd-parity block is (module docstring).  A
    second near-vanishing singular value of L raises
    :class:`MultiplicityError` with the estimated nullity; it is looked for
    only when M is near singular.
    """
    n, dim = stack.hilbert_dim, stack.dim
    # ||L||_F per generator; einsum forms no stack-sized temporary.
    frobenius = np.sqrt(np.einsum("ij,ij->i", stack.values, stack.values))
    # When the singular-value check fires, sigma_{N-1}(L) < r sigma_1(L) with
    # N = n^2 and r = NULLITY_RATIO.  M is a rank-one update of L (row 0),
    # so Weyl's inequality gives sigma_min(M) <= sigma_{N-1}(L), and with
    # ||M^-1||_1 >= ||M^-1||_2 / sqrt(N) = 1 / (sqrt(N) sigma_min(M)) and
    # sigma_1(L) <= ||L||_F
    #     1 / ||M^-1||_1 <= sqrt(N) sigma_min(M) < sqrt(N) r ||L||_F.
    # Every step holds for any matrix, so the bound holds in any orthonormal
    # basis whose coordinates j*n + j carry the trace functional, as they do
    # in the Hermitian basis: the 1-norm is taken there, and the singular
    # values and the Frobenius norm, which the change of basis keeps, are
    # those of the standard vectorization.  dgecon bounds ||M^-1||_1 from
    # below and so can overestimate its reciprocal; UNIQUENESS_MARGIN covers
    # that.  NaN entries also take the check.
    triggers = UNIQUENESS_MARGIN * math.sqrt(dim) * NULLITY_RATIO * frobenius
    x = np.empty((len(stack), dim))
    direct = np.arange(len(stack)) if stack.split is None else _eliminated_solves(
        stack, triggers, x)
    _bordered_solves(stack, direct, triggers, x)

    residuals = np.linalg.norm(stack.apply(x), axis=1)
    bad = np.flatnonzero(~(residuals <= STEADY_RESIDUAL_TOL * frobenius))
    if bad.size:
        raise ConditioningError(
            f"steady-state residual {residuals[bad[0]]:.3e} exceeds tolerance"
        )
    rho = vectorized_operators(x).reshape(-1, n, n)
    validate_density(rho)
    return rho


class ResolventSolver:
    """Repeated solves of (i omega Id - L) x = rhs against one N x N
    ``generator``, in the standard vectorization or in the Hermitian basis
    (with ``deflate`` and every rhs in the same one).

    ``deflate`` may be the steady state; adding the rank-one map
    x -> tr(x) rho_ss removes the stationary zero mode so that trace-free
    right-hand sides can be solved at any real omega, including omega = 0,
    without changing the solution on the trace-free subspace.  The trace
    sums the coordinates j*n + j in both bases.  The omega-independent
    system matrix ``base`` (-L plus the deflation, real for a real
    generator and deflation) is prepared once; every factorization is
    checked by a reciprocal condition estimate and every solve by a
    residual bound.
    """

    def __init__(self, generator, deflate=None):
        base = -np.asarray(generator)
        if deflate is not None:
            trace_vec = np.eye(math.isqrt(base.shape[0])).reshape(-1)
            base = base + np.outer(deflate, trace_vec)
        self.base = base

    def factor(self, omega):
        """LU-factorize at one frequency and return a solve closure."""
        m = self.base.astype(complex)
        m.flat[:: len(m) + 1] += 1j * omega
        anorm = np.abs(m).sum(axis=0).max()
        lu, piv, info = lapack.zgetrf(m)
        if info != 0:
            raise ConditioningError(f"LU factorization failed (info={info})")
        rcond, _ = lapack.zgecon(lu, anorm)
        if not rcond >= RCOND_MIN:
            raise ConditioningError(
                f"resolvent system at omega={omega:g} is ill-conditioned "
                f"(condition estimate {1.0 / max(rcond, 1e-300):.3e})"
            )

        def solve(rhs):
            x, info_s = lapack.zgetrs(lu, piv, rhs)
            if info_s != 0:
                raise ConditioningError(f"LU solve failed (info={info_s})")
            res = np.linalg.norm(m @ x - rhs)
            if not res <= RESOLVENT_RESIDUAL_TOL * max(np.linalg.norm(rhs), 1e-300):
                raise ConditioningError(
                    f"resolvent residual {res:.3e} exceeds tolerance at omega={omega:g}"
                )
            return x

        return solve

