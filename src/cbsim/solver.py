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
factorization that solves it doubles as the uniqueness test: the
singular-value check that reports the nullity runs only when the LAPACK
condition estimate of that factorization falls below a bound derived in
:func:`steady_state`.  It takes a :class:`~cbsim.liouvillian.GeneratorStack`
only (a single generator is a stack of one,
:meth:`~cbsim.liouvillian.GeneratorStack.from_dense`) and solves it in one
loop over batches: the generators that one route solves together.  A batch
gives, for each of its generators, LAPACK's info and dgecon's estimate of
1 / ||M_i^-1||_1 (or of what stands in for it), a solve of every M_i at
once, and the products M_i x_i; the loop checks uniqueness from the
estimates, solves e_0, and takes one step of iterative refinement with
the residual of each M_i.  Norms, residuals and density checks act on the
whole stack.

Stacks hold their generators in the orthonormal Hermitian operator basis
of :mod:`cbsim.liouvillian`, where they are real, so the steady state is a
real LU solve for real coordinates, from which the density matrix is
rebuilt Hermitian by construction.  Singular values, Frobenius norms and
residual norms are those of the standard vectorization, and the
populations, with them the trace functional and the border row 0, keep
their indices.  The resolvent solves stay complex: i omega Id - L is
complex in either basis.

Both routes read their bordered matrix from
:meth:`~cbsim.liouvillian.GeneratorStack.dense`, the one scatter of a
generator's entries into a dense array.  The direct route solves a batch
of one: the LU of a copy of M_i, in the stack's own coordinate order,
solves it.  The eliminated route uses the
:class:`~cbsim.liouvillian.DriveSplit` of a stack from
:func:`~cbsim.liouvillian.assemble`: with the coordinates of even
excitation number first (row 0 and the trace columns are populations, so
even), every bordered M_i is [[A, r_i C], [r_i D, B]], and the drives r_i
of one phase point share A, B, C and D.  At a point with at least
``ELIMINATION_MIN_DRIVES`` drives and a nonzero strongest one, the blocks
are the four corners of that drive's M_i placed even-first, B is factored
once and E = B^-1 D and W = C E formed, and the point's drives are one
batch.  All their Schur complements S_i = A - r_i^2 W (41 x 41 for
v_type, 136 x 136 for full_j0_j1) come from one broadcast; per drive
there remain only the LU and estimate of S_i and two one-column solves
through it.  e_0 has no odd part, so its solve is x_even = S_i^-1 e_0,
x_odd = -r_i E x_even; the refinement solves its odd parts through B in
one block solve, and the residuals, the odd parts x_odd and the
right-hand sides of the S_i solves are products over the whole batch, the
residuals from the blocks.

The uniqueness test holds on that route too.  S_i^-1 is the even block of
M_i^-1, so 1 / ||S_i^-1||_1 >= 1 / ||M_i^-1||_1; dgecon's estimate for S_i,
measured over both schemes, is at least the one for M_i and below
``SCHUR_ESTIMATE_RATIO`` times it.  So the singular-value check runs for
exactly the drives it runs for on the direct route: an estimate of S_i
below the trigger, or a singular S_i, runs it on the full generator, one
at least ``SCHUR_ESTIMATE_RATIO`` times the trigger skips it, and between
the two the drive takes the direct route, where M_i's estimate decides.
A drive whose trigger B's estimate does not reach, and every drive of a
point whose B is singular, takes the direct route too: the elimination
never solves through a B conditioned worse than M_i may be unchecked.

:func:`steady_state` and :func:`cbsim.spectra.spectral_poles` run under
:func:`one_blas_thread`, which sets one thread for the calling thread in
the OpenBLAS copies bundled with numpy and with scipy and restores the
previous counts on return and on a raise.  At these sizes a second thread
buys no time, and a solve with a block of right-hand sides can stall
under OpenBLAS's threads: with E = B^-1 D as one block solve, the
eliminated route took about twice as long on two threads as on one.  A
BLAS without ``openblas_set_num_threads_local`` runs the block solves on
its own threads.  The count is the calling thread's own, so concurrent
solves do not share it.
"""

import contextlib
import ctypes
import functools
import glob
import math
import os

import numpy as np
import scipy
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
#: Least number of drives of one phase point for which its steady states take
#: the eliminated route (module docstring).  Factoring B and forming E and W
#: pay from about four v_type drives (two full_j0_j1 ones); below six, the
#: rows of a sweep of up to five saturations keep the direct route's bits
#: however its saturations are split into stacks.
ELIMINATION_MIN_DRIVES = 6
#: Bound on dgecon's estimate for the Schur complement S over its estimate for
#: the bordered matrix M it comes from.  A drive whose S estimate lies within
#: this factor above its trigger takes the direct route, since only M's own
#: estimate decides there whether the singular-value check runs.
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
    hermitian = 0.5 * (rho + adjoint)
    # Positive definite once shifted by the floor: every eigenvalue is above it.
    # Only a failed factorization takes the eigenvalues, which name the worst.
    try:
        np.linalg.cholesky(hermitian - DENSITY_EIG_FLOOR * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(hermitian).min()
        if not min_eig >= DENSITY_EIG_FLOOR:
            raise ConditioningError(
                f"density matrix has negative eigenvalue {min_eig:.3e}") from None


@functools.cache
def _blas_thread_setters():
    """``openblas_set_num_threads_local`` of each OpenBLAS copy bundled with
    numpy and with scipy, resolved once; empty where none exports it."""
    setters = []
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs", "*openblas*")
        for path in glob.glob(libs):
            try:
                setter = ctypes.CDLL(path).openblas_set_num_threads_local
            except (OSError, AttributeError):  # does not load, or has no such symbol
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block in one BLAS thread of the calling thread, then restore
    the previous count, also on a raise (module docstring).  Usable as a
    decorator; a no-op where no setter is found."""
    setters = _blas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def _check_unique(gen):
    """Raise :class:`MultiplicityError` with the estimated nullity when more
    than one singular value of ``gen`` is below ``NULLITY_RATIO`` of the largest."""
    svals = np.linalg.svd(gen, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    small = svals / scale < NULLITY_RATIO
    if small.sum() > 1:
        raise MultiplicityError(int(small.sum()))


def _bordered(stack, i, at=None):
    """The bordered matrix M_i of generator i of ``stack`` as a new
    Fortran-ordered array: :meth:`~cbsim.liouvillian.GeneratorStack.dense`,
    with the coordinates placed by ``at`` as there, and row 0 replaced by the
    trace functional.  ``at`` must keep coordinate 0 in place."""
    system = stack.dense(i, at)
    system[0] = 0.0
    system[0, stack.trace_columns if at is None else at[stack.trace_columns]] = 1.0
    return system


def _check_slice(stack, i, info, inverse_norm, trigger):
    """The singular-value check of generator i when its LU failed (``info``)
    or its estimate of 1 / ||M_i^-1||_1 is below ``trigger``; a failed LU
    then raises."""
    if info != 0 or not inverse_norm >= trigger:
        _check_unique(stack.dense(i))
        if info != 0:
            raise ConditioningError(f"bordered steady-state system is singular (info={info})")


def _factor(matrix, overwrite=False):
    """LAPACK's info, dgecon's estimate of 1 / ||matrix^-1||_1 (its rcond for
    anorm = 1; 0 if singular), and the LU factors and pivots of ``matrix``."""
    lu, piv, info = lapack.dgetrf(matrix, overwrite_a=overwrite)
    return info, lapack.dgecon(lu, 1.0)[0] if info == 0 else 0.0, lu, piv


def _lu_solve(lu, piv, rhs):
    """One dgetrs with the factors of a dgetrf, checked."""
    x, info = lapack.dgetrs(lu, piv, rhs)
    if info != 0:
        raise ConditioningError(f"steady-state LU solve failed (info={info})")
    return x


def _direct_route(stack, i):
    """Generator i of ``stack`` as a batch of one (:func:`_routes`), through
    the LU of its bordered matrix."""
    system = _bordered(stack, i)
    info, inverse_norm, lu, piv = _factor(system)
    return ([i], [(info, inverse_norm)], lambda rhs: _lu_solve(lu, piv, rhs),
            lambda x: system @ x)


def _eliminated_batch(system, drives, e0, even, odd):
    """The batch of the eliminated route (module docstring) of one phase point,
    from ``system``, the bordered matrix at its strongest drive with the
    ``even`` coordinates first, whose corners A, C, D, B it keeps as views and
    scales, and ``drives``, its (generator, Rabi frequency, trigger) triples:
    the drives that take that route, or None if none does."""
    m = even.size
    a, c, d, b = system[:m, :m], system[:m, m:], system[m:, :m], system[m:, m:]
    rabi = max(r for _, r, _ in drives)
    _, b_estimate, lu_b, piv_b = _factor(b)
    drives = [drive for drive in drives if drive[2] <= b_estimate]
    if not drives:
        return None
    c /= rabi
    d /= rabi
    e = _lu_solve(lu_b, piv_b, d)
    r = np.array([r for _, r, _ in drives])
    # S_i = A - r_i^2 W, W = C E, for every drive at once, formed transposed
    # in C order: slice i is Fortran-ordered, so dgetrf factors it in place.
    schurs = np.multiply.outer(-(r * r), e.T @ c.T)
    schurs += a.T
    factors = [_factor(schur, overwrite=True) for schur in schurs.transpose(0, 2, 1)]
    kept = [k for k, (_, _, trigger) in enumerate(drives)
            if not trigger <= factors[k][1] < SCHUR_ESTIMATE_RATIO * trigger]
    if not kept:
        return None
    factors, r = [factors[k] for k in kept], r[kept]
    e0_even = e0[even]

    def solve(rhs):
        """x_i = M_i^-1 rhs_i for rows rhs_i of ``rhs``, or of e_0 for all."""
        if rhs is e0:  # no odd part, so no solve through B
            y = _schur_solves(factors, [e0_even] * len(factors))
            x_odd = (e @ y) * -r
        else:
            z = _lu_solve(lu_b, piv_b, rhs[:, odd].T)
            y = _schur_solves(factors, rhs[:, even] - ((c @ z) * r).T)
            x_odd = z - (e @ y) * r
        x = np.empty((len(factors), len(e0)))
        x[:, even], x[:, odd] = y.T, x_odd.T
        return x

    def product(x):
        """M_i x_i for rows x_i of ``x``, from the blocks."""
        y, z = x[:, even].T, x[:, odd].T
        out = np.empty_like(x)
        out[:, even] = (a @ y + (c @ z) * r).T
        out[:, odd] = ((d @ y) * r + b @ z).T
        return out

    return [drives[k][0] for k in kept], [f[:2] for f in factors], solve, product


def _schur_solves(factors, columns):
    """The (m, k) Fortran-ordered solves S_j^-1 columns[j], one dgetrs each
    with the factors of S_j."""
    y = np.empty((len(columns[0]), len(factors)), order="F")
    for j, ((_, _, lu, piv), column) in enumerate(zip(factors, columns)):
        y[:, j] = _lu_solve(lu, piv, column)
    return y


def _routes(stack, triggers, e0):
    """The generators of ``stack`` as batches, phase point by phase point: each
    batch is its generator indices, LAPACK's info and dgecon's estimate of
    1 / ||M_i^-1||_1 (or of what stands in for it) for each, a solve of its
    M_i for a row per generator (or e_0 for all), and the products M_i x_i
    for such rows."""
    split = stack.split
    if split is None:
        yield from (_direct_route(stack, i) for i in range(len(stack)))
        return
    even, odd = np.flatnonzero(~split.odd), np.flatnonzero(split.odd)
    at = np.argsort(np.concatenate([even, odd]))  # even-first places
    rabi = split.rabi.tolist()
    for point in np.unique(split.point):
        group = np.flatnonzero(split.point == point).tolist()
        strongest = max(group, key=rabi.__getitem__)
        batch = None
        if len(group) >= ELIMINATION_MIN_DRIVES and rabi[strongest] > 0.0:
            batch = _eliminated_batch(_bordered(stack, strongest, at),
                                      [(i, rabi[i], triggers[i]) for i in group], e0, even, odd)
            if batch:
                yield batch
        eliminated = set(batch[0]) if batch else ()
        yield from (_direct_route(stack, i) for i in group if i not in eliminated)


@one_blas_thread()
def steady_state(stack):
    """The (k, n, n) stationary density matrices of the k trace-preserving
    generators of a :class:`~cbsim.liouvillian.GeneratorStack`.

    The singular linear system L x = 0 is regularized by replacing its
    first row with the trace constraint, and that bordered matrix M is
    LU-factorized once, in real arithmetic in the Hermitian basis, or only
    the Schur complement of its odd-parity block (module docstring).  A
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
    triggers = (UNIQUENESS_MARGIN * math.sqrt(dim) * NULLITY_RATIO * frobenius).tolist()
    e0 = np.zeros(dim)
    e0[0] = 1.0
    x = np.empty((len(stack), dim))
    for members, estimates, solve, product in _routes(stack, triggers, e0):
        for i, (info, inverse_norm) in zip(members, estimates):
            _check_slice(stack, i, info, inverse_norm, triggers[i])
        solved = solve(e0)
        # One step of iterative refinement: the first solve leaves the small
        # coordinates, which carry the detected moments, with errors up to
        # 1e-11 of their size; the corrected ones agree to roundoff.
        solved += solve(e0 - product(solved))
        x[members] = solved
        del solve, product  # frees the factors before the next batch's are made

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

