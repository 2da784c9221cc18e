"""Backscattering observables of the driven atom pair.

The detected field is the sigma-minus dipole sum D = L1 + L2 exp(-i*b) with
the relative detection phase b; its normally ordered intensity <D+ D> and
spectrum depend on the three disorder phases (a, b, p).  Averaging over
uniform independent phases implements the configuration average: the
(0,0) harmonic in (a, b) is the phase-insensitive background (ladder)
intensity, while twice the real part of the exp(-i(a+b)) harmonic is the
reversed-path interference (crossed) term that survives only at exact
backscattering, where the detection and drive phases cancel.

The b dependence is a three-term trigonometric polynomial in the 2 x 2
dipole moment matrix, so b is averaged in closed form.  At leading order
in the exchange coupling no harmonic above order two exists in a or p, so
grids of four points per phase resolve the decomposition at that order;
the harmonics they alias shift the components by about kr^-4 relative
(v_type, s = 0.1: 2.5e-5 at kr = 30, 2e-7 at kr = 100), which larger
``n_a`` and ``n_p`` refine away.

The average runs over all n_a * n_p points, but two exact symmetries of the
pair generator make points contribute identically.  The mirror
(a, p) -> (-a, p) swaps the atoms and applies the global gauge
exp(-ia N_e): decay, detuning and exchange are unchanged, the detection
indices swap, m_jk(-a) = m_(1-j)(1-k)(a).  The half shift
(a, p) -> (a + pi, p + pi), for even n_a and n_p, is the gauge
exp(i pi N_e) on atom 2 alone, which flips the sign of its drive, of every
exchange term and of L2.  Both keep the ladder row m00 + m11 and the
crossed row exp(ia) m01 + exp(-ia) m10 of the moment matrix, the elastic
matrix and the pole weights.  At detuning 0 complex conjugation, followed
by the mirror and the gauge exp(i pi N_e) on both atoms, maps (a, p) to
(a, pi - p) and keeps the rows of both moment matrices, though not of the
spectrum, whose frequencies it reverses; for even n_p that image joins the
orbits of the intensities.  So :func:`phase_orbits` picks one point per
orbit (4 x 4: 6 of 16, and 5 of 16 at detuning 0; 5 x 4: 12 and 9; 8 x 5:
25 and 25; 6 x 6: 12 and 6; 8 x 8: 20 and 13) and its rows count once per
orbit member.  That is one stacked solve of the
orbit representatives as a :class:`~cbsim.liouvillian.GeneratorStack`;
their moments then come from one product of the stacked densities with
the observables; a spectrum reduces the pole weights of every
representative to a ladder and a crossed row and sums the poles of all of
them in one real pole sum.  A sweep stacks the representatives of many
saturations, each with its own Rabi frequency, in bounded stacks of whole
saturations (``STACK_ENTRIES``): one assembly, one steady-state solve and
one moment product per stack (and orientation), reduced saturation by
saturation.  The solver eliminates the odd-parity block of each phase
point of such a stack once for all its saturations
(:mod:`cbsim.solver`).  Intensities are reported in units of the
squared exchange amplitude (3/(2*kr))^2 (gamma = 1) unless
``normalize=False``.

Without photon exchange nothing populates the upper level of the detected
sigma-minus transition, so the single-atom background of this
helicity-preserving channel vanishes identically and every detected
photon has been exchanged.  This is enforced as an invariant of the level
scheme (see :func:`_detection_operators`) rather than subtracted.
"""

import functools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import atoms, spectra
from .errors import CbsimError, ConditioningError, ConfigurationError, DomainError
from .liouvillian import (MIN_RAW_INTENSITY, PhysicalParams, assemble, generator_entries,
                          rabi_for_saturation, saturation)
from .solver import steady_state

#: Default phase-grid size per axis: exact at leading order in 1/kr, O(kr^-4) after.
DEFAULT_PHASE_POINTS = 4
#: Default number of seeded axes of an isotropic average.
DEFAULT_ORIENTATIONS = 64
#: Most points per phase axis: 8 times the 8 of the largest grid the package solves.
MAX_PHASE_POINTS = 64
#: Most seeded axes of an isotropic average: about 156 times the default 64.
MAX_ORIENTATIONS = 10**4
#: Most saturations a sweep may hold: 400 times the 25 of the README's fig2a sweep.
MAX_SWEEP_POINTS = 10**4
#: Largest Rabi frequency and |detuning| of a sweep (the generator's norm overflows near 1e153).
MAX_DRIVE = 1e150
#: Most generator entries, summed over its phase points, of one stack of a
#: sweep: about 1 MB per float64 temporary of the stacked solve.
STACK_ENTRIES = 2**17

_REAL_RESIDUE_TOL = 1e-10
#: Most negative background density, relative to its maximum, taken as roundoff
#: of a power spectrum, which is non-negative: at kr 100 resolved v_type drives dip
#: to -5.8e-6 (detuning 20, rabi 1e-5), unresolved ones to -1.1e-3 (rabi 5e-6).
_NEGATIVE_DENSITY_TOL = 1e-4


@dataclass(frozen=True)
class CbsComponents:
    """Double-scattering intensities and the enhancement factor.

    Background (ladder) and interference (crossed) terms, each split into
    elastic and inelastic parts.  ``alpha`` is the backward-to-background
    intensity ratio (l2 + c2) / l2 over the totals, which needs l2 > 0.
    """

    l2_el: float
    l2_inel: float
    c2_el: float
    c2_inel: float

    def __post_init__(self):
        if not self.l2_total > 0.0:
            raise DomainError(f"background intensity {self.l2_total!r} is not positive; "
                              "enhancement undefined")

    @property
    def l2_total(self):
        return self.l2_el + self.l2_inel

    @property
    def c2_total(self):
        return self.c2_el + self.c2_inel

    @property
    def alpha(self):
        return (self.l2_total + self.c2_el + self.c2_inel) / self.l2_total


def _check_sizes(n_a=4, n_p=4, n_configs=None, seed=0):
    """Raise :class:`ConfigurationError` unless the phase-grid sizes are
    integers from 4 to ``MAX_PHASE_POINTS``, ``n_configs``, if given, an
    integer from 1 to ``MAX_ORIENTATIONS`` and ``seed`` a non-negative one."""
    why = "at least 4 points per phase are needed to separate harmonics through order 2"
    sizes = [("n_a", n_a, 4, MAX_PHASE_POINTS, why), ("n_p", n_p, 4, MAX_PHASE_POINTS, why),
             ("seed", seed, 0, np.inf, "the orientation sampler takes non-negative seeds")]
    if n_configs is not None:
        sizes.append(("n_configs", n_configs, 1, MAX_ORIENTATIONS,
                      "at least one orientation is needed"))
    for name, n, least, most, why in sizes:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {n!r}")
        if n < least:
            raise ConfigurationError(f"{name} = {n} too small; {why}")
        if n > most:
            raise ConfigurationError(f"{name} = {n:,} too large; at most {most:,} are allowed")


def phase_values(n):
    return 2.0 * np.pi * np.arange(n) / n


def _read_only(*arrays):
    """``arrays`` as a tuple, each marked read-only."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def phase_grid(n_a, n_p):
    """(a, p) arrays of the n_a * n_p points of the phase grid, a major;
    built once per size and read-only."""
    a, p = np.meshgrid(phase_values(n_a), phase_values(n_p), indexing="ij")
    return _read_only(a.reshape(-1), p.reshape(-1))


# -- steady-state moments of the detected dipole ---------------------------


def _detection_operators(scheme):
    """Per-atom lowering and raising operators of the detected transition.

    Raises :class:`ConfigurationError` unless the detected upper level stays
    empty without exchange: it must be neither the driven upper level nor
    the lower end of any transition (which spontaneous decay would fill).
    """
    detected = scheme.transitions[scheme.cbs_transition].upper
    if (detected == scheme.transitions[scheme.driven_transition].upper
            or any(t.lower == detected for t in scheme.transitions)):
        raise ConfigurationError(
            f"scheme {scheme.kind!r} populates the detected upper level without "
            "photon exchange, so the detected channel has a single-atom background")
    low = atoms.lowering_operator(scheme, scheme.cbs_transition)
    lows = [atoms.embed(low, 1), atoms.embed(low, 2)]
    highs = [op.conj().T for op in lows]
    return lows, highs


def _moment_matrices(scheme, params, phases, rabi=None, detection=None):
    """<R_j L_k> and <R_j><L_k> for the detected transition at the k points
    of ``phases``, an (a, p) pair of arrays, and the per-point ``rabi`` (or
    ``params.rabi``) as in :func:`~cbsim.liouvillian.assemble`: (2, 2, k)
    moment matrices, with the generator stack and the (k, n, n) densities
    they come from.

    ``detection`` is the :func:`_detection_operators` pair of ``scheme``,
    built here when not given.
    Both matrices must be Hermitian to roundoff, which is what makes the
    detected intensity real at every b.
    """
    lows, highs = detection or _detection_operators(scheme)
    stack = assemble(scheme, params, phases, rabi=rabi)
    rho = steady_state(stack)
    # tr(rho O) = vec(O^T) . vec(rho) in the row-major vectorization.
    observables = [high @ low for high in highs for low in lows] + lows + highs
    rows = np.array([op.T.reshape(-1) for op in observables])
    moments = rows @ rho.reshape(len(stack), -1).T
    m = moments[:4].reshape(2, 2, -1)
    e = moments[6:8, None] * moments[None, 4:6]
    for what, mat in (("dipole moment", m), ("elastic moment", e)):
        worst = np.abs(mat - mat.conj().transpose(1, 0, 2)).max(axis=(0, 1))
        bad = np.flatnonzero(
            ~(worst <= _REAL_RESIDUE_TOL * np.maximum(np.abs(mat).max(axis=(0, 1)), 1.0)))
        if bad.size:
            raise ConditioningError(
                f"{what} matrix has anti-Hermitian residue {worst[bad[0]]:.3e}")
    return m, e, stack, rho


def _b_harmonics(mat, weight):
    """Rows whose real parts are the b-average of Re sum_jk exp(i(b_j - b_k))
    mat[j, k] (b_1 = 0, b_2 = b) and twice Re exp(ia) c, c its exp(-ib)
    coefficient, at exp(ia) = ``weight`` (Re(exp(ia) conj mat[1, 0]) =
    Re(exp(-ia) mat[1, 0])).  Linear in ``mat``, so it reduces transforms and
    their pole weights alike; axes after the first two are kept."""
    return np.array([mat[0, 0] + mat[1, 1],
                     weight * mat[0, 1] + np.conj(weight) * mat[1, 0]])


def detected_intensity(scheme, params, a=0.0, b=0.0, p=0.0):
    """Normally ordered detected intensity <D+ D> at drive phase difference
    ``a``, detection phase difference ``b`` and propagation phase ``p``."""
    if not np.isfinite(b):
        raise DomainError(f"detection phase must be finite, got {b}")
    m = _moment_matrices(scheme, params, ([a], [p]))[0]
    eb = np.exp(-1j * b)
    return float((m[0, 0, 0] + m[1, 1, 0] + 2.0 * eb * m[0, 1, 0]).real)


@functools.lru_cache(maxsize=32)
def phase_orbits(n_a, n_p, resonant=False):
    """Indices into :func:`phase_grid` of one point per symmetry orbit, with
    the orbit sizes.  Grid index (ka, kp) shares its rows with (-ka, kp) and,
    when both sizes are even, with (ka + n_a/2, kp + n_p/2) and
    (-ka - n_a/2, kp + n_p/2); if ``resonant`` and n_p is even, every one of
    these also with its conjugate image (ka', n_p/2 - kp').  The image with
    the smallest index stands for the orbit.  Built once per size; the arrays
    are read-only."""
    ka, kp = np.divmod(np.arange(n_a * n_p), n_p)
    images = [(ka, kp), (-ka, kp)]
    if n_a % 2 == 0 and n_p % 2 == 0:
        images += [(ka + n_a // 2, kp + n_p // 2), (-ka - n_a // 2, kp + n_p // 2)]
    if resonant and n_p % 2 == 0:
        images += [(a, n_p // 2 - p) for a, p in images]
    index = [ka % n_a * n_p + kp % n_p for ka, kp in images]
    return _read_only(*np.unique(np.minimum.reduce(index), return_counts=True))


def _resonant(params, omega_grid=None):
    """Whether the conjugate images of :func:`phase_orbits` keep the rows:
    at zero detuning, for the intensities but not for a spectrum."""
    return params.detuning == 0.0 and omega_grid is None


def _phase_average(scheme, params, n_a, n_p, rabi, omega_grid=None):
    """Per Rabi frequency of ``rabi``, the (ladder, crossed) pairs of the
    total and elastic intensity, plus (given ``omega_grid``) of the spectral
    density over it.  The callers check each drive where it enters.

    The average runs over all n_a * n_p (a, p) points, but only one point
    per :func:`phase_orbits` orbit is solved, those of every drive in one
    stack, and its rows count once per orbit member; b is averaged exactly
    at each.  Only sums over the points are kept, so no per-point spectrum
    is stored; :func:`harmonic_extract` reduces them drive by drive.
    """
    detection = _detection_operators(scheme)
    points, counts = phase_orbits(n_a, n_p, _resonant(params, omega_grid))
    a, p = (x[points] for x in phase_grid(n_a, n_p))
    phases = np.tile(a, len(rabi)), np.tile(p, len(rabi))
    m, e, stack, rho = _moment_matrices(scheme, params, phases, rabi=np.repeat(rabi, a.size),
                                        detection=detection)
    weight = np.exp(1j * a)
    averages = []
    for first in range(0, len(stack), a.size):
        at = slice(first, first + a.size)
        sums = [_b_harmonics(mat[..., at], weight).real @ counts for mat in (m, e)]
        if omega_grid is not None:
            sums.append(_spectral_sum(stack, rho, detection, at, weight, counts, omega_grid))
        averages.append(harmonic_extract(sums, n_a * n_p))
    return averages


def _spectral_sum(stack, rho, detection, at, weight, counts, omega_grid):
    """Sum over the points ``at`` of ``stack``, each weighted by its orbit
    size in ``counts``, of the real :func:`_b_harmonics` rows of the spectral
    density over ``omega_grid``, divided by pi; ``weight`` is exp(ia) there."""
    lows, highs = detection
    poles, density = [], np.zeros((2, omega_grid.size))
    for i, point_weight, count in zip(range(at.start, at.stop), weight, counts):
        seeds = [spectra.connected_initial(rho[i], op) for op in highs]
        lam, w = spectra.spectral_poles(stack.point(i), rho[i], seeds, lows, omega_grid)
        rows = count * _b_harmonics(w, point_weight)
        if lam is None:  # w holds this point's LU transforms
            density += rows.real
        else:
            poles.append((lam, rows))
    if poles:
        lams, rows = zip(*poles)
        density += spectra.real_pole_sum(np.hstack(lams), np.hstack(rows), omega_grid)
    return density / np.pi


def harmonic_extract(sums, count):
    """(ladder, crossed) pairs from sums over ``count`` (a, p) points of the
    real parts of :func:`_b_harmonics`: their means are the b-average, the
    ladder part, and twice the real part of the exp(-i(a+b)) harmonic, the
    crossed part."""
    return [(ladder / count, crossed / count) for ladder, crossed in sums]


def exchange_scale(params):
    """Squared exchange amplitude (3 / (2 kr))^2 used for normalization."""
    return (1.5 / params.kr) ** 2


def _check_intensity_scale(s_values, kr):
    """Raise :class:`DomainError` unless (1.5 / kr)^2 min(s, s^2), the scale of
    the weakest raw intensity, reaches ``MIN_RAW_INTENSITY`` at every
    saturation s of ``s_values``."""
    for s in s_values:
        if not (1.5 / kr) ** 2 * min(s, s * s) >= MIN_RAW_INTENSITY:
            raise DomainError(
                f"saturation {s:g} at kr = {kr:g} puts the raw intensities below "
                f"{MIN_RAW_INTENSITY:g}, near the subnormal range")


def _check_drive_scale(rabi, detuning, kr):
    """:func:`_check_intensity_scale` at the saturation of a drive."""
    _check_intensity_scale([saturation(rabi, detuning)], kr)


def _check_sweep_drive(s_values, detuning):
    """Raise :class:`DomainError` unless |detuning| and the Rabi frequency of
    each saturation of ``s_values`` stay within ``MAX_DRIVE``."""
    if not abs(detuning) <= MAX_DRIVE:
        raise DomainError(f"|detuning| <= {MAX_DRIVE:g} required, got {detuning:g}")
    for s in s_values:
        if not rabi_for_saturation(s, detuning) <= MAX_DRIVE:
            raise DomainError(f"saturation {s:g} needs a Rabi frequency above {MAX_DRIVE:g}")


def _resolve_drive(params, s, detuning):
    """``params`` with the given ``s`` and ``detuning``, checked by :func:`_check_drive_scale`."""
    if detuning is not None:
        params = replace(params, detuning=float(detuning))
    if s is not None:
        params = replace(params, rabi=rabi_for_saturation(s, params.detuning))
    _check_drive_scale(params.rabi, params.detuning, params.kr)
    return params


def _parts(total, elastic):
    """[l2_el, l2_inel, c2_el, c2_inel] from the (ladder, crossed) pairs of
    the total and elastic intensity."""
    (ladder, crossed), (ladder_el, crossed_el) = total, elastic
    return np.array([ladder_el, ladder - ladder_el, crossed_el, crossed - crossed_el])


def cbs_components(scheme, params, s=None, detuning=None, n_a=DEFAULT_PHASE_POINTS,
                   n_p=DEFAULT_PHASE_POINTS, normalize=True):
    """Background/interference intensities and enhancement factor.

    ``s`` and ``detuning``, when given, override the drive parameters (the
    Rabi frequency is derived from the saturation).  Intensities are in
    units of the squared exchange amplitude unless ``normalize=False``.
    """
    _check_sizes(n_a, n_p)
    params = _resolve_drive(params, s, detuning)
    return _drive_components(scheme, params, [params.rabi], n_a, n_p, [params.orientation],
                             normalize)[0]


def sample_orientations(n_configs, seed):
    """Uniformly distributed unit vectors from a seeded generator."""
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < n_configs:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            samples.append(tuple(v / norm))
    return samples


def cbs_components_isotropic(scheme, params, s=None, detuning=None,
                             n_configs=DEFAULT_ORIENTATIONS, seed=0,
                             n_a=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS):
    """Orientation-averaged components over an isotropic interatomic axis."""
    _check_sizes(n_a, n_p, n_configs, seed)
    params = _resolve_drive(params, s, detuning)
    return _drive_components(scheme, params, [params.rabi], n_a, n_p,
                             sample_orientations(n_configs, seed))[0]


def _drive_components(scheme, params, rabi, n_a, n_p, axes, normalize=True):
    """Components at each Rabi frequency of ``rabi``, the mean over the
    interatomic axes ``axes`` of one stacked phase average per axis; in
    units of the squared exchange amplitude if ``normalize``."""
    scale = exchange_scale(params) if normalize else 1.0
    sums = sum(np.array([_parts(*pairs) for pairs in _phase_average(
        scheme, replace(params, orientation=axis), n_a, n_p, rabi)]) / scale for axis in axes)
    return [CbsComponents(*row) for row in (sums / len(axes)).tolist()]


# -- saturation sweep -------------------------------------------------------


def _check_sweep_size(n):
    """Raise :class:`ConfigurationError` unless 1 <= n <= ``MAX_SWEEP_POINTS``."""
    if not 1 <= n <= MAX_SWEEP_POINTS:
        raise ConfigurationError(f"a sweep holds 1 to {MAX_SWEEP_POINTS:,} saturations, "
                                 f"not {n:,}")


def _check_sweep(s_values):
    """The sweep as floats; raises unless it holds 1 to ``MAX_SWEEP_POINTS``
    ascending, finite, positive values."""
    s_values = [float(s) for s in s_values]
    _check_sweep_size(len(s_values))
    if not all(0.0 < s < np.inf for s in s_values):
        raise DomainError("sweep saturations must be finite and positive")
    if s_values != sorted(s_values):
        raise DomainError("sweep saturations must be sorted ascending")
    return s_values


def sweep_alpha_collect(scheme, detuning, s_values, params=None,
                        n_a=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS,
                        n_configs=None, seed=0):
    """``(s, components, error)`` triples over a sorted positive sweep.

    A failing point carries ``None`` and its error instead of stopping the
    sweep.  With ``n_configs`` set, every point is the isotropic average of
    :func:`cbs_components_isotropic` over that many seeded samples.  Inputs
    that would fail every point, a scheme without a detected channel
    included, intensities that would go subnormal at ``params.kr`` and a
    drive beyond ``MAX_DRIVE`` raise before any point is solved.

    The saturations are solved in stacks of consecutive ones, each holding
    at most ``STACK_ENTRIES`` generator entries but at least one saturation
    (all 25 of the README's fig2a sweep in one): one stacked solve per stack
    and orientation.  When a stack fails, its saturations are solved one by
    one, so that every error is reported at its own point.
    """
    _check_sizes(n_a, n_p, n_configs, seed)
    s_values = _check_sweep(s_values)
    _detection_operators(scheme)
    if params is None:
        params = PhysicalParams()
    _check_intensity_scale(s_values, params.kr)
    params = replace(params, detuning=params.detuning if detuning is None else float(detuning))
    _check_sweep_drive(s_values, params.detuning)
    axes = [params.orientation] if n_configs is None else sample_orientations(n_configs, seed)
    per_saturation = phase_orbits(n_a, n_p, _resonant(params))[0].size * generator_entries(scheme)
    size = max(1, STACK_ENTRIES // per_saturation)

    def solve(chunk):
        rabi = [rabi_for_saturation(s, params.detuning) for s in chunk]
        comps = _drive_components(scheme, params, rabi, n_a, n_p, axes)
        return [(s, comp, None) for s, comp in zip(chunk, comps)]

    rows = []
    for first in range(0, len(s_values), size):
        chunk = s_values[first:first + size]
        try:
            rows += solve(chunk)
        except (CbsimError, np.linalg.LinAlgError):
            for s in chunk:
                try:
                    rows += solve([s])
                except (CbsimError, np.linalg.LinAlgError) as exc:
                    rows.append((s, None, f"{type(exc).__name__}: {exc}"))
    return rows


# -- frequency-resolved backscattering spectrum -----------------------------


@dataclass(frozen=True, eq=False)
class CbsSpectrumResult:
    """Background and interference spectra plus the matching intensities."""

    background: spectra.SpectrumSeries
    interference: spectra.SpectrumSeries
    components: CbsComponents


def cbs_spectrum(scheme, params, omega_grid=None, n_a=DEFAULT_PHASE_POINTS,
                 n_p=DEFAULT_PHASE_POINTS, normalize=True):
    """Frequency-resolved background and interference spectra.

    Applies the same phase average as the total intensities to
    the connected dipole spectrum at every frequency.  With ``normalize``
    the densities are scaled so the background integrates to one (areas
    then read as fractions of the inelastic background, the interference
    area being c2_inel / l2_inel).  A background of non-positive area, or
    negative beyond ``_NEGATIVE_DENSITY_TOL`` of its maximum, raises
    :class:`DomainError`.
    """
    _check_sizes(n_a, n_p)
    omega_grid = spectra.checked_grid(omega_grid, params)
    _check_drive_scale(params.rabi, params.detuning, params.kr)
    (total, elastic, (ladder_density, crossed_density)), = _phase_average(
        scheme, params, n_a, n_p, [params.rabi], omega_grid=omega_grid)
    scale = exchange_scale(params) if normalize else 1.0
    components = CbsComponents(*(_parts(total, elastic) / scale).tolist())

    if normalize:
        norm = float(np.trapezoid(ladder_density, omega_grid))
        if not norm > 0.0:
            raise DomainError("background spectrum integral is not positive")
        dip = ladder_density.min() / ladder_density.max()
        if not dip >= -_NEGATIVE_DENSITY_TOL:
            raise DomainError(f"background spectrum density dips to {dip:.3e} of its "
                              "maximum: the spectrum is roundoff at this drive")
    else:
        norm = 1.0
    background = spectra.SpectrumSeries(
        omega=omega_grid, density=ladder_density / norm,
        elastic_weight=elastic[0] / norm, kind=spectra.BACKGROUND)
    interference = spectra.SpectrumSeries(
        omega=omega_grid, density=crossed_density / norm,
        elastic_weight=elastic[1] / norm, kind=spectra.INTERFERENCE)
    return CbsSpectrumResult(background=background, interference=interference,
                             components=components)

