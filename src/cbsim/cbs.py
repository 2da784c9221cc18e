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
grids of at least four points per phase resolve the decomposition
exactly.  The whole (a, p) grid is assembled and solved as one
:class:`~cbsim.liouvillian.GeneratorStack`; the moments of every point
then come from one product of the stacked densities with the
observables.  Intensities are reported in units of the squared exchange
amplitude (3*gamma/(2*kr))^2 unless ``normalize=False``.

Without photon exchange nothing populates the upper level of the detected
sigma-minus transition, so the single-atom background of this
helicity-preserving channel vanishes identically and every detected
photon has been exchanged.  This is enforced as an invariant of the level
scheme (see :func:`_detection_operators`) rather than subtracted.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import atoms, spectra
from .errors import CbsimError, ConditioningError, ConfigurationError, DomainError
from .liouvillian import PhysicalParams, assemble, rabi_for_saturation
from .solver import steady_state

#: Default phase-grid size per axis; separates harmonics {0, +-1, 2} exactly.
DEFAULT_PHASE_POINTS = 4

_REAL_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class CbsComponents:
    """Double-scattering intensities and the enhancement factor.

    Background (ladder) and interference (crossed) terms, each split into
    elastic and inelastic parts.  ``alpha`` is the backward-to-background
    intensity ratio (l2 + c2) / l2 over the totals.
    """

    l2_el: float
    l2_inel: float
    c2_el: float
    c2_inel: float
    alpha: float

    def __post_init__(self):
        expected = (self.l2_total + self.c2_total) / self.l2_total
        scale = max(abs(expected), 1.0)
        if abs(self.alpha - expected) > 1e-12 * scale:
            raise DomainError(
                f"alpha={self.alpha!r} inconsistent with intensities (expected {expected!r})"
            )

    @property
    def l2_total(self):
        return self.l2_el + self.l2_inel

    @property
    def c2_total(self):
        return self.c2_el + self.c2_inel

    @classmethod
    def from_intensities(cls, l2_el, l2_inel, c2_el, c2_inel):
        l2_total = l2_el + l2_inel
        if not l2_total > 0.0:
            raise DomainError(
                f"background intensity {l2_total!r} is not positive; enhancement undefined"
            )
        alpha = (l2_total + c2_el + c2_inel) / l2_total
        return cls(l2_el=float(l2_el), l2_inel=float(l2_inel),
                   c2_el=float(c2_el), c2_inel=float(c2_inel), alpha=float(alpha))


def _check_sizes(n_a, n_p, n_configs=None):
    """Raise :class:`ConfigurationError` unless the phase-grid sizes are
    integers of at least 4 and ``n_configs``, if given, a positive integer."""
    why = "at least 4 points per phase are needed to separate harmonics through order 2"
    sizes = [("n_a", n_a, 4, why), ("n_p", n_p, 4, why)]
    if n_configs is not None:
        sizes.append(("n_configs", n_configs, 1, "at least one orientation is needed"))
    for name, n, least, why in sizes:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {n!r}")
        if n < least:
            raise ConfigurationError(f"{name} = {n} too small; {why}")


def phase_values(n):
    return 2.0 * np.pi * np.arange(n) / n


def phase_grid(n_a, n_p):
    """(a, p) arrays of the n_a * n_p points of the phase grid, a major."""
    a, p = np.meshgrid(phase_values(n_a), phase_values(n_p), indexing="ij")
    return a.reshape(-1), p.reshape(-1)


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


def _moment_matrices(scheme, params, include_exchange=True, cross_damping=True,
                     detection=None, phases=None):
    """<R_j L_k> and <R_j><L_k> for the detected transition, the generator
    and the steady state.

    ``detection`` is the :func:`_detection_operators` pair of ``scheme``,
    built here when not given.  ``phases``, an (a, p) pair of arrays as in
    :func:`~cbsim.liouvillian.assemble`, stacks the results over its k
    points: (2, 2, k) moment matrices, one generator stack and (k, n, n)
    densities.  Without it they are those of the single point ``params``.
    Both matrices must be Hermitian to roundoff, which is what makes the
    detected intensity real at every b.
    """
    lows, highs = detection or _detection_operators(scheme)
    points = phases if phases is not None else ([params.laser_phase_a], [params.prop_phase_p])
    stack = assemble(scheme, params, include_exchange=include_exchange,
                     cross_damping=cross_damping, phases=points)
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
    if phases is None:
        return m[..., 0], e[..., 0], stack.liouvillian(0), rho[0]
    return m, e, stack, rho


def _b_harmonics(mat):
    """b-average and exp(-ib) coefficient of Re sum_jk exp(i(b_j - b_k)) mat[j, k]
    (b_1 = 0, b_2 = b): the detection phase averaged in closed form.  Axes
    after the first two are kept."""
    return (mat[0, 0] + mat[1, 1]).real, (mat[0, 1] + mat[1, 0].conj()) / 2


def detected_intensity(scheme, params, include_exchange=True):
    """Normally ordered detected intensity <D+ D> at the phases in ``params``."""
    m, _, _, _ = _moment_matrices(scheme, params, include_exchange=include_exchange)
    eb = np.exp(-1j * params.detect_phase_b)
    return float((m[0, 0] + m[1, 1] + 2.0 * eb * m[0, 1]).real)


def _phase_average(scheme, params, n_a, n_p, cross_damping, omega_grid=None):
    """(ladder, crossed) pairs of the total and elastic intensity, plus (given
    ``omega_grid``) of the spectral density over it.

    The n_a * n_p (a, p) points are assembled and solved as one stack; b
    is averaged exactly at each.  Only sums over the points are kept, so
    no per-point spectrum is stored; :func:`harmonic_extract` reduces them.
    """
    detection = _detection_operators(scheme)
    a, p = phase_grid(n_a, n_p)
    m, e, stack, rho = _moment_matrices(scheme, params, cross_damping=cross_damping,
                                        detection=detection, phases=(a, p))
    weight = np.exp(1j * a)
    sums = [[mean.sum(), (weight * coef).sum()]
            for mean, coef in (_b_harmonics(m), _b_harmonics(e))]
    if omega_grid is not None:
        lows, highs = detection
        total = [0.0, 0.0]
        for i in range(len(stack)):
            seeds = [spectra.connected_initial(rho[i], op) for op in highs]
            # The density is Re(sum_jk exp(i(b_j - b_k)) t[j, k]) / pi; t itself
            # is not Hermitian, which _b_harmonics does not need.  No name holds
            # t, so it is freed before the next point's transforms.
            mean, coef = _b_harmonics(spectra.spectral_response(
                stack.liouvillian(i), rho[i], seeds, lows, omega_grid) / np.pi)
            total[0] += mean
            total[1] += weight[i] * coef
        sums.append(total)
    return harmonic_extract(sums, a.size)


def harmonic_extract(sums, count):
    """(ladder, crossed) pairs from sums over ``count`` (a, p) points of the
    b-average and of the exp(ia)-weighted exp(-ib) coefficient: the ladder
    part is the mean of the first, the crossed part twice the real part of
    the mean of the second, the exp(-i(a+b)) harmonic."""
    return [(mean / count, 2.0 * np.real(coef) / count) for mean, coef in sums]


def exchange_scale(params):
    """Squared exchange amplitude (3 gamma / (2 kr))^2 used for normalization."""
    return (1.5 * params.gamma / params.kr) ** 2


def _resolve_drive(params, s, detuning):
    if detuning is not None:
        params = replace(params, detuning=float(detuning))
    if s is not None:
        params = replace(params, rabi=rabi_for_saturation(s, params.detuning, params.gamma))
    return params


def _components(total, elastic, scale):
    """Components from the (ladder, crossed) pairs of the total and elastic intensity."""
    (ladder, crossed), (ladder_el, crossed_el) = total, elastic
    return CbsComponents.from_intensities(
        ladder_el / scale, (ladder - ladder_el) / scale,
        crossed_el / scale, (crossed - crossed_el) / scale)


def cbs_components(scheme, params, s=None, detuning=None, n_a=DEFAULT_PHASE_POINTS,
                   n_p=DEFAULT_PHASE_POINTS, normalize=True, cross_damping=True):
    """Background/interference intensities and enhancement factor.

    ``s`` and ``detuning``, when given, override the drive parameters (the
    Rabi frequency is derived from the saturation).  Intensities are in
    units of the squared exchange amplitude unless ``normalize=False``.
    """
    _check_sizes(n_a, n_p)
    params = _resolve_drive(params, s, detuning)
    total, elastic = _phase_average(scheme, params, n_a, n_p, cross_damping)
    scale = exchange_scale(params) if normalize else 1.0
    return _components(total, elastic, scale)


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


def cbs_components_isotropic(scheme, params, s=None, detuning=None, n_configs=64,
                             seed=0, n_a=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS,
                             normalize=True):
    """Orientation-averaged components over an isotropic interatomic axis."""
    _check_sizes(n_a, n_p, n_configs)
    params = _resolve_drive(params, s, detuning)
    sums = np.zeros(4)
    for orientation in sample_orientations(n_configs, seed):
        comp = cbs_components(scheme, replace(params, orientation=orientation),
                              n_a=n_a, n_p=n_p, normalize=normalize)
        sums += (comp.l2_el, comp.l2_inel, comp.c2_el, comp.c2_inel)
    sums /= n_configs
    return CbsComponents.from_intensities(*sums)


# -- saturation sweep -------------------------------------------------------


def sweep_alpha_collect(scheme, detuning, s_values, params=None,
                        n_a=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS,
                        n_configs=None, seed=0):
    """``(s, components, error)`` triples over a sorted positive sweep.

    A failing point carries ``None`` and its error instead of stopping the
    sweep.  With ``n_configs`` set, every point is the isotropic average of
    :func:`cbs_components_isotropic` over that many seeded samples.
    """
    _check_sizes(n_a, n_p, n_configs)
    s_values = [float(s) for s in s_values]
    if any(s <= 0 for s in s_values):
        raise DomainError("sweep saturations must be positive")
    if s_values != sorted(s_values):
        raise DomainError("sweep saturations must be sorted ascending")
    if params is None:
        params = PhysicalParams()
    grid_sizes = dict(n_a=n_a, n_p=n_p)
    rows = []
    for s in s_values:
        try:
            if n_configs is None:
                comp = cbs_components(scheme, params, s=s, detuning=detuning, **grid_sizes)
            else:
                comp = cbs_components_isotropic(scheme, params, s=s, detuning=detuning,
                                                n_configs=n_configs, seed=seed, **grid_sizes)
            rows.append((s, comp, None))
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
    area being c2_inel / l2_inel).
    """
    _check_sizes(n_a, n_p)
    if omega_grid is None:
        omega_grid = spectra.default_omega_grid(params.rabi, params.detuning, params.gamma)
    omega_grid = np.asarray(omega_grid, dtype=float)
    total, elastic, (ladder_density, crossed_density) = _phase_average(
        scheme, params, n_a, n_p, True, omega_grid=omega_grid)
    scale = exchange_scale(params) if normalize else 1.0
    components = _components(total, elastic, scale)

    if normalize:
        norm = float(np.trapezoid(ladder_density, omega_grid))
        if not norm > 0.0:
            raise DomainError("background spectrum integral is not positive")
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

