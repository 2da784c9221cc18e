"""Backscattering observables of the driven atom pair.

The detected field is the sigma-minus dipole sum D = L1 + L2 exp(-i*b) with
the relative detection phase b; its normally ordered intensity <D+ D> and
spectrum depend on the three disorder phases (a, b, p).  Averaging over
uniform independent phases implements the configuration average: the
(0,0) harmonic in (a, b) is the phase-insensitive background (ladder)
intensity, while twice the real part of the exp(-i(a+b)) harmonic is the
reversed-path interference (crossed) term that survives only at exact
backscattering, where the detection and drive phases cancel.

At leading order in the exchange coupling no harmonic above order two
exists in any phase, so four-point grids per phase resolve the
decomposition exactly.  Intensities are reported in units of the squared
exchange amplitude (3*gamma/(2*kr))^2 unless ``normalize=False``.

Without photon exchange nothing populates the upper level of the detected
sigma-minus transition, so the single-atom background of this
helicity-preserving channel vanishes identically and every detected
photon has been exchanged.  This is enforced as an invariant of the level
scheme (see :func:`_detection_operators`) rather than subtracted.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import atoms, spectra
from .errors import CbsimError, ConditioningError, ConfigurationError, DomainError
from .liouvillian import PhysicalParams, assemble, rabi_for_saturation
from .solver import steady_state

#: Default phase-grid size per axis; separates harmonics {0, +-1, 2} exactly.
DEFAULT_PHASE_POINTS = 4

_REAL_RESIDUE_TOL = 1e-10


def _pmap(fn, items, workers=1):
    """Order-preserving map, optionally fanned out over worker processes."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Intensity samples on the full (a, b, p) phase grid."""

    n_a: int
    n_b: int
    n_p: int
    samples: np.ndarray

    def __post_init__(self):
        for name, n in (("n_a", self.n_a), ("n_b", self.n_b), ("n_p", self.n_p)):
            if n < 4:
                raise ConfigurationError(
                    f"{name} = {n} too small; at least 4 points per phase are "
                    "needed to separate harmonics through order 2"
                )
        if self.samples.shape != (self.n_a, self.n_b, self.n_p):
            raise ConfigurationError(
                f"samples shape {self.samples.shape} does not match grid sizes"
            )


@dataclass(frozen=True)
class HarmonicComponents:
    """Ladder and crossed harmonics of a phase grid.

    ``crossed`` is twice the real part of the exp(-i(a+b)) coefficient
    (p-averaged); ``residue`` bounds the violation of the conjugate-pair
    symmetry and of realness, and should be at roundoff level.
    """

    ladder: float
    crossed: float
    crossed_harmonic: complex
    residue: float


def phase_values(n):
    return 2.0 * np.pi * np.arange(n) / n


def harmonic_extract(grid):
    """Discrete Fourier analysis of a phase grid over (a, b, p)."""
    samples = np.asarray(grid.samples, dtype=float)
    a_vals = phase_values(grid.n_a)
    b_vals = phase_values(grid.n_b)
    w_ab = np.exp(1j * (a_vals[:, None] + b_vals[None, :]))
    ladder = samples.mean()
    c_m1m1 = complex(np.einsum("ab,abp->", w_ab, samples) / samples.size)
    c_p1p1 = complex(np.einsum("ab,abp->", w_ab.conj(), samples) / samples.size)
    residue = abs(c_p1p1 - c_m1m1.conjugate())
    return HarmonicComponents(
        ladder=float(ladder),
        crossed=2.0 * c_m1m1.real,
        crossed_harmonic=c_m1m1,
        residue=residue,
    )


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


def _moment_matrices(scheme, params, include_exchange=True, cross_damping=True):
    """<R_j L_k> and <R_j><L_k> for the detected transition, plus the model."""
    lows, highs = _detection_operators(scheme)
    liou = assemble(scheme, params, include_exchange=include_exchange,
                    cross_damping=cross_damping)
    rho = steady_state(liou)
    m = np.empty((2, 2), dtype=complex)
    means_low = np.array([np.trace(rho @ op) for op in lows])
    means_high = np.array([np.trace(rho @ op) for op in highs])
    for j in range(2):
        for k in range(2):
            m[j, k] = np.trace(rho @ highs[j] @ lows[k])
    e = np.outer(means_high, means_low)
    return m, e, liou, rho


def _expand_b(mat, b_vals):
    """Detection-phase dependence sum_jk exp(i(b_j - b_k)) mat[j, k]."""
    eb = np.exp(-1j * np.asarray(b_vals, dtype=float))
    diag = mat[0, 0] + mat[1, 1]
    return diag + np.multiply.outer(eb, mat[0, 1]) + np.multiply.outer(eb.conj(), mat[1, 0])


def _as_real(values, what):
    values = np.asarray(values)
    scale = max(np.abs(values).max(), 1e-300)
    worst = np.abs(values.imag).max()
    if worst > _REAL_RESIDUE_TOL * max(scale, 1.0):
        raise ConditioningError(f"{what} has imaginary residue {worst:.3e}")
    return values.real


def detected_intensity(scheme, params, include_exchange=True, cross_damping=True):
    """Normally ordered detected intensity <D+ D> at the phases in ``params``."""
    m, _, _, _ = _moment_matrices(scheme, params, include_exchange=include_exchange,
                                  cross_damping=cross_damping)
    value = _expand_b(m, [params.detect_phase_b])[0]
    return float(_as_real(value, "detected intensity"))


def _intensity_task(args):
    scheme, params, cross_damping, b_vals = args
    m, e, _, _ = _moment_matrices(scheme, params, cross_damping=cross_damping)
    total = _as_real(_expand_b(m, b_vals), "detected intensity")
    elastic = _as_real(_expand_b(e, b_vals), "elastic intensity")
    return total, elastic


def intensity_grids(scheme, params, n_a=DEFAULT_PHASE_POINTS, n_b=DEFAULT_PHASE_POINTS,
                    n_p=DEFAULT_PHASE_POINTS, cross_damping=True, workers=1):
    """Total and elastic intensity on the full (a, b, p) grid.

    One steady-state solve per (a, p) pair; the detection-phase dependence
    is expanded analytically from the dipole moment matrix.
    """
    a_vals = phase_values(n_a)
    b_vals = phase_values(n_b)
    p_vals = phase_values(n_p)
    tasks = [
        (scheme, replace(params, laser_phase_a=a, prop_phase_p=p), cross_damping, b_vals)
        for a in a_vals for p in p_vals
    ]
    results = _pmap(_intensity_task, tasks, workers=workers)
    total = np.empty((n_a, n_b, n_p))
    elastic = np.empty((n_a, n_b, n_p))
    for index, (tot, ela) in enumerate(results):
        ia, ip = divmod(index, n_p)
        total[ia, :, ip] = tot
        elastic[ia, :, ip] = ela
    return (PhaseGrid(n_a, n_b, n_p, total), PhaseGrid(n_a, n_b, n_p, elastic))


def exchange_scale(params):
    """Squared exchange amplitude (3 gamma / (2 kr))^2 used for normalization."""
    return (1.5 * params.gamma / params.kr) ** 2


def _resolve_drive(params, s, detuning):
    if detuning is not None:
        params = replace(params, detuning=float(detuning))
    if s is not None:
        params = replace(params, rabi=rabi_for_saturation(s, params.detuning, params.gamma))
    return params


def _components_from_harmonics(h_total, h_elastic, scale):
    l2_el = h_elastic.ladder / scale
    l2_inel = (h_total.ladder - h_elastic.ladder) / scale
    c2_el = h_elastic.crossed / scale
    c2_inel = (h_total.crossed - h_elastic.crossed) / scale
    return CbsComponents.from_intensities(l2_el, l2_inel, c2_el, c2_inel)


def cbs_components(scheme, params, s=None, detuning=None, n_a=DEFAULT_PHASE_POINTS,
                   n_b=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS,
                   normalize=True, cross_damping=True, workers=1):
    """Background/interference intensities and enhancement factor.

    ``s`` and ``detuning``, when given, override the drive parameters (the
    Rabi frequency is derived from the saturation).  Intensities are in
    units of the squared exchange amplitude unless ``normalize=False``.
    """
    params = _resolve_drive(params, s, detuning)
    grid_total, grid_elastic = intensity_grids(scheme, params, n_a=n_a, n_b=n_b,
                                               n_p=n_p, cross_damping=cross_damping,
                                               workers=workers)
    scale = exchange_scale(params) if normalize else 1.0
    return _components_from_harmonics(
        harmonic_extract(grid_total), harmonic_extract(grid_elastic), scale)


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
                             seed=0, n_a=DEFAULT_PHASE_POINTS, n_b=DEFAULT_PHASE_POINTS,
                             n_p=DEFAULT_PHASE_POINTS, normalize=True, workers=1):
    """Orientation-averaged components over an isotropic interatomic axis."""
    params = _resolve_drive(params, s, detuning)
    sums = np.zeros(4)
    for orientation in sample_orientations(n_configs, seed):
        comp = cbs_components(scheme, replace(params, orientation=orientation),
                              n_a=n_a, n_b=n_b, n_p=n_p, normalize=normalize,
                              workers=workers)
        sums += (comp.l2_el, comp.l2_inel, comp.c2_el, comp.c2_inel)
    sums /= n_configs
    return CbsComponents.from_intensities(*sums)


# -- saturation sweep -------------------------------------------------------


def _sweep_point(args):
    scheme, params, s, detuning, grid_sizes, n_configs, seed = args
    try:
        if n_configs is None:
            comp = cbs_components(scheme, params, s=s, detuning=detuning, **grid_sizes)
        else:
            comp = cbs_components_isotropic(scheme, params, s=s, detuning=detuning,
                                            n_configs=n_configs, seed=seed, **grid_sizes)
    except (CbsimError, np.linalg.LinAlgError) as exc:
        return s, None, f"{type(exc).__name__}: {exc}"
    return s, comp, None


def sweep_alpha(scheme, detuning, s_values, params=None, n_a=DEFAULT_PHASE_POINTS,
                n_b=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS, workers=1):
    """Per-saturation components over a sorted positive sweep.

    Raises on the first failing point, naming its saturation; use
    :func:`sweep_alpha_collect` to gather per-point errors instead.
    """
    rows = sweep_alpha_collect(scheme, detuning, s_values, params=params,
                               n_a=n_a, n_b=n_b, n_p=n_p, workers=workers)
    out = []
    for s, comp, err in rows:
        if err is not None:
            raise DomainError(f"sweep failed at s={s:g}: {err}")
        out.append((s, comp))
    return out


def sweep_alpha_collect(scheme, detuning, s_values, params=None,
                        n_a=DEFAULT_PHASE_POINTS, n_b=DEFAULT_PHASE_POINTS,
                        n_p=DEFAULT_PHASE_POINTS, workers=1, n_configs=None, seed=0):
    """Like :func:`sweep_alpha` but returns (s, components, error) triples.

    With ``n_configs`` set, every point is the isotropic orientation average
    of :func:`cbs_components_isotropic` over that many seeded samples.
    """
    s_values = [float(s) for s in s_values]
    if any(s <= 0 for s in s_values):
        raise DomainError("sweep saturations must be positive")
    if s_values != sorted(s_values):
        raise DomainError("sweep saturations must be sorted ascending")
    if params is None:
        params = PhysicalParams()
    grid_sizes = dict(n_a=n_a, n_b=n_b, n_p=n_p)
    tasks = [(scheme, params, s, detuning, grid_sizes, n_configs, seed) for s in s_values]
    return _pmap(_sweep_point, tasks, workers=workers)


# -- frequency-resolved backscattering spectrum -----------------------------


@dataclass(frozen=True, eq=False)
class CbsSpectrumResult:
    """Background and interference spectra plus the matching intensities."""

    background: spectra.SpectrumSeries
    interference: spectra.SpectrumSeries
    components: CbsComponents


def _spectrum_phase_task(args):
    """Moments and regression transforms for one (a, p) phase point."""
    scheme, params, omega_grid, cross_damping = args
    m, e, liou, rho = _moment_matrices(scheme, params, cross_damping=cross_damping)
    lows, highs = _detection_operators(scheme)
    seeds = [spectra.connected_initial(rho, op) for op in highs]
    return m, e, spectra.spectral_response(liou, rho, seeds, lows, omega_grid)


def cbs_spectrum(scheme, params, omega_grid=None, n_a=DEFAULT_PHASE_POINTS,
                 n_b=DEFAULT_PHASE_POINTS, n_p=DEFAULT_PHASE_POINTS,
                 normalize=True, cross_damping=True, workers=1):
    """Frequency-resolved background and interference spectra.

    Applies the same phase-harmonic extraction as the total intensities to
    the connected dipole spectrum at every frequency.  With ``normalize``
    the densities are scaled so the background integrates to one (areas
    then read as fractions of the inelastic background, the interference
    area being c2_inel / l2_inel).
    """
    if omega_grid is None:
        omega_grid = spectra.default_omega_grid(params.rabi, params.detuning, params.gamma)
    omega_grid = np.asarray(omega_grid, dtype=float)

    a_vals = phase_values(n_a)
    b_vals = phase_values(n_b)
    p_vals = phase_values(n_p)
    tasks = [
        (scheme, replace(params, laser_phase_a=a, prop_phase_p=p), omega_grid,
         cross_damping)
        for a in a_vals for p in p_vals
    ]
    results = _pmap(_spectrum_phase_task, tasks, workers=workers)

    total = np.empty((n_a, n_b, n_p))
    elastic = np.empty((n_a, n_b, n_p))
    density = np.empty((n_a, n_b, n_p, omega_grid.size))
    for index, (m, e, t_mat) in enumerate(results):
        ia, ip = divmod(index, n_p)
        total[ia, :, ip] = _as_real(_expand_b(m, b_vals), "detected intensity")
        elastic[ia, :, ip] = _as_real(_expand_b(e, b_vals), "elastic intensity")
        # The transform itself is complex (dispersive parts); the spectral
        # density is its real part by definition.
        density[ia, :, ip, :] = _expand_b(t_mat, b_vals).real / np.pi

    h_total = harmonic_extract(PhaseGrid(n_a, n_b, n_p, total))
    h_elastic = harmonic_extract(PhaseGrid(n_a, n_b, n_p, elastic))
    scale = exchange_scale(params) if normalize else 1.0
    components = _components_from_harmonics(h_total, h_elastic, scale)

    ladder_density = density.mean(axis=(0, 1, 2))
    w_ab = np.exp(1j * (a_vals[:, None] + b_vals[None, :]))
    crossed_density = 2.0 * np.real(
        np.einsum("ab,abpw->w", w_ab, density) / (n_a * n_b * n_p)
    )

    if normalize:
        norm = float(np.trapezoid(ladder_density, omega_grid))
        if not norm > 0.0:
            raise DomainError("background spectrum integral is not positive")
    else:
        norm = 1.0
    background = spectra.SpectrumSeries(
        omega=omega_grid, density=ladder_density / norm,
        elastic_weight=h_elastic.ladder / norm, kind=spectra.BACKGROUND)
    interference = spectra.SpectrumSeries(
        omega=omega_grid, density=crossed_density / norm,
        elastic_weight=h_elastic.crossed / norm, kind=spectra.INTERFERENCE)
    return CbsSpectrumResult(background=background, interference=interference,
                             components=components)

