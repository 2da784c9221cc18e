"""Closed-form dressed-state predictions for the backscattering spectrum.

Strong driving splits the atom-field product states into doublets separated
by the generalized Rabi frequency.  Emission on the detected arm then shows
seven resonances: the driven transition's triplet at 0 and +-Omega_R, an
asymmetric doublet at +(Omega_R - delta)/2 and -(Omega_R + delta)/2 from
the detected transition terminating on the split ground sublevels, and a
doublet at +-2*Omega_R from frequency-shifting (Raman) rescattering of the
triplet sidebands.  Frequencies are offsets from the drive frequency in
units of gamma.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError

PEAK_LABELS = (
    "mollow_central",
    "mollow_plus",
    "mollow_minus",
    "autler_townes_plus",
    "autler_townes_minus",
    "hyper_raman_plus",
    "hyper_raman_minus",
)


def generalized_rabi(rabi, detuning):
    """Omega_R = sqrt(rabi^2 + detuning^2)."""
    return math.hypot(rabi, detuning)


def peak_positions(rabi, detuning):
    """Predicted peak positions {0, +-Omega_R, (Omega_R -+ delta)/2 pair,
    +-2 Omega_R}, as a dict in ``PEAK_LABELS`` order."""
    omega_r = generalized_rabi(rabi, detuning)
    return dict(zip(PEAK_LABELS, (0.0, omega_r, -omega_r, 0.5 * (omega_r - detuning),
                                  -0.5 * (omega_r + detuning), 2.0 * omega_r,
                                  -2.0 * omega_r)))


def local_extrema(values, kind="max", min_relative_height=0.0):
    """Indices of strict interior local extrema of a sampled curve.

    ``kind`` selects maxima, minima, or both.  With a positive
    ``min_relative_height``, extrema whose magnitude is below that fraction
    of the overall maximum magnitude are discarded (guards against ripple
    in flat tails).
    """
    y = np.asarray(values, dtype=float)
    if y.size < 3:
        return np.array([], dtype=int)
    interior = np.arange(1, y.size - 1)
    is_max = (y[interior] > y[interior - 1]) & (y[interior] > y[interior + 1])
    is_min = (y[interior] < y[interior - 1]) & (y[interior] < y[interior + 1])
    if kind == "max":
        mask = is_max
    elif kind == "min":
        mask = is_min
    elif kind == "both":
        mask = is_max | is_min
    else:
        raise ValueError(f"kind must be 'max', 'min', or 'both', got {kind!r}")
    idx = interior[mask]
    if min_relative_height > 0.0 and idx.size:
        floor = min_relative_height * np.abs(y).max()
        idx = idx[np.abs(y[idx]) >= floor]
    return idx


@dataclass(frozen=True)
class PeakMatch:
    label: str
    predicted: float
    found: float
    offset: float
    passed: bool


@dataclass(frozen=True)
class PeakReport:
    tolerance: float
    matches: tuple

    @property
    def all_passed(self):
        return all(m.passed for m in self.matches)


def check_coverage(grid, peaks):
    """Raise :class:`CoverageError` unless ``grid`` spans every one of ``peaks``."""
    lo, hi = np.min(grid), np.max(grid)
    for label, pos in peaks.items():
        if not (lo <= pos <= hi):
            raise CoverageError(f"the grid [{lo:g}, {hi:g}] does not cover the "
                                f"predicted peak {label} at {pos:g}")


def validate_spectrum(spectrum, peaks, tolerance):
    """Match predicted peaks against the extrema of a computed spectrum.

    Background-type spectra are searched for local maxima; interference-type
    spectra for extrema of either sign, since their resonances may carry
    negative weight or be dispersive.  :func:`check_coverage` runs before
    any matching.
    """
    grid = np.asarray(spectrum.omega)
    density = np.asarray(spectrum.density)
    check_coverage(grid, peaks)
    kind = "max" if getattr(spectrum, "kind", "background") == "background" else "both"
    idx = local_extrema(density, kind=kind, min_relative_height=1e-9)
    if idx.size == 0:
        raise CoverageError("spectrum has no local extrema to match against")
    extrema_pos = grid[idx]
    matches = []
    for label in PEAK_LABELS:
        pos = peaks[label]
        found = float(extrema_pos[np.argmin(np.abs(extrema_pos - pos))])
        offset = abs(found - pos)
        matches.append(PeakMatch(label, float(pos), found, offset, offset <= tolerance))
    return PeakReport(tolerance=float(tolerance), matches=tuple(matches))
