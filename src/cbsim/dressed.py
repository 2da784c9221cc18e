"""Closed-form dressed-state predictions for the backscattering spectrum.

Strong driving splits the atom-field product states into doublets separated
by the generalized Rabi frequency.  Emission on the detected arm then shows
seven resonances: the driven transition's triplet at 0 and +-Omega_R, an
asymmetric doublet at +(Omega_R - delta)/2 and -(Omega_R + delta)/2 from
the detected transition terminating on the split ground sublevels, and a
doublet at +-2*Omega_R from frequency-shifting (Raman) rescattering of the
triplet sidebands.  Frequencies are offsets from the drive frequency in
units of gamma.

:func:`validate_spectrum` matches each predicted peak to the nearest
extremum that :func:`local_maxima` finds in a computed spectrum.
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


def local_maxima(values, min_relative_height=0.0):
    """Indices of the strict interior local maxima of a sampled curve (its
    minima are those of its negative), less those whose magnitude is below
    ``min_relative_height`` times the curve's largest (ripple in flat tails).
    """
    y = np.asarray(values, dtype=float)
    idx = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
    if min_relative_height > 0.0 and idx.size:
        idx = idx[np.abs(y[idx]) >= min_relative_height * np.abs(y).max()]
    return idx


@dataclass(frozen=True)
class PeakMatch:
    label: str
    predicted: float
    found: float
    offset: float
    passed: bool


def check_coverage(grid, peaks):
    """Raise :class:`CoverageError` unless ``grid`` spans every one of ``peaks``."""
    lo, hi = np.min(grid), np.max(grid)
    for label, pos in peaks.items():
        if not (lo <= pos <= hi):
            raise CoverageError(f"the grid [{lo:g}, {hi:g}] does not cover the "
                                f"predicted peak {label} at {pos:g}")


def validate_spectrum(spectrum, peaks, tolerance):
    """One :class:`PeakMatch` per label of ``PEAK_LABELS``: the extremum of a
    computed spectrum nearest the predicted peak, passed within ``tolerance``.

    Background-type spectra are searched for local maxima; interference-type
    spectra for maxima and minima, since their resonances may carry
    negative weight or be dispersive.  :func:`check_coverage` runs first,
    and a spectrum without extrema raises :class:`CoverageError`.
    """
    grid = np.asarray(spectrum.omega)
    density = np.asarray(spectrum.density)
    check_coverage(grid, peaks)
    idx = local_maxima(density, 1e-9)
    if spectrum.kind != "background":
        idx = np.union1d(idx, local_maxima(-density, 1e-9))
    if idx.size == 0:
        raise CoverageError("spectrum has no local extrema to match against")
    extrema_pos = grid[idx]
    matches = []
    for label in PEAK_LABELS:
        pos = peaks[label]
        found = float(extrema_pos[np.argmin(np.abs(extrema_pos - pos))])
        offset = abs(found - pos)
        matches.append(PeakMatch(label, float(pos), found, offset, offset <= tolerance))
    return tuple(matches)
