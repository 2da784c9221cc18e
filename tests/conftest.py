"""Shared fixtures; the two production-size spectra are computed once per session."""

import time

import numpy as np
import pytest

from cbsim import atoms, cbs, liouvillian, spectra


@pytest.fixture(scope="session")
def v_scheme():
    return atoms.build_scheme(atoms.V_TYPE)


@pytest.fixture(scope="session")
def two_level_scheme():
    return atoms.build_scheme(atoms.TWO_LEVEL)


@pytest.fixture(scope="session")
def full_scheme():
    return atoms.build_scheme(atoms.FULL_J0_J1)


def count_phase_points(monkeypatch):
    """Sizes of the generator stacks whose steady states the backscattering
    layer solves from now on: one entry per call, one count per phase point."""
    calls = []
    real = cbs.steady_state

    def spy(stack):
        calls.append(len(stack))
        return real(stack)

    monkeypatch.setattr(cbs, "steady_state", spy)
    return calls


def completed_sweep(scheme, detuning, s_values):
    """``(s, components)`` pairs of a sweep in which no point failed."""
    rows = cbs.sweep_alpha_collect(scheme, detuning, s_values)
    assert [err for _, _, err in rows] == [None] * len(rows)
    return [(s, comp) for s, comp, _ in rows]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.fixture(scope="session")
def spectrum_on_resonance(v_scheme):
    """Backscattering spectrum at rabi=100, detuning=0 on the default grid."""
    params = liouvillian.PhysicalParams(rabi=100.0, detuning=0.0)
    return _timed(lambda: cbs.cbs_spectrum(v_scheme, params))


@pytest.fixture(scope="session")
def spectrum_detuned(v_scheme):
    """Backscattering spectrum at rabi=100, detuning=20 on the default grid."""
    params = liouvillian.PhysicalParams(rabi=100.0, detuning=20.0)
    return _timed(lambda: cbs.cbs_spectrum(v_scheme, params))


@pytest.fixture(scope="session")
def spectrum_on_resonance_raw(v_scheme):
    """Unnormalized variant on a reduced grid, for sum-rule checks."""
    params = liouvillian.PhysicalParams(rabi=100.0, detuning=0.0)
    grid = spectra.default_omega_grid(100.0, 0.0, base_step=0.25, refine_step=0.05)
    return cbs.cbs_spectrum(v_scheme, params, omega_grid=grid, normalize=False)


@pytest.fixture(scope="session")
def mollow_spectrum():
    """Single-atom fluorescence spectrum at rabi=100, detuning=0."""
    params = liouvillian.PhysicalParams(rabi=100.0, detuning=0.0)
    return _timed(lambda: spectra.single_atom_spectrum(params))


@pytest.fixture(scope="session")
def alpha_sweep_on_resonance(v_scheme):
    """Components over a log-spaced saturation sweep at zero detuning."""
    s_values = np.geomspace(1e-2, 1e3, 11)
    return completed_sweep(v_scheme, 0.0, s_values)


@pytest.fixture(scope="session")
def alpha_scan_detuned(v_scheme):
    """Components over the anti-enhancement window at detuning 20."""
    s_values = np.linspace(0.2, 1.0, 9)
    return completed_sweep(v_scheme, 20.0, s_values)
