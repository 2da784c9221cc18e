"""Shared fixtures; the two production-size spectra are computed once per session."""

import os
import time

# The suite's linear algebra is small and dense, which a second OpenBLAS thread
# only slows down.  The solver sets one thread for its own solves, but not for
# the rest: on two cores the suite still took 1.1-1.2 times as long with two
# threads.  OpenBLAS reads the setting when numpy loads it, so it is set
# before numpy is first imported; an explicit setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import Phase, settings

from cbsim import atoms, cbs, liouvillian, spectra
from cbsim.errors import ConditioningError

# Hypothesis's explain phase re-runs a failing property under a tracer; over
# these numpy-heavy properties it took minutes and gigabytes of memory before
# the failure was reported.  Generation and shrinking are unchanged.
settings.register_profile("cbsim", phases=[p for p in Phase if p.name != "explain"])
settings.load_profile("cbsim")


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


def forbid_builders(monkeypatch):
    """Make the phase-grid, orbit and orientation builders of the
    backscattering layer raise from now on: an input rejected while they
    stay unused is rejected before any array is built."""
    def unbuilt(*args):
        raise AssertionError(f"an oversized input was built: {args}")

    for name in ("phase_grid", "phase_orbits", "sample_orientations"):
        monkeypatch.setattr(cbs, name, unbuilt)


def plant_failure_at(monkeypatch, s, detuning=0.0):
    """Make every generator stack that the backscattering layer assembles
    with the drive of saturation ``s`` raise :class:`ConditioningError`,
    below the per-point ``cbs_components``."""
    real = cbs.assemble
    target = liouvillian.rabi_for_saturation(s, detuning)

    def planted(scheme, params, phases, rabi=None):
        if rabi is not None and target in np.asarray(rabi):
            raise ConditioningError("synthetic failure")
        return real(scheme, params, phases, rabi=rabi)

    monkeypatch.setattr(cbs, "assemble", planted)


def generator_at(scheme, params, a=0.0, p=0.0):
    """Dense two-atom generator at the one phase point (a, p): the single-point
    view of ``liouvillian.assemble``, in the standard vectorization."""
    return liouvillian.assemble(scheme, params, ([a], [p])).standard(0)


def uncoupled_pair(scheme, params, a=0.0):
    """The pair without photon exchange at drive-phase difference ``a``, from
    the public builders: independent decay plus the two drives."""
    drive = liouvillian.drive_hamiltonian(scheme, params, (0.0, a))
    return liouvillian.decay_dissipator(scheme) + liouvillian.hamiltonian_generator(drive)


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
    """Unnormalized variant on the default grid, for sum-rule checks."""
    params = liouvillian.PhysicalParams(rabi=100.0, detuning=0.0)
    return cbs.cbs_spectrum(v_scheme, params, normalize=False)


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
