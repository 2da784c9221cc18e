"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  The two production-size spectra are shared session fixtures
(see conftest), so their compute time is attributed to the first criterion
that requests them.
"""

import time

import numpy as np
import pytest

from cbsim import atoms, cbs, cli, config, dressed, liouvillian as lv, solver
from conftest import completed_sweep, generator_at

ALPHA_INF = 23.0 / 21.0


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_acceptance_1_weak_field_enhancement(v_scheme):
    start = time.perf_counter()
    comp = cbs.cbs_components(v_scheme, lv.PhysicalParams(), s=1e-3, detuning=0.0)
    elapsed = time.perf_counter() - start
    ok = abs(comp.alpha - 2.0) <= 0.02 and elapsed < 1.0
    assert report(1, ok, f"alpha(s=1e-3, d=0) = {comp.alpha:.5f} "
                         f"(target 2.00 +- 0.02) in {elapsed:.2f} s")


def test_acceptance_2_strong_field_limit(v_scheme):
    start = time.perf_counter()
    comp = cbs.cbs_components(v_scheme, lv.PhysicalParams(), s=1e3, detuning=0.0)
    elapsed = time.perf_counter() - start
    ok = abs(comp.alpha / ALPHA_INF - 1.0) <= 0.02 and elapsed < 10.0
    if not ok:  # printed only when the limit value is missed
        peaks = dressed.peak_positions(lv.rabi_for_saturation(1e3, 0.0), 0.0)
        print(f"  diagnostic: predicted peaks {tuple(sorted(peaks.values()))}")
    assert report(2, ok, f"alpha(s=1e3, d=0) = {comp.alpha:.5f} "
                         f"(target 23/21 = {ALPHA_INF:.5f} +- 2%) in {elapsed:.2f} s")


def test_acceptance_3_linear_small_s_decrease(v_scheme):
    s_values = np.linspace(0.01, 0.1, 10)
    rows = completed_sweep(v_scheme, 0.0, s_values)
    alphas = np.array([comp.alpha for _, comp in rows])
    slope, intercept = np.polyfit(s_values, alphas, 1)
    fit = slope * s_values + intercept
    r2 = 1.0 - np.sum((alphas - fit) ** 2) / np.sum((alphas - alphas.mean()) ** 2)
    ok = slope < 0.0 and r2 >= 0.99
    assert report(3, ok, f"alpha(s) on [0.01, 0.1]: slope = {slope:.4f}, "
                         f"R^2 = {r2:.6f} (targets: negative, >= 0.99)")


def test_acceptance_4_anti_enhancement(v_scheme, alpha_scan_detuned):
    hits = [(s, comp) for s, comp in alpha_scan_detuned
            if comp.alpha < 1.0 and comp.c2_inel < 0.0]
    big = cbs.cbs_components(v_scheme, lv.PhysicalParams(), s=1e3, detuning=20.0)
    ok = bool(hits) and 1.0 < big.alpha < ALPHA_INF
    best = min((comp.alpha, s) for s, comp in alpha_scan_detuned)
    assert report(4, ok, f"d=20: min alpha = {best[0]:.5f} at s = {best[1]:.2f} "
                         f"with c2_inel < 0 at {len(hits)} point(s); "
                         f"alpha(s=1e3) = {big.alpha:.5f} in (1, 23/21)")


def test_acceptance_5_spectrum_on_resonance(spectrum_on_resonance):
    result, elapsed = spectrum_on_resonance
    bg = result.background
    idx = dressed.local_maxima(bg.density, 1e-6)
    found = np.sort(bg.omega[idx])
    expected = np.array([-200.0, -100.0, -50.0, 0.0, 50.0, 100.0, 200.0])
    peaks_ok = (found.size == 7 and np.all(np.abs(found - expected) <= 0.5))

    ratio = result.interference.integral / bg.integral
    ratio_ok = abs(ratio / (2.0 / 21.0) - 1.0) <= 0.10

    implied = 1.0 + ((result.interference.integral + result.interference.elastic_weight)
                     / (bg.integral + bg.elastic_weight))
    implied_ok = abs(implied - 1.096) <= 0.01
    time_ok = elapsed < 300.0

    ok = peaks_ok and ratio_ok and implied_ok and time_ok
    assert report(5, ok, f"d=0: {found.size} peaks at {np.round(found, 2)}; "
                         f"area ratio = {ratio:.5f} (target 2/21 = {2/21:.5f} +- 10%); "
                         f"implied alpha = {implied:.4f} (target 1.096 +- 0.01); "
                         f"{elapsed:.0f} s (< 300 s)")


def test_acceptance_6_spectrum_detuned(spectrum_detuned):
    result, elapsed = spectrum_detuned
    bg = result.background
    peaks = dressed.peak_positions(100.0, 20.0)
    peak_report = dressed.validate_spectrum(bg, peaks, tolerance=0.5)
    worst = max(m.offset for m in peak_report)

    ratio = result.interference.integral / bg.integral
    ratio_ok = abs(ratio / 0.065 - 1.0) <= 0.10
    alpha = result.components.alpha
    alpha_ok = abs(alpha - 1.065) <= 0.02

    ok = all(m.passed for m in peak_report) and ratio_ok and alpha_ok
    assert report(6, ok, f"d=20: worst peak offset = {worst:.3f} (<= 0.5); "
                         f"area ratio = {ratio:.5f} (target 0.065 +- 10%); "
                         f"alpha = {alpha:.5f} (target 1.065 +- 0.02); "
                         f"{elapsed:.0f} s")


def test_acceptance_7_single_atom_mollow_oracle(mollow_spectrum):
    spec, _ = mollow_spectrum
    idx = dressed.local_maxima(spec.density, 1e-6)
    found = np.sort(spec.omega[idx])
    triplet_ok = (found.size == 3
                  and np.all(np.abs(found - [-100.0, 0.0, 100.0]) <= 0.5))

    w, d = spec.omega, spec.density

    def area(lo, hi):
        m = (w >= lo) & (w <= hi)
        return np.trapezoid(d[m], w[m])

    central = area(-25.0, 25.0)
    ratios = (area(75.0, 125.0) / central, area(-125.0, -75.0) / central)
    ratio_ok = all(abs(r / 0.5 - 1.0) <= 0.05 for r in ratios)
    elastic_fraction = spec.elastic_weight / spec.total()
    elastic_ok = elastic_fraction < 1e-3

    ok = triplet_ok and ratio_ok and elastic_ok
    assert report(7, ok, f"triplet at {np.round(found, 2)}; sideband/central = "
                         f"{ratios[0]:.4f}, {ratios[1]:.4f} (target 0.5 +- 5%); "
                         f"elastic fraction = {elastic_fraction:.2e} (< 1e-3)")


def test_acceptance_8_property_suites(tmp_path, v_scheme, alpha_sweep_on_resonance,
                                      spectrum_on_resonance_raw):
    checks = []

    # steady-state invariants at representative points (validated on every
    # solve; re-asserted here explicitly)
    for s, detuning in ((1e-3, 0.0), (1.0, 0.0), (1e3, 0.0), (0.5, 20.0)):
        p = lv.PhysicalParams(rabi=lv.rabi_for_saturation(s, detuning), detuning=detuning)
        rho = solver.steady_state(lv.GeneratorStack.from_dense(
            [generator_at(v_scheme, p, 1.0, 2.0)]))[0]
        solver.validate_density(rho)
    checks.append(("steady-state invariants", True))

    # reciprocity over the full saturation sweep
    reciprocity = all(abs(c.c2_el - c.l2_el) <= 0.01 * abs(c.l2_el) + 1e-30
                      for _, c in alpha_sweep_on_resonance)
    checks.append(("reciprocity c2_el = l2_el within 1%", reciprocity))

    # inverse-square scaling between kr = 100 and kr = 200
    raw_1 = cbs.cbs_components(v_scheme, lv.PhysicalParams(kr=100.0), s=1.0,
                               detuning=0.0, normalize=False)
    raw_2 = cbs.cbs_components(v_scheme, lv.PhysicalParams(kr=200.0), s=1.0,
                               detuning=0.0, normalize=False)
    scaling = (abs(raw_1.l2_total / raw_2.l2_total / 4.0 - 1.0) <= 0.01
               and abs(raw_1.c2_total / raw_2.c2_total / 4.0 - 1.0) <= 0.01)
    checks.append(("inverse-square exchange scaling within 1%", scaling))

    # spectral sum rules within 2% (raw, unnormalized spectra)
    res = spectrum_on_resonance_raw
    comp = res.components
    sum_bg = abs(res.background.total() - comp.l2_total) <= 0.02 * comp.l2_total
    sum_int = (abs(res.interference.total() - comp.c2_total)
               <= 0.02 * abs(comp.c2_total))
    checks.append(("spectral sum rules within 2%", sum_bg and sum_int))

    # phase-grid refinement invariance
    coarse = cbs.cbs_components(v_scheme, lv.PhysicalParams(), s=1.0, detuning=0.0)
    fine = cbs.cbs_components(v_scheme, lv.PhysicalParams(), s=1.0, detuning=0.0,
                              n_a=8, n_p=8)
    refine = all(
        abs(getattr(coarse, f) - getattr(fine, f))
        <= 1e-6 * max(abs(getattr(fine, f)), 1e-300)
        for f in ("l2_el", "l2_inel", "c2_el", "c2_inel"))
    checks.append(("phase-grid refinement 4 vs 8 within 1e-6", refine))

    # byte-for-byte determinism of the emitted artifact under a fixed seed
    cfg1 = config.parse_config("sweep_s = 0.5, 2.0\nseed = 3\n")
    cfg1.output_dir = str(tmp_path)
    path_a, _ = cli.run_alpha_sweep(cfg1)
    bytes_a = path_a.read_bytes()
    path_b, _ = cli.run_alpha_sweep(cfg1)
    checks.append(("determinism byte-for-byte", bytes_a == path_b.read_bytes()))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else 'FAIL'}"
                       for name, passed in checks)
    assert report(8, ok, detail)
