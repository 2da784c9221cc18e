"""Self-test of the benchmark's gate and of BENCHMARK.json.

Shows that the gate passes the reference outputs themselves, and fails
them once a single value moves by 1e-9 relative, once the spectrum grid is
coarsened, and once a physics oracle is violated.  It also checks that the
tracer reports a missing entry point as absent, and that BENCHMARK.json
names workloads and metrics that ``run.py`` produces.
Needs no cbsim computation; run from the root of the source tree::

    python3 perfbench/selftest.py

Exits 0 when every case behaves as expected.
"""

import json
import sys
from pathlib import Path

import numpy as np

from run import END_TO_END, PER_LAYER, ROOT, WORK_DIR
from workloads import (ALPHA_INF, REFERENCE_DIR, WORKLOADS,
                       check_alpha_sweep, check_spectrum, isotropic_oracle,
                       load_reference, read_table, resonance_sweep_oracle)

ALPHA_HEADER = "s,omega_rabi,l2_el,l2_inel,c2_el,c2_inel,alpha,error"


def _write_sweep(path, rows):
    lines = [ALPHA_HEADER] + [",".join(repr(float(v)) for v in row) + "," for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_spectrum(path, header, values):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def cases(reference, tmp):
    """Yield (description, problems, should_pass)."""
    sweep = np.array(reference["sweep"])
    iso = np.array(reference["isotropic_full"])

    def sweep_problems(rows, ref=sweep, oracle=resonance_sweep_oracle):
        return check_alpha_sweep(_write_sweep(tmp / "sweep.csv", rows), 0,
                                 reference_rows=ref, oracle=oracle)

    yield "sweep reference", sweep_problems(sweep), True
    bumped = sweep.copy()
    bumped[12, 3] *= 1.0 + 1e-9
    yield "sweep with l2_inel moved 1e-9 relative", sweep_problems(bumped), False
    yield "sweep with one point dropped", sweep_problems(sweep[::2]), False
    flat = sweep.copy()
    flat[:, 6] = ALPHA_INF
    yield "sweep with alpha stuck at 23/21 (oracle only)", \
        sweep_problems(flat, ref=None), False

    yield "isotropic reference", sweep_problems(iso, ref=iso, oracle=isotropic_oracle), True
    bumped = iso.copy()
    bumped[1, 6] *= 1.0 + 1e-9
    yield "isotropic with alpha moved 1e-9 relative", \
        sweep_problems(bumped, ref=iso, oracle=isotropic_oracle), False
    broken = iso.copy()
    broken[0, 4] *= 1.05
    yield "isotropic breaking reciprocity (oracle only)", \
        sweep_problems(broken, ref=None, oracle=isotropic_oracle), False

    ref_csv = REFERENCE_DIR / "spectrum.csv.gz"
    header, rows = read_table(ref_csv)
    spectrum = np.array([[float(v) for v in row] for row in rows])
    report = tmp / "spectrum_peaks.txt"
    report.write_text("status: ok\n", encoding="utf-8")
    components = dict(reference["spectrum_components"])

    def spectrum_problems(values, comps=components):
        path = _write_spectrum(tmp / "spectrum.csv", header, values)
        return check_spectrum(path, report, comps, reference, ref_csv)

    yield "spectrum reference", spectrum_problems(spectrum), True
    bumped = spectrum.copy()
    peak = int(np.argmax(np.abs(bumped[:, 1])))
    bumped[peak, 1] *= 1.0 + 1e-9
    yield "spectrum with its largest density moved 1e-9 relative", \
        spectrum_problems(bumped), False
    yield "spectrum on a coarsened grid (every other frequency)", \
        spectrum_problems(spectrum[::2]), False
    comps = dict(components, alpha=components["alpha"] * (1.0 + 1e-9))
    yield "spectrum with alpha moved 1e-9 relative", spectrum_problems(spectrum, comps), False


def tracer_problems():
    """A hook whose entry point is gone is reported absent; others still work."""
    from layertrace import HOOKS, Tracer

    sys.path.insert(0, str(ROOT / "src"))
    from cbsim import solver

    original = solver.ResolventSolver.factor
    tracer = Tracer()
    HOOKS["solver.resolvent.gone"] = ("cbsim.solver:ResolventSolver", "gone")
    try:
        tracer.install()
        patched = solver.ResolventSolver.factor is not original
    finally:
        tracer.uninstall()
        del HOOKS["solver.resolvent.gone"]
    problems = []
    if tracer.absent != ["solver.resolvent.gone"]:
        problems.append(f"tracer reported {tracer.absent} absent")
    if not patched or solver.ResolventSolver.factor is not original:
        problems.append("tracer did not patch and restore ResolventSolver.factor")
    return problems


def benchmark_json_problems():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        if w["name"] not in WORKLOADS or w["why"] != WORKLOADS[w["name"]].why:
            problems.append(f"BENCHMARK.json workload {w['name']} differs from workloads.py")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds["setup_s"] != max(bounds.values()):
        problems.append("setup_s does not have the largest bound")
    return problems


def main():
    tmp = ROOT / WORK_DIR / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    reference = load_reference()
    bad = 0
    for what, problems, should_pass in cases(reference, tmp):
        ok = (not problems) == should_pass
        bad += not ok
        verdict = "passes" if not problems else "fails"
        detail = "" if not problems else f": {problems[0]}"
        print(f"{'ok  ' if ok else 'BAD '} gate {verdict} on {what}{detail}")
    for problem in tracer_problems() + benchmark_json_problems():
        bad += 1
        print(f"BAD  {problem}")
    print(f"{bad} unexpected outcome(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
