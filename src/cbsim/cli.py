"""Batch command-line front end.

Subcommands
-----------
``alpha-sweep <config>``
    Saturation sweep of the enhancement factor; emits ``alpha_sweep.csv``.
``spectrum <config>``
    Frequency-resolved background/interference spectra; emits
    ``spectrum.csv`` plus a peak-validation report ``spectrum_peaks.txt``.
``peaks --rabi R --detuning D``
    Prints the seven predicted resonance positions.
``check``
    Runs a fast invariant battery and reports PASS/FAIL per item.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.  The
environment variable ``CBSIM_WORKERS`` sets the worker-process count for
sweep points and phase points; ``--seed`` overrides the config seed.  CSV
artifacts carry a ``#``-prefixed metadata block (command, version, seed,
config echo), use LF line endings, and print floats with 17 significant
digits, so identical config and seed reproduce identical bytes.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, atoms, cbs, config, dressed, liouvillian, solver, spectra
from .errors import CbsimError, CoverageError, ParseError

ALPHA_HEADER = "s,omega_rabi,l2_el,l2_inel,c2_el,c2_inel,alpha,error"
SPECTRUM_HEADER = "omega_over_gamma,background_density,interference_density"


def _fmt(value):
    return f"{value:.17g}"


def _metadata_lines(command, cfg):
    lines = [f"# cbsim {command}", f"# version = {__version__}"]
    lines += [f"# {line}" for line in cfg.echo_lines()]
    return lines


def write_csv(path, command, cfg, header, rows):
    """Emit a CSV artifact with its metadata comment block."""
    text = "\n".join(_metadata_lines(command, cfg) + [header] + rows) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def read_csv(path):
    """Read back an emitted CSV: (metadata lines, header fields, rows)."""
    metadata, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                metadata.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, header, rows


def _workers_from_env():
    raw = os.environ.get("CBSIM_WORKERS", "1")
    try:
        return max(int(raw), 1)
    except ValueError:
        return 1


def run_alpha_sweep(cfg, output_path=None, workers=1):
    """Sweep the saturation per the config and emit the CSV artifact.

    Returns ``(path, n_failures)``; failing points carry their error in the
    last column and leave the numeric columns empty.
    """
    if cfg.sweep_s is None:
        raise ParseError("alpha-sweep requires a 'sweep_s' entry", key="sweep_s")
    scheme = atoms.build_scheme(cfg.scheme)
    params = cfg.params(rabi=0.0)
    n_configs = cfg.n_configs if cfg.orientation_mode == config.ISOTROPIC else None
    results = cbs.sweep_alpha_collect(
        scheme, cfg.detuning, cfg.sweep_s, params=params, n_a=cfg.n_phase_a,
        n_b=cfg.n_phase_b, n_p=cfg.n_phase_p, workers=workers,
        n_configs=n_configs, seed=cfg.seed)

    rows = []
    failures = 0
    for s, comp, err in results:
        rabi = liouvillian.rabi_for_saturation(s, cfg.detuning)
        if err is None:
            rows.append(",".join([
                _fmt(s), _fmt(rabi), _fmt(comp.l2_el), _fmt(comp.l2_inel),
                _fmt(comp.c2_el), _fmt(comp.c2_inel), _fmt(comp.alpha), "",
            ]))
        else:
            failures += 1
            rows.append(",".join([_fmt(s), _fmt(rabi), "", "", "", "", "",
                                  err.replace(",", ";")]))
    if output_path is None:
        output_path = Path(cfg.output_dir) / "alpha_sweep.csv"
    write_csv(output_path, "alpha-sweep", cfg, ALPHA_HEADER, rows)
    return Path(output_path), failures


def _spectrum_grid(cfg):
    return spectra.default_omega_grid(
        cfg.rabi, cfg.detuning, span=cfg.omega_span, base_step=cfg.omega_step,
        refine_step=cfg.refine_step, refine_halfwidth=cfg.refine_halfwidth)


def run_spectrum(cfg, output_path=None, report_path=None, workers=1,
                 peak_tolerance=0.5):
    """Compute the backscattering spectrum and its peak-validation report."""
    if cfg.rabi is None:
        raise ParseError("spectrum mode requires a 'rabi' entry", key="rabi")
    peaks = dressed.peak_positions(cfg.rabi, cfg.detuning)
    outermost = 2.0 * dressed.generalized_rabi(cfg.rabi, cfg.detuning)
    if cfg.omega_span is not None and cfg.omega_span < outermost:
        raise CoverageError(
            f"omega_span = {cfg.omega_span:g} does not cover the outer doublet "
            f"at +-{outermost:g}")
    omega_grid = _spectrum_grid(cfg)

    scheme = atoms.build_scheme(cfg.scheme)
    result = cbs.cbs_spectrum(scheme, cfg.params(), omega_grid=omega_grid,
                              n_a=cfg.n_phase_a, n_b=cfg.n_phase_b,
                              n_p=cfg.n_phase_p, workers=workers)
    rows = [
        ",".join([_fmt(w), _fmt(bg), _fmt(inter)])
        for w, bg, inter in zip(result.background.omega,
                                result.background.density,
                                result.interference.density)
    ]
    if output_path is None:
        output_path = Path(cfg.output_dir) / "spectrum.csv"
    write_csv(output_path, "spectrum", cfg, SPECTRUM_HEADER, rows)

    report = _peak_report_text(cfg, result, peaks, peak_tolerance)
    if report_path is None:
        report_path = Path(cfg.output_dir) / "spectrum_peaks.txt"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report)
    return Path(output_path), Path(report_path), result


def _peak_report_text(cfg, result, peaks, tolerance):
    bg_report = dressed.validate_spectrum(result.background, peaks, tolerance)
    int_report = dressed.validate_spectrum(result.interference, peaks, tolerance)
    comp = result.components
    bg_area = result.background.integral
    int_area = result.interference.integral
    lines = [
        "spectrum peak report",
        f"rabi = {_fmt(cfg.rabi)}  detuning = {_fmt(cfg.detuning)}  "
        f"generalized_rabi = {_fmt(dressed.generalized_rabi(cfg.rabi, cfg.detuning))}",
        f"peak tolerance = {_fmt(tolerance)}",
        "",
        "background peaks (predicted / found / offset / status):",
    ]
    for m in bg_report.matches:
        lines.append(f"  {m.label:<20} {m.predicted:12.4f} {m.found:12.4f} "
                     f"{m.offset:8.4f}  {'ok' if m.passed else 'MISSED'}")
    lines += ["", "interference extrema (predicted / found / offset / status):"]
    for m in int_report.matches:
        lines.append(f"  {m.label:<20} {m.predicted:12.4f} {m.found:12.4f} "
                     f"{m.offset:8.4f}  {'ok' if m.passed else 'MISSED'}")
    n_maxima = dressed.local_extrema(result.background.density, kind="max",
                                     min_relative_height=1e-6).size
    lines += [
        "",
        f"background local maxima found: {n_maxima}",
        f"background area (inelastic, normalized) = {_fmt(bg_area)}",
        f"interference / background area ratio    = {_fmt(int_area / bg_area)}",
        f"elastic weights: background {_fmt(result.background.elastic_weight)}, "
        f"interference {_fmt(result.interference.elastic_weight)}",
        "",
        "intensity components (units of squared exchange amplitude):",
        f"  l2_el = {_fmt(comp.l2_el)}",
        f"  l2_inel = {_fmt(comp.l2_inel)}",
        f"  c2_el = {_fmt(comp.c2_el)}",
        f"  c2_inel = {_fmt(comp.c2_inel)}",
        f"  alpha = {_fmt(comp.alpha)}",
        "",
        f"status: {'ok' if bg_report.all_passed else 'BACKGROUND PEAKS MISSED'}",
        "",
    ]
    return "\n".join(lines)


# -- invariant battery -------------------------------------------------------


def _check_battery():
    """Fast self-checks; yields (name, passed, detail) triples."""
    rng = np.random.default_rng(7)
    scheme = atoms.build_scheme(atoms.V_TYPE)
    params = liouvillian.PhysicalParams(rabi=liouvillian.rabi_for_saturation(1.0, 0.0),
                                        laser_phase_a=0.7, prop_phase_p=1.3)
    liou = liouvillian.assemble(scheme, params)
    dim = liou.hilbert_dim

    worst = 0.0
    for _ in range(20):
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = h + h.conj().T
        worst = max(worst, abs(np.trace(solver.unvectorize(
            liou.generator @ rho.reshape(-1)))))
    yield "trace preservation", worst <= 1e-10 * dim, f"max |tr L(rho)| = {worst:.2e}"

    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lh = solver.unvectorize(liou.generator @ h.reshape(-1))
    lhd = solver.unvectorize(liou.generator @ (h.conj().T).reshape(-1))
    herm = np.abs(lh.conj().T - lhd).max()
    yield "hermiticity preservation", herm <= 1e-12 * np.abs(lh).max() + 1e-12, \
        f"max deviation = {herm:.2e}"

    eigs = np.linalg.eigvals(liou.generator)
    yield "spectrum in left half-plane", eigs.real.max() <= 1e-10, \
        f"max Re(lambda) = {eigs.real.max():.2e}"
    yield "stationary eigenvalue present", np.abs(eigs).min() <= 1e-10, \
        f"min |lambda| = {np.abs(eigs).min():.2e}"

    rho_ss = solver.steady_state(liou)
    try:
        solver.validate_density(rho_ss)
        yield "steady-state density invariants", True, "hermitian, unit trace, positive"
    except CbsimError as exc:
        yield "steady-state density invariants", False, str(exc)

    for detuning in (0.0, 20.0):
        comp = cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1.0,
                                  detuning=detuning)
        rel = abs(comp.c2_el - comp.l2_el) / max(abs(comp.l2_el), 1e-300)
        yield (f"elastic reciprocity (detuning {detuning:g})", rel <= 0.01,
               f"relative difference = {rel:.2e}")

    comp_100 = cbs.cbs_components(scheme, liouvillian.PhysicalParams(kr=100.0),
                                  s=1.0, detuning=0.0, normalize=False)
    comp_200 = cbs.cbs_components(scheme, liouvillian.PhysicalParams(kr=200.0),
                                  s=1.0, detuning=0.0, normalize=False)
    ratios = [comp_100.l2_total / comp_200.l2_total,
              comp_100.c2_total / comp_200.c2_total]
    ok = all(abs(r / 4.0 - 1.0) <= 0.01 for r in ratios)
    yield "inverse-square exchange scaling", ok, \
        "ratios " + ", ".join(f"{r:.4f}" for r in ratios)

    coarse = cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1.0,
                                detuning=0.0)
    fine = cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1.0,
                              detuning=0.0, n_a=8, n_b=8, n_p=8)
    rel = abs(fine.alpha - coarse.alpha) / coarse.alpha
    yield "phase-grid refinement (4 vs 8)", rel <= 1e-6, f"relative shift = {rel:.2e}"

    weak = cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1e-3,
                              detuning=0.0)
    yield "weak-field enhancement = 2", abs(weak.alpha - 2.0) <= 0.02, \
        f"alpha = {weak.alpha:.5f}"


def run_check():
    failures = 0
    for name, passed, detail in _check_battery():
        status = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        print(f"{status} - {name} ({detail})")
    return failures


# -- entry point --------------------------------------------------------------


def _load_config(path, seed_override):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from None
    cfg = config.parse_config(text)
    if seed_override is not None:
        if seed_override < 0:
            raise ParseError(f"--seed must be non-negative, got {seed_override}",
                             key="seed")
        cfg.seed = seed_override
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(prog="cbsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("alpha-sweep", "spectrum"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--output", default=None, help="output CSV path")

    p_peaks = sub.add_parser("peaks")
    p_peaks.add_argument("--rabi", type=float, required=True)
    p_peaks.add_argument("--detuning", type=float, default=0.0)

    sub.add_parser("check")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    workers = _workers_from_env()
    try:
        if args.command == "alpha-sweep":
            cfg = _load_config(args.config, args.seed)
            path, failures = run_alpha_sweep(cfg, output_path=args.output,
                                             workers=workers)
            print(f"wrote {path}")
            if failures:
                print(f"ERROR: {failures} sweep point(s) failed", file=sys.stderr)
                return 2
            return 0
        if args.command == "spectrum":
            cfg = _load_config(args.config, args.seed)
            csv_path, report_path, _ = run_spectrum(cfg, output_path=args.output,
                                                    workers=workers)
            print(f"wrote {csv_path}")
            print(f"wrote {report_path}")
            return 0
        if args.command == "peaks":
            peaks = dressed.peak_positions(args.rabi, args.detuning)
            for label in dressed.PEAK_LABELS:
                print(f"{label:<20} {getattr(peaks, label):+.10g}")
            return 0
        if args.command == "check":
            return 2 if run_check() else 0
    except ParseError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    except (CbsimError, np.linalg.LinAlgError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
