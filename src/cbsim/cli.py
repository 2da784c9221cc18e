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

Exit codes: 0 success, 1 configuration error, 2 numerical failure.  Every
point is solved serially in this process.  ``--seed`` overrides the config
seed; it and the ``peaks`` flags pass the rules of their config keys
(:func:`cbsim.config.check`).  The output directory, and a spectrum's
orientation mode (fixed only) and frequency grid (its size and its
coverage of the predicted peaks), are checked before any point is
solved.  CSV artifacts carry a ``#``-prefixed metadata block (command,
version, seed, config echo), use LF line endings, and print floats with 17
significant digits, so identical config and seed reproduce identical bytes.
"""

import argparse
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__, atoms, cbs, config, dressed, liouvillian, solver, spectra
from .errors import CbsimError, ConfigurationError, CoverageError, DomainError, ParseError

ALPHA_HEADER = "s,omega_rabi,l2_el,l2_inel,c2_el,c2_inel,alpha,error"
SPECTRUM_HEADER = "omega_over_gamma,background_density,interference_density"
#: Row templates: 17 significant digits, the empty error column of a solved point.
ALPHA_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
SPECTRUM_ROW = "%.17g,%.17g,%.17g"


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


def _artifact_path(cfg, path, name):
    """``path``, or ``name`` in ``cfg.output_dir``; raises unless its directory
    exists and it is not itself a directory (naming the key that set it)."""
    key = "output_dir" if path is None else "--output"
    path = Path(cfg.output_dir) / name if path is None else Path(path)
    if not path.parent.is_dir():
        raise ParseError(f"output directory {str(path.parent)!r} does not exist", key=key)
    if path.is_dir():
        raise ParseError(f"output path {str(path)!r} is a directory", key=key)
    return path


def run_alpha_sweep(cfg, output_path=None, workers=1):
    """Sweep the saturation per the config and emit the CSV artifact.

    Returns ``(path, n_failures)``; failing points carry their error in the
    last column and leave the numeric columns empty.
    """
    if workers != 1:
        raise ConfigurationError(f"workers = {workers!r}; cbsim runs serially")
    if cfg.sweep_s is None:
        raise ParseError("alpha-sweep requires a 'sweep_s' entry", key="sweep_s")
    output_path = _artifact_path(cfg, output_path, "alpha_sweep.csv")
    scheme = atoms.build_scheme(cfg.scheme)
    params = cfg.params(rabi=0.0)
    n_configs = cfg.n_configs if cfg.orientation_mode == config.ISOTROPIC else None
    results = cbs.sweep_alpha_collect(
        scheme, cfg.detuning, cfg.sweep_s, params=params, n_a=cfg.n_phase_a,
        n_p=cfg.n_phase_p, n_configs=n_configs, seed=cfg.seed)

    rows = []
    failures = 0
    for s, comp, err in results:
        rabi = liouvillian.rabi_for_saturation(s, cfg.detuning)
        if err is None:
            rows.append(ALPHA_ROW % (s, rabi, comp.l2_el, comp.l2_inel, comp.c2_el,
                                     comp.c2_inel, comp.alpha))
        else:
            failures += 1
            rows.append("%.17g,%.17g,,,,,,%s" % (s, rabi, err.replace(",", ";")))
    write_csv(output_path, "alpha-sweep", cfg, ALPHA_HEADER, rows)
    return output_path, failures


#: Largest offset of a found peak from its prediction that the report passes.
PEAK_TOLERANCE = 0.5


def run_spectrum(cfg, output_path=None, workers=1):
    """Compute the backscattering spectrum and its peak-validation report,
    which goes to ``spectrum_peaks.txt`` in ``cfg.output_dir``."""
    if workers != 1:
        raise ConfigurationError(f"workers = {workers!r}; cbsim runs serially")
    if cfg.rabi is None:
        raise ParseError("spectrum mode requires a 'rabi' entry", key="rabi")
    if cfg.orientation_mode == config.ISOTROPIC:
        raise ParseError("spectra are computed for a fixed orientation only",
                         line=cfg.source_lines.get("orientation_mode"), key="orientation_mode")
    output_path = _artifact_path(cfg, output_path, "spectrum.csv")
    report_path = _artifact_path(cfg, None, "spectrum_peaks.txt")
    peaks = dressed.peak_positions(cfg.rabi, cfg.detuning)
    # An auto span too wide for a grid, or a span that misses a predicted
    # peak, is a configuration error of the key that set the span: the auto
    # span follows sqrt(rabi^2 + detuning^2), set by the larger of the two.
    key = "omega_span" if cfg.omega_span is not None else (
        "detuning" if abs(cfg.detuning) > cfg.rabi else "rabi")
    try:
        omega_grid = spectra.default_omega_grid(cfg.rabi, cfg.detuning, span=cfg.omega_span)
        dressed.check_coverage(omega_grid, peaks)
    except (DomainError, CoverageError) as exc:
        raise ParseError(str(exc), line=cfg.source_lines.get(key), key=key) from None

    scheme = atoms.build_scheme(cfg.scheme)
    result = cbs.cbs_spectrum(scheme, cfg.params(), omega_grid=omega_grid,
                              n_a=cfg.n_phase_a, n_p=cfg.n_phase_p)
    rows = _spectrum_rows(result.background.omega, result.background.density,
                          result.interference.density)
    write_csv(output_path, "spectrum", cfg, SPECTRUM_HEADER, rows)

    report = _peak_report_text(cfg, result, peaks)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report)
    return output_path, report_path, result


def _spectrum_rows(omega, background, interference):
    """``SPECTRUM_ROW`` over the three columns, formatted as Python floats."""
    return [SPECTRUM_ROW % row
            for row in zip(omega.tolist(), background.tolist(), interference.tolist())]


def _peak_report_text(cfg, result, peaks):
    bg_report = dressed.validate_spectrum(result.background, peaks, PEAK_TOLERANCE)
    int_report = dressed.validate_spectrum(result.interference, peaks, PEAK_TOLERANCE)
    comp = result.components
    bg_area = result.background.integral
    int_area = result.interference.integral
    lines = [
        "spectrum peak report",
        f"rabi = {_fmt(cfg.rabi)}  detuning = {_fmt(cfg.detuning)}  "
        f"generalized_rabi = {_fmt(dressed.generalized_rabi(cfg.rabi, cfg.detuning))}",
        f"peak tolerance = {_fmt(PEAK_TOLERANCE)}",
    ]
    for title, report in (("background peaks", bg_report), ("interference extrema", int_report)):
        lines += ["", f"{title} (predicted / found / offset / status):"]
        lines += [f"  {m.label:<20} {m.predicted:12.4f} {m.found:12.4f} "
                  f"{m.offset:8.4f}  {'ok' if m.passed else 'MISSED'}" for m in report]
    n_maxima = dressed.local_maxima(result.background.density, 1e-6).size
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
        f"status: {'ok' if all(m.passed for m in bg_report) else 'BACKGROUND PEAKS MISSED'}",
        "",
    ]
    return "\n".join(lines)


# -- invariant battery -------------------------------------------------------


def _check_battery():
    """Fast self-checks; yields (name, passed, detail) triples."""
    rng = np.random.default_rng(7)
    scheme = atoms.build_scheme(atoms.V_TYPE)
    params = liouvillian.PhysicalParams(rabi=liouvillian.rabi_for_saturation(1.0, 0.0))
    stack = liouvillian.assemble(scheme, params, ([0.7], [1.3]))
    gen, dim = stack.standard(0), stack.hilbert_dim

    # tr L(rho) = 0 for every rho exactly when the trace rows j*n + j sum to zero.
    worst = np.abs(gen[::dim + 1].sum(axis=0)).max()
    yield "trace preservation", worst <= 1e-10 * dim, f"max trace-row column sum = {worst:.2e}"

    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lh = solver.unvectorize(gen @ h.reshape(-1))
    lhd = solver.unvectorize(gen @ (h.conj().T).reshape(-1))
    herm = np.abs(lh.conj().T - lhd).max()
    yield "hermiticity preservation", herm <= 1e-12 * np.abs(lh).max() + 1e-12, \
        f"max deviation = {herm:.2e}"

    eigs = np.linalg.eigvals(gen)
    yield "spectrum in left half-plane", eigs.real.max() <= 1e-10, \
        f"max Re(lambda) = {eigs.real.max():.2e}"
    yield "stationary eigenvalue present", np.abs(eigs).min() <= 1e-10, \
        f"min |lambda| = {np.abs(eigs).min():.2e}"

    try:
        solver.steady_state(stack)  # validates the density it returns
        yield "steady-state density invariants", True, "hermitian, unit trace, positive"
    except (CbsimError, np.linalg.LinAlgError) as exc:
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

    # The phase average solves one point per orbit of these symmetries: the
    # mirror, the half shift and, at this detuning 0, the conjugation p -> pi - p.
    a = np.array([0.7, -0.7, 0.7 + np.pi, 0.7])
    p = np.array([1.3, 1.3, 1.3 + np.pi, np.pi - 1.3])
    worst = 0.0
    m, e, pair, rho = cbs._moment_matrices(scheme, params, (a, p))
    for mat in (m, e):
        rows = cbs._b_harmonics(mat, np.exp(1j * a)).real
        worst = max(worst, np.abs(rows - rows[:, :1]).max() / np.abs(rows).max())
    yield "phase-point symmetries", worst <= 1e-12, f"max relative deviation = {worst:.2e}"

    # The spectral kernel solves on the coordinates its seeds and detector
    # reach; one full-space LU solve in the standard vectorization checks it.
    lows, highs = cbs._detection_operators(scheme)
    seeds = np.array([spectra.connected_initial(rho[0], op) for op in highs])
    reduced = spectra.spectral_response(pair.point(0), rho[0], seeds, lows, [1.0])[..., 0]
    x = solver.ResolventSolver(pair.standard(0), deflate=rho[0].reshape(-1)).factor(-1.0)(seeds.T)
    full = (np.array([low.T.reshape(-1) for low in lows]) @ x).T
    worst = np.abs(reduced - full).max() / np.abs(full).max()
    yield "spectral subspace", worst <= 1e-12, f"max relative deviation = {worst:.2e}"

    # A sweep solves all its saturations in one stack; with six drives per phase
    # point, at least ELIMINATION_MIN_DRIVES, the solver eliminates the
    # odd-parity block there, and one direct solve per saturation (a single
    # drive per point) checks it.
    rows = cbs.sweep_alpha_collect(scheme, 0.0, [0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    errors = [err for _, _, err in rows if err is not None]
    if errors:
        yield "sweep stack", False, errors[0]
    else:
        stacked = np.array([astuple(comp) for _, comp, _ in rows])
        single = np.array([astuple(cbs.cbs_components(scheme, liouvillian.PhysicalParams(),
                                                      s=s, detuning=0.0)) for s, _, _ in rows])
        worst = (np.abs(stacked - single) / np.abs(single)).max()
        yield "sweep stack", worst <= 1e-12, f"max relative deviation = {worst:.2e}"

    coarse = cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1.0,
                                detuning=0.0)
    fine = cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1.0,
                              detuning=0.0, n_a=8, n_p=8)
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
        config.check("seed", seed_override, name="--seed")
        cfg.seed = seed_override
    return cfg


class _ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`ParseError` (exit 1) where argparse would exit 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    parser = _ArgumentParser(prog="cbsim", description=__doc__.split("\n")[0])
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "alpha-sweep":
            cfg = _load_config(args.config, args.seed)
            path, failures = run_alpha_sweep(cfg, output_path=args.output)
            print(f"wrote {path}")
            if failures:
                print(f"ERROR: {failures} sweep point(s) failed", file=sys.stderr)
                return 2
            return 0
        if args.command == "spectrum":
            cfg = _load_config(args.config, args.seed)
            csv_path, report_path, _ = run_spectrum(cfg, output_path=args.output)
            print(f"wrote {csv_path}")
            print(f"wrote {report_path}")
            return 0
        if args.command == "peaks":
            for key in ("rabi", "detuning"):  # the rules of the config keys
                config.check(key, getattr(args, key), name=f"--{key}")
            for label, pos in dressed.peak_positions(args.rabi, args.detuning).items():
                print(f"{label:<20} {pos:+.10g}")
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
