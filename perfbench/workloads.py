"""Workloads, the operation each one times, and the correctness gate.

One operation is what one ``cbsim alpha-sweep`` or ``cbsim spectrum``
invocation does after start-up: read the config file, parse it, compute and
write the artifacts.  The gate then reads the artifacts back and fails the
operation if it reported failed points, if any value moved by more than
``REL_TOL`` from the reference written at the seed commit, or if a physics
oracle misses.
"""

import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Largest relative change of any output against the reference.
REL_TOL = 1e-10
#: Seed whose isotropic orientations the reference was written for.
REFERENCE_SEED = 0
#: Saturated-limit enhancement factor on resonance.
ALPHA_INF = 23.0 / 21.0

COMPONENT_KEYS = ("l2_el", "l2_inel", "c2_el", "c2_inel", "alpha")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "alpha-sweep" or "spectrum"
    config: str  # config text with {output_dir} and, if seeded, {seed} fields
    why: str


# BENCHMARK.json lists sweep and spectrum only.  isotropic_full runs and is
# gated like them, but its op_s spread 12-17% across seeds on a 2-core VM:
# two-thread OpenBLAS on 256x256 matrices amplifies machine noise, and no
# run length within the benchmark's time budget averages that out.
WORKLOADS = {
    "sweep": Workload(
        "sweep", "alpha-sweep",
        "detuning = 0\nsweep_s = logspace(0.01, 1000, 25)\noutput_dir = {output_dir}\n",
        "the README fig2a.cfg alpha(s) curve: 425 assemblies and steady states "
        "of 81x81 generators, no resolvent"),
    "spectrum": Workload(
        "spectrum", "spectrum",
        "rabi = 100\ndetuning = 20\noutput_dir = {output_dir}\n",
        "production spectrum rabi=100 detuning=20: 7909 frequencies x 16 phase "
        "points = 126544 resolvent LU factorizations"),
    "isotropic_full": Workload(
        "isotropic_full", "alpha-sweep",
        "scheme = full_j0_j1\norientation_mode = isotropic\nn_configs = 2\n"
        "detuning = 0\nsweep_s = 0.5, 2\nseed = {seed}\noutput_dir = {output_dir}\n",
        "256x256 generators at seeded random orientations, s=0.5 and 2: LAPACK "
        "flops dominate and no orientation repeats"),
}


def op_seed(seed, index):
    """Config seed of operation ``index`` of a run with ``seed``.

    Each operation draws new isotropic orientations, as a fresh CLI run
    with a new seed would, so nothing computed for one operation's
    orientations can be reused by the next.
    """
    return seed * 1000 + index


def config_text(workload, seed, output_dir):
    return workload.config.format(seed=seed, output_dir=output_dir)


def run_op(workload, config_path):
    """One CLI-equivalent run; returns (artifact paths, failed points, result)."""
    from cbsim import cli, config

    cfg = config.parse_config(Path(config_path).read_text(encoding="utf-8"))
    if workload.command == "alpha-sweep":
        path, failures = cli.run_alpha_sweep(cfg, workers=1)
        return [path], failures, None
    csv_path, report_path, result = cli.run_spectrum(cfg, workers=1)
    return [csv_path, report_path], 0, result


# -- reading artifacts -------------------------------------------------------


def read_table(path):
    """Header and rows of a cbsim CSV artifact (plain or gzipped)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    header, rows = None, []
    with opener(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


def _numeric(rows, n_cols):
    return np.array([[float(v) for v in row[:n_cols]] for row in rows])


def load_reference():
    with open(REFERENCE_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- comparisons --------------------------------------------------------------


def _relative_misses(what, values, ref, scale=None):
    """Problems for entries of ``values`` off ``ref`` by more than REL_TOL."""
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.shape != ref.shape:
        return [f"{what}: shape {values.shape} differs from reference {ref.shape}"]
    scale = np.abs(ref) if scale is None else scale
    excess = np.abs(values - ref) - REL_TOL * scale
    if not np.any(excess > 0):
        return []
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    rel = abs(values[worst] - ref[worst]) / max(scale[worst], 1e-300)
    return [f"{what}: {int(np.sum(excess > 0))} value(s) off reference by more "
            f"than {REL_TOL:g} relative (worst at {tuple(map(int, worst))}: {rel:.2e})"]


def local_maxima(y, min_relative_height=1e-6):
    interior = np.arange(1, y.size - 1)
    is_max = (y[interior] > y[interior - 1]) & (y[interior] > y[interior + 1])
    idx = interior[is_max]
    return idx[np.abs(y[idx]) >= min_relative_height * np.abs(y).max()]


def predicted_peaks(rabi, detuning):
    """Seven dressed-state resonances {0, +-W, (W-d)/2, -(W+d)/2, +-2W}."""
    w = math.hypot(rabi, detuning)
    return [0.0, w, -w, 0.5 * (w - detuning), -0.5 * (w + detuning), 2 * w, -2 * w]


def check_alpha_sweep(csv_path, failures, reference_rows=None, oracle=None):
    """Problems with an alpha-sweep artifact (an empty list means it passed)."""
    problems = []
    if failures:
        problems.append(f"{failures} sweep point(s) reported failed")
    header, rows = read_table(csv_path)
    if any(row[7] for row in rows):
        problems.append("sweep rows carry error messages")
        return problems
    values = _numeric(rows, 7)
    if reference_rows is not None:
        problems += _relative_misses("sweep values", values, reference_rows)
    if oracle is not None:
        problems += oracle(values)
    return problems


def resonance_sweep_oracle(values):
    """alpha(s=0.01) ~ 2, decreasing while s <= 50, then ~ 23/21."""
    s, alpha = values[:, 0], values[:, 6]
    problems = []
    if abs(alpha[0] / 2.0 - 1.0) > 0.02:
        problems.append(f"alpha(s={s[0]:g}) = {alpha[0]:.5f}, not within 2% of 2")
    low = alpha[s <= 50.0]
    if not np.all(np.diff(low) < 0):
        problems.append("alpha(s) is not decreasing over s <= 50")
    high = alpha[s >= 50.0]
    if high.size == 0 or np.any(np.abs(high / ALPHA_INF - 1.0) > 0.005):
        problems.append("alpha(s >= 50) is not within 0.5% of 23/21")
    return problems


def isotropic_oracle(values):
    """Elastic reciprocity c2_el ~ l2_el within 1%, and 1 < alpha <= 2."""
    l2_el, c2_el, alpha = values[:, 2], values[:, 4], values[:, 6]
    problems = []
    if np.any(np.abs(c2_el - l2_el) > 0.01 * np.abs(l2_el)):
        problems.append("elastic reciprocity c2_el = l2_el misses by more than 1%")
    if np.any(alpha <= 1.0) or np.any(alpha > 2.0):
        problems.append(f"alpha outside (1, 2]: {alpha.tolist()}")
    return problems


def check_spectrum(csv_path, report_path, components, reference, reference_csv):
    """Problems with a spectrum artifact, its peak report and its components."""
    problems = []
    _, rows = read_table(csv_path)
    values = _numeric(rows, 3)
    _, ref_rows = read_table(reference_csv)
    ref = _numeric(ref_rows, 3)
    if values.shape != ref.shape:
        return [f"spectrum grid has {values.shape[0]} frequencies, "
                f"reference has {ref.shape[0]}"]
    problems += _relative_misses("omega grid", values[:, 0], ref[:, 0])
    for col, name in ((1, "background density"), (2, "interference density")):
        scale = np.full(ref.shape[0], np.abs(ref[:, col]).max())
        problems += _relative_misses(name, values[:, col], ref[:, col], scale)
    problems += _relative_misses(
        "spectrum components", [components[k] for k in COMPONENT_KEYS],
        [reference["spectrum_components"][k] for k in COMPONENT_KEYS])

    omega, background, interference = values.T
    found = omega[local_maxima(background)]
    for peak in predicted_peaks(100.0, 20.0):
        if found.size == 0 or np.min(np.abs(found - peak)) > 0.5:
            problems.append(f"no background maximum within 0.5 of {peak:.3f}")
    ratio = np.trapezoid(interference, omega) / np.trapezoid(background, omega)
    if abs(ratio / 0.065 - 1.0) > 0.10:
        problems.append(f"area ratio {ratio:.5f} not within 10% of 0.065")
    if abs(components["alpha"] - 1.065) > 0.02:
        problems.append(f"alpha {components['alpha']:.5f} not within 0.02 of 1.065")
    report = Path(report_path).read_text(encoding="utf-8")
    if "status: ok" not in report:
        problems.append("peak report lacks the line status: ok")
    return problems


def check_op(workload, seed, paths, failures, result, reference):
    """Gate one operation's artifacts; returns a list of problems."""
    if workload.name == "sweep":
        return check_alpha_sweep(paths[0], failures,
                                 reference_rows=reference["sweep"],
                                 oracle=resonance_sweep_oracle)
    if workload.name == "isotropic_full":
        ref = reference["isotropic_full"] if seed == REFERENCE_SEED else None
        return check_alpha_sweep(paths[0], failures, reference_rows=ref,
                                 oracle=isotropic_oracle)
    components = {k: getattr(result.components, k) for k in COMPONENT_KEYS}
    return check_spectrum(paths[0], paths[1], components, reference,
                          REFERENCE_DIR / "spectrum.csv.gz")
