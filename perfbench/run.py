"""cbsim benchmark: wall time to a correct artifact, plus a per-module trace.

Run from the root of a cbsim source tree (``src/cbsim`` is imported from
there, nothing is installed)::

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

The second form runs every workload in both modes, each in its own process,
and prints every metric by name with its unit.

``--trace 0`` measures the end-to-end metrics with nothing patched:

``setup_s``
    Median wall time of fresh interpreters that each import cbsim and finish
    one ``cbs_components`` call (v_type, s=1, detuning 0), as every CLI
    invocation does.  One unmeasured process runs first so that byte code
    and the page cache are warm; its time is kept as ``setup_s_first``.
``op_s``
    Median wall time of one operation: read and parse the config, run
    ``cli.run_alpha_sweep`` or ``cli.run_spectrum``, write the artifacts.
``op_s_tail``
    The highest percentile of operation time with at least ten samples
    above it.  With fewer than 21 operations that percentile is not above
    the median, and the slowest operation is reported instead; the details
    line names the percentile and the sample count either way.
``peak_rss_mb``
    Peak resident memory of the benchmark process.

``--trace 1`` runs operations untraced for half the time and traced for
the other half, and reports per-operation layer metrics from the traced
ones (see ``layertrace.py``) plus ``trace.overhead``, traced over untraced
median operation time.

Each operation is gated (see ``workloads.py``).  ``fail_ratio`` is
``failed / attempted`` of the result line.  The program runs as users run
it: one worker (``CBSIM_WORKERS`` is removed from the environment) and BLAS
threads at their default; the environment block records both.  The last
line of standard output is the JSON result; a fuller record goes to
``.perfbench/``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".perfbench")

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 30
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from cbsim import atoms, cbs, liouvillian
comp = cbs.cbs_components(atoms.build_scheme(atoms.V_TYPE),
                          liouvillian.PhysicalParams(), s=1.0, detuning=0.0)
print(repr(comp.alpha))
"""

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "liouvillian.assemble.calls": "count",
    "liouvillian.assemble.s": "s",
    "atoms.embed.calls": "count",
    "atoms.embed.s": "s",
    "solver.steady_state.calls": "count",
    "solver.steady_state.s": "s",
    "solver.resolvent.factor.calls": "count",
    "solver.resolvent.factor.s": "s",
    "solver.resolvent.solve.s": "s",
    "solver.resolvent.gflop": "Gflop",
    "cbs.self_s": "s",
    "cbs.harmonic_extract.s": "s",
    "cbs.phase_points": "count",
    "spectra.omega_points": "count",
    "dressed.validate_spectrum.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "bytes",
    "trace.overhead": "ratio",
}


# -- environment ---------------------------------------------------------------


def _blas_threads(package):
    """Thread count of the OpenBLAS bundled with ``package``, if readable."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                  package.__name__ + ".libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(cbsim_workers):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_numpy": _blas_threads(numpy),
        "blas_threads_scipy": _blas_threads(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "CBSIM_WORKERS": cbsim_workers,
        "workers": 1,
        "machine": platform.machine(),
    }


# -- measurements --------------------------------------------------------------


def measure_setup(expected_alpha):
    """Fresh-process set-up times; returns (first, measured times, problems)."""
    from workloads import REL_TOL

    times, problems = [], []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up process failed: {proc.stderr.strip()[-300:]}")
            continue
        alpha = float(proc.stdout.strip())
        if abs(alpha - expected_alpha) > REL_TOL * abs(expected_alpha):
            problems.append(f"set-up call returned alpha {alpha!r}, "
                            f"reference {expected_alpha!r}")
    return times[0], times[1:], problems


def run_ops(workload, seed, out_dir, reference, seconds, runner, first_op=0):
    """Run gated operations until ``seconds`` would be overrun (at least one).

    Operation ``k`` reads a config written for ``op_seed(seed, k)``.
    ``runner(op_id, fn)`` executes one operation.  Returns (times, problems
    per failed operation).
    """
    from workloads import check_op, config_text, op_seed, run_op

    cfg_path = out_dir / "run.cfg"
    times, failures = [], []
    start = time.perf_counter()
    while True:
        op_id = first_op + len(times)
        cfg_seed = op_seed(seed, op_id)
        cfg_path.write_text(config_text(workload, cfg_seed, out_dir.as_posix()),
                            encoding="utf-8")
        t0 = time.perf_counter()
        try:
            paths, failed_points, result = runner(op_id, lambda: run_op(workload, cfg_path))
            times.append(time.perf_counter() - t0)
            problems = check_op(workload, cfg_seed, paths, failed_points, result, reference)
        except Exception:  # an operation that raises is a failed operation
            if len(times) == op_id - first_op:
                times.append(time.perf_counter() - t0)
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failures.append(problems)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(times) > seconds:
            return times, failures


def tail(times):
    """(value, percentile): highest percentile with ten samples above it.

    Below 21 samples that percentile is not above the median, and the
    slowest sample is returned instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def _direct(op_id, fn):
    return fn()


def warm_up(repeats=3):
    """Make the set-up call in-process until BLAS threads and lazy imports
    have started; returns the median time of the warm calls after the first."""
    from cbsim import atoms, cbs, liouvillian

    scheme = atoms.build_scheme(atoms.V_TYPE)
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        cbs.cbs_components(scheme, liouvillian.PhysicalParams(), s=1.0, detuning=0.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def measure_end_to_end(workload, seed, out_dir, reference, seconds):
    first, setup_times, setup_problems = measure_setup(reference["setup_alpha"])
    times, failures = run_ops(workload, seed, out_dir, reference, seconds, _direct)
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(times),
        "op_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_s_first": first, "setup_times_s": setup_times, "op_times_s": times,
        "op_s_tail_percentile": tail_pct, "op_count": len(times),
    }
    if setup_problems:
        failures.append(setup_problems)
    return metrics, details, len(times) + 1, failures


def measure_per_layer(workload, seed, out_dir, reference, seconds, spans_path):
    from layertrace import Tracer

    plain, plain_failures = run_ops(workload, seed, out_dir, reference,
                                    seconds / 2.0, _direct)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures = run_ops(workload, seed, out_dir, reference,
                                          seconds / 2.0, tracer.run_op,
                                          first_op=len(plain))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    layer = tracer.per_op_metrics(len(traced))
    layer["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: layer[name] for name in PER_LAYER}
    details = {
        "untraced_op_times_s": plain, "traced_op_times_s": traced,
        "absent_entry_points": tracer.absent, "spans": str(spans_path),
        "span_count": len(tracer.spans),
        "other_span_totals_s": {k: v for k, v in sorted(layer.items())
                                if k not in PER_LAYER},
    }
    return metrics, details, len(plain) + len(traced), plain_failures + traced_failures


# -- entry point ---------------------------------------------------------------


def run_workload(name, seed, seconds, trace, env):
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[name]
    out_dir = WORK_DIR / name
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = load_reference()
    warm_s = warm_up()

    if trace:
        spans_path = WORK_DIR / f"spans-{name}-seed{seed}.tsv.gz"
        metrics, details, attempted, failures = measure_per_layer(
            workload, seed, out_dir, reference, seconds, spans_path)
        units = PER_LAYER
    else:
        metrics, details, attempted, failures = measure_end_to_end(
            workload, seed, out_dir, reference, seconds)
        units = END_TO_END
    details["warm_cbs_components_s"] = warm_s
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace, "environment": env,
              "result": result, "fail_ratio": len(failures) / attempted,
              "problems": failures, "details": details}
    record_path = WORK_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record


def print_table(name, result, record):
    print(f"workload {name} (trace {record['trace']}, seed {record['seed']}):")
    for metric, entry in result["metrics"].items():
        absent = metric.rsplit(".", 1)[0] in record["details"].get("absent_entry_points", ())
        note = "  (entry point absent)" if absent else ""
        print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}{note}")
    print(f"  {'fail_ratio':<32} {record['fail_ratio']:>16.6g} "
          f"ratio ({result['failed']} of {result['attempted']} failed)")
    details = record["details"]
    print(f"  warm cbs_components call {details['warm_cbs_components_s']:.4f} s")
    if "op_count" in details:
        print(f"  op_s_tail is p{details['op_s_tail_percentile']:.0f} "
              f"of {details['op_count']} operations; first set-up "
              f"{details['setup_s_first']:.3f} s")
    for problems in record["problems"]:
        print("  FAILED: " + "; ".join(p.strip() for p in problems))


def run_all(seed, seconds):
    """Run every workload in both modes, each in its own process."""
    from workloads import WORKLOADS

    print("environment: " + json.dumps(environment(os.environ.get("CBSIM_WORKERS"))))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 2
            print("\n".join(lines[1:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cbsim
    except ImportError as exc:
        print(f"error: cannot import cbsim from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(cbsim.__file__).resolve().parent != src / "cbsim":
        print(f"error: cbsim imported from {cbsim.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    env = environment(os.environ.pop("CBSIM_WORKERS", None))
    WORK_DIR.mkdir(exist_ok=True)
    print("environment: " + json.dumps(env))
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, env)
    print_table(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
