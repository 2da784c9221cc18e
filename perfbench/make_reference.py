"""Write the reference outputs the benchmark gate compares against.

Run once, from the root of the source tree whose outputs define the
reference (it was run at the commit that introduced the benchmark)::

    python3 perfbench/make_reference.py

It runs every workload once at ``REFERENCE_SEED`` through the same
operation the benchmark times and stores the sweep values, the isotropic
values, the spectrum components and the set-up call's alpha in
``reference/reference.json``, and the spectrum artifact itself in
``reference/spectrum.csv.gz``.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

from run import ROOT, SETUP_CODE, WORK_DIR
from workloads import (COMPONENT_KEYS, REFERENCE_DIR, REFERENCE_SEED, WORKLOADS,
                       config_text, read_table, run_op)


def _values(csv_path):
    _, rows = read_table(csv_path)
    return [[float(v) for v in row[:7]] for row in rows]


def main():
    sys.path.insert(0, str(ROOT / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference = {"seed": REFERENCE_SEED}
    for name, workload in WORKLOADS.items():
        out_dir = WORK_DIR / "reference" / name
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = out_dir / "run.cfg"
        cfg_path.write_text(config_text(workload, REFERENCE_SEED, out_dir.as_posix()),
                            encoding="utf-8")
        paths, failures, result = run_op(workload, cfg_path)
        if failures:
            raise SystemExit(f"{name}: {failures} failed point(s); no reference written")
        if result is None:
            reference[name] = _values(paths[0])
            continue
        reference["spectrum_components"] = {
            k: getattr(result.components, k) for k in COMPONENT_KEYS}
        with open(paths[0], "rb") as src, \
                gzip.GzipFile(REFERENCE_DIR / "spectrum.csv.gz", "wb", mtime=0) as dst:
            shutil.copyfileobj(src, dst)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    reference["setup_alpha"] = float(proc.stdout.strip())
    (REFERENCE_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    main()
