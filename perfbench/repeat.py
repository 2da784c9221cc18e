"""Repeat benchmark runs over seeds and summarize each metric's spread.

Runs ``run.py`` once per (workload, seed), one after another, and writes the
per-run results plus, for every metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median.  Run from the root of the source tree::

    python3 perfbench/repeat.py --workloads sweep,spectrum --seeds 1-10 \\
        --trace 0 --output .perfbench/repeat.json

Comparing two commits means running this on each with identical arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": int(args.trace), "workloads": {}}
    all_correct = True
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr[-2000:]}")
            env = json.loads(lines[0].partition(": ")[2])
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        for k, s in metrics.items():
            print(f"  {name} {k}: median {s['median']:.6g} {units[k]}, "
                  f"spread {s['spread']:.4f}")
        summary["workloads"][name] = {"environment": env, "units": units,
                                      "metrics": metrics, "runs": runs}
    summary["correct"] = all_correct
    Path(args.output).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
