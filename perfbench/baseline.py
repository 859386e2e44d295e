"""Measure the baseline: ten untraced runs per workload on ten seeds, and one
traced run per workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each end-to-end metric it records the median, the quartiles and the
spread (quartile distance over the median, the statistic a bound is checked
against); for the traced run, every per-layer metric.  Later changes diff
their own baseline against the committed one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="file to write (default: standard output)")
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    result = {
        "seeds": SEEDS, "run_seconds": seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "machine": platform.machine(),
        "workloads": {},
    }
    for name in names:
        runs = [run_once(name, s, seconds, 0) for s in SEEDS]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                                 for r in runs])
                           for m in bench["end_to_end"]},
        }
        for m in bench["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            flag = "" if m["name"] == "setup_s" or s["spread"] <= m["bound"] / 3 else "  WIDE"
            print(f"{name:15s} {m['name']:15s} median {s['median']:.5g}"
                  f"  spread {s['spread']:.4f}  bound {m['bound']}{flag}", flush=True)
        traced = run_once(name, SEEDS[0], seconds, 1)
        entry["traced_seed"] = SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        result["workloads"][name] = entry
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
