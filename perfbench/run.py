"""hbv benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload hh_dims --seed 1 --seconds 25 --trace 0

Run from the repository root; hbv is imported from ``src/`` only.  The run
sets up several times (fresh import of hbv plus the first repetition's
inputs), then repeats the workload's case list, with fresh seeded inputs each
repetition, until ``--seconds`` is used up.  Timings are medians over the
repetitions, scaled to a fixed machine speed by the kernel in
``calibrate.py``.  Every case's report body is compared with
``reference.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` first runs one repetition under tracemalloc for the layers'
memory, then alternates untraced and traced repetitions on the same inputs
and reports the per-layer metrics of the median traced repetition,
writing the spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
MAX_REPS = 64   # ends a run early only for a program far faster than today's
REFERENCE = os.path.join(HERE, "reference.json")


class Clock:
    """Wall time, and wall time scaled to the calibration kernel's reference
    speed, with the kernel timed before and after each measured call (each
    case, each set-up)."""

    def __init__(self):
        self.last = calibrate.kernel_seconds()

    def measure(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        before, self.last = self.last, calibrate.kernel_seconds()
        return raw, raw * calibrate.REFERENCE_S * 2 / (before + self.last), out


@contextlib.contextmanager
def workdir(tag):
    """A private working directory under perfbench/out for the run's input
    files, removed afterwards."""
    path = os.path.join(HERE, "out", f"work-{tag}-{os.getpid()}")
    os.makedirs(path)
    try:
        os.chdir(path)
        yield path
    finally:
        os.chdir(ROOT)
        shutil.rmtree(path, ignore_errors=True)


def import_hbv():
    """A fresh import of the package from ``src/``; returns the package and
    its modules by name."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "hbv" or m.startswith("hbv.")]:
        del sys.modules[name]
    hbv = importlib.import_module("hbv")
    importlib.import_module("hbv.cli")
    if os.path.dirname(os.path.abspath(hbv.__file__)) != os.path.join(src, "hbv"):
        raise ImportError(f"hbv was imported from {hbv.__file__}, not {src}")
    modules = {m: mod for m, mod in sys.modules.items()
               if m == "hbv" or m.startswith("hbv.")}
    return hbv, modules


def setup(clock, workload, seed):
    """Import plus input generation, repeated; returns the median scaled
    time, the package and its modules."""
    def once():
        hbv, modules = import_hbv()
        workloads.WORKLOADS[workload](hbv, workloads.rng_for(workload, seed, 0))
        return hbv, modules

    times = []
    for _ in range(SETUPS):
        _, scaled, (hbv, modules) = clock.measure(once)
        times.append(scaled)
    return statistics.median(times), hbv, modules


def run_case(hbv, case):
    """``(status, checks, body)``; an exception escaping the program counts
    as a failed case with no report."""
    try:
        return case.fn(hbv)
    except Exception as exc:  # the case fails; the run goes on
        print(f"perfbench: {case.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, [], None


def run_traced(tracer, hbv, case):
    tracer.begin_case(case.label)
    outcome = run_case(hbv, case)
    return outcome, tracer.end_case()


def run_rep(clock, hbv, cases, tracer=None):
    """Run the case list once; returns the wall and the scaled seconds, the
    outcomes and, when traced, the sizes each case's layers saw."""
    raw = scaled = 0.0
    outcomes, sizes = [], []
    for case in cases:
        if tracer is None:
            r, s, outcome = clock.measure(run_case, hbv, case)
        else:
            r, s, (outcome, seen) = clock.measure(run_traced, tracer, hbv, case)
            sizes.append(seen)
        raw += r
        scaled += s
        outcomes.append(outcome)
    return raw, scaled, outcomes, sizes


def digest(body):
    return None if body is None else hashlib.sha256(body.encode()).hexdigest()


class Tally:
    """Cases and checks attempted and failed, and mismatches with the
    reference."""

    def __init__(self, reference):
        self.reference = reference
        self.cases = self.cases_failed = 0
        self.checks = self.checks_failed = 0
        self.mismatches = []

    def add(self, cases, outcomes, sizes=None):
        for i, (case, (status, checks, body)) in enumerate(zip(cases, outcomes)):
            ref = self.reference.get(case.label, {})
            match = digest(body) == ref.get("sha256")
            if sizes is not None:
                match = match and sizes[i] == ref.get("traced")
            if not match:
                self.mismatches.append(case.label)
            self.cases += 1
            self.cases_failed += status != 0 or not match
            self.checks += len(checks)
            self.checks_failed += checks.count(False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    with workdir(f"{args.workload}-{args.seed}"):
        try:
            result = measure(args, reference)
        except ImportError as exc:
            print(f"perfbench: cannot import hbv from src/: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0


def measure(args, reference):
    clock = Clock()
    setup_s, hbv, modules = setup(clock, args.workload, args.seed)
    make_cases = workloads.WORKLOADS[args.workload]
    tally = Tally(reference)
    tracer = tracing.Tracer() if args.trace else None
    wall, plain, traced = [], [], []
    if tracer is not None:
        # before the measured time starts, so the timed repetitions stay as
        # many as in a run without it
        probe = tracing.MemoryProbe()
        cases = make_cases(hbv, workloads.rng_for(args.workload, args.seed, 0))
        t0 = time.perf_counter()
        tally.add(cases, probe.run(modules, lambda: [run_case(hbv, c) for c in cases]))
        memory_rep_s = time.perf_counter() - t0
    deadline = time.perf_counter() + args.seconds
    for rep in range(MAX_REPS):
        cases = make_cases(hbv, workloads.rng_for(args.workload, args.seed, rep))
        raw, scaled, outcomes, _ = run_rep(clock, hbv, cases)
        wall.append(raw)
        plain.append(scaled)
        tally.add(cases, outcomes)
        step = raw
        if tracer is not None:
            tracer.begin_rep()
            tracer.install(modules)
            try:
                raw, scaled, outcomes, sizes = run_rep(clock, hbv, cases, tracer)
            finally:
                tracer.uninstall()
            tracer.end_rep(scaled / raw)
            traced.append(scaled)
            tally.add(cases, outcomes, sizes)
            step += raw
        if time.perf_counter() + step > deadline:
            break

    solve_s = statistics.median(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cases_failed_frac = tally.cases_failed / tally.cases
    checks_failed_frac = tally.checks_failed / tally.checks if tally.checks else 0.0
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)}"
          f"  cases/rep {len(cases)}")
    print(f"  solve_s            {solve_s:.4f} s  (wall {statistics.median(wall):.4f} s)")
    print(f"  repetitions (s)    {' '.join(f'{t:.3f}' for t in plain)}")
    print(f"  setup_s            {setup_s:.4f} s")
    print(f"  peak_rss_mb        {peak_rss_mb:.1f} MB")
    print(f"  cases_failed_frac  {tally.cases_failed}/{tally.cases}"
          f" = {cases_failed_frac:.4f}")
    print(f"  checks_failed_frac {tally.checks_failed}/{tally.checks}"
          f" = {checks_failed_frac:.6f}")
    for label in sorted(set(tally.mismatches)):
        print(f"  MISMATCH with reference: {label}")

    if tracer is None:
        metrics = {
            "solve_s": (solve_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cases_ok_frac": (1.0 - cases_failed_frac, "frac"),
            "checks_ok_frac": (1.0 - checks_failed_frac, "frac"),
        }
    else:
        print(f"  memory repetition  {memory_rep_s:.4f} s (wall, under tracemalloc)")
        metrics = layer_metrics(tracer, plain, traced)
        metrics.update({k: (v, "MB") for k, v in probe.peak_mb.items()})
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:36s} {value:.6g} {unit}")
        tracer.write_spans(os.path.join(
            HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    return {
        "correct": not tally.mismatches,
        "attempted": tally.cases,
        "failed": tally.cases_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, plain, traced):
    """The per-layer metrics of the median traced repetition, so that its
    self times add up to its time, and the tracing overhead against the
    median untraced repetition."""
    i = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    out = {name: (value, unit(name)) for name, value in tracer.rep_stats[i].items()}
    out["trace.solve_s"] = (traced[i], "s")
    out["trace.overhead_frac"] = (traced[i] / statistics.median(plain) - 1, "frac")
    return out


def unit(name):
    return ("s" if name.endswith("_s") else "MB" if name.endswith("_mb")
            else "frac" if name.endswith(("_ratio", "_frac")) else "count")


if __name__ == "__main__":
    sys.exit(main())
