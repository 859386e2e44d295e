"""Regenerate reference.json: the fingerprint of every case of every workload.

    python3 perfbench/make_reference.py

For each case it records the SHA-256 of its report body and, from a traced
repetition, the (coefficients, dim, nnz) of every bar complex built and the
rank of every differential, as sorted lists.  Three seeds must agree on all
of it, since labelling changes cost but not results.  Regenerate only when a
change alters a report on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads

SEEDS = (0, 1, 2)


def fingerprints(hbv, modules, workload, seed):
    cases = workloads.WORKLOADS[workload](hbv, workloads.rng_for(workload, seed, 0))
    clock = run.Clock()
    _, _, outcomes, _ = run.run_rep(clock, hbv, cases)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        _, _, _, sizes = run.run_rep(clock, hbv, cases, tracer)
    finally:
        tracer.uninstall()
    out = {}
    for case, (status, checks, body), traced in zip(cases, outcomes, sizes):
        out[case.label] = {
            "summary": {"status": status, "checks": len(checks),
                        "checks_failed": checks.count(False)},
            "sha256": run.digest(body),
            "traced": traced,
        }
    return out


def main():
    hbv, modules = run.import_hbv()
    reference = {}
    for workload in workloads.WORKLOADS:
        with run.workdir(f"reference-{workload}"):
            first, *others = [fingerprints(hbv, modules, workload, s) for s in SEEDS]
        for other in others:
            if other != first:
                sys.exit(f"{workload}: fingerprints depend on the seed")
        reference[workload] = first
        print(workload, {k: v["summary"] for k, v in first.items()})
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
