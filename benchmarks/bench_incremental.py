"""Incremental-plane equivalence gate: generated-program sweep + sabotage.

Two modes over :mod:`repro.diffcheck.equivalence`:

* **clean** (default): a seeded sweep of ``--count`` generated programs
  (the acceptance gate runs >= 300), each analyzed by the Blazer driver
  twice: with the perf layer on (every memo plus the incremental
  re-analysis plane) and with the perf-off seed engine.  The gate fails
  on any divergence — verdict status, verdict digest, or any single
  partition node's bound at any refinement round — and on any worker
  error.  It also fails when the sweep never exercised the plane
  (zero ``refine.reuse`` probes would mean the battery tests nothing).

* ``--sabotage``: the proof the gate has teeth.  A
  ``refine.delta:corrupt`` fault plan replaces exactly one reused
  parent fixpoint artifact with a zero-iteration claim; the sweep must
  flag **exactly one** divergent program, and the injected-fault event
  counter must confirm the corruption actually fired.  Sabotage sweeps
  run serially whatever ``--jobs`` says: fault hit counters are per
  process, so a pool would fire the spec once per worker.

Usage::

    python benchmarks/bench_incremental.py [--seed S] [--count N]
        [--jobs N] [--output PATH]
    python benchmarks/bench_incremental.py --sabotage [--count N]
    python benchmarks/bench_incremental.py --quick   # smoke: small clean
                                                     # sweep + sabotage

Exit status: 0 clean, 1 on any gate failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.diffcheck.equivalence import EquivalenceConfig, run_sweep
from repro.perf import runtime
from repro.resilience import faults

# The smoke sweep (--quick / make incremental-smoke) stays small enough
# to finish alongside the sabotage check in well under 60 s on one core.
QUICK_COUNT = 12
SABOTAGE_SPEC = "refine.delta:corrupt@1"


def run_clean(config: EquivalenceConfig, jobs: int, output: str) -> int:
    print(
        "equivalence sweep: %d programs (seed %d), incremental vs seed engine, "
        "--jobs %d..." % (config.count, config.seed, jobs)
    )
    report = run_sweep(config, jobs=jobs)
    summary = report.to_dict()["summary"]
    print(
        "  divergences=%d errors=%d refine.reuse=%d/%d (hit rate %.1f%%)"
        % (
            summary["divergences"],
            summary["errors"],
            summary["reuse_hits"],
            summary["reuse_misses"],
            100 * report.reuse_hit_rate(),
        )
    )
    if output:
        with open(output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("report written to %s" % output)

    failed = False
    for outcome in report.divergences:
        print(
            "FAIL: %s diverged (status %s vs %s, nodes: %s)"
            % (
                outcome.name,
                outcome.status_incremental,
                outcome.status_scratch,
                ", ".join(outcome.divergent_nodes) or "digest only",
            ),
            file=sys.stderr,
        )
        failed = True
    for outcome in report.errors:
        print("FAIL: %s errored: %s" % (outcome.name, outcome.error), file=sys.stderr)
        failed = True
    if report.reuse_hits + report.reuse_misses == 0:
        print(
            "FAIL: sweep never probed the refinement-reuse tier "
            "(the battery exercised nothing)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def run_sabotage(config: EquivalenceConfig) -> int:
    print(
        "sabotage sweep: %d programs under %s (serial)..."
        % (config.count, SABOTAGE_SPEC)
    )
    before = runtime.STATS.events_snapshot()
    plan = faults.FaultPlan.from_string(SABOTAGE_SPEC)
    faults.install(plan)
    try:
        report = run_sweep(config, jobs=1, backend="serial")
    finally:
        faults.clear()
    fired = runtime.STATS.events_delta(before).get("fault.corrupt", 0)
    divergent = [o.name for o in report.divergences]
    print(
        "  divergences=%d (%s), fault.corrupt events=%d"
        % (len(divergent), ", ".join(divergent) or "none", fired)
    )

    failed = False
    if fired != 1:
        print(
            "FAIL: expected exactly one injected corruption, saw %d" % fired,
            file=sys.stderr,
        )
        failed = True
    if len(divergent) != 1:
        print(
            "FAIL: sabotaged sweep flagged %d divergent program(s), "
            "expected exactly 1" % len(divergent),
            file=sys.stderr,
        )
        failed = True
    if report.errors:
        for outcome in report.errors:
            print(
                "FAIL: %s errored: %s" % (outcome.name, outcome.error),
                file=sys.stderr,
            )
        failed = True
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--count", type=int, default=300, help="programs per sweep"
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--output", default="", help="JSON report path")
    parser.add_argument(
        "--sabotage",
        action="store_true",
        help="inject %s and assert exactly one flagged divergence"
        % SABOTAGE_SPEC,
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: %d-program clean sweep, then the sabotage check"
        % QUICK_COUNT,
    )
    args = parser.parse_args()

    count = QUICK_COUNT if args.quick else args.count
    config = EquivalenceConfig(seed=args.seed, count=count)
    if args.sabotage:
        return run_sabotage(config)
    status = run_clean(config, jobs=args.jobs, output=args.output)
    if args.quick and status == 0:
        status = run_sabotage(config)
    return status


if __name__ == "__main__":
    sys.exit(main())
