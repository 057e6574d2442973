"""Perf harness: the memoized+parallel engine vs. the plain serial one.

Runs every Table-1 benchmark twice —

* **serial baseline**: one benchmark after another in this process with
  the perf layer forced *off*, i.e. exactly the unmemoized seed engine;
* **optimized**: the same benchmarks with the perf layer on, dispatched
  through the persistent warm-worker pool (:mod:`repro.perf.pool`) in
  chunks via :class:`ParallelSuiteRunner`.

— then verifies the two runs produced byte-identical analyses (content
digests per :func:`repro.core.report.verdict_digest`) and writes the
machine-readable ``BENCH_table1.json`` so future changes can track the
perf trajectory.

Measurement: each side runs ``--repeat`` times (default 3) and every
benchmark reports its **minimum** wall across repeats — the standard
noise floor for sub-100ms measurements on a shared box.  The optimized
side keeps its warm pool, and the workers their process-wide memo
tables, across repeats, so its later repeats are warm replays: the
speedup columns are printed and reported but gate nothing, since a warm
replay says nothing about cold analysis (``perfbench/run.py`` measures
that).  Digests must agree across repeats as well as across sides, so a
cache that changed an answer while warming is caught here, not in
production.

Usage::

    python benchmarks/bench_perf.py [--jobs N] [--repeat N] [--output PATH]
    python benchmarks/bench_perf.py --quick     # CI smoke: MicroBench
                                                # only, --jobs 2, verdict
                                                # and digest gates only

Exit status is non-zero on any verdict mismatch or digest divergence
(perf-on against perf-off, or across repeats); additionally, in full
mode only, when the serial baseline wall regresses more than 20% against
the committed ``BENCH_table1.json`` (the previous report is read for its
reference wall before being overwritten — point ``--output`` at a copy
of it to keep the committed file).  Every row also publishes its
refinement-reuse column — ``refine_reuse_hits`` / ``_misses`` /
``_hit_rate``, the parent-artifact serves of the first, cold repeat.

Resilience (docs/RESILIENCE.md): both runs default to ``--retries 2``,
so an injected or real worker crash is retried on the serial backend
and the digests still gate correctness.  When a fault plan is active
(``REPRO_FAULTS``), the serial-wall timing gate is skipped — injected
delays and crash/retry cycles make timing assertions meaningless — but
the verdict and digest gates still apply.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.benchsuite import ALL_BENCHMARKS, MICRO, BenchResult, ParallelSuiteRunner
from repro.resilience import faults

# Serial-wall regression tolerance against the committed report (the
# timing gate that keeps the seed engine honest between regenerations).
SERIAL_REGRESSION_TOLERANCE = 1.20


def run_serial_baseline(names: List[str], retries: int = 2) -> List[BenchResult]:
    """The reference run: perf layer off, strictly sequential."""
    runner = ParallelSuiteRunner(
        names, jobs=1, backend="serial", cache=False, retries=retries
    )
    return runner.run()


def run_optimized(names: List[str], jobs: int, retries: int = 2) -> List[BenchResult]:
    """The measured run: perf layer on, warm-pool chunked dispatch."""
    runner = ParallelSuiteRunner(
        names, jobs=jobs, backend="auto", cache=True, retries=retries
    )
    return runner.run()


def measure(
    run,
    names: List[str],
    repeat: int,
    retries: int,
) -> Tuple[List[BenchResult], float, List[str]]:
    """Run ``run(names, retries=...)`` ``repeat`` times.

    Returns the last repeat's results with each ``wall_seconds``
    replaced by that benchmark's minimum across repeats and its cache
    counters by those of the first repeat (the cold one; later repeats
    replay on warm tables), the minimum harness wall, and a list of
    cross-repeat digest divergences (empty on a healthy engine: warming
    a cache must never change an answer).
    """
    best: Optional[List[BenchResult]] = None
    best_wall = float("inf")
    min_walls: List[float] = []
    cold_stats: List[Dict[str, Tuple[int, int]]] = []
    divergent: List[str] = []
    digests: List[str] = []
    for attempt in range(max(1, repeat)):
        t0 = time.perf_counter()
        results = run(names, retries=retries)
        wall = time.perf_counter() - t0
        walls = [r.wall_seconds for r in results]
        if attempt == 0:
            min_walls = walls
            digests = [r.digest for r in results]
            cold_stats = [dict(r.cache_stats) for r in results]
        else:
            min_walls = [min(a, b) for a, b in zip(min_walls, walls)]
            for r, first in zip(results, digests):
                if r.digest != first and r.name not in divergent:
                    divergent.append(r.name)
        best = results
        best_wall = min(best_wall, wall)
    assert best is not None
    for r, wall, stats in zip(best, min_walls, cold_stats):
        r.wall_seconds = wall
        r.cache_stats = stats
        r.cache_hits = sum(pair[0] for pair in stats.values())
        r.cache_misses = sum(pair[1] for pair in stats.values())
    return best, best_wall, divergent


def committed_serial_wall(path: str) -> Optional[float]:
    """The serial wall of the committed report at ``path`` (pre-overwrite)."""
    try:
        with open(path) as handle:
            return float(json.load(handle)["total"]["serial_seconds"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def build_report(
    serial: List[BenchResult],
    optimized: List[BenchResult],
    serial_wall: float,
    optimized_wall: float,
    jobs: int,
    repeat: int,
) -> Dict:
    rows = []
    for base, opt in zip(serial, optimized):
        total = opt.cache_hits + opt.cache_misses
        reuse_hits, reuse_misses = opt.cache_stats.get("refine.reuse", (0, 0))
        reuse_total = reuse_hits + reuse_misses
        rows.append(
            {
                "name": base.name,
                "group": base.group,
                "verdict": opt.status,
                "expect": base.expect,
                "ok": opt.ok,
                "digest_match": base.digest == opt.digest,
                "serial_seconds": round(base.wall_seconds, 4),
                "parallel_seconds": round(opt.wall_seconds, 4),
                "speedup": round(base.wall_seconds / opt.wall_seconds, 2)
                if opt.wall_seconds
                else None,
                "leaves": opt.leaves,
                "cache_hits": opt.cache_hits,
                "cache_misses": opt.cache_misses,
                "hit_rate": round(opt.cache_hits / total, 4) if total else 0.0,
                # The refinement-reuse column: parent loop artifacts
                # revalidated and served to split children (None = the
                # row never refined, so the tier was never probed).
                "refine_reuse_hits": reuse_hits,
                "refine_reuse_misses": reuse_misses,
                "refine_reuse_hit_rate": round(reuse_hits / reuse_total, 4)
                if reuse_total
                else None,
                "retries": base.retries + opt.retries,
                "quarantined": base.quarantined + opt.quarantined,
                "degraded_leaves": base.degraded_leaves + opt.degraded_leaves,
            }
        )
    plan = faults.active()
    return {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "jobs": jobs,
        "repeat": repeat,
        "faults": [s.describe() for s in plan.specs] if plan is not None else [],
        "benchmarks": rows,
        "total": {
            "serial_seconds": round(serial_wall, 4),
            "parallel_seconds": round(optimized_wall, 4),
            "speedup": round(serial_wall / optimized_wall, 2)
            if optimized_wall
            else None,
            "all_ok": all(r["ok"] for r in rows),
            "all_digests_match": all(r["digest_match"] for r in rows),
            "refine_reuse_hits": sum(r["refine_reuse_hits"] for r in rows),
            "refine_reuse_misses": sum(r["refine_reuse_misses"] for r in rows),
            "retries": sum(r["retries"] for r in rows),
            "quarantined": sum(r["quarantined"] for r in rows),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=4, help="workers for the optimized run"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="measure each side N times; report min walls (noise floor)",
    )
    parser.add_argument(
        "--output", default="BENCH_table1.json", help="report path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: MicroBench only, --jobs 2, no timing gate",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry a failed benchmark up to N times on the serial backend",
    )
    args = parser.parse_args()

    if args.quick:
        benches = [b for b in ALL_BENCHMARKS if b.group == MICRO]
        jobs = 2
    else:
        benches = list(ALL_BENCHMARKS)
        jobs = args.jobs
    names = [b.name for b in benches]

    # Fork the warm pool *before* the serial baseline runs: workers
    # snapshot the parent heap at fork time, and forking after 3×24
    # in-process analyses hands every worker a bloated inherited heap
    # (measurably slower GC in allocation-heavy benchmarks).
    from repro.perf.pool import shared_pool, warm_pool_usable

    if warm_pool_usable():
        shared_pool(jobs).prewarm()

    timing_gate = faults.active() is None
    if not timing_gate:
        print(
            "fault plan active (%s): timing gate disabled"
            % "; ".join(s.describe() for s in faults.active().specs)
        )
        # One repeat under chaos: min-of-N only serves the (disabled)
        # timing gate, and `once` faults fire in the first repeat —
        # their retry bookkeeping must reach the report, not be
        # overwritten by fault-free later repeats.
        args.repeat = 1
    reference_wall = committed_serial_wall(args.output) if os.path.exists(
        args.output
    ) else None

    print(
        "serial baseline (perf layer off, %d benchmarks, min of %d run(s))..."
        % (len(names), args.repeat)
    )
    serial, serial_wall, serial_diverged = measure(
        run_serial_baseline, names, args.repeat, args.retries
    )
    print("  %.2fs" % serial_wall)

    print("optimized (perf layer on, --jobs %d, min of %d run(s))..." % (
        jobs, args.repeat,
    ))
    optimized, optimized_wall, optimized_diverged = measure(
        lambda ns, retries: run_optimized(ns, jobs, retries=retries),
        names,
        args.repeat,
        args.retries,
    )
    print("  %.2fs" % optimized_wall)

    report = build_report(
        serial, optimized, serial_wall, optimized_wall, jobs, args.repeat
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    total = report["total"]
    speedup = total["speedup"]
    print(
        "speedup: %.2fx (%.2fs -> %.2fs), verdicts ok: %s, digests match: %s"
        % (
            speedup,
            total["serial_seconds"],
            total["parallel_seconds"],
            total["all_ok"],
            total["all_digests_match"],
        )
    )
    reuse_total = total["refine_reuse_hits"] + total["refine_reuse_misses"]
    print(
        "refinement reuse: %d/%d artifact probes served (%s)"
        % (
            total["refine_reuse_hits"],
            reuse_total,
            "%.1f%%" % (100.0 * total["refine_reuse_hits"] / reuse_total)
            if reuse_total
            else "n/a",
        )
    )
    print("report written to %s" % args.output)

    failed = False
    if not total["all_ok"]:
        bad = [r["name"] for r in report["benchmarks"] if not r["ok"]]
        print("FAIL: verdict mismatch in: %s" % ", ".join(bad), file=sys.stderr)
        failed = True
    if not total["all_digests_match"]:
        bad = [r["name"] for r in report["benchmarks"] if not r["digest_match"]]
        print(
            "FAIL: optimized run diverged from baseline in: %s" % ", ".join(bad),
            file=sys.stderr,
        )
        failed = True
    for side, diverged in (("serial", serial_diverged), ("optimized", optimized_diverged)):
        if diverged:
            print(
                "FAIL: %s run digests changed across repeats in: %s"
                % (side, ", ".join(diverged)),
                file=sys.stderr,
            )
            failed = True
    if (
        timing_gate
        and not args.quick
        and reference_wall is not None
        and serial_wall > reference_wall * SERIAL_REGRESSION_TOLERANCE
    ):
        print(
            "FAIL: serial wall %.2fs regressed more than %d%% over the "
            "committed %.2fs"
            % (
                serial_wall,
                round((SERIAL_REGRESSION_TOLERANCE - 1) * 100),
                reference_wall,
            ),
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
