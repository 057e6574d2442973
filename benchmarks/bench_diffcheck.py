"""Differential-campaign bench: the full agreement matrix at scale.

Runs a seeded ``repro diffcheck`` campaign with every registered
subject (Blazer, eager self-composition, the constant-time checker,
PDSC, and the quantitative leakage analysis), then writes the
machine-readable ``BENCH_diffcheck.json`` (a local file; no copy is
committed):

* the **agreement matrix** — for every subject pair (oracle included),
  the fraction of programs on which both made the same safe/not-safe
  call;
* per-subject **verdict counts** and the disagreement-kind histogram;
* per-subject aggregate **wall clock** (volatile; informational);
* the campaign coordinates and budget knobs, so the report is
  reproducible bit-for-bit (timing aside) from its own header.

Gates (exit non-zero):

* **soundness** — zero ``soundness_bug`` rows, always;
* **agreement regression** — when a report from an earlier local run
  has the same coordinates, no subject's oracle-agreement rate may
  drop more than ``AGREEMENT_TOLERANCE`` (the previous report is read
  before being overwritten; without one the gate is skipped);
* **campaign health** — worker errors (exit 4 from the runner) fail
  the bench too.

Budgets: campaigns trim ``max_pairs`` well below the interactive
default, same precedent as ``make diffcheck-smoke`` — a smaller pair
budget only converts would-be proofs into ``exhausted`` (a budget data
point), never flips a verdict, so the soundness gate is unaffected.

Usage::

    python benchmarks/bench_diffcheck.py [--seed 0] [--count 10000]
        [--jobs N] [--max-pairs 120] [--max-refinements 2]
        [--output BENCH_diffcheck.json]
    python benchmarks/bench_diffcheck.py --quick   # make pdsc-smoke:
                                                   # 200 programs
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.diffcheck.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.diffcheck.differ import SUBJECTS, DiffConfig

# Absolute drop in a subject's oracle-agreement rate that fails the
# regression gate (rates move a little whenever the generator or a
# budget knob changes; those changes regenerate the report on purpose).
AGREEMENT_TOLERANCE = 0.02

ORACLE = "oracle"
COLUMNS = (ORACLE,) + SUBJECTS


def _safe_bit(outcome, subject: str) -> Optional[bool]:
    """Subject's binary "calls it safe" verdict, None if skipped."""
    if subject == ORACLE:
        return not outcome.oracle_leaky
    if subject == "blazer":
        return outcome.blazer == "safe" if outcome.blazer != "skipped" else None
    if subject == "selfcomp":
        return outcome.selfcomp == "verified" if outcome.selfcomp else None
    if subject == "consttime":
        return outcome.constant_time
    if subject == "pdsc":
        return outcome.pdsc == "verified" if outcome.pdsc else None
    if subject == "leakage":
        # "Safe" in the binary sense = a sound claim of one timing
        # class (zero bits); unknown claims nothing and is excluded.
        if not outcome.leakage or outcome.leakage == "skipped":
            return None
        if outcome.leakage_cells is None:
            return None
        return outcome.leakage_cells <= 1
    raise ValueError(subject)


def agreement_matrix(report: CampaignReport) -> Dict[str, Dict[str, float]]:
    """Pairwise same-call rates over the campaign, oracle included.

    Conservative subjects (selfcomp/pdsc/consttime answer "safe" only
    on a proof) naturally agree with the oracle less often than Blazer
    on leak-heavy populations; the matrix is a drift detector, not a
    quality ranking.
    """
    matrix: Dict[str, Dict[str, float]] = {}
    for a in COLUMNS:
        matrix[a] = {}
        for b in COLUMNS:
            total = agree = 0
            for outcome in report.outcomes:
                if outcome.error:
                    continue
                bit_a, bit_b = _safe_bit(outcome, a), _safe_bit(outcome, b)
                if bit_a is None or bit_b is None:
                    continue
                total += 1
                agree += bit_a == bit_b
            matrix[a][b] = round(agree / total, 4) if total else 1.0
    return matrix


def build_report(report: CampaignReport, config: CampaignConfig, jobs: int) -> Dict:
    record = report.to_dict()
    return {
        "campaign": dict(
            record["campaign"],
            max_pairs=config.diff.max_pairs,
            max_refinements=config.diff.max_refinements,
            jobs=jobs,
        ),
        "summary": record["summary"],
        "agreement": agreement_matrix(report),
        # Volatile section: wall clock moves with the host; everything
        # above it is a pure function of the campaign coordinates.
        "subject_seconds": {
            subject: round(seconds, 2)
            for subject, seconds in sorted(report.subject_seconds().items())
        },
    }


def coordinates(record: Dict) -> Dict:
    campaign = dict(record.get("campaign", {}))
    campaign.pop("jobs", None)  # job count never changes the verdicts
    return campaign


def check_gates(record: Dict, previous: Optional[Dict]) -> List[str]:
    failures: List[str] = []
    summary = record["summary"]
    if summary["soundness_bugs"]:
        failures.append(
            "SOUNDNESS GATE: %d soundness_bug row(s)" % summary["soundness_bugs"]
        )
    if summary["errors"]:
        failures.append("HEALTH GATE: %d worker error(s)" % summary["errors"])
    if previous is None:
        return failures
    if coordinates(previous) != coordinates(record):
        print(
            "bench_diffcheck: coordinates changed; agreement gate skipped",
            file=sys.stderr,
        )
        return failures
    for subject in SUBJECTS:
        old = previous.get("agreement", {}).get(ORACLE, {}).get(subject)
        new = record["agreement"][ORACLE][subject]
        if old is not None and new < old - AGREEMENT_TOLERANCE:
            failures.append(
                "AGREEMENT GATE: %s oracle-agreement %.4f < previous %.4f - %.2f"
                % (subject, new, old, AGREEMENT_TOLERANCE)
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=0, help="0 = cpu count")
    parser.add_argument("--max-pairs", type=int, default=None)
    parser.add_argument("--max-refinements", type=int, default=None)
    parser.add_argument("--output", default="BENCH_diffcheck.json")
    parser.add_argument("--journal", default=None, help="JSONL journal path")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 200 programs at a leaner pair budget "
        "(the make pdsc-smoke gate; <90s on one core)",
    )
    args = parser.parse_args(argv)
    # Quick mode trims the budgets further: on one core the full-bench
    # knobs put 200 programs past the 90 s smoke envelope.
    defaults = (200, 40, 1) if args.quick else (10_000, 80, 2)
    args.count = defaults[0] if args.count is None else args.count
    args.max_pairs = defaults[1] if args.max_pairs is None else args.max_pairs
    if args.max_refinements is None:
        args.max_refinements = defaults[2]

    jobs = args.jobs or (os.cpu_count() or 1)
    config = CampaignConfig(
        seed=args.seed,
        count=args.count,
        diff=DiffConfig(
            max_pairs=args.max_pairs, max_refinements=args.max_refinements
        ),
        shrink=False,  # the bench wants verdicts, not reproducers
    )
    report = run_campaign(
        config, jobs=jobs, journal=args.journal, resume=args.resume
    )
    record = build_report(report, config, jobs)

    previous = None
    if os.path.exists(args.output):
        try:
            with open(args.output, encoding="utf-8") as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = None
    failures = check_gates(record, previous)

    if not args.quick:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("bench_diffcheck: wrote %s" % args.output)

    oracle_row = record["agreement"][ORACLE]
    print(
        "bench_diffcheck: seed=%d programs=%d soundness_bugs=%d"
        % (args.seed, args.count, record["summary"]["soundness_bugs"])
    )
    print(
        "  oracle agreement: "
        + "  ".join("%s=%.3f" % (s, oracle_row[s]) for s in SUBJECTS)
    )
    print(
        "  subject seconds:  "
        + "  ".join(
            "%s=%.1fs" % (s, record["subject_seconds"].get(s, 0.0))
            for s in SUBJECTS
        )
    )
    for failure in failures:
        print("bench_diffcheck: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
