"""Alternating A/B pairs of ``perfbench/run.py``: a base commit against
the working tree.

Usage (from the repository root)::

    python benchmarks/bench_pairs.py --base <ref> [--workload scaled] \\
        [--pairs 10] [--seconds 30] [--trace 0|1]

or ``make bench-pairs BASE=<ref> WORKLOAD=<w> PAIRS=10``.

The committed files of ``<ref>`` are exported (``git archive``) into a
temporary directory.  Pair ``i`` (counting from 1) runs both sides with
seed ``i``, swapping which side goes first on every pair so that
drift in the machine's load falls on both.  For every metric the two
runs report, the script prints each side's median [q1–q3] and how many
pairs the tree won (by the direction ``BENCHMARK.json`` gives it).  A
metric's gain *holds* when the tree wins at least 9 of every 10 pairs
and its median beats the base median by more than the base's
interquartile range.  A metric whose tree median is worse than the base
median by more than its ``BENCHMARK.json`` bound is flagged.  A metric
whose base runs spread wider than its bound (IQR / median) is reported
*unresolved*, unless every tree run beats every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("perfbench", "run.py")


def metric_specs(root: str) -> Dict[str, Dict[str, object]]:
    """Name -> {"better": "lower"|"higher", "bound": float|None}."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    specs = {}
    for section in ("end_to_end", "per_layer"):
        for entry in contract.get(section, ()):
            specs[entry["name"]] = {"better": entry["better"], "bound": entry.get("bound")}
    return specs


def export(ref: str, dest: str) -> None:
    """The committed files of ``ref``, written under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", ref],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_side(root: str, workload: str, seed: int, seconds: float, trace: int) -> Dict[str, float]:
    """One ``perfbench/run.py`` run from ``root``; its metric values."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run in %s (seed %d) failed with exit %d" % (root, seed, proc.returncode))
    result = json.loads(lines[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    runs: List[Dict[str, Dict[str, float]]], specs: Dict[str, Dict[str, object]]
) -> List[Dict[str, object]]:
    """Per metric: both sides' quartiles, tree wins and the verdicts."""
    rows = []
    names = [n for n in runs[0]["base"] if all(n in r["base"] and n in r["tree"] for r in runs)]
    for name in names:
        base = [r["base"][name] for r in runs]
        tree = [r["tree"][name] for r in runs]
        b_q1, b_med, b_q3 = quartiles(base)
        t_q1, t_med, t_q3 = quartiles(tree)
        row: Dict[str, object] = {
            "metric": name,
            "base": [b_med, b_q1, b_q3],
            "tree": [t_med, t_q1, t_q3],
        }
        spec = specs.get(name)
        if spec is not None:
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(1 for b, t in zip(base, tree) if sign * (t - b) > 0)
            gain = sign * (t_med - b_med)
            row["wins"] = wins
            row["holds"] = wins * 10 >= 9 * len(runs) and gain > b_q3 - b_q1
            bound = spec.get("bound")
            if bound is not None and b_med:
                row["beyond_bound"] = -gain / abs(b_med) > float(bound)
                all_beat = min(sign * t for t in tree) > max(sign * b for b in base)
                row["unresolved"] = (b_q3 - b_q1) / abs(b_med) > float(bound) and not all_beat
        rows.append(row)
    return rows


def render(rows: List[Dict[str, object]], pairs: int) -> List[str]:
    out = ["%-32s %-30s %-30s %6s  %s" % ("metric", "base median [q1-q3]", "tree median [q1-q3]", "wins", "verdict")]
    for row in rows:
        cells = []
        for side in ("base", "tree"):
            med, q1, q3 = row[side]  # type: ignore[misc]
            cells.append("%.4g [%.4g-%.4g]" % (med, q1, q3))
        wins = "%d/%d" % (row["wins"], pairs) if "wins" in row else "-"
        verdict = []
        if row.get("holds"):
            verdict.append("gain holds")
        if row.get("beyond_bound"):
            verdict.append("WORSE BEYOND BOUND")
        if row.get("unresolved"):
            verdict.append("unresolved")
        out.append("%-32s %-30s %-30s %6s  %s" % (row["metric"], cells[0], cells[1], wins, ", ".join(verdict)))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare the working tree against")
    parser.add_argument("--workload", default="scaled", choices=("table1", "scaled", "service"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    specs = metric_specs(ROOT)
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    runs: List[Dict[str, Dict[str, float]]] = []
    try:
        export(args.base, scratch)
        roots = {"base": scratch, "tree": ROOT}
        for index in range(args.pairs):
            seed = index + 1
            order = ("base", "tree") if index % 2 == 0 else ("tree", "base")
            pair: Dict[str, Dict[str, float]] = {}
            for side in order:
                pair[side] = run_side(roots[side], args.workload, seed, args.seconds, args.trace)
            runs.append(pair)
            print(
                "pair %d (seed %d, %s first): verdicts_per_s base %s tree %s"
                % (index + 1, seed, order[0], pair["base"].get("verdicts_per_s"), pair["tree"].get("verdicts_per_s")),
                flush=True,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rows = summarize(runs, specs)
    print("\n%s: %d alternating pairs, base %s vs working tree" % (args.workload, args.pairs, args.base))
    for line in render(rows, args.pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
