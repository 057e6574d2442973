"""Size sweep: how analysis cost grows with the size of generated programs.

Usage (from the repository root)::

    python benchmarks/size_sweep.py --base <ref> [--stmts 4 5 6 7 8] \\
        [--programs 30]

For each generator ``max_stmts`` in ``--stmts`` (depth and loop caps as
perfbench's ``scaled`` workload: ``max_depth=2``, ``max_loops=2``) the
sweep draws ``--programs`` programs at the pinned corpus seed 0 and
analyzes each one cold, exactly as a ``scaled`` request does
(``perfbench/workloads.py``: ``Scaled._verdict`` inside ``run_serial``).
Every (side, size) cell runs in two fresh processes under
``PYTHONHASHSEED=0``: an untraced one for verdict times and peak RSS,
and a traced one (``perfbench/tracing.py``) for CFG blocks and the
``absint`` share of verdict time.  The sides are ``<ref>``
(``git archive``) and a copy of the working tree, as in
``benchmarks/bench_pairs.py``.

It prints one row per size with both sides, then a text plot of the
``absint`` share, median verdict time and peak RSS against CFG blocks
per verdict.  It is a record of how a change scales, not a gate: the
exit status is non-zero only when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import bench_pairs

SIDES = ("base", "tree")
PLOTTED = (
    ("absint_share", "absint share of verdict time", "%.2f"),
    ("verdict_ms_p50", "median verdict time (ms)", "%.1f"),
    ("peak_rss_mb", "peak RSS (MB)", "%.1f"),
)
BAR = 40


def measure(root: str, stmts: int, programs: int, traced: bool) -> Dict[str, float]:
    """Run this script's ``--child`` mode against the tree at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", str(stmts),
         "--root", root, "--programs", str(programs)] + (["--traced"] if traced else []),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("max_stmts=%d in %s failed with exit %d" % (stmts, root, proc.returncode))
    return json.loads(lines[-1])


def child(root: str, stmts: int, programs: int, traced: bool) -> int:
    """Analyze the pinned draw for one size with the tree at ``root``;
    print one JSON object."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import tracing
    import workloads
    from repro.diffcheck.generator import GeneratorConfig, generate_program

    config = GeneratorConfig(**dict(workloads.SCALED_GENERATOR, max_stmts=stmts))
    draw = [generate_program(workloads.SCALED_CORPUS_SEED, i, config) for i in range(programs)]
    requests = [
        workloads.Request(
            key=p.name, run=lambda p=p: workloads.Scaled._verdict(p.source, p.domain_map)
        )
        for p in draw
    ]
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    window = workloads.run_serial(lambda _: requests, 1, tracer)
    seconds = [r.seconds for r in window.records]
    out: Dict[str, float] = {
        "failed": sum(1 for r in window.records if r.failure),
        "verdict_ms_p50": 1000 * statistics.median(seconds),
        "verdict_ms_mean": 1000 * statistics.mean(seconds),
        "peak_rss_mb": window.extra["rss_mb"],
    }
    if tracer is not None:
        totals = tracer.totals()
        out["blocks"] = totals["blocks"] / len(draw)
        out["absint_share"] = totals["layers"]["absint"][1] / sum(seconds)
    print(json.dumps(out))
    return 0


def bars(value: float, top: float) -> str:
    return "#" * max(1, round(BAR * value / top)) if top else ""


def render(rows: List[Dict[str, object]]) -> List[str]:
    lines = [
        "| max_stmts | CFG blocks | absint share | verdict ms p50 | verdict ms mean | peak RSS MB |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        base, tree = row["base"], row["tree"]
        lines.append(
            "| %d | %.1f | %.2f → %.2f | %.1f → %.1f | %.1f → %.1f | %.1f → %.1f |"
            % (
                row["stmts"], tree["blocks"],
                base["absint_share"], tree["absint_share"],
                base["verdict_ms_p50"], tree["verdict_ms_p50"],
                base["verdict_ms_mean"], tree["verdict_ms_mean"],
                base["peak_rss_mb"], tree["peak_rss_mb"],
            )
        )
    for key, title, fmt in PLOTTED:
        top = max(row[side][key] for row in rows for side in SIDES)
        lines += ["", "%s against CFG blocks per verdict (base, tree):" % title]
        for row in rows:
            for side in SIDES:
                value = row[side][key]
                label = "%6.1f blocks" % row["tree"]["blocks"] if side == "base" else " " * 13
                lines.append("%s %s %s %s" % (label, side[0], bars(value, top).ljust(BAR), fmt % value))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref to compare the working tree against")
    parser.add_argument("--stmts", type=int, nargs="+", default=[4, 5, 6, 7, 8])
    parser.add_argument("--programs", type=int, default=30)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--root", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        return child(args.root, args.child, args.programs, args.traced)
    if not args.base:
        parser.error("--base is required")
    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="size-sweep-") as scratch:
        roots = {side: os.path.join(scratch, side) for side in SIDES}
        for root in roots.values():
            os.makedirs(root)
        bench_pairs.export(args.base, roots["base"])
        bench_pairs.snapshot(roots["tree"])
        for stmts in args.stmts:
            row: Dict[str, object] = {"stmts": stmts}
            for side in SIDES:
                cell = measure(roots[side], stmts, args.programs, traced=False)
                traced = measure(roots[side], stmts, args.programs, traced=True)
                cell.update(blocks=traced["blocks"], absint_share=traced["absint_share"])
                row[side] = cell
            print("max_stmts=%d done" % stmts, file=sys.stderr)
            rows.append(row)
    print("\n".join(render(rows)))
    failed = sum(row[side]["failed"] for row in rows for side in SIDES)
    if failed:
        print("FAIL: %d analyses raised" % failed, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
