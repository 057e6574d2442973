"""Cold, steady time-to-verdict benchmark for the repro analyzer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1|scaled|service|all \\
        [--seed 1] [--seconds 30] [--trace 0|1]

Runs one workload across several fresh processes (``all``: each
workload in turn), checks every answer against a reference computed
outside the timed window, prints every metric by name and unit, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every
other process and reports the per-layer metrics.  Exit status is 0 only
when every answer is sound, every digest agrees and every gate holds.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("table1", "scaled", "service")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30.0
# A run is split across this many fresh processes, one after another;
# each is timed from spawn to "ready", and setup_s is their median.
PROCESSES = {"table1": 12, "scaled": 4, "service": 4}
PART_TIMEOUT = 170.0
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("decided_share", "share"),
    ("correct_share", "share"),
    ("peak_rss_mb", "MB"),
)
# Printed with the others, but not in BENCHMARK.json: it reads 0 on a
# healthy tree, and failures already fail the run.
SUMMARY_ONLY = (("failed_share", "share"),)

PER_LAYER = (
    ("frontend.calls", "calls/verdict"),
    ("frontend.self_s", "s/verdict"),
    ("ir.blocks", "blocks/verdict"),
    ("taint.self_s", "s/verdict"),
    ("trails.split_calls", "calls/verdict"),
    ("trails.self_s", "s/verdict"),
    ("trails.leaves", "leaves/verdict"),
    ("bounds.calls", "calls/verdict"),
    ("bounds.self_s", "s/verdict"),
    ("bounds.proc_self_s", "s/verdict"),
    ("absint.calls", "calls/verdict"),
    ("absint.self_s", "s/verdict"),
    ("domains.closure_calls", "calls/verdict"),
    ("domains.closure_self_s", "s/verdict"),
    ("core.safety_s", "s/verdict"),
    ("core.attack_s", "s/verdict"),
    ("leakage.calls", "calls/verdict"),
    ("leakage.self_s", "s/verdict"),
    ("perf.hit_rate", "share"),
    ("perf.refine_reuse_hit_rate", "share"),
    ("perf.bound_shared_hit_rate", "share"),
    ("resilience.degraded_leaves", "leaves/verdict"),
    ("resilience.budget_steps", "steps/verdict"),
    ("service.executed", "share"),
    ("service.cached", "share"),
    ("service.coalesced", "share"),
    ("service.shed", "share"),
    ("service.queue_ms_p50", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("other.self_s", "s/verdict"),
    ("trace.overhead_share", "share"),
)


def import_program() -> None:
    """Put the checkout's ``src`` on the path, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program sources under %s" % SRC)
    sys.path.insert(0, SRC)


def build(workload: str, seed: int):
    import workloads

    if workload == "table1":
        return workloads.Table1(seed)
    if workload == "scaled":
        return workloads.Scaled(seed)
    return workloads.Service(seed)


# -- one process's share of a run -------------------------------------------------


def run_part(workload: str, seed: int, seconds: float, traced: bool, index: int) -> int:
    """Child side: set up, say "ready", run this process's rounds (under
    the tracer when ``traced``), print the window as one JSON line."""
    import tracing
    import workloads

    bench = build(workload, seed)
    rounds = workloads.rounds_for(workload, seconds)
    spans = os.path.join(OUT, "trace-%s-seed%d-part%d.jsonl" % (workload, seed, index))
    if traced:
        os.makedirs(OUT, exist_ok=True)
    if workload == "service":
        window = asyncio.run(part_service(bench, rounds, traced, spans))
    else:
        print("ready", flush=True)
        if not traced:
            window = workloads.run_serial(bench.make_round, rounds)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                window = workloads.run_serial(bench.make_round, rounds, tracer)
            finally:
                tracer.remove()
            window.extra["trace"] = tracer.totals()
            tracer.write(spans)
    window.extra["traced"] = traced
    print(json.dumps(window.to_dict()))
    return 0


async def part_service(bench, rounds: int, traced: bool, spans: str):
    import tracing
    import workloads
    from repro.service import shard

    await bench.boot()
    try:
        print("ready", flush=True)
        if not traced:
            window = await bench.window(rounds)
        else:
            original = shard.execute_job
            shard.execute_job = tracing.traced_execute_job
            try:
                window = await bench.window(rounds)
            finally:
                shard.execute_job = original
            with open(spans, "w", encoding="utf-8") as handle:
                for record in window.records:
                    handle.write(json.dumps({
                        "request": "%s#%d" % (record.key, record.round),
                        "seconds": record.seconds,
                        "disposition": record.facts.get("disposition"),
                        "worker": record.facts.get("trace"),
                    }) + "\n")
    finally:
        await bench.shutdown()
    # The daemon's peak plus its largest worker's (all reaped by now).
    window.extra["rss_mb"] += workloads.peak_rss_mb(resource.RUSAGE_CHILDREN)
    return window


def run_parts(workload: str, seed: int, seconds: float, trace: bool):
    """Parent side: :data:`PROCESSES` fresh processes, one after another,
    each timed from spawn to "ready" (its set-up time).  With ``trace``
    the odd-numbered processes run traced, the others untraced."""
    import workloads

    windows, setup = [], []
    count = PROCESSES[workload]
    for index in range(count):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--part", str(index),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds / count), "--trace", str(int(trace and index % 2))],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            setup.append(time.perf_counter() - started)
            rest = child.communicate(timeout=PART_TIMEOUT)[0].strip().splitlines()
            code = child.returncode
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line != "ready" or code != 0 or not rest:
            raise RuntimeError("%s process %d failed (exit %s)" % (workload, index, code))
        windows.append(workloads.Window.from_dict(json.loads(rest[-1])))
    return windows, setup


def digest_check(records) -> None:
    """Every input must produce one digest in every round of every process."""
    first: Dict[str, str] = {}
    for record in records:
        if record.failure or not record.digest:
            continue
        seen = first.setdefault(record.key, record.digest)
        if seen != record.digest:
            record.failure = "digest differs between runs of the same input"


def end_to_end(windows, setup: List[float]) -> Dict[str, float]:
    import workloads

    records = [r for w in windows for r in w.records]
    latencies = [r.seconds * 1000.0 for r in records]
    attempted = len(records)
    return {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": attempted / sum(w.wall for w in windows),
        "verdict_ms_p50": statistics.median(latencies),
        "verdict_ms_p90": workloads.p90(latencies),
        "decided_share": sum(r.decided for r in records) / attempted,
        "correct_share": sum(r.correct for r in records) / attempted,
        "failed_share": sum(bool(r.failure) for r in records) / attempted,
        "peak_rss_mb": statistics.median(w.extra["rss_mb"] for w in windows),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, windows) -> Dict[str, float]:
    import tracing

    untraced = [w for w in windows if not w.extra["traced"]]
    traced = [w for w in windows if w.extra["traced"]]
    records = [r for w in traced for r in w.records]

    def rate(group) -> float:
        return sum(len(w.records) for w in group) / sum(w.wall for w in group)

    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    out["trace.overhead_share"] = 1.0 - rate(traced) / rate(untraced)
    totals: Dict[str, Any] = {}
    if workload == "service":
        # Layer work happens in the workers, for executed jobs only.
        verdicts = [r for r in records if r.facts.get("disposition") == "executed"]
        for record in verdicts:
            tracing.merge_totals(totals, record.facts["trace"])
        stats = {
            name: sum(w.extra["stats"][name] for w in traced)
            for name in traced[0].extra["stats"]
        }
        n = len(records)
        out["service.executed"] = stats["executed"] / n
        out["service.cached"] = (stats["hits_memory"] + stats["hits_disk"]) / n
        out["service.coalesced"] = stats["coalesced"] / n
        out["service.shed"] = stats["shed"] / n
        out["service.queue_ms_p50"] = statistics.median(
            (r.facts["started_at"] - r.facts["submitted_at"]) * 1000.0 for r in verdicts
        )
        out["service.run_ms_p50"] = statistics.median(
            (r.facts["finished_at"] - r.facts["started_at"]) * 1000.0 for r in verdicts
        )
        hits = [r.seconds * 1000.0 for r in records if r.facts.get("disposition") == "cached"]
        out["service.hit_ms_p50"] = statistics.median(hits) if hits else 0.0
    else:
        verdicts = records
        for window in traced:
            tracing.merge_totals(totals, window.extra["trace"])
    n = max(1, len(verdicts))
    layers = totals["layers"]
    for prefix in ("frontend", "absint", "bounds", "leakage"):
        out["%s.calls" % prefix] = layers[prefix][0] / n
        out["%s.self_s" % prefix] = layers[prefix][1] / n
    out["ir.blocks"] = totals["blocks"] / n
    out["taint.self_s"] = layers["taint"][1] / n
    out["trails.split_calls"] = totals["calls"].get("repro.core.blazer.split_trail", 0) / n
    out["trails.self_s"] = layers["trails"][1] / n
    out["bounds.proc_self_s"] = layers["bounds.proc"][1] / n
    out["domains.closure_calls"] = layers["domains"][0] / n
    out["domains.closure_self_s"] = layers["domains"][1] / n
    out["other.self_s"] = totals["other_s"] / n
    out["resilience.budget_steps"] = totals["budget_steps"] / n

    # Facts the verdicts carry themselves (service: analyze jobs only).
    carriers = [r for r in verdicts if r.layers]
    m = max(1, len(carriers))

    def total(name: str) -> float:
        return sum(r.layers[name] for r in carriers)

    for name in ("core.safety_s", "core.attack_s", "trails.leaves", "resilience.degraded_leaves"):
        out[name] = total(name) / m
    out["perf.hit_rate"] = _ratio(total("perf.hits"), total("perf.lookups"))
    for name in ("refine_reuse", "bound_shared"):
        out["perf.%s_hit_rate" % name] = _ratio(
            total("perf.%s.hits" % name), total("perf.%s.lookups" % name)
        )
    return out


def run_one(
    workload: str, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], List[str]]:
    windows, setup = run_parts(workload, seed, seconds, trace)
    records = [r for w in windows for r in w.records]
    bench = build(workload, seed)
    violations = bench.check(windows)
    digest_check(records)
    failures = sorted({"%s: %s" % (r.key, r.failure) for r in records if r.failure})
    if trace:
        metrics = per_layer(workload, windows)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(windows, setup)
        units = dict(END_TO_END + SUMMARY_ONLY)
    lines = [
        "%s %-28s %14.6f %s" % (workload, name, value, units[name])
        for name, value in metrics.items()
    ]
    lines.append(
        "%s processes=%d rounds=%d requests=%d wall=%.2fs"
        % (
            workload,
            len(windows),
            sum(w.rounds for w in windows),
            len(records),
            sum(w.wall for w in windows),
        )
    )
    reported = [name for name, _ in (PER_LAYER if trace else END_TO_END)]
    result = {
        "correct": not failures and not violations,
        "attempted": len(records),
        "failed": sum(bool(r.failure) for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }
    problems = ["%s %s" % (workload, v) for v in violations + failures]
    return result, lines + problems


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("%s printed no result (exit %d)" % (workload, child.returncode))
            return 1
        combined["correct"] = combined["correct"] and result["correct"] and child.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def pin_hash_seed() -> None:
    """Re-run this command under :data:`HASH_SEED` unless already there.

    The analyzer iterates sets of strings, so its work depends on the
    string-hash seed: with random seeds single ``scaled`` programs moved
    by 15% between processes.  A pinned seed makes runs comparable.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_hash_seed()
    import_program()
    if args.part is not None:
        return run_part(args.workload, args.seed, args.seconds, bool(args.trace), args.part)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
