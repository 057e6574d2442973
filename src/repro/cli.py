"""Command-line interface: ``python -m repro <command> ...``.

Subcommands mirror the stages a Blazer user cares about:

``analyze FILE --proc P``
    Run the full driver: SAFE / ATTACK / UNKNOWN, with the trail tree.

``pdsc FILE --proc P``
    Property-directed self-composition (docs/PDSC.md): prove the
    two-copy timing gap bounded, refining the copies' alignment on
    abstract counterexamples.  Exit 0 verified / 3 unverified /
    4 exhausted.

``leakage FILE --proc P [--model instr|cache|both]``
    Quantitative bits-leaked bound from the trail decomposition plus a
    constant-time check under a pluggable cost model (docs/LEAKAGE.md).
    Exit 0 constant-time / 2 variable-time / 3 unknown.

``bounds FILE --proc P [--domain D]``
    Just BOUNDANALYSIS on the most general trail.

``taint FILE --proc P``
    The low/high branch classification.

``disasm FILE [--proc P]``
    The compiled stack bytecode.

``run FILE --proc P --args JSON``
    Execute concretely; prints result and running time (instruction
    count under the paper's machine model).

``table1`` / ``figure1``
    Regenerate the paper's evaluation artifacts.

``diffcheck --seed S --count N``
    Differential fuzz campaign (docs/DIFFCHECK.md): random programs
    checked against the ground-truth oracle by up to five subjects
    (``--subjects blazer,selfcomp,consttime,pdsc,leakage``); exit 1 on
    a soundness bug.

``serve`` / ``submit`` / ``status``
    The resident analysis service (docs/SERVICE.md): boot the daemon,
    send it a job over the NDJSON socket protocol, inspect its queue.
    The daemon is one asyncio event loop in front of worker shards:
    pipelined connections, admission control, circuit-breaker shard
    quarantine, graceful SIGTERM drain.

``loadgen``
    Replay mixed benchmark + diffcheck traffic against the async tier
    (in-process by default, or ``--connect`` to a running daemon) and
    audit the run for lost or wrongly-settled jobs; ``--faults`` runs
    the same audit under a REPRO_FAULTS chaos plan.

``metrics``
    A running daemon's unified metrics registry (docs/OBSERVABILITY.md)
    in Prometheus text exposition (or JSON with ``--json``).

Top-level ``-v`` / ``--log-level`` install a stderr logging handler for
the ``repro`` logger tree (the library itself never configures logging);
``--obs`` / ``--trace`` on ``analyze`` and ``table1`` arm the
observability layer for one run without touching the environment by
hand.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.bounds import compute_bound, default_summaries
from repro.bytecode import compile_program, disassemble, verify_module
from repro.core import Blazer, BlazerConfig
from repro.core.observer import ConcreteThresholdObserver, PolynomialDegreeObserver
from repro.domains import DOMAINS
from repro.interp import Interpreter
from repro.ir import lift_module
from repro.lang import frontend
from repro.resilience.budget import Budget
from repro.taint import analyze_taint
from repro.util.cliargs import count_arg
from repro.util.errors import ReproError, SuiteInterrupted

# Exit codes (docs/RESILIENCE.md): 0 safe/ok, 1 generic error or Table-1
# mismatch, 2 attack, 3 unknown, 4 unknown-because-degraded (a budget
# ran out; rerun with a larger --deadline), 130 interrupted (SIGINT).
EXIT_ATTACK = 2
EXIT_UNKNOWN = 3
EXIT_DEGRADED = 4
EXIT_USAGE = 2  # argparse's own code for bad usage; also: no subcommand
EXIT_INTERRUPTED = 130

DEFAULT_ADDRESS = ".repro.sock"


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not pip-installed (PYTHONPATH=src checkouts)
        import repro

        return repro.__version__


def _verdict_exit(status: str, degraded: bool) -> int:
    """The shared exit-code contract for analysis outcomes."""
    if status == "safe":
        return 0
    if status == "attack":
        return EXIT_ATTACK
    return EXIT_DEGRADED if degraded else EXIT_UNKNOWN


def _load(path: str):
    with open(path) as handle:
        return frontend(handle.read())


def _pick_proc(cfgs, requested: Optional[str]) -> str:
    if requested is not None:
        if requested not in cfgs:
            raise SystemExit(
                "no procedure %r (available: %s)" % (requested, ", ".join(sorted(cfgs)))
            )
        return requested
    if len(cfgs) == 1:
        return next(iter(cfgs))
    raise SystemExit(
        "program defines several procedures; pick one with --proc "
        "(available: %s)" % ", ".join(sorted(cfgs))
    )


def _observer(name: str, threshold: int, max_input: int):
    if name == "degree":
        return PolynomialDegreeObserver()
    return ConcreteThresholdObserver(threshold=threshold, default_max=max_input)


def configure_logging(verbosity: int = 0, level_name: Optional[str] = None) -> None:
    """Install a stderr handler on the ``repro`` logger tree (idempotent).

    Level: ``--log-level`` wins; else ``-v`` → INFO, ``-vv`` → DEBUG,
    default WARNING.  Installing only on explicit request keeps the
    default CLI byte-identical to the unconfigured-logging behavior.
    """
    if level_name:
        level = getattr(logging, level_name.upper(), None)
        if not isinstance(level, int):
            raise SystemExit("unknown log level %r" % level_name)
    elif verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not any(getattr(h, "_repro_cli", False) for h in root.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        )
        handler._repro_cli = True  # type: ignore[attr-defined]
        root.addHandler(handler)


def _arm_observability(args) -> None:
    """Honor ``--obs`` / ``--trace``: flip the process-wide REPRO_OBS
    switch and export it (plus the trace path) through the environment
    so worker processes inherit both."""
    import os

    trace = getattr(args, "trace", None)
    if not getattr(args, "obs", False) and trace is None:
        return
    from repro.obs import runtime as obs_runtime

    obs_runtime.set_enabled(True)
    os.environ["REPRO_OBS"] = "1"
    if trace is not None:
        obs_runtime.set_trace_path(trace, export_env=True)


def _budget_from_args(args) -> Optional[Budget]:
    deadline = getattr(args, "deadline", None)
    max_refinements = getattr(args, "max_refinements", None)
    max_steps = getattr(args, "max_steps", None)
    if deadline is None and max_refinements is None and max_steps is None:
        return None
    return Budget(
        wall_seconds=deadline,
        max_refinements=max_refinements,
        max_steps=max_steps,
    )


def cmd_analyze(args) -> int:
    _arm_observability(args)
    program = _load(args.file)
    config = BlazerConfig(
        domain=args.domain,
        observer=_observer(args.observer, args.threshold, args.max_input),
        summaries=default_summaries(args.max_bits),
        budget=_budget_from_args(args),
    )
    blazer = Blazer(program, config)
    proc = _pick_proc(blazer.cfgs, args.proc)
    verdict = blazer.analyze(proc)
    if args.json:
        from repro.core.report import verdict_to_json

        print(verdict_to_json(verdict))
    else:
        print(verdict.render())
    return _verdict_exit(verdict.status, verdict.degraded)


def cmd_bounds(args) -> int:
    program = _load(args.file)
    module = compile_program(program)
    verify_module(module)
    cfgs = lift_module(module)
    proc = _pick_proc(cfgs, args.proc)
    result = compute_bound(
        cfgs[proc], DOMAINS[args.domain], default_summaries(args.max_bits)
    )
    print("%s: %s" % (proc, result))
    for header, ib in sorted(result.loop_bounds.items()):
        print(
            "  loop at block b%d: iterations [%s, %s]%s"
            % (header[0], ib.lower, ib.upper if ib.upper is not None else "oo",
               " (exact)" if ib.exact else "")
        )
    return 0


def cmd_taint(args) -> int:
    program = _load(args.file)
    module = compile_program(program)
    verify_module(module)
    cfgs = lift_module(module)
    proc = _pick_proc(cfgs, args.proc)
    print(analyze_taint(cfgs[proc]))
    return 0


def cmd_disasm(args) -> int:
    program = _load(args.file)
    module = compile_program(program)
    verify_module(module)
    names = [args.proc] if args.proc else sorted(module.codes)
    for name in names:
        print(disassemble(module.code(name)))
        print()
    return 0


def cmd_run(args) -> int:
    program = _load(args.file)
    module = compile_program(program)
    verify_module(module)
    cfgs = lift_module(module)
    proc = _pick_proc(cfgs, args.proc)
    call_args = json.loads(args.args) if args.args else {}
    if not isinstance(call_args, (list, dict)):
        raise SystemExit("--args must be a JSON array or object")
    interp = Interpreter(cfgs)
    trace = interp.run(proc, call_args)
    print("result: %r" % (trace.result,))
    print("time:   %d instructions" % trace.time)
    print("edges:  %d CFG edges traversed" % len(trace.edges))
    return 0


DEFAULT_JOURNAL = ".table1.journal.jsonl"


def cmd_table1(args) -> int:
    _arm_observability(args)
    from repro.obs import runtime as obs_runtime
    from repro.obs.trace import span as trace_span

    # One root span over the whole suite run, backdated to process
    # start: with --trace, the exported JSONL covers the command's full
    # end-to-end wall time, interpreter startup included.
    with trace_span(
        "table1.suite", group=args.group or "all", jobs=args.jobs
    ) as root:
        root.backdate(obs_runtime.process_age_seconds())
        return _cmd_table1(args)


def _cmd_table1(args) -> int:
    from repro.benchsuite import ALL_BENCHMARKS, ParallelSuiteRunner
    from repro.util.table import render_table

    benches = [
        b for b in ALL_BENCHMARKS if not args.group or b.group == args.group
    ]
    journal = args.journal
    if journal is None and (args.resume or args.retries):
        journal = DEFAULT_JOURNAL
    runner = ParallelSuiteRunner(
        benches,
        jobs=args.jobs,
        retries=args.retries,
        task_timeout=args.task_timeout,
        deadline=args.deadline,
        journal=journal,
        resume=args.resume,
    )
    results = runner.run()
    rows = []
    for result in results:
        verdict_col = "DEGRADED" if result.degraded else (
            "OK" if result.ok else "MISMATCH"
        )
        rows.append(
            [
                result.name,
                result.group,
                result.size,
                result.status,
                "%.2f" % result.safety_seconds,
                "-"
                if result.status == "safe"
                else "%.2f" % (result.safety_seconds + result.attack_seconds),
                verdict_col,
            ]
        )
    print(
        render_table(
            ["Benchmark", "Group", "Size", "Verdict", "Safety (s)", "w/Attack (s)", "vs Table 1"],
            rows,
            aligns=["l", "l", "r", "l", "r", "r", "l"],
        )
    )
    if runner.resumed_names:
        print(
            "resumed %d row(s) from %s" % (len(runner.resumed_names), journal),
            file=sys.stderr,
        )
    if runner.retry_counts:
        print(
            "retried: %s"
            % ", ".join(
                "%s x%d" % (n, c) for n, c in sorted(runner.retry_counts.items())
            ),
            file=sys.stderr,
        )
    degraded = [r.name for r in results if r.degraded]
    mismatches = [r.name for r in results if not r.ok and not r.degraded]
    if mismatches:
        print(
            "MISMATCH in %d row(s): %s" % (len(mismatches), ", ".join(mismatches)),
            file=sys.stderr,
        )
        return 1
    if degraded:
        print(
            "DEGRADED (budget exhausted) in %d row(s): %s"
            % (len(degraded), ", ".join(degraded)),
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


DEFAULT_DIFF_JOURNAL = ".diffcheck.journal.jsonl"


def cmd_diffcheck(args) -> int:
    _arm_observability(args)
    from repro.diffcheck import CampaignConfig, DiffConfig, run_campaign
    from repro.diffcheck.campaign import write_corpus
    from repro.diffcheck.differ import parse_subjects

    config = CampaignConfig(
        seed=args.seed,
        count=args.count,
        diff=DiffConfig(
            threshold=args.threshold,
            domain=args.domain,
            max_pairs=args.max_pairs,
            max_refinements=args.max_refinements,
            subjects=parse_subjects(args.subjects),
        ),
        shrink=not args.no_shrink,
    )
    journal = args.journal
    if journal is None and args.resume:
        journal = DEFAULT_DIFF_JOURNAL
    report = run_campaign(
        config,
        jobs=args.jobs,
        journal=journal,
        resume=args.resume,
        task_timeout=args.task_timeout,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    if args.corpus:
        written = write_corpus(report, args.corpus)
        if written:
            print(
                "wrote %d reproducer(s) to %s" % (len(written), args.corpus),
                file=sys.stderr,
            )
    summary = report.to_dict()["summary"]
    print(
        "diffcheck: seed=%d programs=%d clean=%d leaky=%d "
        "blazer safe/attack=%d/%d selfcomp/pdsc verified=%d/%d"
        % (
            report.seed,
            summary["programs"],
            summary["clean"],
            summary["oracle_leaky"],
            summary["blazer_safe"],
            summary["blazer_attack"],
            summary["selfcomp_verified"],
            summary["pdsc_verified"],
        )
    )
    for kind, count in sorted(summary["disagreements"].items()):
        print("  %s: %d" % (kind, count))
    for outcome in report.soundness_bugs:
        print(
            "SOUNDNESS BUG in %s: %s"
            % (
                outcome.name,
                "; ".join(
                    d["detail"]
                    for d in outcome.disagreements
                    if d["kind"] == "soundness_bug"
                ),
            ),
            file=sys.stderr,
        )
        reproducer = outcome.shrunk_source or outcome.source
        if reproducer:
            print(reproducer, file=sys.stderr)
    if report.errors:
        print(
            "DEGRADED: %d program(s) errored: %s"
            % (len(report.errors), ", ".join(o.name for o in report.errors)),
            file=sys.stderr,
        )
    return report.exit_code


def cmd_pdsc(args) -> int:
    _arm_observability(args)
    from repro.core.pdsc import result_digest, verify_source

    with open(args.file) as handle:
        source = handle.read()
    proc, result = verify_source(
        source,
        proc=args.proc,
        domain=args.domain,
        epsilon=args.epsilon,
        max_pairs=args.max_pairs,
        max_refinements=args.max_refinements,
        deadline=args.deadline,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "proc": proc,
                    "digest": result_digest(proc, result),
                    **result.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("%s:" % proc)
        print(result.render())
    if result.verified:
        return 0
    return EXIT_DEGRADED if result.exhausted else EXIT_UNKNOWN


def cmd_leakage(args) -> int:
    _arm_observability(args)
    from repro.leakage.job import leakage_source, result_digest

    with open(args.file) as handle:
        source = handle.read()
    models = ("instr", "cache") if args.model == "both" else (args.model,)
    records = []
    all_ct = True
    any_unknown = False
    for model in models:
        proc, report, consttime = leakage_source(
            source,
            proc=args.proc,
            domain=args.domain,
            slack=args.slack,
            cost_model=model,
            max_bits=args.max_bits,
            max_input=args.max_input,
            deadline=args.deadline,
        )
        records.append(
            {
                "proc": proc,
                "cost_model": model,
                "digest": result_digest(proc, report, consttime),
                "leakage": report.to_dict(),
                "consttime": consttime.to_dict(),
            }
        )
        all_ct = all_ct and consttime.constant_time
        any_unknown = any_unknown or report.cells is None
        if not args.json:
            print(report.render())
            print(consttime.render())
    if args.json:
        print(json.dumps(records if len(records) > 1 else records[0],
                         indent=2, sort_keys=True))
    if any_unknown:
        return EXIT_UNKNOWN
    return 0 if all_ct else EXIT_ATTACK


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.aio import AsyncAnalysisDaemon

    daemon = AsyncAnalysisDaemon(
        args.address,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        cache_dir=args.cache_dir,
        isolation=args.isolation,
        max_pending=args.max_pending,
        shard_inflight=args.shard_inflight,
        rate=args.rate,
        burst=args.burst,
        default_deadline=args.deadline,
        task_timeout=args.task_timeout,
    )

    async def _serve() -> None:
        await daemon.start()
        print(
            "serving on %s (%d shard(s) x %d worker(s), %s isolation)"
            % (
                daemon.address,
                daemon.shards.count,
                args.workers_per_shard,
                daemon.isolation,
            ),
            flush=True,
        )
        await daemon.serve_forever()  # SIGTERM/SIGINT drain gracefully

    asyncio.run(_serve())
    return 0


def cmd_loadgen(args) -> int:
    from repro.service.loadgen import LoadgenConfig, run_loadgen, write_report

    config = LoadgenConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        isolation=args.isolation,
        generated=args.generated,
        seed=args.seed,
        connect=args.connect,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        shard_inflight=args.shard_inflight,
        rate=args.rate,
        faults=args.faults,
        restart_after=args.restart_after,
        deadline=args.deadline,
    )
    report = run_loadgen(config)
    if args.report:
        write_report(report, args.report)
    latency = report["latency_seconds"]
    print(
        "loadgen: %d client(s) x %d request(s) -> %d done, %d failed, "
        "%d lost in %.2fs (%.1f req/s)"
        % (
            args.clients,
            args.requests,
            report["requests_done"],
            report["requests_failed"],
            report["requests_lost"],
            report["elapsed_seconds"],
            report["throughput_rps"],
        )
    )
    print(
        "latency: p50=%s p99=%s max=%s (histogram p50=%s p99=%s)"
        % tuple(
            "%.3fs" % latency[k] if latency[k] is not None else "-"
            for k in ("p50", "p99", "max", "histogram_p50", "histogram_p99")
        )
    )
    if report["restarts"]:
        print("restarts: %d (graceful drain mid-run)" % report["restarts"])
    if report["faults"]:
        print("fault plan: %s" % report["faults"])
    for violation in report["violations"]:
        print("VIOLATION: %s" % violation, file=sys.stderr)
    return 0 if report["ok"] else 1


def cmd_submit(args) -> int:
    from repro.service import ServiceClient

    with ServiceClient(args.connect, timeout=args.timeout) as client:
        response = client.submit(
            open(args.file).read(),
            proc=args.proc,
            wait=not args.no_wait,
            domain=args.domain,
            observer=args.observer,
            threshold=args.threshold,
            max_input=args.max_input,
            max_bits=args.max_bits,
            deadline=args.deadline,
            max_refinements=args.max_refinements,
            max_steps=args.max_steps,
        )
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    if response.get("state") == "failed":
        print(
            "job %s failed: %s"
            % (response.get("job", "?"), response.get("error", "unknown error")),
            file=sys.stderr,
        )
        return 1
    result = response.get("result")
    if result is None:  # --no-wait (or wait timed out): job is in flight
        if not args.json:
            print("%s %s" % (response.get("job", "?"), response.get("state")))
        return 0
    if not args.json:
        print(
            "%s: %s%s  [digest %s%s]"
            % (
                result.get("proc"),
                result.get("status", "?").upper(),
                " (degraded)" if result.get("degraded") else "",
                str(result.get("digest", ""))[:12],
                ", cached: %s" % response["cached"] if response.get("cached") else "",
            )
        )
    return _verdict_exit(result.get("status", "unknown"), bool(result.get("degraded")))


def cmd_status(args) -> int:
    from repro.service import ServiceClient

    with ServiceClient(args.connect, timeout=args.timeout) as client:
        if args.shutdown:
            response = client.shutdown()
        elif args.job:
            response = client.status(args.job)
        elif args.stats:
            response = client.stats()
        else:
            response = client.status()
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    if args.shutdown:
        print("daemon stopping")
        return 0
    if args.job:
        line = "%s %s" % (response["job"], response["state"])
        if response.get("error"):
            line += " (%s)" % response["error"]
        print(line)
        return 0
    if args.stats:
        for name in sorted(response):
            if name not in ("ok", "op", "v"):
                print("%s: %s" % (name, response[name]))
        return 0
    print(
        "%s: %d shard(s), %s isolation, queue depth %d"
        % (
            response["address"],
            response["shards"],
            response["isolation"],
            response["queue_depth"],
        )
    )
    for job in response.get("jobs", []):
        line = "  %s %s proc=%s waiters=%d" % (
            job["job"],
            job["state"],
            job.get("proc"),
            job.get("waiters", 1),
        )
        if job.get("error"):
            line += " error=%s" % job["error"]
        print(line)
    return 0


def cmd_metrics(args) -> int:
    from repro.service import ServiceClient

    with ServiceClient(args.connect, timeout=args.timeout) as client:
        if args.json:
            response = client.metrics(format="json")
            print(json.dumps(response["metrics"], indent=2, sort_keys=True))
        else:
            response = client.metrics()
            sys.stdout.write(response["text"])
    return 0


_jobs_arg = count_arg("jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Blazer reproduction: timing-channel verification "
        "by quotient partitioning (PLDI 2017)",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % _version()
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr: -v for INFO, -vv for DEBUG (before the "
        "subcommand, e.g. 'repro -v table1')",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="explicit stderr log level (DEBUG, INFO, WARNING, ERROR); "
        "overrides -v",
    )
    sub = parser.add_subparsers(dest="command", required=False)

    def common(p, needs_proc=True):
        p.add_argument("file", help="source file in the repro input language")
        if needs_proc:
            p.add_argument("--proc", help="procedure to analyze")
        p.add_argument(
            "--domain", default="zone", choices=sorted(DOMAINS), help="numeric domain"
        )
        p.add_argument(
            "--max-bits", type=int, default=4096, help="assumed BigInteger width"
        )

    def analysis_flags(p):
        p.add_argument(
            "--observer",
            default="degree",
            choices=["degree", "threshold"],
            help="observer model (generic degree vs concrete threshold)",
        )
        p.add_argument("--threshold", type=int, default=25_000)
        p.add_argument(
            "--json", action="store_true", help="machine-readable JSON output"
        )
        p.add_argument(
            "--max-input", type=int, default=4096, help="assumed max input size"
        )
        p.add_argument(
            "--deadline",
            type=float,
            metavar="SECONDS",
            help="wall-clock budget; on exhaustion the verdict degrades "
            "soundly to 'unknown' (exit %d)" % EXIT_DEGRADED,
        )
        p.add_argument(
            "--max-refinements",
            type=int,
            metavar="N",
            help="refinement-iteration budget (degrades like --deadline)",
        )
        p.add_argument(
            "--max-steps",
            type=int,
            metavar="N",
            help="abstract-interpretation step budget (degrades like --deadline)",
        )

    def obs_flags(p):
        p.add_argument(
            "--obs",
            action="store_true",
            help="enable the observability layer (REPRO_OBS=1) for this run "
            "(docs/OBSERVABILITY.md)",
        )
        p.add_argument(
            "--trace",
            metavar="PATH",
            help="export trace spans as JSONL to PATH (implies --obs; "
            "worker processes append to the same file)",
        )

    analyze = sub.add_parser("analyze", help="prove TCF or synthesize an attack")
    common(analyze)
    analysis_flags(analyze)
    obs_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    pdsc = sub.add_parser(
        "pdsc",
        help="property-directed self-composition: prove the timing gap "
        "bounded by refining the copies' alignment (docs/PDSC.md)",
    )
    pdsc.add_argument("file", help="source file in the repro input language")
    pdsc.add_argument("--proc", help="procedure to verify")
    pdsc.add_argument(
        "--domain", default="zone", choices=sorted(DOMAINS), help="numeric domain"
    )
    pdsc.add_argument(
        "--epsilon",
        type=int,
        default=32,
        help="verified means |cost1 - cost2| <= epsilon at the paired "
        "exit (default: 32)",
    )
    pdsc.add_argument(
        "--max-pairs",
        type=int,
        default=4000,
        help="pair-space budget per fixpoint round (default: 4000)",
    )
    pdsc.add_argument(
        "--max-refinements",
        type=int,
        default=4,
        help="alignment refinements before the loop reports 'exhausted' "
        "(default: 4)",
    )
    pdsc.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget over the whole CEGAR loop; on exhaustion "
        "the outcome degrades soundly to 'exhausted' (exit %d)" % EXIT_DEGRADED,
    )
    pdsc.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    obs_flags(pdsc)
    pdsc.set_defaults(func=cmd_pdsc)

    leakage = sub.add_parser(
        "leakage",
        help="quantitative bits-leaked bound from the trail decomposition "
        "plus a constant-time check under a cost model (docs/LEAKAGE.md)",
    )
    leakage.add_argument("file", help="source file in the repro input language")
    leakage.add_argument("--proc", help="procedure to analyze")
    leakage.add_argument(
        "--domain", default="zone", choices=sorted(DOMAINS), help="numeric domain"
    )
    leakage.add_argument(
        "--model",
        default="instr",
        choices=("instr", "cache", "both"),
        help="cost model: uniform instruction count, cache-aware array "
        "reads, or both in sequence (default: instr)",
    )
    leakage.add_argument(
        "--slack",
        type=int,
        default=32,
        help="observer slack: timing observations closer than this are "
        "indistinguishable (default: 32)",
    )
    leakage.add_argument(
        "--max-bits",
        type=int,
        default=4096,
        help="assumed maximum bit length for the bigint externs "
        "(default: 4096)",
    )
    leakage.add_argument(
        "--max-input",
        type=int,
        default=4096,
        help="assumed maximum value for unconstrained input symbols "
        "when evaluating bound intervals (default: 4096)",
    )
    leakage.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; on exhaustion the report degrades "
        "soundly to 'unknown' (exit %d)" % EXIT_UNKNOWN,
    )
    leakage.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    obs_flags(leakage)
    leakage.set_defaults(func=cmd_leakage)

    bounds = sub.add_parser("bounds", help="symbolic running-time bounds")
    common(bounds)
    bounds.set_defaults(func=cmd_bounds)

    taint = sub.add_parser("taint", help="low/high branch classification")
    common(taint)
    taint.set_defaults(func=cmd_taint)

    disasm = sub.add_parser("disasm", help="stack-bytecode listing")
    common(disasm)
    disasm.set_defaults(func=cmd_disasm)

    run = sub.add_parser("run", help="execute concretely and time it")
    common(run)
    run.add_argument(
        "--args",
        default="",
        help='arguments as JSON, e.g. \'{"low": 3, "high": 7}\' or \'[3, 7]\'',
    )
    run.set_defaults(func=cmd_run)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--group", choices=["MicroBench", "STAC", "Literature"])
    table1.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes (0 = one per CPU; default: serial)",
    )
    table1.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a failed benchmark up to N times on the serial backend",
    )
    table1.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="per-benchmark wall-clock budget (degraded rows exit %d)"
        % EXIT_DEGRADED,
    )
    table1.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        help="hard per-benchmark timeout: a worker that produces no "
        "result in time is abandoned and the row retried",
    )
    table1.add_argument(
        "--journal",
        metavar="PATH",
        help="crash-safe JSONL journal of completed rows "
        "(default %s when --resume or --retries is given)" % DEFAULT_JOURNAL,
    )
    table1.add_argument(
        "--resume",
        action="store_true",
        help="skip benchmarks already recorded in the journal",
    )
    obs_flags(table1)
    table1.set_defaults(func=cmd_table1)

    # Kept in sync with repro.diffcheck.differ.SUBJECTS (not imported:
    # parser construction must stay lightweight).
    diff_subjects = ("blazer", "selfcomp", "consttime", "pdsc", "leakage")

    diffcheck = sub.add_parser(
        "diffcheck",
        help="differential fuzz campaign: oracle vs driver vs baselines "
        "(docs/DIFFCHECK.md)",
    )
    diffcheck.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    diffcheck.add_argument(
        "--count", type=int, default=200, help="programs to generate (default: 200)"
    )
    diffcheck.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes (0 = one per CPU; default: serial); the "
        "report is byte-identical at any job count",
    )
    diffcheck.add_argument(
        "--threshold",
        type=int,
        default=24,
        help="observer slack T: a concrete low-equal gap >= T is a leak "
        "(default: 24)",
    )
    diffcheck.add_argument(
        "--domain", default="zone", choices=sorted(DOMAINS), help="numeric domain"
    )
    diffcheck.add_argument(
        "--max-pairs",
        type=int,
        default=2500,
        help="self-composition pair-space budget per program; beyond it "
        "the baseline reports 'exhausted' instead of a verdict "
        "(default: 2500; the smoke gate uses a smaller budget)",
    )
    diffcheck.add_argument(
        "--max-refinements",
        type=int,
        default=3,
        help="pdsc alignment-refinement budget per program (default: 3)",
    )
    diffcheck.add_argument(
        "--subjects",
        default=",".join(diff_subjects),
        metavar="LIST",
        help="comma list of engines to run (any of: %s; default: all). "
        "Skipped subjects report 'skipped'; the report is byte-identical "
        "for a fixed subject set at any --jobs" % ", ".join(diff_subjects),
    )
    diffcheck.add_argument(
        "--report", metavar="PATH", help="write the canonical JSON report here"
    )
    diffcheck.add_argument(
        "--corpus",
        metavar="DIR",
        help="write shrunk reproducers of soundness bugs and attack-spec "
        "mismatches into DIR",
    )
    diffcheck.add_argument(
        "--no-shrink",
        action="store_true",
        help="record raw counterexamples without minimizing them",
    )
    diffcheck.add_argument(
        "--journal",
        metavar="PATH",
        help="crash-safe JSONL journal of completed programs "
        "(default %s when --resume is given)" % DEFAULT_DIFF_JOURNAL,
    )
    diffcheck.add_argument(
        "--resume",
        action="store_true",
        help="skip programs already recorded in the journal",
    )
    diffcheck.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        help="hard per-program timeout: a worker that produces no result "
        "in time is abandoned and the program retried serially",
    )
    obs_flags(diffcheck)
    diffcheck.set_defaults(func=cmd_diffcheck)

    serve = sub.add_parser(
        "serve", help="run the resident analysis daemon (docs/SERVICE.md)"
    )
    serve.add_argument(
        "address",
        nargs="?",
        default=DEFAULT_ADDRESS,
        help="socket to listen on: unix:/path, tcp:host:port, a bare "
        ".sock path, or host:port (default: %s; tcp port 0 picks a "
        "free port and prints it)" % DEFAULT_ADDRESS,
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache directory; verdicts and bound "
        "results stored here survive daemon restarts",
    )
    serve.add_argument(
        "--isolation",
        default="thread",
        choices=["thread", "process"],
        help="shard pools: threads (default) or crash-isolated "
        "process pools",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="default per-job wall-clock budget (jobs may override)",
    )
    serve.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        help="hard per-job timeout: a job without a result in time "
        "counts as a worker crash and is rerouted",
    )
    serve.add_argument(
        "--shards",
        type=count_arg("shards", allow_zero=False),
        default=1,
        help="worker shards (default: 1)",
    )
    serve.add_argument(
        "--workers-per-shard",
        type=count_arg("workers-per-shard", allow_zero=False),
        default=1,
        help="pool workers per shard (default: 1)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="unsettled-job ceiling before submissions are shed with "
        "'overloaded' (default: 256)",
    )
    serve.add_argument(
        "--shard-inflight",
        type=int,
        default=64,
        help="per-shard unsettled-job bound (backpressure; default: 64)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        metavar="PER_SECOND",
        help="per-connection submission rate limit (token bucket)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        metavar="TOKENS",
        help="token-bucket burst size for --rate (default: max(1, rate))",
    )
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay mixed analysis traffic against the async tier and "
        "audit it for lost or wrongly-settled jobs (docs/SERVICE.md)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=1000, help="concurrent clients (default: 1000)"
    )
    loadgen.add_argument(
        "--requests",
        type=int,
        default=4,
        help="requests per client (default: 4)",
    )
    loadgen.add_argument(
        "--shards", type=int, default=2, help="shards for the in-process daemon"
    )
    loadgen.add_argument(
        "--workers-per-shard", type=int, default=1, help="workers per shard"
    )
    loadgen.add_argument(
        "--isolation",
        default="thread",
        choices=["thread", "process"],
        help="shard isolation (crash faults need 'process')",
    )
    loadgen.add_argument(
        "--generated",
        type=int,
        default=12,
        help="diffcheck-generated programs in the mix (default: 12)",
    )
    loadgen.add_argument("--seed", type=int, default=20260808)
    loadgen.add_argument(
        "--connect",
        metavar="ADDRESS",
        help="target a running daemon instead of booting one in-process",
    )
    loadgen.add_argument(
        "--cache-dir", metavar="DIR", help="cache dir for the in-process daemon"
    )
    loadgen.add_argument("--max-pending", type=int, default=256)
    loadgen.add_argument("--shard-inflight", type=int, default=64)
    loadgen.add_argument(
        "--rate", type=float, metavar="PER_SECOND", help="per-connection rate limit"
    )
    loadgen.add_argument(
        "--faults",
        metavar="SPEC",
        help="REPRO_FAULTS chaos plan active during the load phase "
        "(e.g. 'worker.run:crash@1,worker.run:delay=0.2@5')",
    )
    loadgen.add_argument(
        "--restart-after",
        type=int,
        metavar="N",
        help="drain the daemon gracefully after N settled requests and "
        "boot a fresh one on the same address (rolling restart)",
    )
    loadgen.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        help="harness wall ceiling; requests beyond it count as LOST "
        "(default: 120)",
    )
    loadgen.add_argument(
        "--report", metavar="PATH", help="write the JSON audit report here"
    )
    loadgen.set_defaults(func=cmd_loadgen)

    submit = sub.add_parser(
        "submit", help="send one analysis job to a running daemon"
    )
    common(submit)
    analysis_flags(submit)
    submit.add_argument(
        "--connect",
        default=DEFAULT_ADDRESS,
        metavar="ADDRESS",
        help="daemon address (default: %s)" % DEFAULT_ADDRESS,
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="enqueue and return immediately instead of waiting for the verdict",
    )
    submit.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="socket timeout"
    )
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="inspect (or stop) a running analysis daemon"
    )
    status.add_argument(
        "--connect",
        default=DEFAULT_ADDRESS,
        metavar="ADDRESS",
        help="daemon address (default: %s)" % DEFAULT_ADDRESS,
    )
    status.add_argument("--job", metavar="ID", help="show one job instead")
    status.add_argument(
        "--stats", action="store_true", help="show daemon counters instead"
    )
    status.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to stop"
    )
    status.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    status.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="socket timeout"
    )
    status.set_defaults(func=cmd_status)

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running daemon's metrics (docs/OBSERVABILITY.md)",
    )
    metrics.add_argument(
        "--connect",
        default=DEFAULT_ADDRESS,
        metavar="ADDRESS",
        help="daemon address (default: %s)" % DEFAULT_ADDRESS,
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="JSON snapshot instead of Prometheus text exposition",
    )
    metrics.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="socket timeout"
    )
    metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose or args.log_level:
        configure_logging(args.verbose, args.log_level)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SuiteInterrupted as exc:
        print("interrupted: %s" % exc, file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
