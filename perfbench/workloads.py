"""The three workloads: seeded inputs, a closed timed loop, references
computed outside the timed window, and the checks against them.

A run is split across several fresh processes (``run.py`` spawns them
one after another), because the time one input takes differs from
process to process: single Table-1 programs took up to 40% longer in one
process than in the next.  Each process runs a fixed number of
*rounds*: one fixed list of requests (a seeded permutation of the
workload's inputs).  Whole rounds make every share (decided, correct,
failed, executed) a function of the inputs alone, and every process
analyzes the same inputs, which is what the digest self-check compares.

``table1`` and ``scaled`` analyze in the benchmark process, serially and
cold.  ``service`` drives an in-process ``AsyncAnalysisDaemon`` (one
shard, process workers, in-memory result store) over TCP on localhost.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import random
import re
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracing
from repro.benchsuite import FULL_SUITE
from repro.benchsuite.registry import micro_observer, realworld_observer
from repro.bytecode import compile_program
from repro.core.blazer import Blazer, BlazerConfig, analyze_job
from repro.core.observer import effective_slack
from repro.core.report import verdict_digest
from repro.diffcheck.differ import DiffConfig
from repro.diffcheck.generator import PROC_NAME, GeneratorConfig, generate_program
from repro.diffcheck.oracle import TimingOracle, exact_leakage, observer_slack
from repro.domains import dbm
from repro.interp.interp import Interpreter
from repro.ir import lift_module
from repro.lang import frontend
from repro.lang.parser import parse_program
from repro.leakage import analysis as leakage  # patched by name when traced
from repro.leakage.job import leakage_job
from repro.leakage.model import extern_env
from repro.perf import runtime
from repro.service.aio import AsyncAnalysisDaemon
from repro.service.aioclient import AsyncServiceClient
from repro.util.errors import ServiceError

# A run's length is set in work, not in time: each process runs a fixed
# number of rounds, its share of ``--seconds`` over the workload's
# nominal round time on the reference machine (2 cores).  Identical work
# in every run keeps long-lived state (the service's workers) identical,
# and no run is cut short or doubled by where a round boundary falls.
ROUND_S = {"table1": 2.2, "scaled": 8.0, "service": 2.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


# scaled: a pinned generator draw, which the workload seed permutes.  A
# fresh 40-program draw per seed moved a run's cost by 2x, and even
# renaming locals moved single programs by 15% (names set the order in
# which the analysis visits variables), so the seed changes order only.
# With 45 programs p50 and p90 fall inside a cluster of programs of like
# cost; with 35, p50 sat at a 2x gap between two programs and moved 25%.
SCALED_GENERATOR = {"max_stmts": 6, "max_depth": 2, "max_loops": 2}
SCALED_CORPUS_SEED = 0
SCALED_PROGRAMS = 45

# service: each connection submits a new job and then resubmits it this
# many times, so the stated first-submission share is 1 / (1 + RESUBMITS).
SERVICE_RESUBMITS = 3
# Caps on every analyze job: far above what any Table-1 program needs
# (none trips), but their presence sends the job down the budgeted path.
SERVICE_CAPS = {"max_steps": 1_000_000, "max_refinements": 1_000}


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


@dataclass
class Request:
    """One timed request: what to run, and what its answer must be."""

    key: str  # input identity, stable across rounds
    run: Callable[[], "Answer"]
    expect: Optional[str] = None  # the known answer, when one exists


@dataclass
class Answer:
    status: str
    digest: str
    facts: Dict[str, Any] = field(default_factory=dict)  # for the checks
    layers: Dict[str, float] = field(default_factory=dict)  # per-layer sums


@dataclass
class Record:
    key: str
    round: int
    seconds: float
    status: str = "error"
    digest: str = ""
    correct: bool = False
    failure: str = ""  # non-empty = failed (raised, refused, lost, unsound)
    facts: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.status in ("safe", "attack")


@dataclass
class Window:
    """The outcome of one timed window."""

    records: List[Record]
    wall: float
    rounds: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Window":
        records = [Record(**r) for r in data["records"]]
        return Window(records, data["wall"], data["rounds"], data["extra"])


def p90(values: List[float]) -> float:
    """The 90th percentile, linearly interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- in-process workloads ------------------------------------------------------


def run_serial(
    make_round: Callable[[int], List[Request]],
    rounds: int,
    tracer: Optional[tracing.Tracer] = None,
) -> Window:
    """The closed loop of ``table1``/``scaled``: one request at a time.
    Before each request the process is made cold, as a fresh ``repro
    analyze`` would be: memo tables and interned DBM rows cleared,
    garbage collected.  That reset is not part of the window."""
    records: List[Record] = []
    reset = 0.0  # between-request reset time, outside the window
    started = time.perf_counter()
    for number in range(rounds):
        for request in make_round(number):
            began = time.perf_counter()
            runtime.clear_caches()
            dbm.clear_interned()
            gc.collect()
            record = Record(key=request.key, round=number, seconds=0.0)
            ended = time.perf_counter()
            reset += ended - began
            began = ended
            try:
                if tracer is None:
                    answer = request.run()
                else:
                    answer = tracer.request(
                        "%s#%d" % (request.key, number), request.run
                    )
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                record.seconds = time.perf_counter() - began
                record.failure = "raised %s: %s" % (type(exc).__name__, exc)
            else:
                record.seconds = time.perf_counter() - began
                record.status = answer.status
                record.digest = answer.digest
                record.facts = answer.facts
                record.layers = answer.layers
            record.correct = request.expect is not None and record.status == request.expect
            records.append(record)
    wall = time.perf_counter() - started - reset
    return Window(records, wall, rounds, {"rss_mb": peak_rss_mb(resource.RUSAGE_SELF)})


def layer_facts(
    safety_s: float,
    attack_s: float,
    leaves: int,
    degraded_leaves: int,
    categories: Dict[str, Tuple[int, int]],
) -> Dict[str, float]:
    """The per-layer facts a verdict carries itself (``categories`` is
    its cache ``(hits, misses)`` per category)."""
    facts = {
        "core.safety_s": safety_s,
        "core.attack_s": attack_s,
        "trails.leaves": leaves,
        "resilience.degraded_leaves": degraded_leaves,
        "perf.hits": sum(h for h, _ in categories.values()),
        "perf.lookups": sum(h + m for h, m in categories.values()),
    }
    for name, category in (("refine_reuse", "refine.reuse"), ("bound_shared", "bound.shared")):
        hits, misses = categories.get(category, (0, 0))
        facts["perf.%s.hits" % name] = hits
        facts["perf.%s.lookups" % name] = hits + misses
    return facts


def verdict_layers(verdict) -> Dict[str, float]:
    return layer_facts(
        verdict.safety_seconds,
        verdict.attack_seconds,
        len(verdict.tree.leaves()),
        verdict.degraded_leaves,
        verdict.cache_stats,
    )


class Table1:
    """The registry programs, each analyzed cold, serially, unbudgeted."""

    def __init__(self, seed: int):
        self.seed = seed
        self.benches = list(FULL_SUITE)

    def make_round(self, number: int) -> List[Request]:
        order = list(self.benches)
        random.Random("%d/%d" % (self.seed, number)).shuffle(order)
        return [
            Request(key=b.name, run=lambda b=b: self._verdict(b), expect=b.expect)
            for b in order
        ]

    @staticmethod
    def _verdict(bench) -> Answer:
        verdict = Blazer.from_source(bench.source, bench.config()).analyze(bench.proc)
        facts: Dict[str, Any] = {}
        if verdict.status == "attack":
            report = leakage.leakage_from_verdict(
                verdict,
                observer_slack(bench.observer_factory()),
                domains={k: tuple(v) for k, v in (bench.witness_space or {}).items()},
            )
            facts["cells"] = report.cells
        return Answer(verdict.status, verdict_digest(verdict), facts, verdict_layers(verdict))

    def check(self, windows: List[Window]) -> List[str]:
        bench = {b.name: b for b in self.benches}
        for record in (r for w in windows for r in w.records):
            if record.failure:
                continue
            expect = bench[record.key].expect
            cells = record.facts.get("cells")
            if record.status == "safe" and expect == "attack":
                record.failure = "unsound: safe on a leaky program"
            elif record.status == "attack" and cells is not None and cells < 2:
                record.failure = "unsound: a %d-cell leakage bound on a leaky program" % cells
        return []


def rename_locals(source: str, names: List[str], tag: str) -> str:
    """``source`` with every listed identifier suffixed by ``tag``."""
    if not names:
        return source
    pattern = re.compile(r"\b(%s)\b" % "|".join(re.escape(n) for n in names))
    return pattern.sub(lambda m: m.group(1) + tag, source)


def local_names(source: str) -> List[str]:
    """Names declared with ``var`` that are nowhere a parameter, a
    procedure or an extern — safe to rename textually."""
    program = parse_program(source)
    reserved = set()
    for proc in program.procs:
        reserved.add(proc.name)
        reserved.update(p.name for p in proc.params)
    declared = set(re.findall(r"\bvar\s+([A-Za-z_]\w*)", source))
    return sorted(declared - reserved)


class Scaled:
    """A pinned draw of generated programs, larger than the default
    generator config, analyzed unbudgeted and checked by the oracle."""

    def __init__(self, seed: int):
        self.seed = seed
        config = GeneratorConfig(**SCALED_GENERATOR)
        self.programs: Dict[str, Any] = {}
        for index in range(SCALED_PROGRAMS):
            program = generate_program(SCALED_CORPUS_SEED, index, config)
            self.programs[program.name] = (program.source, program.domain_map)

    def make_round(self, number: int) -> List[Request]:
        names = sorted(self.programs)
        random.Random("%d/%d" % (self.seed, number)).shuffle(names)
        return [
            Request(key=n, run=lambda n=n: self._verdict(*self.programs[n]))
            for n in names
        ]

    @staticmethod
    def _verdict(source: str, domains) -> Answer:
        diff = DiffConfig()
        model = extern_env(source)
        config = BlazerConfig(
            domain=diff.domain,
            observer=diff.observer(domains),
            summaries=model.summaries,
        )
        verdict = Blazer.from_source(source, config).analyze(PROC_NAME)
        report = leakage.leakage_from_verdict(
            verdict,
            effective_slack(diff.threshold),
            domains=domains,
            cost_model=model.name,
        )
        return Answer(
            verdict.status,
            verdict_digest(verdict),
            {"cells": report.cells},
            verdict_layers(verdict),
        )

    def references(self) -> Dict[str, Tuple[bool, int]]:
        """``(leaky, exact cells)`` per program from the timing oracle."""
        diff = DiffConfig()
        out = {}
        for name, (source, domains) in self.programs.items():
            cfgs = lift_module(compile_program(frontend(source)))
            interpreter = Interpreter(
                cfgs, externs=extern_env(source).externs, fuel=diff.fuel
            )
            oracle = TimingOracle(
                interpreter,
                cfgs[PROC_NAME],
                domains,
                slack=diff.threshold,
                limit=diff.oracle_limit,
            )
            verdict = oracle.run()
            cells, _ = exact_leakage(oracle.trace_pool, effective_slack(diff.threshold))
            out[name] = (verdict.leaky, cells)
        return out

    def check(self, windows: List[Window]) -> List[str]:
        truth = self.references()
        for record in (r for w in windows for r in w.records):
            leaky, cells = truth[record.key]
            record.correct = (record.status == "safe" and not leaky) or (
                record.status == "attack" and leaky
            )
            if record.failure:
                continue
            if record.status == "safe" and leaky:
                record.failure = "unsound: safe on an oracle-leaky program"
            elif record.facts.get("cells") is not None and record.facts["cells"] < cells:
                record.failure = "unsound: %d cell(s) below the oracle's exact %d" % (
                    record.facts["cells"],
                    cells,
                )
        return []


# -- service -------------------------------------------------------------------


class Service:
    """``analyze`` and ``leakage`` jobs over seeded variants of the
    Table-1 programs, through the async daemon."""

    def __init__(self, seed: int):
        self.seed = seed
        # Clamped to the cores: more workers would only time-slice them.
        self.workers = nproc()
        self.connections = nproc()
        # Only programs whose observer the wire protocol can express: the
        # others' registry answer assumes per-input maxima a job cannot carry.
        knobs = {micro_observer: {}, realworld_observer: {"observer": "threshold"}}
        self.programs = [
            (b, knobs[b.observer_factory], local_names(b.source))
            for b in FULL_SUITE
            if b.observer_factory in knobs
        ]
        self.daemon = None

    # inputs

    def jobs(self, number: int) -> List[Dict[str, Any]]:
        """The distinct jobs of round ``number``: its own renaming of the
        programs' locals, so fresh fingerprints, but the same for every
        workload seed (the seed only orders the requests)."""
        tag = "_r%d" % number
        jobs = []
        for bench, knobs, names in self.programs:
            source = rename_locals(bench.source, names, tag)
            jobs.append(
                {
                    "base": bench.name,
                    "kind": "analyze",
                    "expect": bench.expect,
                    "message": dict(source=source, proc=bench.proc, **knobs, **SERVICE_CAPS),
                }
            )
            jobs.append(
                {
                    "base": bench.name,
                    "kind": "leakage",
                    "expect": None,
                    "message": dict(source=source, proc=bench.proc, kind="leakage"),
                }
            )
        return jobs

    def make_round(self, number: int) -> List[Dict[str, Any]]:
        jobs = self.jobs(number)
        random.Random("%d/%d" % (self.seed, number)).shuffle(jobs)
        return jobs

    # lifecycle

    async def boot(self) -> None:
        self.daemon = AsyncAnalysisDaemon(
            "tcp:127.0.0.1:0",
            shards=1,
            workers_per_shard=self.workers,
            isolation="process",
        )
        await self.daemon.start()
        # Spawn the worker processes now: under fork the first task
        # starts every worker of the pool.
        self.daemon.shards.prewarm()
        for shard in self.daemon.shards.shards:
            await asyncio.wrap_future(shard.executor().submit(os.getpid))

    async def shutdown(self) -> None:
        if self.daemon is not None:
            await self.daemon.stop()
            self.daemon = None
        deadline = time.monotonic() + 60.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            for child in multiprocessing.active_children():
                child.join(0.1)

    # the window

    async def window(self, rounds: int) -> Window:
        assert self.daemon is not None
        clients = [
            await AsyncServiceClient(self.daemon.address, retries=0).connect()
            for _ in range(self.connections)
        ]
        records: List[Record] = []
        before = await clients[0].stats()
        state = {"round": -1, "queue": []}
        started = time.perf_counter()

        def next_job():
            if not state["queue"]:
                if state["round"] == rounds - 1:
                    return None
                state["round"] += 1
                state["queue"] = self.make_round(state["round"])
            return state["round"], state["queue"].pop()

        async def connection(client) -> None:
            # Closed loop: submit a new job, then resubmit it; each
            # request waits for the previous one's response.
            while True:
                item = next_job()
                if item is None:
                    return
                number, job = item
                for _ in range(1 + SERVICE_RESUBMITS):
                    key = "%s:%s" % (job["kind"], job["base"])
                    record = Record(key=key, round=number, seconds=0.0)
                    began = time.perf_counter()
                    try:
                        response = await client.submit(**job["message"])
                    except ServiceError as exc:
                        record.failure = "%s: %s" % (type(exc).__name__, exc)
                        response = None
                    record.seconds = time.perf_counter() - began
                    records.append(record)
                    if response is not None:
                        self._read(record, response, job)

        await asyncio.gather(*(connection(c) for c in clients))
        wall = time.perf_counter() - started
        after = await clients[0].stats()
        for client in clients:
            await client.close()
        counters = {
            name: after[name] - before[name]
            for name in ("executed", "coalesced", "hits_memory", "hits_disk", "shed")
        }
        return Window(
            records,
            wall,
            rounds,
            {"stats": counters, "rss_mb": peak_rss_mb(resource.RUSAGE_SELF)},
        )

    @staticmethod
    def _read(record: Record, response: Dict[str, Any], job: Dict[str, Any]) -> None:
        if response.get("cached"):
            record.facts["disposition"] = "cached"
        elif response.get("coalesced"):
            record.facts["disposition"] = "coalesced"
        else:
            record.facts["disposition"] = "executed"
        if response.get("state") != "done" or not isinstance(response.get("result"), dict):
            record.failure = "job %s: %s" % (response.get("state"), response.get("error"))
            return
        result = response["result"]
        record.status = str(result.get("status"))
        record.digest = str(result.get("digest"))
        record.facts["expect"] = job["expect"]
        record.correct = job["expect"] is not None and record.status == job["expect"]
        if record.facts["disposition"] == "executed":
            for stamp in ("submitted_at", "started_at", "finished_at"):
                record.facts[stamp] = response.get(stamp)
            verdict = result.get("verdict")
            if isinstance(verdict, dict):  # analyze jobs only
                record.layers = layer_facts(
                    verdict["safety_seconds"],
                    verdict["attack_seconds"],
                    verdict["leaves"],
                    verdict["resilience"]["degraded_leaves"],
                    {
                        category: (pair["hits"], pair["misses"])
                        for category, pair in verdict["cache"]["by_category"].items()
                    },
                )
            if tracing.RESULT_KEY in result:
                record.facts["trace"] = result[tracing.RESULT_KEY]

    # references and checks

    def check(self, windows: List[Window]) -> List[str]:
        """Check every answer against in-process reference runs of the
        first round's jobs (digests do not depend on local names, so
        later rounds' variants must match them too); returns run-level
        violations: no executed work, or an executed share other than
        the stated first-submission share."""
        reference: Dict[str, Tuple[str, str]] = {}
        for job in self.jobs(0):
            run = leakage_job if job["kind"] == "leakage" else analyze_job
            result = run(dict(job["message"]))
            reference["%s:%s" % (job["kind"], job["base"])] = (
                str(result["status"]),
                str(result["digest"]),
            )
        violations = []
        share = 1.0 / (1 + SERVICE_RESUBMITS)
        for window in windows:
            for record in window.records:
                status, digest = reference[record.key]
                if record.key.startswith("leakage:"):
                    record.correct = (record.status, record.digest) == (status, digest)
                if record.failure:
                    continue
                if record.status == "safe" and record.facts.get("expect") == "attack":
                    record.failure = "unsound: safe on a leaky program"
                elif record.digest != digest:
                    record.failure = "unsound: digest differs from the in-process job"
            executed = window.extra["stats"]["executed"]
            if executed == 0:
                violations.append("stats reports executed == 0")
            elif executed != round(share * len(window.records)):
                violations.append(
                    "executed %d of %d requests; stated first-submission share %.2f"
                    % (executed, len(window.records), share)
                )
        return violations
