"""Parallel benchmark-suite execution, crash-safe and budget-aware.

The heavy objects (drivers, partition trees, abstract states) never
cross a process boundary: workers receive benchmark *names*, rebuild the
driver from the registry inside the worker, and return a slim picklable
:class:`BenchResult` carrying the verdict summary plus the
content digest of :func:`repro.core.report.verdict_digest` — which is
how the caller can assert that every worker, whatever its process or
cache temperature, produced the same analysis.

Multi-benchmark process runs dispatch through the persistent warm pool
(:mod:`repro.perf.pool`): benchmarks are grouped into chunks, chunks are
fed to CPU-clamped warm workers as they free up, and the pool survives
across runner instances.  Runs with a per-task timeout (and the thread/
serial backends) keep the one-future-per-item :func:`~repro.perf.
parallel.try_map` shape.  Both paths observe the same contracts:

* failures are isolated per benchmark: a raised exception, a killed
  worker process (``BrokenProcessPool``) or a per-task timeout marks
  that benchmark failed without aborting the suite;
* failed benchmarks are retried with exponential backoff on the
  **serial in-process backend** — the most conservative substrate, and
  immune to whatever broke the pool;
* completed results are appended to an optional crash-safe JSONL
  journal as they arrive; ``resume=True`` skips every benchmark the
  journal already has, so an interrupted ``table1`` run continues where
  it stopped;
* ``KeyboardInterrupt`` (SIGINT) shuts the pool down, leaves the
  journal flushed, and surfaces as :class:`~repro.util.errors.
  SuiteInterrupted` carrying the completed prefix.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.perf import runtime
from repro.perf.parallel import resolve_jobs, try_map
from repro.perf.pool import shared_pool, warm_pool_usable
from repro.resilience import faults
from repro.resilience.budget import Budget
from repro.resilience.journal import SuiteJournal, open_journal
from repro.resilience.retry import RetryPolicy, run_with_retries
from repro.util.errors import SuiteInterrupted

log = logging.getLogger(__name__)


@dataclass
class BenchResult:
    """One benchmark's outcome, slim enough to pickle across processes."""

    name: str
    group: str
    proc: str
    expect: str
    status: str
    size: int
    leaves: int
    safety_seconds: float
    attack_seconds: float
    wall_seconds: float
    cache_hits: int
    cache_misses: int
    cache_stats: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # Per-phase wall seconds from the driver (taint / bounds / refine /
    # attack / total; docs/OBSERVABILITY.md).  Volatile like the other
    # timings: excluded from content digests.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    # Resilience observability (satellite of docs/RESILIENCE.md): how
    # many retries this row consumed, how many cache entries were
    # quarantined, how many partition leaves degraded to ⊤, and the
    # degradation report when the verdict was forced to "unknown".
    # All volatile — excluded from content digests like the cache
    # counters.
    retries: int = 0
    quarantined: int = 0
    degraded_leaves: int = 0
    degradation: Optional[Dict[str, Any]] = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status == self.expect

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "BenchResult":
        data = dict(data)
        # JSON round-trips tuples as lists; restore the declared shape.
        data["cache_stats"] = {
            cat: tuple(pair) for cat, pair in (data.get("cache_stats") or {}).items()
        }
        known = {f.name for f in dataclasses.fields(BenchResult)}
        return BenchResult(**{k: v for k, v in data.items() if k in known})


def run_benchmark(
    name: str,
    cache: Optional[bool] = None,
    deadline: Optional[float] = None,
    max_refinements: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> BenchResult:
    """Execute one registry benchmark by name (the process-pool worker).

    ``cache`` forces the perf layer on/off for the whole run (driver
    construction included); None inherits the process-wide flag.  The
    optional budget limits build a fresh :class:`Budget` inside the
    worker (budgets hold a started monotonic clock, so they must never
    travel across a process boundary pre-armed).
    """
    from repro.benchsuite import FULL_SUITE
    from repro.core.report import verdict_digest

    faults.maybe_fire("worker.run", key=name)
    bench = FULL_SUITE.get(name)
    budget: Optional[Budget] = None
    if deadline is not None or max_refinements is not None or max_steps is not None:
        budget = Budget(
            wall_seconds=deadline,
            max_refinements=max_refinements,
            max_steps=max_steps,
        )
    started = time.perf_counter()
    if cache is None:
        verdict = bench.run(budget=budget)
    else:
        with runtime.override(cache):
            verdict = bench.run(budget=budget)
    wall = time.perf_counter() - started
    return BenchResult(
        name=bench.name,
        group=bench.group,
        proc=bench.proc,
        expect=bench.expect,
        status=verdict.status,
        size=verdict.size,
        leaves=len(verdict.tree.leaves()),
        safety_seconds=verdict.safety_seconds,
        attack_seconds=verdict.attack_seconds,
        wall_seconds=wall,
        cache_hits=verdict.cache_hits,
        cache_misses=verdict.cache_misses,
        cache_stats=verdict.cache_stats,
        phase_seconds=dict(verdict.phase_seconds),
        digest=verdict_digest(verdict),
        quarantined=verdict.quarantined,
        degraded_leaves=verdict.degraded_leaves,
        degradation=(
            verdict.degradation.to_dict() if verdict.degradation is not None else None
        ),
    )


class ParallelSuiteRunner:
    """Run a set of registry benchmarks across a worker pool.

    ``backend`` is one of ``"auto"`` / ``"process"`` / ``"thread"`` /
    ``"serial"`` (see :mod:`repro.perf.parallel`); results always come
    back in input order, so output is deterministic regardless of
    completion order.

    ``retries`` re-runs each failed benchmark (exception, crashed
    worker, task timeout) up to N times on the serial in-process
    backend with exponential backoff; a benchmark that still fails
    raises :class:`WorkerCrashed`.  ``journal`` (a path) appends each
    completed result as a JSONL record; with ``resume=True`` benchmarks
    already journaled are returned from the journal instead of re-run.
    ``deadline`` (seconds) hands every worker a wall-clock
    :class:`Budget` — overruns degrade to "unknown" verdicts rather
    than hang (see :mod:`repro.core.blazer`).

    The runner is reusable for non-benchmark suites (the differential
    harness rides it for fuzz campaigns): pass ``worker`` (a picklable
    callable from item name to result) and ``codec`` (the result class,
    providing ``from_dict`` for resume and ``to_dict``/``retries``/
    ``resumed`` on instances).  The defaults reproduce the benchmark
    behavior exactly.
    """

    def __init__(
        self,
        benchmarks: Optional[Sequence] = None,
        jobs: Optional[int] = 1,
        backend: str = "auto",
        cache: Optional[bool] = None,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        journal: Optional[str] = None,
        resume: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        worker=None,
        codec=None,
        warm: Optional[bool] = None,
    ):
        if benchmarks is None:
            from repro.benchsuite import ALL_BENCHMARKS

            benchmarks = ALL_BENCHMARKS
        if retries < 0:
            raise ValueError("retries must be >= 0, got %d" % retries)
        self._names = [b.name if hasattr(b, "name") else str(b) for b in benchmarks]
        self._jobs = resolve_jobs(jobs)
        self._backend = backend
        self._cache = cache
        self._task_timeout = task_timeout
        self._deadline = deadline
        self._journal: Optional[SuiteJournal] = open_journal(journal)
        self._resume = resume
        self._policy = retry_policy or RetryPolicy(retries=retries)
        self._worker = worker
        self._codec = codec or BenchResult
        self._warm = warm
        # Observability for callers (the CLI, bench_perf): retry count
        # per benchmark name, and how many rows came from the journal.
        self.retry_counts: Dict[str, int] = {}
        self.resumed_names: List[str] = []

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def journal_path(self) -> Optional[str]:
        return self._journal.path if self._journal is not None else None

    # -- journal helpers ---------------------------------------------------

    def _record(self, result: BenchResult) -> None:
        if self._journal is not None:
            self._journal.record_result(result.name, result.to_dict())

    def _load_resumable(self) -> Dict[str, BenchResult]:
        if not self._resume or self._journal is None:
            return {}
        out: Dict[str, BenchResult] = {}
        for name, record in self._journal.load().items():
            try:
                result = self._codec.from_dict(record["result"])
            except (KeyError, TypeError):
                continue
            result.resumed = True
            out[name] = result
        return out

    # -- execution ---------------------------------------------------------

    def _use_warm_pool(self, pending: Sequence[str]) -> bool:
        """Route this run through the persistent warm pool?

        The warm pool (:mod:`repro.perf.pool`) is the fast path for
        multi-benchmark process runs: chunked dispatch amortizes the
        per-task round-trip, the pool itself survives across runs, and
        the worker count is clamped to the machine (``--jobs 4`` on one
        core stops oversubscribing).  ``warm=False`` opts out;
        ``task_timeout`` forces the per-task-future shape of
        :func:`try_map` (a chunk cannot time out item-by-item), as do
        the thread/serial backends.  Failure semantics are unchanged
        either way: per-item result-or-exception, ``WorkerCrashed`` on
        a dead pool, journal hook in input order.
        """
        if self._warm is False:
            return False
        if self._task_timeout is not None:
            return False
        if self._jobs <= 1 or len(pending) <= 1:
            return False
        if self._backend not in ("auto", "process"):
            return False
        return warm_pool_usable()

    def run(self) -> List[BenchResult]:
        worker = self._worker
        if worker is None:
            worker = partial(
                run_benchmark, cache=self._cache, deadline=self._deadline
            )
        completed: Dict[str, BenchResult] = self._load_resumable()
        self.resumed_names = [n for n in self._names if n in completed]
        pending = [n for n in self._names if n not in completed]

        def journal_hook(index: int, outcome: Union[BenchResult, Exception]) -> None:
            if not isinstance(outcome, Exception):
                completed[pending[index]] = outcome
                self._record(outcome)

        try:
            if self._use_warm_pool(pending):
                outcomes = shared_pool(self._jobs).map_chunked(
                    worker, pending, on_result=journal_hook
                )
            else:
                outcomes = try_map(
                    worker,
                    pending,
                    jobs=self._jobs,
                    backend=self._backend,
                    task_timeout=self._task_timeout,
                    on_result=journal_hook,
                )
        except KeyboardInterrupt as exc:
            raise SuiteInterrupted(
                "suite interrupted with %d/%d benchmark(s) completed"
                % (len(completed), len(self._names)),
                completed=list(completed.values()),
            ) from exc

        failed: List[Tuple[str, Exception]] = []
        for name, outcome in zip(pending, outcomes):
            if not isinstance(outcome, Exception):
                completed[name] = outcome
            else:
                failed.append((name, outcome))

        for name, first_error in failed:
            completed[name] = self._retry(worker, name, first_error, completed)

        return [completed[name] for name in self._names]

    def _retry(
        self,
        worker,
        name: str,
        first_error: Exception,
        completed: Dict[str, BenchResult],
    ) -> BenchResult:
        """Re-run one failed benchmark serially, with backoff.

        The retry loop itself lives in :func:`repro.resilience.retry.
        run_with_retries`; this wrapper adds the suite bookkeeping: journal record, retry
        counters, and interrupt-with-completed-prefix semantics.
        """
        try:
            result, attempts = run_with_retries(
                worker,
                name,
                self._policy,
                first_error,
                label="benchmark %s" % name,
            )
        except KeyboardInterrupt as exc:
            raise SuiteInterrupted(
                "suite interrupted during retry of %s" % name,
                completed=list(completed.values()),
            ) from exc
        result.retries = attempts
        self.retry_counts[name] = attempts
        self._record(result)
        return result
