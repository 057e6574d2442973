"""Worker-pool fan-out helpers shared by the bench suite and the service.

Three backends behind one function, in degradation order:

* ``"process"`` — :class:`concurrent.futures.ProcessPoolExecutor`; the
  only backend that buys wall-clock parallelism on CPython.  Requires
  the work function and its arguments to be picklable and importable
  from the worker (module-level functions only).
* ``"thread"`` — :class:`~concurrent.futures.ThreadPoolExecutor`; the
  automatic fallback on platforms where process pools are unavailable
  (no ``fork``, restricted sandboxes).
* ``"serial"`` — a plain loop; always works, chosen whenever
  ``jobs <= 1``.

Results are always returned **in input order** regardless of backend or
completion order, so callers stay deterministic.

:func:`try_map` is fault-isolating: each slot independently holds the
item's result *or* the exception it raised, worker crashes surface as
:class:`~repro.util.errors.WorkerCrashed` and per-task timeouts as
:class:`~repro.util.errors.ResourceExhausted`, so one bad task never
takes down the suite.  This is what the resilient benchmark runner
builds its retry logic on (docs/RESILIENCE.md).
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.util.errors import ResourceExhausted, WorkerCrashed

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

BACKENDS = ("auto", "process", "thread", "serial")


def default_jobs() -> int:
    """A sensible worker count for this machine (respects affinity)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 → machine default.

    Negative values are a configuration error, not a request for the
    minimum — reject them loudly instead of silently clamping.
    """
    if jobs is None or jobs == 0:
        return default_jobs()
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(
            "jobs must be >= 0 (0 = one per CPU), got %d" % jobs
        )
    return jobs


def process_pool_usable() -> bool:
    """Can this platform actually run a process pool?

    Rejection is logged (never silently swallowed) so a run that quietly
    degraded to threads can be diagnosed from the logs.
    """
    try:
        import multiprocessing

        usable = len(multiprocessing.get_all_start_methods()) > 0
    except (ImportError, OSError, NotImplementedError) as exc:
        # ImportError: _multiprocessing extension absent (minimal
        # builds); OSError: no /dev/shm or fork rejected by the sandbox;
        # NotImplementedError: platform has no start method at all.
        log.warning("process pool backend unavailable: %s", exc)
        return False
    if not usable:  # pragma: no cover - empty start-method list
        log.warning(
            "process pool backend unavailable: no multiprocessing start methods"
        )
    return usable


# -- fault-isolating collection ---------------------------------------------


def collect_outcome(
    future,
    index: int = 0,
    label: str = "",
    task_timeout: Optional[float] = None,
):
    """Await one pool future with :func:`try_map`'s failure mapping.

    Returns ``(outcome, timed_out)`` where ``outcome`` is the result or
    the mapped exception instance (``BrokenExecutor`` →
    :class:`WorkerCrashed`, timeout → :class:`ResourceExhausted` of kind
    ``"task_timeout"``) and ``timed_out`` says the worker never
    answered — its pool can only be abandoned, not joined.
    ``KeyboardInterrupt`` propagates.  :func:`try_map` collects every
    slot through it, so one task's crash is one task's failure.
    """
    try:
        return future.result(timeout=task_timeout), False
    except FutureTimeoutError:
        future.cancel()
        return (
            ResourceExhausted(
                "task %s produced no result within %.6gs"
                % (label or index, task_timeout or 0.0),
                kind="task_timeout",
                site="worker.run",
                elapsed=task_timeout or 0.0,
            ),
            True,
        )
    except BrokenExecutor as exc:
        return (
            WorkerCrashed(
                "worker pool broke while running task %s: %s"
                % (label or index, exc),
                task=str(label or index),
            ),
            False,
        )
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        return exc, False


def try_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    backend: str = "auto",
    task_timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, Union[R, Exception]], None]] = None,
) -> List[Union[R, Exception]]:
    """Apply ``fn`` to every item across ``jobs`` workers; each slot
    holds the item's result *or* the exception it raised — the
    suite-level primitive that makes one crashing task a per-item
    outcome instead of a run-wide abort.  ``backend="auto"`` picks
    ``process`` when possible and degrades to ``thread``.

    Failure mapping (always in input order):

    * an exception from ``fn`` → that exception instance;
    * a dead worker process (``BrokenExecutor``) →
      :class:`WorkerCrashed`; the pool is broken, so every still-pending
      item collects its own :class:`WorkerCrashed` immediately;
    * ``task_timeout`` seconds without a result →
      :class:`ResourceExhausted` (kind ``"task_timeout"``); the pool is
      then abandoned without waiting (a truly hung worker cannot be
      joined).

    ``on_result(index, outcome)`` is invoked as each slot settles, in
    input order — the journal hook: results are durable before the next
    collection step.  ``KeyboardInterrupt`` is never captured: the pool
    is shut down (without waiting) and the interrupt propagates so the
    caller can flush state and exit with a distinct code.
    """
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r (expected one of %s)" % (backend, BACKENDS))
    items = list(items)

    def settle(index: int, outcome):
        if on_result is not None:
            on_result(index, outcome)
        return outcome

    if jobs <= 1 or len(items) <= 1 or backend == "serial":
        out: List[Union[R, Exception]] = []
        for i, item in enumerate(items):
            try:
                outcome: Union[R, Exception] = fn(item)
            except Exception as exc:
                outcome = exc
            out.append(settle(i, outcome))
        return out

    workers = min(jobs, len(items))
    use_process = backend in ("auto", "process") and process_pool_usable()
    if use_process:
        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = ThreadPoolExecutor(max_workers=workers)

    results: List[Union[R, Exception]] = [None] * len(items)  # type: ignore[list-item]
    hung = False
    try:
        futures = [pool.submit(fn, item) for item in items]
        for i, future in enumerate(futures):
            outcome, timed_out = collect_outcome(
                future, index=i, label=str(items[i]), task_timeout=task_timeout
            )
            hung = hung or timed_out
            results[i] = settle(i, outcome)
    except KeyboardInterrupt:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        # A hung worker can never be joined; abandon it instead of
        # deadlocking in shutdown (the zombie dies with the parent).
        pool.shutdown(wait=not hung, cancel_futures=True)
    return results
