"""The analysis service: one event loop in front of sharded pools.

``repro serve`` boots :class:`AsyncAnalysisDaemon`::

    asyncio server ──▶ per-connection reader ──▶ admission gates
                                                   │ admitted
    ResultStore (memory ▸ disk) ◀── settle ◀── shard pools (N × workers)

Clients speak the NDJSON protocol of :mod:`repro.service.protocol`;
identical in-flight submissions coalesce onto one job by content
fingerprint (:func:`repro.service.jobs.job_key`), and a blocking
:class:`~repro.service.client.ServiceClient` works as well as the
pipelining :class:`~repro.service.aioclient.AsyncServiceClient`.  The
failure behavior:

* **Pipelining.**  Requests carrying an ``id`` are handled concurrently
  and answered out of order (the response echoes the id); requests
  without one keep the strictly-ordered contract the blocking client
  relies on.
* **Admission control at the door.**  A queue-depth gate
  (:class:`~repro.service.admission.AdmissionController`) sheds work
  with an explicit ``overloaded`` + ``retry_after`` answer before it
  costs a fingerprint, and a per-connection
  :class:`~repro.service.admission.TokenBucket` stops one chatty client
  from monopolizing the gate.
* **Bounded backpressure.**  Each shard accepts at most
  ``shard_inflight`` unsettled jobs; beyond that the submission is shed,
  so a burst cannot build an unbounded promise queue between the
  acceptor and the workers.
* **Quarantine.**  Worker *crashes* count against the owning shard's
  circuit breaker (:mod:`repro.service.shard`); a tripped shard's
  fingerprint range reroutes to its neighbors while the pool rebuilds in
  a background task, and crashed jobs are re-run on a healthy shard —
  a crash costs latency, never a lost job.  A job that *raises* fails
  once and is not cached, so a resubmission runs it fresh.
* **Graceful drain.**  SIGTERM (or the ``drain``/``shutdown`` verbs)
  stops accepting, lets in-flight jobs settle, flushes the responses and
  the disk tier, then exits — the rolling-restart contract
  (docs/SERVICE.md runbook).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.obs import exporters as obs_exporters
from repro.obs.metrics import Family, MetricsRegistry, REGISTRY as GLOBAL_REGISTRY
from repro.service import protocol
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.jobs import SETTLED_RETENTION, fingerprint_job, intake_payload
from repro.service.shard import Shard, ShardManager
from repro.service.store import ResultStore
from repro.util.errors import ProtocolError, ReproError, WorkerCrashed

log = logging.getLogger(__name__)

# Default ceiling on unsettled jobs daemon-wide before the admission
# gate sheds; sized for "burst of distinct programs", not connections —
# coalesced and cache-hit submissions never count against it.
MAX_PENDING = 256

# Default per-shard unsettled-job bound (the acceptor→shard backpressure).
SHARD_INFLIGHT = 64

# Seconds stop() waits for in-flight jobs to settle before tearing down.
DRAIN_TIMEOUT = 30.0

# Distinct (source, proc, knobs) fingerprints memoized; load traffic
# replays a small program set, so this converts the dominant submit cost
# (compile + hash) into a dict hit.
FINGERPRINT_CACHE = 512

# The persistent tiers under ``cache_dir`` (docs/SERVICE.md).
VERDICTS_FILE = "verdicts.jsonl"
BOUNDS_FILE = "bounds.jsonl"

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServiceStats:
    """Monotonic daemon counters (one lock, snapshot on read)."""

    FIELDS = (
        "submitted",
        "coalesced",
        "hits_memory",
        "hits_disk",
        "executed",
        "completed",
        "failed",
        "degraded",
        "retried",
        "rejected",
        "connections",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self.FIELDS}
        # Monotonic, like every other duration in the codebase: uptime
        # must not jump when the wall clock is stepped by NTP.
        self.started_at = time.monotonic()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


@dataclass
class AsyncJob:
    """One in-flight analysis on the event loop (loop-confined state)."""

    id: str
    key: str
    payload: Dict[str, Any]
    shard: Optional[int] = None
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    waiters: int = 1
    done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def settled(self) -> bool:
        return self.state in ("done", "failed")

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job": self.id,
            "key": self.key,
            "state": self.state,
            "proc": self.payload.get("proc"),
            "waiters": self.waiters,
            "attempts": self.attempts,
            "submitted_at": round(self.submitted_at, 6),
        }
        if self.shard is not None:
            out["shard"] = self.shard
        if self.started_at is not None:
            out["started_at"] = round(self.started_at, 6)
        if self.finished_at is not None:
            out["finished_at"] = round(self.finished_at, 6)
        if self.error is not None:
            out["error"] = self.error
        return out


class AsyncAnalysisDaemon:
    """The sharded asyncio daemon bound to one socket address.

    All mutable routing state (active jobs, shard inflight counters,
    settled retention) is touched only from the event loop — the only
    cross-thread traffic is ``concurrent.futures`` bridged with
    ``asyncio.wrap_future`` and the thread-safe stats/metrics objects.
    """

    def __init__(
        self,
        address: str,
        shards: int = 2,
        workers_per_shard: int = 1,
        cache_dir: Optional[str] = None,
        isolation: str = "process",
        max_pending: int = MAX_PENDING,
        shard_inflight: int = SHARD_INFLIGHT,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        default_deadline: Optional[float] = None,
        task_timeout: Optional[float] = None,
        crash_retries: Optional[int] = None,
        drain_timeout: float = DRAIN_TIMEOUT,
    ):
        self._requested_address = protocol.parse_address(address)
        self._bound_address: Optional[protocol.Address] = None
        self._default_deadline = default_deadline
        self._task_timeout = task_timeout
        self._drain_timeout = drain_timeout
        self._rate = rate
        self._burst = burst
        # A crashed attempt reroutes; give it enough lives to walk past
        # every quarantined shard plus the probe.
        self._crash_retries = (
            max(2, shards) if crash_retries is None else max(0, crash_retries)
        )
        self._cache_dir = cache_dir
        self._bounds_path: Optional[str] = None
        store_path: Optional[str] = None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            store_path = os.path.join(cache_dir, VERDICTS_FILE)
            self._bounds_path = os.path.join(cache_dir, BOUNDS_FILE)
        self.store = ResultStore(store_path)
        self.stats = ServiceStats()
        self.shards = ShardManager(
            shards,
            workers_per_shard=workers_per_shard,
            isolation=isolation,
            disk_prime=store_path,
        )
        self.isolation = self.shards.shards[0].isolation  # post-degrade truth
        self.admission = AdmissionController(max_pending)
        self.shard_inflight = max(1, shard_inflight)
        # Loop-confined job state.
        self._active: Dict[str, AsyncJob] = {}  # key → unsettled job
        self._jobs: Dict[str, AsyncJob] = {}  # id → job (bounded below)
        self._settled: Deque[str] = deque()
        self._seq = 0
        self._job_tasks: Set[asyncio.Task] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._rebuilding: Set[int] = set()
        # Fingerprinting is CPU work (compile + hash): memoize and
        # offload misses so the loop never blocks on a parser.
        self._fp_cache: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()
        self._fp_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-aio-fp"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._stopped = False
        self._stop_event = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Metrics: native families for loop-side observations, pull-time
        # collectors for everything already counted elsewhere.
        self.registry = MetricsRegistry()
        self._job_seconds = self.registry.histogram(
            "repro_service_job_seconds",
            "Wall seconds per executed job by outcome",
            labelnames=("outcome",),
        )
        self._submit_seconds = self.registry.histogram(
            "repro_service_submit_seconds",
            "Wall seconds from submit accept to settled response",
            labelnames=("disposition",),
        )
        self.registry.register_collector(self._service_families)
        obs_exporters.register_perf_collector(self.registry)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> str:
        bound = self._bound_address or self._requested_address
        return protocol.format_address(bound)

    @property
    def running(self) -> bool:
        return self._server is not None and not self._stopped

    async def start(self) -> "AsyncAnalysisDaemon":
        if self._server is not None:
            raise ReproError("async daemon already started")
        self._loop = asyncio.get_running_loop()
        addr = self._requested_address
        if addr[0] == "unix":
            if os.path.exists(addr[1]) and self._socket_stale(addr):
                os.unlink(addr[1])
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=addr[1]
            )
            self._bound_address = addr
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=addr[1], port=addr[2]
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self._bound_address = ("tcp", addr[1], port)
        log.info(
            "async analysis daemon listening on %s (%d shard(s) × %d worker(s), "
            "%s isolation)",
            self.address,
            self.shards.count,
            self.shards.shards[0].workers,
            self.isolation,
        )
        return self

    @staticmethod
    def _socket_stale(addr: protocol.Address) -> bool:
        try:
            probe = protocol.connect_socket(addr, timeout=0.2)
        except OSError:
            return True
        probe.close()
        return False

    def request_stop(self) -> None:
        """Signal-handler-safe stop request: serve_forever wakes and
        runs the full drain + stop sequence (the SIGTERM hook)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._stop_event.set)

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop` (or SIGTERM/SIGINT when the
        loop allows signal handlers), then drain and stop."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: List[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stop_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await self._stop_event.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()

    async def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: close the listener first, settle in-flight
        jobs (bounded by ``drain_timeout``), flush responses and the
        disk tier, then tear the shards down."""
        if self._stopped:
            return
        self._draining = True
        timeout = self._drain_timeout if drain_timeout is None else drain_timeout
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        if self._job_tasks and timeout:
            done, pending = await asyncio.wait(
                set(self._job_tasks), timeout=timeout
            )
            if pending:
                log.warning(
                    "drain timed out after %.1fs with %d job(s) unsettled",
                    timeout,
                    len(pending),
                )
                for task in pending:
                    task.cancel()
        # Let connection handlers flush the just-settled responses.
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=2.0)
            for task in self._conn_tasks:
                task.cancel()
        flushed = self.store.flush()
        self.shards.shutdown()
        self._fp_executor.shutdown(wait=False)
        bound = self._bound_address
        if bound is not None and bound[0] == "unix":
            try:
                os.unlink(bound[1])
            except OSError:
                pass
        self._stopped = True
        self._stop_event.set()
        log.info(
            "async analysis daemon on %s stopped (store at shutdown: %s)",
            self.address,
            flushed,
        )

    async def __aenter__(self) -> "AsyncAnalysisDaemon":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.bump("connections")
        bucket = (
            TokenBucket(self._rate, self._burst) if self._rate is not None else None
        )
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    return
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    message = protocol.decode_message(line)
                except ProtocolError as exc:
                    await self._send(
                        writer, write_lock, protocol.error_response("?", str(exc))
                    )
                    return
                if "id" in message:
                    # Pipelined: handle concurrently, match by echoed id.
                    task = asyncio.ensure_future(
                        self._answer(message, writer, write_lock, bucket)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                else:
                    await self._answer(message, writer, write_lock, bucket)
                if message.get("op") == "shutdown":
                    return
        except asyncio.CancelledError:
            # Drain-time teardown: absorb the cancel so the task ends
            # cleanly (the stream machinery would log it otherwise) and
            # fall through to close the writer.
            pass
        except (ConnectionError, OSError):
            pass  # client went away mid-message; nothing to salvage
        finally:
            try:
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
            except asyncio.CancelledError:
                pass
            if me is not None:
                self._conn_tasks.discard(me)
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _answer(
        self,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        bucket: Optional[TokenBucket],
    ) -> None:
        try:
            response = await self._dispatch(message, bucket)
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - a request must never kill the loop
            log.exception("request dispatch failed")
            response = protocol.error_response(
                str(message.get("op")), "internal service error"
            )
        await self._send(writer, write_lock, protocol.attach_id(response, message))

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Dict[str, Any],
    ) -> None:
        data = protocol.encode_message(response)
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # reader side will see EOF and wind the handler down

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(
        self, message: Dict[str, Any], bucket: Optional[TokenBucket]
    ) -> Dict[str, Any]:
        op = message.get("op")
        if op not in protocol.OPS:
            self.stats.bump("rejected")
            return protocol.error_response(
                str(op), "unknown op %r (expected one of %s)" % (op, protocol.OPS)
            )
        try:
            if op == "ping":
                return protocol.ok_response("ping", address=self.address)
            if op == "health":
                return self._handle_health()
            if op == "ready":
                return protocol.ok_response(
                    "ready", ready=self.running and not self._draining
                )
            if op == "submit":
                return await self._handle_submit(message, bucket)
            if op == "status":
                return self._handle_status(message)
            if op == "result":
                return await self._handle_result(message)
            if op == "stats":
                return self._handle_stats()
            if op == "metrics":
                return self._handle_metrics(message)
            if op == "drain":
                return self._handle_drain()
            return self._handle_shutdown()
        except ReproError as exc:
            self.stats.bump("rejected")
            return protocol.error_response(op, str(exc))

    def _handle_health(self) -> Dict[str, Any]:
        return protocol.ok_response(
            "health",
            address=self.address,
            state="draining" if self._draining else "running",
            uptime_seconds=round(self.stats.uptime_seconds, 3),
            pending=len(self._active),
            shards=self.shards.snapshot(),
        )

    def _handle_drain(self) -> Dict[str, Any]:
        log.info("drain requested over the wire")
        self._draining = True
        server = self._server
        if server is not None:
            server.close()
        return protocol.ok_response(
            "drain", draining=True, pending=len(self._active)
        )

    def _handle_shutdown(self) -> Dict[str, Any]:
        log.info("shutdown requested over the wire")
        self._draining = True
        self._stop_event.set()
        return protocol.ok_response("shutdown", stopping=True)

    # -- submit path --------------------------------------------------------

    async def _handle_submit(
        self, message: Dict[str, Any], bucket: Optional[TokenBucket]
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        if self._draining:
            self.stats.bump("rejected")
            return protocol.overloaded_response(
                "submit", 1.0, reason="draining", draining=True
            )
        # Admission gates run before the (comparatively expensive)
        # fingerprint: a shed request costs two integer comparisons.
        if bucket is not None:
            wait = bucket.try_acquire()
            if wait > 0.0:
                self.stats.bump("rejected")
                return protocol.overloaded_response(
                    "submit", wait, reason="rate limited"
                )
        retry_after = self.admission.admit(len(self._active))
        if retry_after is not None:
            self.stats.bump("rejected")
            return protocol.overloaded_response(
                "submit", retry_after, pending=len(self._active)
            )
        payload = intake_payload(message)
        key, proc = await self._fingerprint(payload)
        payload["proc"] = proc
        self.stats.bump("submitted")
        cached, tier = self.store.get(key)
        if cached is not None:
            self.stats.bump("hits_memory" if tier == "memory" else "hits_disk")
            self._submit_seconds.labels(disposition="cached").observe(
                time.perf_counter() - started
            )
            return protocol.ok_response(
                "submit", key=key, state="done", cached=tier, result=cached
            )
        job = self._active.get(key)
        coalesced = job is not None
        if job is not None:
            job.waiters += 1
            self.stats.bump("coalesced")
        else:
            deadline = payload.get("deadline", self._default_deadline)
            if deadline is not None:
                payload["deadline"] = deadline
            if self._bounds_path is not None:
                payload["disk_cache"] = self._bounds_path
            shard = self.shards.route(key)
            if shard is None:
                self.stats.bump("rejected")
                return protocol.overloaded_response(
                    "submit",
                    self.shards.shards[0].breaker.reset_seconds,
                    reason="all shards quarantined",
                )
            if shard.inflight >= self.shard_inflight:
                # Bounded backpressure: the shard already carries its
                # fill of unsettled work, so the burst waits client-side.
                self.stats.bump("rejected")
                return protocol.overloaded_response(
                    "submit",
                    0.25,
                    reason="shard backlog",
                    shard=shard.index,
                )
            self._seq += 1
            job = AsyncJob(
                id="ajob-%d" % self._seq,
                key=key,
                payload=payload,
                shard=shard.index,
            )
            self._active[key] = job
            self._jobs[job.id] = job
            task = asyncio.ensure_future(self._run_job(job, shard))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)
        if message.get("wait", True):
            timeout = message.get("wait_timeout")
            try:
                await asyncio.wait_for(
                    asyncio.shield(job.done.wait()),
                    None if timeout is None else float(timeout),
                )
            except asyncio.TimeoutError:
                self._submit_seconds.labels(disposition="timeout").observe(
                    time.perf_counter() - started
                )
                return self._job_response(job, coalesced=coalesced, timed_out=True)
        self._submit_seconds.labels(disposition="executed").observe(
            time.perf_counter() - started
        )
        return self._job_response(job, coalesced=coalesced)

    async def _fingerprint(self, payload: Dict[str, Any]) -> Tuple[str, str]:
        cache_key = json.dumps(payload, sort_keys=True, default=str)
        hit = self._fp_cache.get(cache_key)
        if hit is not None:
            self._fp_cache.move_to_end(cache_key)
            return hit
        loop = asyncio.get_running_loop()
        # fingerprint_job raises ReproError on malformed programs — let
        # it propagate; _dispatch turns it into the error response.
        result = await loop.run_in_executor(
            self._fp_executor, fingerprint_job, payload
        )
        self._fp_cache[cache_key] = result
        self._fp_cache.move_to_end(cache_key)
        while len(self._fp_cache) > FINGERPRINT_CACHE:
            self._fp_cache.popitem(last=False)
        return result

    def _job_response(self, job: AsyncJob, **fields: Any) -> Dict[str, Any]:
        response = protocol.ok_response("submit", **job.snapshot())
        if job.state == "done":
            response["result"] = job.result
        response.update(fields)
        return response

    # -- job execution ------------------------------------------------------

    async def _run_job(self, job: AsyncJob, shard: Shard) -> None:
        job.state = "running"
        job.started_at = time.time()
        started = time.perf_counter()
        label = "failed"
        try:
            label = await self._settle_job(job, shard)
        except asyncio.CancelledError:
            if not job.settled:
                self._finish(job, error="daemon stopped before job settled")
            raise
        except Exception as exc:  # noqa: BLE001 - a job must settle, period
            log.exception("job runner failed on %s", job.id)
            if not job.settled:
                self._finish(job, error="internal job-runner failure: %s" % exc)
        finally:
            self._job_seconds.labels(outcome=label).observe(
                time.perf_counter() - started
            )

    async def _settle_job(self, job: AsyncJob, shard: Shard) -> str:
        """Run ``job`` to settled, rerouting across shards on crashes;
        returns the outcome label for the latency histogram."""
        current: Optional[Shard] = shard
        crashes = 0
        while True:
            if current is None:
                current = self.shards.route(job.key)
            if current is None:
                self.stats.bump("failed")
                self._finish(
                    job, error="WorkerCrashed: every shard is quarantined"
                )
                return "failed"
            job.shard = current.index
            job.attempts += 1
            current.inflight += 1
            self.stats.bump("executed")
            try:
                outcome = await self._execute_on(current, job)
            finally:
                current.inflight -= 1
            if isinstance(outcome, WorkerCrashed):
                crashes += 1
                self._record_crash(current)
                if crashes <= self._crash_retries:
                    self.stats.bump("retried")
                    current = None  # re-route: the breaker walk decides
                    continue
                self.stats.bump("failed")
                self._finish(
                    job, error="%s: %s" % (type(outcome).__name__, outcome)
                )
                return "failed"
            current.breaker.record_success()
            if isinstance(outcome, BaseException):
                # A job-level failure (injected fault, bad input): the
                # shard is fine, the job is not.
                self.stats.bump("failed")
                self._finish(
                    job, error="%s: %s" % (type(outcome).__name__, outcome)
                )
                return "failed"
            self.stats.bump("completed")
            degraded = bool(outcome.get("degraded"))
            if degraded:
                self.stats.bump("degraded")
            self.store.put(job.key, outcome)
            self._finish(job, result=outcome)
            return "degraded" if degraded else "completed"

    async def _execute_on(self, shard: Shard, job: AsyncJob) -> Any:
        """One attempt on one shard → result dict or exception instance.

        A ``BrokenExecutor`` (killed worker process), a submission the
        broken pool refused, or a task timeout all come back as
        :class:`WorkerCrashed` — the caller's signal to blame the shard
        and reroute.  Everything else the job raised is its own failure.
        """
        try:
            future = shard.submit(job.payload)
        except Exception as exc:  # pool broken beyond accepting work
            return WorkerCrashed(
                "shard %d refused the job: %s" % (shard.index, exc), task=job.id
            )
        wrapped = asyncio.wrap_future(future)
        try:
            return await asyncio.wait_for(wrapped, self._task_timeout)
        except asyncio.TimeoutError:
            future.cancel()
            return WorkerCrashed(
                "job %s exceeded the task timeout (%.1fs) on shard %d"
                % (job.id, self._task_timeout or 0.0, shard.index),
                task=job.id,
            )
        except BrokenExecutor as exc:
            return WorkerCrashed(
                "worker process died on shard %d: %s" % (shard.index, exc),
                task=job.id,
            )
        except asyncio.CancelledError:
            raise
        except KeyboardInterrupt as exc:  # injected interrupt (thread shards)
            return exc
        except Exception as exc:  # noqa: BLE001 - job failure is data
            return exc

    def _record_crash(self, shard: Shard) -> None:
        tripped = shard.breaker.record_failure()
        if (tripped or shard.broken()) and shard.index not in self._rebuilding:
            # Quarantined: reroute happens naturally (route() skips open
            # breakers); rebuild the pool off-loop, then half-open the
            # breaker so the next routed job probes the fresh pool.
            self._rebuilding.add(shard.index)
            task = asyncio.ensure_future(self._rebuild_shard(shard))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    async def _rebuild_shard(self, shard: Shard) -> None:
        log.warning("shard %d quarantined; rebuilding its pool", shard.index)
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._fp_executor, shard.rebuild)
        finally:
            self._rebuilding.discard(shard.index)
            shard.breaker.force_probe()

    def _finish(self, job: AsyncJob, result=None, error=None) -> None:
        job.result = result
        job.error = error
        job.state = "failed" if error is not None else "done"
        job.finished_at = time.time()
        if self._active.get(job.key) is job:
            del self._active[job.key]
        if job.id in self._jobs:
            self._settled.append(job.id)
        while len(self._settled) > SETTLED_RETENTION:
            self._jobs.pop(self._settled.popleft(), None)
        job.done.set()

    # -- read-side verbs ----------------------------------------------------

    def _handle_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job")
        if job_id is not None:
            job = self._jobs.get(str(job_id))
            if job is None:
                return protocol.error_response("status", "no job %r" % job_id)
            return protocol.ok_response("status", **job.snapshot())
        jobs = list(self._jobs.values())
        return protocol.ok_response(
            "status",
            address=self.address,
            shards=self.shards.count,
            isolation=self.isolation,
            queue_depth=len(self._active),
            jobs=[j.snapshot() for j in jobs[-50:]],
        )

    async def _handle_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job")
        if job_id is None:
            return protocol.error_response("result", "result needs a 'job' id")
        job = self._jobs.get(str(job_id))
        if job is None:
            return protocol.error_response("result", "no job %r" % job_id)
        if message.get("wait") and not job.settled:
            timeout = message.get("wait_timeout")
            try:
                await asyncio.wait_for(
                    asyncio.shield(job.done.wait()),
                    None if timeout is None else float(timeout),
                )
            except asyncio.TimeoutError:
                pass
        response = protocol.ok_response("result", **job.snapshot())
        if job.state == "done":
            response["result"] = job.result
        return response

    def _handle_stats(self) -> Dict[str, Any]:
        counters = self.stats.snapshot()
        return protocol.ok_response(
            "stats",
            address=self.address,
            shards=self.shards.count,
            isolation=self.isolation,
            uptime_seconds=round(self.stats.uptime_seconds, 3),
            queue_depth=len(self._active),
            shed=self.admission.shed,
            quarantined=self.shards.quarantined(),
            store=self.store.stats(),
            shard_states=self.shards.snapshot(),
            **counters,
        )

    def _service_families(self) -> List[Family]:
        counters = [
            ({"event": name}, value)
            for name, value in sorted(self.stats.snapshot().items())
        ]
        shard_states = [
            ({"shard": str(s["shard"]), "state": str(s["state"])}, 1)
            for s in self.shards.snapshot()
        ]
        return [
            Family.constant(
                "repro_service_events_total",
                "counter",
                "Daemon lifecycle counters (submissions, cache hits, "
                "failures, ...)",
                counters,
            ),
            Family.constant(
                "repro_service_queue_depth",
                "gauge",
                "Jobs currently unsettled (queued and running)",
                [({}, len(self._active))],
            ),
            Family.constant(
                "repro_service_shed_total",
                "counter",
                "Submissions shed by the queue-depth admission gate",
                [({}, self.admission.shed)],
            ),
            Family.constant(
                "repro_service_shards",
                "gauge",
                "Shard breaker states (1 per shard/state pair)",
                shard_states,
            ),
            Family.constant(
                "repro_service_uptime_seconds",
                "gauge",
                "Seconds since the daemon's stats epoch (monotonic clock)",
                [({}, round(self.stats.uptime_seconds, 3))],
            ),
        ]

    def _handle_metrics(self, message: Dict[str, Any]) -> Dict[str, Any]:
        fmt = message.get("format", "text")
        registries = (GLOBAL_REGISTRY, self.registry)
        if fmt == "json":
            return protocol.ok_response(
                "metrics",
                format="json",
                metrics=obs_exporters.metrics_snapshot(*registries),
            )
        if fmt != "text":
            return protocol.error_response(
                "metrics", "unknown metrics format %r (want 'text' or 'json')" % fmt
            )
        return protocol.ok_response(
            "metrics",
            format="text",
            content_type=PROMETHEUS_CONTENT_TYPE,
            text=obs_exporters.prometheus_text(*registries),
        )

