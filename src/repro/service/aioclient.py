"""The asyncio client: one connection, many requests in flight.

Where the blocking :class:`~repro.service.client.ServiceClient` sends
one request and reads one response, this client *pipelines*: every
request carries a generated ``id``, a single reader task matches the
(possibly reordered) responses back to their futures, and a thousand
``submit``\\ s can share one socket — which is exactly how the loadgen
harness simulates a thousand clients without a thousand sockets when it
wants to, and how real callers overlap a slow analysis with cheap
status probes.

Same robustness contract as the blocking client: bounded, jittered
retries on transport failures (reconnect and resend — every verb is
idempotent, submissions are content-keyed server-side) and on explicit
``overloaded`` responses, honoring the daemon's ``retry_after`` hint;
an exhausted overload budget raises
:class:`~repro.util.errors.ServiceOverloaded`.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Any, Dict, Optional

from repro.service import protocol
from repro.service.client import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_RETRIES,
    RETRY_BACKOFF,
    RETRY_BACKOFF_CAP,
)
from repro.util.errors import ServiceError, ServiceOverloaded

_CLIENT_IDS = itertools.count(1)


class AsyncServiceClient:
    """A pipelining NDJSON client bound to one service address."""

    def __init__(
        self,
        address: str,
        connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        rng: Optional[random.Random] = None,
    ):
        self.address = address
        self._parsed = protocol.parse_address(address)
        self._connect_timeout = connect_timeout
        self._retries = max(0, int(retries))
        self._rng = rng or random.Random()
        self._prefix = "c%d" % next(_CLIENT_IDS)
        self._seq = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}

    # -- connection ---------------------------------------------------------

    async def connect(self) -> "AsyncServiceClient":
        if self._writer is not None:
            return self
        try:
            if self._parsed[0] == "unix":
                opener = asyncio.open_unix_connection(self._parsed[1])
            else:
                opener = asyncio.open_connection(self._parsed[1], self._parsed[2])
            self._reader, self._writer = await asyncio.wait_for(
                opener, self._connect_timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceError(
                "cannot reach analysis service at %s: %s" % (self.address, exc)
            ) from exc
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        task, self._reader_task = self._reader_task, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._fail_pending(ServiceError("connection to %s closed" % self.address))

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- reader side --------------------------------------------------------

    async def _read_loop(self) -> None:
        reader = self._reader
        assert reader is not None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                response = protocol.decode_message(line)
                future = self._pending.pop(str(response.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface to the waiters
            self._fail_pending(
                ServiceError(
                    "reader on %s failed: %s" % (self.address, exc)
                )
            )
            return
        self._fail_pending(
            ServiceError(
                "analysis service at %s closed the connection mid-request"
                % self.address
            )
        )

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # -- request plumbing ---------------------------------------------------

    async def _backoff(self, attempt: int, floor: float = 0.0) -> None:
        delay = min(RETRY_BACKOFF * (2.0 ** (attempt - 1)), RETRY_BACKOFF_CAP)
        delay = max(floor, delay) * self._rng.uniform(0.5, 1.0)
        if floor > 0:
            delay = max(delay, floor)
        if delay > 0:
            await asyncio.sleep(delay)

    async def _request_once(self, message: Dict[str, Any]) -> Dict[str, Any]:
        await self.connect()
        assert self._writer is not None
        self._seq += 1
        request_id = "%s-%d" % (self._prefix, self._seq)
        wired = dict(message)
        wired["id"] = request_id
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(protocol.encode_message(wired))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            await self.close()
            raise ServiceError(
                "analysis service at %s dropped the connection: %s"
                % (self.address, exc)
            ) from exc
        try:
            return await future
        except ServiceError:
            await self.close()
            raise
        finally:
            self._pending.pop(request_id, None)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, return the raw response dict; bounded
        jittered retries (reconnect + resend) on transport failures."""
        attempt = 0
        while True:
            try:
                return await self._request_once(message)
            except ServiceError:
                attempt += 1
                if attempt > self._retries:
                    raise
                await self._backoff(attempt)

    async def _checked(self, message: Dict[str, Any]) -> Dict[str, Any]:
        attempt = 0
        while True:
            response = await self.request(message)
            if response.get("ok"):
                return response
            if response.get("overloaded"):
                retry_after = float(response.get("retry_after", 0.0) or 0.0)
                attempt += 1
                if attempt > self._retries:
                    raise ServiceOverloaded(
                        "service %s request shed by %s after %d attempt(s) (%s)"
                        % (
                            message.get("op"),
                            self.address,
                            attempt,
                            response.get("error", "overloaded"),
                        ),
                        retry_after=retry_after,
                    )
                await self._backoff(attempt, floor=retry_after)
                continue
            raise ServiceError(
                "service %s request failed: %s"
                % (message.get("op"), response.get("error", "unknown error"))
            )

    # -- verbs --------------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self._checked({"op": "ping"})

    async def health(self) -> Dict[str, Any]:
        return await self._checked({"op": "health"})

    async def ready(self) -> bool:
        return bool((await self._checked({"op": "ready"})).get("ready"))

    async def submit(
        self,
        source: str,
        proc: Optional[str] = None,
        wait: bool = True,
        wait_timeout: Optional[float] = None,
        **knobs: Any,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "op": "submit",
            "source": source,
            "wait": wait,
        }
        if proc is not None:
            message["proc"] = proc
        if wait_timeout is not None:
            message["wait_timeout"] = wait_timeout
        for name, value in knobs.items():
            if value is not None:
                message[name] = value
        return await self._checked(message)

    async def status(self, job: Optional[str] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "status"}
        if job is not None:
            message["job"] = job
        return await self._checked(message)

    async def result(
        self,
        job: str,
        wait: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "result", "job": job, "wait": wait}
        if wait_timeout is not None:
            message["wait_timeout"] = wait_timeout
        return await self._checked(message)

    async def stats(self) -> Dict[str, Any]:
        return await self._checked({"op": "stats"})

    async def metrics(self, format: str = "text") -> Dict[str, Any]:
        return await self._checked({"op": "metrics", "format": format})

    async def drain(self) -> Dict[str, Any]:
        return await self._checked({"op": "drain"})

    async def shutdown(self) -> Dict[str, Any]:
        response = await self._checked({"op": "shutdown"})
        await self.close()
        return response
