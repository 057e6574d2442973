"""A blocking client for the analysis service.

One persistent connection, one request/response in flight at a time —
the protocol is strictly ordered, so the client is a thin convenience
over :mod:`repro.service.protocol`: it connects lazily, frames the
message, and raises :class:`~repro.util.errors.ServiceError` when the
daemon answers ``ok: false`` or hangs up mid-request.  Job *failures*
are not client errors: a ``state: "failed"`` response comes back as
data, exactly as received.

Robustness (docs/SERVICE.md):

* **Timeouts.**  ``connect_timeout`` (default 5 s) bounds the TCP/unix
  connect — a dead daemon fails fast instead of blocking forever.
  ``timeout`` is the per-read socket timeout and defaults to None
  because a ``submit`` with ``wait: true`` legitimately blocks for the
  analysis duration; set it when you want a hard ceiling.
* **Bounded retry with jitter.**  ``retries`` (default 2) re-runs a
  request after ``ConnectionRefusedError``/missing-socket connects,
  after a connection dropped mid-request (every verb is idempotent:
  submissions are content-keyed and coalesce/cache server-side), and
  after an explicit ``overloaded`` response — honoring the daemon's
  ``retry_after`` hint plus full jitter, so a shedding daemon is not
  hit by a synchronized retry herd.  An exhausted overload budget
  raises :class:`~repro.util.errors.ServiceOverloaded`.

>>> with ServiceClient("unix:/tmp/repro.sock") as client:
...     reply = client.submit(source, proc="login", wait=True)
...     reply["result"]["status"]
'safe'
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable, Dict, Optional

from repro.service import protocol
from repro.util.errors import ServiceError, ServiceOverloaded

DEFAULT_CONNECT_TIMEOUT = 5.0
DEFAULT_RETRIES = 2

# Backoff schedule for connect/transport retries: base * 2^k, capped,
# then scaled by full jitter in [0.5, 1.0].
RETRY_BACKOFF = 0.1
RETRY_BACKOFF_CAP = 2.0


def wait_for_service(
    address: str, timeout: float = 5.0, interval: float = 0.05
) -> None:
    """Block until a daemon answers ``ping`` at ``address`` (or raise).

    The boot-ordering helper: ``repro serve`` binds its socket in a
    subprocess, and callers (tests, scripts) need a moment of patience
    before the first real request.
    """
    parsed = protocol.parse_address(address)
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            sock = protocol.connect_socket(parsed, timeout=interval * 4)
        except OSError as exc:
            last_error = exc
            time.sleep(interval)
            continue
        sock.close()
        return
    raise ServiceError(
        "no analysis service at %s after %.1fs (%s)"
        % (address, timeout, last_error or "no connection attempt succeeded")
    )


class ServiceClient:
    """A blocking NDJSON client bound to one service address."""

    def __init__(
        self,
        address: str,
        timeout: Optional[float] = None,
        connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.address = address
        self._parsed = protocol.parse_address(address)
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._retries = max(0, int(retries))
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._sock: Optional[socket.socket] = None
        self._wire = None

    # -- connection --------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                self._sock = protocol.connect_socket(
                    self._parsed, timeout=self._connect_timeout
                )
            except OSError as exc:
                raise ServiceError(
                    "cannot reach analysis service at %s: %s" % (self.address, exc)
                ) from exc
            # Per-read timeout after connecting: None means "wait for
            # the analysis", a float means "fail this read loudly".
            self._sock.settimeout(self._timeout)
            self._wire = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._wire is not None:
            try:
                self._wire.close()
            except OSError:
                pass
            self._wire = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def _backoff(self, attempt: int, floor: float = 0.0) -> None:
        """Sleep before retry ``attempt`` (1-based): capped exponential
        with full jitter, never below the daemon's own hint."""
        delay = min(RETRY_BACKOFF * (2.0 ** (attempt - 1)), RETRY_BACKOFF_CAP)
        delay = max(floor, delay) * self._rng.uniform(0.5, 1.0)
        if floor > 0:
            delay = max(delay, floor)
        if delay > 0:
            self._sleep(delay)

    def _request_once(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.connect()
        assert self._wire is not None
        try:
            protocol.send_message(self._wire, message)
            response = protocol.read_message(self._wire)
        except (OSError, ValueError) as exc:
            self.close()
            raise ServiceError(
                "analysis service at %s dropped the connection: %s"
                % (self.address, exc)
            ) from exc
        if response is None:
            self.close()
            raise ServiceError(
                "analysis service at %s closed the connection mid-request"
                % self.address
            )
        return response

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message and return the raw response dict.

        Retries transport failures (connection refused, daemon hung up
        mid-request) up to the bounded budget with jittered backoff;
        raises :class:`ServiceError` once it is exhausted.  Returns
        ``ok: false`` responses as-is — use the verb helpers for
        checked calls.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(message)
            except ServiceError:
                attempt += 1
                if attempt > self._retries:
                    raise
                self._backoff(attempt)

    def _checked(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """``request`` + ok-check + bounded retry on ``overloaded``."""
        attempt = 0
        while True:
            response = self.request(message)
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
                self._backoff(attempt, floor=retry_after)
                continue
            raise ServiceError(
                "service %s request failed: %s"
                % (message.get("op"), response.get("error", "unknown error"))
            )

    # -- verbs -------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._checked({"op": "ping"})

    def health(self) -> Dict[str, Any]:
        return self._checked({"op": "health"})

    def ready(self) -> bool:
        """Readiness as a bool (the load-balancer probe)."""
        return bool(self._checked({"op": "ready"}).get("ready"))

    def submit(
        self,
        source: str,
        proc: Optional[str] = None,
        wait: bool = True,
        wait_timeout: Optional[float] = None,
        **knobs: Any,
    ) -> Dict[str, Any]:
        """Submit one analysis job.  ``knobs`` are the
        :data:`repro.core.blazer.JOB_FIELDS` configuration fields
        (``domain``, ``observer``, ``threshold``, ``deadline``, ...)."""
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
        return self._checked(message)

    def status(self, job: Optional[str] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "status"}
        if job is not None:
            message["job"] = job
        return self._checked(message)

    def result(
        self,
        job: str,
        wait: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "result", "job": job, "wait": wait}
        if wait_timeout is not None:
            message["wait_timeout"] = wait_timeout
        return self._checked(message)

    def stats(self) -> Dict[str, Any]:
        return self._checked({"op": "stats"})

    def metrics(self, format: str = "text") -> Dict[str, Any]:
        """The daemon's unified metrics snapshot: Prometheus text
        exposition under ``text`` (the default; response field ``text``),
        a JSON snapshot under ``json`` (response field ``metrics``)."""
        return self._checked({"op": "metrics", "format": format})

    def drain(self) -> Dict[str, Any]:
        """Ask the daemon to drain gracefully (keep serving reads)."""
        return self._checked({"op": "drain"})

    def shutdown(self) -> Dict[str, Any]:
        response = self._checked({"op": "shutdown"})
        self.close()
        return response
