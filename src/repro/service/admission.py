"""Admission control: decide *at the door* instead of collapsing inside.

Two cooperating mechanisms (docs/SERVICE.md):

* :class:`TokenBucket` — a per-connection rate limit.  Each connection
  gets ``rate`` submissions per second with bursts up to ``burst``; a
  submission that finds the bucket empty is answered ``overloaded``
  with a ``retry_after`` telling the client exactly when a token will
  exist.  One abusive client therefore cannot starve the others — its
  surplus is shed on *its* connection.
* :class:`AdmissionController` — a queue-depth gate shared by the whole
  daemon.  When the number of pending (queued + running) jobs reaches
  ``max_pending``, new work is shed with ``overloaded`` and a
  ``retry_after`` that grows with the overshoot, which spreads the
  retrying herd instead of synchronizing it.

Shedding is the *sound* degradation: an ``overloaded`` response is an
explicit "not now", never a dropped connection and never a wrong
verdict — the client retries (with jitter, :mod:`repro.service.client`)
and the work happens when there is capacity for it.

``clock`` is injectable monotonic seconds, so the token schedule is
testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional


class TokenBucket:
    """The standard leaky-bucket rate limiter, refilled lazily.

    ``try_acquire`` either takes a token (returns 0.0) or returns the
    seconds until one will be available — the ``retry_after`` the
    protocol hands back.  Thread-safe, so a bucket can be shared
    across threads as well as used from the daemon's event loop.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/second")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst < 1.0:
            raise ValueError("burst must allow at least one token")
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now

    def try_acquire(self, n: float = 1.0) -> float:
        """Take ``n`` tokens now (return 0.0) or report the wait."""
        with self._lock:
            self._refill()
            if self._tokens >= n:
                self._tokens -= n
                return 0.0
            return (n - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


class AdmissionController:
    """Queue-depth-aware load shedding for the whole daemon.

    ``admit(pending)`` answers ``None`` (admitted) or a ``retry_after``
    in seconds (shed).  The retry hint scales linearly with how far past
    the limit the queue is — a lightly overloaded daemon asks for a
    short pause, a deeply overloaded one pushes the herd further out —
    and is capped so clients never park for minutes on a stale hint.
    """

    def __init__(
        self,
        max_pending: int,
        base_retry_after: float = 0.25,
        max_retry_after: float = 5.0,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = int(max_pending)
        self.base_retry_after = base_retry_after
        self.max_retry_after = max_retry_after
        self._lock = threading.Lock()
        self.shed = 0  # lifetime rejections, for stats/metrics

    def admit(self, pending: int) -> Optional[float]:
        if pending < self.max_pending:
            return None
        with self._lock:
            self.shed += 1
        overshoot = 1.0 + (pending - self.max_pending) / max(1, self.max_pending)
        return min(self.max_retry_after, self.base_retry_after * overshoot)
