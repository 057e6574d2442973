"""Bounded retry-with-backoff policy for failed suite tasks.

The policy is data, not control flow: callers (the suite runner and
the campaign drivers) ask it how long to sleep before attempt *k* and
whether another attempt is allowed.  ``sleep`` is injectable so
tests exercise the backoff schedule without waiting it out.

:func:`run_with_retries` is the control-flow half: the serial re-run
loop of the benchmark runner.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Tuple, TypeVar

from repro.util.errors import WorkerCrashed

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class RetryPolicy:
    """Exponential backoff, capped: ``base * factor**(attempt-1)``.

    ``retries`` counts *re-runs* after the initial attempt; a task is
    given up (and :class:`~repro.util.errors.WorkerCrashed` raised by
    the caller) after ``1 + retries`` total attempts.
    """

    retries: int = 0
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def allows(self, attempt: int) -> bool:
        """May retry number ``attempt`` (1-based) run at all?"""
        return attempt <= self.retries

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = self.backoff_seconds * (self.backoff_factor ** max(0, attempt - 1))
        return min(raw, self.max_backoff_seconds)

    def sleep_before(self, attempt: int) -> None:
        delay = self.delay(attempt)
        if delay > 0:
            self.sleep(delay)


def run_with_retries(
    fn: Callable[[T], R],
    item: T,
    policy: RetryPolicy,
    first_error: Exception,
    label: str = "",
) -> Tuple[R, int]:
    """Serially re-run ``fn(item)`` under ``policy`` after a failure.

    ``first_error`` is the failure that triggered the retries (it is
    what gets chained and reported if every attempt fails too).  Returns
    ``(result, attempts)`` where ``attempts`` counts the re-runs that
    were consumed.  Raises :class:`WorkerCrashed` once the policy is
    exhausted; ``KeyboardInterrupt`` always propagates immediately so
    callers can flush state.
    """
    name = label or str(item)
    last: Exception = first_error
    attempt = 0
    while policy.allows(attempt + 1):
        attempt += 1
        log.warning(
            "%s failed (%s: %s); retry %d/%d on the serial backend",
            name,
            type(last).__name__,
            last,
            attempt,
            policy.retries,
        )
        policy.sleep_before(attempt)
        try:
            return fn(item), attempt
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            last = exc
    raise WorkerCrashed(
        "%s failed after %d attempt(s): %s: %s"
        % (name, attempt + 1, type(last).__name__, last),
        task=str(item),
        attempts=attempt + 1,
    ) from last
