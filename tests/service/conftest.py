"""A blocking-world handle on the asyncio daemon.

:class:`ThreadedDaemon` runs an :class:`AsyncAnalysisDaemon` on its own
event loop in a background thread, so blocking
:class:`~repro.service.client.ServiceClient` tests and in-process CLI
calls (``main(["submit", ...])``) can drive it from the test thread.
Defaults mirror plain ``repro serve``: one shard, thread isolation.
"""

import asyncio
import threading

import pytest

from repro.service.aio import AsyncAnalysisDaemon
from repro.service.protocol import unix_supported


def service_address(tmp_path):
    if unix_supported():
        return "unix:%s" % (tmp_path / "svc.sock")
    return "tcp:127.0.0.1:0"  # pragma: no cover - non-POSIX


class ThreadedDaemon:
    """An :class:`AsyncAnalysisDaemon` served from a background loop."""

    def __init__(self, address, **kwargs):
        kwargs.setdefault("shards", 1)
        kwargs.setdefault("isolation", "thread")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-test-daemon", daemon=True
        )
        self._thread.start()

        # Built on the loop: before Python 3.10 the daemon's asyncio
        # primitives bind to the loop current at construction.
        async def build():
            return AsyncAnalysisDaemon(address, **kwargs)

        self.daemon = self._call(build())
        self._call(self.daemon.start())
        # serve_forever, not just start: the wire `shutdown` verb stops
        # the daemon through it, exactly as under `repro serve`.
        self._serving = asyncio.run_coroutine_threadsafe(
            self.daemon.serve_forever(), self._loop
        )

    def _call(self, coro, timeout=60.0):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    @property
    def address(self):
        return self.daemon.address

    @property
    def running(self):
        return self.daemon.running

    def stop(self):
        """Drain and stop the daemon (idempotent), then end the loop."""
        if self._loop.is_closed():
            return
        self._call(self.daemon.stop())
        self._serving.result(timeout=60.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()


@pytest.fixture
def threaded_daemon(tmp_path):
    """``boot(**kwargs)`` → a running :class:`ThreadedDaemon` on a
    socket under ``tmp_path``; every booted daemon stops at teardown."""
    started = []

    def boot(address=None, **kwargs):
        d = ThreadedDaemon(address or service_address(tmp_path), **kwargs)
        started.append(d)
        return d

    yield boot
    for d in started:
        d.stop()
