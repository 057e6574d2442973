"""The analysis service: a resident daemon that amortizes the Blazer
pipeline across requests (docs/SERVICE.md).

One-shot ``repro analyze`` pays full process startup and a cold cache
per query.  The service keeps the expensive pieces resident:
:class:`~repro.service.aio.AsyncAnalysisDaemon` (``repro serve``) puts
one event loop in front of N breaker-guarded worker shards
(:mod:`repro.service.shard`) with admission control
(:mod:`repro.service.admission`), coalesces identical in-flight
submissions onto one job by content fingerprint
(:func:`~repro.service.jobs.job_key`), and keeps a persistent
disk-backed result store shared across restarts and worker processes.
Clients speak a newline-delimited-JSON protocol over a Unix or TCP
socket via :class:`~repro.service.client.ServiceClient` or the
pipelining :class:`~repro.service.aioclient.AsyncServiceClient`, or
from the shell with ``repro serve`` / ``repro submit`` /
``repro status``.  SIGTERM drains gracefully.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.client import ServiceClient
from repro.service.jobs import job_key
from repro.service.store import ResultStore

__all__ = [
    "AdmissionController",
    "AsyncAnalysisDaemon",
    "AsyncServiceClient",
    "ServiceClient",
    "TokenBucket",
    "job_key",
    "ResultStore",
]


def __getattr__(name):  # lazy: keep `import repro.service` free of asyncio
    if name == "AsyncAnalysisDaemon":
        from repro.service.aio import AsyncAnalysisDaemon

        return AsyncAnalysisDaemon
    if name == "AsyncServiceClient":
        from repro.service.aioclient import AsyncServiceClient

        return AsyncServiceClient
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
