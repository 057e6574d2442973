"""Performance layer: content-addressed caching and worker-pool fan-out.

Everything here is behaviour-preserving: with the layer enabled the
analyses return byte-identical results, just faster.  Set the
environment variable ``REPRO_PERF=0`` (or call
:func:`repro.perf.runtime.set_enabled`) to fall back to the unmemoized
seed engine.  See ``docs/PERFORMANCE.md`` for the design.
"""

from repro.perf.runtime import (
    STATS,
    PerfStats,
    clear_caches,
    enabled,
    override,
    set_enabled,
)
from repro.perf.fingerprint import (
    cfg_fingerprint,
    dfa_canonical,
    dfa_fingerprint,
    trail_fingerprint,
)
from repro.perf.cache import AnalysisCache
from repro.perf.parallel import (
    default_jobs,
    process_pool_usable,
    resolve_jobs,
    thread_map_chunked,
)
from repro.perf.pool import WarmPool, effective_workers, shared_pool

__all__ = [
    "STATS",
    "PerfStats",
    "clear_caches",
    "enabled",
    "override",
    "set_enabled",
    "cfg_fingerprint",
    "dfa_canonical",
    "dfa_fingerprint",
    "trail_fingerprint",
    "AnalysisCache",
    "default_jobs",
    "process_pool_usable",
    "resolve_jobs",
    "thread_map_chunked",
    "WarmPool",
    "effective_workers",
    "shared_pool",
]
