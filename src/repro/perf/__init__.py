"""Performance layer: content-addressed caching and worker-pool fan-out.

Everything here is behaviour-preserving: with the layer enabled the
analyses return byte-identical results, just faster.  ``REPRO_PERF=0``
(scoped: :func:`repro.perf.runtime.override`; per driver:
``BlazerConfig(cache=False)``) is the one switch: it falls back to the
unmemoized seed engine, the incremental re-analysis plane included.
See ``docs/PERFORMANCE.md`` for the design.
"""

from repro.perf.runtime import (
    STATS,
    PerfStats,
    clear_caches,
    enabled,
    override,
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
)
from repro.perf.pool import WarmPool, effective_workers, shared_pool

__all__ = [
    "STATS",
    "PerfStats",
    "clear_caches",
    "enabled",
    "override",
    "cfg_fingerprint",
    "dfa_canonical",
    "dfa_fingerprint",
    "trail_fingerprint",
    "AnalysisCache",
    "default_jobs",
    "process_pool_usable",
    "resolve_jobs",
    "WarmPool",
    "effective_workers",
    "shared_pool",
]
