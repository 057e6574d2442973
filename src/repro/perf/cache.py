"""The analysis cache: trail-keyed bound results.

One :class:`AnalysisCache` is owned by each :class:`~repro.core.blazer.
Blazer` instance, so its entries are implicitly keyed by that driver's
fixed configuration (numeric domain, summary registry, interprocedural
bounds) and only the *varying* inputs — the trail and its CFG — appear
in the key.  Keys are the content fingerprints of
:mod:`repro.perf.fingerprint`, which makes the cache robust to the
driver re-deriving an equal trail through a different refinement route
(the common case in the attack phase, where occurrence splits on the
two edges of one branch produce pairwise-equal sibling languages).

Invalidation: there is none, by construction — every cached value is a
pure function of its content-addressed key, and the cache dies with its
driver.  ``repro.perf.runtime.clear_caches()`` clears the process-wide
memo tables (domain closures, transfer effects) the same way.

Self-healing (docs/RESILIENCE.md): every entry is stored alongside a
checksum of its rendered content, verified on read.  A mismatch —
memory corruption, a buggy mutation of a supposedly-immutable cached
object, or an injected ``cache.get:corrupt`` fault — **quarantines**
the entry: it is evicted, counted (``cache.quarantine`` on
:data:`repro.perf.runtime.STATS`), and transparently recomputed.  A
corrupt cache can therefore cost time but never wrong answers.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Callable, Dict, Optional, Tuple

from repro.obs.trace import span as trace_span
from repro.perf import runtime
from repro.perf.disktier import DiskTier
from repro.perf.fingerprint import trail_fingerprint
from repro.resilience import faults
from repro.util.errors import CacheCorruption

log = logging.getLogger(__name__)


def entry_digest(value: object) -> str:
    """Checksum of an entry's rendered content.

    ``str()`` is the cheapest stable rendering the cached objects offer
    (BoundResult and CostBound render their semantic content); hashing
    it costs microseconds against analysis steps that cost milliseconds.
    """
    return hashlib.sha1(str(value).encode("utf-8", "replace")).hexdigest()


class AnalysisCache:
    """Memoized analysis results for one driver instance.

    ``disk`` attaches an optional persistent tier below the in-memory
    one (docs/SERVICE.md): trail-keyed bound results missing from
    memory are looked up there (category ``bound.disk``) before being
    recomputed, and fresh results are written through, so they survive
    the driver — and the process — that computed them.

    The in-memory tiers need no scope: they die with the driver, whose
    configuration is fixed.  The *disk* tier is shared across drivers,
    configurations, and programs, and a bound result is a function of
    the abstract domain, the summary registry, and every callee body —
    not just its trail.  ``disk_scope`` (the
    :func:`~repro.perf.fingerprint.analysis_scope_fingerprint` of the
    owning driver) therefore namespaces every persisted entry; an entry
    written under one scope is invisible to every other.  *Degraded*
    bound results (⊤ substitutes after budget exhaustion) are never
    written or served — they describe a request's deadline, not the
    trail.
    """

    def __init__(
        self,
        stats: runtime.PerfStats = runtime.STATS,
        disk: Optional[DiskTier] = None,
        disk_scope: str = "",
    ):
        self._stats = stats
        self._disk = disk
        self._disk_scope = disk_scope
        self._bounds: Dict[str, Tuple[object, str]] = {}
        self.quarantined = 0

    # -- integrity ----------------------------------------------------------------

    def _checked(self, category: str, key, entry: Tuple[object, str]):
        """Return the entry's value, or raise :class:`CacheCorruption`.

        The ``cache.get`` fault site garbles the *stored checksum* (not
        the value) so an injected corruption is detected exactly the way
        a real one would be.
        """
        value, digest = entry
        if faults.maybe_fire("cache.get", key=str(key)) == "corrupt":
            digest = "corrupted:" + digest
        if entry_digest(value) != digest:
            raise CacheCorruption(
                "cache entry %r/%r failed its checksum" % (category, key),
                key=str(key),
                category=category,
            )
        return value

    def _quarantine(self, category: str, exc: CacheCorruption) -> None:
        self.quarantined += 1
        self._stats.event("cache.quarantine")
        log.warning("quarantined corrupt cache entry: %s", exc)

    # -- trail-keyed bound results ------------------------------------------------

    def bound_result(self, trail, compute: Callable[[], object]):
        """The memoized ``BoundAnalysis.compute()`` result for ``trail``.

        Falls through to ``compute()`` (uncached) when the perf layer is
        disabled.
        """
        if not runtime.enabled():
            return compute()
        # Trail objects cache their own fingerprint; fall back to the
        # free function for bare trail-likes.
        fp = getattr(trail, "fingerprint", None)
        key = fp() if fp is not None else trail_fingerprint(trail)
        entry = self._bounds.get(key)
        if entry is not None:
            try:
                value = self._checked("bound", key, entry)
            except CacheCorruption as exc:
                del self._bounds[key]
                self._quarantine("bound", exc)
            else:
                self._stats.hit("bound")
                return value
        self._stats.miss("bound")
        if self._disk is not None:
            with trace_span("cache.disk_get", key=key):
                value = self._disk.get_pickled(self._disk_key(key))
            if value is not None and not getattr(value, "degraded", False):
                self._stats.hit("bound.disk")
                self._bounds[key] = (value, entry_digest(value))
                return value
            self._stats.miss("bound.disk")
        result = compute()
        self._bounds[key] = (result, entry_digest(result))
        if self._disk is not None and not getattr(result, "degraded", False):
            with trace_span("cache.disk_put", key=key):
                self._disk.put_pickled(self._disk_key(key), result)
        return result

    def _disk_key(self, key: str) -> str:
        if self._disk_scope:
            return "bound/%s/%s" % (self._disk_scope, key)
        return "bound/" + key

    def clear(self) -> None:
        """Empty the in-memory tiers and reset quarantine bookkeeping.

        A cleared cache has no entries left to distrust, so it retracts
        *its own* quarantines from the shared ``cache.quarantine``
        counter in :class:`PerfStats` — and only its own: other cache
        instances reporting to the same stats object keep their counts.
        The disk tier (if any) is deliberately left alone — it outlives
        drivers by design; use ``DiskTier.clear()`` to purge it.
        """
        self._bounds.clear()
        if self.quarantined:
            self._stats.discount_event("cache.quarantine", self.quarantined)
        self.quarantined = 0

    def __len__(self) -> int:
        return len(self._bounds)
