"""Process-wide switchboard of the perf layer: the enable flag, the
hit/miss statistics, and the registry of memo tables.

This module is a dependency leaf (it imports nothing from ``repro``) so
that the hot modules — the zone domain, the transfer functions, the
driver — can consult it without import cycles.

Design rules
------------
* **One flag.**  ``enabled()`` gates every memo and fast path of the
  perf layer at once, the incremental re-analysis plane included.  Set
  it with ``REPRO_PERF=0``, scope it with :func:`override`, or pin it
  per driver with ``BlazerConfig(cache=...)``.  With the flag off the
  tool behaves exactly like the unmemoized seed engine — the reference
  the differential batteries compare against, and the "serial"
  baseline ``benchmarks/bench_perf.py`` measures speedups against.
* **Counters are per process.**  ``STATS`` accumulates hits/misses per
  category; callers that want a per-task view (the Blazer driver)
  snapshot before and diff after.
* **Tables are bounded.**  Every memo table obtained from
  :func:`memo_table` or :func:`cfg_memo` (and the transfer memo, the
  interned DBMs and the zone index dicts) is wholesale-cleared by
  :func:`bounded` once it holds its limit of entries — analyses are
  small, so this is a backstop against pathological long-running
  processes, not an LRU policy.  Each clear counts as the event
  ``memo.clear.<table>``, so ``events_snapshot()`` shows how often
  memoized work was thrown away.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

# Hard cap per memo table; reaching it clears the table (cheap, rare).
TABLE_LIMIT = 100_000

_ENABLED = os.environ.get("REPRO_PERF", "1") not in ("0", "false", "off")


def enabled() -> bool:
    """Is the perf layer (caching, fast paths and the incremental
    re-analysis plane) active in this process?"""
    return _ENABLED


@contextmanager
def override(flag: bool) -> Iterator[None]:
    """Temporarily force the perf layer on or off."""
    global _ENABLED
    saved = _ENABLED
    _ENABLED = bool(flag)
    try:
        yield
    finally:
        _ENABLED = saved


class PerfStats:
    """Hit/miss counters, one pair per cache category.

    Categories in use: ``zone.close``, ``bounds.transition`` (seeded
    loop transition relations), ``trail.regex`` (interned state
    eliminations), ``transfer`` (block effects), ``cfg_meta`` (input
    symbols / levels), ``taint``, ``bound`` (trail-keyed bound
    results).  Zone ``join``/``leq`` use zero-key single-slot identity
    memos on the states themselves and report no counters.

    The incremental plane (docs/PERFORMANCE.md) adds: ``refine.reuse``
    (parent loop artifacts revalidated and served to a split child),
    ``bounds.iterbound`` (whole iteration-bound results) and
    ``refine.split`` (interned DFA split derivations), plus the
    one-sided event ``refine.dirty`` (loops skipped as touched by the
    split constructor).
    """

    def __init__(self) -> None:
        self._counts: Dict[str, list] = {}
        self._events: Dict[str, int] = {}

    def hit(self, category: str) -> None:
        self._counts.setdefault(category, [0, 0])[0] += 1

    def miss(self, category: str) -> None:
        self._counts.setdefault(category, [0, 0])[1] += 1

    def event(self, name: str, n: int = 1) -> None:
        """Count a one-sided event (quarantines, injected faults, …) —
        things with no hit/miss duality."""
        self._events[name] = self._events.get(name, 0) + n

    def events_snapshot(self) -> Dict[str, int]:
        return dict(self._events)

    def reset_event(self, name: str) -> None:
        """Zero one event counter (e.g. ``cache.quarantine`` when the
        cache that was quarantining entries has been cleared)."""
        self._events.pop(name, None)

    def discount_event(self, name: str, n: int) -> None:
        """Subtract one contributor's share from an event counter,
        dropping it entirely when nothing remains.  This is how a
        cleared cache retracts *its own* quarantines from the shared
        process-wide counter without zeroing what other cache instances
        contributed."""
        remaining = self._events.get(name, 0) - n
        if remaining > 0:
            self._events[name] = remaining
        else:
            self._events.pop(name, None)

    def events_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Per-event counts accumulated since ``before``."""
        out: Dict[str, int] = {}
        for name, count in self._events.items():
            prior = before.get(name, 0)
            if count != prior:
                out[name] = count - prior
        return out

    @property
    def hits(self) -> int:
        return sum(pair[0] for pair in self._counts.values())

    @property
    def misses(self) -> int:
        return sum(pair[1] for pair in self._counts.values())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Tuple[int, int]]:
        return {cat: (pair[0], pair[1]) for cat, pair in self._counts.items()}

    def delta(self, before: Dict[str, Tuple[int, int]]) -> Dict[str, Tuple[int, int]]:
        """Per-category (hits, misses) accumulated since ``before``."""
        out: Dict[str, Tuple[int, int]] = {}
        for cat, (h, m) in self.snapshot().items():
            h0, m0 = before.get(cat, (0, 0))
            if h != h0 or m != m0:
                out[cat] = (h - h0, m - m0)
        return out

    def clear(self) -> None:
        self._counts.clear()
        self._events.clear()


STATS = PerfStats()

_TABLES: Dict[str, dict] = {}


def bounded(name: str, table: dict, limit: Optional[int] = None) -> dict:
    """``table``, wholesale-cleared first if it holds ``limit`` entries
    (default ``TABLE_LIMIT``); the clear counts as ``memo.clear.<name>``."""
    if len(table) >= (TABLE_LIMIT if limit is None else limit):
        table.clear()
        STATS.event("memo.clear." + name)
    return table


def memo_table(name: str) -> dict:
    """A named process-wide memo table (created on first use)."""
    table = _TABLES.get(name)
    if table is None:
        table = _TABLES[name] = {}
    return bounded(name, table)


def clear_caches() -> None:
    """Drop every memo table (used by tests and long-lived servers)."""
    for table in _TABLES.values():
        table.clear()


def cfg_memo(cfg) -> dict:
    """The memo dict attached to one CFG object (lazily created).

    Attaching to the CFG itself (rather than keying a global table by
    ``id(cfg)``) ties the memo's lifetime to the graph's and rules out
    id-reuse aliasing after garbage collection.
    """
    memo = getattr(cfg, "_perf_memo", None)
    if memo is None:
        memo = {}
        cfg._perf_memo = memo
    return bounded("cfg", memo)
