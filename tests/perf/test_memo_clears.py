"""Wholesale memo clears are counted, and never change an answer.

Every bounded table — the named memo tables, the per-CFG memo, the
transfer memo, the interned DBMs and the zone index dicts — clears
itself through :func:`repro.perf.runtime.bounded`, which counts the
clear as the event ``memo.clear.<table>``.
"""

from repro.benchsuite import FULL_SUITE
from repro.core.blazer import Blazer
from repro.core.report import verdict_digest
from repro.domains import dbm, zone
from repro.perf import runtime

TABLES = ("zone.close", "cfg", "transfer", "dbm.intern", "zone.index")


def _clears(before):
    delta = runtime.STATS.events_delta(before)
    return {name: delta.get("memo.clear." + name, 0) for name in TABLES}


def _analyze(bench):
    runtime.clear_caches()
    dbm.clear_interned()
    return Blazer.from_source(bench.source, bench.config()).analyze(bench.proc)


class TestBounded:
    def test_clear_at_limit_is_counted(self, monkeypatch):
        monkeypatch.setattr(runtime, "TABLE_LIMIT", 2)
        before = runtime.STATS.events_snapshot()
        table = runtime.memo_table("test.bounded")
        table.clear()
        table.update(a=1)
        assert runtime.memo_table("test.bounded") == {"a": 1}
        table["b"] = 2
        assert runtime.memo_table("test.bounded") == {}
        assert runtime.STATS.events_delta(before) == {"memo.clear.test.bounded": 1}

    def test_explicit_limit_overrides_the_default(self):
        before = runtime.STATS.events_snapshot()
        table = {"a": 1}
        assert runtime.bounded("test.explicit", table, 2) is table
        assert table == {"a": 1}
        runtime.bounded("test.explicit", table, 1)
        assert table == {}
        assert runtime.STATS.events_delta(before) == {"memo.clear.test.explicit": 1}


class TestAnalysisUnderTinyLimits:
    def test_every_table_clears_and_the_verdict_holds(self, monkeypatch):
        bench = next(b for b in FULL_SUITE if b.name == "modPow1_unsafe")
        with runtime.override(True):
            reference = _analyze(bench)
            before = runtime.STATS.events_snapshot()
            monkeypatch.setattr(runtime, "TABLE_LIMIT", 3)
            monkeypatch.setattr(dbm, "_INTERN_LIMIT", 2)
            monkeypatch.setattr(zone, "_INDEX_LIMIT", 1)
            zone._INDEX_CACHE.clear()
            verdict = _analyze(bench)
        clears = _clears(before)
        assert all(clears.values()), clears
        assert verdict.status == reference.status
        assert verdict_digest(verdict) == verdict_digest(reference)
        assert verdict.cache_events.get("memo.clear.zone.close") == clears["zone.close"]
