"""AnalysisCache and the runtime switchboard."""

from repro.perf import runtime
from repro.perf.cache import AnalysisCache
from repro.trails import OccurrenceSplit, Trail
from tests.helpers import COUNT_LOOP, compile_one


class TestRuntime:
    def test_override_restores(self):
        before = runtime.enabled()
        with runtime.override(not before):
            assert runtime.enabled() is not before
        assert runtime.enabled() is before

    def test_stats_delta(self):
        stats = runtime.PerfStats()
        stats.hit("x")
        before = stats.snapshot()
        stats.hit("x")
        stats.miss("y")
        assert stats.delta(before) == {"x": (1, 0), "y": (0, 1)}

    def test_memo_table_is_shared_and_clearable(self):
        table = runtime.memo_table("test.shared")
        table["k"] = 1
        assert runtime.memo_table("test.shared")["k"] == 1
        runtime.clear_caches()
        assert "k" not in runtime.memo_table("test.shared")


class TestAnalysisCache:
    def test_bound_result_hits_on_equal_language(self):
        cfg = compile_one(COUNT_LOOP, "count")
        trail_a = Trail.most_general(cfg)
        trail_b = Trail(cfg=cfg, dfa=trail_a.dfa, description="relabeled")
        stats = runtime.PerfStats()
        cache = AnalysisCache(stats=stats)
        calls = []
        with runtime.override(True):
            first = cache.bound_result(trail_a, lambda: calls.append(1) or "result")
            second = cache.bound_result(trail_b, lambda: calls.append(2) or "other")
        assert first == "result"
        assert second == "result"  # same language -> cached value
        assert calls == [1]
        assert stats.snapshot()["bound"] == (1, 1)

    def test_disabled_falls_through(self):
        cfg = compile_one(COUNT_LOOP, "count")
        trail = Trail.most_general(cfg)
        cache = AnalysisCache(stats=runtime.PerfStats())
        calls = []
        with runtime.override(False):
            cache.bound_result(trail, lambda: calls.append(1))
            cache.bound_result(trail, lambda: calls.append(2))
        assert calls == [1, 2]
        assert len(cache) == 0

    def test_bound_result_keys_by_fingerprint(self):
        cfg = compile_one(COUNT_LOOP, "count")
        trail = Trail.most_general(cfg)
        child = OccurrenceSplit().split(trail, cfg.branch_blocks()[0], "t")[0]
        assert child.fingerprint() != trail.fingerprint()
        cache = AnalysisCache(stats=runtime.PerfStats())
        with runtime.override(True):
            a = cache.bound_result(trail, lambda: [1])
            b = cache.bound_result(trail, lambda: [2])
            c = cache.bound_result(child, lambda: [3])
        assert a is b
        assert c == [3]
        assert len(cache) == 2
