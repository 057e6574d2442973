"""Cache self-healing: corrupt entries are detected, quarantined, recomputed."""

import pytest

from repro.perf import runtime
from repro.perf.cache import AnalysisCache, entry_digest
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, parse_spec

pytestmark = pytest.mark.resilience


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    yield
    faults.clear()


class TestEntryDigest:
    def test_stable_for_equal_renderings(self):
        assert entry_digest([1, 2]) == entry_digest([1, 2])
        assert entry_digest([1, 2]) != entry_digest([1, 3])


class FakeTrail:
    """A trail-like key: ``bound_result`` only asks for a fingerprint."""

    def fingerprint(self):
        return "fp"


TRAIL = FakeTrail()


class TestQuarantine:
    def test_clean_entries_hit(self):
        with runtime.override(True):
            cache = AnalysisCache()
            assert cache.bound_result(TRAIL, lambda: [1]) == [1]
            assert cache.bound_result(TRAIL, lambda: [2]) == [1]
            assert cache.quarantined == 0

    def test_mutated_entry_is_quarantined_and_recomputed(self):
        with runtime.override(True):
            cache = AnalysisCache()
            value = cache.bound_result(TRAIL, lambda: [1, 2])
            value.append(99)  # corrupt the supposedly-immutable entry
            healed = cache.bound_result(TRAIL, lambda: ["fresh"])
            assert healed == ["fresh"]
            assert cache.quarantined == 1
            # The recomputed entry is healthy again.
            assert cache.bound_result(TRAIL, lambda: ["newer"]) == ["fresh"]
            assert cache.quarantined == 1

    def test_injected_corruption_is_quarantined(self):
        with runtime.override(True):
            cache = AnalysisCache()
            cache.bound_result(TRAIL, lambda: "v")
            faults.install(FaultPlan([parse_spec("cache.get:corrupt")]))
            assert cache.bound_result(TRAIL, lambda: "recomputed") == "recomputed"
            assert cache.quarantined == 1

    def test_quarantine_counts_to_stats_event(self):
        with runtime.override(True):
            before = runtime.STATS.events_snapshot()
            cache = AnalysisCache()
            cache.bound_result(TRAIL, lambda: "v")
            faults.install(FaultPlan([parse_spec("cache.get:corrupt")]))
            cache.bound_result(TRAIL, lambda: "recomputed")
            delta = runtime.STATS.events_delta(before)
            assert delta.get("cache.quarantine") == 1

    def test_bound_result_path_heals_too(self):
        with runtime.override(True):
            cache = AnalysisCache()
            assert cache.bound_result(TRAIL, lambda: [10]) == [10]
            assert cache.bound_result(TRAIL, lambda: [20]) == [10]  # clean hit
            cache._bounds["fp"][0].append(1)  # corrupt it
            assert cache.bound_result(TRAIL, lambda: [30]) == [30]
            assert cache.quarantined == 1

    def test_disabled_runtime_bypasses_cache_and_checks(self):
        with runtime.override(False):
            cache = AnalysisCache()
            assert cache.bound_result(TRAIL, lambda: [1]) == [1]
            assert cache.bound_result(TRAIL, lambda: [2]) == [2]
            assert len(cache) == 0


class TestClearResetsQuarantine:
    def test_clear_zeroes_counter_and_stats_event(self):
        with runtime.override(True):
            stats = runtime.PerfStats()
            cache = AnalysisCache(stats=stats)
            cache.bound_result(TRAIL, lambda: "v")
            faults.install(FaultPlan([parse_spec("cache.get:corrupt")]))
            cache.bound_result(TRAIL, lambda: "recomputed")
            faults.clear()
            assert cache.quarantined == 1
            assert stats.events_snapshot().get("cache.quarantine") == 1
            cache.clear()
            assert len(cache) == 0
            assert cache.quarantined == 0
            assert stats.events_snapshot().get("cache.quarantine") is None

    def test_clear_leaves_other_events_alone(self):
        with runtime.override(True):
            stats = runtime.PerfStats()
            stats.event("unrelated.event")
            AnalysisCache(stats=stats).clear()
            assert stats.events_snapshot().get("unrelated.event") == 1

    def test_clear_discounts_only_own_contribution(self):
        """Two caches share one stats object: clearing one retracts its
        own quarantines and leaves the other's standing."""
        with runtime.override(True):
            stats = runtime.PerfStats()
            first = AnalysisCache(stats=stats)
            second = AnalysisCache(stats=stats)
            for cache in (first, second):
                cache.bound_result(TRAIL, lambda: "v")
            faults.install(FaultPlan([parse_spec("cache.get:corrupt@1+")]))
            for cache in (first, second):
                cache.bound_result(TRAIL, lambda: "recomputed")
            faults.clear()
            assert stats.events_snapshot().get("cache.quarantine") == 2
            first.clear()
            assert first.quarantined == 0
            assert second.quarantined == 1
            assert stats.events_snapshot().get("cache.quarantine") == 1
            second.clear()
            assert stats.events_snapshot().get("cache.quarantine") is None


class TestDiskBackedBounds:
    def test_disk_hit_across_cache_instances(self, tmp_path):
        from repro.perf.disktier import DiskTier

        path = str(tmp_path / "bounds.jsonl")
        with runtime.override(True):
            stats = runtime.PerfStats()
            warm = AnalysisCache(stats=stats, disk=DiskTier(path, stats=stats))
            assert warm.bound_result(TRAIL, lambda: [10]) == [10]
            # A fresh cache (fresh driver, maybe a fresh process) warms
            # up from the shared disk tier instead of recomputing.
            cold = AnalysisCache(stats=stats, disk=DiskTier(path, stats=stats))
            assert cold.bound_result(TRAIL, lambda: ["MISS"]) == [10]
            snap = stats.snapshot()
            # One disk miss (the cold write) and one disk hit (the warm read).
            assert snap["bound.disk"] == (1, 1)

    def test_disk_scope_isolates_configurations(self, tmp_path):
        """Entries written under one analysis scope (domain, summaries,
        module) are invisible to caches opened under another — a bound
        computed for configuration A must never answer configuration B."""
        from repro.perf.disktier import DiskTier

        path = str(tmp_path / "bounds.jsonl")
        with runtime.override(True):
            stats = runtime.PerfStats()
            zone = AnalysisCache(
                stats=stats, disk=DiskTier(path, stats=stats), disk_scope="scope-A"
            )
            assert zone.bound_result(TRAIL, lambda: ["A"]) == ["A"]
            other = AnalysisCache(
                stats=stats, disk=DiskTier(path, stats=stats), disk_scope="scope-B"
            )
            assert other.bound_result(TRAIL, lambda: ["B"]) == ["B"]
            # Same scope still warms up across instances.
            warm = AnalysisCache(
                stats=stats, disk=DiskTier(path, stats=stats), disk_scope="scope-A"
            )
            assert warm.bound_result(TRAIL, lambda: ["MISS"]) == ["A"]

    def test_degraded_bound_results_never_persist(self, tmp_path):
        """A ⊤ substitute after budget exhaustion describes a deadline,
        not the trail: it must not be written to (or served from) the
        shared persistent tier."""
        from repro.bounds.analysis import BoundResult
        from repro.bounds.cost import CostBound
        from repro.perf.disktier import DiskTier

        path = str(tmp_path / "bounds.jsonl")
        degraded = BoundResult(
            feasible=True, bound=CostBound.unbounded(), degraded=True
        )
        with runtime.override(True):
            stats = runtime.PerfStats()
            tier = DiskTier(path, stats=stats)
            cache = AnalysisCache(stats=stats, disk=tier)
            assert cache.bound_result(TRAIL, lambda: degraded) is degraded
            assert len(tier) == 0  # nothing written
            fresh = AnalysisCache(stats=stats, disk=DiskTier(path, stats=stats))
            assert fresh.bound_result(TRAIL, lambda: "clean") == "clean"

    def test_clear_leaves_disk_tier_alone(self, tmp_path):
        from repro.perf.disktier import DiskTier

        path = str(tmp_path / "bounds.jsonl")
        with runtime.override(True):
            stats = runtime.PerfStats()
            cache = AnalysisCache(stats=stats, disk=DiskTier(path, stats=stats))
            cache.bound_result(TRAIL, lambda: [10])
            cache.clear()
            assert len(cache) == 0
            # The persistent tier outlives the driver by design.
            again = AnalysisCache(stats=stats, disk=DiskTier(path, stats=stats))
            assert again.bound_result(TRAIL, lambda: ["MISS"]) == [10]
