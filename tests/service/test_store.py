"""The result store's memory and disk tiers."""

from repro.service.store import ResultStore, cacheable


class TestResultStore:
    def test_memory_then_disk_promotion(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        store = ResultStore(path)
        store.put("k", {"status": "safe", "degraded": False})
        fresh = ResultStore(path)
        result, tier = fresh.get("k")
        assert tier == "disk" and result["status"] == "safe"
        _, tier2 = fresh.get("k")
        assert tier2 == "memory"  # promoted on first disk hit

    def test_degraded_results_dropped(self, tmp_path):
        store = ResultStore(str(tmp_path / "verdicts.jsonl"))
        assert store.put("k", {"status": "unknown", "degraded": True}) is False
        assert store.get("k") == (None, None)
        assert not cacheable({"degraded": True})
        assert cacheable({"status": "safe", "degraded": False})

    def test_memory_only_store(self):
        store = ResultStore(None)
        store.put("k", {"status": "safe"})
        assert store.get("k")[1] == "memory"
        assert "disk_entries" not in store.stats()

    def test_memory_tier_is_a_bounded_lru(self, tmp_path):
        store = ResultStore(str(tmp_path / "verdicts.jsonl"), max_memory=2)
        store.put("a", {"status": "safe"})
        store.put("b", {"status": "safe"})
        assert store.get("a")[1] == "memory"  # refresh a
        store.put("c", {"status": "safe"})  # evicts b (LRU)
        assert store.stats()["memory_entries"] == 2
        assert store.get("a")[1] == "memory"
        # b was evicted from memory but persists on disk; the disk hit
        # promotes it back (evicting c, now the least recently used).
        assert store.get("b")[1] == "disk"
        assert store.stats()["memory_entries"] == 2
        assert store.get("c")[1] == "disk"

    def test_memory_only_lru_drops_oldest(self):
        store = ResultStore(None, max_memory=1)
        store.put("a", {"status": "safe"})
        store.put("b", {"status": "safe"})
        assert store.get("a") == (None, None)
        assert store.get("b")[1] == "memory"
