"""The persistent disk tier: durability, integrity, quarantine."""

import json
import threading

from repro.perf import runtime
from repro.perf.disktier import QUARANTINE_EVENT, DiskTier, payload_digest


def _tier(tmp_path, stats=None):
    return DiskTier(
        str(tmp_path / "tier.jsonl"), stats=stats or runtime.PerfStats()
    )


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        tier = _tier(tmp_path)
        tier.put("k", {"status": "safe"})
        assert tier.get("k") == {"status": "safe"}
        assert "k" in tier and len(tier) == 1

    def test_absent_key_is_none(self, tmp_path):
        assert _tier(tmp_path).get("nope") is None

    def test_survives_reopen(self, tmp_path):
        _tier(tmp_path).put("k", [1, 2, 3])
        reopened = _tier(tmp_path)
        assert reopened.get("k") == [1, 2, 3]

    def test_last_writer_wins(self, tmp_path):
        tier = _tier(tmp_path)
        tier.put("k", "old")
        tier.put("k", "new")
        assert tier.get("k") == "new"
        assert _tier(tmp_path).get("k") == "new"

    def test_refresh_sees_other_writers(self, tmp_path):
        reader = _tier(tmp_path)
        writer = _tier(tmp_path)
        writer.put("k", "v")
        assert reader.get("k") is None
        reader.refresh()
        assert reader.get("k") == "v"

    def test_clear(self, tmp_path):
        tier = _tier(tmp_path)
        tier.put("k", "v")
        tier.clear()
        assert tier.get("k") is None
        assert _tier(tmp_path).get("k") is None


class TestIntegrity:
    def _corrupt(self, tmp_path, mutate):
        path = tmp_path / "tier.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        mutate(records)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_tampered_payload_is_quarantined(self, tmp_path):
        stats = runtime.PerfStats()
        _tier(tmp_path).put("k", {"status": "safe"})

        def flip(records):
            records[-1]["result"]["payload"]["status"] = "attack"

        self._corrupt(tmp_path, flip)
        tier = _tier(tmp_path, stats=stats)
        assert tier.get("k") is None  # never the tampered value
        assert tier.quarantined == 1
        assert stats.events_snapshot().get(QUARANTINE_EVENT) == 1

    def test_malformed_record_is_quarantined(self, tmp_path):
        _tier(tmp_path).put("k", "v")

        def strip(records):
            records[-1]["result"] = {"digest": "x"}  # no payload at all

        self._corrupt(tmp_path, strip)
        tier = _tier(tmp_path)
        assert tier.get("k") is None
        assert tier.quarantined == 1

    def test_quarantined_key_can_be_rewritten(self, tmp_path):
        _tier(tmp_path).put("k", "v")
        self._corrupt(
            tmp_path, lambda rs: rs[-1]["result"].__setitem__("digest", "bogus")
        )
        tier = _tier(tmp_path)
        assert tier.get("k") is None
        tier.put("k", "healed")
        assert tier.get("k") == "healed"

    def test_digest_is_canonical(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


class TestPickledPayloads:
    def test_round_trip(self, tmp_path):
        tier = _tier(tmp_path)
        value = {"bound": (1, 2), "exact": True}
        assert tier.put_pickled("k", value)
        assert tier.get_pickled("k") == value
        assert _tier(tmp_path).get_pickled("k") == value

    def test_unpicklable_is_skipped_silently(self, tmp_path):
        tier = _tier(tmp_path)
        assert tier.put_pickled("k", threading.Lock()) is False
        assert tier.get_pickled("k") is None
        assert tier.quarantined == 0  # a skip, not a corruption

    def test_plain_entry_is_not_unpickled(self, tmp_path):
        tier = _tier(tmp_path)
        tier.put("k", {"status": "safe"})
        assert tier.get_pickled("k") is None

    def test_real_bound_results_round_trip(self, tmp_path):
        """Bound results hold zone states whose identity memos are weak
        references; pickling must drop those derived slots, or every
        disk-tier write of a real result is silently skipped."""
        from repro.benchsuite import FULL_SUITE
        from repro.bounds.analysis import BoundResult
        from repro.core.blazer import Blazer
        from repro.perf.cache import entry_digest

        bench = FULL_SUITE.get("modPow1_unsafe")
        with runtime.override(True):
            runtime.clear_caches()
            blazer = Blazer.from_source(bench.source, bench.config())
            blazer.analyze(bench.proc)
        results = {
            key: value
            for key, (value, _) in blazer.cache._bounds.items()
            if isinstance(value, BoundResult) and value.main is not None
        }
        assert results
        tier = _tier(tmp_path)
        for key, value in results.items():
            assert tier.put_pickled(key, value) is True
        reopened = _tier(tmp_path)
        for key, value in results.items():
            back = reopened.get_pickled(key)
            assert isinstance(back, BoundResult)
            assert entry_digest(back) == entry_digest(value)
