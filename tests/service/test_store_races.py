"""Bounded state under concurrency: job retention, LRU races, restarts.

The resident daemon's promise is that its footprint tracks *concurrent*
load, not lifetime traffic — settled job records and memory-tier
verdicts are both bounded.  These tests check the daemon's settled-job
retention, hammer the store's bounds from many threads, and prove a
drained restart still answers from the disk tier.
"""

import threading

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, parse_spec
from repro.service import ServiceClient, aio
from repro.service.aio import AsyncAnalysisDaemon, AsyncJob
from repro.service.jobs import SETTLED_RETENTION
from repro.service.store import MEMORY_TIER_LIMIT, ResultStore
from repro.util.errors import ServiceError

pytestmark = pytest.mark.service

BOOM_SRC = "proc boom(public x: int): int { return x; }\n"


def _payload(n):
    return {"source": "src-%d" % n, "proc": "p"}


@pytest.fixture
def retention(monkeypatch):
    """``retention(n)`` shrinks the daemon's settled-job retention to n."""
    return lambda n: monkeypatch.setattr(aio, "SETTLED_RETENTION", n)


def _daemon():
    return AsyncAnalysisDaemon("tcp:127.0.0.1:0", shards=1, isolation="thread")


def _register(daemon, n, key=None):
    """An unsettled job, indexed the way the submit path indexes it."""
    job = AsyncJob(id="ajob-%d" % n, key=key or "k%d" % n, payload=_payload(n))
    daemon._active[job.key] = job
    daemon._jobs[job.id] = job
    return job


class TestSettledEviction:
    def test_settled_jobs_evict_oldest_first(self, retention):
        retention(5)
        daemon = _daemon()
        finished = []
        for n in range(12):
            job = _register(daemon, n)
            daemon._finish(job, result={"n": n})
            finished.append(job.id)
        # Only the five youngest settled records survive.
        for old_id in finished[:-5]:
            assert old_id not in daemon._jobs
        for young_id in finished[-5:]:
            assert young_id in daemon._jobs
        assert len(daemon._jobs) == 5

    def test_active_jobs_are_never_evicted(self, retention):
        retention(2)
        daemon = _daemon()
        survivor = _register(daemon, 999, key="survivor")
        for n in range(10):
            daemon._finish(_register(daemon, n), result={})
        assert daemon._jobs[survivor.id] is survivor
        assert daemon._active == {"survivor": survivor}

    def test_eviction_drops_only_the_queue_reference(self, retention):
        retention(1)
        daemon = _daemon()
        first = _register(daemon, 1)
        daemon._finish(first, result={"keep": True})
        daemon._finish(_register(daemon, 2), result={})
        # ``first`` was evicted from the index, but a handler holding the
        # object still reads its settled state.
        assert first.id not in daemon._jobs
        assert first.settled
        assert first.result == {"keep": True}
        assert first.done.is_set()

    def test_default_retention_matches_module_constant(self):
        assert aio.SETTLED_RETENTION == SETTLED_RETENTION

    def test_resubmission_after_eviction_is_a_fresh_job(
        self, retention, threaded_daemon
    ):
        retention(1)
        faults.install(FaultPlan([parse_spec("worker.run:error:match=boom@1+")]))
        try:
            d = threaded_daemon()
            with ServiceClient(d.address) as client:
                first = client.submit(BOOM_SRC, wait=True)
                again = client.submit(BOOM_SRC, wait=True)
                assert first["state"] == again["state"] == "failed"
                # Failed jobs are not cached and settled jobs never
                # absorb submissions: the resubmission runs fresh ...
                assert again["job"] != first["job"]
                assert again.get("coalesced") is False
                assert client.stats()["executed"] == 2
                # ... and its settling evicted the first record.
                with pytest.raises(ServiceError, match="no job"):
                    client.status(first["job"])
                assert client.status(again["job"])["job"] == again["job"]
        finally:
            faults.clear()


class TestStoreLRURaces:
    def test_memory_tier_stays_bounded_under_concurrent_churn(self, tmp_path):
        store = ResultStore(str(tmp_path / "verdicts.jsonl"), max_memory=8)
        errors = []
        barrier = threading.Barrier(6)

        def churn(worker):
            try:
                barrier.wait(timeout=5)
                for n in range(120):
                    key = "w%d-k%d" % (worker, n % 20)
                    store.put(key, {"worker": worker, "n": n % 20})
                    result, tier = store.get(key)
                    assert result is not None
                    assert tier in ("memory", "disk")
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = store.stats()
        assert stats["memory_entries"] <= 8
        # Nothing was lost: every key evicted from memory re-reads from
        # disk and promotes back into the LRU.
        for worker in range(6):
            for n in range(20):
                result, tier = store.get("w%d-k%d" % (worker, n))
                assert result == {"worker": worker, "n": n}

    def test_eviction_prefers_least_recently_used(self, tmp_path):
        store = ResultStore(str(tmp_path / "verdicts.jsonl"), max_memory=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.get("a")  # refresh a: b is now the LRU entry
        store.put("c", {"v": 3})  # evicts b from memory
        assert store.get("a")[1] == "memory"
        assert store.get("c")[1] == "memory"
        assert store.get("b")[1] == "disk"  # survived on disk, promoted

    def test_default_capacity_matches_module_constant(self):
        assert ResultStore()._max_memory == MEMORY_TIER_LIMIT


class TestRestartMidCampaign:
    def test_fresh_store_on_same_path_serves_prior_verdicts(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        first = ResultStore(path)
        for n in range(25):
            first.put("key-%d" % n, {"digest": "d%d" % n})
        receipt = first.flush()
        assert receipt["disk_entries"] == 25
        # The restarted daemon builds a cold store over the same file:
        # every verdict answers from disk and promotes into memory.
        second = ResultStore(path)
        assert second.stats()["memory_entries"] == 0
        for n in range(25):
            result, tier = second.get("key-%d" % n)
            assert result == {"digest": "d%d" % n}
            assert tier == "disk"
        result, tier = second.get("key-7")
        assert tier == "memory"

    def test_degraded_results_never_persist_across_restart(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        first = ResultStore(path)
        assert first.put("tired", {"status": "unknown", "degraded": True}) is False
        assert first.put("fresh", {"status": "safe"}) is True
        second = ResultStore(path)
        assert second.get("tired") == (None, None)
        assert second.get("fresh")[0] == {"status": "safe"}

    def test_concurrent_writers_one_reader_across_restart(self, tmp_path):
        # Two stores share the file (the daemon and a worker process in
        # miniature); a third, booted later, folds both in via refresh.
        path = str(tmp_path / "verdicts.jsonl")
        writer_a = ResultStore(path)
        writer_b = ResultStore(path)
        done = threading.Barrier(2)

        def write(store, prefix):
            for n in range(30):
                store.put("%s-%d" % (prefix, n), {"from": prefix})
            done.wait(timeout=5)

        threads = [
            threading.Thread(target=write, args=(writer_a, "a")),
            threading.Thread(target=write, args=(writer_b, "b")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        restarted = ResultStore(path)
        stats = restarted.flush()
        assert stats["disk_entries"] == 60
        assert restarted.get("a-29")[0] == {"from": "a"}
        assert restarted.get("b-0")[0] == {"from": "b"}
