"""The daemon end to end through the blocking client: coalescing,
persistence, crash isolation.

These run the real asyncio daemon in-process (on a background event
loop, ``tests/service/conftest.py``) against real Blazer analyses of
tiny programs, so they exercise the acceptance path of
docs/SERVICE.md: one execution for concurrent identical submissions,
disk-tier hits across restarts, and injected worker faults failing
exactly one job.
"""

import threading
import time

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, parse_spec
from repro.service import ServiceClient

from tests.service.conftest import ThreadedDaemon

SAFE_SRC = """
proc check(secret pin: int, public attempts: uint): int {
    var i: int = 0;
    while (i < attempts) { i = i + 1; }
    return i;
}
"""

LEAKY_SRC = """
proc check(secret pin: int, public attempts: uint): bool {
    if (pin == 1234) {
        var i: int = 0;
        while (i < attempts) { i = i + 1; }
        return true;
    }
    return false;
}
"""

FILLER_SRC = "proc filler(public x: int): int { return x; }\n"
BOOM_SRC = "proc boom(public x: int): int { return x; }\n"


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def daemon(threaded_daemon):
    return threaded_daemon


def _wait_for_recovery(client, timeout=60.0):
    """Block until the one shard's breaker admits work again (the
    rebuild finished and half-opened it)."""
    deadline = time.monotonic() + timeout
    while client.health()["shards"][0]["state"] == "open":
        assert time.monotonic() < deadline, "shard never left quarantine"
        time.sleep(0.05)


class TestBasics:
    def test_ping_status_stats(self, daemon):
        d = daemon()
        with ServiceClient(d.address) as client:
            assert client.ping()["ok"]
            status = client.status()
            assert status["shards"] == 1
            assert status["queue_depth"] == 0
            stats = client.stats()
            assert stats["submitted"] == 0
            assert stats["uptime_seconds"] >= 0

    def test_submit_and_result_verbs(self, daemon):
        d = daemon()
        with ServiceClient(d.address) as client:
            reply = client.submit(SAFE_SRC, wait=True)
            assert reply["state"] == "done"
            assert reply["result"]["status"] == "safe"
            again = client.result(reply["job"])
            assert again["result"]["digest"] == reply["result"]["digest"]

    def test_memory_hit_on_resubmission(self, daemon):
        d = daemon()
        with ServiceClient(d.address) as client:
            first = client.submit(SAFE_SRC, wait=True)
            second = client.submit(SAFE_SRC, wait=True)
            assert second["cached"] == "memory"
            assert second["result"]["digest"] == first["result"]["digest"]
            assert client.stats()["executed"] == 1

    def test_bad_program_rejected_at_submit(self, daemon):
        d = daemon()
        with ServiceClient(d.address) as client:
            response = client.request({"op": "submit", "source": "proc oops("})
            assert response["ok"] is False
            assert client.stats()["executed"] == 0

    def test_unknown_op_rejected(self, daemon):
        d = daemon()
        with ServiceClient(d.address) as client:
            response = client.request({"op": "frobnicate"})
            assert response["ok"] is False
            assert "unknown op" in response["error"]

    def test_tcp_address_reports_bound_port(self):
        d = ThreadedDaemon("tcp:127.0.0.1:0")
        try:
            assert not d.address.endswith(":0")
            with ServiceClient(d.address) as client:
                assert client.ping()["ok"]
        finally:
            d.stop()


class TestCoalescing:
    def test_concurrent_identical_submissions_run_once(self, daemon):
        """Acceptance: two concurrent identical submissions → exactly one
        Blazer execution, digest-identical verdicts for both."""
        d = daemon()
        # Pin the single worker on a filler job long enough for both
        # real submissions to be in flight together.
        faults.install(FaultPlan([parse_spec("worker.run:delay=0.8:match=filler")]))
        with ServiceClient(d.address) as warm:
            warm.submit(FILLER_SRC, wait=False)
        replies = []

        def submit():
            with ServiceClient(d.address) as client:
                replies.append(client.submit(SAFE_SRC, wait=True))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(replies) == 2
        assert all(r["state"] == "done" for r in replies)
        digests = {r["result"]["digest"] for r in replies}
        assert len(digests) == 1
        assert replies[0]["job"] == replies[1]["job"]
        with ServiceClient(d.address) as client:
            stats = client.stats()
        assert stats["executed"] == 2  # filler + ONE coalesced execution
        assert stats["coalesced"] == 1

    def test_coalesced_job_counts_waiters(self, daemon):
        d = daemon()
        faults.install(FaultPlan([parse_spec("worker.run:delay=0.8:match=filler")]))
        with ServiceClient(d.address) as client:
            client.submit(FILLER_SRC, wait=False)
            first = client.submit(SAFE_SRC, wait=False)
            second = client.submit(SAFE_SRC, wait=False)
            assert first["job"] == second["job"]
            assert second["coalesced"] is True
            assert second["waiters"] == 2
            final = client.result(first["job"], wait=True, wait_timeout=30.0)
            assert final["state"] == "done"


class TestPersistence:
    def test_restart_serves_from_disk_without_rerunning(self, daemon, tmp_path):
        """Acceptance: after a daemon restart, resubmission is served
        from the persistent cache tier with zero executions."""
        cache_dir = str(tmp_path / "cache")
        d1 = daemon(cache_dir=cache_dir)
        with ServiceClient(d1.address) as client:
            first = client.submit(SAFE_SRC, wait=True)
            assert first["state"] == "done"
        d1.stop()

        d2 = daemon(cache_dir=cache_dir)
        with ServiceClient(d2.address) as client:
            second = client.submit(SAFE_SRC, wait=True)
            assert second["cached"] == "disk"
            assert second["result"]["digest"] == first["result"]["digest"]
            stats = client.stats()
            assert stats["executed"] == 0
            assert stats["hits_disk"] == 1

    def test_degraded_results_are_not_cached(self, daemon, tmp_path):
        d = daemon(cache_dir=str(tmp_path / "cache"))
        with ServiceClient(d.address) as client:
            first = client.submit(SAFE_SRC, wait=True, max_steps=1)
            assert first["result"]["degraded"] is True
            second = client.submit(SAFE_SRC, wait=True, max_steps=1)
            assert second.get("cached") is None  # re-analyzed, not served stale
            assert client.stats()["executed"] == 2


class TestCrashIsolation:
    def test_injected_fault_fails_only_that_job(self, daemon):
        """Acceptance: a worker.run fault fails the affected job while
        the daemon keeps serving everything else."""
        d = daemon()
        faults.install(FaultPlan([parse_spec("worker.run:error:match=boom")]))
        with ServiceClient(d.address) as client:
            doomed = client.submit(BOOM_SRC, wait=True)
            assert doomed["state"] == "failed"
            assert "InjectedFault" in doomed["error"]
            healthy = client.submit(SAFE_SRC, wait=True)
            assert healthy["state"] == "done"
            assert healthy["result"]["status"] == "safe"
            stats = client.stats()
            assert stats["failed"] == 1 and stats["completed"] == 1
            assert client.ping()["ok"]

    def test_failed_jobs_are_not_cached(self, daemon):
        d = daemon()
        faults.install(FaultPlan([parse_spec("worker.run:error:once:match=boom")]))
        with ServiceClient(d.address) as client:
            assert client.submit(BOOM_SRC, wait=True)["state"] == "failed"
            # The fault was once-only: a resubmission re-executes (no
            # poisoned cache entry) and succeeds.
            retry = client.submit(BOOM_SRC, wait=True)
            assert retry["state"] == "done"
            assert retry.get("cached") is None

    def test_transient_fault_heals_on_resubmission(self, daemon):
        """A job that raises fails once — the daemon does not re-run
        it; the client's resubmission runs fresh and succeeds."""
        d = daemon()
        faults.install(FaultPlan([parse_spec("worker.run:error:once:match=boom")]))
        with ServiceClient(d.address) as client:
            first = client.submit(BOOM_SRC, wait=True)
            assert first["state"] == "failed"
            assert first["attempts"] == 1
            again = client.submit(BOOM_SRC, wait=True)
            assert again["state"] == "done"
            assert again["job"] != first["job"]
            stats = client.stats()
            assert stats["executed"] == 2
            assert stats["retried"] == 0

    def test_process_isolation_survives_real_worker_crash(
        self, daemon, monkeypatch
    ):
        """Acceptance, the hard way: REPRO_FAULTS worker.run:crash makes
        the pool worker ``os._exit`` mid-job.  The job fails as a
        WorkerCrashed, the shard's pool is rebuilt, the daemon keeps
        serving."""
        from repro.perf.parallel import process_pool_usable

        if not process_pool_usable():
            pytest.skip("process pools unusable on this platform")
        monkeypatch.setenv("REPRO_FAULTS", "worker.run:crash:match=boom")
        d = daemon(isolation="process")
        with ServiceClient(d.address) as client:
            doomed = client.submit(BOOM_SRC, wait=True)
            assert doomed["state"] == "failed"
            assert "WorkerCrashed" in doomed["error"]
            _wait_for_recovery(client)
            healthy = client.submit(SAFE_SRC, wait=True)
            assert healthy["state"] == "done"
            assert healthy["result"]["status"] == "safe"
            shard = client.health()["shards"][0]
            assert shard["rebuilds"] >= 1
            assert shard["state"] == "closed"

    def test_retries_under_process_isolation_stay_in_the_pool(
        self, daemon, monkeypatch
    ):
        """A job that crashes its worker on *every* attempt spends its
        crash retries inside the pool: the first attempt kills a pool
        worker, the reroute finds the pool broken and counts a second
        crash, the job settles as WorkerCrashed, the daemon survives.
        (Retries never fall back to in-daemon execution — here that
        would ``os._exit`` the daemon itself.)"""
        from repro.perf.parallel import process_pool_usable

        if not process_pool_usable():
            pytest.skip("process pools unusable on this platform")
        monkeypatch.setenv("REPRO_FAULTS", "worker.run:crash:match=boom")
        d = daemon(isolation="process", crash_retries=1)
        with ServiceClient(d.address) as client:
            doomed = client.submit(BOOM_SRC, wait=True)
            assert doomed["state"] == "failed"
            assert "WorkerCrashed" in doomed["error"]
            assert doomed["attempts"] == 2
            _wait_for_recovery(client)
            healthy = client.submit(SAFE_SRC, wait=True)
            assert healthy["state"] == "done"
            stats = client.stats()
            # Both attempts of the doomed job went through the shard,
            # plus the healthy job: three executions, one crash reroute.
            assert stats["executed"] == 3
            assert stats["retried"] == 1
            assert stats["failed"] == 1

    def test_interrupt_fault_fails_job_not_daemon(self, daemon):
        d = daemon()
        faults.install(FaultPlan([parse_spec("worker.run:interrupt:match=boom")]))
        with ServiceClient(d.address) as client:
            doomed = client.submit(BOOM_SRC, wait=True)
            assert doomed["state"] == "failed"
            assert client.ping()["ok"]


class TestShutdown:
    def test_shutdown_verb_stops_daemon(self, daemon):
        d = daemon()
        with ServiceClient(d.address) as client:
            assert client.shutdown()["stopping"] is True
        deadline = time.monotonic() + 10.0
        while d.running:  # the verb alone drains and stops the daemon
            assert time.monotonic() < deadline, "shutdown verb ignored"
            time.sleep(0.02)
        d.stop()  # idempotent with the wire-initiated stop
        assert not d.running
