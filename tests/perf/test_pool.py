"""Warm-worker pool: chunked dispatch, fault isolation, clamping.

These tests exercise :mod:`repro.perf.pool` directly and through
:class:`~repro.benchsuite.runner.ParallelSuiteRunner`'s warm path.
Worker functions live at module level so they pickle across the process
boundary under any start method.
"""

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.perf import pool as pool_mod
from repro.perf.parallel import default_jobs
from repro.perf.pool import (
    WarmPool,
    chunk_size_for,
    effective_workers,
    shared_pool,
    shutdown_shared,
)
from repro.util.errors import WorkerCrashed


def _square(x):
    return x * x


def _square_or_boom(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x * x


def _crash_on_five(x):
    if x == 5:
        os._exit(70)
    return x


def _worker_pid(_x):
    return os.getpid()


class _DiesBeforeSecondSubmit:
    """An executor whose one worker died between the first and second
    submit: the first future fails, the second submit is refused."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits > 1:
            raise BrokenProcessPool("worker died")
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture(autouse=True)
def _clean_shared():
    yield
    shutdown_shared()


class TestEffectiveWorkers:
    def test_clamped_to_machine(self):
        assert effective_workers(4) == min(4, default_jobs())
        assert effective_workers(10**6) == default_jobs()

    def test_at_least_one(self):
        assert effective_workers(0) == 1
        assert effective_workers(-3) == 1

    def test_chunk_size_targets_four_chunks_per_worker(self):
        assert chunk_size_for(24, 1) == 6
        assert chunk_size_for(24, 2) == 3
        assert chunk_size_for(1, 8) == 1
        assert chunk_size_for(0, 4) >= 1


class TestMapChunked:
    def test_results_in_input_order(self):
        with WarmPool(4) as pool:
            assert pool.map_chunked(_square, list(range(17))) == [
                x * x for x in range(17)
            ]

    def test_empty_items(self):
        with WarmPool(2) as pool:
            assert pool.map_chunked(_square, []) == []

    def test_exception_isolated_to_one_slot(self):
        with WarmPool(2) as pool:
            out = pool.map_chunked(_square_or_boom, list(range(6)), chunk_size=2)
        assert out[:3] == [0, 1, 4]
        assert isinstance(out[3], ValueError)
        assert out[4:] == [16, 25]

    def test_on_result_settles_in_input_order(self):
        settled = []
        with WarmPool(2) as pool:
            pool.map_chunked(
                _square,
                list(range(9)),
                chunk_size=2,
                on_result=lambda i, outcome: settled.append(i),
            )
        assert settled == list(range(9))

    def test_pool_reused_across_calls(self):
        with WarmPool(1) as pool:
            first = pool.map_chunked(_worker_pid, [0])
            second = pool.map_chunked(_worker_pid, [0])
        assert first == second  # same warm worker process, no respawn

    def test_worker_crash_maps_to_worker_crashed(self):
        with WarmPool(1) as pool:
            out = pool.map_chunked(_crash_on_five, list(range(8)), chunk_size=2)
            # The crashed chunk and everything after it report the crash.
            assert all(isinstance(o, WorkerCrashed) for o in out[4:])
            assert out[:4] == [0, 1, 2, 3]
            # The pool transparently rebuilds for the next call.
            assert pool.map_chunked(_square, [2, 3]) == [4, 9]

    def test_refused_submit_maps_to_worker_crashed(self):
        with WarmPool(2) as pool:
            if pool.workers < 2:
                pytest.skip("needs two worker slots")
            pool._pool = _DiesBeforeSecondSubmit()
            out = pool.map_chunked(_square, list(range(6)), chunk_size=2)
            assert all(isinstance(o, WorkerCrashed) for o in out)
            assert pool._pool is None  # discarded, rebuilt on next use


class TestSharedPool:
    def test_same_config_same_pool(self):
        assert shared_pool(4) is shared_pool(4)

    def test_clamp_collapses_configs(self):
        # On an N-core box, any jobs >= N lands on the same clamped pool.
        assert shared_pool(default_jobs()) is shared_pool(default_jobs() + 7)

    def test_shutdown_shared_clears_registry(self):
        first = shared_pool(2)
        shutdown_shared()
        assert shared_pool(2) is not first

    def test_prewarm_round_trip(self):
        pool = shared_pool(2)
        pool.prewarm()  # must not raise, must leave the pool usable
        assert pool.map_chunked(_square, [5]) == [25]


class TestRunnerWarmPath:
    def _runner(self, **kw):
        from repro.benchsuite import ALL_BENCHMARKS, MICRO
        from repro.benchsuite.runner import ParallelSuiteRunner

        small = [b for b in ALL_BENCHMARKS if b.group == MICRO][:4]
        return ParallelSuiteRunner(small, **kw)

    def test_selection_rules(self):
        pending = ["a", "b", "c"]
        assert self._runner(jobs=4, backend="auto")._use_warm_pool(pending)
        assert not self._runner(jobs=1, backend="auto")._use_warm_pool(pending)
        assert not self._runner(jobs=4, backend="thread")._use_warm_pool(pending)
        assert not self._runner(jobs=4, backend="serial")._use_warm_pool(pending)
        assert not self._runner(
            jobs=4, backend="auto", task_timeout=5.0
        )._use_warm_pool(pending)
        assert not self._runner(
            jobs=4, backend="auto", warm=False
        )._use_warm_pool(pending)
        assert not self._runner(jobs=4, backend="auto")._use_warm_pool(["a"])

    def test_warm_run_matches_serial_digests(self):
        serial = self._runner(jobs=1, backend="serial").run()
        warm = self._runner(jobs=4, backend="auto").run()
        assert [r.digest for r in warm] == [r.digest for r in serial]
        assert [r.name for r in warm] == [r.name for r in serial]
