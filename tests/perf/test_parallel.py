"""Worker-pool helpers: backend equivalence and ordering guarantees."""

import pytest

from repro.perf.parallel import resolve_jobs, try_map
from repro.util.errors import ResourceExhausted


def _square(x):
    return x * x


def _square_or_boom(x):
    if x == 3:
        raise RuntimeError("x=%d" % x)
    return x * x


def _sleep_forever(x):
    # Long enough to trip a 50ms timeout, short enough that the
    # abandoned worker threads don't stall interpreter shutdown.
    import time

    time.sleep(2)
    return x


class TestResolveJobs:
    def test_defaults_to_machine(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-2)
        with pytest.raises(ValueError, match="got -1"):
            resolve_jobs(-1)


class TestTryMap:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "auto"])
    def test_isolates_failures_in_order(self, backend):
        out = try_map(_square_or_boom, list(range(6)), jobs=3, backend=backend)
        assert [x for x in out if not isinstance(x, Exception)] == [0, 1, 4, 16, 25]
        assert isinstance(out[3], RuntimeError)

    def test_all_succeed_matches_a_serial_map(self):
        items = list(range(8))
        assert try_map(_square, items, jobs=3, backend="thread") == [
            x * x for x in items
        ]

    def test_on_result_sees_every_slot(self):
        seen = []
        try_map(
            _square_or_boom,
            [1, 3, 5],
            jobs=1,
            backend="serial",
            on_result=lambda i, outcome: seen.append((i, outcome)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]
        assert isinstance(seen[1][1], RuntimeError)

    def test_task_timeout_maps_to_resource_exhausted(self):
        out = try_map(
            _sleep_forever,
            [1, 2],
            jobs=2,
            backend="thread",
            task_timeout=0.05,
        )
        assert all(isinstance(x, ResourceExhausted) for x in out)
        assert all(x.kind == "task_timeout" for x in out)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            try_map(_square, [1], jobs=2, backend="bogus")

