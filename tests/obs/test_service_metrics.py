"""The daemon's ``metrics`` verb end to end (``make smoke-metrics``).

Boots the real asyncio daemon in-process, pushes a job through it, and
scrapes the merged registries over the wire: Prometheus text must carry
the service counters, queue/shard gauges, job-latency histogram, and
the perf layer's cache hit/miss counters.
"""

import pytest

from repro.service import ServiceClient
from repro.service.aio import PROMETHEUS_CONTENT_TYPE
from repro.util.errors import ServiceError

from tests.service.conftest import ThreadedDaemon, service_address

pytestmark = pytest.mark.obs

SAFE_SRC = """
proc check(secret pin: int, public attempts: uint): int {
    var i: int = 0;
    while (i < attempts) { i = i + 1; }
    return i;
}
"""


@pytest.fixture
def daemon(tmp_path):
    d = ThreadedDaemon(service_address(tmp_path))
    yield d
    d.stop()


class TestMetricsVerb:
    def test_text_exposition_covers_every_source(self, daemon):
        with ServiceClient(daemon.address) as client:
            client.submit(SAFE_SRC, wait=True)
            reply = client.metrics()
        assert reply["format"] == "text"
        assert reply["content_type"] == PROMETHEUS_CONTENT_TYPE
        text = reply["text"]
        # ServiceStats via the pull-time collector:
        assert '# TYPE repro_service_events_total counter' in text
        assert 'repro_service_events_total{event="submitted"} 1' in text
        assert 'repro_service_events_total{event="completed"} 1' in text
        # Queue / shard gauges:
        assert "repro_service_queue_depth 0" in text
        assert 'repro_service_shards{shard="0",state="closed"} 1' in text
        assert "# TYPE repro_service_uptime_seconds gauge" in text
        # Native daemon families (latency histograms):
        assert '# TYPE repro_service_job_seconds histogram' in text
        assert 'repro_service_job_seconds_bucket{outcome="completed",le="+Inf"} 1' in text
        assert 'repro_service_job_seconds_count{outcome="completed"} 1' in text
        # The perf layer's cache counters ride the same scrape:
        assert "# TYPE repro_cache_requests_total counter" in text

    def test_json_format(self, daemon):
        with ServiceClient(daemon.address) as client:
            client.submit(SAFE_SRC, wait=True)
            reply = client.metrics(format="json")
        assert reply["format"] == "json"
        metrics = reply["metrics"]
        events = {
            sample["labels"]["event"]: sample["value"]
            for sample in metrics["repro_service_events_total"]["samples"]
        }
        assert events["executed"] == 1
        assert metrics["repro_service_job_seconds"]["kind"] == "histogram"

    def test_unknown_format_rejected(self, daemon):
        with ServiceClient(daemon.address) as client:
            with pytest.raises(ServiceError, match="unknown metrics format"):
                client.metrics(format="xml")

    def test_scrape_is_read_only(self, daemon):
        with ServiceClient(daemon.address) as client:
            before = client.metrics()["text"]
            after = client.metrics()["text"]
        # Scraping twice must not bump any job/submission counter.
        assert 'repro_service_events_total{event="submitted"} 0' in before
        assert 'repro_service_events_total{event="submitted"} 0' in after
