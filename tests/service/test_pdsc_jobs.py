"""The ``pdsc`` job kind: fingerprinting and worker dispatch."""

import pytest

from repro.service.jobs import intake_payload, job_key
from repro.service.worker import execute_job
from repro.util.errors import AnalysisError, ReproError

SRC = """
proc check(secret pin: int, public attempts: uint): int {
    var i: int = 0;
    while (i < attempts) { i = i + 1; }
    return i;
}
"""


class TestPdscJobKey:
    def test_kind_separates_fingerprints(self):
        # The same source under a different analysis is different work;
        # serving an analyze verdict for a pdsc request would be wrong.
        assert job_key({"source": SRC, "kind": "pdsc"}) != job_key({"source": SRC})

    def test_explicit_analyze_kind_coalesces_with_the_default(self):
        # Back-compat: pre-existing analyze fingerprints must not shift
        # now that payloads carry a kind discriminator.
        assert job_key({"source": SRC, "kind": "analyze"}) == job_key(
            {"source": SRC}
        )

    def test_pdsc_knobs_separate_keys(self):
        base = job_key({"source": SRC, "kind": "pdsc"})
        assert job_key({"source": SRC, "kind": "pdsc", "epsilon": 5}) != base
        assert (
            job_key({"source": SRC, "kind": "pdsc", "max_refinements": 9}) != base
        )
        assert job_key({"source": SRC, "kind": "pdsc", "max_pairs": 7}) != base

    def test_analyze_only_knobs_do_not_leak_into_pdsc_keys(self):
        base = job_key({"source": SRC, "kind": "pdsc"})
        assert job_key({"source": SRC, "kind": "pdsc", "observer": "threshold"}) == base

    def test_unknown_kind_is_rejected_at_submit_time(self):
        with pytest.raises(ReproError, match="kind"):
            job_key({"source": SRC, "kind": "frobnicate"})


class TestWireIntake:
    """The daemon builds job payloads through intake_payload; a
    submit message's kind and kind-specific knobs must survive it."""

    def test_pdsc_message_keeps_kind_and_pdsc_knobs(self):
        message = {
            "op": "submit",
            "source": SRC,
            "kind": "pdsc",
            "epsilon": 16,
            "max_pairs": 500,
            "wait": True,
            "priority": 3,
        }
        payload = intake_payload(message)
        assert payload["kind"] == "pdsc"
        assert payload["epsilon"] == 16
        assert payload["max_pairs"] == 500
        # Transport fields never reach the fingerprint.
        assert "op" not in payload and "wait" not in payload
        assert "priority" not in payload
        # And the payload fingerprints as a pdsc job, not an analyze.
        assert job_key(payload) != job_key({"source": SRC})

    def test_analyze_message_intake_is_unchanged(self):
        message = {"op": "submit", "source": SRC, "observer": "threshold"}
        payload = intake_payload(message)
        assert payload == {"source": SRC, "observer": "threshold"}

    def test_pdsc_intake_drops_analyze_only_knobs(self):
        payload = intake_payload(
            {"source": SRC, "kind": "pdsc", "observer": "threshold"}
        )
        assert "observer" not in payload

    def test_unknown_kind_passes_through_for_canonical_rejection(self):
        payload = intake_payload({"source": SRC, "kind": "frobnicate"})
        assert payload["kind"] == "frobnicate"
        with pytest.raises(ReproError, match="kind"):
            job_key(payload)


class TestPdscDispatch:
    def test_pdsc_job_executes_and_reports_the_verdict(self):
        record = execute_job({"source": SRC, "kind": "pdsc", "epsilon": 16})
        assert record["kind"] == "pdsc"
        assert record["proc"] == "check"
        assert record["status"] == "safe"
        assert record["outcome"] == "verified"
        assert record["digest"]

    def test_pdsc_digest_is_deterministic(self):
        payload = {"source": SRC, "kind": "pdsc", "epsilon": 16}
        assert execute_job(payload)["digest"] == execute_job(payload)["digest"]

    def test_analyze_dispatch_is_unchanged(self):
        record = execute_job({"source": SRC})
        assert record.get("kind", "analyze") != "pdsc"
        assert "status" in record

    def test_unknown_kind_fails_loudly_at_execution(self):
        with pytest.raises(AnalysisError, match="kind"):
            execute_job({"source": SRC, "kind": "frobnicate"})
