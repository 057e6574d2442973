"""Request intake and fingerprints.

A *job* is one analysis request in flight.  Its identity for
deduplication is :func:`job_key` — a content fingerprint, not the raw
request text: the structural part reuses
:func:`repro.perf.fingerprint.module_fingerprint` over the compiled
CFGs of the requested procedure *and every procedure it can reach
through calls* (interprocedural summaries make callee bodies
outcome-relevant, so two programs with an identical entry procedure but
different callee implementations must never share a key), so two
submissions that differ only in formatting or comments (or that reach
identical CFGs from different spellings) coalesce onto a single Blazer
execution.  The configuration knobs that can change the outcome
(domain, observer, bit width, budget limits —
:data:`repro.core.blazer.JOB_FIELDS`) are hashed alongside, so a
5-second-deadline request never collides with an unbudgeted one.
The daemon (:mod:`repro.service.aio`) coalesces submissions whose keys
match onto one in-flight job.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple

from repro.core.blazer import JOB_FIELDS, resolve_proc
from repro.core.pdsc import PDSC_JOB_FIELDS
from repro.leakage.job import LEAKAGE_JOB_FIELDS
from repro.util.errors import ReproError

# kind → the payload fields that participate in its fingerprint.  The
# implicit default kind "analyze" (Blazer) predates the discriminator,
# so its knob set stays exactly JOB_FIELDS and its fingerprints are
# unchanged; other kinds additionally hash the kind itself, so a pdsc
# request never coalesces with a Blazer request over the same program.
KIND_FIELDS = {
    "analyze": JOB_FIELDS,
    "pdsc": PDSC_JOB_FIELDS,
    "leakage": LEAKAGE_JOB_FIELDS,
}

# Settled jobs kept around for `status`/`result` lookups.  A resident
# daemon must not grow with its lifetime submission count: beyond this
# many settled jobs the oldest are evicted (their results live on in the
# ResultStore; only the lifecycle record goes away).
SETTLED_RETENTION = 512


def job_key(payload: Dict[str, Any]) -> str:
    """The content fingerprint identical submissions share."""
    return fingerprint_job(payload)[0]


def intake_payload(message: Dict[str, Any]) -> Dict[str, Any]:
    """Copy the job-defining fields of a wire ``submit`` message into a
    fresh payload: ``source``/``proc``/``kind`` plus the knob set of
    the declared kind, so a ``kind: "pdsc"`` request keeps its
    kind-specific knobs (``epsilon``, ...) on the way in.
    Unknown kinds keep only the core fields and are rejected with the
    canonical error by :func:`fingerprint_job`.
    """
    payload = {
        k: message[k]
        for k in ("source", "proc", "kind")
        if message.get(k) is not None
    }
    kind = str(message.get("kind") or "analyze")
    for knob in KIND_FIELDS.get(kind, ()):
        if knob not in payload and message.get(knob) is not None:
            payload[knob] = message[knob]
    return payload


def fingerprint_job(payload: Dict[str, Any]) -> Tuple[str, str]:
    """``(key, proc)``: the content fingerprint identical submissions
    share, plus the procedure it resolved to.

    Compiles the payload's program and fingerprints the requested
    procedure's CFG plus every outcome-relevant knob.  Raises
    :class:`~repro.util.errors.ReproError` when the program is
    malformed or the procedure does not exist — submit-time validation,
    so a bad request fails its sender instead of a worker.
    """
    from repro.bytecode import compile_program, verify_module
    from repro.ir import lift_module
    from repro.lang import frontend
    from repro.perf.fingerprint import module_fingerprint

    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ReproError("job payload needs a non-empty 'source'")
    kind = str(payload.get("kind") or "analyze")
    fields = KIND_FIELDS.get(kind)
    if fields is None:
        raise ReproError(
            "unknown job kind %r (available: %s)"
            % (kind, ", ".join(sorted(KIND_FIELDS)))
        )
    module = compile_program(frontend(source))
    verify_module(module)
    cfgs = lift_module(module)
    proc = resolve_proc(cfgs, payload.get("proc"))
    h = hashlib.sha256()
    # The call-graph closure, not just cfgs[proc]: the analysis reads
    # callee bodies through interprocedural summaries, so they are part
    # of the request's content.
    h.update(module_fingerprint(cfgs, proc).encode("ascii"))
    knobs = {
        k: payload.get(k)
        for k in fields
        if k not in ("source", "proc", "kind") and payload.get(k) is not None
    }
    if kind != "analyze":
        knobs["kind"] = kind
    h.update(json.dumps(knobs, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return h.hexdigest(), proc

