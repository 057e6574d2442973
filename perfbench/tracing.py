"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  A traced run instead replaces, for
its own duration, the names that the analysis pipeline calls through
with wrappers that record a span per call:

* module-level names are patched in the module that *calls* them
  (``repro.core.blazer.analyze_taint``, not ``repro.taint.analyze_taint``),
  because ``from x import f`` binds ``f`` in the caller;
* methods are patched on their class (``BoundAnalysis.compute``);
* the DBM closure kernels are patched on ``repro.domains.dbm``, the
  module attribute that ``zone`` and ``octagon`` call through.

Spans stay in memory as ``(request, id, parent, name, start, end,
self)`` tuples and are written out once, at the end.  A span's self
time is its duration minus the time its child spans cover; the root
span of each request (``request``) therefore holds exactly the wall
time no layer claimed (``other.self_s``).

:func:`traced_execute_job` is the service-side counterpart: the
benchmark points the shard's job function at it, so each worker process
traces the jobs it executes and returns per-layer totals inside the
result dict.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (owner, attribute, layer).  ``owner`` is "module" or "module:Class".
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.blazer", "frontend", "frontend"),
    ("repro.core.blazer", "compile_program", "frontend"),
    ("repro.core.blazer", "verify_module", "frontend"),
    ("repro.core.blazer", "lift_module", "frontend"),
    ("repro.core.blazer", "analyze_taint", "taint"),
    ("repro.core.blazer", "split_trail", "trails"),
    ("repro.trails.trail:Trail", "most_general", "trails"),
    ("repro.core.blazer", "compute_proc_bounds", "bounds.proc"),
    ("repro.bounds.analysis:BoundAnalysis", "compute", "bounds"),
    ("repro.absint.engine:Engine", "analyze", "absint"),
    ("repro.domains.dbm", "fw_close_rows", "domains"),
    ("repro.domains.dbm", "octagon_close_rows", "domains"),
    ("repro.leakage.analysis", "leakage_from_verdict", "leakage"),
    ("repro.leakage.job", "check_constant_time", "leakage"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

# Key under which a traced service worker returns its layer totals.
RESULT_KEY = "perfbench_layers"

ROOT = "request"

SPAN_FIELDS = ("request", "id", "parent", "name", "start", "end", "self")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Single-threaded by design: the in-process workloads analyze
    serially and every service worker process runs one job at a time.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, str, float, float, float]] = []  # SPAN_FIELDS
        self.budgets: List[Any] = []
        self.blocks = 0
        self._stack: List[List[Any]] = []  # [id, name, start, child_time]
        self._next_id = 1
        self._request = ""
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_of: Dict[str, str] = {}  # span name → layer

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> List[Any]:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (
                self._request,
                frame[0],
                parent[0] if parent is not None else 0,
                frame[1],
                frame[2],
                end,
                duration - frame[3],
            )
        )

    def request(self, request_id: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span of one request."""
        self._request = request_id
        frame = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(frame)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for owner_name, attr, layer in TARGETS:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr]
            name = "%s.%s" % (owner_name.replace(":", "."), attr)
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)
            self._layer_of[name] = layer
        self._patch_lift()
        self._patch_budget()

    def _patch_lift(self) -> None:
        # ir.blocks: basic blocks of every CFG the frontend lifts.
        blazer = importlib.import_module("repro.core.blazer")
        traced = blazer.lift_module

        def lift_counting(module: Any) -> Any:
            cfgs = traced(module)
            self.blocks += sum(cfg.size for cfg in cfgs.values())
            return cfgs

        blazer.lift_module = lift_counting

    def _patch_budget(self) -> None:
        # resilience.budget_steps: keep every Budget the job path builds.
        blazer = importlib.import_module("repro.core.blazer")
        cls = blazer.Budget
        self._patches.append((blazer, "Budget", cls))

        def recording_budget(*args: Any, **kwargs: Any) -> Any:
            budget = cls(*args, **kwargs)
            self.budgets.append(budget)
            return budget

        blazer.Budget = recording_budget

    def remove(self) -> None:
        """Restore every patched name (in reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> Dict[str, Any]:
        """Per-layer ``[calls, self seconds]`` plus the unattributed
        time, CFG blocks and budget steps since construction."""
        layers: Dict[str, List[float]] = {layer: [0, 0.0] for layer in LAYERS}
        calls: Dict[str, int] = {}
        other = 0.0
        for span in self.spans:
            name, self_s = span[3], span[6]
            if name == ROOT:
                other += self_s
                continue
            calls[name] = calls.get(name, 0) + 1
            entry = layers[self._layer_of[name]]
            entry[0] += 1
            entry[1] += self_s
        return {
            "layers": layers,
            "calls": calls,
            "other_s": other,
            "blocks": self.blocks,
            "budget_steps": sum(b.steps for b in self.budgets),
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def merge_totals(into: Dict[str, Any], part: Dict[str, Any]) -> Dict[str, Any]:
    """Add one :meth:`Tracer.totals` dict into an accumulator."""
    if not into:
        into.update(
            layers={layer: [0, 0.0] for layer in LAYERS},
            calls={},
            other_s=0.0,
            blocks=0,
            budget_steps=0,
        )
    for layer, (count, seconds) in part["layers"].items():
        into["layers"][layer][0] += count
        into["layers"][layer][1] += seconds
    for name, count in part["calls"].items():
        into["calls"][name] = into["calls"].get(name, 0) + count
    into["other_s"] += part["other_s"]
    into["blocks"] += part["blocks"]
    into["budget_steps"] += part["budget_steps"]
    return into


# -- service workers -----------------------------------------------------------

_WORKER_TRACER: Optional[Tracer] = None


def traced_execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Drop-in for ``repro.service.worker.execute_job`` that traces the
    job inside the worker process and returns its layer totals under
    :data:`RESULT_KEY` (the digest and every other field are untouched).
    """
    global _WORKER_TRACER
    from repro.service import worker

    if _WORKER_TRACER is None:
        _WORKER_TRACER = Tracer()
        _WORKER_TRACER.install()
    tracer = _WORKER_TRACER
    tracer.spans = []
    tracer.budgets = []
    tracer.blocks = 0
    label = "%s:%s" % (payload.get("kind") or "analyze", payload.get("proc"))
    result = dict(tracer.request(label, lambda: worker.execute_job(payload)))
    result[RESULT_KEY] = tracer.totals()
    return result
