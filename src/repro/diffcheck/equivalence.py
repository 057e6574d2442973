"""Incremental-vs-scratch equivalence sweep over generated programs.

This is the differential battery of the incremental re-analysis plane
(docs/PERFORMANCE.md): every generated program is analyzed twice by the
Blazer driver — once with the perf layer on (``BlazerConfig(cache=
True)``: every memo plus the incremental plane), once with it off (the
exact unmemoized seed engine) — and the two runs must agree
*byte-for-byte*:

* same verdict status;
* same :func:`~repro.core.report.verdict_digest` (the digest hashes the
  full recursive partition tree, so equal digests mean equal bounds,
  statuses and notes at **every refinement round**, not just the final
  leaves);
* same per-node bound dictionaries, compared node-for-node so a
  divergence names the exact trail that differed instead of just "the
  digest changed".

The sweep rides the same pool machinery as the diffcheck campaign
(:class:`~repro.benchsuite.runner.ParallelSuiteRunner` with a custom
worker/codec), so ``--jobs 4`` exercises the incremental plane inside
real pool workers whose process-global memo tables accumulate across
programs — the deployment configuration, not a sanitized one.

Sabotage mode (the proof the battery has teeth): under a
``refine.delta:corrupt`` fault plan (:mod:`repro.resilience.faults`)
exactly one reused parent artifact is replaced with a zero-iteration
claim, and the sweep must flag **exactly one** divergent program.  Run
sabotage sweeps serially: fault hit counters are per process, so a
``@1`` spec would fire once per pool worker.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.benchsuite.runner import ParallelSuiteRunner
from repro.core.blazer import Blazer, BlazerConfig, BlazerVerdict
from repro.core.observer import DomainThresholdObserver
from repro.core.report import _bound_dict, verdict_digest
from repro.diffcheck.generator import (
    PROC_NAME,
    GeneratorConfig,
    generate_program,
)
from repro.leakage.model import extern_env
from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class EquivalenceConfig:
    """One sweep's knobs — picklable for the worker pool."""

    seed: int = 0
    count: int = 300
    threshold: int = 24
    domain: str = "zone"
    generator: GeneratorConfig = GeneratorConfig()


@dataclass
class EquivalenceOutcome:
    """One program's sweep row — slim, picklable, JSON-stable.

    ``retries``/``resumed`` are runner bookkeeping, excluded from
    :meth:`to_dict` so journal rows stay identical across job counts.
    """

    name: str
    index: int
    seed: int
    status_incremental: str = ""
    status_scratch: str = ""
    digest_incremental: str = ""
    digest_scratch: str = ""
    nodes: int = 0  # partition-tree nodes compared (all rounds)
    divergent_nodes: List[str] = field(default_factory=list)
    reuse_hits: int = 0  # refine.reuse during the incremental analyze()
    reuse_misses: int = 0
    dirty_loops: int = 0  # loops skipped as touched by the split
    error: str = ""
    retries: int = 0
    resumed: bool = False

    @property
    def diverged(self) -> bool:
        return bool(
            self.divergent_nodes
            or self.status_incremental != self.status_scratch
            or self.digest_incremental != self.digest_scratch
        )

    @property
    def clean(self) -> bool:
        return not self.diverged and not self.error

    def to_dict(self) -> Dict[str, Any]:
        record = dataclasses.asdict(self)
        del record["retries"]
        del record["resumed"]
        return record

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "EquivalenceOutcome":
        known = {f.name for f in dataclasses.fields(EquivalenceOutcome)}
        return EquivalenceOutcome(
            **{k: v for k, v in data.items() if k in known}
        )


def _tree_rows(verdict: BlazerVerdict) -> List[Tuple[str, Dict[str, Any]]]:
    """Every partition node (root, internal rounds, leaves) as a
    (path-label, comparable-content) row in deterministic pre-order."""
    rows: List[Tuple[str, Dict[str, Any]]] = []

    def visit(node, path: str) -> None:
        rows.append(
            (
                path,
                {
                    "description": node.trail.description,
                    "splits": [str(s) for s in node.trail.splits],
                    "status": node.status,
                    "note": node.note,
                    "bound": _bound_dict(node.bound),
                },
            )
        )
        for i, child in enumerate(node.children):
            visit(child, "%s.%d" % (path, i))

    visit(verdict.tree.root, "root")
    return rows


def _divergent_nodes(
    incremental: BlazerVerdict, scratch: BlazerVerdict
) -> List[str]:
    """Node-for-node comparison of the two partition trees.

    Because internal nodes are earlier rounds' leaves (their bounds and
    statuses are never recomputed once split), comparing every node
    compares every refinement round.
    """
    inc_rows = dict(_tree_rows(incremental))
    scr_rows = dict(_tree_rows(scratch))
    divergent = []
    for path in sorted(set(inc_rows) | set(scr_rows)):
        if inc_rows.get(path) != scr_rows.get(path):
            divergent.append(path)
    return divergent


def check_equivalence(
    name: str, config: EquivalenceConfig
) -> EquivalenceOutcome:
    """The pool worker: regenerate program ``name``, analyze it with the
    perf layer on (incremental plane included) and with the seed
    engine, and compare everything.

    The seed engine reads and writes no memo table, so the incremental
    run's probes see only the state earlier programs left behind.
    """
    index = int(name.lstrip("p"))
    outcome = EquivalenceOutcome(name=name, index=index, seed=config.seed)
    try:
        program = generate_program(config.seed, index, config.generator)
        model = extern_env(program.source)
        observer = DomainThresholdObserver(
            threshold=config.threshold,
            domains={
                key: tuple(values)
                for key, values in program.domain_map.items()
            },
        )

        def run(cache: bool):
            blazer = Blazer.from_source(
                program.source,
                BlazerConfig(
                    domain=config.domain,
                    observer=observer,
                    summaries=model.summaries,
                    cache=cache,
                ),
            )
            return blazer.analyze(PROC_NAME)

        inc = run(cache=True)
        scr = run(cache=False)

        outcome.status_incremental = inc.status
        outcome.status_scratch = scr.status
        outcome.digest_incremental = verdict_digest(inc)
        outcome.digest_scratch = verdict_digest(scr)
        outcome.nodes = len(inc.tree.all_nodes())
        outcome.divergent_nodes = _divergent_nodes(inc, scr)
        hits, misses = inc.cache_stats.get("refine.reuse", (0, 0))
        outcome.reuse_hits, outcome.reuse_misses = hits, misses
        events = getattr(inc, "cache_events", None)
        if isinstance(events, dict):
            outcome.dirty_loops = events.get("refine.dirty", 0)
    except Exception as exc:  # noqa: BLE001 - sweep fault isolation
        outcome.error = "%s: %s" % (type(exc).__name__, exc)
    return outcome


@dataclass
class SweepReport:
    """The deterministic end-of-sweep artifact."""

    config: EquivalenceConfig
    outcomes: List[EquivalenceOutcome]

    @property
    def divergences(self) -> List[EquivalenceOutcome]:
        return [o for o in self.outcomes if o.diverged]

    @property
    def errors(self) -> List[EquivalenceOutcome]:
        return [o for o in self.outcomes if o.error]

    @property
    def reuse_hits(self) -> int:
        return sum(o.reuse_hits for o in self.outcomes)

    @property
    def reuse_misses(self) -> int:
        return sum(o.reuse_misses for o in self.outcomes)

    def reuse_hit_rate(self) -> float:
        total = self.reuse_hits + self.reuse_misses
        return self.reuse_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": {
                "seed": self.config.seed,
                "count": self.config.count,
                "threshold": self.config.threshold,
                "domain": self.config.domain,
            },
            "summary": {
                "programs": len(self.outcomes),
                "divergences": len(self.divergences),
                "errors": len(self.errors),
                "reuse_hits": self.reuse_hits,
                "reuse_misses": self.reuse_misses,
                "reuse_hit_rate": round(self.reuse_hit_rate(), 4),
            },
            "programs": [o.to_dict() for o in self.outcomes],
        }


def run_sweep(
    config: EquivalenceConfig,
    jobs: Optional[int] = 1,
    backend: str = "auto",
    retries: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
) -> SweepReport:
    """Run one equivalence sweep on the suite runner's pool machinery."""
    names = ["p%06d" % index for index in range(config.count)]
    runner = ParallelSuiteRunner(
        benchmarks=names,
        jobs=jobs,
        backend=backend,
        retries=retries,
        retry_policy=retry_policy,
        worker=partial(check_equivalence, config=config),
        codec=EquivalenceOutcome,
    )
    return SweepReport(config=config, outcomes=runner.run())
