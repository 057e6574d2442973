"""The Blazer driver: Fig. 2's alternation of REFINEPARTITION,
CHECKSAFE and CHECKATTACK.

Pipeline: source → parse/type-check → stack bytecode (+ verifier) →
register-IR CFG (lifter) → taint classification → iterative trail
refinement with per-trail bound analysis.

Safety phase
    All partition leaves get bounds; a leaf is acceptable when its trail
    is infeasible, or its bound is narrow (observer model) and mentions
    only low-security symbols.  Otherwise the driver splits a failing
    leaf at a fresh *low-only* branch (ψ-quotient preserving) and tries
    again, until no refinement is possible.

Attack phase
    Failing leaves are split at *secret-dependent* branches; a pair of
    sibling components with observably different bounds is an attack
    specification (the choice between them depends on the secret).  A
    single component whose bound mentions a secret symbol is reported
    when no pair is found.  If neither exists the driver gives up
    (verdict "unknown").
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bounds.analysis import (
    BoundAnalysis,
    BoundResult,
    nonneg_symbols,
    symbol_levels,
)
from repro.bounds.cost import CostBound
from repro.bounds.interproc import ProcBound, compute_proc_bounds
from repro.bounds.summaries import SummaryRegistry, default_summaries
from repro.bytecode import compile_program, verify_module
from repro.cfg.graph import ControlFlowGraph
from repro.core.attack import AttackSpecification
from repro.core.observer import ObserverModel, PolynomialDegreeObserver
from repro.domains import DOMAINS
from repro.domains.base import Domain
from repro.ir import lift_module
from repro.lang import ast, frontend
from repro.obs.trace import span as trace_span
from repro.perf import runtime
from repro.perf.cache import AnalysisCache
from repro.resilience.budget import Budget, DegradationReport
from repro.taint import TaintResult, analyze_taint
from repro.trails import PartitionTree, Trail, TrailNode, split_trail
from repro.util.errors import AnalysisError, ResourceExhausted


@dataclass
class BlazerConfig:
    """Knobs of the driver (defaults match the MicroBench setup).

    ``strategies`` is the REFINEPARTITION strategy chain for safety
    splits (the paper's "collection of pluggable strategies"): each is
    tried in order until one makes progress.  Defaults to the
    occurrence split; prepend :class:`~repro.trails.RegexNodeSplit` to
    prefer the paper's constructor-level splits where the regex shape
    allows them.
    """

    domain: str = "zone"
    observer: Optional[ObserverModel] = None
    summaries: Optional[SummaryRegistry] = None
    max_leaves: int = 48
    max_attack_depth: int = 6
    strategies: Optional[tuple] = None
    # Perf layer (docs/PERFORMANCE.md): ``cache`` forces the perf layer
    # — memo tables, fast paths and the incremental re-analysis plane —
    # on/off for this driver (None = inherit the process-wide flag).
    # Off is the exact seed engine the differential batteries compare
    # against.
    cache: Optional[bool] = None
    # Resilience layer (docs/RESILIENCE.md): a cooperative Budget bounds
    # this driver's analyze() calls (wall clock, refinement iterations,
    # fixpoint steps).  On exhaustion the driver degrades soundly: the
    # affected leaves get ⊤ bounds, the verdict becomes "unknown" and
    # carries a DegradationReport.  None (the default) adds no
    # checkpoints anywhere — the exact seed behavior.
    budget: Optional[Budget] = None
    # Service layer (docs/SERVICE.md): path of a persistent JSONL tier
    # for trail-keyed bound results, shared across drivers and worker
    # processes.  None (the default) keeps the cache purely in-memory.
    disk_cache: Optional[str] = None

    def resolved_observer(self) -> ObserverModel:
        return self.observer if self.observer is not None else PolynomialDegreeObserver()

    def resolved_domain(self) -> Domain:
        return DOMAINS[self.domain]


@dataclass
class BlazerVerdict:
    """The outcome of analyzing one procedure."""

    proc: str
    status: str  # "safe" | "attack" | "unknown"
    tree: PartitionTree
    attack: Optional[AttackSpecification] = None
    safety_seconds: float = 0.0
    attack_seconds: float = 0.0
    size: int = 0  # CFG basic blocks (the Size column of Table 1)
    # Perf-layer observability: hits/misses accumulated across every
    # cache category (trail bounds, zone closures, transfer effects, …)
    # during this analyze() call; ``cache_stats`` has the per-category
    # breakdown.  All zero when the perf layer is disabled.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stats: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # One-sided event counters accumulated during analyze() (injected
    # faults, quarantines, ``refine.dirty`` loop skips, …) — volatile
    # observability like cache_stats, never part of the digest.
    cache_events: Dict[str, int] = field(default_factory=dict)
    # Resilience observability: non-None when a budget tripped and the
    # driver degraded to "unknown"; the counters say how many partition
    # leaves received ⊤ bounds and how many cache entries were
    # quarantined (evicted as corrupt and recomputed) during analyze().
    degradation: Optional[DegradationReport] = None
    degraded_leaves: int = 0
    quarantined: int = 0
    # Observability (docs/OBSERVABILITY.md): wall seconds the driver
    # spent per phase — "taint", "bounds" (every per-trail bound
    # analysis, CHECKSAFE and CHECKATTACK alike), "refine", "attack",
    # "total".  Volatile like the other timings: stripped from digests.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    @property
    def total_seconds(self) -> float:
        return self.safety_seconds + self.attack_seconds

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def render(self) -> str:
        lines = [
            "%s: %s (size=%d, safety=%.2fs%s)"
            % (
                self.proc,
                self.status.upper(),
                self.size,
                self.safety_seconds,
                ", attack search=%.2fs" % self.attack_seconds
                if self.attack_seconds
                else "",
            )
        ]
        if self.degradation is not None:
            lines.append(self.degradation.render())
        lines.append(self.tree.render())
        if self.attack is not None:
            lines.append(self.attack.render())
        return "\n".join(lines)


class Blazer:
    """Analyzes the procedures of one program."""

    def __init__(self, program: ast.Program, config: Optional[BlazerConfig] = None):
        self.config = config or BlazerConfig()
        self.program = program
        # Arm the wall clock now so construction time (compilation,
        # interprocedural bounds) counts against the deadline; the
        # construction pipeline itself is bounded by the engine's
        # max_iterations, so checkpoints only begin in analyze().
        if self.config.budget is not None:
            self.config.budget.start()
        # First budget exhaustion seen during the current analyze() call
        # (None while healthy); reset per analysis.
        self._exhaustion: Optional[ResourceExhausted] = None
        self._exhaustion_phase: str = "safety"
        with self._perf_ctx(), trace_span("blazer.construct"):
            module = compile_program(program)
            verify_module(module)
            self.module = module
            self.cfgs: Dict[str, ControlFlowGraph] = lift_module(module)
            self._domain = self.config.resolved_domain()
            self._summaries = (
                self.config.summaries
                if self.config.summaries is not None
                else default_summaries()
            )
            disk = None
            scope = ""
            if self.config.disk_cache:
                from repro.perf.disktier import DiskTier
                from repro.perf.fingerprint import analysis_scope_fingerprint

                disk = DiskTier(self.config.disk_cache)
                # The disk tier is shared across drivers, configurations
                # and programs; scope its keys by everything a bound
                # result depends on beyond its trail — domain, summaries
                # (max_bits), and all defined procedure bodies (callee
                # bounds reach every trail through proc_bounds).
                scope = analysis_scope_fingerprint(
                    self.config.domain, self._summaries.fingerprint(), self.cfgs
                )
            self.cache = AnalysisCache(disk=disk, disk_scope=scope)
            self._proc_bounds: Dict[str, ProcBound] = compute_proc_bounds(
                self.cfgs, self._domain, self._summaries
            )
            self._taints: Dict[str, TaintResult] = {}
        # Per-phase wall-clock accumulators for the current analyze()
        # call.
        self._phase: Dict[str, float] = {}

    def _add_phase(self, name: str, seconds: float) -> None:
        self._phase[name] = self._phase.get(name, 0.0) + seconds

    def _phase_snapshot(self, verdict: "BlazerVerdict") -> Dict[str, float]:
        phases = dict(self._phase)
        phases["attack"] = verdict.attack_seconds
        phases["total"] = verdict.total_seconds
        return {name: round(phases[name], 6) for name in sorted(phases)}

    @staticmethod
    def from_source(source: str, config: Optional[BlazerConfig] = None) -> "Blazer":
        return Blazer(frontend(source), config)

    # -- helpers -------------------------------------------------------------

    def _perf_ctx(self):
        """The perf-flag context for this driver's work: forces the flag
        to ``config.cache`` when set, otherwise leaves the process-wide
        flag alone."""
        if self.config.cache is None:
            return nullcontext()
        return runtime.override(self.config.cache)

    def taint(self, proc: str) -> TaintResult:
        if proc not in self._taints:
            started = time.perf_counter()
            with trace_span("taint", proc=proc):
                self._taints[proc] = analyze_taint(self.cfgs[proc])
            self._add_phase("taint", time.perf_counter() - started)
        return self._taints[proc]

    def _bound(self, cfg: ControlFlowGraph, trail: Trail) -> BoundResult:
        started = time.perf_counter()
        try:
            return self.cache.bound_result(
                trail, lambda: self._bound_uncached(cfg, trail)
            )
        finally:
            self._add_phase("bounds", time.perf_counter() - started)

    def _bound_uncached(self, cfg: ControlFlowGraph, trail: Trail) -> BoundResult:
        return BoundAnalysis(
            cfg,
            self._domain,
            self._summaries,
            trail_dfa=trail.dfa,
            proc_bounds=self._proc_bounds,
            budget=self.config.budget,
            trail=trail,
        ).compute()

    # -- graceful degradation ------------------------------------------------

    def _top_bound(self, cfg: ControlFlowGraph) -> BoundResult:
        """The ⊤ substitute for a leaf whose analysis ran out of budget:
        feasible (we cannot rule the trail out) with an unbounded
        running-time range (we claim nothing about it)."""
        return BoundResult(
            feasible=True,
            bound=CostBound.unbounded(nonneg=nonneg_symbols(cfg)),
            degraded=True,
        )

    def _note_exhaustion(self, exc: ResourceExhausted, phase: str) -> None:
        """Record the first budget trip of this analyze() call."""
        if self._exhaustion is None:
            self._exhaustion = exc
            self._exhaustion_phase = phase

    def _guarded_bound(self, cfg: ControlFlowGraph, trail: Trail) -> BoundResult:
        """CHECKSAFE leaf evaluation that degrades instead of raising.

        Once the budget has tripped, every remaining leaf's checkpoint
        fires immediately, so the whole partition settles to ⊤ bounds in
        time linear in the leaf count — never a hang.
        """
        with trace_span("checksafe", trail=trail):
            try:
                return self._bound(cfg, trail)
            except ResourceExhausted as exc:
                self._note_exhaustion(exc, "safety")
                return self._top_bound(cfg)

    def _classify(self, cfg: ControlFlowGraph, node: TrailNode) -> None:
        """CHECKSAFE for one component."""
        assert node.bound is not None
        result = node.bound
        if not result.feasible:
            node.status = "infeasible"
            return
        bound = result.bound
        assert bound is not None
        if result.degraded:
            # ⊤ substitute after budget exhaustion: deliberately "wide"
            # (an unbounded range is never narrow), so a degraded leaf
            # can never contribute to a "safe" verdict.
            node.status = "wide"
            node.note = "budget exhausted: ⊤ bound assumed"
            return
        levels = symbol_levels(cfg)
        secret_syms = sorted(
            s
            for s in bound.symbols()
            if levels.get(s) is ast.SecLevel.SECRET
        )
        observer = self.config.resolved_observer()
        if secret_syms:
            node.status = "wide"
            node.note = "bound depends on secret symbol(s): %s" % ", ".join(
                secret_syms
            )
            return
        if observer.is_narrow(bound):
            node.status = "safe"
        else:
            node.status = "wide"
            node.note = "running-time range is not narrow"

    def _evaluate_leaves(self, cfg: ControlFlowGraph, tree: PartitionTree) -> None:
        pending = [leaf for leaf in tree.leaves() if leaf.bound is None]
        for leaf in pending:
            leaf.bound = self._guarded_bound(cfg, leaf.trail)
            self._classify(cfg, leaf)

    def _refine_for_safety(
        self, cfg: ControlFlowGraph, taint: TaintResult, tree: PartitionTree
    ) -> bool:
        """One REFINEPARTITION(·, safe) step; False when out of splits."""
        if len(tree.leaves()) >= self.config.max_leaves:
            return False
        for leaf in tree.leaves():
            if leaf.status != "wide":
                continue
            assert leaf.bound is not None
            live_blocks = (
                leaf.bound.main.reachable_blocks()
                if leaf.bound.main is not None
                else set(cfg.block_ids())
            )
            for block in taint.low_branches():
                if block in leaf.trail.split_blocks() or block not in live_blocks:
                    continue
                if self.config.strategies is not None:
                    children = split_trail(
                        leaf.trail, block, "taint", self.config.strategies
                    )
                else:
                    children = split_trail(leaf.trail, block, "taint")
                if not children:
                    continue
                for child in children:
                    leaf.add_child(child)
                return True
        return False

    # -- the two phases ---------------------------------------------------------

    def analyze(self, proc: str) -> BlazerVerdict:
        if self.config.budget is not None:
            self.config.budget.start()
        self._phase = {}
        with self._perf_ctx(), trace_span("blazer.analyze", proc=proc) as root:
            stats_before = runtime.STATS.snapshot()
            events_before = runtime.STATS.events_snapshot()
            verdict = self._analyze(proc)
            delta = runtime.STATS.delta(stats_before)
            verdict.cache_stats = delta
            verdict.cache_hits = sum(pair[0] for pair in delta.values())
            verdict.cache_misses = sum(pair[1] for pair in delta.values())
            events = runtime.STATS.events_delta(events_before)
            verdict.cache_events = events
            verdict.quarantined = events.get("cache.quarantine", 0)
            verdict.phase_seconds = self._phase_snapshot(verdict)
            root.annotate(status=verdict.status, leaves=len(verdict.tree.leaves()))
            return verdict

    def _degradation_report(self, tree: PartitionTree) -> DegradationReport:
        assert self._exhaustion is not None
        report = DegradationReport.from_exhaustion(
            self._exhaustion, self.config.budget, self._exhaustion_phase
        )
        leaves = tree.leaves()
        report.leaves_total = len(leaves)
        report.leaves_degraded = sum(
            1 for l in leaves if l.bound is not None and l.bound.degraded
        )
        return report

    def _analyze(self, proc: str) -> BlazerVerdict:
        cfg = self.cfgs[proc]
        taint = self.taint(proc)
        tree = PartitionTree(Trail.most_general(cfg))
        budget = self.config.budget
        self._exhaustion = None
        self._exhaustion_phase = "safety"
        started = time.perf_counter()

        rounds = 0
        while True:
            rounds += 1
            with trace_span("blazer.round", round=rounds, leaves=len(tree.leaves())):
                self._evaluate_leaves(cfg, tree)
                if self._exhaustion is not None:
                    break  # a leaf degraded to ⊤ — stop refining, degrade
                failing = [l for l in tree.leaves() if l.status == "wide"]
                if not failing:
                    safety_seconds = time.perf_counter() - started
                    verdict = BlazerVerdict(
                        proc=proc,
                        status="safe",
                        tree=tree,
                        safety_seconds=safety_seconds,
                        size=cfg.size,
                    )
                    return verdict
                refine_started = time.perf_counter()
                try:
                    if budget is not None:
                        budget.refinement("blazer.refine")
                    with trace_span("blazer.refine", round=rounds):
                        progressed = self._refine_for_safety(cfg, taint, tree)
                    if not progressed:
                        break
                except ResourceExhausted as exc:
                    self._note_exhaustion(exc, "safety")
                    break
                finally:
                    self._add_phase("refine", time.perf_counter() - refine_started)
        safety_seconds = time.perf_counter() - started

        attack = None
        attack_seconds = 0.0
        if self._exhaustion is None:
            # CHECKATTACK needs genuine bounds to certify an observable
            # difference, so it only runs on a healthy partition; its
            # own budget trips abort the search, never fake an attack.
            attack_started = time.perf_counter()
            with trace_span("checkattack", proc=proc) as attack_span:
                try:
                    attack = self._search_attack(cfg, taint, tree)
                except ResourceExhausted as exc:
                    self._note_exhaustion(exc, "attack")
                attack_span.annotate(found=attack is not None)
            attack_seconds = time.perf_counter() - attack_started

        degradation = (
            self._degradation_report(tree) if self._exhaustion is not None else None
        )
        return BlazerVerdict(
            proc=proc,
            status="attack" if attack is not None else "unknown",
            tree=tree,
            attack=attack,
            safety_seconds=safety_seconds,
            attack_seconds=attack_seconds,
            size=cfg.size,
            degradation=degradation,
            degraded_leaves=degradation.leaves_degraded if degradation else 0,
        )

    def _accepting_exit_state(self, node: TrailNode):
        """Join of the invariants at *accepting* exit nodes of a trail's
        product analysis (the states of its complete executions)."""
        assert node.bound is not None and node.bound.main is not None
        cfg = self.cfgs[node.bound.main.cfg.name]
        dfa = node.trail.dfa
        state = self._domain.bottom()
        for pnode, inv in node.bound.main.invariants.items():
            if pnode[0] != cfg.exit_id:
                continue
            if pnode[1] not in dfa.accepting:
                continue
            state = state.join(inv)
        return state

    def _low_compatible(self, cfg: ControlFlowGraph, a: TrailNode, b: TrailNode) -> bool:
        """CHECKATTACK's realizability condition: the two components must
        admit a *common public input* — otherwise their running-time
        difference is driven by low data and T1 ⊎ T2 never splits a
        low-equivalent pair (no ψ violation).  Checked by meeting each
        side's accepting-exit invariant with the other side's constraints
        over public symbols."""
        levels = symbol_levels(cfg)
        low_syms = {s for s, lvl in levels.items() if lvl is ast.SecLevel.PUBLIC}
        state_a = self._accepting_exit_state(a)
        state_b = self._accepting_exit_state(b)
        if state_a.is_bottom() or state_b.is_bottom():
            return False
        for state, other in ((state_a, state_b), (state_b, state_a)):
            refined = state
            for cons in other.constraints():
                if set(cons.variables()) <= low_syms:
                    refined = refined.guard(cons)
            if refined.is_bottom():
                return False
        return True

    def _sec_splits(self, node: TrailNode, block: int) -> List[List[Trail]]:
        """Candidate sec splits at a branch: one per branch edge."""
        from repro.trails.refine import OccurrenceSplit

        cfg = self.cfgs[node.trail.cfg.name]
        strategy = OccurrenceSplit()
        out: List[List[Trail]] = []
        for edge in cfg.branch_edges(block):
            components = strategy.split_on_edge(node.trail, block, edge, "sec")
            if components:
                out.append(components)
        return out

    def _search_attack(
        self, cfg: ControlFlowGraph, taint: TaintResult, tree: PartitionTree
    ) -> Optional[AttackSpecification]:
        """CHECKATTACK with REFINEPARTITION(·, vulnerable).

        A pair of sec-split siblings is an attack specification when
        (i) both are feasible, (ii) their bounds are observably
        distinguishable, and (iii) they admit a common public input
        (realizability — the paper's "T1 ⊎ T2 is not a ψ_SC-quotient
        partition" condition).  Both polarities of each secret branch
        are tried."""
        observer = self.config.resolved_observer()
        queue: List[Tuple[TrailNode, int]] = [
            (leaf, 0) for leaf in tree.leaves() if leaf.status == "wide"
        ]
        correlated: Optional[AttackSpecification] = None
        while queue:
            node, depth = queue.pop(0)
            assert node.bound is not None
            if not node.bound.feasible:
                continue
            if correlated is None and node.note.startswith("bound depends on secret"):
                correlated = AttackSpecification(
                    proc=cfg.name,
                    trail_a=node.trail,
                    bound_a=node.bound,
                    reason=node.note,
                )
            if depth >= self.config.max_attack_depth:
                continue
            live_blocks = (
                node.bound.main.reachable_blocks()
                if node.bound.main is not None
                else set(cfg.block_ids())
            )
            attached = False
            for block in taint.high_branches():
                if block in node.trail.split_blocks() or block not in live_blocks:
                    continue
                for children in self._sec_splits(node, block):
                    child_nodes = [TrailNode(trail=c, parent=node) for c in children]
                    for child in child_nodes:
                        with trace_span(
                            "checkattack.bound", trail=child.trail, block=block
                        ):
                            child.bound = self._bound(cfg, child.trail)
                        self._classify(cfg, child)
                    feasible = [
                        c
                        for c in child_nodes
                        if c.bound is not None and c.bound.feasible
                    ]
                    if len(feasible) == 2:
                        bound_a = feasible[0].bound.bound  # type: ignore[union-attr]
                        bound_b = feasible[1].bound.bound  # type: ignore[union-attr]
                        assert bound_a is not None and bound_b is not None
                        if observer.distinguishable(
                            bound_a, bound_b
                        ) and self._low_compatible(cfg, feasible[0], feasible[1]):
                            node.children.extend(child_nodes)
                            feasible[0].status = "attack"
                            feasible[1].status = "attack"
                            return AttackSpecification(
                                proc=cfg.name,
                                trail_a=feasible[0].trail,
                                bound_a=feasible[0].bound,  # type: ignore[arg-type]
                                trail_b=feasible[1].trail,
                                bound_b=feasible[1].bound,
                                reason=(
                                    "choice between the trails depends on secret "
                                    "data (branch b%d) and their running times "
                                    "differ observably" % block
                                ),
                            )
                    if not attached and feasible:
                        # Keep one split for deeper exploration.
                        node.children.extend(child_nodes)
                        attached = True
                        for child in feasible:
                            queue.append((child, depth + 1))
                if attached:
                    break  # one attached split per node per round
        return correlated


def analyze_source(
    source: str, proc: str, config: Optional[BlazerConfig] = None
) -> BlazerVerdict:
    """Convenience wrapper: analyze one procedure of a source program."""
    return Blazer.from_source(source, config).analyze(proc)


# -- the job-shaped entry point ------------------------------------------------

# Payload fields analyze_job understands; everything here (and nothing
# else) participates in the service's request fingerprints, because this
# is exactly the set of knobs that can change the analysis outcome.
JOB_FIELDS = (
    "source",
    "proc",
    "domain",
    "observer",
    "threshold",
    "max_input",
    "max_bits",
    "deadline",
    "max_refinements",
    "max_steps",
)


def job_config(payload: Dict[str, object]) -> BlazerConfig:
    """A :class:`BlazerConfig` for one plain-dict job payload."""
    from repro.core.observer import ConcreteThresholdObserver

    observer: ObserverModel
    if payload.get("observer", "degree") == "threshold":
        observer = ConcreteThresholdObserver(
            threshold=int(payload.get("threshold", 25_000)),
            default_max=int(payload.get("max_input", 4096)),
        )
    else:
        observer = PolynomialDegreeObserver()
    budget = None
    limits = [payload.get(k) for k in ("deadline", "max_refinements", "max_steps")]
    if any(v is not None for v in limits):
        budget = Budget(
            wall_seconds=limits[0],
            max_refinements=limits[1],
            max_steps=limits[2],
        )
    return BlazerConfig(
        domain=str(payload.get("domain", "zone")),
        observer=observer,
        summaries=default_summaries(int(payload.get("max_bits", 4096))),
        budget=budget,
        disk_cache=payload.get("disk_cache") or None,  # type: ignore[arg-type]
    )


def resolve_proc(cfgs: Dict[str, object], requested: Optional[str]) -> str:
    """Pick the procedure a request names (or the only one there is)."""
    if requested is not None:
        if requested not in cfgs:
            raise AnalysisError(
                "no procedure %r (available: %s)"
                % (requested, ", ".join(sorted(cfgs)))
            )
        return requested
    if len(cfgs) == 1:
        return next(iter(cfgs))
    raise AnalysisError(
        "program defines several procedures; pick one with 'proc' "
        "(available: %s)" % ", ".join(sorted(cfgs))
    )


def analyze_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Job-shaped entry point: a JSON-safe request dict in, a JSON-safe
    result dict out (docs/SERVICE.md).

    ``payload`` carries ``source`` plus the optional :data:`JOB_FIELDS`
    knobs (and ``disk_cache``, the path of the persistent bound-result
    tier).  The result carries the rendered verdict JSON, its
    content digest — the cross-process equality witness — and the flat
    fields the service maps to exit codes.  Raises
    :class:`~repro.util.errors.ReproError` on malformed programs.
    """
    from repro.core.report import verdict_digest, verdict_to_dict

    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise AnalysisError("job payload needs a non-empty 'source'")
    blazer = Blazer.from_source(source, job_config(payload))
    proc = resolve_proc(blazer.cfgs, payload.get("proc"))  # type: ignore[arg-type]
    verdict = blazer.analyze(proc)
    return {
        "proc": proc,
        "status": verdict.status,
        "degraded": verdict.degraded,
        "digest": verdict_digest(verdict),
        "verdict": verdict_to_dict(verdict),
    }
