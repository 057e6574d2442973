"""BOUNDANALYSIS: symbolic lower/upper running-time bounds per trail.

Given a procedure CFG and (optionally) a trail DFA, computes a
:class:`~repro.bounds.cost.CostBound` covering the running time (in
bytecode instruction units) of every *accepted, terminating* execution
described by the trail:

1. run the trail-restricted abstract interpreter to get invariants on
   the product graph (CFG × trail DFA) and prune infeasible nodes — this
   is what catches trails like the vulnerable-looking-but-infeasible
   path of ``loopAndBranch_safe``;
2. find the natural loops of the live product graph; for each loop
   (innermost first) compute a seeded transition relation and match it
   against the lemma database for iteration bounds;
3. collapse loops into summary edges (``iterations × per-iteration cost
   + tail``) and propagate min/max costs through the resulting DAG from
   the entry to the *accepting* exit nodes.

Call costs: extern procedures use the registered symbolic summaries
(Section 5's "manually-specified bound summaries"); calls to defined
procedures use bounds supplied by the caller (computed callee-first),
instantiated by substituting argument symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.absint.engine import AnalysisResult, Engine, Node
from repro.absint.transfer import TransferFunctions, len_var, operand_expr
from repro.automata.dfa import DFA
from repro.bounds.cost import CostBound, Poly
from repro.bounds.graphops import (
    GraphLoop,
    IrreducibleGraphError,
    natural_loops,
    topo_order_dag,
)
from repro.bounds.lemmas import (
    IterationBound,
    RankCandidate,
    linexpr_to_poly,
    match_iteration_lemmas,
    seed_name,
    symbolic_form,
)
from repro.bounds.summaries import SummaryRegistry, default_summaries
from repro.cfg.graph import ControlFlowGraph
from repro.domains.base import AbstractState, Domain
from repro.domains.linexpr import LinExpr, RelOp
from repro.ir import instr as ir
from repro.lang import ast
from repro.obs.trace import span as trace_span
from repro.perf import runtime

if False:  # pragma: no cover - import for type checkers only
    from repro.bounds.interproc import ProcBound


def _cfg_meta(cfg: ControlFlowGraph, slot: str, compute):
    """Memoize a pure per-CFG derived value on the CFG object itself.

    Used by :func:`input_symbols` / :func:`nonneg_symbols` /
    :func:`symbol_levels`, which are called once per leaf trail by the
    driver — sharing the result avoids re-walking the parameter list for
    every leaf.  Mutable containers are copied by the public wrappers so
    callers can never corrupt the cached value.
    """
    if not runtime.enabled():
        return compute(cfg)
    memo = runtime.cfg_memo(cfg)
    if slot in memo:
        runtime.STATS.hit("cfg_meta")
        return memo[slot]
    runtime.STATS.miss("cfg_meta")
    memo[slot] = value = compute(cfg)
    return value


def input_symbols(cfg: ControlFlowGraph) -> List[str]:
    """The designated input symbols: int params and array-length params."""
    return list(_cfg_meta(cfg, "input_symbols", _input_symbols))


def _input_symbols(cfg: ControlFlowGraph) -> List[str]:
    out: List[str] = []
    for param in cfg.params:
        if param.declared.is_array:
            out.append(len_var(param.name))
        elif param.declared.is_numeric or param.declared == ast.BOOL:
            out.append(param.name)
    return out


def nonneg_symbols(cfg: ControlFlowGraph) -> FrozenSet[str]:
    """Symbols known non-negative (array lengths, booleans)."""
    return _cfg_meta(cfg, "nonneg_symbols", _nonneg_symbols)


def _nonneg_symbols(cfg: ControlFlowGraph) -> FrozenSet[str]:
    out = set()
    for param in cfg.params:
        if param.declared.is_array:
            out.add(len_var(param.name))
        elif param.declared in (ast.BOOL, ast.UINT):
            out.add(param.name)
    return frozenset(out)


def symbol_levels(cfg: ControlFlowGraph) -> Dict[str, ast.SecLevel]:
    """Security level of each input symbol (for narrowness checking)."""
    return dict(_cfg_meta(cfg, "symbol_levels", _symbol_levels))


def _symbol_levels(cfg: ControlFlowGraph) -> Dict[str, ast.SecLevel]:
    levels: Dict[str, ast.SecLevel] = {}
    for param in cfg.params:
        name = len_var(param.name) if param.declared.is_array else param.name
        levels[name] = param.level
    return levels


def subst_poly(poly: Poly, mapping: Dict[str, Poly]) -> Optional[Poly]:
    """Substitute symbols in ``poly``; None if a symbol has no mapping."""
    out = Poly.constant(0)
    for mono, coeff in poly.terms.items():
        term = Poly.constant(coeff)
        for sym in mono:
            replacement = mapping.get(sym)
            if replacement is None:
                return None
            term = term * replacement
        out = out + term
    return out


@dataclass
class BoundResult:
    """Outcome of one BOUNDANALYSIS run."""

    feasible: bool
    bound: Optional[CostBound]
    main: Optional[AnalysisResult] = None
    loop_bounds: Dict[Node, IterationBound] = field(default_factory=dict)
    # True when this is a ⊤ placeholder substituted by the driver after
    # budget exhaustion, not a computed analysis result.  A degraded
    # bound soundly covers the trail (it claims nothing) but can never
    # certify safety (⊤ is never narrow).
    degraded: bool = False

    def __str__(self) -> str:
        if not self.feasible:
            return "<infeasible trail>"
        if self.degraded:
            return "%s (degraded: budget exhausted)" % self.bound
        return str(self.bound)


class BoundAnalysis:
    def __init__(
        self,
        cfg: ControlFlowGraph,
        domain: Domain,
        summaries: Optional[SummaryRegistry] = None,
        trail_dfa: Optional[DFA] = None,
        proc_bounds: Optional[Dict[str, "ProcBound"]] = None,
        budget=None,
        trail=None,
    ):
        self._cfg = cfg
        self._domain = domain
        self._summaries = summaries if summaries is not None else default_summaries()
        self._dfa = trail_dfa
        self._proc_bounds = proc_bounds or {}
        # Cooperative budget (repro.resilience.budget), shared with the
        # fixpoint engine; None disables every checkpoint.
        self._budget = budget
        # The trail being analyzed (when the caller has one): carries the
        # RefinementDelta that directs the incremental plane, and the
        # lineage fingerprint its artifacts are published under.  None
        # keeps every incremental path inert for this analysis.
        self._trail = trail
        self._delta = getattr(trail, "delta", None) if trail is not None else None
        self._engine = Engine(
            cfg, domain, trail_dfa, summaries=self._summaries, budget=budget
        )
        self._transfer = TransferFunctions(cfg, self._summaries)
        self._symbols = input_symbols(cfg)
        self._nonneg = nonneg_symbols(cfg)
        # Populated during compute():
        self._main: Optional[AnalysisResult] = None
        self._adjacency: Dict[Node, list] = {}
        self._live: Set[Node] = set()
        self._loops: List[GraphLoop] = []
        self._loop_summaries: Dict[Node, Dict[Tuple[Node, Node], CostBound]] = {}
        self._iter_bounds: Dict[Node, IterationBound] = {}
        self._node_costs: Dict[Node, CostBound] = {}
        self._summaries_fp: Optional[str] = None
        # Incremental plane: canonical loop encodings, the content key of
        # every iteration bound computed or served, and the predecessor
        # index that narrows entry-state scans.
        self._canon_cache: Dict[Node, Tuple[Dict[Node, int], tuple]] = {}
        self._iter_keys: Dict[Node, tuple] = {}
        self._preds: Optional[Dict[Node, Set[Node]]] = None

    # -- public entry point ------------------------------------------------------

    def compute(self) -> BoundResult:
        with trace_span(
            "bounds.compute",
            cfg=self._cfg.name,
            restricted=self._dfa is not None,
        ):
            return self._compute()

    def _compute(self) -> BoundResult:
        cfg = self._cfg
        if self._budget is not None:
            self._budget.checkpoint("bounds.compute")
        main = self._engine.analyze()
        self._main = main
        self._adjacency = self._engine.product_graph()
        self._live = {
            node for node, state in main.invariants.items() if not state.is_bottom()
        }
        root = self._engine.initial_node()
        targets = [node for node in self._live if self._is_accepting_exit(node)]
        if root not in self._live or not targets:
            return BoundResult(feasible=False, bound=None, main=main)

        adj_live = {
            u: [e.dst for e in self._adjacency.get(u, []) if e.dst in self._live]
            for u in self._live
        }
        try:
            self._loops = natural_loops(root, adj_live)
        except IrreducibleGraphError:
            # Occurrence splits can make the product graph irreducible
            # (the "taken" DFA state is entered mid-loop, so the q1 copy
            # of the loop header no longer dominates its latch).  Fall
            # back to the unrestricted CFG bound: L(trail) is a subset of
            # L(tr_mg), so the whole-program bound soundly covers the
            # trail — only lower-bound precision is lost.
            if self._dfa is not None:
                projected = self._unrestricted_fallback()
                return BoundResult(
                    feasible=True,
                    bound=projected.bound
                    if projected.bound is not None
                    else CostBound.unbounded(nonneg=self._nonneg),
                    main=main,
                    loop_bounds=dict(projected.loop_bounds),
                )
            return BoundResult(
                feasible=True,
                bound=CostBound.unbounded(nonneg=self._nonneg),
                main=main,
            )

        top_loops = [l for l in self._loops if l.parent is None]
        dist, _ = self._dag_costs(root, self._live, adj_live, top_loops)
        bound: Optional[CostBound] = None
        for target in targets:
            rep = self._rep_of(target, top_loops)
            cost = dist.get(rep)
            if cost is None:
                continue
            bound = cost if bound is None else bound.join(cost)
        self._publish_artifacts()
        if bound is None:
            return BoundResult(feasible=False, bound=None, main=main)
        iter_report = {l.header: self._iter_bounds[l.header] for l in self._loops if l.header in self._iter_bounds}
        return BoundResult(feasible=True, bound=bound, main=main, loop_bounds=iter_report)

    # -- helpers --------------------------------------------------------------------

    def _is_accepting_exit(self, node: Node) -> bool:
        if node[0] != self._cfg.exit_id:
            return False
        if self._dfa is None:
            return True
        return node[1] in self._dfa.accepting

    @staticmethod
    def _rep_of(node: Node, loops: Sequence[GraphLoop]) -> Node:
        for loop in loops:
            if node in loop.body:
                return loop.header
        return node

    # -- per-node cost -----------------------------------------------------------------

    def _node_cost(self, node: Node) -> CostBound:
        cached = self._node_costs.get(node)
        if cached is not None:
            return cached
        block = self._cfg.blocks[node[0]]
        cost = CostBound.of_constant(block.cost, self._nonneg)
        calls = [i for i in block.instrs if isinstance(i, ir.CallInstr)]
        if calls:
            assert self._main is not None
            inv = self._main.invariants.get(node, self._domain.bottom())
            for call in calls:
                cost = cost + self._call_cost(call, inv)
        self._node_costs[node] = cost
        return cost

    def _call_cost(self, call: ir.CallInstr, inv: AbstractState) -> CostBound:
        # Extern with a registered summary.
        summary = self._summaries.lookup(call.callee)
        if summary is not None:
            arg_lens: List[Optional[Poly]] = []
            for arg in call.args:
                arg_lens.append(self._array_length_poly(arg, inv))
            return summary.instantiate(arg_lens)
        # Defined procedure with a precomputed bound: substitute symbols.
        callee_bound = self._proc_bounds.get(call.callee)
        if callee_bound is not None:
            return self._instantiate_proc_bound(call, callee_bound, inv)
        # Unknown callee: no upper bound.
        return CostBound.unbounded(nonneg=self._nonneg)

    def _array_length_poly(self, arg: ir.Operand, inv: AbstractState) -> Optional[Poly]:
        if isinstance(arg, ir.ConstArr):
            return Poly.constant(len(arg.values))
        if isinstance(arg, ir.Reg) and self._cfg.reg_kinds.get(arg.name) == "arr":
            sym = symbolic_form(LinExpr.var(len_var(arg.name)), inv, self._symbols)
            return None if sym is None else linexpr_to_poly(sym)
        return None

    def _instantiate_proc_bound(
        self, call: ir.CallInstr, callee_bound: "ProcBound", inv: AbstractState
    ) -> CostBound:
        from repro.bounds import interproc

        return interproc.instantiate_call_bound(
            self._cfg, call, callee_bound, inv, self._symbols, self._nonneg
        )

    # -- DAG cost propagation --------------------------------------------------------------

    def _dag_costs(
        self,
        entry: Node,
        nodes: Set[Node],
        adj_prop: Dict[Node, List[Node]],
        child_loops: Sequence[GraphLoop],
    ) -> Tuple[Dict[Node, CostBound], Dict[Tuple[Node, Node], CostBound]]:
        """Min/max path costs through a region whose child loops collapse.

        Returns (dist, dist_edge):
        * ``dist[rep]`` — cost from region entry up to *entering* ``rep``
          (a plain node or a collapsed child-loop header);
        * ``dist_edge[(u, v)]`` — cost from region entry through
          *traversing* the product edge ``(u, v)`` (defined for every
          edge with ``u`` in the region, including edges leaving it).
        """
        rep_map: Dict[Node, Node] = {}
        for loop in child_loops:
            for member in loop.body:
                rep_map[member] = loop.header

        def rep_of(n: Node) -> Node:
            return rep_map.get(n, n)

        def local_weight(u: Node, v: Node) -> Optional[CostBound]:
            loop = next((l for l in child_loops if u in l.body), None)
            if loop is None:
                return self._node_cost(u)
            summary = self._loop_summary(loop)
            return summary.get((u, v))

        # Condensed propagation DAG.
        reps = {rep_of(n) for n in nodes}
        csucc: Dict[Node, List[Node]] = {r: [] for r in reps}
        cedges: List[Tuple[Node, Node, Node, Node]] = []  # (ru, rv, u, v)
        for u in sorted(nodes):
            for v in adj_prop.get(u, []):
                ru, rv = rep_of(u), rep_of(v)
                if ru == rv:
                    continue
                csucc[ru].append(rv)
                cedges.append((ru, rv, u, v))
        order = topo_order_dag(sorted(reps), csucc)

        dist: Dict[Node, CostBound] = {rep_of(entry): CostBound.ZERO}
        edges_by_src: Dict[Node, List[Tuple[Node, Node, Node]]] = {}
        for ru, rv, u, v in cedges:
            edges_by_src.setdefault(ru, []).append((rv, u, v))
        for r in order:
            if r not in dist:
                continue
            base = dist[r]
            for rv, u, v in edges_by_src.get(r, []):
                weight = local_weight(u, v)
                if weight is None:
                    continue
                through = base + weight
                old = dist.get(rv)
                dist[rv] = through if old is None else old.join(through)

        # Edge-traversal costs for every out-edge of the region.
        dist_edge: Dict[Tuple[Node, Node], CostBound] = {}
        for u in sorted(nodes):
            ru = rep_of(u)
            if ru not in dist:
                continue
            for e in self._adjacency.get(u, []):
                v = e.dst
                if v in nodes and rep_of(v) == ru:
                    continue  # internal to the same collapsed loop
                weight = local_weight(u, v)
                if weight is None:
                    continue
                dist_edge[(u, v)] = dist[ru] + weight
        return dist, dist_edge

    # -- loop machinery -----------------------------------------------------------------------

    def _loop_summary(self, loop: GraphLoop) -> Dict[Tuple[Node, Node], CostBound]:
        cached = self._loop_summaries.get(loop.header)
        if cached is not None:
            return cached
        inner = [l for l in self._loops if l.parent is loop]
        back = set(loop.back_edges)
        body_adj = {
            u: [
                v
                for v in (e.dst for e in self._adjacency.get(u, []))
                if v in loop.body and v in self._live and (u, v) not in back
            ]
            for u in loop.body
        }
        dist, dist_edge = self._dag_costs(loop.header, loop.body, body_adj, inner)

        periter: Optional[CostBound] = None
        for (latch, header) in loop.back_edges:
            cost = dist_edge.get((latch, header))
            if cost is None:
                continue
            periter = cost if periter is None else periter.join(cost)
        iters = self._iteration_bound(loop)
        self._iter_bounds[loop.header] = iters
        summary: Dict[Tuple[Node, Node], CostBound] = {}
        if periter is None:
            # The body cannot complete an iteration: only the partial
            # "tail" paths to the exits are possible.
            total_loop = CostBound.ZERO
        else:
            total_loop = periter.multiply(
                iters.as_cost(self._nonneg), iterations_nonneg=iters.lower_nonneg
            )
        adj_live_nodes = self._live
        for u in loop.body:
            for e in self._adjacency.get(u, []):
                v = e.dst
                if v in loop.body or v not in adj_live_nodes:
                    continue
                tail = dist_edge.get((u, v))
                if tail is None:
                    continue
                summary[(u, v)] = total_loop + tail
        self._loop_summaries[loop.header] = summary
        return summary

    def _iteration_bound(self, loop: GraphLoop) -> IterationBound:
        cached = self._iter_bounds.get(loop.header)
        if cached is not None:
            return cached
        if self._budget is not None:
            self._budget.checkpoint("bounds.loop")
        with trace_span(
            "bounds.loop", cfg=self._cfg.name, header=str(loop.header)
        ):
            return self._iteration_bound_uncached(loop)

    def _iteration_bound_uncached(self, loop: GraphLoop) -> IterationBound:
        assert self._main is not None
        inv = self._main.invariants
        entry = self._entry_state(loop)

        # Seeded transition relation over the loop body.
        tracked = self._tracked_vars(loop)
        header_inv = inv.get(loop.header, self._domain.bottom())
        seeded = header_inv
        for var in sorted(tracked):
            seeded = seeded.assign(seed_name(var), LinExpr.var(var))

        # Incremental plane: probe the reuse tiers before running the
        # transition fixpoint.  The whole iteration bound is a pure
        # function of the canonical inputs encoded in the key (the
        # candidates are hoisted so the key can cover them); a split
        # child consults its parent's lineage-indexed artifacts first,
        # except for loops the split's constructor touches, which are
        # dirty and recompute unconditionally.
        use_inc = runtime.enabled() and self._budget is None
        key = None
        candidates: Optional[List[RankCandidate]] = None
        single_exit: Optional[Node] = None
        inner_finite = True
        if use_inc:
            candidates, single_exit = self._rank_candidates(loop)
            inner_finite = self._inner_finite(loop)
            key = self._iteration_bound_key(
                loop, seeded, entry, tracked, candidates, single_exit, inner_finite
            )
        if key is not None:
            from repro.perf import incremental

            delta = self._delta
            blocks = {n[0] for n in loop.body}
            if delta is not None and incremental.delta_touches(delta, blocks):
                runtime.STATS.event("refine.dirty")
            else:
                served = incremental.lookup_iterbound(
                    delta, key, "%s:b%d" % (self._cfg.name, loop.header[0])
                )
                if served is not None:
                    self._iter_bounds[loop.header] = served
                    self._iter_keys[loop.header] = key
                    return served

        transition = self._loop_transition(loop, seeded)
        if transition.is_bottom():
            bound = IterationBound(lower=Poly.ZERO, upper=Poly.ZERO, exact=True)
            self._iter_bounds[loop.header] = bound
            self._record_iterbound(loop, key, bound)
            return bound

        if candidates is None:
            candidates, single_exit = self._rank_candidates(loop)
            inner_finite = self._inner_finite(loop)
        bound = match_iteration_lemmas(
            candidates=candidates,
            transition=transition,
            entry_state=entry,
            seeded_vars=tracked,
            symbols=self._symbols,
            single_exit_branch=single_exit,
            inner_loops_finite=inner_finite,
            header=loop.header,
        )
        self._iter_bounds[loop.header] = bound
        self._record_iterbound(loop, key, bound)
        return bound

    def _record_iterbound(
        self, loop: GraphLoop, key: Optional[tuple], bound: IterationBound
    ) -> None:
        if key is None:
            return
        from repro.perf import incremental

        self._iter_keys[loop.header] = key
        incremental.store_iterbound(key, bound)

    def _entry_state(self, loop: GraphLoop) -> AbstractState:
        """Join over edges entering the header from outside the loop.

        The incremental plane narrows the scan to the header's product
        predecessors before the (expensive) ``edge_out_states`` call;
        iteration stays over ``self._live`` itself, so contributing
        nodes are visited in exactly the seed order and the join
        sequence — hence the result — is unchanged.
        """
        assert self._main is not None
        inv = self._main.invariants
        entry = self._domain.bottom()
        preds = (
            self._header_preds(loop.header)
            if runtime.enabled()
            else None
        )
        for m in self._live:
            if m in loop.body:
                continue
            if preds is not None and m not in preds:
                continue
            state = inv.get(m)
            if state is None or state.is_bottom():
                continue
            for e, out_state in self._engine.edge_out_states(m, state):
                if e.dst == loop.header and not out_state.is_bottom():
                    entry = entry.join(out_state)
        if loop.header == self._engine.initial_node():
            entry = entry.join(self._transfer.entry_state(self._domain.top()))
        return entry

    def _header_preds(self, header: Node) -> Set[Node]:
        if self._preds is None:
            preds: Dict[Node, Set[Node]] = {}
            for u, edges in self._adjacency.items():
                for e in edges:
                    preds.setdefault(e.dst, set()).add(u)
            self._preds = preds
        return self._preds.get(header, set())

    def _inner_finite(self, loop: GraphLoop) -> bool:
        return all(
            self._iteration_bound(l).upper is not None
            for l in self._loops
            if l.parent is loop
        )

    def _rank_candidates(
        self, loop: GraphLoop
    ) -> Tuple[List[RankCandidate], Optional[Node]]:
        """Rank candidates from exiting branches, plus the single-exit
        branch node when the loop has exactly one exit edge."""
        assert self._main is not None
        inv = self._main.invariants
        candidates: List[RankCandidate] = []
        exit_edges: List[Tuple[Node, Node]] = []
        exit_branches: Set[Node] = set()
        for u in sorted(loop.body):
            for e in self._adjacency.get(u, []):
                if e.dst in loop.body or e.dst not in self._live:
                    continue
                exit_edges.append((u, e.dst))
                exit_branches.add(u)
                stay_edges = [
                    e2
                    for e2 in self._adjacency.get(u, [])
                    if e2.dst in loop.body and e2.dst in self._live
                ]
                if len(stay_edges) != 1 or e.branch_taken is None:
                    continue
                stay = stay_edges[0]
                if stay.branch_taken is None:
                    continue
                node_inv = inv.get(u)
                if node_inv is None or node_inv.is_bottom():
                    continue
                _, conds = self._transfer.block_effect(u[0], node_inv)
                cons = self._transfer.branch_constraint(u[0], stay.branch_taken, conds)
                if cons is not None and cons.op is RelOp.LE:
                    rank = -cons.expr
                    # Express the rank in terms of header-entry values so
                    # that block-local temps (dead across the back edge)
                    # do not defeat the transition-relation query.
                    rewritten = self._transfer.rewrite_to_block_entry(u[0], rank)
                    if rewritten is not None:
                        rank = rewritten
                    candidates.append(RankCandidate(rank=rank, branch_node=u))

        single_exit = None
        if len(set(exit_edges)) >= 1 and len(exit_branches) == 1:
            # All exits leave from one branch block.
            only = next(iter(exit_branches))
            if len([e for e in exit_edges]) == len(
                [e for e in exit_edges if e[0] == only]
            ) and len(set(exit_edges)) == 1:
                single_exit = only
        return candidates, single_exit

    # -- incremental re-analysis ---------------------------------------------------

    def _loop_transition(self, loop: GraphLoop, seeded: AbstractState) -> AbstractState:
        """The loop's seeded transition relation (join of the states
        flowing along its back edges), memoized by *content* so a
        refinement split reuses the parent trail's fixpoints.

        When REFINEPARTITION splits a trail at a branch, every loop the
        split does not touch reappears in each child with an isomorphic
        product subgraph (same blocks, same edge structure, different
        DFA-state numbers) and — whenever the split did not sharpen the
        header invariant — an equal seeded entry state.  The transition
        relation is a pure function of (a) the explored product subgraph
        up to DFA-state renaming, (b) the seeded state's content, and
        (c) the driver-fixed inputs (CFG, domain, summaries): the
        engine's exploration order, RPO, widening points and worklist
        order all derive from the adjacency *structure* (successor lists
        follow CFG edge order), never from the raw DFA state numbers,
        and ``collected_join()`` discards node labels entirely.  Keying
        the memo by a canonical (DFS-numbered) encoding of the subgraph
        therefore returns bit-identical results to a fresh run — this is
        the "delta on the split constructor": only loops the split
        actually changed are re-analyzed.

        Budget-carrying analyses bypass the memo: a hit would skip the
        engine's per-step budget checkpoints and change exhaustion
        behavior, and degraded results must never be reused.
        """
        back = set(loop.back_edges)
        key = None
        if runtime.enabled() and self._budget is None:
            key = self._loop_transition_key(loop, seeded)
            if key is not None:
                table = runtime.memo_table("bounds.transition")
                hit = table.get(key)
                if hit is not None:
                    runtime.STATS.hit("bounds.transition")
                    return hit
                runtime.STATS.miss("bounds.transition")
        result = self._engine.analyze(
            initial={loop.header: seeded},
            restrict=set(loop.body),
            collect=lambda s, d, e: (s, d) in back,
        )
        transition = result.collected_join()
        if key is not None:
            runtime.memo_table("bounds.transition")[key] = transition
        return transition

    def _loop_canon(self, loop: GraphLoop) -> Tuple[Dict[Node, int], tuple]:
        """Canonical numbering + encoding of one loop's product subgraph.

        Mirrors the engine's own DFS (``_explore``) from the header over
        the body-restricted adjacency to number nodes structurally, then
        encodes every node as (block id, ordered successors) with each
        successor as (canonical dst, branch polarity, is-back-edge).
        Equal encodings imply the engine sees identical inputs up to a
        DFA-state renaming its computation cannot observe.  Cached per
        header: both the transition memo and the iteration-bound key
        consume it.
        """
        cached = self._canon_cache.get(loop.header)
        if cached is not None:
            return cached
        back = set(loop.back_edges)
        body = loop.body
        adj = {
            u: [e for e in self._adjacency.get(u, []) if e.dst in body] for u in body
        }
        order: List[Node] = []
        seen: Set[Node] = set()
        stack: List[Node] = [loop.header]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            for e in adj.get(node, []):
                if e.dst not in seen:
                    stack.append(e.dst)
        canon = {node: i for i, node in enumerate(order)}
        enc = tuple(
            (
                node[0],
                tuple(
                    (canon[e.dst], e.branch_taken, (node, e.dst) in back)
                    for e in adj.get(node, [])
                ),
            )
            for node in order
        )
        self._canon_cache[loop.header] = (canon, enc)
        return canon, enc

    def _summaries_fingerprint(self) -> str:
        if self._summaries_fp is None:
            self._summaries_fp = self._summaries.fingerprint()
        return self._summaries_fp

    def _loop_transition_key(
        self, loop: GraphLoop, seeded: AbstractState
    ) -> Optional[tuple]:
        """Canonical content key for one seeded loop analysis, or None
        when the state offers no content key (see :meth:`_loop_canon`)."""
        key_of = getattr(seeded, "cache_key", None)
        if key_of is None:
            return None
        from repro.perf.fingerprint import cfg_fingerprint

        _, enc = self._loop_canon(loop)
        return (
            cfg_fingerprint(self._cfg),
            self._domain.name,
            self._summaries_fingerprint(),
            key_of(),
            enc,
        )

    def _iteration_bound_key(
        self,
        loop: GraphLoop,
        seeded: AbstractState,
        entry: AbstractState,
        tracked: Set[str],
        candidates: List[RankCandidate],
        single_exit: Optional[Node],
        inner_finite: bool,
    ) -> Optional[tuple]:
        """Canonical content key for one loop's whole iteration bound.

        Extends the transition key with everything else the lemma
        matcher reads: the entry state's content, the tracked/seeded
        variable set, the designated input symbols, every rank
        candidate (its linear expression plus the *canonical* index of
        its branch node — the matcher consumes branch nodes only via
        equality with the single-exit branch and the header, which the
        indices preserve), the single-exit branch's canonical index,
        and the inner-loop finiteness flag.  Node labels never enter
        the key, so parent/child artifacts with renamed DFA states
        compare equal exactly when the analysis would reproduce them.
        """
        seeded_key = getattr(seeded, "cache_key", None)
        entry_key = getattr(entry, "cache_key", None)
        if seeded_key is None or entry_key is None:
            return None
        from repro.perf.fingerprint import cfg_fingerprint

        canon, enc = self._loop_canon(loop)
        cand_enc: List[tuple] = []
        for cand in candidates:
            idx = canon.get(cand.branch_node)
            if idx is None:
                return None
            cand_enc.append(
                ((tuple(sorted(cand.rank.coeffs.items())), cand.rank.const), idx)
            )
        exit_idx = None if single_exit is None else canon.get(single_exit)
        return (
            "iterbound",
            cfg_fingerprint(self._cfg),
            self._domain.name,
            self._summaries_fingerprint(),
            enc,
            seeded_key(),
            entry_key(),
            tuple(sorted(tracked)),
            tuple(self._symbols),
            tuple(cand_enc),
            exit_idx,
            inner_finite,
        )

    def _unrestricted_fallback(self) -> BoundResult:
        """The whole-CFG bound used when a trail's product graph is
        irreducible."""
        return BoundAnalysis(
            self._cfg,
            self._domain,
            self._summaries,
            trail_dfa=None,
            proc_bounds=self._proc_bounds,
            budget=self._budget,
        ).compute()

    def _publish_artifacts(self) -> None:
        """Index this analysis's per-loop artifacts under its trail's
        delta-lineage fingerprint, for future split children to probe."""
        if self._trail is None or not self._iter_keys:
            return
        if not (runtime.enabled() and self._budget is None):
            return
        from repro.perf import incremental

        artifacts = {
            key: self._iter_bounds[header]
            for header, key in self._iter_keys.items()
            if header in self._iter_bounds
        }
        incremental.publish_loop_artifacts(self._trail, artifacts)

    def _tracked_vars(self, loop: GraphLoop) -> Set[str]:
        """Integer variables worth seeding for the transition relation."""
        tracked: Set[str] = set()
        blocks = {n[0] for n in loop.body}
        for bid in blocks:
            block = self._cfg.blocks[bid]
            regs: List[ir.Reg] = []
            for instr in block.instrs:
                regs.extend(instr.defs())
                regs.extend(instr.uses())
                if isinstance(instr, ir.ArrLen) and isinstance(instr.arr, ir.Reg):
                    tracked.add(len_var(instr.arr.name))
            if block.term is not None:
                regs.extend(block.term.uses())
            for reg in regs:
                kind = self._cfg.reg_kinds.get(reg.name, "int")
                if kind == "arr":
                    tracked.add(len_var(reg.name))
                else:
                    tracked.add(reg.name)
        return tracked


def compute_bound(
    cfg: ControlFlowGraph,
    domain: Domain,
    summaries: Optional[SummaryRegistry] = None,
    trail_dfa: Optional[DFA] = None,
    proc_bounds: Optional[Dict[str, "ProcBound"]] = None,
    budget=None,
    trail=None,
) -> BoundResult:
    """One-shot BOUNDANALYSIS convenience wrapper."""
    return BoundAnalysis(
        cfg, domain, summaries, trail_dfa, proc_bounds, budget=budget, trail=trail
    ).compute()
