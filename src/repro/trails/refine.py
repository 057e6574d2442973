"""REFINEPARTITION: the pluggable trail-splitting strategies.

Section 4.3: splitting a trail at a branch block whose decision depends
only on low data yields a ψ_SC-quotient partition — two executions that
agree on the low inputs make identical decision sequences at such a
block (the taint analysis guarantees the decision is a function of
low-derived state, which evolves identically), so they fall into the
same component.  Splitting at high-dependent branches is used in the
attack-synthesis phase instead.

Strategies (the paper: "a collection of pluggable strategies"):

``OccurrenceSplit``
    ``tr ∩ (Σ* e Σ*)`` vs ``tr ∩ complement(Σ* e Σ*)`` for a branch edge
    ``e`` — "may exit on line 5" / "must enter the for loop" in Fig. 1.
    Always covers L(tr).

``StarUnrollSplit``
    Zero-vs-more iterations of a loop guarded by the branch: the trail
    that *never* takes the loop-entry edge vs the one that takes it at
    least once, then additionally unrolls the first iteration from the
    header (language-preserving refinement of the second component).

Every strategy returns components whose union covers the parent (checked
cheaply by the caller via automata inclusion when validating).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from repro.automata.dfa import DFA, containing_symbol
from repro.cfg.graph import ControlFlowGraph, Edge
from repro.trails.trail import SplitInfo, Trail
from repro.util.errors import TrailError


class SplitStrategy(abc.ABC):
    """One way of refining a trail at a branch block."""

    name: str = "abstract"

    @abc.abstractmethod
    def split(self, trail: Trail, block: int, kind: str) -> List[Trail]:
        """Split ``trail`` at branch ``block``; ``kind`` is "taint"/"sec".

        Returns [] when the split makes no progress (e.g. one side is
        empty or equals the parent).
        """


def _describe_edge(cfg: ControlFlowGraph, edge: Edge, polarity: bool) -> str:
    verb = "takes" if polarity else "never takes"
    return "%s edge b%d->b%d" % (verb, edge[0], edge[1])


def _derive_split_dfas(trail: Trail, edge: Edge) -> Tuple[DFA, DFA]:
    """The two occurrence-split child DFAs ``(with_edge, without_edge)``.

    Under the incremental plane the pair is interned process-wide, keyed
    by the parent DFA's *exact* state structure plus the alphabet and
    edge — the same strictness as the ``trail.regex`` intern: product
    construction and minimization output depend on concrete state
    numbering, so an isomorphism-class key would not preserve the seed's
    byte-identical child DFAs.  DFAs are immutable, so re-splitting the
    same parent across refinement rounds (diffcheck sweeps re-derive
    sibling trails constantly) shares one intersect+minimize run.
    """
    from repro.perf import runtime

    alphabet = trail.alphabet
    key = None
    if runtime.enabled():
        from repro.perf.fingerprint import dfa_structure_key

        key = (dfa_structure_key(trail.dfa), frozenset(alphabet), edge)
        pair = runtime.memo_table("refine.split").get(key)
        if pair is not None:
            runtime.STATS.hit("refine.split")
            return pair
        runtime.STATS.miss("refine.split")
    occurs = containing_symbol(alphabet, edge)
    pair = (
        trail.dfa.intersect(occurs).minimized(),
        trail.dfa.intersect(occurs.complement(alphabet)).minimized(),
    )
    if key is not None:
        runtime.memo_table("refine.split")[key] = pair
    return pair


class OccurrenceSplit(SplitStrategy):
    """Split on whether a chosen branch edge occurs in the trace."""

    name = "occurrence"

    def split(self, trail: Trail, block: int, kind: str) -> List[Trail]:
        cfg = trail.cfg
        taken, not_taken = cfg.branch_edges(block)
        # Prefer splitting on the edge that distinguishes more sharply:
        # try the taken edge first, fall back to the not-taken edge.
        for edge in (taken, not_taken):
            components = self.split_on_edge(trail, block, edge, kind)
            if components:
                return components
        return []

    def split_on_edge(
        self, trail: Trail, block: int, edge: Edge, kind: str
    ) -> List[Trail]:
        """The occurrence split for one specific branch edge."""
        if edge not in trail.alphabet:
            return []
        with_edge, without_edge = _derive_split_dfas(trail, edge)
        if with_edge.is_empty() or without_edge.is_empty():
            return []  # no progress: one side is the whole parent
        cfg = trail.cfg
        return [
            trail.derived(
                with_edge,
                _describe_edge(cfg, edge, True),
                SplitInfo(kind, block, edge, True),
            ),
            trail.derived(
                without_edge,
                _describe_edge(cfg, edge, False),
                SplitInfo(kind, block, edge, False),
            ),
        ]


class RegexNodeSplit(SplitStrategy):
    """Split at an annotated regex constructor (the paper's §4.3 letter).

    For a union ``tr1 |α tr2`` annotated with respect to the branch, the
    components replace the node by its operands: ``context[tr1]`` and
    ``context[tr2]``.  For a star ``tr*α`` the components are the
    zero-iteration replacement ``context[ε]`` and the at-least-once
    unrolling ``context[tr·tr*]``.  The languages are compiled back to
    DFAs, so components mix freely with occurrence splits.

    State elimination does not always surface a given branch as a single
    constructor (edges can be duplicated across operands), in which case
    the strategy finds no annotated node and returns [] — the driver then
    falls back to :class:`OccurrenceSplit`, matching the paper's
    "collection of pluggable strategies".
    """

    name = "regex-node"

    def split(self, trail: Trail, block: int, kind: str) -> List[Trail]:
        from repro.automata import regex as rx
        from repro.automata.elim import regex_to_dfa
        from repro.taint import analyze_taint
        from repro.trails.annotate import annotate_trail

        cfg = trail.cfg
        taint = analyze_taint(cfg)
        regex = trail.regex()
        annotated = annotate_trail(regex, cfg, taint)
        target: Optional[rx.Regex] = None
        for node, ann in annotated.annotated_nodes():
            if block in ann.blocks:
                target = node
                break
        if target is None:
            return []

        def rebuild(node: rx.Regex, replacement: rx.Regex) -> rx.Regex:
            if node is target:
                return replacement
            if isinstance(node, rx.Concat):
                return rx.concat(
                    rebuild(node.left, replacement), rebuild(node.right, replacement)
                )
            if isinstance(node, rx.Union):
                return rx.union(
                    rebuild(node.left, replacement), rebuild(node.right, replacement)
                )
            if isinstance(node, rx.Star):
                inner = rebuild(node.inner, replacement)
                return rx.star(inner) if inner is not node.inner else node
            return node

        if isinstance(target, rx.Union):
            replacements = [
                (target.left, "left alternative at b%d" % block),
                (target.right, "right alternative at b%d" % block),
            ]
        elif isinstance(target, rx.Star):
            replacements = [
                (rx.EPSILON, "skips the loop at b%d" % block),
                (
                    rx.concat(target.inner, target),
                    "iterates the loop at b%d" % block,
                ),
            ]
        else:
            return []

        taken, _ = cfg.branch_edges(block)
        components: List[Trail] = []
        for replacement, description in replacements:
            new_regex = rebuild(regex, replacement)
            dfa = regex_to_dfa(new_regex, trail.alphabet)
            # Stay within the parent (rebuilding can only shrink, but the
            # intersection guards against constructor sharing).
            dfa = dfa.intersect(trail.dfa).minimized()
            if dfa.is_empty():
                return []
            components.append(
                trail.derived(
                    dfa,
                    description,
                    SplitInfo(kind, block, taken, True),
                )
            )
        # Drop the split if it made no progress (a component equals the
        # parent's language).
        for component in components:
            if component.dfa.includes(trail.dfa):
                return []
        return components


class StarUnrollSplit(SplitStrategy):
    """Split a loop guard: never enters the loop vs enters at least once."""

    name = "star-unroll"

    def __init__(self, loop_entry_edge_of=None):
        # Optional hook mapping (cfg, block) -> the loop-entry edge;
        # defaults to the branch's taken edge.
        self._entry_edge_of = loop_entry_edge_of

    def split(self, trail: Trail, block: int, kind: str) -> List[Trail]:
        cfg = trail.cfg
        taken, not_taken = cfg.branch_edges(block)
        entry_edge = taken
        if self._entry_edge_of is not None:
            override = self._entry_edge_of(cfg, block)
            if override is not None:
                entry_edge = override
        return OccurrenceSplit().split_on_edge(trail, block, entry_edge, kind)


DEFAULT_STRATEGIES: Tuple[SplitStrategy, ...] = (OccurrenceSplit(),)


def verify_cover(parent: Trail, components: List[Trail]) -> bool:
    """Check ⋃ L(component_i) ⊇ L(parent) (used in tests and debugging)."""
    if not components:
        return False
    union: Optional[DFA] = None
    for comp in components:
        union = comp.dfa if union is None else union.union(comp.dfa)
    assert union is not None
    return union.includes(parent.dfa)


def split_trail(
    trail: Trail,
    block: int,
    kind: str,
    strategies: Tuple[SplitStrategy, ...] = DEFAULT_STRATEGIES,
) -> List[Trail]:
    """Try each strategy in order; return the first productive split."""
    if block not in trail.cfg.branch_blocks():
        raise TrailError("b%d is not a branch block" % block)
    for strategy in strategies:
        components = strategy.split(trail, block, kind)
        if components:
            return components
    return []
