"""Trails: symbolic representations of trace-partition components.

A trail (Section 4.1) is a regular language over the CFG-edge alphabet.
The canonical internal form is a DFA (refinement needs boolean language
algebra); the regex form — the presentation used throughout the paper —
is derived on demand by state elimination.

``Trail`` also records *provenance*: the chain of splits that produced
it from the most general trail, which is what the Fig.-1-style trees
display (``taint`` vs ``sec`` arrows) and what the driver consults to
avoid splitting on the same branch twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.automata import regex as rx
from repro.automata.dfa import DFA
from repro.automata.elim import dfa_to_regex
from repro.cfg.automaton import cfg_automaton, edge_alphabet
from repro.cfg.graph import ControlFlowGraph, Edge


@dataclass(frozen=True)
class SplitInfo:
    """One refinement step in a trail's provenance."""

    kind: str  # "taint" (low split) or "sec" (high split)
    block: int  # the branch block split on
    edge: Edge  # the branch edge whose occurrence was decided
    polarity: bool  # True: the edge must occur; False: it never occurs

    def __str__(self) -> str:
        verb = "takes" if self.polarity else "avoids"
        return "%s:%s %s->%s" % (self.kind, verb, self.edge[0], self.edge[1])


@dataclass(frozen=True)
class RefinementDelta:
    """The one-constructor perturbation a split applied to its parent.

    Where :class:`SplitInfo` is human-facing provenance, the delta is
    the *machine-facing* contract the incremental re-analysis plane
    (docs/PERFORMANCE.md) consumes: which branch block was perturbed
    (everything structurally disjoint from it is a reuse candidate),
    and which parent computation — identified by its delta-lineage
    fingerprint — holds the artifacts to probe.  Carried by every
    derived trail; ignored entirely when the incremental plane is off.
    """

    parent_fingerprint: str  # content (language) fingerprint of the parent
    parent_lineage: str  # delta-lineage fingerprint of the parent
    kind: str  # "taint" or "sec", as in SplitInfo
    block: int  # the perturbed branch block
    edge: Edge  # the branch edge whose occurrence was decided
    polarity: bool  # True: the edge must occur; False: it never occurs

    def __str__(self) -> str:
        verb = "takes" if self.polarity else "avoids"
        return "delta[%s:%s b%d %s->%s of %s]" % (
            self.kind,
            verb,
            self.block,
            self.edge[0],
            self.edge[1],
            self.parent_lineage[:12],
        )


@dataclass
class Trail:
    """One partition component, as a language of CFG-edge words."""

    cfg: ControlFlowGraph
    dfa: DFA
    description: str
    splits: Tuple[SplitInfo, ...] = ()
    # The machine-facing perturbation record of the split that produced
    # this trail (None for roots).  compare=False: trail equality stays
    # content-based, exactly as before the incremental plane existed.
    delta: Optional[RefinementDelta] = field(default=None, repr=False, compare=False)
    _regex_cache: Optional[rx.Regex] = field(default=None, repr=False, compare=False)
    _fingerprint_cache: Optional[str] = field(default=None, repr=False, compare=False)
    _lineage_cache: Optional[str] = field(default=None, repr=False, compare=False)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def most_general(cfg: ControlFlowGraph) -> "Trail":
        """tr_mg: all paths of the CFG automaton (entry to exit)."""
        return Trail(
            cfg=cfg,
            dfa=cfg_automaton(cfg).minimized(),
            description="most general trail (all paths are possible)",
        )

    # -- language queries ----------------------------------------------------------

    @property
    def alphabet(self) -> FrozenSet[Edge]:
        return edge_alphabet(self.cfg)

    def accepts(self, word: Tuple[Edge, ...]) -> bool:
        return self.dfa.accepts(word)

    def is_empty(self) -> bool:
        return self.dfa.is_empty()

    def includes(self, other: "Trail") -> bool:
        """L(other) ⊆ L(self)."""
        return self.dfa.includes(other.dfa)

    def regex(self) -> rx.Regex:
        """The trail as a regular expression (state elimination).

        With the perf layer on, the computed regex is interned in a
        process-wide table keyed by the DFA's *exact* state structure
        (state count, initial, accepting set, transition map) — NOT the
        canonical isomorphism-class fingerprint: state elimination's
        output shape depends on concrete state numbering, and the seed
        semantics must see the regex this exact DFA would produce.
        Sibling trails re-derived across refinement rounds share one
        elimination run; regexes are immutable, so sharing is safe.
        """
        if self._regex_cache is None:
            regex = None
            from repro.perf import runtime

            key = None
            if runtime.enabled():
                from repro.perf.fingerprint import dfa_structure_key

                key = dfa_structure_key(self.dfa)
                regex = runtime.memo_table("trail.regex").get(key)
                if regex is None:
                    runtime.STATS.miss("trail.regex")
                else:
                    runtime.STATS.hit("trail.regex")
            if regex is None:
                regex = dfa_to_regex(self.dfa)
                if key is not None:
                    runtime.memo_table("trail.regex")[key] = regex
            object.__setattr__(self, "_regex_cache", regex)
        return self._regex_cache  # type: ignore[return-value]

    def split_blocks(self) -> FrozenSet[int]:
        """Branch blocks this trail's provenance already split on."""
        return frozenset(s.block for s in self.splits)

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """Deterministic content fingerprint of this trail (hex SHA-256).

        Covers the CFG structure and the trail DFA *up to isomorphism*
        (states are canonically renumbered), so it is stable across
        processes and Python hash randomization.  Deliberately
        **language-keyed**: the provenance (``splits``) and the
        human-readable ``description`` are excluded, so two trails
        denoting the same language — e.g. the same component reached via
        a different refinement route, or an untouched sibling re-derived
        after a split — share one fingerprint, and therefore one cached
        bound in :class:`repro.perf.cache.AnalysisCache`.
        """
        if self._fingerprint_cache is None:
            from repro.perf.fingerprint import trail_fingerprint

            object.__setattr__(self, "_fingerprint_cache", trail_fingerprint(self))
        return self._fingerprint_cache  # type: ignore[return-value]

    def lineage_fingerprint(self) -> str:
        """Delta-lineage fingerprint: :meth:`fingerprint` *plus* the
        split route (see :func:`repro.perf.fingerprint.lineage_fingerprint`).
        The incremental plane's parent-artifact index keys by this, so a
        reused fixpoint can never be served for a structurally different
        split even when the two children denote the same language.
        """
        if self._lineage_cache is None:
            from repro.perf.fingerprint import lineage_fingerprint

            object.__setattr__(self, "_lineage_cache", lineage_fingerprint(self))
        return self._lineage_cache  # type: ignore[return-value]

    def __hash__(self) -> int:
        # Content-based and consistent with the dataclass __eq__: equal
        # trails have equal cfg/dfa, hence equal fingerprints.  (Without
        # this, @dataclass(eq=True) would set __hash__ to None.)
        return hash(self.fingerprint())

    def derived(
        self, dfa: DFA, description: str, split: SplitInfo
    ) -> "Trail":
        """The child trail over ``dfa``, which the caller has already
        minimized (minimizing a minimal DFA returns it unchanged)."""
        return Trail(
            cfg=self.cfg,
            dfa=dfa,
            description=description,
            splits=self.splits + (split,),
            delta=RefinementDelta(
                parent_fingerprint=self.fingerprint(),
                parent_lineage=self.lineage_fingerprint(),
                kind=split.kind,
                block=split.block,
                edge=split.edge,
                polarity=split.polarity,
            ),
        )

    def __str__(self) -> str:
        return "Trail(%s)" % self.description
