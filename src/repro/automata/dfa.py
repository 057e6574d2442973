"""Deterministic finite automata and the boolean algebra of languages.

This is the working core of the brics-automaton replacement: trails are
compiled to DFAs, and REFINEPARTITION manipulates them with intersection,
union, complement, inclusion and emptiness.

Transitions are *partial*: a missing ``(state, symbol)`` entry means the
word is rejected (it goes to an implicit dead state).  Minimization and
intersection — the two operations every refinement split pays for — work
on the partial map directly; only complement and union, which need
totality, complete the automaton with a sink over an explicit alphabet
first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.util.errors import AutomatonError

Symbol = Hashable


@dataclass
class DFA:
    num_states: int = 0
    initial: int = 0
    accepting: Set[int] = field(default_factory=set)
    transitions: Dict[Tuple[int, Symbol], int] = field(default_factory=dict)
    alphabet: FrozenSet[Symbol] = frozenset()

    # -- basics ------------------------------------------------------------------

    def step(self, state: int, symbol: Symbol) -> Optional[int]:
        return self.transitions.get((state, symbol))

    def accepts(self, word: Tuple[Symbol, ...]) -> bool:
        state: Optional[int] = self.initial
        for symbol in word:
            state = self.step(state, symbol)  # type: ignore[arg-type]
            if state is None:
                return False
        return state in self.accepting

    def _used_symbols(self) -> Set[Symbol]:
        return {sym for (_, sym) in self.transitions}

    def _joint_symbols(self, other: "DFA") -> Set[Symbol]:
        """Both alphabets and every symbol either side uses (the
        iteration order of this set fixes product state numbering)."""
        return set(self.alphabet) | self._used_symbols() | set(other.alphabet) | other._used_symbols()

    # -- language queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        """Is the accepted language empty?"""
        return self.shortest_word() is None

    def shortest_word(self) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word, or None if the language is empty."""
        if self.initial in self.accepting:
            return ()
        parent: Dict[int, Tuple[int, Symbol]] = {}
        seen = {self.initial}
        queue = deque([self.initial])
        # Deterministic exploration order for reproducible witnesses.
        outgoing: Dict[int, List[Tuple[Symbol, int]]] = {}
        for (src, symbol), dst in self.transitions.items():
            outgoing.setdefault(src, []).append((symbol, dst))
        for src in outgoing:
            outgoing[src].sort(key=lambda pair: repr(pair[0]))
        while queue:
            state = queue.popleft()
            for symbol, dst in outgoing.get(state, []):
                if dst in seen:
                    continue
                seen.add(dst)
                parent[dst] = (state, symbol)
                if dst in self.accepting:
                    word: List[Symbol] = []
                    cur = dst
                    while cur != self.initial:
                        prev, sym = parent[cur]
                        word.append(sym)
                        cur = prev
                    return tuple(reversed(word))
                queue.append(dst)
        return None

    def is_finite(self) -> bool:
        """Is the accepted language finite?

        True iff the subgraph of *useful* states (reachable from the
        initial state and co-reachable to an accepting state) is acyclic,
        checked with Kahn's algorithm.
        """
        useful = self._useful_states()
        fwd: Dict[int, List[int]] = {}
        indegree = {state: 0 for state in useful}
        for (src, _), dst in self.transitions.items():
            if src in useful and dst in useful:
                fwd.setdefault(src, []).append(dst)
                indegree[dst] += 1
        queue = deque(state for state, deg in indegree.items() if deg == 0)
        removed = 0
        while queue:
            node = queue.popleft()
            removed += 1
            for dst in fwd.get(node, ()):
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    queue.append(dst)
        return removed == len(useful)

    def _useful_states(self) -> Set[int]:
        # Index successors/predecessors once: scanning the transition
        # dict per visited state is quadratic on product automata.
        fwd: Dict[int, List[int]] = {}
        rev: Dict[int, List[int]] = {}
        for (src, _), dst in self.transitions.items():
            fwd.setdefault(src, []).append(dst)
            rev.setdefault(dst, []).append(src)
        reachable: Set[int] = set()
        stack = [self.initial]
        while stack:
            state = stack.pop()
            if state in reachable:
                continue
            reachable.add(state)
            stack.extend(dst for dst in fwd.get(state, ()) if dst not in reachable)
        coreachable: Set[int] = set()
        stack = list(self.accepting)
        while stack:
            state = stack.pop()
            if state in coreachable:
                continue
            coreachable.add(state)
            stack.extend(src for src in rev.get(state, ()) if src not in coreachable)
        return reachable & coreachable

    # -- constructions -----------------------------------------------------------

    def completed(self, alphabet: Optional[FrozenSet[Symbol]] = None) -> "DFA":
        """Total version over ``alphabet`` (default: own alphabet ∪ used)."""
        symbols = set(self.alphabet) | self._used_symbols()
        if alphabet is not None:
            symbols |= set(alphabet)
        sink = self.num_states
        transitions = dict(self.transitions)
        need_sink = False
        for state in range(self.num_states):
            for symbol in symbols:
                if (state, symbol) not in transitions:
                    transitions[(state, symbol)] = sink
                    need_sink = True
        num_states = self.num_states
        if need_sink:
            num_states += 1
            for symbol in symbols:
                transitions[(sink, symbol)] = sink
        return DFA(num_states, self.initial, set(self.accepting), transitions, frozenset(symbols))

    def complement(self, alphabet: Optional[FrozenSet[Symbol]] = None) -> "DFA":
        total = self.completed(alphabet)
        accepting = {s for s in range(total.num_states) if s not in total.accepting}
        return DFA(total.num_states, total.initial, accepting, dict(total.transitions), total.alphabet)

    def intersect(self, other: "DFA") -> "DFA":
        """Product over the transitions both sides define.

        A pair with a missing side would only lead to the dead state, so
        it is never built.  Each left state's outgoing symbols are walked
        in the iteration order of the joint symbol set — the order the
        sink-completed product used — so the pairs that remain are
        discovered in the same relative order, and :meth:`minimized`
        numbers their states exactly as it would on the dense product.
        """
        return self._product(other, accept_either=False)

    def union(self, other: "DFA") -> "DFA":
        """Union needs totality — a word one side rejects can still be
        accepted by the other — so both sides are sink-completed over
        the joint symbols before the product."""
        symbols = frozenset(self._joint_symbols(other))
        return self.completed(symbols)._product(other.completed(symbols), accept_either=True)

    def _product(self, other: "DFA", accept_either: bool) -> "DFA":
        symbols = self._joint_symbols(other)
        rank = {symbol: i for i, symbol in enumerate(symbols)}
        outgoing: Dict[int, List[Tuple[int, Symbol, int]]] = {}
        for (src, symbol), dst in self.transitions.items():
            outgoing.setdefault(src, []).append((rank[symbol], symbol, dst))
        for arcs in outgoing.values():
            arcs.sort(key=lambda arc: arc[0])
        right = other.transitions
        index: Dict[Tuple[int, int], int] = {(self.initial, other.initial): 0}
        worklist = [(self.initial, other.initial)]
        transitions: Dict[Tuple[int, Symbol], int] = {}
        accepting: Set[int] = set()
        while worklist:
            pair = worklist.pop()
            a, b = pair
            src = index[pair]
            a_acc = a in self.accepting
            b_acc = b in other.accepting
            if (a_acc or b_acc) if accept_either else (a_acc and b_acc):
                accepting.add(src)
            for _, symbol, a_dst in outgoing.get(a, ()):
                b_dst = right.get((b, symbol))
                if b_dst is None:
                    continue
                nxt = (a_dst, b_dst)
                dst = index.get(nxt)
                if dst is None:
                    dst = index[nxt] = len(index)
                    worklist.append(nxt)
                transitions[(src, symbol)] = dst
        return DFA(len(index), 0, accepting, transitions, frozenset(symbols))

    def difference(self, other: "DFA") -> "DFA":
        symbols = self._joint_symbols(other)
        return self.intersect(other.complement(frozenset(symbols)))

    def includes(self, other: "DFA") -> bool:
        """Language inclusion: L(other) ⊆ L(self)."""
        return other.difference(self).is_empty()

    def equivalent(self, other: "DFA") -> bool:
        return self.includes(other) and other.includes(self)

    # -- minimization --------------------------------------------------------------

    def trimmed(self) -> "DFA":
        """Restrict to useful states (keeps at least the initial state)."""
        useful = self._useful_states()
        useful.add(self.initial)
        index = {old: new for new, old in enumerate(sorted(useful))}
        transitions = {
            (index[src], symbol): index[dst]
            for (src, symbol), dst in self.transitions.items()
            if src in useful and dst in useful
        }
        accepting = {index[s] for s in self.accepting if s in useful}
        return DFA(len(index), index[self.initial], accepting, transitions, self.alphabet)

    def minimized(self) -> "DFA":
        """Moore partition refinement over the trimmed DFA's own partial
        transitions; a missing transition goes to the implicit dead state.

        Every state of a trimmed DFA with a non-empty language reaches
        acceptance, so none is equivalent to the dead state: the
        partition, and blocks numbered by first appearance in state
        order, are those of the sink-completed refinement, whose sink
        was the last state (docs/PERFORMANCE.md, "Sparse automata").
        """
        trimmed = self.trimmed()
        symbols = set(trimmed.alphabet) | trimmed._used_symbols()
        if not trimmed.accepting:
            # Empty language: one rejecting state looping on every symbol,
            # its own loops (the only transitions trimming keeps) first.
            transitions = dict(trimmed.transitions)
            for symbol in symbols:
                transitions.setdefault((trimmed.initial, symbol), trimmed.initial)
            return DFA(1, trimmed.initial, set(), transitions, frozenset(symbols))
        n = trimmed.num_states
        outgoing: List[List[Tuple[Symbol, int]]] = [[] for _ in range(n)]
        for (src, symbol), dst in trimmed.transitions.items():
            outgoing[src].append((symbol, dst))
        # Start from (accepting?, defined symbols): a defined symbol leads
        # to a live state and a missing one to the dead state, so states
        # differing in either are distinguishable.  Within a block the
        # defined symbols agree, so a signature lists only the
        # destination blocks, in one shared symbol order.
        rank: Dict[Symbol, int] = {}
        for (_, symbol) in trimmed.transitions:
            rank.setdefault(symbol, len(rank))
        targets: List[List[int]] = []
        initial_key: Dict[Tuple, int] = {}
        block_of: List[int] = []
        for state in range(n):
            arcs = sorted(outgoing[state], key=lambda arc: rank[arc[0]])
            targets.append([dst for _, dst in arcs])
            key = (state in trimmed.accepting, tuple(symbol for symbol, _ in arcs))
            block_of.append(initial_key.setdefault(key, len(initial_key)))
        num_blocks = len(initial_key)
        while True:
            index: Dict[Tuple, int] = {}
            new_block_of: List[int] = []
            for state in range(n):
                sig = (block_of[state], tuple([block_of[dst] for dst in targets[state]]))
                block = index.get(sig)
                if block is None:
                    block = index[sig] = len(index)
                new_block_of.append(block)
            block_of = new_block_of
            if len(index) == num_blocks:
                break
            num_blocks = len(index)
        transitions: Dict[Tuple[int, Symbol], int] = {}
        for (src, symbol), dst in trimmed.transitions.items():
            transitions[(block_of[src], symbol)] = block_of[dst]
        accepting = {block_of[s] for s in trimmed.accepting}
        return DFA(num_blocks, block_of[trimmed.initial], accepting, transitions, frozenset(symbols))

    # -- enumeration (tests) ----------------------------------------------------------

    def enumerate_words(self, max_length: int) -> List[Tuple[Symbol, ...]]:
        """All accepted words up to ``max_length``, in length-lex order."""
        symbols = sorted(set(self.alphabet) | self._used_symbols(), key=repr)
        out: List[Tuple[Symbol, ...]] = []
        frontier: List[Tuple[Tuple[Symbol, ...], int]] = [((), self.initial)]
        for _ in range(max_length + 1):
            next_frontier: List[Tuple[Tuple[Symbol, ...], int]] = []
            for word, state in frontier:
                if state in self.accepting:
                    out.append(word)
                for symbol in symbols:
                    dst = self.step(state, symbol)
                    if dst is not None:
                        next_frontier.append((word + (symbol,), dst))
            frontier = next_frontier
        return out


def literal(word: Tuple[Symbol, ...]) -> DFA:
    """The DFA accepting exactly ``word``."""
    transitions = {(i, symbol): i + 1 for i, symbol in enumerate(word)}
    return DFA(len(word) + 1, 0, {len(word)}, transitions, frozenset(word))


def universal(alphabet: FrozenSet[Symbol]) -> DFA:
    """The DFA accepting every word over ``alphabet``."""
    return DFA(1, 0, {0}, {(0, s): 0 for s in alphabet}, frozenset(alphabet))


def empty(alphabet: FrozenSet[Symbol] = frozenset()) -> DFA:
    return DFA(1, 0, set(), {}, frozenset(alphabet))


def containing_symbol(alphabet: FrozenSet[Symbol], symbol: Symbol) -> DFA:
    """The DFA for Σ* symbol Σ*: words with at least one occurrence."""
    if symbol not in alphabet:
        raise AutomatonError("symbol %r not in alphabet" % (symbol,))
    transitions: Dict[Tuple[int, Symbol], int] = {}
    for s in alphabet:
        transitions[(0, s)] = 1 if s == symbol else 0
        transitions[(1, s)] = 1
    return DFA(2, 0, {1}, transitions, frozenset(alphabet))
