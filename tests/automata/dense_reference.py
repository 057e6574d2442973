"""Dense reference implementations of DFA minimization and intersection.

These are the sink-completing algorithms :mod:`repro.automata.dfa` used
before it switched to working on partial transition maps.  They walk a
full |Q|×|Σ| table, so they are slow, but they are simple enough to
trust.  The byte-identity tests compare the sparse operations against
them: same state count, initial state, accepting set, transition dict
(including insertion order) and alphabet.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.automata.dfa import DFA, Symbol


def dense_minimized(dfa: DFA) -> DFA:
    """Moore partition refinement over the sink-completed trimmed DFA."""
    trimmed = dfa.trimmed().completed()
    symbols = sorted(trimmed.alphabet, key=repr)
    block_of = {
        state: (1 if state in trimmed.accepting else 0)
        for state in range(trimmed.num_states)
    }
    num_blocks = 2 if trimmed.accepting and len(trimmed.accepting) < trimmed.num_states else 1
    if not trimmed.accepting or len(trimmed.accepting) == trimmed.num_states:
        block_of = {s: 0 for s in block_of}
        num_blocks = 1
    changed = True
    while changed:
        changed = False
        new_index: Dict[Tuple, int] = {}
        new_block_of: Dict[int, int] = {}
        for state in range(trimmed.num_states):
            sig = (
                block_of[state],
                tuple(block_of[trimmed.transitions[(state, sym)]] for sym in symbols),
            )
            if sig not in new_index:
                new_index[sig] = len(new_index)
            new_block_of[state] = new_index[sig]
        if len(new_index) != num_blocks:
            changed = True
            num_blocks = len(new_index)
        block_of = new_block_of
    transitions: Dict[Tuple[int, Symbol], int] = {}
    for (src, symbol), dst in trimmed.transitions.items():
        transitions[(block_of[src], symbol)] = block_of[dst]
    accepting = {block_of[s] for s in trimmed.accepting}
    result = DFA(num_blocks, block_of[trimmed.initial], accepting, transitions, trimmed.alphabet)
    return result.trimmed()


def dense_intersect(left: DFA, right: DFA) -> DFA:
    """Product of the two sink-completed DFAs over the joint alphabet."""
    symbols = (
        set(left.alphabet)
        | left._used_symbols()
        | set(right.alphabet)
        | right._used_symbols()
    )
    left = left.completed(frozenset(symbols))
    right = right.completed(frozenset(symbols))
    index: Dict[Tuple[int, int], int] = {(left.initial, right.initial): 0}
    worklist = [(left.initial, right.initial)]
    transitions: Dict[Tuple[int, Symbol], int] = {}
    accepting: Set[int] = set()
    while worklist:
        pair = worklist.pop()
        src = index[pair]
        if pair[0] in left.accepting and pair[1] in right.accepting:
            accepting.add(src)
        for symbol in symbols:
            nxt = (left.transitions[(pair[0], symbol)], right.transitions[(pair[1], symbol)])
            if nxt not in index:
                index[nxt] = len(index)
                worklist.append(nxt)
            transitions[(src, symbol)] = index[nxt]
    return DFA(len(index), 0, accepting, transitions, frozenset(symbols))
