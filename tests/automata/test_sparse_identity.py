"""The sparse DFA operations against the dense reference, byte for byte.

``DFA.minimized`` and ``DFA.intersect`` work on partial transition maps;
``dense_reference`` holds the sink-completing algorithms they replaced.
Every comparison checks the state count, the initial state, the
accepting set, the transition dict *including insertion order* and the
alphabet: trail fingerprints and the refinement memo keys depend on the
exact state numbering, so language equality is not enough.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import DFA
from repro.benchsuite import FULL_SUITE
from repro.core.blazer import Blazer
from repro.domains import dbm
from repro.perf import runtime

from tests.automata.dense_reference import dense_intersect, dense_minimized

# Mixed symbol types, like the CFG-edge tuples trails are built over.
POOL = ["a", "b", "c", (0, 1), (1, 2), (2, 0)]


def assert_identical(got: DFA, want: DFA) -> None:
    assert got.num_states == want.num_states
    assert got.initial == want.initial
    assert got.accepting == want.accepting
    assert list(got.transitions.items()) == list(want.transitions.items())
    assert got.alphabet == want.alphabet


@st.composite
def partial_dfas(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    used = draw(st.lists(st.sampled_from(POOL), max_size=4, unique=True))
    transitions = {}
    for state in range(n):
        for symbol in used:
            if draw(st.booleans()):
                transitions[(state, symbol)] = draw(st.integers(0, n - 1))
    order = draw(st.permutations(list(transitions.items())))
    return DFA(
        num_states=n,
        initial=draw(st.integers(0, n - 1)),
        accepting=draw(st.sets(st.integers(0, n - 1))),
        transitions=dict(order),
        alphabet=frozenset(draw(st.sets(st.sampled_from(POOL)))),
    )


# Hand-picked shapes the random draw may reach only rarely.
EMPTY_WITH_LOOPS = DFA(3, 0, {2}, {(0, "b"): 0, (0, "a"): 1, (1, "a"): 1}, frozenset("abc"))
ALL_ACCEPTING = DFA(3, 0, {0, 1, 2}, {(0, "a"): 1, (1, "b"): 2, (2, "a"): 1}, frozenset("ab"))
UNREACHABLE_AND_DEAD = DFA(
    5,
    1,
    {3},
    {(1, "a"): 2, (1, "b"): 3, (2, "a"): 4, (4, "a"): 4, (0, "b"): 3, (3, "b"): 3},
    frozenset("ab"),
)
INITIAL_SELF_LOOPS = DFA(2, 0, {1}, {(0, "a"): 0, (0, "c"): 0, (0, "b"): 1}, frozenset("abc"))
UNUSED_SYMBOLS = DFA(2, 0, {1}, {(0, (0, 1)): 1}, frozenset(POOL))
NO_TRANSITIONS = DFA(1, 0, set(), {}, frozenset())
SHAPES = [
    EMPTY_WITH_LOOPS,
    ALL_ACCEPTING,
    UNREACHABLE_AND_DEAD,
    INITIAL_SELF_LOOPS,
    UNUSED_SYMBOLS,
    NO_TRANSITIONS,
]


@pytest.mark.parametrize("dfa", SHAPES)
def test_minimized_matches_dense_on_shapes(dfa):
    assert_identical(dfa.minimized(), dense_minimized(dfa))


@pytest.mark.parametrize("left", SHAPES)
@pytest.mark.parametrize("right", SHAPES)
def test_intersect_matches_dense_on_shapes(left, right):
    assert_identical(
        left.intersect(right).minimized(), dense_minimized(dense_intersect(left, right))
    )


def test_empty_language_keeps_initial_loops_first():
    minimal = EMPTY_WITH_LOOPS.minimized()
    assert minimal.num_states == 1 and not minimal.accepting
    assert list(minimal.transitions)[:1] == [(0, "b")]
    assert set(minimal.transitions) == {(0, s) for s in "abc"}


@settings(max_examples=300, deadline=None)
@given(partial_dfas())
@example(EMPTY_WITH_LOOPS)
@example(ALL_ACCEPTING)
@example(UNREACHABLE_AND_DEAD)
def test_minimized_matches_dense(dfa):
    assert_identical(dfa.minimized(), dense_minimized(dfa))


@settings(max_examples=300, deadline=None)
@given(partial_dfas(max_states=5), partial_dfas(max_states=5))
@example(INITIAL_SELF_LOOPS, UNUSED_SYMBOLS)
@example(ALL_ACCEPTING, UNREACHABLE_AND_DEAD)
def test_intersect_matches_dense(left, right):
    assert_identical(
        left.intersect(right).minimized(), dense_minimized(dense_intersect(left, right))
    )


@settings(max_examples=300, deadline=None)
@given(partial_dfas())
def test_minimized_is_a_fixpoint(dfa):
    """Minimizing a minimal DFA changes nothing — what lets a trail keep
    the DFA its split already minimized."""
    minimal = dfa.minimized()
    assert_identical(minimal.minimized(), minimal)


# -- trail DFAs of the registry programs -----------------------------------------


@pytest.fixture(scope="module")
def harvested():
    """Every DFA minimized and every pair intersected while the 25
    registry programs are analyzed cold."""
    minimized, intersected = [], []
    sparse_minimized, sparse_intersect = DFA.minimized, DFA.intersect

    def record_minimized(self):
        minimized.append(self)
        return sparse_minimized(self)

    def record_intersect(self, other):
        intersected.append((self, other))
        return sparse_intersect(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DFA, "minimized", record_minimized)
        mp.setattr(DFA, "intersect", record_intersect)
        for bench in FULL_SUITE:
            runtime.clear_caches()
            dbm.clear_interned()
            Blazer.from_source(bench.source, bench.config()).analyze(bench.proc)
    runtime.clear_caches()
    return minimized, intersected


def test_registry_minimizations_match_dense(harvested):
    minimized, _ = harvested
    assert len(minimized) > 100
    for dfa in minimized:
        assert_identical(dfa.minimized(), dense_minimized(dfa))


def test_registry_intersections_match_dense(harvested):
    _, intersected = harvested
    assert len(intersected) > 20
    for left, right in intersected:
        assert_identical(
            left.intersect(right).minimized(), dense_minimized(dense_intersect(left, right))
        )
