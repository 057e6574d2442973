"""Edge cases of occurrence refinement under the incremental plane.

Three split shapes that stress the delta-directed reuse machinery
(docs/PERFORMANCE.md), each checked incremental-vs-scratch:

* splits **on a loop header** — the perturbed constructor is the loop's
  own branch, so the loop is dirty (no artifact may be served) yet the
  recomputed bound must still equal the from-scratch one;
* splits that **empty a child to bottom** — two occurrence constraints
  on same-condition branches leave a structurally non-empty language no
  concrete path realizes, and both engines must agree on infeasibility;
* **back-to-back splits of the same constructor** — re-splitting a
  child on its already-decided edge must make no progress, and the
  interned split-derivation memo must not serve the parent's derivation
  for the structurally different child.
"""

import pytest

from repro.bounds import compute_bound
from repro.core.report import _bound_dict, verdict_digest
from repro.core.blazer import Blazer, BlazerConfig
from repro.domains import DOMAINS
from repro.perf import runtime
from repro.trails import OccurrenceSplit, Trail
from tests.helpers import compile_one

pytestmark = pytest.mark.incremental

ZONE = DOMAINS["zone"]

# A loop whose header is the only interesting branch, followed by a
# balanced secret branch (so the driver has something to refine).
LOOP_HEADER = """
proc main(secret h: int, public l: uint): int {
    var i: int = 0;
    while (i < l) { i = i + 1; }
    if (h > 0) { i = i + 2; } else { i = i + 2; }
    return i;
}
"""

# Two branches on the same condition: a trail that takes the first
# then-edge but avoids the second one denotes a non-empty edge language
# with no realizable path — the analysis must find it infeasible.
CONTRADICTION = """
proc main(secret h: int, public l: int): int {
    var acc: int = 0;
    if (l > 0) { acc = acc + 1; }
    if (l > 0) { acc = acc + 2; }
    return acc + h - h;
}
"""


@pytest.fixture(autouse=True)
def _cold_tables():
    runtime.clear_caches()
    yield
    runtime.clear_caches()


def _loop_header_block(cfg):
    """The branch block that is also a loop header (the while guard)."""
    for block in cfg.branch_blocks():
        taken, not_taken = cfg.branch_edges(block)
        for edge in (taken, not_taken):
            if edge[1] == block or _reaches_back(cfg, edge[1], block):
                return block
    raise AssertionError("no loop-header branch in CFG")


def _reaches_back(cfg, start, target):
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        if node == target:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(dst for (src, dst) in cfg.edges() if src == node)
    return False


def _analyze(cfg, trail, perf):
    with runtime.override(perf):
        return compute_bound(cfg, ZONE, trail_dfa=trail.dfa, trail=trail)


def _assert_equivalent(cfg, children):
    """Each child bound incremental == the seed engine's."""
    incremental = [_analyze(cfg, child, True) for child in children]
    scratch = [_analyze(cfg, child, False) for child in children]
    for inc, scr in zip(incremental, scratch):
        assert inc.feasible == scr.feasible
        assert _bound_dict(inc) == _bound_dict(scr)


class TestLoopHeaderSplit:
    def test_split_on_loop_header_is_equivalent(self):
        cfg = compile_one(LOOP_HEADER, "main")
        trail = Trail.most_general(cfg)
        header = _loop_header_block(cfg)
        children = OccurrenceSplit().split(trail, header, "sec")
        assert children, "expected the loop header to split"
        # Warm the parent's artifacts, then analyze the children: the
        # loop is dirty (the split perturbed its own header), so the
        # plane must mark it instead of serving the parent's fixpoint.
        _analyze(cfg, trail, True)
        before = runtime.STATS.events_snapshot()
        _assert_equivalent(cfg, children)
        dirty = runtime.STATS.events_delta(before).get("refine.dirty", 0)
        assert dirty > 0

    def test_zero_iteration_child_bound(self):
        # The without-edge child never enters the loop: both engines
        # must agree it exists and has the tighter (loop-free) bound.
        cfg = compile_one(LOOP_HEADER, "main")
        trail = Trail.most_general(cfg)
        header = _loop_header_block(cfg)
        taken, not_taken = cfg.branch_edges(header)
        children = OccurrenceSplit().split_on_edge(trail, header, taken, "sec")
        without = next(c for c in children if not c.splits[-1].polarity)
        inc = _analyze(cfg, without, True)
        scr = _analyze(cfg, without, False)
        assert inc.feasible and scr.feasible
        assert _bound_dict(inc) == _bound_dict(scr)


class TestEmptiedChild:
    def test_contradictory_split_is_bottom_both_ways(self):
        cfg = compile_one(CONTRADICTION, "main")
        trail = Trail.most_general(cfg)
        first, second = cfg.branch_blocks()[:2]
        take_first = OccurrenceSplit().split_on_edge(
            trail, first, cfg.branch_edges(first)[0], "taint"
        )
        with_first = next(c for c in take_first if c.splits[-1].polarity)
        avoid_second = OccurrenceSplit().split_on_edge(
            with_first, second, cfg.branch_edges(second)[0], "taint"
        )
        assert avoid_second, "expected the second branch to split"
        bottom = next(c for c in avoid_second if not c.splits[-1].polarity)
        # Structurally non-empty language, semantically no path: bottom.
        assert not bottom.dfa.is_empty()
        inc = _analyze(cfg, bottom, True)
        runtime.clear_caches()
        scr = _analyze(cfg, bottom, False)
        assert inc.feasible is False
        assert scr.feasible is False
        assert _bound_dict(inc) == _bound_dict(scr)

    def test_bottom_child_carries_delta(self):
        cfg = compile_one(CONTRADICTION, "main")
        trail = Trail.most_general(cfg)
        first = cfg.branch_blocks()[0]
        child = OccurrenceSplit().split(trail, first, "taint")[0]
        assert child.delta is not None
        assert child.delta.parent_lineage == trail.lineage_fingerprint()
        assert child.delta.block == first


class TestBackToBackSplits:
    def test_resplitting_decided_edge_makes_no_progress(self):
        cfg = compile_one(LOOP_HEADER, "main")
        trail = Trail.most_general(cfg)
        header = _loop_header_block(cfg)
        taken, _ = cfg.branch_edges(header)
        children = OccurrenceSplit().split_on_edge(trail, header, taken, "sec")
        for child in children:
            again = OccurrenceSplit().split_on_edge(child, header, taken, "sec")
            assert again == []

    def test_no_progress_is_flag_independent(self):
        # The interned refine.split memo must not change refinement
        # decisions: the same no-progress answer with the plane on/off.
        cfg = compile_one(LOOP_HEADER, "main")
        trail = Trail.most_general(cfg)
        header = _loop_header_block(cfg)
        taken, _ = cfg.branch_edges(header)
        with runtime.override(True):
            child = OccurrenceSplit().split_on_edge(trail, header, taken, "sec")[0]
            assert OccurrenceSplit().split_on_edge(child, header, taken, "sec") == []
        with runtime.override(False):
            child_off = OccurrenceSplit().split_on_edge(trail, header, taken, "sec")[0]
            assert (
                OccurrenceSplit().split_on_edge(child_off, header, taken, "sec")
                == []
            )
            assert child_off.fingerprint() == child.fingerprint()

    def test_interned_derivation_keyed_by_child_structure(self):
        # Parent and child have different DFA structures, so the memo
        # must hold distinct derivations (no false sharing) — and a
        # repeated parent split must hit the interned entry.
        cfg = compile_one(CONTRADICTION, "main")
        trail = Trail.most_general(cfg)
        first, second = cfg.branch_blocks()[:2]
        edge1 = cfg.branch_edges(first)[0]
        edge2 = cfg.branch_edges(second)[0]
        with runtime.override(True):
            before = runtime.STATS.snapshot()
            child = OccurrenceSplit().split_on_edge(trail, first, edge1, "taint")[0]
            OccurrenceSplit().split_on_edge(child, second, edge2, "taint")
            delta = runtime.STATS.delta(before)
            hits, misses = delta.get("refine.split", (0, 0))
            assert misses == 2  # two distinct derivations computed
            # Replaying the parent's split is a pure intern hit.
            replay = OccurrenceSplit().split_on_edge(trail, first, edge1, "taint")
            delta = runtime.STATS.delta(before)
            assert delta.get("refine.split", (0, 0))[0] == hits + 1
            assert [t.fingerprint() for t in replay] == [
                t.fingerprint()
                for t in OccurrenceSplit().split_on_edge(trail, first, edge1, "taint")
            ]


class TestDriverEquivalenceOnEdgeCases:
    @pytest.mark.parametrize("source", [LOOP_HEADER, CONTRADICTION])
    def test_driver_digests_match(self, source):
        def run(cache):
            blazer = Blazer.from_source(source, BlazerConfig(cache=cache))
            return blazer.analyze("main")

        inc = run(True)
        scr = run(False)
        assert inc.status == scr.status
        assert verdict_digest(inc) == verdict_digest(scr)
