"""The incremental re-analysis plane: lineage keys, gating, reuse tiers.

The load-bearing regression here is the stale-cache-key one
(docs/PERFORMANCE.md): the parent-artifact index is keyed by
*delta-lineage* fingerprints, not content fingerprints, because two
trails can denote the same language via structurally different split
routes — and a fixpoint published under one route must never be served
to a child of the other without full content revalidation.
"""

import pytest

from repro.core.blazer import Blazer, BlazerConfig
from repro.core.observer import DomainThresholdObserver
from repro.core.report import verdict_digest
from repro.domains import DOMAINS, dbm
from repro.perf import incremental, runtime
from repro.perf.fingerprint import (
    dfa_structure_key,
    lineage_fingerprint,
)
from repro.trails import OccurrenceSplit, Trail
from tests.helpers import compile_one

pytestmark = pytest.mark.incremental

ZONE = DOMAINS["zone"]

# Two independent branches: with∩with intersections commute, so the
# same component is reachable via two different split routes.
TWO_BRANCHES = """
proc main(secret h: int, public l: int): int {
    var acc: int = 0;
    if (l > 0) { acc = acc + 1; }
    if (l > 2) { acc = acc + 2; }
    return acc + h - h;
}
"""

# A secret-guarded loop (drives refinement) plus a structurally
# disjoint public loop (the reusable artifact).
GUARDED_PLUS_DISJOINT = """
proc main(secret h: int, public l: uint): int {
    var acc: int = 0;
    if (h > 0) {
        while (acc < l) { acc = acc + 1; }
    }
    var j: int = 0;
    while (j < l) { j = j + 1; }
    return acc + j;
}
"""


@pytest.fixture(autouse=True)
def _cold_tables():
    runtime.clear_caches()
    yield
    runtime.clear_caches()


def _routes(cfg):
    """The same component via both split orders: (b1 then b2, b2 then b1)."""
    trail = Trail.most_general(cfg)
    b1, b2 = cfg.branch_blocks()[:2]
    e1, e2 = cfg.branch_edges(b1)[0], cfg.branch_edges(b2)[0]
    split = OccurrenceSplit().split_on_edge

    def with_child(parts):
        return next(c for c in parts if c.splits[-1].polarity)

    via_a = with_child(split(with_child(split(trail, b1, e1, "t")), b2, e2, "t"))
    via_b = with_child(split(with_child(split(trail, b2, e2, "t")), b1, e1, "t"))
    return via_a, via_b


class TestLineageFingerprint:
    def test_routes_share_content_but_not_lineage(self):
        cfg = compile_one(TWO_BRANCHES, "main")
        via_a, via_b = _routes(cfg)
        # Same language, same content fingerprint — the premise of the
        # stale-key risk...
        assert via_a.fingerprint() == via_b.fingerprint()
        # ...but distinct delta-lineage fingerprints, so the
        # parent-artifact index can never alias the two split routes.
        assert via_a.lineage_fingerprint() != via_b.lineage_fingerprint()

    def test_lineage_is_deterministic(self):
        cfg = compile_one(TWO_BRANCHES, "main")
        via_a, _ = _routes(cfg)
        via_a2, _ = _routes(cfg)
        assert via_a.lineage_fingerprint() == via_a2.lineage_fingerprint()
        assert lineage_fingerprint(via_a) == via_a.lineage_fingerprint()

    def test_root_lineage_differs_from_children(self):
        cfg = compile_one(TWO_BRANCHES, "main")
        trail = Trail.most_general(cfg)
        child = OccurrenceSplit().split(trail, cfg.branch_blocks()[0], "t")[0]
        assert trail.lineage_fingerprint() != child.lineage_fingerprint()
        assert child.delta.parent_lineage == trail.lineage_fingerprint()

    def test_artifacts_not_served_across_routes(self):
        # The regression proper: publish a fixpoint under route A's
        # trail, and assert route B's children cannot find it — their
        # parents' lineages differ even though the trail contents agree.
        cfg = compile_one(TWO_BRANCHES, "main")
        via_a, via_b = _routes(cfg)
        with runtime.override(True):
            incremental.publish_loop_artifacts(via_a, {("k",): "artifact"})
            assert incremental.lineage_artifacts(
                via_a.lineage_fingerprint()
            ) == {("k",): "artifact"}
            assert (
                incremental.lineage_artifacts(via_b.lineage_fingerprint())
                is None
            )


class TestDeltaTouches:
    def test_touches_block_and_edge_endpoints(self):
        cfg = compile_one(TWO_BRANCHES, "main")
        trail = Trail.most_general(cfg)
        b1 = cfg.branch_blocks()[0]
        child = OccurrenceSplit().split(trail, b1, "t")[0]
        delta = child.delta
        assert incremental.delta_touches(delta, {delta.block})
        assert incremental.delta_touches(delta, {delta.edge[1]})
        assert not incremental.delta_touches(delta, {-1})


class TestGating:
    def test_off_path_populates_no_incremental_tables(self):
        # The seed engine touches no memo of the perf layer: no
        # process-wide table (the incremental tiers among them), no
        # interned DBM row, no per-CFG memo.
        dbm.clear_interned()
        blazer = Blazer.from_source(
            GUARDED_PLUS_DISJOINT, BlazerConfig(cache=False)
        )
        blazer.analyze("main")
        # runtime._TABLES includes the incremental tiers (LINEAGE,
        # ITERBOUND).
        for name, table in runtime._TABLES.items():
            assert table == {}, name
        assert len(dbm._INTERN) == 0
        for proc, cfg in blazer.cfgs.items():
            assert not getattr(cfg, "_perf_memo", None), proc

    def test_config_knob_equals_process_flag(self):
        knob = Blazer.from_source(
            GUARDED_PLUS_DISJOINT, BlazerConfig(cache=False)
        ).analyze("main")
        with runtime.override(False):
            flag = Blazer.from_source(
                GUARDED_PLUS_DISJOINT, BlazerConfig()
            ).analyze("main")
        assert knob.status == flag.status
        assert verdict_digest(knob) == verdict_digest(flag)
        assert knob.cache_stats == flag.cache_stats == {}


class TestReuseTiers:
    def _refining_config(self, cache=True):
        # Small domains + tight threshold make the guarded-loop gap
        # wide, so the driver refines and the children probe their
        # parent's artifacts.
        return BlazerConfig(
            cache=cache,
            observer=DomainThresholdObserver(
                threshold=8, domains={"h": (0, 1), "l": (0, 1, 2, 3, 4)}
            ),
        )

    def test_driver_reuses_disjoint_loop_artifacts(self):
        blazer = Blazer.from_source(
            GUARDED_PLUS_DISJOINT, self._refining_config()
        )
        verdict = blazer.analyze("main")
        hits, _ = verdict.cache_stats.get("refine.reuse", (0, 0))
        assert hits > 0, verdict.cache_stats
        # The guarded loop itself is dirty (its header is the split
        # constructor), so the plane must have skipped it explicitly.
        assert verdict.cache_events.get("refine.dirty", 0) > 0
        # And the reuse changed nothing: same digest as the seed engine.
        scratch = Blazer.from_source(
            GUARDED_PLUS_DISJOINT, self._refining_config(cache=False)
        ).analyze("main")
        assert verdict_digest(verdict) == verdict_digest(scratch)

    def test_two_drivers_one_program_same_digest(self):
        # The second driver runs against the process-wide tables the
        # first one filled; what it reuses must not change its answer.
        config = BlazerConfig(cache=True)
        first = Blazer.from_source(GUARDED_PLUS_DISJOINT, config).analyze("main")
        second = Blazer.from_source(GUARDED_PLUS_DISJOINT, config).analyze("main")
        assert verdict_digest(first) == verdict_digest(second)

    def test_scope_isolation_between_programs(self):
        # Same shape, different constant: whatever the first program
        # left in the process-wide tables, the second must still get
        # the seed engine's digest.
        other = GUARDED_PLUS_DISJOINT.replace("acc + 1", "acc + 3")
        Blazer.from_source(GUARDED_PLUS_DISJOINT, BlazerConfig(cache=True)).analyze("main")
        verdict = Blazer.from_source(other, BlazerConfig(cache=True)).analyze("main")
        scratch = Blazer.from_source(other, BlazerConfig(cache=False)).analyze("main")
        assert verdict_digest(verdict) == verdict_digest(scratch)

    def test_structure_key_distinguishes_renumbered_dfas(self):
        cfg = compile_one(TWO_BRANCHES, "main")
        trail = Trail.most_general(cfg)
        key = dfa_structure_key(trail.dfa)
        assert key == dfa_structure_key(trail.dfa)
        child = OccurrenceSplit().split(trail, cfg.branch_blocks()[0], "t")[0]
        assert key != dfa_structure_key(child.dfa)
