"""The incremental re-analysis plane: refinement-delta-directed reuse.

When REFINEPARTITION splits a parent trail, each child differs from the
parent by exactly one perturbed constructor (the branch recorded in the
child's :class:`~repro.trails.trail.RefinementDelta`).  Everything the
bound analysis computed for the parent that the perturbation cannot
reach — its per-loop iteration bounds — is a reuse candidate.

Soundness model (docs/PERFORMANCE.md): reuse is **content-keyed, never
trusted**.  The delta only *directs* the probe — which parent
computation to consult and which loops to skip as dirty; whether a
candidate is actually served is decided by an exact canonical content
key (the same "revalidated by fingerprint" discipline as the PR-6
``bounds.transition`` memo).  A key mismatch silently recomputes, so
the incremental path is digest-identical to the from-scratch path by
construction; the differential battery in
``tests/properties/test_incremental_props.py`` enforces this at every
refinement round, and the ``refine.delta`` fault site proves the
battery would catch a violation.

Two tiers live here:

* the **parent loop-artifact index** (``refine.lineage``): per-trail
  iteration-bound artifacts published under the trail's *delta-lineage*
  fingerprint, probed by its children.  Lineage keying (not language
  keying) is deliberate: two trails can denote the same language via
  different split routes, and a reused fixpoint must never be served
  for a structurally different split without full content revalidation;
* the **global iteration-bound memo** (``bounds.iterbound``): the same
  artifacts keyed purely by content, for reuse across trails and drivers.

Everything in this module is inert unless the perf layer is on
(:func:`repro.perf.runtime.enabled`, ``REPRO_PERF``), and every caller
additionally bypasses it for budget-armed analyses (degraded results
must never be reused, and memo hits would skip budget checkpoints).
With the perf layer off the driver is the exact seed engine, which is
the reference the differential battery compares this plane against.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.perf import runtime

# Memo-table names (see PerfStats for the matching counter categories).
LINEAGE_TABLE = "refine.lineage"
ITERBOUND_TABLE = "bounds.iterbound"

# The fault site that corrupts a reused parent fixpoint (REPRO_FAULTS
# spec ``refine.delta:corrupt``): fires on the serve path of
# :func:`lookup_iterbound` for split children, replacing the served
# iteration bound with a zero-iteration claim.  This collapses the
# child's running time, so both the equivalence sweep (digest mismatch
# vs from-scratch) and diffcheck's soundness oracle must flag it — the
# sabotage self-test of the differential battery.
FAULT_SITE = "refine.delta"


def _corrupted_iterbound():
    from repro.bounds.lemmas import IterationBound
    from repro.bounds.cost import Poly

    return IterationBound(lower=Poly.ZERO, upper=Poly.ZERO, exact=True)


def _maybe_corrupt(bound, fire_key: str):
    from repro.resilience import faults

    if faults.maybe_fire(FAULT_SITE, key=fire_key) == "corrupt":
        return _corrupted_iterbound()
    return bound


# -- per-loop iteration bounds --------------------------------------------------


def delta_touches(delta, blocks) -> bool:
    """Does the split's perturbed constructor touch this block set?

    A loop whose body contains the split branch (or either endpoint of
    the decided edge) is *dirty*: the occurrence constraint reshapes its
    product subgraph or its reachable invariants, so the parent artifact
    is presumed stale and the fixpoint re-runs.  Loops structurally
    disjoint from the perturbation are reuse candidates.
    """
    return (
        delta.block in blocks
        or delta.edge[0] in blocks
        or delta.edge[1] in blocks
    )


def lookup_iterbound(delta, key: tuple, fire_key: str):
    """Probe the reuse tiers for one loop's iteration bound.

    ``delta`` is the probing analysis's refinement delta (None for root
    trails).  Children probe their parent's lineage-indexed artifacts
    first (counted as ``refine.reuse``), then the global content-keyed
    memo; either hit is revalidated *by the key itself* — the key is an
    exact canonical encoding of every input the lemma matcher reads.
    Returns None on miss.
    """
    if delta is not None:
        parent = runtime.memo_table(LINEAGE_TABLE).get(delta.parent_lineage)
        bound = None if parent is None else parent.get(key)
        if bound is not None:
            runtime.STATS.hit("refine.reuse")
            return _maybe_corrupt(bound, fire_key)
        runtime.STATS.miss("refine.reuse")
    bound = runtime.memo_table(ITERBOUND_TABLE).get(key)
    if bound is not None:
        runtime.STATS.hit(ITERBOUND_TABLE)
        if delta is not None:
            return _maybe_corrupt(bound, fire_key)
        return bound
    runtime.STATS.miss(ITERBOUND_TABLE)
    return None


def store_iterbound(key: tuple, bound) -> None:
    runtime.memo_table(ITERBOUND_TABLE)[key] = bound


def publish_loop_artifacts(trail, artifacts: Dict[tuple, object]) -> None:
    """Index a finished analysis's per-loop artifacts by the trail's
    delta-lineage fingerprint, for its future children to probe."""
    if not artifacts:
        return
    index = runtime.memo_table(LINEAGE_TABLE)
    lineage = trail.lineage_fingerprint()
    existing = index.get(lineage)
    if existing is None:
        index[lineage] = dict(artifacts)
    else:
        existing.update(artifacts)


def lineage_artifacts(lineage: str) -> Optional[Dict[tuple, object]]:
    """The published artifact map of one lineage (tests/introspection)."""
    return runtime.memo_table(LINEAGE_TABLE).get(lineage)
