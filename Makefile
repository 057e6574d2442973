PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test test-resilience smoke-service smoke-service-load smoke-metrics diffcheck-smoke pdsc-smoke leakage-smoke perf-smoke incremental-smoke incremental-sweep digests bench-pairs bench-service bench-diffcheck bench-leakage table1

test: diffcheck-smoke pdsc-smoke leakage-smoke perf-smoke incremental-smoke smoke-service-load
	$(PYTHON) -m pytest -q

# Differential fuzz smoke: 500 generated programs cross-checked against
# the ground-truth timing oracle at a pinned seed (docs/DIFFCHECK.md),
# dispatched through the warm worker pool (--jobs 4).  Exit 1 =
# soundness bug.  Shrinking is off: the smoke gate only needs the
# verdicts, and precision-gap shrinks would dominate the runtime.  The
# reduced --max-pairs budget keeps the gate fast even on one core; it
# only trims the self-composition baseline's exploration (extra
# "exhausted" outcomes, never different verdicts), and full campaigns
# keep the 2500 default.
# Pinned to the three original subjects: this is the fast legacy gate,
# and the 4-subject coverage (including PDSC) lives in pdsc-smoke below.
diffcheck-smoke:
	$(PYTHON) -m repro diffcheck --seed 0 --count 500 --jobs 4 --no-shrink --max-pairs 80 --subjects blazer,selfcomp,consttime

# Four-subject differential smoke (docs/PDSC.md): 200 generated
# programs checked by Blazer, eager self-composition, the constant-time
# checker AND the property-directed (PDSC) backend, gated on zero
# soundness bugs.  Lean budgets (--quick: max_pairs=40, one refinement
# round) keep it under 90 s on one core; trimming a budget only turns
# would-be proofs into "exhausted", never flips a verdict.
pdsc-smoke:
	$(PYTHON) benchmarks/bench_diffcheck.py --quick

# The full 4-way agreement bench: a 10k-program seed-0 campaign that
# regenerates BENCH_diffcheck.json (agreement matrix, per-subject wall
# clock) and gates on soundness + agreement-rate regressions.
bench-diffcheck:
	$(PYTHON) benchmarks/bench_diffcheck.py

# Quantitative-leakage smoke (docs/LEAKAGE.md): the 8-kernel crypto
# corpus verdict matrix under both cost models, plus 200 generated
# programs (a quarter bearing priced extern calls) whose analysis
# bits-bound is cross-checked against the oracle's *exact* leakage.
# Zero under-reports and a full corpus match or the gate fails.
# Well under 60 s on one core.
leakage-smoke:
	$(PYTHON) benchmarks/bench_leakage.py --quick

# The full leakage bench: regenerates BENCH_leakage.json — bits-leaked
# bounds for every unsafe Table-1 row, the corpus matrix, and a
# 500-program oracle sweep — gated on soundness, corpus, coverage, and
# cell-count regressions against the committed report.
bench-leakage:
	$(PYTHON) benchmarks/bench_leakage.py

# Perf gate (docs/PERFORMANCE.md): the MicroBench group serial (perf
# off) and warm-pool parallel (perf on); asserts total speedup >= 1.0
# and byte-identical digests.  Well under 90 s.
perf-smoke:
	$(PYTHON) benchmarks/bench_perf.py --quick --output /tmp/bench_quick.json

# Incremental re-analysis gate (docs/PERFORMANCE.md): a 12-program
# incremental-vs-scratch equivalence sweep (digests and per-node bounds
# must agree at every refinement round) followed by the refine.delta
# sabotage self-test, which corrupts exactly one reused parent fixpoint
# and requires the sweep to flag exactly one divergence.  Under 60 s on
# one core.
incremental-smoke:
	$(PYTHON) benchmarks/bench_incremental.py --quick

# The full acceptance sweep: 300 generated programs through the
# worker pool, then the sabotage self-test (serial, small count — the
# injected fault fires on the first reused artifact).  The same battery
# runs under pytest as `-m incremental`
# (tests/properties/test_incremental_props.py).
incremental-sweep:
	$(PYTHON) benchmarks/bench_incremental.py
	$(PYTHON) benchmarks/bench_incremental.py --sabotage --count 24

# Rewrite the verdict-digest pin (tests/fixtures/verdict_digests.json)
# from the current tree: digests and leakage cells of the 25 registry
# programs and the 45-program generated draw, each analyzed cold.  Run
# it only for a deliberate change to analysis output, and review the
# diff; tests/integration/test_verdict_digests.py checks the pin.
digests:
	$(PYTHON) -m tests.digest_pin

# Alternating A/B benchmark pairs (benchmarks/bench_pairs.py): BASE's
# committed files against the working tree under perfbench/run.py, seeds
# 1..PAIRS, first side swapped every pair.  Prints per-metric medians and
# quartiles, win counts and the 9-of-10 / median-beyond-IQR verdict.
BASE ?= HEAD
WORKLOAD ?= scaled
PAIRS ?= 10
bench-pairs:
	$(PYTHON) benchmarks/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

test-resilience:
	$(PYTHON) -m pytest -q -m resilience

# Boot the real `repro serve` process and push Fig. 1's login pair
# through it (docs/SERVICE.md).
smoke-service:
	$(PYTHON) -m pytest -q -m service

# Boot a daemon and scrape its Prometheus `metrics` endpoint
# (docs/OBSERVABILITY.md).
smoke-metrics:
	$(PYTHON) -m pytest -q -m obs

# Async-tier load gate (docs/SERVICE.md): ~200 concurrent clients of
# mixed traffic through the in-process asyncio daemon *with the chaos
# plan on* (injected worker delays + one injected error), audited for
# zero lost and zero wrongly-settled jobs.  Finishes well under 60s.
smoke-service-load:
	$(PYTHON) benchmarks/bench_service.py --quick --output /tmp/bench_service_quick.json
	$(PYTHON) -m pytest -q -m service_load

# The full service benchmark: 1000-client clean scenario (publishes
# p50/p99 into BENCH_service.json, gated against the committed report),
# chaos scenario, and a graceful drain + restart scenario.
bench-service:
	$(PYTHON) benchmarks/bench_service.py --output BENCH_service.json

table1:
	$(PYTHON) -m repro.cli table1 --jobs 0
