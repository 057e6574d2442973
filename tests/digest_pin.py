"""The verdict-digest pin: every Table-1 registry program and a pinned
draw of generated programs, analyzed cold, reduced to their verdict
digest plus the leakage cell count on attack rows.

The committed fixture ``tests/fixtures/verdict_digests.json`` records
these values; ``tests/integration/test_verdict_digests.py`` recomputes
them and requires an exact match.  Unlike the perf-on/perf-off
equivalence tests, which run one numeric core on both sides, the pin
compares against values computed by an earlier tree, so it catches any
drift in how bounds are represented or rendered.

A deliberate change to the analysis output regenerates the fixture in
one reviewable diff::

    make digests            # PYTHONPATH=src python -m tests.digest_pin
"""

from __future__ import annotations

import gc
import json
import os
from typing import Dict

from repro.benchsuite import FULL_SUITE
from repro.core.blazer import Blazer, BlazerConfig
from repro.core.observer import effective_slack
from repro.core.report import verdict_digest
from repro.diffcheck.differ import DiffConfig
from repro.diffcheck.generator import PROC_NAME, GeneratorConfig, generate_program
from repro.diffcheck.oracle import observer_slack
from repro.domains import dbm
from repro.leakage.analysis import leakage_from_verdict
from repro.leakage.model import extern_env
from repro.perf import runtime

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "verdict_digests.json")

# The generated draw: the same one the `scaled` benchmark workload uses.
GENERATOR = {"max_stmts": 6, "max_depth": 2, "max_loops": 2}
CORPUS_SEED = 0
PROGRAMS = 45


def _cold() -> None:
    runtime.clear_caches()
    dbm.clear_interned()
    gc.collect()


def _row(verdict, cells) -> Dict[str, object]:
    row: Dict[str, object] = {"status": verdict.status, "digest": verdict_digest(verdict)}
    if verdict.status == "attack":
        row["cells"] = cells()
    return row


def registry_rows() -> Dict[str, Dict[str, object]]:
    rows = {}
    for bench in FULL_SUITE:
        _cold()
        verdict = Blazer.from_source(bench.source, bench.config()).analyze(bench.proc)
        domains = {k: tuple(v) for k, v in (bench.witness_space or {}).items()}
        rows[bench.name] = _row(
            verdict,
            lambda: leakage_from_verdict(
                verdict, observer_slack(bench.observer_factory()), domains=domains
            ).cells,
        )
    return rows


def generated_rows() -> Dict[str, Dict[str, object]]:
    diff = DiffConfig()
    config = GeneratorConfig(**GENERATOR)
    rows = {}
    for index in range(PROGRAMS):
        program = generate_program(CORPUS_SEED, index, config)
        model = extern_env(program.source)
        blazer_config = BlazerConfig(
            domain=diff.domain,
            observer=diff.observer(program.domain_map),
            summaries=model.summaries,
        )
        _cold()
        verdict = Blazer.from_source(program.source, blazer_config).analyze(PROC_NAME)
        rows[program.name] = _row(
            verdict,
            lambda: leakage_from_verdict(
                verdict,
                effective_slack(diff.threshold),
                domains=program.domain_map,
                cost_model=model.name,
            ).cells,
        )
    return rows


def compute() -> Dict[str, Dict[str, Dict[str, object]]]:
    return {"registry": registry_rows(), "generated": generated_rows()}


def load() -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(FIXTURE) as handle:
        return json.load(handle)


def main() -> int:
    data = compute()
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(
        "wrote %s: %d registry + %d generated rows"
        % (os.path.relpath(FIXTURE), len(data["registry"]), len(data["generated"]))
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
