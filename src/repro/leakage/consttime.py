"""First-class constant-time checking under a pluggable cost model.

The paper's related work contrasts timing-channel freedom with Almeida
et al.'s *constant-time* (USENIX Security'16), a strictly stronger
property: Blazer's TCF can hold without it (``modPow1_safe`` branches
on secret exponent bits but balances the cost).  Its control-flow half
is no reachable branch on secret data.  That is the whole story only
when every instruction costs the same regardless of its operands.
Under a cache-aware model an ``arrayRead(sbox, k)`` with secret ``k``
leaks through the *cost of a single straight-line instruction* —
control flow perfectly public, timing not.

This checker decides both halves against a :class:`~repro.leakage.model
.CostModel`:

* **control flow** — no reachable branch on high data (branches the
  abstract interpreter proves unreachable are ignored, so a
  secret-guarded loop behind an infeasible condition does not count);
* **operand cost** — every reachable call whose summary interval is
  *wide* (``lo != hi``, i.e. the model prices the call by its operands)
  must have exclusively secret-free cost-relevant arguments.

Soundness: if both checks pass, every execution runs the same public
control path (public branches only), and every priced call is fed
cost-irrelevant-or-public operands, so under the model's deterministic
cost functions low-equivalent runs tick identical clocks — the oracle's
gap is 0 at any slack.  The converse is deliberately not claimed: the
checker is a conservative analysis, not a decision procedure (a
secret-fed wide call whose cost happens to collapse is flagged anyway —
that is the constant-time discipline, same as ct-verif's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.absint.engine import Engine
from repro.core.blazer import Blazer
from repro.ir import instr as ir
from repro.leakage.model import CostModel
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as trace_span
from repro.taint import Taint

CHECKS_TOTAL = REGISTRY.counter(
    "repro_consttime_checks_total",
    "Constant-time checks by verdict",
    labelnames=("verdict",),
)


@dataclass(frozen=True)
class CostViolation:
    """A reachable variable-cost call fed a secret cost-relevant arg."""

    block: int
    callee: str
    arg_index: int
    arg: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "block": self.block,
            "callee": self.callee,
            "arg_index": self.arg_index,
            "arg": self.arg,
        }


@dataclass
class ConstTimeReport:
    """Verdict of the two-part constant-time check under one model."""

    proc: str
    constant_time: bool
    cost_model: str
    offending_branches: List[int] = field(default_factory=list)
    offending_calls: List[CostViolation] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "proc": self.proc,
            "constant_time": self.constant_time,
            "cost_model": self.cost_model,
            "offending_branches": list(self.offending_branches),
            "offending_calls": [v.to_dict() for v in self.offending_calls],
        }

    def render(self) -> str:
        if self.constant_time:
            return "%s: CONSTANT-TIME under %s model" % (self.proc, self.cost_model)
        parts = []
        if self.offending_branches:
            parts.append(
                "secret-dependent branches: %s"
                % ", ".join("b%d" % b for b in self.offending_branches)
            )
        if self.offending_calls:
            parts.append(
                "secret-cost calls: %s"
                % ", ".join(
                    "%s(arg%d=%s)@b%d" % (v.callee, v.arg_index, v.arg, v.block)
                    for v in self.offending_calls
                )
            )
        return "%s: NOT constant-time under %s model (%s)" % (
            self.proc,
            self.cost_model,
            "; ".join(parts),
        )


def _call_is_priced(model: CostModel, blazer: Blazer, callee: str) -> bool:
    """Does this call's cost vary with its operands under the model?

    Wide summary interval -> the model prices the call by its arguments.
    No summary and no defined body -> nothing constrains the cost, so
    conservatively priced.  Defined procedures are skipped: their cost
    is their body's, which the checker sees when pointed at them.
    """
    summary = model.summaries.lookup(callee)
    if summary is not None:
        return summary.lo != summary.hi
    return callee not in blazer.cfgs


def check_constant_time(
    blazer: Blazer, proc: str, model: CostModel
) -> ConstTimeReport:
    """Decide constant-time for ``proc`` under ``model``."""
    with trace_span("leakage.consttime", proc=proc, model=model.name):
        cfg = blazer.cfgs[proc]
        taint = blazer.taint(proc)
        reachable = Engine(
            cfg, blazer.config.resolved_domain()
        ).analyze().reachable_blocks()

        branches = [b for b in taint.high_branches() if b in reachable]

        calls: List[CostViolation] = []
        for block_id in cfg.block_ids():
            if block_id not in reachable:
                continue
            for instr in cfg.blocks[block_id].instrs:
                if not isinstance(instr, ir.CallInstr):
                    continue
                if not _call_is_priced(model, blazer, instr.callee):
                    continue
                relevant = model.cost_relevant_args(instr.callee, len(instr.args))
                for pos in relevant:
                    if pos >= len(instr.args):
                        continue
                    operand = instr.args[pos]
                    if not isinstance(operand, ir.Reg):
                        continue  # constants carry no taint
                    if Taint.HIGH in taint.taint_of_var(operand.name):
                        calls.append(
                            CostViolation(
                                block=block_id,
                                callee=instr.callee,
                                arg_index=pos,
                                arg=operand.name,
                            )
                        )

        report = ConstTimeReport(
            proc=proc,
            constant_time=not branches and not calls,
            cost_model=model.name,
            offending_branches=branches,
            offending_calls=calls,
        )
        CHECKS_TOTAL.labels(
            verdict="constant-time" if report.constant_time else "variable-time"
        ).inc()
        return report
