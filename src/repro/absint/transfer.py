"""Abstract transfer functions: register IR → numeric-domain operations.

Bridges the IR and the numeric domains:

* integer registers map to domain variables of the same name;
* array registers are tracked through *length variables* ``r#len``
  (array lengths are what the paper's bounds are expressed in, e.g.
  ``23*g.len + 10``); array contents are not tracked numerically;
* comparison results are not encoded relationally — instead the engine
  remembers, per block, which register holds which comparison (a *cond
  def*), and refines the branch successors with the comparison (or its
  integer negation).  This is how the "off-the-shelf abstract
  interpreter" of the paper regains path sensitivity at branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.domains.base import AbstractState
from repro.domains.linexpr import LinCons, LinExpr
from repro.ir import instr as ir
from repro.perf import runtime


def len_var(reg_name: str) -> str:
    """The domain variable tracking the length of array register ``reg``."""
    return reg_name + "#len"


def operand_expr(operand: ir.Operand, cfg: ControlFlowGraph) -> Optional[LinExpr]:
    """The linear expression of a numeric operand, if representable."""
    if isinstance(operand, ir.ConstInt):
        return LinExpr.constant(operand.value)
    if isinstance(operand, ir.Reg):
        if cfg.reg_kinds.get(operand.name) == "arr":
            return None
        return LinExpr.var(operand.name)
    return None


@dataclass(frozen=True)
class CondDef:
    """``reg`` holds the boolean of ``a op b`` (possibly negated)."""

    op: ir.CmpOp
    a: ir.Operand
    b: ir.Operand

    def negated(self) -> "CondDef":
        return CondDef(self.op.negate(), self.a, self.b)

    def constraint(self, cfg: ControlFlowGraph) -> Optional[LinCons]:
        """The constraint that holds when the condition is true."""
        ea = operand_expr(self.a, cfg)
        eb = operand_expr(self.b, cfg)
        if ea is None or eb is None:
            return None
        op = self.op
        if op is ir.CmpOp.LT:
            return LinCons.lt(ea, eb)
        if op is ir.CmpOp.LE:
            return LinCons.le(ea, eb)
        if op is ir.CmpOp.GT:
            return LinCons.gt(ea, eb)
        if op is ir.CmpOp.GE:
            return LinCons.ge(ea, eb)
        if op is ir.CmpOp.EQ:
            return LinCons.eq(ea, eb)
        # NE is a disjunction; not representable as one constraint.
        return None


CondEnv = Dict[str, CondDef]


class TransferFunctions:
    """Instruction-wise abstract semantics over any numeric domain.

    ``summaries`` (optional) supplies extern return-value facts: numeric
    ranges and array-result lengths, applied after havocing a call's
    destination.
    """

    def __init__(self, cfg: ControlFlowGraph, summaries=None):
        self._cfg = cfg
        self._summaries = summaries

    # -- blocks --------------------------------------------------------------

    def block_effect(
        self, block_id: int, state: AbstractState
    ) -> Tuple[AbstractState, CondEnv]:
        """Run the straight-line part of a block; returns the out-state and
        the cond defs live at the terminator.

        The result is a pure function of (block, entry state, summaries)
        and is independent of which trail DFA the engine is running, so
        it is memoized *on the CFG*: every trail of one procedure —
        including all the sibling leaves of a refinement split — shares
        one table.  Requires the domain state to expose ``cache_key()``;
        domains without it fall through uncached.
        """
        if runtime.enabled():
            key_fn = getattr(state, "cache_key", None)
            if key_fn is not None:
                memo = runtime.bounded(
                    "transfer", runtime.cfg_memo(self._cfg).setdefault("transfer", {})
                )
                key = (block_id, key_fn())
                entry = memo.get(key)
                # Summary registries are compared by identity: a different
                # registry can change call effects, so it must not share
                # cached results.
                if entry is not None and entry[0] is self._summaries:
                    runtime.STATS.hit("transfer")
                    out, conds = entry[1]
                    return out, dict(conds)
                runtime.STATS.miss("transfer")
                result = self._block_effect(block_id, state)
                memo[key] = (self._summaries, result)
                return result[0], dict(result[1])
        return self._block_effect(block_id, state)

    def _block_effect(
        self, block_id: int, state: AbstractState
    ) -> Tuple[AbstractState, CondEnv]:
        conds: CondEnv = {}
        for instr in self._cfg.blocks[block_id].instrs:
            state = self.step(instr, state, conds)
            if state.is_bottom():
                break
        return state, conds

    def branch_constraint(
        self, block_id: int, taken: bool, conds: CondEnv
    ) -> Optional[LinCons]:
        """The refinement constraint for leaving ``block_id`` by the taken /
        not-taken branch edge, if derivable."""
        term = self._cfg.blocks[block_id].term
        if not isinstance(term, ir.Branch):
            return None
        cond = term.cond
        if isinstance(cond, ir.ConstInt):
            # Constant branches: the dead edge is refined to bottom.
            feasible = (cond.value != 0) == taken
            if feasible:
                return None
            return LinCons.le(LinExpr.constant(1), 0)  # unsatisfiable
        if not isinstance(cond, ir.Reg):
            return None
        cond_def = conds.get(cond.name)
        if cond_def is None:
            # Branching on a plain 0/1 register: v != 0 / v == 0.
            if self._cfg.reg_kinds.get(cond.name) == "arr":
                return None
            var = LinExpr.var(cond.name)
            return LinCons.ge(var, 1) if taken else LinCons.eq(var, 0)
        effective = cond_def if taken else cond_def.negated()
        return effective.constraint(self._cfg)

    # -- instructions ---------------------------------------------------------

    def step(
        self, instr: ir.Instr, state: AbstractState, conds: CondEnv
    ) -> AbstractState:
        cfg = self._cfg
        if isinstance(instr, ir.Assign):
            conds.pop(instr.dst.name, None)
            if isinstance(instr.src, ir.Reg) and instr.src.name in conds:
                conds[instr.dst.name] = conds[instr.src.name]
            if cfg.reg_kinds.get(instr.dst.name) == "arr":
                return self._assign_array(instr.dst.name, instr.src, state)
            return state.assign(instr.dst.name, operand_expr(instr.src, cfg))
        if isinstance(instr, ir.BinInstr):
            conds.pop(instr.dst.name, None)
            return state.assign(instr.dst.name, self._bin_expr(instr))
        if isinstance(instr, ir.CmpInstr):
            conds[instr.dst.name] = CondDef(instr.op, instr.a, instr.b)
            state = state.assign(instr.dst.name, None)
            var = LinExpr.var(instr.dst.name)
            return state.guard(LinCons.ge(var, 0)).guard(LinCons.le(var, 1))
        if isinstance(instr, ir.UnInstr):
            if instr.op == "neg":
                conds.pop(instr.dst.name, None)
                src = operand_expr(instr.a, cfg)
                return state.assign(instr.dst.name, None if src is None else -src)
            # not: flips a cond def if the operand has one.
            if isinstance(instr.a, ir.Reg) and instr.a.name in conds:
                conds[instr.dst.name] = conds[instr.a.name].negated()
            else:
                conds.pop(instr.dst.name, None)
            state = state.assign(instr.dst.name, None)
            var = LinExpr.var(instr.dst.name)
            return state.guard(LinCons.ge(var, 0)).guard(LinCons.le(var, 1))
        if isinstance(instr, ir.ALoad):
            conds.pop(instr.dst.name, None)
            return state.assign(instr.dst.name, None)
        if isinstance(instr, ir.AStore):
            return state  # contents are not tracked
        if isinstance(instr, ir.NewArr):
            conds.pop(instr.dst.name, None)
            size = operand_expr(instr.size, cfg)
            state = state.assign(len_var(instr.dst.name), size)
            return state.guard(LinCons.ge(LinExpr.var(len_var(instr.dst.name)), 0))
        if isinstance(instr, ir.ArrLen):
            conds.pop(instr.dst.name, None)
            if isinstance(instr.arr, ir.Reg):
                state = state.assign(
                    instr.dst.name, LinExpr.var(len_var(instr.arr.name))
                )
            elif isinstance(instr.arr, ir.ConstArr):
                state = state.assign(
                    instr.dst.name, LinExpr.constant(len(instr.arr.values))
                )
            else:
                state = state.assign(instr.dst.name, None)
            return state.guard(LinCons.ge(LinExpr.var(instr.dst.name), 0))
        if isinstance(instr, ir.CallInstr):
            if instr.dst is not None:
                conds.pop(instr.dst.name, None)
                state = state.assign(instr.dst.name, None)
                summary = (
                    self._summaries.lookup(instr.callee)
                    if self._summaries is not None
                    else None
                )
                if cfg.reg_kinds.get(instr.dst.name) == "arr":
                    dst_len = LinExpr.var(len_var(instr.dst.name))
                    if summary is not None and summary.ret_len is not None:
                        state = state.assign(
                            len_var(instr.dst.name),
                            LinExpr.constant(summary.ret_len),
                        )
                    else:
                        state = state.assign(len_var(instr.dst.name), None)
                        state = state.guard(LinCons.ge(dst_len, 0))
                else:
                    dst = LinExpr.var(instr.dst.name)
                    if summary is not None and summary.ret_lo is not None:
                        state = state.guard(LinCons.ge(dst, summary.ret_lo))
                    if summary is not None and summary.ret_hi is not None:
                        state = state.guard(LinCons.le(dst, summary.ret_hi))
            # Array lengths of arguments are preserved (Java arrays are
            # fixed-size); contents are untracked, so nothing else changes.
            return state
        raise TypeError("unknown IR instruction %r" % type(instr).__name__)

    # -- helpers ----------------------------------------------------------------

    def _assign_array(
        self, dst: str, src: ir.Operand, state: AbstractState
    ) -> AbstractState:
        """Array reference copy: transfer the length variable."""
        if isinstance(src, ir.Reg):
            return state.assign(len_var(dst), LinExpr.var(len_var(src.name)))
        if isinstance(src, ir.ConstArr):
            return state.assign(len_var(dst), LinExpr.constant(len(src.values)))
        # null: the length is undefined; any dereference traps anyway.
        return state.assign(len_var(dst), None)

    def _bin_expr(self, instr: ir.BinInstr) -> Optional[LinExpr]:
        cfg = self._cfg
        ea = operand_expr(instr.a, cfg)
        eb = operand_expr(instr.b, cfg)
        if ea is None or eb is None:
            return None
        if instr.op is ir.ArithOp.ADD:
            return ea + eb
        if instr.op is ir.ArithOp.SUB:
            return ea - eb
        if instr.op is ir.ArithOp.MUL:
            if ea.is_constant:
                return eb * ea.const
            if eb.is_constant:
                return ea * eb.const
            return None
        # DIV/MOD: not affine; havoc (sound).
        return None

    def rewrite_to_block_entry(
        self, block_id: int, expr: LinExpr
    ) -> Optional[LinExpr]:
        """Re-express ``expr`` (valid at the block's terminator) in terms
        of the values variables had at *block entry*, by substituting the
        block's assignments backwards.

        Needed by the bound analysis: a loop guard like ``i < t0`` with
        ``t0 = len(guess)`` computed in the header block must become
        ``i < guess#len`` so the ranking expression survives seeding
        (the temp is dead across the back edge).  Returns None when a
        non-affine definition (array load, call, division) feeds the
        expression.
        """
        cfg = self._cfg
        for instr in reversed(cfg.blocks[block_id].instrs):
            defs = instr.defs()
            if not defs:
                continue
            dst = defs[0].name
            if dst not in expr.coeffs:
                continue
            rhs: Optional[LinExpr] = None
            if isinstance(instr, ir.Assign):
                rhs = operand_expr(instr.src, cfg)
                if rhs is None and isinstance(instr.src, ir.Reg):
                    # Array move: irrelevant for numeric expressions.
                    rhs = None
            elif isinstance(instr, ir.BinInstr):
                rhs = self._bin_expr(instr)
            elif isinstance(instr, ir.ArrLen):
                if isinstance(instr.arr, ir.Reg):
                    rhs = LinExpr.var(len_var(instr.arr.name))
                elif isinstance(instr.arr, ir.ConstArr):
                    rhs = LinExpr.constant(len(instr.arr.values))
            elif isinstance(instr, ir.UnInstr) and instr.op == "neg":
                src = operand_expr(instr.a, cfg)
                rhs = None if src is None else -src
            if rhs is None:
                return None
            expr = expr.substitute(dst, rhs)
        return expr

    def entry_state(self, state: AbstractState) -> AbstractState:
        """Constrain the entry: array lengths and unsigned/boolean
        parameters are non-negative (booleans also at most 1)."""
        from repro.lang import ast

        for param in self._cfg.params:
            if param.declared.is_array:
                state = state.guard(LinCons.ge(LinExpr.var(len_var(param.name)), 0))
            elif param.declared.base is ast.BaseType.UINT:
                state = state.guard(LinCons.ge(LinExpr.var(param.name), 0))
            elif param.declared.base is ast.BaseType.BOOL:
                state = state.guard(LinCons.ge(LinExpr.var(param.name), 0))
                state = state.guard(LinCons.le(LinExpr.var(param.name), 1))
        return state
