"""The zone domain's perf layer: incremental closure and memo soundness.

The incremental ``_tightened`` path must produce *exactly* the matrix a
full Floyd–Warshall closure would (the closure of a DBM is its unique
shortest-path matrix), and every memoized operation must return the same
result as the unmemoized seed path.  Checked here both on hand-picked
cases and on randomized operation sequences.
"""

import gc
import random
from fractions import Fraction

import pytest

from repro.domains import LinCons, LinExpr
from repro.domains.zone import ZoneDomain, ZoneState
from repro.perf import runtime

x = LinExpr.var("x")
y = LinExpr.var("y")
z = LinExpr.var("z")

DOMAIN = ZoneDomain()


def _entries(state):
    """Comparable content of a zone state (closed form)."""
    closed = state._close()
    if closed._bottom:
        return "bot"
    return (tuple(closed._vars), tuple(tuple(row) for row in closed._m))


def _random_ops(seed, steps=12):
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    ops = []
    for _ in range(steps):
        kind = rng.choice(["const", "shift", "copy", "guard_le", "guard_diff"])
        a, b = rng.sample(names, 2)
        c = rng.randint(-5, 5)
        ops.append((kind, a, b, c))
    return ops


def _apply(state, ops):
    for kind, a, b, c in ops:
        va, vb = LinExpr.var(a), LinExpr.var(b)
        if kind == "const":
            state = state.assign(a, LinExpr.constant(c))
        elif kind == "shift":
            state = state.assign(a, va + c)
        elif kind == "copy":
            state = state.assign(a, vb + c)
        elif kind == "guard_le":
            state = state.guard(LinCons.le(va, c))
        elif kind == "guard_diff":
            state = state.guard(LinCons.le(va - vb, c))
    return state


class TestIncrementalClosure:
    def test_tightened_matches_full_closure(self):
        base = DOMAIN.top(["x", "y", "z"])
        base = base.guard(LinCons.le(x - y, 3)).guard(LinCons.le(y - z, 2))
        closed = base._close()
        # Tighten x - z (index 1 and 3): incremental vs full must agree.
        incremental = closed._tightened([(1, 3, 1)])
        m = closed._copy_matrix()
        m[1][3] = 1
        full = ZoneState(closed._vars, m, False, closed=False)._close_full()
        assert _entries(incremental) == _entries(full)

    def test_tightened_detects_emptiness(self):
        base = DOMAIN.top(["x", "y"])
        base = base.guard(LinCons.le(x - y, -1))._close()
        # y - x <= -1 together with x - y <= -1 is a negative cycle.
        result = base._tightened([(2, 1, -1)])
        assert result.is_bottom()

    def test_no_op_update_keeps_state(self):
        base = DOMAIN.top(["x"]).guard(LinCons.le(x, 5))._close()
        result = base._tightened([(1, 0, 10)])  # looser than x <= 5
        assert _entries(result) == _entries(base)

    def test_fraction_zero_diagonal_is_normalized(self):
        """forget() leaves Fraction(0) on the diagonal; the incremental
        path must not let it poison the matrix with Fraction arithmetic."""
        with runtime.override(True):
            state = DOMAIN.top(["x", "y"]).guard(LinCons.le(x - y, 3))
            state = state.forget("x").assign("x", LinExpr.constant(2))
            closed = state._close()
            assert not closed.is_bottom()
            for row in closed._m:
                for entry in row:
                    assert entry is None or not (
                        isinstance(entry, Fraction) and entry.denominator == 1
                    )


class TestFlagEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_sequences_agree(self, seed):
        ops = _random_ops(seed)
        with runtime.override(False):
            plain = _apply(DOMAIN.top(["x", "y", "z"]), ops)
        with runtime.override(True):
            runtime.clear_caches()
            fast = _apply(DOMAIN.top(["x", "y", "z"]), ops)
        assert _entries(plain) == _entries(fast)
        # Lattice queries agree too.
        with runtime.override(True):
            assert plain.leq(fast) and fast.leq(plain)

    @pytest.mark.parametrize("seed", range(10))
    def test_joins_and_orders_agree(self, seed):
        ops_a = _random_ops(seed * 2 + 100)
        ops_b = _random_ops(seed * 2 + 101)
        with runtime.override(False):
            a_plain = _apply(DOMAIN.top(["x", "y", "z"]), ops_a)
            b_plain = _apply(DOMAIN.top(["x", "y", "z"]), ops_b)
            join_plain = _entries(a_plain.join(b_plain))
            leq_plain = a_plain.leq(b_plain)
        with runtime.override(True):
            runtime.clear_caches()
            a_fast = _apply(DOMAIN.top(["x", "y", "z"]), ops_a)
            b_fast = _apply(DOMAIN.top(["x", "y", "z"]), ops_b)
            assert _entries(a_fast.join(b_fast)) == join_plain
            assert a_fast.leq(b_fast) == leq_plain


class TestCacheKey:
    def test_equal_content_equal_key(self):
        a = DOMAIN.top(["x"]).guard(LinCons.le(x, 3))
        b = DOMAIN.top(["x"]).guard(LinCons.le(x, 3))
        assert a is not b
        assert a.cache_key() == b.cache_key()

    def test_different_content_different_key(self):
        a = DOMAIN.top(["x"]).guard(LinCons.le(x, 3))
        b = DOMAIN.top(["x"]).guard(LinCons.le(x, 4))
        assert a.cache_key() != b.cache_key()

    def test_bottom_key(self):
        assert DOMAIN.bottom().cache_key() == "bot"

    def test_close_memo_returns_equal_state(self):
        with runtime.override(True):
            runtime.clear_caches()
            a = DOMAIN.top(["x", "y"]).guard(LinCons.le(x - y, 2))
            b = DOMAIN.top(["x", "y"]).guard(LinCons.le(x - y, 2))
            assert _entries(a) == _entries(b)


class TestIdentityMemosAreAcyclic:
    def test_scaled_analysis_leaves_no_cyclic_zone_states(self):
        """The join/leq identity slots hold partner and result weakly, so
        states that met each other are freed by reference counting
        instead of waiting, with all their matrices, for the cyclic GC."""
        from repro.core.blazer import Blazer, BlazerConfig
        from repro.diffcheck.differ import DiffConfig
        from repro.diffcheck.generator import PROC_NAME, GeneratorConfig, generate_program
        from repro.leakage.model import extern_env

        # The largest-memory program of the scaled benchmark's draw.
        program = generate_program(0, 40, GeneratorConfig(max_stmts=6, max_depth=2, max_loops=2))
        diff = DiffConfig()
        config = BlazerConfig(
            domain=diff.domain,
            observer=diff.observer(program.domain_map),
            summaries=extern_env(program.source).summaries,
        )
        with runtime.override(True):
            runtime.clear_caches()
            gc.collect()
            flags = gc.get_debug()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                # Keep the verdict (and the memo tables) alive: only what
                # nothing live reaches counts as leaked.
                verdict = Blazer.from_source(program.source, config).analyze(PROC_NAME)
                gc.collect()
                leaked = [obj for obj in gc.garbage if isinstance(obj, ZoneState)]
            finally:
                gc.set_debug(flags)
                gc.garbage.clear()
        assert verdict.status == "attack"
        assert leaked == []
