"""Shared DBM rows: zone operations never write into a published row.

A ``ZoneState`` publishes its matrix rows the moment it holds them; every
operation builds a new outer list that shares the rows it leaves
unchanged (docs/PERFORMANCE.md, "Shared rows").  These tests run random
operation sequences over a pool of states that share rows with each
other and check two things after every operation:

* no row of any state in the pool changed (entry values *and* their
  ``int``/``Fraction``/``INF`` types);
* the result equals a reference that runs the same operation on a deep
  copy of its operands, entry-wise and type-wise.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import LinCons, LinExpr, dbm
from repro.domains.dbm import INF
from repro.domains.linexpr import exact
from repro.domains.zone import ZoneDomain
from repro.perf import runtime

DOMAIN = ZoneDomain()
CONSTS = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]),
)


def _typed(m):
    """A matrix's content with each entry's type, for exact comparison."""
    return [[(type(v).__name__, v) for v in row] for row in m]


def _content(state):
    return None if state._bottom else _typed(state._m)


# -- the deep-copy reference ------------------------------------------------------


def _deep(m):
    return [row[:] for row in m]


def _closed_ref(state):
    """A deep copy of the closed matrix ``state``'s operations start from."""
    closed = state._close()
    return None if closed._bottom else _deep(closed._m)


def _ref_forget(m, x):
    for row in m:
        row[x] = INF
    m[x] = [INF] * len(m)
    m[x][x] = 0
    return m


def _ref_assigned_eq(m, x, y, c):
    row_x = [v + c for v in m[y]]
    row_x[x] = 0
    for row in m:
        row[x] = row[y] - c
    m[x] = row_x
    return m


def _ref_shift(m, x, c):
    for j in range(len(m)):
        if j != x:
            m[x][j] = m[x][j] + c
            m[j][x] = m[j][x] - c
    return m


def _ref_tightened(m, updates):
    for a, b, c in updates:
        c = exact(c)
        if m[a][b] <= c:
            continue
        if m[b][a] + c < 0:
            return None
        dbm.tighten_rows(m, len(m), a, b, c)
    return m


def _ref_join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    return [ra if ra == rb else list(map(max, ra, rb)) for ra, rb in zip(a, b)]


def _ref_widen(old, new):
    if old is None:
        return new
    if new is None:
        return old
    m = [
        [o if (o != INF and w <= o) else INF for o, w in zip(ro, rn)]
        for ro, rn in zip(old, new)
    ]
    for i in range(len(m)):
        m[i][i] = 0
    return m


def _ref_leq(a, b):
    if a is None:
        return True
    if b is None:
        return False
    return all(x <= y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _ref_close(state):
    if state._bottom:
        return None
    m = _deep(state._m)
    if state._closed:
        return m
    return m if dbm.fw_close_rows(m, len(m)) else None


# -- operations -----------------------------------------------------------------


@st.composite
def operations(draw, names):
    kind = draw(
        st.sampled_from(
            ["const", "shift", "copy", "havoc", "ub", "lb", "diff",
             "forget", "join", "widen", "leq", "close"]
        )
    )
    x, y = draw(st.permutations(names))[:2]
    return kind, x, y, draw(CONSTS), draw(st.integers(0, 63)), draw(st.integers(0, 63))


def _apply(op, pool, index):
    """Run ``op`` on pool states; returns (result, expected, is_state)."""
    kind, x, y, c, i, j = op
    a = pool[i % len(pool)]
    b = pool[j % len(pool)]
    vx, vy = LinExpr.var(x), LinExpr.var(y)
    ix, iy = index[x], index[y]
    if kind == "close":
        return (lambda: a._close()), _ref_close(a)
    if kind == "join":
        return (lambda: a.join(b)), _ref_join(_closed_ref(a), _closed_ref(b))
    if kind == "widen":
        return (lambda: a.widen(b)), _ref_widen(_closed_ref(a), _closed_ref(b))
    if kind == "leq":
        return (lambda: a.leq(b)), _ref_leq(_closed_ref(a), _closed_ref(b))
    m = _closed_ref(a)
    if kind == "const":
        run = lambda: a.assign(x, LinExpr.constant(c))  # noqa: E731
        return run, m and _ref_assigned_eq(m, ix, 0, c)
    if kind == "shift":
        return (lambda: a.assign(x, vx + c)), m and _ref_shift(m, ix, c)
    if kind == "copy":
        return (lambda: a.assign(x, vy + c)), m and _ref_assigned_eq(m, ix, iy, c)
    if kind == "havoc":
        return (lambda: a.assign(x, None)), m and _ref_forget(m, ix)
    if kind == "forget":
        return (lambda: a.forget(x)), m and _ref_forget(m, ix)
    if kind == "ub":
        run = lambda: a.guard(LinCons.le(vx, c))  # noqa: E731
        return run, m and _ref_tightened(m, [(ix, 0, c)])
    if kind == "lb":
        run = lambda: a.guard(LinCons.ge(vx, c))  # noqa: E731
        return run, m and _ref_tightened(m, [(0, ix, -c)])
    run = lambda: a.guard(LinCons.le(vx - vy, c))  # noqa: E731
    return run, m and _ref_tightened(m, [(ix, iy, c)])


def _snapshot(pool):
    out = []
    for state in pool:
        closure = state._closure
        out.append(
            (state, _content(state), closure, None if closure is None else _content(closure))
        )
    return out


@pytest.mark.parametrize("perf", [False, True], ids=["perf-off", "perf-on"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_operations_share_rows_without_writing_them(perf, data):
    names = ["v%d" % k for k in range(data.draw(st.integers(3, 6), label="nvars"))]
    with runtime.override(perf):
        runtime.clear_caches()
        dbm.clear_interned()
        pool = [DOMAIN.top(names)]
        index = pool[0]._index
        for op in data.draw(st.lists(operations(names), min_size=1, max_size=14)):
            run, expected = _apply(op, pool, index)
            before = _snapshot(pool)
            result = run()
            for state, content, closure, closure_content in before:
                assert _content(state) == content, op
                if closure is not None:
                    assert _content(closure) == closure_content, op
            if op[0] == "leq":
                assert result == expected, op
                continue
            got = _content(result)
            if perf and op[0] == "close":
                # The closure memo serves an equal-key closure, and keys
                # compare entries numerically (3 == Fraction(3)).
                got = None if got is None else [[v for _, v in row] for row in got]
                expected = None if expected is None else [list(r) for r in expected]
            else:
                expected = None if expected is None else _typed(expected)
            assert got == expected, op
            pool.append(result)


# -- sharing does happen ----------------------------------------------------------


def _chain(n):
    """A closed zone over ``n`` variables ordered by unit gaps."""
    names = ["v%d" % k for k in range(n)]
    state = DOMAIN.top(names)
    for lo, hi in zip(names, names[1:]):
        state = state.guard(LinCons.le(LinExpr.var(lo) - LinExpr.var(hi), -1))
    state = state.guard(LinCons.ge(LinExpr.var(names[0]), 0))
    return names, state._close()


class TestRowsAreShared:
    def test_tightened_keeps_skipped_rows(self):
        names, closed = _chain(10)
        # Upper bounds for v0..v4 only; v5..v9 are unbounded above.
        closed = closed.guard(LinCons.le(LinExpr.var(names[4]), 100))._close()
        n = len(names) + 1
        # Raise the lower bound of v0 (-v0 <= -5): rows v1..v4 tighten,
        # rows v5..v9 have no upper bound to tighten and, like row b
        # (v0 itself), are skipped.
        a, b, c = 0, closed._index[names[0]], -5
        rows = closed._m
        assert c < rows[a][b]
        skipped = [i for i in range(n) if i != a and not rows[i][a] + c < rows[i][b]]
        result = closed._tightened([(a, b, c)])
        assert skipped == [b] + [closed._index[v] for v in names[5:]]
        for i in range(n):
            if i in skipped:
                assert result._m[i] is rows[i]
            else:
                assert result._m[i] is not rows[i]

    def test_forget_keeps_rows_without_a_bound_on_the_variable(self):
        names, closed = _chain(10)
        forgotten = closed.forget(names[3])
        again = forgotten.forget(names[3])
        # Every column-3 entry is already INF: only row 4 itself is new.
        x = closed._index[names[3]]
        for i, (row, old) in enumerate(zip(again._m, forgotten._m)):
            assert (row is old) == (i != x)

    def test_join_and_widen_share_equal_rows(self):
        names, closed = _chain(10)
        other = closed.guard(LinCons.le(LinExpr.var(names[-1]), 20))
        joined = closed.join(other)
        widened = closed.widen(other)
        for i, row in enumerate(closed._m):
            if row is other._m[i]:
                assert joined._m[i] is row
                assert widened._m[i] is row

    def test_entry_of_another_type_is_written_not_shared(self):
        """``x := y - 1/2`` with ``y >= 1/2`` gives ``-x <= Fraction(0)``:
        equal to the old ``-x <= 0`` but not the same entry, so row 0 is
        rebuilt exactly as the deep-copy algorithm builds it."""
        vx, vy = LinExpr.var("x"), LinExpr.var("y")
        state = DOMAIN.top(["x", "y"]).guard(LinCons.ge(vx, 0))
        state = state.guard(LinCons.ge(vy, Fraction(1, 2)))._close()
        assert type(state._m[0][1]) is int and state._m[0][1] == 0
        result = state.assign("x", vy - Fraction(1, 2))
        assert type(result._m[0][1]) is Fraction and result._m[0][1] == 0
        assert result._m[0] is not state._m[0]
