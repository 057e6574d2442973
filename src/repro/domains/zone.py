"""The zone abstract domain (difference-bound matrices).

Zones track constraints of the form ``x - y <= c`` and ``±x <= c``.
This is the workhorse domain of the reproduction: the seeded
transition-invariant analysis needs exactly relations like
``i - i@seed <= k`` (progress per iteration) and ``i - low <= -1``
(the loop guard), all of which zones represent exactly.

Representation: a DBM over an index set {0 = the constant zero, one
index per tracked variable}; ``m[i][j]`` is the tightest known upper
bound on ``v_i - v_j``, with ``dbm.INF`` (``float("inf")``) encoding
+∞ so the closure kernels can relax whole rows with ``map(min, ...)``
instead of testing ``is None`` per entry (see
:mod:`repro.domains.dbm`).  Closure is Floyd–Warshall for a cold
matrix and the exact O(n²) incremental tightening for the
one-constraint updates ``assign``/``guard`` produce — on *both* the
perf-on and perf-off paths: the incremental closure of a DBM equals
its re-closure (shortest paths are unique), so the digests are
unchanged while the dominant O(n³) loop disappears from the hot path.
Widening keeps stable bounds and drops unstable ones; following the
standard recipe, the result of widening is *not* closed (closing it
could un-do the widening and break termination), so closure is applied
lazily on queries.

Shared rows: a row is never written once a state holds it.  Each
operation builds a new outer list that shares every row it leaves
unchanged — ``_tightened`` the rows ``tighten_rows`` skips,
``_assigned_eq``/``forget``/the shift every row whose column-``x``
entry keeps its value and type (:func:`_set_column`), ``join`` and
``widen`` every row equal to (or stable against) its partner — and
replaces the rows it changes.  The entries are exactly those a full
copy would hold, so sharing saves memory and copying, never changes a
result (docs/PERFORMANCE.md, "Shared rows").
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from operator import le
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.domains import dbm
from repro.domains.base import AbstractState, Bound, Domain
from repro.domains.dbm import INF, NEG_INF
from repro.domains.linexpr import LinCons, LinExpr, RelOp, exact
from repro.perf import runtime
from repro.resilience import faults

Matrix = List[List[object]]


_INDEX_CACHE: Dict[Tuple[str, ...], Dict[str, int]] = {}
_INDEX_LIMIT = 10_000


def _index_for(variables: Sequence[str]) -> Dict[str, int]:
    """The name→DBM-index dict for a variable list, interned: sibling
    states over one variable set (every state of one fixpoint run) share
    a single read-only dict instead of rebuilding it per state."""
    key = tuple(variables)
    index = _INDEX_CACHE.get(key)
    if index is None:
        index = {v: i + 1 for i, v in enumerate(key)}
        runtime.bounded("zone.index", _INDEX_CACHE, _INDEX_LIMIT)[key] = index
    return index


def _set_column(m: Matrix, x: int, entry: Callable[[List[object]], object]) -> None:
    """Set ``m[i][x] = entry(m[i])`` for every row ``i != x`` (the caller
    replaces row ``x`` itself), copying only the rows whose entry changes.

    A row whose entry keeps its value and its ``int``/``Fraction``/``INF``
    type stays the same list object, shared with the state ``m`` was
    copied from: published rows are never written into.
    """
    for i, row in enumerate(m):
        if i == x:
            continue
        old = row[x]
        new = entry(row)
        if new != old or type(new) is not type(old):
            row = row[:]
            row[x] = new
            m[i] = row


class ZoneState(AbstractState):
    def __init__(
        self,
        variables: Sequence[str] = (),
        matrix: Optional[Matrix] = None,
        bottom: bool = False,
        closed: bool = False,
    ):
        self._vars: List[str] = list(variables)
        self._index: Dict[str, int] = _index_for(self._vars)
        n = len(self._vars) + 1
        if matrix is None:
            matrix = [[INF] * n for _ in range(n)]
            for i in range(n):
                matrix[i][i] = 0
        self._m: Matrix = matrix
        self._bottom = bottom
        self._closed = closed
        # Perf layer (see docs/PERFORMANCE.md): the closed form of this
        # state, computed at most once, and the hashable content key used
        # by the closure/join/leq memo tables.  States are immutable
        # after construction, so both can be cached unconditionally.
        self._closure: Optional["ZoneState"] = None
        self._key_cache: Optional[object] = None
        # Single-slot identity memos for the lattice operations (perf
        # layer only).  The fixpoint engine re-joins / re-compares the
        # same *objects* across widening and narrowing iterations — the
        # transfer memo returns cached state objects, and a stable loop
        # head keeps its invariant object — so remembering the last
        # partner by identity hits the hot repeats without paying
        # content-key construction.  Partner and join result are held by
        # weak reference: two states that meet would otherwise point at
        # each other (and a join returning ``self`` at itself), leaving
        # every matrix they hold to the cyclic garbage collector.
        self._join_last: Optional[Tuple[weakref.ref, weakref.ref]] = None
        self._leq_last: Optional[Tuple[weakref.ref, bool]] = None

    def __getstate__(self) -> Dict[str, object]:
        # The closure, key and identity memos are derived (and weak
        # references cannot be pickled): persist the DBM alone.
        state = dict(self.__dict__)
        for slot in ("_closure", "_key_cache", "_join_last", "_leq_last"):
            state[slot] = None
        return state

    # -- plumbing ------------------------------------------------------------

    def _dim(self) -> int:
        return len(self._vars) + 1

    def _with_vars(self, variables: Sequence[str]) -> "ZoneState":
        """This state re-indexed over a superset of variables."""
        index = self._index
        new_vars = list(self._vars)
        for var in variables:
            if var not in index:
                new_vars.append(var)
        if len(new_vars) == len(self._vars):
            return self  # identity: no new variables to add
        # New variables are appended, so the old DBM is exactly the
        # top-left block of the new one: copy rows by slicing instead of
        # entry-by-entry (this sits on the alignment hot path).
        n_old = len(self._vars) + 1
        extra = len(new_vars) - len(self._vars)
        n_new = n_old + extra
        tail: List[object] = [INF] * extra
        matrix: Matrix = [self._m[i] + tail for i in range(n_old)]
        for k in range(extra):
            row: List[object] = [INF] * n_new
            row[n_old + k] = 0
            matrix.append(row)
        return ZoneState(new_vars, matrix, self._bottom, self._closed)

    def _aligned(self, other: "ZoneState") -> Tuple["ZoneState", "ZoneState"]:
        if self._vars == other._vars:
            # Identity fast path: equal variable lists mean both DBMs
            # already share one index space — re-deriving (and possibly
            # re-ordering) them would rebuild two n×n matrices for
            # nothing, and alignment sits under every join/leq/widen.
            return self, other
        left = self._with_vars(other._vars)
        right = other._with_vars(left._vars)
        left = left._with_vars(right._vars)
        # After two extensions the variable lists contain the same names,
        # but possibly in different orders; re-order the right one.
        if left._vars != right._vars:
            right = right._reordered(left._vars)
        return left, right

    def _reordered(self, variables: Sequence[str]) -> "ZoneState":
        assert set(variables) == set(self._vars)
        old_pos = [0] + [self._index[v] for v in variables]
        matrix: Matrix = [
            [row[j] for j in old_pos] for row in (self._m[i] for i in old_pos)
        ]
        return ZoneState(variables, matrix, self._bottom, self._closed)

    def cache_key(self) -> object:
        """A hashable key over this state's full content.

        Two states with equal keys denote the same DBM (same variables in
        the same order, entry-wise equal bounds), so every derived value
        — closure, join, ordering, transfer results — is equal too.  The
        key is the joined variable list plus the matrix as a tuple of row
        tuples, built and hashed at C level.  Tuple equality compares
        entries numerically, so ``3`` and ``Fraction(3)`` key alike, and
        ``INF`` equals no finite bound.
        """
        key = self._key_cache
        if key is None:
            if self._bottom:
                key = "bot"
            else:
                key = (",".join(self._vars), tuple(map(tuple, self._m)))
            self._key_cache = key
        return key

    def _close(self) -> "ZoneState":
        """Floyd–Warshall closure; detects emptiness.

        With the perf layer enabled the result is cached per instance and
        interned process-wide by content key, so re-closing an equal
        matrix (the common case across sibling trails of one refinement
        split) is a dictionary lookup.
        """
        if self._bottom or self._closed:
            return self
        cached = self._closure
        if cached is not None:
            return cached
        faults.maybe_fire("zone.closure")
        if runtime.enabled():
            table = runtime.memo_table("zone.close")
            key = self.cache_key()
            hit = table.get(key)
            if hit is not None:
                runtime.STATS.hit("zone.close")
                self._closure = hit
                return hit
            runtime.STATS.miss("zone.close")
            result = self._close_full()
            if not result._bottom:
                # Canonical-matrix interning: equal closures share one
                # row-list object (states never mutate their matrix).
                result._m = dbm.intern_rows(result.cache_key(), result._m)
            table[key] = result
            self._closure = result
            return result
        result = self._close_full()
        self._closure = result
        return result

    def _close_full(self) -> "ZoneState":
        n = self._dim()
        m = list(self._m)  # the kernel replaces rows, never writes into them
        if not dbm.fw_close_rows(m, n):
            return ZoneState(self._vars, None, bottom=True, closed=True)
        return ZoneState(self._vars, m, False, closed=True)

    def _tightened(self, updates: Sequence[Tuple[int, int, object]]) -> "ZoneState":
        """Exact closure after tightening individual entries of a closed
        matrix: O(n²) per update instead of the O(n³) Floyd–Warshall.

        For a closed matrix ``m`` and a new constraint ``v_a - v_b <= c``
        the closure of the tightened system is
        ``min(m[i][j], m[i][a] + c + m[b][j])`` — every path either avoids
        the new edge or uses it once (using it twice traverses the cycle
        ``b →* a → b`` of weight ``m[b][a] + c >= 0``, which cannot
        shorten anything once the emptiness pre-check has passed).  The
        system is empty iff ``m[b][a] + c < 0``.  Because the closure of
        a DBM is its unique shortest-path matrix, the result is
        *identical* to what a full re-closure would produce.  Updates are
        applied sequentially; after each one the matrix is closed again,
        so chaining stays exact.  Rows that cannot change — ``i != a``
        with ``m[i][a] + c >= m[i][b]``, since closure already bounds
        ``m[i][j]`` by ``m[i][b] + m[b][j]`` — are skipped by
        :func:`repro.domains.dbm.tighten_rows` and keep their list object.
        """
        if self._bottom:
            return self
        base = self if self._closed else self._close()
        if base._bottom:
            return base
        # Copy lazily: re-applying an already-satisfied constraint (the
        # common case when a loop guard is re-evaluated at a fixpoint)
        # touches nothing, so the no-op path allocates nothing.  The copy
        # is of the outer list only: ``tighten_rows`` replaces the rows
        # it changes, and the result shares every other row with ``base``.
        m: Optional[Matrix] = None
        n = base._dim()
        for a, b, c in updates:
            # Integral bounds stay plain ints: Fraction arithmetic is
            # ~20x slower, and these kernels are the tool's hot loop.
            c = exact(c)
            src = base._m if m is None else m
            if src[a][b] <= c:
                continue
            if src[b][a] + c < 0:
                return ZoneState(base._vars, None, bottom=True, closed=True)
            if m is None:
                m = list(base._m)
            dbm.tighten_rows(m, n, a, b, c)
        if m is None:
            return base
        return ZoneState(base._vars, m, False, closed=True)

    def _assigned_eq(self, x: int, y: int, c) -> "ZoneState":
        """The exact closed result of ``v_x := v_y + c`` on this (closed,
        non-bottom) state, ``x != y``: havoc ``x``, then impose
        ``v_x - v_y = c``.

        On the havocked closed matrix the incremental closure of the two
        tightenings ``(x, y, c)`` and ``(y, x, -c)`` collapses to copying
        ``y``'s row and column shifted by ``±c`` — every shortest path
        through the fresh ``x`` must enter and leave it via the equality
        edges, and entries not involving ``x`` are already shortest
        (hacking through ``x`` adds the zero-weight cycle ``y→x→y``).
        O(n) instead of two O(n²) tightening sweeps; entry-wise identical
        to what ``forget`` + ``_tightened`` produce.  Rows whose column-x
        entry keeps its value are shared with this state.
        """
        base = self if self._closed else self._close()
        if base._bottom:
            return base
        m = list(base._m)
        row_x = [v + c for v in m[y]]
        row_x[x] = 0
        _set_column(m, x, lambda row: row[y] - c)
        m[x] = row_x
        return ZoneState(base._vars, m, False, closed=True)

    # -- lattice ---------------------------------------------------------------

    def is_bottom(self) -> bool:
        if self._bottom:
            return True
        closed = self._close()
        return closed._bottom

    def join(self, other: "ZoneState") -> "ZoneState":
        # No content-keyed memo table here (unlike ``_close``): a join
        # on closed matrices is one C-level row-wise max, cheaper than
        # building content keys for operands the fixpoint usually never
        # joins again.  The identity slot still catches the repeats the
        # engine does produce (same invariant object joined with the
        # same transfer-memoized out-state every iteration).
        if runtime.enabled():
            memo = self._join_last
            if memo is not None and memo[0]() is other:
                result = memo[1]()
                if result is not None:
                    return result
            result = self._join(other)
            self._join_last = (weakref.ref(other), weakref.ref(result))
            return result
        return self._join(other)

    def _join(self, other: "ZoneState") -> "ZoneState":
        a = self._close()
        b = other._close()
        if a._bottom:
            return b
        if b._bottom:
            return a
        if a is b:
            return a  # identity fast path: join with itself
        a, b = a._aligned(b)
        a, b = a._close(), b._close()
        if a._m is b._m or a._m == b._m:
            # Identity fast path: equal closed matrices (the common case
            # at a fixpoint) — the entry-wise max IS either operand.
            return a
        matrix: Matrix = [
            row_a
            if row_a is row_b or row_a == row_b
            else list(map(max, row_a, row_b))
            for row_a, row_b in zip(a._m, b._m)
        ]
        return ZoneState(a._vars, matrix, False, closed=True)

    def widen(self, other: "ZoneState") -> "ZoneState":
        old = self._close()
        new = other._close()
        if old._bottom:
            return new
        if new._bottom:
            return old
        old, new = old._aligned(new)
        old, new = old._close(), new._close()
        matrix: Matrix = []
        for i, (row_o, row_n) in enumerate(zip(old._m, new._m)):
            if row_o is row_n or all(map(le, row_n, row_o)):
                # Every bound of the row is stable: the widened row IS
                # ``row_o`` (whose diagonal is already 0: ``old`` is
                # closed), so it is shared, not rebuilt.
                matrix.append(row_o)
                continue
            # Keep stable bounds; drop bounds the new state exceeds.
            row = [o if (o != INF and w <= o) else INF for o, w in zip(row_o, row_n)]
            row[i] = 0
            matrix.append(row)
        # NOT closed: closing a widened zone can reintroduce dropped
        # bounds and break termination.
        return ZoneState(old._vars, matrix, False, closed=False)

    def leq(self, other: "ZoneState") -> bool:
        # Identity slot only, for the same reason as ``join``: the
        # early-out row comparison is cheaper than content-keying both
        # operands.
        if runtime.enabled():
            memo = self._leq_last
            if memo is not None and memo[0]() is other:
                return memo[1]
            result = self._leq(other)
            self._leq_last = (weakref.ref(other), result)
            return result
        return self._leq(other)

    def _leq(self, other: "ZoneState") -> bool:
        a = self._close()
        if a._bottom:
            return True
        b = other._close()
        if b._bottom:
            return False
        if a is b:
            return True
        a, b = a._aligned(b)
        a, b = a._close(), b._close()
        for row_a, row_b in zip(a._m, b._m):
            if row_a is row_b or row_a == row_b:
                continue  # equal rows cannot violate the ordering
            for x, y in zip(row_a, row_b):
                if x > y:
                    return False
        return True

    # -- transfer -----------------------------------------------------------------

    def assign(self, var: str, expr: Optional[LinExpr]) -> "ZoneState":
        if self._bottom:
            return self
        state = self._with_vars([var])._close()
        if state._bottom:
            return state
        if expr is None:
            return state.forget(var)
        coeffs = expr.coeffs
        x = state._index[var]
        if not coeffs:
            # var := c is var := zero + c (index 0 is the constant zero).
            return state._assigned_eq(x, 0, expr.const)
        if len(coeffs) == 1:
            (src, coeff), = coeffs.items()
            if coeff == 1 and src == var:
                # var := var + c : shift the row/column.
                c = expr.const
                m = list(state._m)
                row_x = [v + c for v in m[x]]
                row_x[x] = m[x][x]
                _set_column(m, x, lambda row: row[x] - c)
                m[x] = row_x
                return ZoneState(state._vars, m, False, closed=True)
            if coeff == 1 and src != var:
                # var := src + c
                state = state._with_vars([src])._close()
                return state._assigned_eq(
                    state._index[var], state._index[src], expr.const
                )
        # General affine: havoc + interval bounds of the rhs.
        lo, hi = state.bounds_of(expr)
        result = state.forget(var)
        x = result._index[var]
        updates: List[Tuple[int, int, object]] = []
        if hi is not None:
            updates.append((x, 0, hi))
        if lo is not None:
            updates.append((0, x, -lo))
        return result._tightened(updates) if updates else result

    def guard(self, cons: LinCons) -> "ZoneState":
        if self._bottom:
            return self
        if cons.op is RelOp.EQ:
            return self.guard(LinCons(cons.expr, RelOp.LE)).guard(
                LinCons(-cons.expr, RelOp.LE)
            )
        expr = cons.expr
        state = self._with_vars(list(expr.coeffs))._close()
        if state._bottom:
            return state
        coeffs = expr.coeffs
        updates: List[Tuple[int, int, object]] = []
        handled = False
        items = sorted(coeffs.items())
        if len(items) == 1:
            (x_name, coeff), = items
            x = state._index[x_name]
            if coeff == 1:
                updates.append((x, 0, -expr.const))  # x <= -c
                handled = True
            elif coeff == -1:
                updates.append((0, x, -expr.const))  # -x <= -c
                handled = True
        elif len(items) == 2:
            (a_name, ca), (b_name, cb) = items
            if ca == 1 and cb == -1:
                updates.append(
                    (state._index[a_name], state._index[b_name], -expr.const)
                )
                handled = True
            elif ca == -1 and cb == 1:
                updates.append(
                    (state._index[b_name], state._index[a_name], -expr.const)
                )
                handled = True
        if not handled:
            # Sound fallback: per-variable interval refinement.
            closed = state
            lo, _ = closed.bounds_of(expr)
            if lo is not None and lo > 0:
                return ZoneState(state._vars, None, bottom=True, closed=True)
            for var, coeff in coeffs.items():
                rest = LinExpr(
                    {v: c for v, c in coeffs.items() if v != var}, expr.const
                )
                rest_lo, _ = closed.bounds_of(rest)
                if rest_lo is None:
                    continue
                limit = Fraction(-rest_lo) / coeff
                x = state._index[var]
                if coeff > 0:
                    updates.append((x, 0, limit))
                else:
                    updates.append((0, x, -limit))
        return state._tightened(updates) if updates else state

    def forget(self, var: str) -> "ZoneState":
        if self._bottom:
            return self
        if var not in self._index:
            return self
        state = self._close()
        if state._bottom:
            return state
        m = list(state._m)
        x = state._index[var]
        row_x: List[object] = [INF] * state._dim()
        row_x[x] = 0
        _set_column(m, x, lambda row: INF)
        m[x] = row_x
        return ZoneState(state._vars, m, False, closed=True)

    # -- queries -----------------------------------------------------------------------

    def bounds_of(self, expr: LinExpr) -> Tuple[Bound, Bound]:
        state = self._close()
        if state._bottom:
            return Fraction(0), Fraction(-1)
        for var in expr.coeffs:
            if var not in state._index:
                return (None, None)
        # Decompose the expression greedily into *difference pairs*
        # (positive-coefficient var matched with a negative one), bounded
        # by the DBM entries, then unary leftovers.  Pairs whose names
        # differ only by a suffix (x vs x@pre / x@seed) are matched first:
        # seeded transition queries like (low - i) - (low@pre - i@pre)
        # become exact this way.
        pos: Dict[str, Fraction] = {}
        neg: Dict[str, Fraction] = {}
        for var, coeff in expr.coeffs.items():
            if coeff > 0:
                pos[var] = coeff
            else:
                neg[var] = -coeff
        # Accumulate with the ±∞ encodings; convert to the None API at
        # the end.  Upper-bound terms are never -∞ and lower-bound terms
        # never +∞, so the sums cannot produce inf + (-inf).
        lo = expr.const
        hi = expr.const

        def base(name: str) -> str:
            return name.split("@", 1)[0]

        def consume_pair(a: str, b: str) -> None:
            """Account for t * (a - b) where t = min available amounts."""
            nonlocal lo, hi
            t = min(pos[a], neg[b])
            i, j = state._index[a], state._index[b]
            hi = hi + t * state._m[i][j]
            lo = lo + t * -state._m[j][i]
            pos[a] -= t
            neg[b] -= t
            if pos[a] == 0:
                del pos[a]
            if neg[b] == 0:
                del neg[b]

        # First pass: same-base pairs (x with x@pre); second: any pairs
        # with a finite difference bound; then unary leftovers.
        for a in sorted(pos):
            if a not in pos:
                continue
            for b in sorted(neg):
                if a in pos and b in neg and base(a) == base(b):
                    consume_pair(a, b)
        for a in sorted(pos):
            for b in sorted(neg):
                if a in pos and b in neg:
                    i, j = state._index[a], state._index[b]
                    if state._m[i][j] != INF or state._m[j][i] != INF:
                        consume_pair(a, b)
        for var, amount in sorted(pos.items()):
            x = state._index[var]
            hi = hi + amount * state._m[x][0]
            lo = lo + amount * -state._m[0][x]
        for var, amount in sorted(neg.items()):
            x = state._index[var]
            hi = hi + amount * state._m[0][x]
            lo = lo + amount * -state._m[x][0]
        return (None if lo == NEG_INF else lo, None if hi == INF else hi)

    def constraints(self) -> List[LinCons]:
        state = self._close()
        if state._bottom:
            return [LinCons.le(LinExpr.constant(1), 0)]
        out: List[LinCons] = []
        n = state._dim()
        names = ["0"] + state._vars
        for i in range(n):
            for j in range(n):
                bound = state._m[i][j]
                if i == j or bound == INF:
                    continue
                if i == 0:
                    expr = -LinExpr.var(names[j])
                elif j == 0:
                    expr = LinExpr.var(names[i])
                else:
                    expr = LinExpr.var(names[i]) - LinExpr.var(names[j])
                out.append(LinCons.le(expr, bound))
        return out

    def __str__(self) -> str:
        if self.is_bottom():
            return "⊥"
        cons = self.constraints()
        return " ∧ ".join(str(c) for c in cons) if cons else "⊤"


class ZoneDomain(Domain):
    name = "zone"

    def top(self, variables: Sequence[str] = ()) -> ZoneState:
        return ZoneState(variables, closed=True)

    def bottom(self, variables: Sequence[str] = ()) -> ZoneState:
        return ZoneState(variables, None, bottom=True, closed=True)
