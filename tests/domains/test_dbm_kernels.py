"""Property tests: flat DBM kernels vs the seed list-of-lists closure.

The referee is :func:`repro.domains.dbm.closure_reference` — the seed
engine's ``None``-encoded triple loop, kept verbatim.  On seeded random
DBMs (ints and Fractions, varying +∞ density, planted negative cycles):

* the flat Floyd–Warshall kernel must agree entry-wise, including the
  inconsistency verdict and the int-vs-Fraction *type* of every entry;
* the O(n²) incremental closure after one tightened constraint must
  agree with re-closing the tightened matrix from scratch, and leave
  every row its skip invariant exempts untouched;
* the zone cache key must be equal exactly when the variable lists and
  the matrices are entry-wise equal.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import dbm
from repro.domains.dbm import INF
from repro.domains.linexpr import exact
from repro.domains.zone import ZoneState


def random_opt_matrix(rng, n, frac_prob=0.0, inf_prob=0.35, lo=-8, hi=12):
    """A random ``None``-encoded DBM with a zero diagonal."""
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(0)
            elif rng.random() < inf_prob:
                row.append(None)
            elif rng.random() < frac_prob:
                row.append(Fraction(rng.randint(lo, hi), rng.randint(1, 4)))
            else:
                row.append(rng.randint(lo, hi))
        m.append(row)
    return m


def close_flat(matrix):
    """Close a ``None``-encoded matrix with the flat kernel; mirror the
    ``(closed, empty)`` contract of ``closure_reference``."""
    rows = dbm.rows_from_opt(matrix)
    ok = dbm.fw_close_rows(rows, len(rows))
    if not ok:
        return None, True
    return dbm.rows_to_opt(rows), False


class TestFlatClosureAgreesWithSeed:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_int_matrices(self, seed):
        rng = random.Random(seed)
        matrix = random_opt_matrix(rng, rng.randint(1, 7))
        expect, expect_empty = dbm.closure_reference(matrix)
        got, got_empty = close_flat(matrix)
        assert got_empty == expect_empty
        if not expect_empty:
            assert got == expect
            # Entry *types* must survive too: a min tie keeps the
            # original int, never a float or needless Fraction.
            for row_e, row_g in zip(expect, got):
                for e, g in zip(row_e, row_g):
                    assert type(e) is type(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_fraction_matrices(self, seed):
        rng = random.Random(1000 + seed)
        matrix = random_opt_matrix(rng, rng.randint(1, 6), frac_prob=0.4)
        expect, expect_empty = dbm.closure_reference(matrix)
        got, got_empty = close_flat(matrix)
        assert got_empty == expect_empty
        if not expect_empty:
            assert got == expect

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_negative_cycles_are_detected(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 6)
        matrix = random_opt_matrix(rng, n, inf_prob=0.2)
        # Plant a certain negative 2-cycle.
        i, j = rng.sample(range(n), 2)
        matrix[i][j] = -5
        matrix[j][i] = 2
        expect, expect_empty = dbm.closure_reference(matrix)
        got, got_empty = close_flat(matrix)
        assert expect_empty and got_empty
        assert got is None and expect is None


def consistent_opt_matrix(rng, n, frac_prob=0.0, inf_prob=0.35):
    """A random *consistent* ``None``-encoded DBM: every finite entry is
    ``x_i - x_j`` plus a non-negative slack for one hidden valuation
    ``x``, so no negative cycle exists however large ``n`` is."""
    x = [rng.randint(-10, 10) for _ in range(n)]
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(0)
            elif rng.random() < inf_prob:
                row.append(None)
            elif rng.random() < frac_prob:
                slack = Fraction(rng.randint(0, 12), rng.randint(1, 4))
                row.append(x[i] - x[j] + slack)
            else:
                row.append(x[i] - x[j] + rng.randint(0, 6))
        m.append(row)
    return m


def tightening(rng, closed, frac):
    """A strictly tightening, still-consistent ``(a, b, c)`` for a closed
    matrix: ``-m[b][a] <= c < m[a][b]``, or None when no sampled pair
    has room."""
    for _ in range(20):
        a, b = rng.sample(range(len(closed)), 2)
        old, back = closed[a][b], closed[b][a]
        hi = old if old is not None else rng.randint(-3, 9)
        lo = -back if back is not None else hi - 6
        if lo < hi:
            k = rng.randint(0, 3)
            if frac:
                return a, b, exact(lo + (hi - lo) * Fraction(k, 4))
            return a, b, lo + (hi - lo) * k // 4
    return None


class TestIncrementalClosureAgreesWithFull:
    @pytest.mark.parametrize("seed", range(60))
    def test_tighten_matches_reclose(self, seed):
        """Both caller conventions (``m[a][b]`` pre-written to ``c`` or
        left as it was), int and Fraction entries, up to 24 indices; rows
        the skip invariant exempts keep their list object."""
        rng = random.Random(3000 + seed)
        n = rng.randint(2, 24)
        frac = seed % 3 == 0
        closed, empty = dbm.closure_reference(
            consistent_opt_matrix(rng, n, frac_prob=0.3 if frac else 0.0)
        )
        assert not empty
        picked = tightening(rng, closed, frac)
        assert picked is not None
        a, b, c = picked
        tightened = [list(r) for r in closed]
        tightened[a][b] = c
        expect, expect_empty = dbm.closure_reference(tightened)
        assert not expect_empty
        for prewrite in (True, False):
            rows = dbm.rows_from_opt(closed)
            if prewrite:
                rows[a][b] = c
            before = list(rows)
            skipped = [
                i
                for i in range(n)
                if i != a and not rows[i][a] + c < rows[i][b]
            ]
            assert b in skipped  # consistency: m[b][a] + c >= 0 = m[b][b]
            dbm.tighten_rows(rows, n, a, b, c)
            assert dbm.rows_to_opt(rows) == expect
            for i in skipped:
                assert rows[i] is before[i]

    def test_prewritten_row_a_is_rebuilt(self):
        """With ``m[a][b]`` pre-written the skip test on row ``a`` would
        pass (``0 + c >= c``), yet the row must still pick up the paths
        through the new edge: here ``v1 - v0 <= 1`` via ``v2``."""
        closed, _ = dbm.closure_reference(
            [[0, None, None], [None, 0, None], [0, None, 0]]
        )
        rows = dbm.rows_from_opt(closed)
        rows[1][2] = 1
        dbm.tighten_rows(rows, 3, 1, 2, 1)
        assert rows[1][0] == 1


# -- zone cache keys -------------------------------------------------------------

ENTRY = st.sampled_from([0, 1, -2, 3, Fraction(3), Fraction(1, 2), Fraction(-4, 2), INF])
VARS = st.lists(st.sampled_from("xyz"), min_size=0, max_size=2, unique=True)


@st.composite
def zone_parts(draw):
    variables = draw(VARS)
    n = len(variables) + 1
    matrix = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    return variables, matrix


class TestZoneCacheKey:
    @settings(max_examples=300, deadline=None)
    @given(zone_parts(), zone_parts())
    def test_equal_keys_iff_equal_content(self, left, right):
        (vars_l, m_l), (vars_r, m_r) = left, right
        key_l = ZoneState(vars_l, m_l).cache_key()
        key_r = ZoneState(vars_r, m_r).cache_key()
        same = vars_l == vars_r and m_l == m_r
        assert (key_l == key_r) == same
        if same:
            assert hash(key_l) == hash(key_r)

    def test_integral_fraction_keys_like_int(self):
        a = ZoneState(["x"], [[0, 3], [Fraction(-2), 0]]).cache_key()
        b = ZoneState(["x"], [[0, Fraction(3)], [-2, 0]]).cache_key()
        assert a == b and hash(a) == hash(b)
        c = ZoneState(["x"], [[0, Fraction(7, 2)], [-2, 0]]).cache_key()
        assert c != a

    @pytest.mark.parametrize(
        "finite",
        [0, -1, (1 << 63) - 1, 10**25, Fraction(10**30, 3)],
        ids=["zero", "negative", "old_sentinel", "huge", "huge_fraction"],
    )
    def test_inf_never_equals_finite(self, finite):
        with_inf = ZoneState(["x"], [[0, INF], [0, 0]]).cache_key()
        with_finite = ZoneState(["x"], [[0, finite], [0, 0]]).cache_key()
        assert with_inf != with_finite
