"""The int-when-integral coefficient representation against a
``Fraction``-everywhere reference.

``LinExpr`` and ``Poly`` store an integral coefficient as ``int`` and a
``Fraction`` only otherwise.  Every observable — coefficients, ``str``,
``hash``, equality, ``dominates``, ``evaluate`` — must match what the
same operations give when every value is a ``Fraction``, and no
division on the domains' or the lemma matcher's paths may produce a
float.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.cost import Poly
from repro.bounds.lemmas import RankCandidate, match_iteration_lemmas, seed_name
from repro.domains import DOMAINS, LinCons, LinExpr

VARS = ["x", "y", "z"]
SYMS = ["m", "n"]
MONOS = [(), ("m",), ("n",), ("m", "n"), ("n", "n")]

scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(-6, 6, max_denominator=4),
    # integral Fractions, the form the representation must collapse
    st.integers(-6, 6).map(lambda k: Fraction(2 * k, 2)),
)


def canonical(value) -> bool:
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


# -- the Fraction-everywhere reference --------------------------------------------


def ref_terms(terms):
    return {k: Fraction(c) for k, c in terms.items() if c != 0}


def ref_combine(a, b, sign):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return {k: c for k, c in out.items() if c != 0}


def ref_lin_str(coeffs, const):
    """``LinExpr.__str__`` over Fraction values."""
    parts = []
    for var in sorted(coeffs):
        coeff = coeffs[var]
        if coeff == 1:
            parts.append("+ %s" % var)
        elif coeff == -1:
            parts.append("- %s" % var)
        elif coeff > 0:
            parts.append("+ %s*%s" % (coeff, var))
        else:
            parts.append("- %s*%s" % (-coeff, var))
    if const != 0 or not parts:
        parts.append("%s %s" % ("+" if const >= 0 else "-", abs(const)))
    text = " ".join(parts)
    if text.startswith("+ "):
        return text[2:]
    return "-" + text[2:] if text.startswith("- ") else text


def ref_poly_str(terms):
    """``Poly.__str__`` over Fraction values."""
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms, key=lambda m: (-len(m), m)):
        coeff = terms[mono]
        if not mono:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(mono))
        elif coeff == -1:
            parts.append("-%s" % "*".join(mono))
        else:
            parts.append("%s*%s" % (coeff, "*".join(mono)))
    return " + ".join(parts).replace("+ -", "- ")


def ref_poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


# -- LinExpr -------------------------------------------------------------------------

lin_parts = st.tuples(st.dictionaries(st.sampled_from(VARS), scalars, max_size=3), scalars)


def check_lin(expr, coeffs, const):
    assert expr.coeffs == coeffs and expr.const == const
    assert all(canonical(c) for c in expr.coeffs.values()) and canonical(expr.const)
    assert str(expr) == ref_lin_str(coeffs, const)
    assert hash(expr) == hash((tuple(sorted(coeffs.items())), const))
    for var in VARS:
        assert type(expr.coeff(var)) is Fraction and expr.coeff(var) == coeffs.get(var, 0)


@settings(max_examples=300, deadline=None)
@given(lin_parts, lin_parts, scalars, st.fixed_dictionaries({v: scalars for v in VARS}))
def test_linexpr_matches_fraction_reference(left, right, k, env):
    a, b = LinExpr(*left), LinExpr(*right)
    ra, rb = ref_terms(left[0]), ref_terms(right[0])
    ca, cb, fk = Fraction(left[1]), Fraction(right[1]), Fraction(k)
    check_lin(a, ra, ca)
    check_lin(a + b, ref_combine(ra, rb, 1), ca + cb)
    check_lin(a - b, ref_combine(ra, rb, -1), ca - cb)
    check_lin(-a, ref_combine({}, ra, -1), -ca)
    check_lin(a * k, ref_terms({v: c * fk for v, c in ra.items()}), ca * fk)
    check_lin(a + k, ra, ca + fk)
    assert (a == b) == (ra == rb and ca == cb)
    value = a.evaluate(env)
    assert type(value) is Fraction
    assert value == ca + sum(c * Fraction(env[v]) for v, c in ra.items())


# -- Poly ----------------------------------------------------------------------------

poly_terms = st.dictionaries(st.sampled_from(MONOS), scalars, max_size=4)


def check_poly(poly, terms):
    assert poly.terms == terms
    assert all(canonical(c) for c in poly.terms.values())
    assert str(poly) == ref_poly_str(terms)
    assert hash(poly) == hash(tuple(sorted(terms.items())))
    assert type(poly.const_value) is Fraction and poly.const_value == terms.get((), 0)


def ref_dominates(a, b, nonneg):
    return all(
        c > 0 and all(sym in nonneg for sym in mono)
        for mono, c in ref_combine(a, b, -1).items()
    )


@settings(max_examples=300, deadline=None)
@given(
    poly_terms,
    poly_terms,
    scalars,
    st.sets(st.sampled_from(SYMS)),
    st.fixed_dictionaries({s: scalars for s in SYMS}),
)
def test_poly_matches_fraction_reference(left, right, k, nonneg, env):
    p, q = Poly(left), Poly(right)
    rp, rq = ref_terms(left), ref_terms(right)
    check_poly(p, rp)
    check_poly(p + q, ref_combine(rp, rq, 1))
    check_poly(p - q, ref_combine(rp, rq, -1))
    check_poly(p * q, ref_poly_mul(rp, rq))
    check_poly(p * k, ref_terms({m: c * Fraction(k) for m, c in rp.items()}))
    assert (p == q) == (rp == rq)
    nonneg = frozenset(nonneg)
    assert p.dominates(q, nonneg) == ref_dominates(rp, rq, nonneg)
    assert q.dominates(p, nonneg) == ref_dominates(rq, rp, nonneg)
    value = p.evaluate(env)
    assert type(value) is Fraction
    expect = Fraction(0)
    for mono, c in rp.items():
        for sym in mono:
            c *= Fraction(env[sym])
        expect += c
    assert value == expect


# -- no float on the division paths -------------------------------------------------

x, y = LinExpr.var("x"), LinExpr.var("y")


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize(
    "cons, lo, hi",
    [
        (LinCons.le(2 * x, 3), None, Fraction(3, 2)),
        (LinCons.ge(3 * x, 2), Fraction(2, 3), None),
        (LinCons.le(2 * x + y, 3), None, Fraction(3, 2)),  # with y >= 0
    ],
)
def test_non_unit_guards_give_exact_bounds(domain, cons, lo, hi):
    state = DOMAINS[domain].top(["x", "y"]).guard(LinCons.ge(y, 0)).guard(cons)
    got_lo, got_hi = state.bounds_of(x)
    for got, want in ((got_lo, lo), (got_hi, hi)):
        assert not isinstance(got, float)
        if want is not None:
            assert got == want and type(got) is Fraction


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_integral_quotient_is_not_float(domain):
    state = DOMAINS[domain].top(["x"]).guard(LinCons.le(2 * x, 4))
    _, hi = state.bounds_of(x)
    assert hi == 2 and not isinstance(hi, float)


def _step_two_transition():
    """``i`` advances by exactly 2 per iteration; ``n`` is invariant."""
    state = DOMAINS["zone"].top()
    step = LinExpr.var("i") - LinExpr.var(seed_name("i"))
    state = state.guard(LinCons.eq(step, 2))
    return state.guard(LinCons.eq(LinExpr.var("n") - LinExpr.var(seed_name("n")), 0))


@pytest.mark.parametrize("n", [9, 10, 2**60 + 1, 2**60 + 2])
def test_constant_rank_ceil_is_exact_for_step_two(n):
    """``i = 0; while (i < n) i += 2`` with a constant ``n`` runs exactly
    ceil(n/2) times over odd and even ranges; past 2^53 a float quotient
    would round the odd case down."""
    rank = RankCandidate(rank=LinExpr.var("n") - LinExpr.var("i") - 1, branch_node=(1, -1))
    entry = DOMAINS["zone"].top().assign("i", LinExpr.constant(0))
    entry = entry.assign("n", LinExpr.constant(n))
    bound = match_iteration_lemmas(
        candidates=[rank],
        transition=_step_two_transition(),
        entry_state=entry,
        seeded_vars={"i", "n"},
        symbols=[],
        single_exit_branch=rank.branch_node,
        inner_loops_finite=True,
    )
    assert bound.exact
    assert bound.upper.const_value == (n + 1) // 2
    assert bound.lower.const_value == (n + 1) // 2
