"""Linear expressions and constraints over named variables.

The shared constraint language of every numeric abstract domain in
:mod:`repro.domains` and of the bound-lemma matching: affine expressions
with rational coefficients, and constraints ``e <= 0`` / ``e == 0`` (with
``e < 0`` normalized to ``e <= -1`` since all program values are
integers).

Numeric representation: a coefficient is stored as a plain ``int`` when
it is integral and as a ``Fraction`` only otherwise (see :func:`exact`).
Almost every coefficient a program produces is integral, and ``int``
arithmetic is an order of magnitude cheaper than ``Fraction``
arithmetic; mixed ``int``/``Fraction`` sums, products, comparisons and
hashes are exact, so the two forms of one value are interchangeable
everywhere.  Divisions go through ``Fraction`` (``int / int`` would be a
float), and the value-returning queries ``coeff``/``evaluate`` hand out
``Fraction`` as before.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Coeff = Union[int, Fraction]


def exact(value) -> Coeff:
    """``value`` in the canonical coefficient form: an ``int`` when
    integral, else a ``Fraction`` (any other number is converted
    exactly)."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class LinExpr:
    """An affine expression ``sum(coeffs[v] * v) + const``.

    Immutable; arithmetic operators build new expressions.  Variables are
    plain strings (register names, length variables like ``a#len``, or
    seed variables like ``i@seed``).
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Mapping[str, Coeff]] = None, const: Coeff = 0):
        items = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if coeff:
                    items[var] = exact(coeff)
        self.coeffs: Dict[str, Coeff] = items
        self.const: Coeff = exact(const)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr({name: 1})

    @staticmethod
    def constant(value: Coeff) -> "LinExpr":
        return LinExpr(None, value)

    # -- queries ----------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, var: str) -> Fraction:
        return Fraction(self.coeffs.get(var, 0))

    def evaluate(self, env: Mapping[str, Coeff]) -> Fraction:
        total = self.const
        for var, coeff in self.coeffs.items():
            total += coeff * exact(env[var])
        return Fraction(total)

    def substitute(self, var: str, replacement: "LinExpr") -> "LinExpr":
        """Replace ``var`` by ``replacement``."""
        if var not in self.coeffs:
            return self
        coeff = self.coeffs[var]
        rest = {v: c for v, c in self.coeffs.items() if v != var}
        return LinExpr(rest, self.const) + replacement * coeff

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        return LinExpr(
            {mapping.get(v, v): c for v, c in self.coeffs.items()}, self.const
        )

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const + other)
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    def __radd__(self, other: Coeff) -> "LinExpr":
        return self + other

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const - other)
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "LinExpr":
        return (-self) + other

    def __mul__(self, factor: Coeff) -> "LinExpr":
        f = exact(factor)
        return LinExpr({v: c * f for v, c in self.coeffs.items()}, self.const * f)

    def __rmul__(self, factor: Coeff) -> "LinExpr":
        return self * factor

    # -- equality / hashing -----------------------------------------------------------

    def _key(self) -> Tuple:
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinExpr) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        parts = []
        for var in sorted(self.coeffs):
            coeff = self.coeffs[var]
            if coeff == 1:
                parts.append("+ %s" % var)
            elif coeff == -1:
                parts.append("- %s" % var)
            elif coeff > 0:
                parts.append("+ %s*%s" % (coeff, var))
            else:
                parts.append("- %s*%s" % (-coeff, var))
        if self.const != 0 or not parts:
            sign = "+" if self.const >= 0 else "-"
            parts.append("%s %s" % (sign, abs(self.const)))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text

    def __repr__(self) -> str:
        return "LinExpr(%s)" % self


class RelOp(enum.Enum):
    LE = "<="
    EQ = "=="


class LinCons:
    """A linear constraint ``expr <= 0`` or ``expr == 0``."""

    __slots__ = ("expr", "op")

    def __init__(self, expr: LinExpr, op: RelOp):
        self.expr = expr
        self.op = op

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def le(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        """``lhs <= rhs``."""
        return LinCons(lhs - rhs, RelOp.LE)

    @staticmethod
    def ge(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.constant(rhs)
        return LinCons(rhs_expr - lhs, RelOp.LE)

    @staticmethod
    def lt(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        """``lhs < rhs`` over integers: ``lhs <= rhs - 1``."""
        return LinCons(lhs - rhs + 1, RelOp.LE)

    @staticmethod
    def gt(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.constant(rhs)
        return LinCons(rhs_expr - lhs + 1, RelOp.LE)

    @staticmethod
    def eq(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        return LinCons(lhs - rhs, RelOp.EQ)

    # -- queries --------------------------------------------------------------------

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def holds(self, env: Mapping[str, Coeff]) -> bool:
        value = self.expr.evaluate(env)
        return value == 0 if self.op is RelOp.EQ else value <= 0

    def negate(self) -> "LinCons":
        """Integer negation of an inequality; equalities cannot be negated
        into a single constraint (raises)."""
        if self.op is RelOp.EQ:
            raise ValueError("cannot negate an equality into one constraint")
        # not(e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0
        return LinCons(-self.expr + 1, RelOp.LE)

    def rename(self, mapping: Mapping[str, str]) -> "LinCons":
        return LinCons(self.expr.rename(mapping), self.op)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinCons)
            and self.op == other.op
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.op))

    def __str__(self) -> str:
        return "%s %s 0" % (self.expr, self.op.value)

    def __repr__(self) -> str:
        return "LinCons(%s)" % self


def conjunction_holds(constraints: Iterable[LinCons], env: Mapping[str, Coeff]) -> bool:
    return all(c.holds(env) for c in constraints)
