"""Exact sparse multivariate polynomial arithmetic over the rationals.

A monomial is its exponent tuple: one nonnegative ``int`` per variable
of a fixed :class:`VariableContext`, in context order, so x^2*z in
(x, y, z) is ``(2, 0, 1)``.  A polynomial maps exponent tuples to
nonzero ``Fraction`` coefficients.  All values are immutable and every
operation is a pure function, so polynomials may be shared freely
across threads.

Monomial orders: lex, grlex, grevlex, and a block order that eliminates
the first variable and falls back to grevlex on the rest.  Each is
defined once, by its negated key, which sorts exponent tuples largest
first; ``key``, which sorts them ascending, is that key negated back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add as _add, index as _index, neg as _neg
from typing import Iterable, Mapping, NamedTuple

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ContextMismatchError(ValueError):
    """Operands built over different variable contexts."""


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial (degree, leading data)."""


class ZeroIdealError(ValueError):
    """All supplied generators are zero."""


class VariableContext:
    """An ordered list of distinct variable names fixing the ambient ring.

    Immutable; equal and hashed by its names.
    """

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("a context needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for name in names:
            # Underscore-initial names are reserved for internally generated
            # fresh variables; the ideal-file grammar only admits the
            # letter-initial subset.
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError("VariableContext is immutable")

    def __eq__(self, other):
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableContext({self.names})"

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


# The one definition of each order, in the form the division heap needs:
# sorting by it (or a min-heap on it) lists monomials largest first.
# ``MonomialOrder.key`` negates it to sort them ascending.
_NEGATED_KEYS = {
    "lex": lambda e: tuple(map(_neg, e)),
    "grlex": lambda e: (-sum(e),) + tuple(map(_neg, e)),
    "grevlex": lambda e: (-sum(e),) + e[::-1],
    "elim1": lambda e: (-e[0], e[0] - sum(e)) + e[:0:-1],
}


class MonomialOrder(NamedTuple):
    """A total, multiplicative order on monomials of one context.

    ``kind`` is one of ``lex``, ``grlex``, ``grevlex`` or ``elim1``
    (first variable eliminated, grevlex on the remainder).  grlex and
    grevlex compare total degree first.
    """

    kind: str

    @property
    def negated_key(self):
        """The order's negated key on exponent tuples: a flat tuple of ints
        that sorts the monomials of one context largest first."""
        try:
            return _NEGATED_KEYS[self.kind]
        except KeyError:
            raise ValueError(f"unknown order kind {self.kind!r}") from None

    def key(self, e: tuple[int, ...]) -> tuple[int, ...]:
        """The exponent key of the exponent tuple e, the negated key with
        every entry negated: it sorts like the monomial among monomials of
        its context."""
        return tuple(map(_neg, self.negated_key(e)))

    @property
    def degree_compatible(self) -> bool:
        return self.kind in ("grlex", "grevlex")


LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")
GREVLEX = MonomialOrder("grevlex")
ELIM_FIRST = MonomialOrder("elim1")

ORDERS_BY_NAME = {"lex": LEX, "grlex": GRLEX, "grevlex": GREVLEX}


class Polynomial:
    """A sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero Fractions.  The constructor
    checks its input: each key must have the context's arity and
    nonnegative integer entries.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: VariableContext,
                 terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            try:
                e = tuple(map(_index, e))
            except TypeError:
                raise ValueError(f"non-integer exponent in {e!r}") from None
            if len(e) != context.n:
                raise ContextMismatchError(
                    f"monomial arity {len(e)} in {context.n}-variable context")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            c = Fraction(c)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.context == other.context
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for e in sorted(self.terms, key=GREVLEX.key, reverse=True):
            parts.append(f"{self.terms[e]}*{e}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _raw(self.context, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.context, _neg_terms(self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _raw(self.context, _sub_into(dict(self.terms), other.terms))

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _raw(self.context, _mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        one = {(0,) * self.context.n: Fraction(1)}
        return _raw(self.context, _pow_terms(self.terms, exponent, one))

    def _coerce(self, other) -> "Polynomial":
        """other as a Polynomial in this context, or else NotImplemented,
        which each operator returns so that Python raises TypeError."""
        if isinstance(other, Polynomial):
            if self.context != other.context:
                raise ContextMismatchError(
                    f"contexts differ: {self.context.names} vs {other.context.names}")
            return other
        if isinstance(other, (int, Fraction)):
            return constant(self.context, other)
        return NotImplemented


def _raw(context: VariableContext, terms: dict[tuple[int, ...], Fraction]) -> Polynomial:
    """Build from an already-clean term dict (no zero coefficients)."""
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "context", context)
    object.__setattr__(p, "terms", terms)
    return p


# -- term arithmetic ---------------------------------------------------
# The loops behind Polynomial's operators, on plain {exponent tuple:
# coefficient} dicts whose coefficients are ints or Fractions; the parser
# computes on them too.  Each returns a new dict, except _add_into and
# _sub_into, which add into and subtract from their first argument.
# Insertion order is part of the result (verify sample sums the parsed
# polynomial's terms in it): a sum keeps its first operand's terms in
# place, appends the second's new monomials and drops a monomial whose
# coefficient cancels.


def _add_into(res: dict, b: dict) -> dict:
    for m, c in b.items():
        s = res.get(m, 0) + c
        if s:
            res[m] = s
        else:
            res.pop(m, None)
    return res


def _sub_into(res: dict, b: dict) -> dict:
    """_add_into(res, _neg_terms(b)), without the negated copy."""
    for m, c in b.items():
        s = res.get(m, 0) - c
        if s:
            res[m] = s
        else:
            res.pop(m, None)
    return res


def _neg_terms(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _mul_terms(a: dict, b: dict) -> dict:
    """The product, accumulated pair by pair with a's terms outermost."""
    res: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(_add, m1, m2))
            s = res.get(m, 0) + c1 * c2
            if s:
                res[m] = s
            else:
                res.pop(m, None)
    return res


def _pow_terms(a: dict, exponent: int, one: dict, mul=_mul_terms) -> dict:
    """a ** exponent by binary powering from ``one``, the unit's term dict:
    the result is multiplied by the base at each set bit, and the base is
    squared before every bit but the last.  Every product is ``mul(x, y)``."""
    result, base = one, a
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        if exponent > 1:
            base = mul(base, base)
        exponent >>= 1
    return result


def _pow_products(exponent: int) -> int:
    """The number of products _pow_terms runs for this exponent: one for
    each set bit and one squaring for each bit after the first."""
    return exponent.bit_length() - 1 + exponent.bit_count() if exponent else 0


# -- constructors ------------------------------------------------------


def zero(context: VariableContext) -> Polynomial:
    return Polynomial(context)


def constant(context: VariableContext, value: Fraction | int) -> Polynomial:
    c = Fraction(value)
    if c == 0:
        return Polynomial(context)
    return _raw(context, {(0,) * context.n: c})


def variable(context: VariableContext, name: str) -> Polynomial:
    i = context.index(name)
    return _raw(context, {tuple(int(k == i) for k in range(context.n)): Fraction(1)})


def variables(context: VariableContext) -> list[Polynomial]:
    """One generator polynomial per context variable, in context order."""
    return [variable(context, name) for name in context.names]


def _ideal_generators(F: Iterable[Polynomial]) -> tuple[list[Polynomial], VariableContext]:
    """The one rule for an ideal's generator list: F's nonzero polynomials,
    in order, and their one context.  An empty or all-zero F is the zero
    ideal (ZeroIdealError); the rest must share one ring
    (ContextMismatchError)."""
    gens = [f for f in F if not f.is_zero()]
    if not gens:
        raise ZeroIdealError("zero ideal")
    ctx = gens[0].context
    if any(g.context != ctx for g in gens):
        raise ContextMismatchError("generators from different contexts")
    return gens, ctx


# -- core operations ---------------------------------------------------


def differentiate(f: Polynomial, var_index: int) -> Polynomial:
    """Formal partial derivative with respect to the var_index-th variable."""
    if not 0 <= var_index < f.context.n:
        raise IndexError(f"variable index {var_index} out of range")
    i = var_index
    return _raw(f.context, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                            for e, c in f.terms.items() if e[i]})


def total_degree(f: Polynomial) -> int:
    if f.is_zero():
        raise ZeroPolynomialError("degree of the zero polynomial is undefined")
    return max(map(sum, f.terms))


def leading_form(f: Polynomial) -> Polynomial:
    """The homogeneous component of highest degree."""
    d = total_degree(f)
    return _raw(f.context, {e: c for e, c in f.terms.items() if sum(e) == d})


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[tuple[int, ...], Fraction]:
    """(exponent tuple, coefficient) of the largest term under the order."""
    if f.is_zero():
        raise ZeroPolynomialError("leading term of the zero polynomial is undefined")
    e = min(f.terms, key=order.negated_key)
    return e, f.terms[e]


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    _, c = leading_term(f, order)
    if c == 1:
        return f
    inv = 1 / c
    return _raw(f.context, {m: a * inv for m, a in f.terms.items()})


def evaluate_exact(f: Polynomial, point) -> Fraction:
    point = [Fraction(x) for x in point]
    if len(point) != f.context.n:
        raise ValueError(f"point has {len(point)} entries, expected {f.context.n}")
    total = Fraction(0)
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        total += v
    return total
