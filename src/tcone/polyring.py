"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as finite maps from exponent vectors to nonzero
``Fraction`` coefficients, relative to a fixed :class:`VariableContext`.
All values are immutable and every operation is a pure function, so
polynomials may be shared freely across threads.

Monomial orders: lex, grlex, grevlex, and a block order that eliminates
the first variable and falls back to grevlex on the rest.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add as _add, le as _le, neg as _neg, sub as _sub
from typing import Iterable, Mapping, NamedTuple

# The coefficient field.  Fraction already guarantees lowest terms and a
# positive denominator, which is exactly the canonical form we need.
Rational = Fraction

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ContextMismatchError(ValueError):
    """Operands built over different variable contexts."""


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial (degree, leading data)."""


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


class Monomial:
    """A power product, represented by its exponent vector."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial({self.exponents})"

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def times(self, other: "Monomial") -> "Monomial":
        return _mono(tuple(map(_add, self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        return all(map(_le, self.exponents, other.exponents))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller guarantees divisibility."""
        return _mono(tuple(map(_sub, self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return _mono(tuple(map(max, self.exponents, other.exponents)))


_set_exponents = Monomial.exponents.__set__


def _mono(exps: tuple[int, ...]) -> Monomial:
    """A Monomial on an exponent tuple the caller knows to be nonnegative ints.

    Skips the validation of ``Monomial(...)``; sums, differences of a
    divisor and maxima of valid exponent vectors never need it.
    """
    m = object.__new__(Monomial)
    _set_exponents(m, exps)
    return m


def _lex_key(e: tuple[int, ...]) -> tuple[int, ...]:
    return e


def _grlex_key(e: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(e),) + e


def _grevlex_key(e: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(e),) + tuple(map(_neg, reversed(e)))


def _elim1_key(e: tuple[int, ...]) -> tuple[int, ...]:
    rest = e[1:]
    return (e[0], sum(rest)) + tuple(map(_neg, reversed(rest)))


_EXPONENT_KEYS = {"lex": _lex_key, "grlex": _grlex_key,
                  "grevlex": _grevlex_key, "elim1": _elim1_key}


class MonomialOrder(NamedTuple):
    """A total, multiplicative order on monomials of one context.

    ``kind`` is one of ``lex``, ``grlex``, ``grevlex`` or ``elim1``
    (first variable eliminated, grevlex on the remainder).  grlex and
    grevlex compare total degree first.
    """

    kind: str

    @property
    def exponent_key(self):
        """The order's key on exponent tuples: a flat tuple of ints that
        sorts like the monomial among monomials of its context."""
        try:
            return _EXPONENT_KEYS[self.kind]
        except KeyError:
            raise ValueError(f"unknown order kind {self.kind!r}") from None

    def key(self, m: Monomial) -> tuple[int, ...]:
        """The exponent key of m."""
        return self.exponent_key(m.exponents)

    @property
    def degree_compatible(self) -> bool:
        return self.kind in ("grlex", "grevlex")

    def compare(self, a: Monomial, b: Monomial) -> int:
        """-1, 0 or 1 as a is less than, equal to or greater than b."""
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")
GREVLEX = MonomialOrder("grevlex")
ELIM_FIRST = MonomialOrder("elim1")

ORDERS_BY_NAME = {"lex": LEX, "grlex": GRLEX, "grevlex": GREVLEX}


class Polynomial:
    """A sparse polynomial with exact rational coefficients."""

    __slots__ = ("context", "terms")

    def __init__(self, context: VariableContext,
                 terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if len(m.exponents) != context.n:
                raise ContextMismatchError(
                    f"monomial arity {len(m.exponents)} in {context.n}-variable context")
            c = Fraction(c)
            if c != 0:
                clean[m] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.degree == 0 for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree for m in self.terms}
        return len(degrees) <= 1

    def monomials(self) -> list[Monomial]:
        return list(self.terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

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
        for m in sorted(self.terms, key=GREVLEX.key, reverse=True):
            parts.append(f"{self.terms[m]}*{m.exponents}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic ---------------------------------------------------

    def _check_context(self, other: "Polynomial"):
        if self.context != other.context:
            raise ContextMismatchError(
                f"contexts differ: {self.context.names} vs {other.context.names}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_context(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, Fraction(0)) + c
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
        return _raw(self.context, res)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _raw(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial(self.context)
            return _raw(self.context, {m: a * c for m, a in self.terms.items()})
        other = self._coerce(other)
        self._check_context(other)
        res: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.times(m2)
                s = res.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    res.pop(m, None)
                else:
                    res[m] = s
        return _raw(self.context, res)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = constant(self.context, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return constant(self.context, other)
        return NotImplemented


def _raw(context: VariableContext, terms: dict[Monomial, Fraction]) -> Polynomial:
    """Build from an already-clean term dict (no zero coefficients)."""
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "context", context)
    object.__setattr__(p, "terms", terms)
    return p


# -- constructors ------------------------------------------------------


def zero(context: VariableContext) -> Polynomial:
    return Polynomial(context)


def constant(context: VariableContext, value: Rational) -> Polynomial:
    c = Fraction(value)
    if c == 0:
        return Polynomial(context)
    return _raw(context, {Monomial((0,) * context.n): c})


def variable(context: VariableContext, name: str) -> Polynomial:
    i = context.index(name)
    exps = [0] * context.n
    exps[i] = 1
    return _raw(context, {Monomial(exps): Fraction(1)})


def variables(context: VariableContext) -> list[Polynomial]:
    """One generator polynomial per context variable, in context order."""
    return [variable(context, name) for name in context.names]


# -- core operations ---------------------------------------------------


def differentiate(f: Polynomial, var_index: int) -> Polynomial:
    """Formal partial derivative with respect to the var_index-th variable."""
    if not 0 <= var_index < f.context.n:
        raise IndexError(f"variable index {var_index} out of range")
    res: dict[Monomial, Fraction] = {}
    for m, c in f.terms.items():
        e = m.exponents[var_index]
        if e == 0:
            continue
        exps = list(m.exponents)
        exps[var_index] = e - 1
        res[Monomial(exps)] = c * e
    return _raw(f.context, res)


def total_degree(f: Polynomial) -> int:
    if f.is_zero():
        raise ZeroPolynomialError("degree of the zero polynomial is undefined")
    return max(m.degree for m in f.terms)


def leading_form(f: Polynomial) -> Polynomial:
    """The homogeneous component of highest degree."""
    d = total_degree(f)
    return _raw(f.context, {m: c for m, c in f.terms.items() if m.degree == d})


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Monomial, Rational]:
    if f.is_zero():
        raise ZeroPolynomialError("leading term of the zero polynomial is undefined")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def leading_monomial(f: Polynomial, order: MonomialOrder) -> Monomial:
    return leading_term(f, order)[0]


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
    for m, c in f.terms.items():
        v = c
        for x, e in zip(point, m.exponents):
            if e:
                v *= x ** e
        total += v
    return total
