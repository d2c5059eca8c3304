"""Multivariate division, Buchberger's algorithm and ideal predicates.

Everything here is deterministic: the division algorithm reduces the
largest workspace term first and tries divisors in list order, Buchberger
uses the normal selection strategy (minimal lcm degree, ties broken by
pair index) through a heap keyed on (lcm degree, i, j), and bases are
returned in the reduced canonical form (monic, inter-reduced, sorted
ascending by leading monomial, each element's terms descending) that is
unique per ideal and order, term order included.

Reduction runs on integer numerators over plain exponent tuples.  Each
divisor enters as a reducer (leading exponents, leading coefficient,
tail as ((exponents, coefficient), ...)): the divisor times the rational
that makes its coefficients coprime integers, the lead positive.  The
workspace is rescaled instead of divided, and drained through a heap on
the order's negated key.  Which divisor reduces a term depends only on
monomials, and a multiple of a divisor cancels a term just as the
divisor does, so the reductions are those of division over the
rationals, in the same order, and every remainder and basis is
identical to the rational one, term for term.  A Basis checks its
generators once, when built: at least one, none zero, one context.
``normal_form`` and ``reduce_basis`` take only a Basis and divide by its
reducers, and cone membership evaluates them at integer points
(``_vanish``).  ``buchberger`` stays on reducers from its inputs to its
final remainders, the only elements made Fractions: its working basis
holds reducers and no generators.  It stops with a BasisLimitError past
``_MAX_BASIS`` elements or ``_DEADLINE_S`` seconds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from time import monotonic
from typing import Sequence

from .polyring import (
    ContextMismatchError,
    MonomialOrder,
    Polynomial,
    VariableContext,
    ZeroIdealError,
    ELIM_FIRST,
    constant,
    leading_term,
    variable,
    _ideal_generators,
    _raw,
)

# Far above every basis the tests and benchmarks build, and above
# katsura-6, which peaks at 43 elements and takes about 3 s.  A basis of
# n elements has up to n^2/2 pairs, so the size cap also bounds those.
_MAX_BASIS = 1000
_DEADLINE_S = 600.0


class BasisLimitError(ValueError):
    """buchberger passed _MAX_BASIS basis elements or _DEADLINE_S seconds."""


def _overdue():
    raise BasisLimitError(f"Groebner basis not done after {_DEADLINE_S:g} s")


class Basis:
    """An ordered generating set under a fixed monomial order.

    Immutable; equal and hashed by (generators, order).  Built from at
    least one generator, none zero, all of one context, which it keeps
    as ``context``.  buchberger's working basis, made by ``_working``,
    holds only its context, reducers and order, and has no generators.
    """

    def __init__(self, generators: tuple[Polynomial, ...], order: MonomialOrder):
        if any(g.is_zero() for g in generators):
            raise ZeroIdealError("zero divisor polynomial")
        # With no zero to drop, the generator rule refuses () and mixed contexts.
        self.__dict__.update(generators=generators, order=order,
                             context=_ideal_generators(generators)[1])

    @classmethod
    def _working(cls, context: VariableContext, reducers: list, order: MonomialOrder) -> Basis:
        basis = cls.__new__(cls)
        basis.__dict__.update(context=context, _reducers=reducers, order=order)
        return basis

    def __setattr__(self, name, value):
        raise AttributeError("Basis is immutable")

    def __eq__(self, other):
        return isinstance(other, Basis) and (
            (self.generators, self.order) == (other.generators, other.order))

    def __hash__(self):
        return hash((self.generators, self.order))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(vars(self).get("generators") or self._reducers)

    @cached_property
    def _reducers(self) -> list[tuple]:
        """The generators as reducers, built on the first division by this basis."""
        return _reducers(self.generators, self.order)


def normal_form(f: Polynomial, basis: Basis) -> Polynomial:
    """Remainder of f on division by the generators of basis, in their order.

    No monomial of the result is divisible by a leading monomial of a
    generator, and f minus the result lies in the ideal they generate.
    f must share the basis's context.
    """
    if f.context != basis.context:
        raise ContextMismatchError("polynomial and basis from different contexts")
    p, d = _integer_terms(f)
    remainder, scale = _reduce(p, basis._reducers, basis.order.negated_key)
    d *= scale
    return _raw(f.context, {e: Fraction(c, d) for e, c in remainder.items()})


def _integer_terms(f: Polynomial) -> tuple[dict[tuple[int, ...], int], int]:
    """(d*f as exponents -> int, d) for d > 0 the least common denominator."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}, d


def _reducer(p: dict[tuple[int, ...], int], lead: tuple[int, ...]) -> tuple:
    """The reducer of the nonzero integer terms p with leading exponents
    lead: p over the gcd of its coefficients, signed to make the lead positive."""
    g = gcd(*p.values()) if p[lead] > 0 else -gcd(*p.values())
    return lead, p[lead] // g, tuple((e, c // g) for e, c in p.items() if e is not lead)


def _reducers(gens: Sequence[Polynomial], order: MonomialOrder) -> list[tuple]:
    """The reducers of nonzero polynomials, in their order."""
    return [_reducer(_integer_terms(g)[0], leading_term(g, order)[0]) for g in gens]


def _terms(r: tuple) -> dict[tuple[int, ...], int]:
    """The integer terms of the reducer r, its lead first."""
    return {r[0]: r[1], **dict(r[2])}


def _vanish(reducers, w: Sequence[int], d: int) -> bool:
    """Whether every reducer vanishes at the rational point w / d.

    w holds ints and d > 0.  A reducer of top degree deg sums
    c * w^e * d^(deg - |e|) over its terms c*x^e in ints: that sum is
    d^deg times the reducer at w / d, a nonzero rational multiple of its
    polynomial there, so it is zero exactly when the polynomial is.  On
    a homogeneous reducer every power of d is d^0.  Each power w_i^k is
    taken once per call; the walk stops at the first nonzero sum.
    """
    powers = [[1, x] for x in w]  # powers[i][k] = w_i^k, grown on demand
    for lead, lc, tail in reducers:
        terms = ((lead, lc),) + tail
        deg = max(sum(e) for e, _ in terms) if d != 1 else 0
        total = 0
        for e, c in terms:
            for k, pw in zip(e, powers):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1])
                    c *= pw[k]
            if d != 1 and (s := deg - sum(e)):
                c *= d ** s
            total += c
        if total:
            return False
    return True


def _monic(ctx: VariableContext, p: dict[tuple[int, ...], int]) -> Polynomial:
    """The integer terms p divided by the first, the leading one, in p's order."""
    lc = next(iter(p.values()))
    return _raw(ctx, {e: Fraction(c, lc) for e, c in p.items()})


def _reduce(p: dict[tuple[int, ...], int], reducers, nkey,
            deadline: float | None = None) -> tuple[dict[tuple[int, ...], int], int]:
    """Fraction-free division of the integer terms p (consumed) by the reducers.

    Returns the remainder r and a nonzero scale D such that r / D is the
    remainder of rational division, term for term and in its order,
    which is descending, so a nonzero r's first term is its leading one.
    The workspace p is drained largest term first through a min-heap on
    the negated order key nkey, computed once per monomial as it enters.  A
    term that cancels stays in p at coefficient 0 until popped, so each
    monomial has one heap entry.  Every new term is below the term m it
    reduces, so no popped monomial comes back.  When a reducer's leading
    coefficient gc does not divide the term's coefficient c, p and r are
    first multiplied by gc / gcd(c, gc), and D with them.  Past the
    monotonic-clock deadline, if one is given, the next step raises.
    """
    heap = [(nkey(e), e) for e in p]
    heapify(heap)
    remainder: dict[tuple[int, ...], int] = {}
    scale = 1
    while heap:
        m = heappop(heap)[1]
        c = p.pop(m)
        if not c:
            continue
        for gm, gc, tail in reducers:
            if all(map(le, gm, m)):
                if deadline is not None and monotonic() > deadline:
                    _overdue()
                g = gcd(c, gc)
                if g != gc:
                    s = gc // g
                    scale *= s
                    p = {e: v * s for e, v in p.items()}
                    remainder = {e: v * s for e, v in remainder.items()}
                c //= g
                q = tuple(map(sub, m, gm))
                for te, tc in tail:
                    t = tuple(map(add, te, q))
                    v = p.get(t)
                    if v is None:
                        p[t] = -c * tc
                        heappush(heap, (nkey(t), t))
                    else:
                        p[t] = v - c * tc
                break
        else:
            remainder[m] = c
    return remainder, scale


def _s_polynomial(a, b) -> dict[tuple[int, ...], int]:
    """Integer terms of a nonzero multiple of the S-polynomial of two reducers.

    gc_b*(L/lm_a)*tail_a - gc_a*(L/lm_b)*tail_b, both factors divided by
    gcd(gc_a, gc_b), with L = lcm(lm_a, lm_b); cancelled terms stay at 0.
    """
    am, ac, at = a
    bm, bc, bt = b
    l = tuple(map(max, am, bm))
    g = gcd(ac, bc)
    fa, fb = bc // g, ac // g
    qa, qb = tuple(map(sub, l, am)), tuple(map(sub, l, bm))
    p = {tuple(map(add, e, qa)): fa * c for e, c in at}
    for e, c in bt:
        t = tuple(map(add, e, qb))
        p[t] = p.get(t, 0) - fb * c
    return p


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The cancellation combination of the leading terms of f and g."""
    if f.is_zero() or g.is_zero():
        raise ZeroIdealError("s-polynomial of a zero polynomial")
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    l = tuple(map(max, fm, gm))
    return f * _raw(f.context, {tuple(map(sub, l, fm)): 1 / fc}) \
        - g * _raw(g.context, {tuple(map(sub, l, gm)): 1 / gc})


def _interreduced(R: list, nkey, deadline: float) -> list:
    """The reducers R after interreduction, the first step of
    GROEBNERNEWS2 (Becker & Weispfenning 1993, p. 203).

    Each pass reduces every element by the ones before it and drops the
    zeros; passes repeat until one changes nothing.  An element with no
    term that an earlier lead divides is kept as it is, unreduced.
    Without this step, generators that reduce one another can make the
    coefficients of the S-polynomial remainders grow for minutes.
    """
    while True:
        passed = []
        for k, r in enumerate(R):
            terms = _terms(r)
            if not any(all(map(le, h[0], e)) for h in R[:k] for e in terms):
                passed.append(r)  # no term to reduce
                continue
            remainder, _ = _reduce(terms, R[:k], nkey, deadline)
            if remainder:
                passed.append(_reducer(remainder, next(iter(remainder))))
        if passed == R:
            return R
        R = passed


def buchberger(F: Sequence[Polynomial], order: MonomialOrder) -> Basis:
    """Reduced Groebner basis of the ideal generated by F.

    F is read by polyring's generator rule: zero generators are dropped,
    and an all-zero F or mixed rings are refused.  A nonzero constant
    anywhere collapses the basis to {1}.  Pairs are selected by the
    normal strategy: a heap pops the pair of minimal lcm degree, ties
    broken by the pair index (i, j).  The key is computed once per pair,
    and a new pair always carries the newest index, so the heap pops
    pairs in the order of a scan for the minimum.  Pairs
    are pruned with the coprime-leading-monomial and chain criteria, so
    the output is a deterministic function of the input list.  Each
    input becomes a reducer once, and each S-polynomial remainder joins
    the basis as one.  Raises BasisLimitError past _MAX_BASIS elements
    or _DEADLINE_S seconds, checked at each pair and reduction step.
    """
    gens, ctx = _ideal_generators(F)
    deadline = monotonic() + _DEADLINE_S
    nkey = order.negated_key
    R = _interreduced(_reducers(gens, order), nkey, deadline)
    if any(not any(r[0]) for r in R):
        return Basis((constant(ctx, 1),), order)
    lm = [r[0] for r in R]
    pending: set[tuple[int, int]] = {(i, j) for j in range(len(R)) for i in range(j)}
    queue = [(sum(map(max, lm[i], lm[j])), i, j) for i, j in pending]
    heapify(queue)

    def treated(i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) not in pending

    while queue:
        if monotonic() > deadline:
            _overdue()
        _, i, j = heappop(queue)
        pending.remove((i, j))
        if not any(map(min, lm[i], lm[j])):  # coprime leading monomials
            continue
        l = tuple(map(max, lm[i], lm[j]))
        if any(k != i and k != j and all(map(le, lm[k], l))
               and treated(i, k) and treated(j, k)
               for k in range(len(R))):
            continue
        r, _ = _reduce(_s_polynomial(R[i], R[j]), R, nkey, deadline)
        if not r:
            continue
        lead = next(iter(r))
        if not any(lead):
            return Basis((constant(ctx, 1),), order)
        if len(R) == _MAX_BASIS:
            raise BasisLimitError(f"Groebner basis passed {_MAX_BASIS} elements")
        R.append(_reducer(r, lead))
        lm.append(lead)
        new = len(R) - 1
        for k in range(new):
            pending.add((k, new))
            heappush(queue, (sum(map(max, lm[k], lead)), k, new))
    return reduce_basis(Basis._working(ctx, R, order))


def reduce_basis(basis: Basis) -> Basis:
    """Canonical reduced form of a Groebner basis under its order.

    Drops generators whose leading monomial is divisible by another's,
    tail-reduces each of the rest by the smaller ones (a larger leading
    monomial divides no smaller term), makes each remainder monic, its
    terms descending, and sorts ascending by leading monomial.
    """
    key = basis.order.key
    R: list[tuple] = []
    for r in sorted(basis._reducers, key=lambda r: key(r[0])):
        if not any(all(map(le, h[0], r[0])) for h in R):
            R.append(r)
    # The leading monomials of a minimal basis are distinct and already ascending.
    nkey = basis.order.negated_key
    return Basis(tuple(_monic(basis.context, _reduce(_terms(r), R[:k], nkey)[0])
                       for k, r in enumerate(R)), basis.order)


def ideal_member(f: Polynomial, basis: Basis) -> bool:
    """Membership of f in the ideal of basis, which must be a Groebner
    basis: whether f's normal form is zero.  f must share its context."""
    return normal_form(f, basis).is_zero()


def ideal_equal(F: Sequence[Polynomial], G: Sequence[Polynomial],
                order: MonomialOrder) -> bool:
    """Whether two generator lists present the same ideal."""
    return buchberger(F, order).generators == buchberger(G, order).generators


def _fresh_name(taken: Sequence[str], stem: str) -> str:
    name = "_" + stem
    while name in taken:
        name = "_" + name
    return name


def ideal_intersect(F: Sequence[Polynomial], G: Sequence[Polynomial]) -> list[Polynomial]:
    """Generators of the intersection of two ideals.

    Adjoins an auxiliary variable w as the first coordinate, computes a
    Groebner basis of <w*F, (1-w)*G> under the order eliminating w, and
    keeps the generators free of w.  F and G are each read by the
    generator rule, and must share one ring.
    """
    fs, gs = _ideal_generators(F)[0], _ideal_generators(G)[0]
    ctx = _ideal_generators(fs + gs)[1]
    w_name = _fresh_name(ctx.names, "w")
    ectx = VariableContext((w_name,) + ctx.names)

    def lift(p: Polynomial) -> Polynomial:
        return _raw(ectx, {(0,) + e: c for e, c in p.terms.items()})

    w = variable(ectx, w_name)
    one_minus_w = constant(ectx, 1) - w
    extended = [w * lift(f) for f in fs] + [one_minus_w * lift(g) for g in gs]
    basis = buchberger(extended, ELIM_FIRST)

    result = []
    for g in basis:
        if all(e[0] == 0 for e in g.terms):
            result.append(_raw(ctx, {e[1:]: c for e, c in g.terms.items()}))
    return result
