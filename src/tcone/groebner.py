"""Multivariate division, Buchberger's algorithm and ideal predicates.

Everything here is deterministic: the division algorithm reduces the
largest workspace term first and tries divisors in list order, Buchberger
uses the normal selection strategy (minimal lcm degree, ties broken by
pair index) through a heap keyed on (lcm degree, i, j), and bases are
returned in the reduced canonical form (monic, inter-reduced, sorted
ascending by leading monomial) that is unique per ideal and order.

Reduction runs on integer numerators over plain exponent tuples.  Each
divisor enters as a reducer (leading exponents, leading coefficient,
tail as ((exponents, coefficient), ...)): the divisor times the positive
rational that makes its coefficients coprime integers.  The workspace is
rescaled instead of divided.  Which divisor reduces a term depends only
on monomials, and a multiple of a divisor cancels a term just as the
divisor does, so the reductions are those of division over the
rationals, in the same order, and every remainder and basis is
identical to the rational one, term for term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, neg, sub
from typing import Sequence

from .polyring import (
    ContextMismatchError,
    MonomialOrder,
    Polynomial,
    VariableContext,
    ELIM_FIRST,
    constant,
    leading_term,
    monic,
    variable,
    _raw,
)


class ZeroIdealError(ValueError):
    """All supplied generators are zero."""


class Basis:
    """An ordered generating set under a fixed monomial order.

    Immutable; equal and hashed by (generators, order).
    """

    def __init__(self, generators: tuple[Polynomial, ...], order: MonomialOrder):
        self.__dict__.update(generators=generators, order=order)

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
        return len(self.generators)

    @property
    def context(self) -> VariableContext:
        return self.generators[0].context

    @cached_property
    def _reducers(self) -> list[tuple]:
        """The generators as reducers, built on the first division by this basis."""
        return _reducers(self.generators, self.order)


def _shared_context(polys: Sequence[Polynomial]) -> VariableContext:
    ctx = polys[0].context
    for p in polys[1:]:
        if p.context != ctx:
            raise ContextMismatchError("generators from different contexts")
    return ctx


def normal_form(f: Polynomial, divisors, order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of f on division by the given polynomials.

    ``divisors`` is a Basis or a sequence of nonzero polynomials (then
    ``order`` must be given).  No monomial of the result is divisible by
    a leading monomial of a divisor, and f minus the result lies in the
    ideal the divisors generate.
    """
    if isinstance(divisors, Basis):
        order = divisors.order
        gens = divisors.generators
    else:
        if order is None:
            raise ValueError("order required when divisors are a plain sequence")
        gens = tuple(divisors)
    if any(g.is_zero() for g in gens):
        raise ZeroIdealError("zero divisor polynomial")
    if gens:
        _shared_context((f,) + gens)
    reducers = divisors._reducers if isinstance(divisors, Basis) else _reducers(gens, order)
    return _normal_form(f, reducers, order.exponent_key)


def _integer_terms(f: Polynomial) -> tuple[dict[tuple[int, ...], int], int]:
    """(d*f as exponents -> int, d) for d > 0 the least common denominator."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}, d


def _reducer(p: dict[tuple[int, ...], int], key) -> tuple:
    """The reducer of the nonzero integer terms p under the exponent key."""
    lead = max(p, key=key)
    g = gcd(*p.values())
    return lead, p[lead] // g, tuple((e, c // g) for e, c in p.items() if e is not lead)


def _reducers(gens: Sequence[Polynomial], order: MonomialOrder) -> list[tuple]:
    """The reducers of nonzero polynomials, in their order."""
    key = order.exponent_key
    return [_reducer(_integer_terms(g)[0], key) for g in gens]


def _reduce(p: dict[tuple[int, ...], int], reducers, key) -> tuple[dict[tuple[int, ...], int], int]:
    """Fraction-free division of the integer terms p (consumed) by the reducers.

    Returns the remainder r and a nonzero scale D such that r / D is the
    remainder of rational division, term for term and in its order.
    The workspace p is drained largest term first through a max-heap on
    the negated order key, computed once per monomial as it enters.  A
    term that cancels stays in p at coefficient 0 until popped, so each
    monomial has one heap entry.  Every new term is below the term m it
    reduces, so no popped monomial comes back.  When a reducer's leading
    coefficient gc does not divide the term's coefficient c, p and r are
    first multiplied by gc / gcd(c, gc), and D with them.
    """
    heap = [(tuple(map(neg, key(e))), e) for e in p]
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
                        heappush(heap, (tuple(map(neg, key(t))), t))
                    else:
                        p[t] = v - c * tc
                break
        else:
            remainder[m] = c
    return remainder, scale


def _normal_form(f: Polynomial, reducers, key) -> Polynomial:
    """normal_form of f by divisors already made reducers."""
    p, d = _integer_terms(f)
    remainder, scale = _reduce(p, reducers, key)
    d *= scale
    return _raw(f.context, {e: Fraction(c, d) for e, c in remainder.items()})


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


def _interreduced(G: list[Polynomial], order: MonomialOrder) -> tuple[list, list]:
    """G and its reducers after interreduction, the first step of GROEBNERNEWS2
    (Becker & Weispfenning 1993, p. 203).

    Each pass reduces every generator by the ones before it and drops the
    zeros, on the integer reducers; passes repeat until one changes
    nothing.  A changed generator is made monic at the end, with its
    terms in the remainder's order; one that no pass changes is kept as
    it is, terms in its own order, which the numeric layer sums in.
    Without this step, generators that reduce one another can make the
    coefficients of the S-polynomial remainders grow for minutes.
    """
    key = order.exponent_key
    kept = list(zip(G, _reducers(G, order)))  # (generator, or None once changed; reducer)
    while True:
        before = [r for _, r in kept]
        passed = []
        for k, (g, r) in enumerate(kept):
            lead, lc, tail = r
            if not any(all(map(le, h[0], e)) for h in before[:k] for e in (lead, *dict(tail))):
                passed.append((g, r))  # no term to reduce
                continue
            remainder, _ = _reduce({lead: lc, **dict(tail)}, before[:k], key)
            if remainder:
                passed.append((None, _reducer(remainder, key)))
        if passed == kept:
            break
        kept = passed

    def polynomial(g, r):  # a changed generator made monic, terms in the reducer's order
        if g is not None:
            return g
        lead, lc, tail = r
        return _raw(G[0].context, {e: Fraction(c, lc) for e, c in ((lead, lc),) + tail})

    return [polynomial(g, r) for g, r in kept], [r for _, r in kept]


def buchberger(F: Sequence[Polynomial], order: MonomialOrder) -> Basis:
    """Reduced Groebner basis of the ideal generated by F.

    Zero generators are skipped; an all-zero input is rejected.  A
    nonzero constant anywhere collapses the basis to {1}.  Pairs are
    selected by the normal strategy: a heap pops the pair of minimal lcm
    degree, ties broken by the pair index (i, j).  The key is computed
    once per pair, and a new pair always carries the newest index, so
    the heap pops pairs in the order of a scan for the minimum.  Pairs
    are pruned with the coprime-leading-monomial and chain criteria, so
    the output is a deterministic function of the input list.  Each
    basis element's reducer is built once, when it joins the basis, and
    S-polynomials are formed and reduced on the reducers.
    """
    gens = [f for f in F if not f.is_zero()]
    if not gens:
        raise ZeroIdealError("zero ideal")
    ctx = _shared_context(gens)

    G = [monic(f, order) for f in gens]
    if any(g.is_constant() for g in G):
        return Basis((constant(ctx, 1),), order)

    key = order.exponent_key
    G, R = _interreduced(G, order)
    if any(not any(r[0]) for r in R):
        return Basis((constant(ctx, 1),), order)
    lm = [r[0] for r in R]
    pending: set[tuple[int, int]] = {(i, j) for j in range(len(G)) for i in range(j)}
    queue = [(sum(map(max, lm[i], lm[j])), i, j) for i, j in pending]
    heapify(queue)

    def treated(i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) not in pending

    while queue:
        _, i, j = heappop(queue)
        pending.remove((i, j))
        if not any(map(min, lm[i], lm[j])):  # coprime leading monomials
            continue
        l = tuple(map(max, lm[i], lm[j]))
        if any(k != i and k != j and all(map(le, lm[k], l))
               and treated(i, k) and treated(j, k)
               for k in range(len(G))):
            continue
        r, _ = _reduce(_s_polynomial(R[i], R[j]), R, key)
        if not r:
            continue
        new_reducer = _reducer(r, key)
        lead = new_reducer[0]
        if not any(lead):
            return Basis((constant(ctx, 1),), order)
        lc = r[lead]
        G.append(_raw(ctx, {e: Fraction(c, lc) for e, c in r.items()}))
        R.append(new_reducer)
        lm.append(lead)
        new = len(G) - 1
        for k in range(new):
            pending.add((k, new))
            heappush(queue, (sum(map(max, lm[k], lead)), k, new))
    return reduce_basis(G, order)


def reduce_basis(G: Sequence[Polynomial], order: MonomialOrder) -> Basis:
    """Canonical reduced form of a Groebner basis.

    Drops generators whose leading monomial is divisible by another's,
    makes everything monic, tail-reduces each generator against the
    rest, and sorts ascending by leading monomial.
    """
    gens = [g for g in G if not g.is_zero()]
    if not gens:
        raise ZeroIdealError("zero ideal")
    key = order.exponent_key
    ranked = sorted(zip(_reducers(gens, order), gens), key=lambda rg: key(rg[0][0]))
    minimal: list[Polynomial] = []
    reducers: list[tuple] = []
    for r, g in ranked:
        if not any(all(map(le, h[0], r[0])) for h in reducers):
            minimal.append(monic(g, order))
            reducers.append(r)
    # The leading monomials of a minimal basis are distinct and already ascending.
    reduced = [_normal_form(g, reducers[:k] + reducers[k + 1:], key)
               if len(minimal) > 1 else g for k, g in enumerate(minimal)]
    return Basis(tuple(reduced), order)


def ideal_member(f: Polynomial, basis: Basis) -> bool:
    """Membership of f in the ideal; basis must be a Groebner basis."""
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
    keeps the generators free of w.
    """
    fs = [f for f in F if not f.is_zero()]
    gs = [g for g in G if not g.is_zero()]
    if not fs or not gs:
        raise ZeroIdealError("zero ideal")
    ctx = _shared_context(fs + gs)
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
