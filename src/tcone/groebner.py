"""Multivariate division, Buchberger's algorithm and ideal predicates.

Everything here is deterministic: the division algorithm reduces the
largest workspace term first and tries divisors in list order, Buchberger
uses the normal selection strategy (minimal lcm degree, ties broken by
pair index) through a heap keyed on (lcm degree, i, j), and bases are
returned in the reduced canonical form (monic, inter-reduced, sorted
ascending by leading monomial) that is unique per ideal and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Sequence

from .polyring import (
    ContextMismatchError,
    Monomial,
    MonomialOrder,
    Polynomial,
    VariableContext,
    ELIM_FIRST,
    constant,
    leading_monomial,
    leading_term,
    monic,
    variable,
    _raw,
)


class ZeroIdealError(ValueError):
    """All supplied generators are zero."""


@dataclass(frozen=True)
class Basis:
    """An ordered generating set under a fixed monomial order."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = False

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @property
    def context(self) -> VariableContext:
        return self.generators[0].context


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
        ctx = _shared_context((f,) + gens)
    lts = [leading_term(g, order) for g in gens]
    key = order.key

    # The workspace p is drained largest term first through a max-heap on
    # the negated order key, computed once per monomial as it enters.  A
    # term that cancels stays in p at coefficient 0 until popped, so each
    # monomial has one heap entry.  Every new term tm*q is below the term
    # m it reduces, so no popped monomial comes back.
    p = dict(f.terms)
    heap = [(tuple(map(neg, key(m))), m) for m in p]
    heapify(heap)
    remainder: dict[Monomial, Fraction] = {}
    while heap:
        m = heappop(heap)[1]
        c = p.pop(m)
        if not c:
            continue
        for g, (gm, gc) in zip(gens, lts):
            if gm.divides(m):
                q = m.quotient(gm)
                factor = c / gc
                for tm, tc in g.terms.items():
                    if tm is gm:
                        continue
                    t = tm.times(q)
                    s = p.get(t)
                    if s is None:
                        p[t] = -factor * tc
                        heappush(heap, (tuple(map(neg, key(t))), t))
                    else:
                        p[t] = s - factor * tc
                break
        else:
            remainder[m] = c
    return _raw(f.context, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The cancellation combination of the leading terms of f and g."""
    if f.is_zero() or g.is_zero():
        raise ZeroIdealError("s-polynomial of a zero polynomial")
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    l = fm.lcm(gm)
    return f * _mono_poly(f.context, l.quotient(fm), 1 / fc) \
        - g * _mono_poly(g.context, l.quotient(gm), 1 / gc)


def _mono_poly(ctx: VariableContext, m: Monomial, c: Fraction) -> Polynomial:
    return _raw(ctx, {m: Fraction(c)})


def buchberger(F: Sequence[Polynomial], order: MonomialOrder) -> Basis:
    """Reduced Groebner basis of the ideal generated by F.

    Zero generators are skipped; an all-zero input is rejected.  A
    nonzero constant anywhere collapses the basis to {1}.  Pairs are
    selected by the normal strategy: a heap pops the pair of minimal lcm
    degree, ties broken by the pair index (i, j).  The key is computed
    once per pair, and a new pair always carries the newest index, so
    the heap pops pairs in the order of a scan for the minimum.  Pairs
    are pruned with the coprime-leading-monomial and chain criteria, so
    the output is a deterministic function of the input list.
    """
    gens = [f for f in F if not f.is_zero()]
    if not gens:
        raise ZeroIdealError("zero ideal")
    ctx = _shared_context(gens)

    G = [monic(f, order) for f in gens]
    if any(g.is_constant() for g in G):
        return Basis((constant(ctx, 1),), order, reduced=True)

    lm = [leading_monomial(g, order) for g in G]
    pending: set[tuple[int, int]] = {(i, j) for j in range(len(G)) for i in range(j)}
    queue = [(lm[i].lcm(lm[j]).degree, i, j) for i, j in pending]
    heapify(queue)

    def treated(i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) not in pending

    while queue:
        _, i, j = heappop(queue)
        pending.remove((i, j))
        if lm[i].is_coprime(lm[j]):
            continue
        l = lm[i].lcm(lm[j])
        if any(k != i and k != j and lm[k].divides(l)
               and treated(i, k) and treated(j, k)
               for k in range(len(G))):
            continue
        r = normal_form(s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        if r.is_constant():
            return Basis((constant(ctx, 1),), order, reduced=True)
        G.append(monic(r, order))
        lm.append(leading_monomial(r, order))
        new = len(G) - 1
        for k in range(new):
            pending.add((k, new))
            heappush(queue, (lm[k].lcm(lm[new]).degree, k, new))
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
    gens.sort(key=lambda g: order.key(leading_monomial(g, order)))
    minimal: list[Polynomial] = []
    min_lm: list[Monomial] = []
    for g in gens:
        m = leading_monomial(g, order)
        if not any(h.divides(m) for h in min_lm):
            minimal.append(monic(g, order))
            min_lm.append(m)
    reduced = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        reduced.append(normal_form(g, others, order) if others else g)
    reduced.sort(key=lambda g: order.key(leading_monomial(g, order)))
    return Basis(tuple(reduced), order, reduced=True)


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
        return _raw(ectx, {Monomial((0,) + m.exponents): c for m, c in p.terms.items()})

    w = variable(ectx, w_name)
    one_minus_w = constant(ectx, 1) - w
    extended = [w * lift(f) for f in fs] + [one_minus_w * lift(g) for g in gs]
    basis = buchberger(extended, ELIM_FIRST)

    result = []
    for g in basis:
        if all(m.exponents[0] == 0 for m in g.terms):
            result.append(_raw(ctx, {Monomial(m.exponents[1:]): c
                                     for m, c in g.terms.items()}))
    return result
