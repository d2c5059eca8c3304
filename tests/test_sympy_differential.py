"""Differential checks against sympy: buchberger against sympy.groebner on
seeded small ideals, and the monomial orders against sympy's orderings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcone.groebner import buchberger
from tcone.polyring import (ELIM_FIRST, GREVLEX, GRLEX, LEX, ORDERS_BY_NAME, Polynomial,
                            VariableContext, monic)

from test_polyring import all_monomials, random_poly

sympy = pytest.importorskip("sympy")


def seeded_ideals(count=30, seed=2016):
    """Lists of 2-3 nonzero generators of degree <= 3 in 2 or 3 variables."""
    rng = random.Random(seed)
    ideals = []
    while len(ideals) < count:
        ctx = VariableContext(("x", "y", "z")[:rng.choice((2, 3))])
        gens = [random_poly(ctx, rng, max_degree=3, max_terms=4)
                for _ in range(rng.choice((2, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            ideals.append(gens)
    return ideals


def monic_set(polys, order):
    """Each polynomial made monic, as a set of term sets on exponent tuples."""
    return {frozenset(monic(p, order).terms.items())
            for p in polys}


def sympy_basis(gens, kind):
    symbols = sympy.symbols(gens[0].context.names)
    polys = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                   for e, c in g.terms.items()}, *symbols, domain="QQ")
             for g in gens]
    basis = sympy.groebner(polys, *symbols, order=kind)
    # sympy may return the basis over ZZ, where quo_ground would floor.
    return {frozenset((e, Fraction(int(c.p), int(c.q))) for e, c in p.terms())
            for p in (p.to_field().quo_ground(p.LC(order=kind)) for p in basis.polys)}


def sympy_order(order):
    orderings = sympy.polys.orderings
    if order == ELIM_FIRST:  # the first variable eliminated, grevlex on the rest
        return orderings.ProductOrder((orderings.grevlex, lambda m: m[:1]),
                                      (orderings.grevlex, lambda m: m[1:]))
    return getattr(orderings, order.kind)


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX, ELIM_FIRST])
def test_order_key_sorts_like_sympy(order):
    monos = list(all_monomials(4, 5))
    assert sorted(monos, key=order.key) == sorted(monos, key=sympy_order(order))


@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_buchberger_agrees_with_sympy(kind):
    order = ORDERS_BY_NAME[kind]
    for gens in seeded_ideals():
        assert monic_set(buchberger(gens, order), order) == sympy_basis(gens, kind), gens


@st.composite
def drawn_ideals(draw):
    """1-3 nonzero generators in 2-3 variables: up to 4 terms each, of
    degree <= 5, with coefficients in -3..3."""
    ctx = VariableContext(("x", "y", "z")[:draw(st.integers(2, 3))])
    exponents = st.tuples(*[st.integers(0, 5)] * ctx.n).filter(lambda e: sum(e) <= 5)
    terms = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    return [Polynomial(ctx, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(gens=drawn_ideals(), kind=st.sampled_from(["lex", "grlex", "grevlex"]))
def test_buchberger_agrees_with_sympy_on_drawn_ideals(gens, kind):
    order = ORDERS_BY_NAME[kind]
    assert monic_set(buchberger(gens, order), order) == sympy_basis(gens, kind)


def test_gb_of_mutually_reducing_generators_is_fast(capsys):
    # Without interreducing the input first, the S-polynomial remainders of
    # this file grow to integers of 10^5 bits and tcone gb runs for minutes.
    from pathlib import Path
    from time import perf_counter

    from tcone.cli import main
    from tcone.textio import parse_ideal

    path = Path(__file__).parent / "data" / "hang.ideal"
    ideal = parse_ideal(path.read_text())
    start = perf_counter()
    assert main(["gb", str(path)]) == 0
    assert perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    got = [parse_ideal(f"vars x y\npoly {line}\n").polynomials[0] for line in lines]
    order = ORDERS_BY_NAME["grevlex"]
    assert monic_set(got, order) == sympy_basis(ideal.polynomials, "grevlex")
