"""Differential check of buchberger against sympy.groebner on seeded small ideals."""

import random
from fractions import Fraction

import pytest

from tcone.groebner import buchberger
from tcone.polyring import ORDERS_BY_NAME, VariableContext, monic

from test_polyring import random_poly

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


@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_buchberger_agrees_with_sympy(kind):
    order = ORDERS_BY_NAME[kind]
    for gens in seeded_ideals():
        assert monic_set(buchberger(gens, order), order) == sympy_basis(gens, kind), gens


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
