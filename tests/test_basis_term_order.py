"""Reduced bases pinned term for term and in dict order.

The numeric layer sums a polynomial's terms in ``f.terms`` order, so a
change of the exact layer must leave not only every basis but also the
order of its terms as it was.  ``tests/golden/basis_term_order.json``
holds, for each case, every basis element as its [exponents,
coefficient] pairs in dict order.
"""

import itertools
import json
import random
from pathlib import Path

from tcone.groebner import buchberger, ideal_intersect
from tcone.polyring import ORDERS_BY_NAME, Polynomial, VariableContext
from tcone.textio import parse_ideal

from conftest import cyclic, katsura

ROOT = Path(__file__).parent
GOLDEN = ROOT / "golden" / "basis_term_order.json"
KINDS = ("lex", "grlex", "grevlex")
# (variables, generators, degree) of the seeded dense ideals.
SHAPES = [(2, 2, 2), (2, 2, 3), (3, 2, 2)]


def dense_ideal(seed, nvars, ngens, degree):
    """Generators with every monomial of degree <= degree, each with a
    seeded nonzero coefficient in -5..5."""
    rng = random.Random(f"dense:{seed}:{nvars}:{ngens}:{degree}")
    ctx = VariableContext(("x", "y", "z")[:nvars])
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(e) <= degree]
    coeffs = [c for c in range(-5, 6) if c]
    return [Polynomial(ctx, {e: rng.choice(coeffs) for e in monomials}) for _ in range(ngens)]


def ideal(text):
    return parse_ideal(text).polynomials


def cases():
    """(name, generators) of every pinned basis, the order given separately."""
    for shape in SHAPES:
        for seed in range(10):
            yield f"dense{shape}/{seed}", dense_ideal(seed, *shape)
    yield "katsura3", katsura(3)
    yield "cyclic4", cyclic(4)
    yield "hang", ideal((ROOT / "data" / "hang.ideal").read_text())
    # One basis element, with a lead that is not monic and not always the
    # first term typed; in the third the second generator reduces to 0.
    # The element lists its terms descending however the input was typed.
    yield "lone", ideal("vars x y\npoly 3*y^2 + 2*x - 1\n")
    yield "lone-lead-last", ideal("vars x y\npoly 2*x - 1 + 3*y^2\n")
    yield "lone-of-two", ideal("vars x y\npoly 2*x - 1 + 3*y^2\npoly x*(2*x - 1 + 3*y^2)\n")


def as_json(polys):
    return [[[list(e), str(c)] for e, c in p.terms.items()] for p in polys]


def rendered():
    """Every pinned basis, keyed by case and order."""
    out = {}
    for name, gens in cases():
        for kind in KINDS:
            out[f"{name}/{kind}"] = as_json(buchberger(gens, ORDERS_BY_NAME[kind]))
    x, y = ideal("vars x y\npoly x\npoly y\n")
    parabola = ideal("vars x y\npoly y - x^2\n")
    out["intersect/line-parabola"] = as_json(ideal_intersect([x, y - 1], parabola))
    return out


def test_bases_keep_terms_and_their_order():
    golden = json.loads(GOLDEN.read_text())
    got = rendered()
    assert got.keys() == golden.keys()
    for name, basis in got.items():
        assert basis == golden[name], name

