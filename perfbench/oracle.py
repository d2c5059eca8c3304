"""Independent exact oracle: reduced Groebner bases from sympy.

Both sides are compared as sets of monic polynomials over exponent tuples,
so the oracle never relies on the program's own types or renderer order.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

import corpus


def _canonical(polys, kind):
    return frozenset(tuple(sorted(corpus.monic(p, kind).items())) for p in polys if p)


def _sympy_polys(names, polys):
    gens = sympy.symbols(names)
    return gens, [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                        for e, c in p.items()}, *gens, domain="QQ")
                  for p in polys]


def _to_dicts(basis):
    return [{e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()} for p in basis.polys]


def groebner(names, polys, kind):
    """Reduced basis of the ideal as exponent dicts (lex or grevlex)."""
    gens, sp = _sympy_polys(names, polys)
    return _to_dicts(sympy.groebner(sp, *gens, order=kind))


def check(names, polys, kind, program_basis, program_cone=None) -> list[str]:
    """Differences between the program's reduced basis of <polys> under kind
    (and its tangent cone: the reduced basis of the top-degree forms) and sympy's."""
    basis = groebner(names, polys, kind)
    problems = []
    if _canonical(basis, kind) != _canonical(program_basis, kind):
        problems.append(f"{kind} basis differs from sympy")
    if program_cone is not None:
        cone = groebner(names, [corpus.top_form(g) for g in basis], kind)
        if _canonical(cone, kind) != _canonical(program_cone, kind):
            problems.append("cone differs from sympy")
    return problems


def intersection(names, F, G):
    """Generators of <F> cap <G> by eliminating w from <w*F, (1-w)*G> under lex."""
    wn = ["w_"] + list(names)
    lift = lambda p, w: {(w,) + e: c for e, c in p.items()}
    one_minus_w = {(0,) * len(wn): Fraction(1), (1,) + (0,) * len(names): Fraction(-1)}
    ext = [lift(f, 1) for f in F] + [corpus.pmul(one_minus_w, lift(g, 0)) for g in G]
    return [{e[1:]: c for e, c in g.items()}
            for g in groebner(wn, ext, "lex") if all(e[0] == 0 for e in g)]


def same_ideal(names, F, G, kind="grevlex") -> bool:
    return (_canonical(groebner(names, F, kind), kind)
            == _canonical(groebner(names, G, kind), kind))
