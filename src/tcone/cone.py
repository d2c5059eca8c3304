"""Tangent cone at infinity of an affine variety from ideal generators.

The pipeline: compute the reduced Groebner basis of the input ideal
under a degree-compatible order and take the top-degree form of each
element, in basis order.  The forms generate the ideal of top forms of
I (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, Ch. 8
Sec. 4) and already are its reduced basis.  The top-degree form of g is
what homogenizing g with a new variable and then setting that variable
to 0 leaves; the tests pin this identity.  The zero set of the result
is the cone, radical input or not: the top-degree form of f^k is the
k-th power of that of f, so the forms of I and of its radical have the
same zero set.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .groebner import Basis, _vanish, buchberger
from .polyring import MonomialOrder, Polynomial, leading_form


class ConeDescription(NamedTuple):
    """Homogeneous generators cutting out the tangent cone at infinity,
    with the reduced basis of the input ideal they were taken from."""

    generators: Basis
    source_basis: Basis


def tangent_cone_at_infinity(F: Sequence[Polynomial], order: MonomialOrder) -> ConeDescription:
    """Generators of the ideal cutting out the tangent cone at infinity.

    Requires a degree-compatible order.  Returns the top-degree form of
    each reduced basis element, in basis order, which is the reduced
    basis of the forms' ideal: under a degree-compatible order each
    element's leading monomial has the top degree, so its form keeps
    that leading monomial and coefficient 1, and the form's monomials
    are a subset of the element's.  The forms are therefore monic,
    minimal, inter-reduced and sorted, as the basis was.
    """
    if not order.degree_compatible:
        raise ValueError(f"order {order.kind!r} is not degree-compatible")
    basis = buchberger(F, order)
    forms = Basis(tuple(leading_form(g) for g in basis), order)
    return ConeDescription(generators=forms, source_basis=basis)


def cone_membership(cone: ConeDescription, v) -> bool:
    """Exact membership of a rational point in the cone variety.

    Each entry of v is read as Fraction(x), so ints, Fractions and floats
    are accepted.  Membership is decided on integers: with D the least
    common denominator of the entries, every generator's integer reducer
    (the one division uses) is evaluated at the integer point D*v, scaled
    by powers of D to its top degree, and the answer is False at the
    first one that does not vanish.
    """
    v = [Fraction(x) for x in v]
    n = cone.generators.context.n
    if len(v) != n:
        raise ValueError(f"point has {len(v)} entries, expected {n}")
    d = lcm(*(x.denominator for x in v))
    w = [x.numerator * (d // x.denominator) for x in v]
    return _vanish(cone.generators._reducers, w, d)


def naive_leading_form_set(F: Sequence[Polynomial]) -> list[Polynomial]:
    """Top-degree forms of the generators as given.

    This is deliberately the wrong construction for ideals with more
    than one generator: its zero set can strictly contain the cone.
    Exposed for demonstration and tests.
    """
    return [leading_form(f) for f in F]
