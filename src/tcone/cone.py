"""Tangent cone at infinity of an affine variety from ideal generators.

The pipeline: compute a reduced Groebner basis of the input ideal under
a degree-compatible order, take the top-degree form of each basis
element (equivalently: homogenize it and restrict to the hyperplane at
infinity) and canonicalize the resulting homogeneous generators.  The
zero set of the result is the cone, radical input or not: the
top-degree form of f^k is the k-th power of that of f, so the forms of
I and of its radical have the same zero set.
"""

from __future__ import annotations

from typing import Sequence

from .groebner import Basis, buchberger, reduce_basis
from .polyring import (
    Monomial,
    MonomialOrder,
    Polynomial,
    VariableContext,
    ZeroPolynomialError,
    _raw,
    evaluate_exact,
    leading_form,
    total_degree,
)


class ConeDescription:
    """Homogeneous generators cutting out the tangent cone at infinity."""

    __slots__ = ("generators", "source_order", "source_basis")

    def __init__(self, generators: Basis, source_order: MonomialOrder,
                 source_basis: Basis):
        for g in generators:
            if not g.is_homogeneous():
                raise ValueError("cone generator is not homogeneous")
        self.generators = generators
        self.source_order = source_order
        self.source_basis = source_basis


def homogenize(f: Polynomial, fresh_var: str) -> Polynomial:
    """f made homogeneous of degree deg(f) by a new trailing variable.

    Setting the new variable to 1 recovers f.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot homogenize the zero polynomial")
    if fresh_var in f.context.names:
        raise ValueError(f"variable {fresh_var!r} already present")
    d = total_degree(f)
    ectx = VariableContext(f.context.names + (fresh_var,))
    return _raw(ectx, {Monomial(m.exponents + (d - m.degree,)): c
                       for m, c in f.terms.items()})


def restrict_infinity(g: Polynomial, var: str) -> Polynomial:
    """Substitute 0 for ``var`` and drop it from the context."""
    i = g.context.index(var)
    names = g.context.names[:i] + g.context.names[i + 1:]
    ctx = VariableContext(names)
    return _raw(ctx, {Monomial(m.exponents[:i] + m.exponents[i + 1:]): c
                      for m, c in g.terms.items() if m.exponents[i] == 0})


def tangent_cone_at_infinity(F: Sequence[Polynomial], order: MonomialOrder) -> ConeDescription:
    """Generators of the ideal cutting out the tangent cone at infinity.

    Requires a degree-compatible order.  Takes the top-degree form of
    each reduced basis element, which equals homogenizing it and setting
    the new variable to 0, and returns the reduced basis of those forms.
    """
    if not order.degree_compatible:
        raise ValueError(f"order {order.kind!r} is not degree-compatible")
    basis = buchberger(F, order)
    forms = [leading_form(g) for g in basis]
    return ConeDescription(generators=reduce_basis(forms, order),
                           source_order=order, source_basis=basis)


def cone_membership(cone: ConeDescription, v) -> bool:
    """Exact membership of a rational point in the cone variety."""
    return all(evaluate_exact(g, v) == 0 for g in cone.generators)


def naive_leading_form_set(F: Sequence[Polynomial]) -> list[Polynomial]:
    """Top-degree forms of the generators as given.

    This is deliberately the wrong construction for ideals with more
    than one generator: its zero set can strictly contain the cone.
    Exposed for demonstration and tests.
    """
    return [leading_form(f) for f in F]
