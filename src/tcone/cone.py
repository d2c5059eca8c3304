"""Tangent cone at infinity of an affine variety from ideal generators.

The pipeline: compute a reduced Groebner basis of the input ideal under
a degree-compatible order, take the top-degree form of each basis
element and canonicalize the resulting homogeneous generators.  The
top-degree form of g is what homogenizing g with a new variable and
then setting that variable to 0 leaves; the tests pin this identity.
The zero set of the result is the cone, radical input or not: the
top-degree form of f^k is the k-th power of that of f, so the forms of
I and of its radical have the same zero set.
"""

from __future__ import annotations

from typing import Sequence

from .groebner import Basis, buchberger, reduce_basis
from .polyring import MonomialOrder, Polynomial, evaluate_exact, leading_form


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
