"""Exact computation of tangent cones at infinity with numeric cross-checks."""

from .polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    VariableContext,
)
from .groebner import Basis, buchberger, ideal_equal, ideal_intersect, ideal_member
from .cone import ConeDescription, cone_membership, tangent_cone_at_infinity

__all__ = [
    "Basis",
    "ConeDescription",
    "GREVLEX",
    "GRLEX",
    "LEX",
    "MonomialOrder",
    "Polynomial",
    "VariableContext",
    "buchberger",
    "cone_membership",
    "ideal_equal",
    "ideal_intersect",
    "ideal_member",
    "tangent_cone_at_infinity",
]

__version__ = "0.1.0"
