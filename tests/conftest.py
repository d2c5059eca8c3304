import math

import pytest

from tcone.polyring import Polynomial, VariableContext, total_degree, variables


@pytest.fixture
def xyz():
    """The three-variable context of the five-lines example."""
    ctx = VariableContext(("x", "y", "z"))
    x, y, z = variables(ctx)
    return ctx, x, y, z


@pytest.fixture
def xy():
    ctx = VariableContext(("x", "y"))
    x, y = variables(ctx)
    return ctx, x, y


@pytest.fixture
def five_lines(xyz):
    """Generators xy and z(x^3 - y^2 + z^2) of the five-lines ideal."""
    ctx, x, y, z = xyz
    return ctx, x * y, z * (x**3 - y**2 + z**2)


def cyclic(n):
    """The cyclic-n system: for each k < n the sum of the n cyclic products
    of k consecutive variables, and x0*...*x(n-1) - 1."""
    xs = variables(VariableContext(tuple(f"x{i}" for i in range(n))))
    return [sum(math.prod(xs[(i + j) % n] for j in range(k)) for i in range(n))
            for k in range(1, n)] + [math.prod(xs) - 1]


def katsura(n):
    """The katsura-n system in u0..un, with u(-l) = u(l) and u(l) = 0 for l > n."""
    us = variables(VariableContext(tuple(f"u{i}" for i in range(n + 1))))

    def u(l):
        return us[abs(l)] if abs(l) <= n else 0

    return [sum(u(l) * u(m - l) for l in range(-n, n + 1)) - u(m) for m in range(n)] \
        + [us[0] + 2 * sum(us[1:]) - 1]


def homogenize(f, fresh_var):
    """f made homogeneous of degree deg(f) by a new trailing variable.

    Setting the new variable to 1 recovers f; setting it to 0 leaves the
    top-degree form, the identity tangent_cone_at_infinity relies on.
    """
    if fresh_var in f.context.names:
        raise ValueError(f"variable {fresh_var!r} already present")
    d = total_degree(f)  # ZeroPolynomialError for f = 0
    ctx = VariableContext(f.context.names + (fresh_var,))
    return Polynomial(ctx, {e + (d - sum(e),): c for e, c in f.terms.items()})


def restrict_infinity(g, var):
    """Substitute 0 for ``var`` and drop it from the context."""
    i = g.context.index(var)
    ctx = VariableContext(g.context.names[:i] + g.context.names[i + 1:])
    return Polynomial(ctx, {e[:i] + e[i + 1:]: c for e, c in g.terms.items() if e[i] == 0})


@pytest.fixture(params=["cyclic4", "katsura3"])
def standard_system(request):
    """(name, generators) of cyclic-4 and of katsura-3."""
    return request.param, {"cyclic4": cyclic(4), "katsura3": katsura(3)}[request.param]
