import itertools
import random
from fractions import Fraction
from operator import add, mul, neg, sub

import pytest

from tcone.polyring import (
    ELIM_FIRST,
    GREVLEX,
    GRLEX,
    LEX,
    ContextMismatchError,
    Polynomial,
    VariableContext,
    ZeroPolynomialError,
    constant,
    differentiate,
    evaluate_exact,
    leading_form,
    leading_term,
    monic,
    total_degree,
    variables,
    zero,
)


def random_poly(ctx, rng, max_degree=6, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ctx.n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(ctx.n)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        e = tuple(exps)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return Polynomial(ctx, terms)


def by_degree(f):
    """The homogeneous components of f, keyed by their degrees."""
    return {d: Polynomial(f.context, {e: c for e, c in f.terms.items() if sum(e) == d})
            for d in sorted({sum(e) for e in f.terms})}


# -- construction and invariants ---------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        VariableContext(())
    with pytest.raises(ValueError):
        VariableContext(("x", "x"))
    with pytest.raises(ValueError):
        VariableContext(("x", "2y"))
    assert VariableContext(("x", "y")).n == 2


def test_monomial_rejects_negative_exponent(xy):
    ctx, x, y = xy
    with pytest.raises(ValueError):
        Polynomial(ctx, {(-1, 0): 1})


def test_zero_coefficients_dropped(xy):
    ctx, x, y = xy
    p = x - x
    assert p.is_zero()
    assert p.terms == {}


def test_monomial_arity_checked(xy):
    ctx, x, y = xy
    with pytest.raises(ContextMismatchError):
        Polynomial(ctx, {(1, 2, 3): Fraction(1)})


# -- add ----------------------------------------------------------------


def test_add_cancellation(xy):
    ctx, x, y = xy
    assert (x**2 - y**3) + y**3 == x**2


def test_add_identity(xy):
    ctx, x, y = xy
    f = x**2 - y**3
    assert f + zero(ctx) == f


def test_add_inverse(xy):
    ctx, x, y = xy
    assert ((x**2 - y**3) + (y**3 - x**2)).is_zero()


def test_add_context_mismatch(xy, xyz):
    _, x, y = xy
    _, x3, _, _ = xyz
    with pytest.raises(ContextMismatchError):
        x + x3


# -- multiply -----------------------------------------------------------


def test_multiply_certificate_identity(xyz):
    # z*x^2*f1 - y*f2 = yz(y^2 - z^2)
    ctx, x, y, z = xyz
    f1 = x * y
    f2 = z * (x**3 - y**2 + z**2)
    lhs = z * x**2 * f1 - y * f2
    assert lhs == y**3 * z - y * z**3
    assert lhs == y * z * (y**2 - z**2)


def test_multiply_difference_of_squares(xy):
    ctx, x, y = xy
    assert (x - y) * (x + y) == x**2 - y**2


def reference_add(a, b):
    res = dict(a)
    for m, c in b.items():
        s = res.get(m, Fraction(0)) + c
        if s == 0:
            res.pop(m, None)
        else:
            res[m] = s
    return res


def reference_mul(a, b):
    res = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            s = res.get(m, Fraction(0)) + c1 * c2
            if s == 0:
                res.pop(m, None)
            else:
                res[m] = s
    return res


def reference_pow(a, e, n):
    result, base = {(0,) * n: Fraction(1)}, a
    while e:
        if e & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def test_operators_keep_the_term_loops_order():
    # The operators' terms, in dict order, equal those of the Fraction loops
    # they have always run, written out here; reduce_basis can expose the order.
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(13)
    for _ in range(150):
        f, g = random_poly(ctx, rng), random_poly(ctx, rng)
        h = f + g * Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # shares monomials
        k = rng.randint(0, 5)
        for got, want in [
            (f + g, reference_add(f.terms, g.terms)),
            (h - f, reference_add(h.terms, {m: -c for m, c in f.terms.items()})),
            (-h, {m: -c for m, c in h.terms.items()}),
            (f * h, reference_mul(f.terms, h.terms)),
            (Fraction(-2, 3) * h, {m: c * Fraction(-2, 3) for m, c in h.terms.items()}),
            (h * 0, {}),
            (h ** k, reference_pow(h.terms, k, 3)),
        ]:
            assert list(got.terms.items()) == list(want.items())
            assert all(type(c) is Fraction for c in got.terms.values())


def test_multiply_by_zero(xy):
    ctx, x, y = xy
    assert (zero(ctx) * (x**2 - y**3)).is_zero()


@pytest.mark.parametrize("other", [1.5, "y"])
@pytest.mark.parametrize("op", [add, sub, mul], ids=["+", "-", "*"])
def test_unsupported_operand_is_a_type_error(xy, op, other):
    # Each operator returns NotImplemented, so Python raises TypeError on
    # both sides; with a str, str's own sequence error may come first.
    ctx, x, y = xy
    match = "unsupported operand" if isinstance(other, float) else None
    with pytest.raises(TypeError, match=match):
        op(x, other)
    with pytest.raises(TypeError, match=match):
        op(other, x)


# -- differentiate ------------------------------------------------------


def test_differentiate(xy):
    ctx, x, y = xy
    f = x**2 - y**3
    assert differentiate(f, 0) == 2 * x
    assert differentiate(f, 1) == -3 * y**2


def test_differentiate_absent_variable(xyz):
    ctx, x, y, z = xyz
    assert differentiate(x * y, 2).is_zero()


def test_differentiate_bad_index(xy):
    ctx, x, y = xy
    with pytest.raises(IndexError):
        differentiate(x, 2)


# -- degrees and homogeneous structure ----------------------------------


def test_total_degree(xyz):
    ctx, x, y, z = xyz
    assert total_degree(z * (x**3 - y**2 + z**2)) == 4
    assert total_degree(x * y) == 2
    assert total_degree(constant(ctx, 5)) == 0
    with pytest.raises(ZeroPolynomialError):
        total_degree(zero(ctx))


def test_homogeneous_components(xy):
    ctx, x, y = xy
    comps = by_degree(x**2 - y**3)
    assert set(comps) == {2, 3}
    assert comps[2] == x**2
    assert comps[3] == -(y**3)
    assert by_degree(zero(ctx)) == {}


def test_homogeneous_components_sum_and_purity():
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(2024)
    for _ in range(100):
        f = random_poly(ctx, rng)
        comps = by_degree(f)
        total = zero(ctx)
        for d, part in comps.items():
            assert part.is_homogeneous()
            assert not part.is_zero()
            assert total_degree(part) == d
            total = total + part
        assert total == f


def test_leading_form(xy):
    ctx, x, y = xy
    assert leading_form(x**2 - y**3) == -(y**3)
    assert leading_form(y - x**2) == -(x**2)
    h = x**2 * y
    assert leading_form(h) == h
    with pytest.raises(ZeroPolynomialError):
        leading_form(zero(ctx))


def test_leading_form_is_top_component():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(99)
    for _ in range(100):
        f = random_poly(ctx, rng)
        if f.is_zero():
            continue
        assert leading_form(f) == by_degree(f)[total_degree(f)]


# -- monomial orders ----------------------------------------------------


def test_compare_grevlex_spec_example():
    # x^3 z vs y^2 z under grevlex x>y>z
    assert GREVLEX.key((3, 0, 1)) > GREVLEX.key((0, 2, 1))


def test_compare_grevlex_degree_tie():
    # degree 4 tie: from the last variable, the first strictly larger
    # exponent makes a monomial smaller
    a = (3, 0, 1)  # x^3 z
    b = (0, 2, 2)  # y^2 z^2
    assert sum(a) == sum(b) == 4
    assert GREVLEX.key(a) > GREVLEX.key(b)
    assert GREVLEX.key(b) < GREVLEX.key(a)
    assert GREVLEX.key(a) == GREVLEX.key(a)


def test_compare_grevlex_basis_leading_monomials():
    # x^3 z vs y^3 z, both degree 4: x^3 z is larger under grevlex x>y>z
    assert GREVLEX.key((3, 0, 1)) > GREVLEX.key((0, 3, 1))


def test_compare_lex():
    assert LEX.key((1, 0)) > LEX.key((0, 3))


def test_compare_grlex():
    assert GRLEX.key((0, 3)) > GRLEX.key((2, 0))


def all_monomials(n, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=n):
        if sum(exps) <= max_degree:
            yield exps


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX])
def test_order_total_and_multiplicative(order):
    monos = list(all_monomials(3, 4))
    keys = [order.key(m) for m in monos]
    assert len(set(keys)) == len(keys)  # total order: no distinct tie
    # multiplicativity: m1 < m2 implies m1*p < m2*p
    rng = random.Random(5)
    for _ in range(400):
        m1, m2, p = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        k1, k2 = order.key(m1), order.key(m2)
        k1p, k2p = order.key(tuple(map(add, m1, p))), order.key(tuple(map(add, m2, p)))
        assert (k1p < k2p, k1p == k2p) == (k1 < k2, k1 == k2)
    one = (0, 0, 0)
    for m in monos:
        assert order.key(m) >= order.key(one)  # 1 is minimal (well-order)


@pytest.mark.parametrize("order", [GRLEX, GREVLEX])
def test_degree_orders_compare_degree_first(order):
    for a in all_monomials(3, 4):
        for b in all_monomials(3, 4):
            if sum(a) != sum(b):
                assert (order.key(a) > order.key(b)) == (sum(a) > sum(b))


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX, ELIM_FIRST])
def test_negated_key_negates_the_key(order):
    for m in all_monomials(4, 5):
        assert order.negated_key(m) == tuple(map(neg, order.key(m)))


# -- leading terms -------------------------------------------------------


def test_leading_term_examples(xyz):
    ctx, x, y, z = xyz
    m, c = leading_term(x**3 * z - y**2 * z + z**3, GREVLEX)
    assert m == (3, 0, 1) and c == 1
    m, c = leading_term(x * y, GREVLEX)
    assert m == (1, 1, 0) and c == 1
    m, c = leading_term(y**3 * z - y * z**3, GREVLEX)
    assert m == (0, 3, 1) and c == 1
    with pytest.raises(ZeroPolynomialError):
        leading_term(zero(ctx), GREVLEX)


# -- evaluation ----------------------------------------------------------


def test_evaluate_exact(xyz):
    ctx, x, y, z = xyz
    f = y * z * (y**2 - z**2)
    assert evaluate_exact(f, (0, 2, 1)) == 6
    assert evaluate_exact(x * y + constant(ctx, Fraction(7, 3)), (0, 0, 0)) == Fraction(7, 3)
    assert evaluate_exact(x * y, (0, 0, 1)) == 0
    with pytest.raises(ValueError):
        evaluate_exact(f, (0, 1))


def test_homogeneous_scaling_law():
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(31)
    for _ in range(60):
        f = random_poly(ctx, rng)
        if f.is_zero():
            continue
        h = leading_form(f)
        d = total_degree(h)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice([-1, 1])
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        assert evaluate_exact(h, [lam * vi for vi in v]) == lam**d * evaluate_exact(h, v)


# -- ring axioms ---------------------------------------------------------


def test_ring_axioms_random():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(7)
    for _ in range(80):
        f, g, h = (random_poly(ctx, rng, max_degree=4) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_degree_additivity():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        f = random_poly(ctx, rng, max_degree=5)
        g = random_poly(ctx, rng, max_degree=5)
        if f.is_zero() or g.is_zero():
            continue
        assert total_degree(f * g) == total_degree(f) + total_degree(g)
        checked += 1


def test_negative_power_raises():
    (x,) = variables(VariableContext(("x",)))
    with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
        x ** -1


def test_monic_divides_by_a_leading_coefficient_other_than_one():
    (x,) = variables(VariableContext(("x",)))
    assert monic(2 * x + 1, GREVLEX) == x + Fraction(1, 2)
    f = x + 3
    assert monic(f, GREVLEX) is f


def test_polynomial_and_context_are_immutable_with_a_repr():
    ctx = VariableContext(("x", "y"))
    x, y = variables(ctx)
    f = 2 * x * y - 1
    for obj, attr in ((f, "terms"), (ctx, "names")):
        with pytest.raises(AttributeError, match="is immutable$"):
            setattr(obj, attr, None)
    assert repr(ctx) == "VariableContext(('x', 'y'))"
    assert repr(f) == "Polynomial(2*(1, 1) + -1*(0, 0))"
    assert repr(zero(ctx)) == "Polynomial(0)"
