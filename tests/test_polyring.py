import itertools
import random
from fractions import Fraction
from operator import add, neg

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
    total_degree,
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


def test_multiply_by_zero(xy):
    ctx, x, y = xy
    assert (zero(ctx) * (x**2 - y**3)).is_zero()


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
