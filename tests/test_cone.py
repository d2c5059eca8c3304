import random
from fractions import Fraction

import pytest

from tcone.cone import (
    ConeDescription,
    cone_membership,
    naive_leading_form_set,
    tangent_cone_at_infinity,
)
from tcone.groebner import Basis, buchberger, ideal_equal, ideal_member, reduce_basis
from tcone.polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    Polynomial,
    VariableContext,
    ZeroPolynomialError,
    constant,
    evaluate_exact,
    leading_form,
    variables,
    zero,
)

from conftest import cyclic, homogenize, katsura, restrict_infinity
from test_polyring import random_poly


# -- homogenize ----------------------------------------------------------


def test_homogenize_cusp(xy):
    ctx, x, y = xy
    h = homogenize(x**2 - y**3, "t")
    ectx = h.context
    assert ectx.names == ("x", "y", "t")
    xe, ye, te = variables(ectx)
    assert h == xe**2 * te - ye**3


def test_homogenize_quartic_generator(xyz):
    # g2^h = x^3 z - y^2 z t + z^3 t
    ctx, x, y, z = xyz
    h = homogenize(x**3 * z - y**2 * z + z**3, "t")
    xe, ye, ze, te = variables(h.context)
    assert h == xe**3 * ze - ye**2 * ze * te + ze**3 * te


def test_homogenize_already_homogeneous(xy):
    ctx, x, y = xy
    h = homogenize(x * y, "t")
    assert all(e[2] == 0 for e in h.terms)
    assert h.is_homogeneous()


def test_homogenize_errors(xy):
    ctx, x, y = xy
    with pytest.raises(ZeroPolynomialError):
        homogenize(zero(ctx), "t")
    with pytest.raises(ValueError):
        homogenize(x, "y")


def test_homogenize_sets_var_to_one_recovers(xy):
    ctx, x, y = xy
    rng = random.Random(3)
    for _ in range(50):
        f = random_poly(ctx, rng)
        if f.is_zero():
            continue
        h = homogenize(f, "t")
        assert h.is_homogeneous()
        back = restrict_at_one(h, "t")
        assert back == f


def restrict_at_one(g, var):
    """Substitute 1 for var, dropping it from the context (test helper)."""
    i = g.context.index(var)
    names = g.context.names[:i] + g.context.names[i + 1:]
    ctx = VariableContext(names)
    terms = {}
    for e, c in g.terms.items():
        key = e[:i] + e[i + 1:]
        terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(ctx, terms)


# -- restrict_infinity ------------------------------------------------------


def test_restrict_quartic_generator(xyz):
    ctx, x, y, z = xyz
    h = homogenize(x**3 * z - y**2 * z + z**3, "t")
    r = restrict_infinity(h, "t")
    assert r == x**3 * z


def test_restrict_constant(xy):
    ctx, x, y = xy
    c = homogenize(constant(ctx, Fraction(5, 2)), "t")
    assert restrict_infinity(c, "t") == constant(ctx, Fraction(5, 2))


def test_restrict_unknown_variable(xy):
    ctx, x, y = xy
    with pytest.raises(KeyError):
        restrict_infinity(x, "t")


def test_two_path_equality_random():
    # homogenize then restrict equals the top-degree form
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(12)
    for _ in range(100):
        f = random_poly(ctx, rng)
        if f.is_zero():
            continue
        assert restrict_infinity(homogenize(f, "_t"), "_t") == leading_form(f)


def test_two_path_equality_on_basis(standard_system):
    _, F = standard_system
    for g in buchberger(F, GREVLEX):
        assert restrict_infinity(homogenize(g, "_t"), "_t") == leading_form(g)


# -- tangent cone pipeline ----------------------------------------------------


def test_cone_five_lines(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    expected = [x * y, x**3 * z, y * z * (y**2 - z**2)]
    assert ideal_equal(list(cone.generators.generators), expected, GREVLEX)
    for g in cone.generators:
        assert g.is_homogeneous()


def test_cone_cusp(xy):
    ctx, x, y = xy
    cone = tangent_cone_at_infinity([x**2 - y**3], GREVLEX)
    assert cone.generators.generators == (y**3,)
    assert cone_membership(cone, (1, 0))
    assert cone_membership(cone, (Fraction(7, 3), 0))
    assert not cone_membership(cone, (0, 1))


def test_cone_sum_ideal_is_origin(xy):
    ctx, x, y = xy
    cone = tangent_cone_at_infinity([x, y - x**2], GREVLEX)
    assert set(cone.generators.generators) == {x, y}
    assert cone_membership(cone, (0, 0))
    assert not cone_membership(cone, (0, 1))
    assert not cone_membership(cone, (1, 0))


def test_cone_forms_are_already_reduced(standard_system):
    # tangent_cone_at_infinity returns the top-degree forms of the reduced
    # basis without reducing them again: under a degree-compatible order
    # they are their own reduced basis, term order included, which the
    # numeric layer follows when it evaluates a generator term by term.
    name, F = standard_system
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(name)
    ideals = [F] + [[random_poly(ctx, rng, max_degree=4, max_terms=5)
                     for _ in range(rng.randint(2, 3))] for _ in range(20)]
    for order in (GREVLEX, GRLEX):
        for ideal in ideals:
            if all(f.is_zero() for f in ideal):
                continue
            cone = tangent_cone_at_infinity(ideal, order).generators
            again = reduce_basis(Basis(cone.generators, order))
            assert again == cone
            assert [list(g.terms) for g in again] == [list(g.terms) for g in cone]
            assert all(g.is_homogeneous() for g in cone)


def power_in(f, basis, up_to=4):
    """The least k <= up_to with f^k in the ideal of basis, else None."""
    return next((k for k in range(1, up_to + 1) if ideal_member(f**k, basis)), None)


@pytest.mark.parametrize("ideal,radical", [
    (lambda x, y: [(y - x**2)**2], lambda x, y: [y - x**2]),
    (lambda x, y: [x**2, x * y], lambda x, y: [x]),
])
def test_non_radical_cone_has_the_same_radical(xy, ideal, radical):
    # LF(f^k) = LF(f)^k, so the cone ideals of I and of its radical differ
    # but have the same radical: each generator of one has a power in the other.
    ctx, x, y = xy
    cone = tangent_cone_at_infinity(ideal(x, y), GREVLEX).generators
    radical_cone = tangent_cone_at_infinity(radical(x, y), GREVLEX).generators
    assert cone.generators != radical_cone.generators
    assert [power_in(g, cone) for g in radical_cone] == [2]
    assert all(power_in(g, radical_cone) == 1 for g in cone)


def test_cone_rejects_non_degree_order(xy):
    ctx, x, y = xy
    with pytest.raises(ValueError):
        tangent_cone_at_infinity([x], LEX)


def test_cone_whole_ring(xy):
    ctx, x, y = xy
    cone = tangent_cone_at_infinity([x, constant(ctx, 2)], GREVLEX)
    assert cone.generators.generators == (constant(ctx, 1),)
    # empty cone variety: even the origin is excluded
    assert not cone_membership(cone, (0, 0))


# -- membership ---------------------------------------------------------------


def test_cone_membership_five_lines(five_lines):
    ctx, f1, f2 = five_lines
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    for v in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1)]:
        assert cone_membership(cone, v)
    for v in [(1, 1, 0), (1, 0, 1)]:
        assert not cone_membership(cone, v)


def test_cone_membership_arity(five_lines):
    ctx, f1, f2 = five_lines
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    with pytest.raises(ValueError, match="point has 2 entries, expected 3"):
        cone_membership(cone, (0, 0))


def fraction_membership(cone, v):
    """The reference route: every generator evaluated in Fractions."""
    return all(evaluate_exact(g, v) == 0 for g in cone.generators)


def random_entry(rng):
    """Zero, a small int, a rational, a numerator near 10**30 or a float."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 60))
    if kind == 3:
        sign = rng.choice([-1, 1])
        return Fraction(sign * (10**30 + rng.randint(0, 10**6)), rng.randint(1, 10**6))
    return rng.uniform(-10, 10)


def membership_points(rng, n, lines=(), count=40):
    """The origin, nonzero multiples of the given lines of the cone, and
    random points with about half their entries zero."""
    points = [(0,) * n]
    for line in lines:
        for _ in range(4):
            lam = 0
            while not lam:
                lam = random_entry(rng)
            points.append(tuple(lam * c for c in line))
    for _ in range(count):
        points.append(tuple(random_entry(rng) if rng.random() < 0.5 else 0
                            for _ in range(n)))
    return points


def test_cone_membership_matches_fraction_route(five_lines, xy):
    _, f1, f2 = five_lines
    _, x, y = xy
    cases = [
        ("fivelines", [f1, f2], [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, -1)]),
        ("cusp", [x**2 - y**3], [(1, 0)]),
        ("cyclic4", cyclic(4), [(1, 0, -1, 0), (0, 1, 0, -1)]),
        ("katsura3", katsura(3), []),
    ]
    for name, F, lines in cases:
        cone = tangent_cone_at_infinity(F, GREVLEX)
        rng = random.Random(name)
        answers = set()
        for v in membership_points(rng, cone.generators.context.n, lines, count=150):
            answer = cone_membership(cone, v)
            assert answer == fraction_membership(cone, v), (name, v)
            answers.add(answer)
        assert answers == {True, False}, name


def test_cone_membership_matches_fraction_route_on_dense_ideals():
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(17)
    answers = []
    for _ in range(40):
        F = [random_poly(ctx, rng, max_degree=4, max_terms=5) for _ in range(rng.randint(1, 3))]
        if all(f.is_zero() for f in F):
            continue
        cone = tangent_cone_at_infinity(F, GREVLEX)
        for v in membership_points(rng, 3, count=15):
            answers.append(cone_membership(cone, v))
            assert answers[-1] == fraction_membership(cone, v), (F, v)
    assert 50 < answers.count(True) < len(answers) - 50


def hand_built_cone(gens):
    basis = Basis(tuple(gens), GREVLEX)
    return ConeDescription(generators=basis, source_basis=basis)


def test_cone_membership_non_homogeneous_generators(xy):
    # D = 4 at (1/2, 1/4): the integer point (2, 1) alone would give
    # 2**2 - 1 = 3; the power D**(2 - 1) on y makes it 4 - 4 = 0.
    _, x, y = xy
    cone = hand_built_cone([x**2 - y])
    assert cone_membership(cone, (Fraction(1, 2), Fraction(1, 4)))
    assert cone_membership(cone, (0.5, 0.25))
    assert not cone_membership(cone, (Fraction(1, 2), Fraction(1, 3)))
    assert not cone_membership(cone, (2, 1))


def test_cone_membership_planted_rational_zeros():
    # Generators f - f(p) of mixed degrees all vanish at p; other points
    # and multiples of p are mostly off their common zero set.
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(23)
    answers = []
    for _ in range(60):
        p = tuple(random_entry(rng) for _ in range(3))
        gens = [f - evaluate_exact(f, p) for f in
                (random_poly(ctx, rng, max_degree=5) for _ in range(rng.randint(1, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        cone = hand_built_cone(gens)
        assert cone_membership(cone, p)
        points = [tuple(2 * Fraction(c) for c in p)] + membership_points(rng, 3, count=5)
        for v in points:
            answers.append(cone_membership(cone, v))
            assert answers[-1] == fraction_membership(cone, v), (gens, v)
    assert False in answers


def test_cone_membership_scale_invariant(five_lines):
    ctx, f1, f2 = five_lines
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    rng = random.Random(8)
    points = [(0, 0, 1), (0, 1, 1), (1, 1, 0), (2, 3, 5), (0, 2, 1)]
    for v in points:
        for _ in range(10):
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
            scaled = tuple(lam * Fraction(c) for c in v)
            assert cone_membership(cone, scaled) == cone_membership(cone, v)


def test_cone_monotone_under_extra_generators(five_lines):
    # a larger ideal (smaller variety) never gains cone members
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    small = tangent_cone_at_infinity([f1, f2], GREVLEX)
    large = tangent_cone_at_infinity([f1, f2, y - z], GREVLEX)
    points = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1),
              (1, 1, 0), (1, 2, 3), (0, 2, 1)]
    for v in points:
        if cone_membership(large, v):
            assert cone_membership(small, v)


def test_principal_ideal_cone_is_leading_form():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(77)
    done = 0
    while done < 20:
        f = random_poly(ctx, rng, max_degree=5)
        if f.is_zero() or f.is_constant():
            continue
        cone = tangent_cone_at_infinity([f], GREVLEX)
        assert ideal_equal(list(cone.generators.generators), [leading_form(f)], GREVLEX)
        done += 1


# -- the naive construction and its failure -----------------------------------


def test_naive_set_five_lines(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    naive = naive_leading_form_set([f1, f2])
    assert naive == [x * y, x**3 * z]


def test_naive_separation_witness(five_lines):
    # (0,2,1) kills both naive forms but not the extra cone generator
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    witness = (0, 2, 1)
    for g in naive_leading_form_set([f1, f2]):
        assert evaluate_exact(g, witness) == 0
    extra = y * z * (y**2 - z**2)
    assert evaluate_exact(extra, witness) == 6
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    assert not cone_membership(cone, witness)


def test_naive_contains_cone(five_lines):
    # wherever cone membership holds, every naive form vanishes
    ctx, f1, f2 = five_lines
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    naive = naive_leading_form_set([f1, f2])
    for v in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1), (0, 0, 0)]:
        if cone_membership(cone, v):
            assert all(evaluate_exact(g, v) == 0 for g in naive)


def test_naive_single_generator_matches_cone(xy):
    ctx, x, y = xy
    f = x**2 - y**3
    naive = naive_leading_form_set([f])
    cone = tangent_cone_at_infinity([f], GREVLEX)
    assert ideal_equal(naive, list(cone.generators.generators), GREVLEX)
