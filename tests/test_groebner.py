import itertools
import json
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from pathlib import Path

import pytest

from tcone import groebner
from tcone.groebner import (
    BasisLimitError,
    ZeroIdealError,
    buchberger,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from tcone.polyring import (
    ELIM_FIRST,
    GREVLEX,
    ORDERS_BY_NAME,
    MonomialOrder,
    Polynomial,
    VariableContext,
    constant,
    leading_term,
    variables,
    zero,
)
from tcone.textio import render_polynomial

from conftest import cyclic, katsura
from test_polyring import random_poly

GOLDEN = Path(__file__).parent / "golden"


# -- normal form ----------------------------------------------------------


def test_normal_form_generator_reduces_to_zero(five_lines):
    ctx, f1, f2 = five_lines
    assert normal_form(f1, [f1, f2], GREVLEX).is_zero()


def test_normal_form_member_with_nonzero_remainder(five_lines):
    # y^3 z - y z^3 lies in <f1, f2> but neither leading monomial divides
    # its monomials, so {f1, f2} is not a Groebner basis
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    member = y**3 * z - y * z**3
    assert normal_form(member, [f1, f2], GREVLEX) == member
    assert ideal_member(member, buchberger([f1, f2], GREVLEX))


def test_normal_form_multiple_of_generator(xy):
    ctx, x, y = xy
    assert normal_form(x * (x * y), [x * y], GREVLEX).is_zero()


def test_normal_form_idempotent():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(17)
    gens = [random_poly(ctx, rng, max_degree=3) for _ in range(8)]
    gens = [g for g in gens if not g.is_zero()][:3]
    for _ in range(40):
        f = random_poly(ctx, rng, max_degree=5)
        r = normal_form(f, gens, GREVLEX)
        assert normal_form(r, gens, GREVLEX) == r


def test_normal_form_term_cancels_then_returns(xyz):
    # Reducing x^2 by the first divisor cancels the -z^2 of f; reducing
    # x*y by the second brings z^2 back: f - g1 - g2 = z^2.
    ctx, x, y, z = xyz
    f = x**2 + x * y - z**2
    assert normal_form(f, [x**2 - z**2, x * y - z**2], GREVLEX) == z**2


def rational_normal_form(f, divisors, order):
    """Division on Fraction coefficients, kept as an oracle.

    The same loop as normal_form, without clearing denominators: the
    workspace is drained largest term first, divisors are tried in list
    order, and each reduction subtracts (c / gc) * q * g.
    """
    lts = [leading_term(g, order) for g in divisors]
    p = dict(f.terms)
    heap = [(tuple(map(neg, order.key(m))), m) for m in p]
    heapify(heap)
    remainder = {}
    while heap:
        m = heappop(heap)[1]
        c = p.pop(m)
        if not c:
            continue
        for g, (gm, gc) in zip(divisors, lts):
            if all(map(le, gm, m)):
                q = tuple(map(sub, m, gm))
                factor = c / gc
                for tm, tc in g.terms.items():
                    if tm == gm:
                        continue
                    t = tuple(map(add, tm, q))
                    s = p.get(t)
                    if s is None:
                        p[t] = -factor * tc
                        heappush(heap, (tuple(map(neg, order.key(t))), t))
                    else:
                        p[t] = s - factor * tc
                break
        else:
            remainder[m] = c
    return Polynomial(f.context, remainder)


ORACLE_ORDERS = [ORDERS_BY_NAME["lex"], ORDERS_BY_NAME["grlex"], GREVLEX, ELIM_FIRST]


def assert_same_remainder(f, divisors, order):
    r = normal_form(f, divisors, order)
    expected = rational_normal_form(f, divisors, order)
    # the same terms in the same order: numeric evaluation sums in term order
    assert list(r.terms.items()) == list(expected.terms.items()), (f, divisors, order)
    return r


@pytest.mark.parametrize("order", ORACLE_ORDERS, ids=lambda o: o.kind)
def test_normal_form_matches_rational_division(order):
    rng = random.Random(2023)
    for names in [("x", "y"), ("x", "y", "z")]:
        ctx = VariableContext(names)
        for _ in range(60):
            divisors = [random_poly(ctx, rng, max_degree=3, max_terms=4)
                        for _ in range(rng.randint(1, 4))]
            divisors = [g for g in divisors if not g.is_zero()]
            assert_same_remainder(random_poly(ctx, rng, max_degree=6, max_terms=8),
                                  divisors, order)


@pytest.mark.parametrize("order", ORACLE_ORDERS, ids=lambda o: o.kind)
def test_normal_form_edge_cases_match_rational_division(xyz, order):
    ctx, x, y, z = xyz
    f = Fraction(2, 3) * x**3 * y - Fraction(5, 4) * y**2 * z**2 + 7 * x * z - Fraction(1, 9)
    # leading coefficients that clear to integers other than 1, and negative ones
    awkward = [Fraction(6, 5) * x**2 - Fraction(3, 7) * y * z + 2,
               -Fraction(9, 4) * y**2 + Fraction(1, 6) * x * z,
               -15 * z**2 + 10 * x - 3]
    r = assert_same_remainder(f, awkward, order)
    assert not r.is_zero()
    assert assert_same_remainder(zero(ctx), awkward, order).is_zero()
    assert assert_same_remainder(f, [], order) == f
    multiple = (Fraction(3, 2) * x * y - z) * awkward[1]
    assert assert_same_remainder(multiple, awkward[1:2], order).is_zero()


# -- s-polynomials ---------------------------------------------------------


def test_s_polynomial_of_input_pair(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    s = s_polynomial(f1, f2, GREVLEX)
    assert s == y**3 * z - y * z**3
    assert s == z * x**2 * f1 - y * f2


def test_s_polynomial_self_is_zero(xy):
    ctx, x, y = xy
    assert s_polynomial(x * y + y, x * y + y, GREVLEX).is_zero()


def test_s_polynomial_coprime_pair_reduces(xy):
    ctx, x, y = xy
    s = s_polynomial(x, y, GREVLEX)
    assert normal_form(s, [x, y], GREVLEX).is_zero()


# -- buchberger ------------------------------------------------------------


def test_buchberger_single_generator(xy):
    ctx, x, y = xy
    basis = buchberger([x**2 - y**3], GREVLEX)
    # monic leading coefficient flips the sign
    assert basis.generators == (y**3 - x**2,)


def test_buchberger_five_lines(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    basis = buchberger([f1, f2], GREVLEX)
    expected = {x * y, x**3 * z - y**2 * z + z**3, y**3 * z - y * z**3}
    assert set(basis.generators) == expected
    # ascending by leading monomial
    lms = [leading_term(g, GREVLEX)[0] for g in basis]
    assert lms == sorted(lms, key=GREVLEX.key)


def test_buchberger_line_and_parabola(xy):
    ctx, x, y = xy
    basis = buchberger([x, y - x**2], GREVLEX)
    assert set(basis.generators) == {x, y}


@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_buchberger_matches_golden_bases(standard_system, kind):
    name, F = standard_system
    golden = json.loads((GOLDEN / "buchberger_systems.json").read_text())
    basis = buchberger(F, ORDERS_BY_NAME[kind])
    assert [render_polynomial(g, basis.order) for g in basis] == golden[f"{name}/{kind}"]


def seeded_intersection_pair(seed):
    """Two ideals of two seeded nonconstant generators each in x, y, z."""
    rng = random.Random(seed)
    ctx = VariableContext(("x", "y", "z"))
    polys = []
    while len(polys) < 4:
        f = random_poly(ctx, rng, max_degree=3, max_terms=3)
        if not f.is_constant():
            polys.append(f)
    return polys[:2], polys[2:]


def test_buchberger_matches_golden_large_bases():
    golden = json.loads((GOLDEN / "buchberger_large.json").read_text())
    for name, F in [("katsura4", katsura(4)), ("cyclic5", cyclic(5))]:
        basis = buchberger(F, GREVLEX)
        assert [render_polynomial(g, GREVLEX) for g in basis] == golden[f"{name}/grevlex"]
    inter = ideal_intersect(*seeded_intersection_pair(6))
    assert [render_polynomial(g, GREVLEX) for g in inter] == golden["intersect/seed6"]


def test_buchberger_constant_generator(xy):
    ctx, x, y = xy
    basis = buchberger([x, constant(ctx, 3)], GREVLEX)
    assert basis.generators == (constant(ctx, 1),)


def test_buchberger_zero_ideal(xy):
    ctx, x, y = xy
    with pytest.raises(ZeroIdealError):
        buchberger([zero(ctx)], GREVLEX)
    with pytest.raises(ZeroIdealError):
        buchberger([], GREVLEX)


def test_unknown_order_kind_is_a_value_error(xy):
    ctx, x, y = xy
    bogus = MonomialOrder("bogus")
    calls = [lambda: buchberger([x * y - 1], bogus),
             lambda: normal_form(x**2, [x * y - 1], bogus),
             lambda: reduce_basis([x * y - 1], bogus)]
    for call in calls:
        with pytest.raises(ValueError, match="^unknown order kind 'bogus'$"):
            call()


def test_buchberger_skips_zero_entries(xy):
    ctx, x, y = xy
    assert buchberger([zero(ctx), x], GREVLEX).generators == (x,)


def test_buchberger_soundness(five_lines, xy):
    ctx2, x2, y2 = xy
    ideals = [
        list(five_lines[1:]),
        [x2, y2 - x2**2],
        [x2**2 - y2**3],
        [x2 * y2 - 1, x2**2 + y2**2 - 4],
    ]
    for gens in ideals:
        basis = buchberger(gens, GREVLEX)
        for f in gens:
            assert normal_form(f, basis).is_zero()
        for g, h in itertools.combinations(basis.generators, 2):
            assert normal_form(s_polynomial(g, h, GREVLEX), basis).is_zero()


def test_buchberger_random_ideals_are_groebner():
    # guards the pair-pruning criteria: every output must pass the
    # s-polynomial test outright
    rng = random.Random(53)
    for names in [("x", "y"), ("x", "y", "z")]:
        ctx = VariableContext(names)
        done = 0
        while done < 10:
            gens = [random_poly(ctx, rng, max_degree=3, max_terms=3)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = buchberger(gens, GREVLEX)
            for f in gens:
                assert normal_form(f, basis).is_zero()
            for g, h in itertools.combinations(basis.generators, 2):
                assert normal_form(s_polynomial(g, h, GREVLEX), basis).is_zero()
            done += 1


def test_buchberger_permutation_invariance(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    gens = [f1, f2, y**3 * z - y * z**3]
    reference = buchberger(gens, GREVLEX).generators
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm), GREVLEX).generators == reference


def test_buchberger_converts_each_input_to_integers_once(monkeypatch):
    # The elements buchberger derives stay integer reducers until the
    # output is built, so the Fraction-to-integer conversion sees only the
    # nonzero inputs, each once, in input order.
    F = katsura(4)
    F.insert(2, zero(F[0].context))
    seen = []
    convert = groebner._integer_terms

    def counted(f):
        seen.append(f)
        return convert(f)

    monkeypatch.setattr(groebner, "_integer_terms", counted)
    basis = buchberger(F, GREVLEX)
    assert [id(f) for f in seen] == [id(f) for f in F if f]
    assert len(basis) > len(seen)  # elements were derived, none converted


def test_buchberger_stops_past_the_basis_cap(monkeypatch):
    # katsura-3 peaks at 9 elements before its reduced basis of 7.
    monkeypatch.setattr(groebner, "_MAX_BASIS", 8)
    with pytest.raises(BasisLimitError, match="passed 8 elements"):
        buchberger(katsura(3), GREVLEX)
    monkeypatch.setattr(groebner, "_MAX_BASIS", 9)
    assert len(buchberger(katsura(3), GREVLEX)) == 7


def test_buchberger_stops_past_the_deadline(monkeypatch):
    monkeypatch.setattr(groebner, "_DEADLINE_S", -1.0)  # already passed at the start
    with pytest.raises(BasisLimitError, match="not done after"):
        buchberger(katsura(3), GREVLEX)
    x, y = variables(VariableContext(("x", "y")))
    # With no pair and no reduction to run, the clock is never read.
    assert buchberger([x**2 - y, 0 * x], GREVLEX).generators == (x**2 - y,)


def test_reduction_checks_the_deadline_at_each_step():
    # One reduction can run for minutes (katsura-4 under lex), so the
    # deadline is looked at inside it, not only between reductions.
    x = ((1, 0), 1, (((0, 0), -1),))  # the reducer of x - 1
    with pytest.raises(BasisLimitError):
        groebner._reduce({(2, 0): 1}, [x], GREVLEX.negated_key, deadline=0.0)
    assert groebner._reduce({(2, 0): 1}, [x], GREVLEX.negated_key) == ({(0, 0): 1}, 1)


# -- reduce_basis ------------------------------------------------------------


def test_reduce_basis_drops_redundant(xy):
    ctx, x, y = xy
    basis = reduce_basis([x, y - x**2, y], GREVLEX)
    assert set(basis.generators) == {x, y}


def test_reduce_basis_idempotent(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    again = reduce_basis(list(basis.generators), GREVLEX)
    assert again.generators == basis.generators


def test_reduce_basis_monic(xy):
    ctx, x, y = xy
    basis = reduce_basis([2 * x], GREVLEX)
    assert basis.generators == (x,)


def test_reduce_basis_reuses_the_reducers_of_a_basis(five_lines, monkeypatch):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    normal_form(f1, basis)  # builds the basis's reducers
    monkeypatch.setattr(groebner, "_integer_terms", None)  # no conversion left to run
    assert reduce_basis(basis, GREVLEX) == basis


# -- ideal membership and equality -------------------------------------------


def test_ideal_member_certificate_polynomial(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    basis = buchberger([f1, f2], GREVLEX)
    assert ideal_member(y * z * (y**2 - z**2), basis)


def test_ideal_member_unit_not_in_proper_ideal(xy):
    ctx, x, y = xy
    basis = buchberger([x, y], GREVLEX)
    assert not ideal_member(constant(ctx, 1), basis)


def test_ideal_member_generator(xy):
    ctx, x, y = xy
    assert ideal_member(x, buchberger([x], GREVLEX))


def test_ideal_equal_five_lines(five_lines):
    ctx, f1, f2 = five_lines
    x, y, z = variables(ctx)
    gb = [x * y, x**3 * z - y**2 * z + z**3, y**3 * z - y * z**3]
    assert ideal_equal([f1, f2], gb, GREVLEX)


def test_ideal_equal_distinguishes_powers(xy):
    ctx, x, y = xy
    assert not ideal_equal([x], [x**2], GREVLEX)


def test_ideal_equal_under_permutation(xy):
    ctx, x, y = xy
    assert ideal_equal([x * y - 1, x**2], [x**2, x * y - 1], GREVLEX)


# -- ideal intersection -------------------------------------------------------


def test_ideal_intersect_line_parabola(xy):
    ctx, x, y = xy
    result = ideal_intersect([x], [y - x**2])
    expected = x * y - x**3
    assert ideal_equal(result, [expected], GREVLEX)
    basis = buchberger(result, GREVLEX)
    assert ideal_member(expected, basis)


def test_ideal_intersect_self(xy):
    ctx, x, y = xy
    result = ideal_intersect([x], [x])
    assert ideal_equal(result, [x], GREVLEX)


def test_ideal_intersect_with_whole_ring(xy):
    ctx, x, y = xy
    result = ideal_intersect([x, y], [constant(ctx, 1)])
    assert ideal_equal(result, [x, y], GREVLEX)


def test_ideal_intersect_members_lie_in_both():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(23)
    done = 0
    while done < 12:
        f = random_poly(ctx, rng, max_degree=3, max_terms=3)
        g = random_poly(ctx, rng, max_degree=3, max_terms=3)
        if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
            continue
        inter = ideal_intersect([f], [g])
        bf = buchberger([f], GREVLEX)
        bg = buchberger([g], GREVLEX)
        for h in inter:
            assert ideal_member(h, bf)
            assert ideal_member(h, bg)
        binter = buchberger(inter, GREVLEX)
        assert ideal_member(f * g, binter)
        done += 1


# -- brute-force membership oracle --------------------------------------------


def all_monomials_upto(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]


def cofactor_membership(f, gens, bound=4):
    """Does f = sum h_i g_i admit multipliers of degree <= bound?

    Sets up the exact linear system in the multiplier coefficients and
    solves by Gaussian elimination over the rationals.
    """
    ctx = f.context
    cols = []
    multiplier_monos = all_monomials_upto(ctx.n, bound)
    for g in gens:
        for m in multiplier_monos:
            cols.append(Polynomial(ctx, {tuple(map(add, mm, m)): c
                                         for mm, c in g.terms.items()}))
    row_monos = sorted({mm for p in cols + [f] for mm in p.terms},
                       key=GREVLEX.key)
    index = {m: i for i, m in enumerate(row_monos)}
    matrix = [[Fraction(0)] * (len(cols) + 1) for _ in row_monos]
    for j, p in enumerate(cols):
        for m, c in p.terms.items():
            matrix[index[m]][j] = c
    for m, c in f.terms.items():
        matrix[index[m]][len(cols)] = c
    # Gaussian elimination; consistent iff no pivot in the last column
    rows = len(matrix)
    pivot_row = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(pivot_row, rows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        pv = matrix[pivot_row][col]
        matrix[pivot_row] = [v / pv for v in matrix[pivot_row]]
        for r in range(rows):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
        if pivot_row == rows:
            break
    for r in range(pivot_row, rows):
        if matrix[r][len(cols)] != 0:
            return False
    return all(any(matrix[r][c] != 0 for c in range(len(cols)))
               or matrix[r][len(cols)] == 0 for r in range(rows))


def test_ideal_member_agrees_with_cofactor_search():
    ctx = VariableContext(("x", "y"))
    rng = random.Random(41)
    cases = 0
    while cases < 25:
        gens = [random_poly(ctx, rng, max_degree=2, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens or any(g.is_constant() for g in gens):
            continue
        f = random_poly(ctx, rng, max_degree=2, max_terms=3)
        if f.is_zero():
            continue
        if rng.random() < 0.5:
            # plant a known member
            f = sum((random_poly(ctx, rng, max_degree=2, max_terms=2) * g
                     for g in gens), zero(ctx))
            if f.is_zero():
                continue
        basis = buchberger(gens, GREVLEX)
        assert ideal_member(f, basis) == cofactor_membership(f, gens, bound=4)
        cases += 1


def test_division_input_errors(xy):
    ctx, x, y = xy
    (u,) = variables(VariableContext(("u",)))
    with pytest.raises(ZeroIdealError, match="^zero divisor polynomial$"):
        normal_form(x, [x, zero(ctx)], GREVLEX)
    with pytest.raises(ValueError, match="^generators from different contexts$"):
        normal_form(x, [u], GREVLEX)
    with pytest.raises(ValueError, match="^order required when divisors are a plain sequence$"):
        normal_form(x, [y])
    with pytest.raises(ZeroIdealError, match="^s-polynomial of a zero polynomial$"):
        s_polynomial(x, zero(ctx), GREVLEX)


def test_zero_ideal_errors(xy):
    ctx, x, y = xy
    with pytest.raises(ZeroIdealError, match="^zero ideal$"):
        reduce_basis([zero(ctx)], GREVLEX)
    with pytest.raises(ZeroIdealError, match="^zero ideal$"):
        ideal_intersect([zero(ctx)], [x])


def test_intersect_picks_a_fresh_auxiliary_name():
    # "_w" is taken, so the auxiliary variable is "__w".
    ctx = VariableContext(("_w", "x"))
    w, x = variables(ctx)
    assert groebner._fresh_name(ctx.names, "w") == "__w"
    assert ideal_intersect([w], [x]) == [w * x]
