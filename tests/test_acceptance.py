"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run).
"""

import contextlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from tcone.cli import main
from tcone.cone import cone_membership, naive_leading_form_set, tangent_cone_at_infinity
from tcone.groebner import (
    buchberger,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    normal_form,
    s_polynomial,
)
from tcone.numeric import (
    TSchedule,
    distance_ratio_report,
    loj_ratio_schedule,
    sample_far_directions,
)
from tcone.polyring import (
    GREVLEX,
    VariableContext,
    evaluate_exact,
    leading_form,
    variables,
)

from conftest import homogenize, restrict_infinity
from test_polyring import random_poly

DATA = Path(__file__).parent / "data"
FIVELINES = str(DATA / "fivelines.ideal")

# frozen from the one-dimensional oracle min_s sqrt(s^4 + (s^3 - t)^2)
# (see test_numeric.branch_distance_oracle)
BRANCH_DIST = {10.0: 4.4247678036516485, 100.0: 21.32327465884354,
               1000.0: 99.77802487395128}


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    print(f"criterion {num:2d} PASS  {label}")


def five_lines_generators():
    ctx = VariableContext(("x", "y", "z"))
    x, y, z = variables(ctx)
    return ctx, x * y, z * (x**3 - y**2 + z**2)


def test_criterion_1_groebner_basis_of_five_lines():
    with criterion(1, "reduced grevlex basis of the five-lines ideal in < 1 s"):
        ctx, f1, f2 = five_lines_generators()
        x, y, z = variables(ctx)
        started = time.perf_counter()
        basis = buchberger([f1, f2], GREVLEX)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        expected = {x * y, x**3 * z - y**2 * z + z**3, y**3 * z - y * z**3}
        assert set(basis.generators) == expected


def test_criterion_2_cone_of_five_lines():
    with criterion(2, "cone ideal and the five line directions"):
        ctx, f1, f2 = five_lines_generators()
        x, y, z = variables(ctx)
        cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
        expected = [x * y, x**3 * z, y * z * (y**2 - z**2)]
        assert ideal_equal(list(cone.generators.generators), expected, GREVLEX)
        for v in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1)]:
            assert cone_membership(cone, v)
        for v in [(1, 1, 0), (1, 0, 1)]:
            assert not cone_membership(cone, v)


def test_criterion_3_naive_set_separation():
    with criterion(3, "naive leading forms vanish at (0,2,1), cone generator gives 6"):
        ctx, f1, f2 = five_lines_generators()
        x, y, z = variables(ctx)
        witness = (0, 2, 1)
        for g in naive_leading_form_set([f1, f2]):
            assert evaluate_exact(g, witness) == 0
        assert evaluate_exact(y * z * (y**2 - z**2), witness) == 6


def test_criterion_4_certificate_identity():
    with criterion(4, "yz(y^2-z^2) = z*x^2*f1 - y*f2 and lies in the ideal"):
        ctx, f1, f2 = five_lines_generators()
        x, y, z = variables(ctx)
        f = y * z * (y**2 - z**2)
        assert z * x**2 * f1 - y * f2 == f
        assert ideal_member(f, buchberger([f1, f2], GREVLEX))


def test_criterion_5_cusp():
    with criterion(5, "cone of the cusp is {y = 0}"):
        ctx = VariableContext(("x", "y"))
        x, y = variables(ctx)
        cone = tangent_cone_at_infinity([x**2 - y**3], GREVLEX)
        assert cone.generators.generators == (y**3,)
        assert cone_membership(cone, (1, 0))
        assert cone_membership(cone, (Fraction(-5, 7), 0))
        assert not cone_membership(cone, (0, 1))


def test_criterion_6_union_and_intersection_of_line_and_parabola():
    with criterion(6, "cones of the union and of the intersection ideals"):
        ctx = VariableContext(("x", "y"))
        x, y = variables(ctx)
        union_ideal = ideal_intersect([x], [y - x**2])
        union_cone = tangent_cone_at_infinity(union_ideal, GREVLEX)
        assert ideal_equal(list(union_cone.generators.generators), [x**3], GREVLEX)
        assert cone_membership(union_cone, (0, 1))
        assert not cone_membership(union_cone, (1, 0))

        sum_cone = tangent_cone_at_infinity([x, y - x**2], GREVLEX)
        assert set(sum_cone.generators.generators) == {x, y}
        assert cone_membership(sum_cone, (0, 0))
        for v in [(0, 1), (1, 0), (3, -2)]:
            assert not cone_membership(sum_cone, v)


def test_criterion_7_two_path_equality():
    with criterion(7, "restrict(homogenize(f)) == leading_form(f) on 200+ random f"):
        rng = random.Random(2026)
        checked = 0
        contexts = [VariableContext(("x",)), VariableContext(("x", "y")),
                    VariableContext(("x", "y", "z"))]
        while checked < 200:
            ctx = contexts[rng.randrange(len(contexts))]
            f = random_poly(ctx, rng, max_degree=6, max_terms=7)
            if f.is_zero():
                continue
            assert restrict_infinity(homogenize(f, "_h"), "_h") == leading_form(f)
            checked += 1


def test_criterion_8_groebner_soundness():
    with criterion(8, "S-polynomials and inputs reduce to zero; permutation-stable"):
        ctx3 = VariableContext(("x", "y", "z"))
        x3, y3, z3 = variables(ctx3)
        ctx2 = VariableContext(("x", "y"))
        x2, y2 = variables(ctx2)
        ideals = [
            [x3 * y3, z3 * (x3**3 - y3**2 + z3**2)],
            [x2**2 - y2**3],
            [x2, y2 - x2**2],
            ideal_intersect([x2], [y2 - x2**2]),
        ]
        for gens in ideals:
            basis = buchberger(gens, GREVLEX)
            for f in gens:
                assert normal_form(f, basis).is_zero()
            for g, h in itertools.combinations(basis.generators, 2):
                assert normal_form(s_polynomial(g, h, GREVLEX), basis).is_zero()
            for perm in itertools.permutations(gens):
                assert buchberger(list(perm), GREVLEX).generators == basis.generators


def test_criterion_9_ratio_schedules_and_exit_codes(capsys):
    with criterion(9, "ratio r(t) = t^(-1/4) passes, (1,1,0) plateaus at 1, exits 0/2"):
        ctx, f1, f2 = five_lines_generators()
        basis = buchberger([f1, f2], GREVLEX)
        sched = TSchedule(10, 10, 5)

        passing = loj_ratio_schedule(basis.generators, (0, 0, 1), sched)
        assert passing.verdict == "pass"
        for t, r in passing.samples:
            assert abs(r - t**-0.25) <= 1e-9 * t**-0.25

        failing = loj_ratio_schedule(basis.generators, (1, 1, 0), sched)
        assert failing.verdict == "fail"
        for _, r in failing.samples:
            assert abs(r - 1.0) <= 0.1

        code_pass = main(["verify", "ratio", FIVELINES, "--direction", "0,0,1",
                          "--t0", "10", "--factor", "10", "--steps", "5"])
        code_fail = main(["verify", "ratio", FIVELINES, "--direction", "1,1,0",
                          "--t0", "10", "--factor", "10", "--steps", "5"])
        capsys.readouterr()
        assert code_pass == 0
        assert code_fail == 2


def test_criterion_10_distance_schedules():
    with criterion(10, "distance ratios halve per decade; on-ray 0; (1,1,0) fails"):
        ctx, f1, f2 = five_lines_generators()
        basis = buchberger([f1, f2], GREVLEX)
        sched = TSchedule(10, 10, 3)

        report = distance_ratio_report(basis.generators, (0, 0, 1), sched)
        assert report.verdict == "pass"
        ratios = [r for _, r in report.samples]
        assert ratios[1] <= 0.5 * ratios[0]
        assert ratios[2] <= 0.5 * ratios[1]
        for (t, r) in report.samples:
            # the bound can never undershoot the frozen branch-distance oracle
            assert r * t >= BRANCH_DIST[t] * (1 - 1e-6)

        on_ray = distance_ratio_report(basis.generators, (0, 1, 1), sched)
        assert on_ray.verdict == "pass"
        assert all(r < 1e-6 for _, r in on_ray.samples)

        off_cone = distance_ratio_report(basis.generators, (1, 1, 0), sched)
        assert off_cone.verdict == "fail"
        assert all(r >= 0.5 for _, r in off_cone.samples)


def test_criterion_11_far_point_sampling():
    with criterion(11, "cusp far directions: 95% below thresholds at R = 1e6"):
        ctx = VariableContext(("x", "y"))
        x, y = variables(ctx)
        samples = sample_far_directions(x**2 - y**3, 1e6, 100, seed=42)
        assert samples.directions
        good = sum(1 for u in samples.directions
                   if abs(u[1]) < 0.05 and abs(u[1])**3 < 1e-2)
        assert good / len(samples.directions) >= 0.95


def test_criterion_12_cli_golden_stability(capsys):
    with criterion(12, "byte-identical JSON across consecutive CLI runs"):
        cases = [
            ["gb", FIVELINES, "--json"],
            ["cone", FIVELINES, "--json"],
            ["verify", "ratio", FIVELINES, "--direction", "0,0,1",
             "--t0", "10", "--factor", "10", "--steps", "5", "--json"],
        ]
        for args in cases:
            code1 = main(args)
            first = capsys.readouterr().out
            code2 = main(args)
            second = capsys.readouterr().out
            assert code1 == code2 == 0
            assert first == second
            json.loads(first)  # well-formed
