import cmath
import functools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from tcone import numeric
from tcone.groebner import buchberger
from tcone.numeric import (
    EvaluationOverflowError,
    TSchedule,
    estimate_distance_upper,
    evaluate_complex,
    far_sample_report,
    distance_ratio_report,
    loj_ratio_schedule,
    roots_univariate,
    sample_far_directions,
    substitute_partial,
)
from tcone.polyring import (
    GREVLEX,
    VariableContext,
    differentiate,
    evaluate_exact,
    leading_form,
    total_degree,
    variables,
)

from test_polyring import random_poly

# distance from (0,0,t) to the curve branch (-s^2, 0, s^3), computed by
# one-dimensional minimization of s^4 + (s^3 - t)^2 over real s
BRANCH_DIST = {10.0: 4.4247678036516485, 100.0: 21.32327465884354,
               1000.0: 99.77802487395128}


def branch_distance_oracle(t):
    """Ternary search for min_s sqrt(s^4 + (s^3 - t)^2), s >= 0."""

    def h(s):
        return s**4 + (s**3 - t) ** 2

    lo, hi = 0.0, 2.0 * t ** (1.0 / 3.0)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if h(m1) < h(m2):
            hi = m2
        else:
            lo = m1
    return math.sqrt(h((lo + hi) / 2))


def test_branch_oracle_matches_frozen_values():
    for t, expected in BRANCH_DIST.items():
        assert abs(branch_distance_oracle(t) - expected) < 1e-9 * expected


# -- complex evaluation ----------------------------------------------------


def test_evaluate_complex_witness_value(xyz):
    ctx, x, y, z = xyz
    f = y * z * (y**2 - z**2)
    assert evaluate_complex(f, (0, 2, 1)) == 6 + 0j


def test_evaluate_complex_on_axis(xyz):
    ctx, x, y, z = xyz
    assert evaluate_complex(x * y, (0, 0, 10)) == 0
    g2 = x**3 * z - y**2 * z + z**3
    assert abs(evaluate_complex(g2, (0, 0, 10))) == 1000.0


def test_evaluate_complex_agrees_with_exact():
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(6)
    for _ in range(80):
        f = random_poly(ctx, rng)
        point = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
                 for _ in range(3)]
        exact = evaluate_exact(f, point)
        approx = evaluate_complex(f, tuple(complex(p) for p in point))
        assert abs(approx - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def term_loop_evaluate(f, point):
    """Reference: the per-term loop over f.terms, converting as it goes."""
    total = 0j
    for e, c in f.terms.items():
        v = complex(float(c))
        for x, k in zip(point, e):
            if k:
                v *= complex(x) ** k
        total += v
    return total


def test_evaluate_complex_bit_identical_to_term_loop():
    # reports rely on compiled evaluation repeating this arithmetic exactly
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(11)
    for _ in range(80):
        f = random_poly(ctx, rng)
        point = tuple(complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
                      for _ in range(3))
        assert evaluate_complex(f, point) == term_loop_evaluate(f, point)


def bits(z):
    """The IEEE bits of a complex value, so that signed zeros count."""
    return struct.pack("dd", z.real, z.imag)


def test_generated_evaluator_bit_identical_to_term_loop():
    # the estimator evaluates several polynomials with one generated function
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(12)
    for _ in range(80):
        fs = [random_poly(ctx, rng) for _ in range(rng.randint(1, 4))]
        point = tuple(complex(rng.choice((rng.uniform(-50, 50), 0.0, -0.0)),
                              rng.choice((rng.uniform(-50, 50), 0.0, -0.0)))
                      for _ in range(3))
        evaluate = numeric._evaluator([numeric._compile(f) for f in fs], 3)
        assert [bits(v) for v in evaluate(*point)] == [bits(term_loop_evaluate(f, point))
                                                       for f in fs]


def test_generated_evaluator_overflow(xy):
    ctx, x, y = xy
    fine = x + y
    for overflowing, point in ((x**3, (1e200, 0)),  # the power overflows
                               (Fraction(10**400) * x + y, (0, 1))):  # the coefficient
        evaluate = numeric._evaluator([numeric._compile(fine), numeric._compile(overflowing)], 2)
        with pytest.raises(EvaluationOverflowError):
            evaluate(*point)


def test_norm_adds_squares_left_to_right():
    """_norm is the square root of the squares added left to right from
    0.0, on every Python version.  sum() of floats is compensated from
    Python 3.12 on, and a compensated sum differs here in many cases."""
    rng = random.Random(16)
    compensated_differs = 0
    for _ in range(20000):
        point = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-8, 8)
                 for _ in range(rng.randint(1, 3))]
        squares = [abs(z) ** 2 for z in point]
        total = 0.0
        for square in squares:
            total += square
        assert struct.pack("d", numeric._norm(point)) == struct.pack("d", math.sqrt(total))
        compensated_differs += math.fsum(squares) != total
    assert compensated_differs > 500
    assert numeric._norm([]) == 0.0
    assert numeric._norm([1e200j, 1.0]) == math.inf  # the square overflows


def test_evaluate_complex_overflow(xy):
    ctx, x, y = xy
    with pytest.raises(EvaluationOverflowError):
        evaluate_complex(x**3, (1e200, 0))


def test_evaluate_complex_coefficient_overflow(xy):
    ctx, x, y = xy
    with pytest.raises(EvaluationOverflowError):
        evaluate_complex(Fraction(10**400) * x + y, (0, 1))


def test_evaluate_complex_arity(xy):
    ctx, x, y = xy
    with pytest.raises(ValueError):
        evaluate_complex(x, (1, 2, 3))


# -- univariate roots --------------------------------------------------------


def test_roots_cube_roots_of_unity():
    result = roots_univariate([-1, 0, 0, 1])
    assert result.converged
    expected = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    assert_multiset_close(result.roots, expected, 1e-10)
    assert max(result.residuals) < 1e-10


def test_roots_pm_i():
    result = roots_univariate([1, 0, 1])
    assert_multiset_close(result.roots, [1j, -1j], 1e-10)


def test_roots_large_scale():
    result = roots_univariate([-1e12, 0, 0, 1])
    expected = [1e4 * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    assert_multiset_close(result.roots, expected, 1e-8 * 1e4)


def test_roots_degenerate_leading_coefficient():
    with pytest.raises(ValueError):
        roots_univariate([1.0, 1.0, 1e-35])
    with pytest.raises(ValueError):
        roots_univariate([5.0])


def test_roots_reject_non_finite_coefficients():
    with pytest.raises(ValueError):
        roots_univariate([math.nan, 1.0])
    with pytest.raises(ValueError):
        roots_univariate([1.0, complex(0, math.inf), 1.0])


def test_roots_non_finite_correction_is_not_converged():
    # The start |z| = 5e29 overflows z**11, so the first correction is
    # non-finite; the iteration must stop there, unconverged, at the
    # last finite estimates.
    result = roots_univariate([1] + [0] * 9 + [5e29, 1])
    assert not result.converged
    assert result.sweeps == 1
    assert all(cmath.isfinite(z) for z in result.roots)


def test_roots_degree_60_converge_to_finite_roots():
    # z**60 = -1e29: from a start on the scale of the coefficients every
    # correction was NaN, which the convergence test used to pass over.
    result = roots_univariate([1e29] + [0] * 59 + [1])
    assert result.converged
    assert all(cmath.isfinite(z) for z in result.roots)
    modulus = 1e29 ** (1 / 60)
    assert all(abs(abs(z) - modulus) < 1e-12 * modulus for z in result.roots)


@pytest.mark.parametrize("zeros", [60, 400])
def test_roots_deflate_exact_zero_roots(zeros):
    # Undeflated, w**60 stopped unconverged after 364 sweeps with roots up
    # to |w| = 5.6e-6, and w**400 with roots up to 0.17.
    result = roots_univariate([0] * zeros + [1])
    assert result.converged
    assert result.sweeps == 0
    assert result.roots == (0j,) * zeros
    assert result.residuals == (0.0,) * zeros


def test_roots_deflated_quotient_is_the_one_row_call():
    # z**2 * (z**2 + 2): two exact zeros, then the roots of z**2 + 2 bit for bit.
    full = roots_univariate([0, 0, 2, 0, 1])
    quotient = roots_univariate([2, 0, 1])
    assert full.roots == (0j, 0j) + quotient.roots
    assert (full.converged, full.sweeps) == (quotient.converged, quotient.sweeps)
    assert full.residuals[:2] == (0.0, 0.0)


def test_roots_start_on_the_scale_of_the_roots():
    # Roots of modulus ~1e3: a start at the Cauchy radius 1 + max|a_k|
    # (~1e24 here) took about 280 sweeps; a start on the scale
    # max_k |a_k|**(1/(n-k)) of the roots needs few.
    rng = random.Random(8)
    scale = 1e3
    roots = [scale * cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
             for _ in range(8)]
    coeffs = poly_from_roots(roots)
    result = roots_univariate(coeffs)
    assert result.converged
    assert result.sweeps <= 40
    assert_multiset_close(result.roots, roots, 1e-8 * scale)
    # the unit-scale residual bound of the tests above, carried to this
    # scale: p(scale * w) = scale**8 * q(w) for the monic q with roots/scale
    assert max(result.residuals) < 1e-10 * scale ** 8


def poly_from_roots(roots):
    """Ascending coefficients of the monic polynomial with these roots."""
    coeffs = [1 + 0j]
    for r in roots:  # multiply out (z - r) factors, ascending storage
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def assert_multiset_close(got, expected, tol):
    got = list(got)
    assert len(got) == len(expected)
    for e in expected:
        best = min(got, key=lambda z: abs(z - e))
        assert abs(best - e) < tol, (e, best)
        got.remove(best)


def test_roots_random_recovery():
    rng = random.Random(13)
    for _ in range(30):
        degree = rng.randint(2, 8)
        roots = [complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
                 for _ in range(degree)]
        result = roots_univariate(poly_from_roots(roots))
        assert_multiset_close(result.roots, roots, 1e-8)


def test_roots_batched_rows_match_one_row_calls():
    # The batched solver freezes each row on its own.  Rows that share
    # their nonzero columns run the one-row call's arithmetic exactly;
    # sparse rows in a dense batch visit zero columns, so agree closely.
    import numpy as np
    rng = random.Random(5)
    dense = [poly_from_roots([complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
                              for _ in range(6)]) for _ in range(12)]
    sparse = [[1, 0, 0, 0, 0, 0, 1],  # z**6 = -1
              [0, 0, 0, 0, 0, 0, 1]]  # a sixfold root at 0: 80 sweeps alone
    rows = dense + sparse
    z, converged, sweeps = numeric._aberth(np.array(rows, dtype=complex))
    assert converged.all()
    for k, coeffs in enumerate(rows):
        single = roots_univariate(coeffs)
        if k < len(dense):
            assert tuple(z[k].tolist()) == single.roots
            assert sweeps[k] == single.sweeps
        else:
            assert_multiset_close(z[k], single.roots, 1e-9)
    # The backward-error bound is relative: it never stops the pure power,
    # which runs past _BACKWARD_SWEEPS to converge on its corrections.
    assert sweeps[-1] == 80 > numeric._BACKWARD_SWEEPS


def test_pair_sums_in_blocks(monkeypatch):
    # A block bound smaller than one row splits rows and roots alike.
    import numpy as np
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    direct = np.array([[sum(1 / (row[i] - row[j]) for j in range(9) if j != i)
                        for i in range(9)] for row in z])
    for block in (1, 7, 20, 81, 1 << 16):
        monkeypatch.setattr(numeric, "_PAIR_BLOCK", block)
        assert np.allclose(numeric._pair_sums(z), direct, rtol=1e-13, atol=0)


def horner_reference(a, z):
    """p(z) and p'(z) of every monic row of a, as the root finder first
    computed them: each call visits the columns below the leading one that
    are nonzero in some row of a, as numpy integers, from the top down."""
    def advance(p, dp, gap):
        if gap == 1:
            return p * z, dp * z + p
        zg = z ** (gap - 1)
        return p * zg * z, (dp * z + gap * p) * zg

    n = a.shape[1] - 1
    p, dp = 1.0, 0.0
    prev = n
    for c in np.flatnonzero(a[:, :n].any(axis=0))[::-1]:
        p, dp = advance(p, dp, prev - c)
        p += a[:, c, None]
        prev = c
    if prev:
        p, dp = advance(p, dp, prev)
    return p, dp


def pair_sums_reference(z):
    """sum over j != i of 1 / (z[r, i] - z[r, j]), in the blocks of
    numeric._PAIR_BLOCK entries the root finder first used, each block's
    diagonal set to inf through an index array."""
    rows, n = z.shape
    out = np.empty_like(z)
    width = max(1, min(n, numeric._PAIR_BLOCK // n))
    height = max(1, min(rows, numeric._PAIR_BLOCK // (width * n)))
    work = np.empty(height * width * n, dtype=complex)
    for i in range(0, n, width):
        mine = np.arange(i, min(i + width, n))
        for r in range(0, rows, height):
            block = z[r:r + height]
            d = work[:len(block) * len(mine) * n].reshape(len(block), len(mine), n)
            np.subtract(block[:, i:i + width, None], block[:, None, :], out=d)
            d[:, mine - i, mine] = math.inf
            np.reciprocal(d, out=d)
            d.sum(axis=2, out=out[r:r + height, i:i + width])
    return out


def aberth_reference(a):
    """(z, converged, sweeps) of numeric._aberth, by its first loop: every
    sweep takes the live rows' nonzero columns afresh, counts a sweep for
    every live row and writes back the finite rows through their mask."""
    rows, n = a.shape[0], a.shape[1] - 1
    with np.errstate(all="ignore"):
        radius = (np.abs(a[:, :n]) ** (1.0 / (n - np.arange(n)))).max(axis=1)
        radius[radius == 0] = 1.0
        z = radius[:, None] * np.exp(1j * (2 * math.pi / n * np.arange(n) + 0.4))
        converged = np.zeros(rows, dtype=bool)
        sweeps = np.zeros(rows, dtype=int)
        live = np.arange(rows)
        for sweep in range(500):
            if not live.size:
                break
            zl = z[live]
            p, dp = horner_reference(a[live], zl)
            if sweep >= numeric._BACKWARD_SWEEPS:
                scale = horner_reference(np.abs(a[live]), np.abs(zl))[0]
                met = (np.abs(p) / scale <= 8 * n * np.finfo(float).eps).all(axis=1)
                converged[live[met]] = True
                live, zl, p, dp = live[~met], zl[~met], p[~met], dp[~met]
            step = p / (dp - p * pair_sums_reference(zl))
            zl = zl - step
            sweeps[live] += 1
            finite = np.isfinite(zl).all(axis=1)
            done = (np.abs(step).max(axis=1)
                    < numeric._ROOT_TOL * np.abs(zl).max(axis=1, initial=1.0))
            z[live[finite]] = zl[finite]
            converged[live[finite & done]] = True
            live = live[finite & ~done]
    return z, converged, sweeps


def far_sampling_rows(f, trials=100):
    """The monic rows far sampling hands the root finder for f at R = 1e6."""
    rows, aberth = [], numeric._aberth

    def recorded(a):
        rows.append(a.copy())
        return aberth(a)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric, "_aberth", recorded)
        far_sample_report(f, trials=trials)
    return rows


def test_aberth_bit_identical_to_reference_loop(xy):
    """The root finder keeps the bits, convergence flags and sweep counts
    of its first loop on every kind of batch: one zero pattern, patterns
    that differ, a row that leaves double precision, rows stopped by the
    backward-error bound, one row, and rows in several pair-sum blocks."""
    _, x, y = xy
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((12, 7)) + 1j * rng.standard_normal((12, 7))
    dense[:, -1] = 1
    mixed = np.vstack([dense[:4], [[1, 0, 0, 0, 0, 0, 1],  # z**6 = -1
                                   [0, 0, 0, 0, 0, 0, 1],  # a sixfold root at 0
                                   [0, 3, 0, 0, 1j, 0, 1]]])
    blown = np.vstack([dense[:4], [[1e200] * 6 + [1]]])
    clustered = far_sampling_rows((x - y)**10 + x**9)
    high = far_sampling_rows(x**60 - y**59 + 1)
    batches = [("dense", dense), ("mixed", mixed), ("blown", blown), ("one row", dense[:1]),
               *(("clustered", a) for a in clustered), *(("x^60 - y^59 + 1", a) for a in high)]
    sweeps = {}  # name -> the sweep counts of each of its batches
    for name, a in batches:
        got, want = numeric._aberth(a), aberth_reference(a)
        assert got[0].tobytes() == want[0].tobytes(), name
        assert got[1].tolist() == want[1].tolist(), name
        assert got[2].tolist() == want[2].tolist(), name
        sweeps.setdefault(name, []).append(got[2])
    # Each batch is what its name says.
    pattern = mixed[:, :-1] != 0
    assert not (pattern == pattern[0]).all()
    assert sweeps["mixed"][0][-2] > numeric._BACKWARD_SWEEPS
    assert numeric._aberth(blown)[1].tolist() == [True] * 4 + [False]
    assert sweeps["blown"][0][-1] == 1
    assert all((s >= numeric._BACKWARD_SWEEPS).all() for s in sweeps["clustered"])
    assert sum(len(a) for a in high) == 100
    assert all(len(a) > numeric._PAIR_BLOCK // (a.shape[1] - 1) ** 2 for a in high)


# -- substitution -----------------------------------------------------------


def test_substitute_partial_fix_x(xy):
    ctx, x, y = xy
    coeffs = substitute_partial(x**2 - y**3, {"x": 1e6}, "y")
    assert coeffs == [1e12 + 0j, 0j, 0j, -1 + 0j]


def test_substitute_partial_fix_y(xy):
    ctx, x, y = xy
    coeffs = substitute_partial(x**2 - y**3, {"y": 1e6}, "x")
    assert coeffs == [-1e18 + 0j, 0j, 1 + 0j]


def test_substitute_partial_homogeneous_at_zero(xyz):
    ctx, x, y, z = xyz
    coeffs = substitute_partial(x**3 * z, {"x": 0, "y": 0}, "z")
    assert coeffs == [0j, 0j]


def test_substitute_partial_arity(xyz):
    ctx, x, y, z = xyz
    with pytest.raises(ValueError):
        substitute_partial(x, {"y": 1.0}, "x")
    with pytest.raises(ValueError):
        substitute_partial(x, {"y": 1.0, "z": 1.0, "x": 0.0}, "x")


# -- jacobian sanity ----------------------------------------------------------


def test_formal_derivative_matches_central_difference():
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(21)
    for _ in range(25):
        f = random_poly(ctx, rng, max_degree=4)
        if f.is_zero():
            continue
        point = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        scale = max(1.0, max(abs(p) for p in point))
        h = 1e-5 * scale
        for j in range(3):
            formal = evaluate_complex(differentiate(f, j), point)
            shifted = list(point)
            shifted[j] = point[j] + h
            up = evaluate_complex(f, shifted)
            shifted[j] = point[j] - h
            down = evaluate_complex(f, shifted)
            fd = (up - down) / (2 * h)
            assert abs(fd - formal) <= 1e-6 * max(1.0, abs(formal))


# -- far-point sampling --------------------------------------------------------


def test_sampling_cusp_asymptotics(xy):
    ctx, x, y = xy
    cusp = x**2 - y**3
    samples = sample_far_directions(cusp, 1e6, 40, seed=42)
    assert samples.skipped == 0
    assert len(samples.directions) == 20 * 2 + 20 * 3
    for u in samples.directions:
        norm = math.sqrt(sum(abs(c) ** 2 for c in u))
        assert abs(norm - 1.0) < 1e-12
        # |u_y| is R^(-1/2) = 1e-3 when y was fixed, R^(-1/3) = 1e-2 when free
        assert abs(u[1]) < 0.05
    magnitudes = sorted(abs(u[1]) for u in samples.directions)
    assert abs(magnitudes[0] - 1e-3) < 1e-4
    assert abs(magnitudes[-1] - 1e-2) < 1e-3


def test_sampling_hyperplane_exact(xy):
    ctx, x, y = xy
    samples = sample_far_directions(y, 1e6, 10, seed=1)
    assert len(samples.directions) == 5  # the trials freeing y
    assert samples.skipped == 5  # restriction degenerate when y is fixed
    for u in samples.directions:
        assert u[1] == 0


def test_sampling_deterministic(xy):
    ctx, x, y = xy
    a = sample_far_directions(x**2 - y**3, 1e6, 20, seed=7)
    b = sample_far_directions(x**2 - y**3, 1e6, 20, seed=7)
    assert a.directions == b.directions


def test_sampling_cone_consistency(xy):
    # every retained direction nearly annihilates the top form
    ctx, x, y = xy
    from tcone.polyring import leading_form

    cusp = x**2 - y**3
    form = leading_form(cusp)
    samples = sample_far_directions(cusp, 1e6, 30, seed=42)
    for u in samples.directions:
        assert abs(evaluate_complex(form, u)) < 1e-2


def test_sample_report_pass(xy):
    ctx, x, y = xy
    report = far_sample_report(x**2 - y**3, radius=1e6, trials=40, seed=42)
    assert report.verdict == "pass"
    assert report.kind == "sample"
    assert report.radius == 1e6


def test_sampling_rejects_bad_inputs(xy):
    ctx, x, y = xy
    with pytest.raises(ValueError):
        sample_far_directions(x - x, 1e6, 5, seed=0)
    ctx1 = VariableContext(("u",))
    u, = variables(ctx1)
    with pytest.raises(ValueError):
        sample_far_directions(u, 1e6, 5, seed=0)
    # The parser caps exponents far lower; the table-size rule bounds them
    # for library callers.
    with pytest.raises(ValueError, match="table entries .*, not 600,000,000,000,000,000,000$"):
        far_sample_report(x**(10**20) - y, radius=1e6, trials=3)


def test_sampling_rejects_bad_radius(xy):
    # Below R = 1 the scaled coefficients R**(|e| - deg f) grow and swamp
    # the top form, so no verdict there would mean anything.
    ctx, x, y = xy
    for f in (x**2 - y**3, x**60 - y**59 + 1):
        for radius in (0.0, -1.0, 0.5, 1e-3, 1e-10, math.inf, math.nan):
            with pytest.raises(ValueError, match="at least 1 and finite"):
                sample_far_directions(f, radius, 5, seed=0)
        assert sample_far_directions(f, 1.0, 5, seed=0).radius == 1.0
    # a coefficient beyond double range is refused at any radius
    with pytest.raises(ValueError, match="leave double precision"):
        sample_far_directions(10**400 * x**2 - y**3, 1e6, 5, seed=0)


def test_sample_report_degree_8_surface_far_out(xyz):
    # Substituted unscaled, this surface lost its roots: 75 of 210
    # directions passed at 1e6, and 403 of 436 at 1e4.  Scaled, every
    # root of every trial is kept: 34 trials of degree 7 in x, 33 of
    # degree 8 in y and 33 of degree 5 in z.
    ctx, x, y, z = xyz
    f = x**7 * y - z**5 * x**3 + y**8 - 3 * x * y * z + 1
    for radius in (1e6, 1e4):
        report = far_sample_report(f, radius=radius)
        assert report.verdict == "pass", (radius, report.diagnostics)
        assert report.diagnostics.startswith("667/667 ")


def test_sample_report_dense_degree_7_surface(xyz):
    # Every monomial of degree 7, 1 and 0 with a seeded nonzero coefficient.
    ctx, x, y, z = xyz
    rng = random.Random(7)
    f = x - x
    for d in (7, 1, 0):
        for i in range(d + 1):
            for j in range(d - i + 1):
                f = f + rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) * (
                    x**i * y**j * z**(d - i - j))
    report = far_sample_report(f, radius=1e6)
    assert report.verdict == "pass", report.diagnostics
    assert report.diagnostics.startswith("700/700 ")


def far_points_reference(f, radius, trials, seed, theta=None):
    """(directions, skipped) of far sampling, trial by trial: one
    default_rng([seed, trial]) per trial, its restriction's coefficients
    summed term by term, and its kept roots divided by their norms on
    their own.  ``theta`` (trials x n) replaces the drawn angles.  Only
    the root solve is shared: it runs on the rows of
    each degree and lowest nonzero column k, in trial order, as the
    batched arithmetic depends on the batch's nonzero columns; the first
    k roots of such a row are exactly 0, and aberth_reference, the root
    finder's first loop, solves the rest."""
    n, d = f.context.n, total_degree(f)
    exps = np.array(list(f.terms), dtype=np.int64)
    scaled = np.array([complex(float(c)) * radius ** (sum(e) - d) for e, c in f.terms.items()])
    rows, units, by_degree = {}, {}, {}
    for trial in range(trials):
        j = trial % n
        if theta is None:
            angles = np.random.default_rng([seed, trial]).uniform(0.0, 2.0 * math.pi, n - 1)
            angle = np.concatenate([angles[:j], [0.0], angles[j:]])
        else:
            angle = theta[trial]
        phase = sum(angle[k] * exps[:, k] for k in range(n))
        terms = scaled * np.exp(1j * phase)
        coeffs = np.zeros(d + 1, dtype=complex)
        for t in range(len(terms)):
            coeffs[exps[t, j]] += terms[t]
        size = np.abs(coeffs).tolist()
        m = next((k for k in range(d, 0, -1) if size[k] > 1e-30 * max(size)), 0)
        k = next(k for k in range(d + 1) if coeffs[k] != 0)
        by_degree.setdefault((m, k) if m else 0, []).append(trial)
        rows[trial], units[trial] = coeffs, np.exp(1j * angle)
    kept = {}
    for key, group in by_degree.items():
        if key == 0:
            continue
        m, low = key
        w = np.zeros((len(group), m), dtype=complex)
        if low < m:
            a = np.array([rows[t][low:m + 1] / rows[t][m] for t in group])
            w[:, low:] = aberth_reference(a)[0]
        for k, trial in enumerate(group):
            points = np.repeat(units[trial][None, :], m, axis=0)
            points[:, trial % n] = w[k]
            norms = np.sqrt(n - 1 + np.abs(w[k]) ** 2)  # as arrays: a scalar ** 2 may differ
            keep = norms >= 1.0
            kept[trial] = points[keep] / norms[keep, None]
    directions = [p for trial in sorted(kept) for p in kept[trial]]
    return directions, len(by_degree.get(0, ()))


def rows_reference(f, points):
    """f at each point (a row), term by term, each power taken afresh."""
    total = np.zeros(len(points), dtype=complex)
    for c, powers in numeric._compile(f):
        v = np.full(len(points), c)
        for i, e in powers:
            v *= points[:, i] ** e
        total += v
    return total


def test_far_sampling_bit_identical_to_per_trial_reference():
    from tcone.polyring import leading_form
    rng = random.Random(2024)
    cases = 0
    while cases < 60:
        n = rng.randint(2, 4)
        f = random_poly(VariableContext(("x", "y", "z", "w")[:n]), rng)
        if f.is_zero() or f.is_constant():
            continue
        cases += 1
        radius = rng.choice([1.0, 7.5, 1e3, 1e6, 1e12])
        trials = rng.choice([1, 2, 7, 100])
        seed = rng.randrange(1000)
        want, skipped = far_points_reference(f, radius, trials, seed)
        got = sample_far_directions(f, radius, trials, seed)
        assert got.skipped == skipped
        assert [[bits(z) for z in u] for u in got.directions] == \
            [[bits(z) for z in u] for u in (p.tolist() for p in want)]
        report = far_sample_report(f, radius, trials, seed)
        residuals = np.abs(rows_reference(leading_form(f), np.array(want).reshape(-1, n)))
        assert repr(report.samples) == repr(tuple((radius, r) for r in residuals.tolist())
                                            or ((radius, None),)), (f, radius, trials, seed)


def test_far_sampling_table_sums_cancelling_terms_in_term_order(monkeypatch):
    """With every angle 0 and R = 1, slot e of a trial's coefficient table
    sums the coefficients of the terms whose free exponent is e.  On these
    polynomials several terms land in one slot and cancel there to exactly
    0, the leading slot among them, so the restriction loses degree.  The
    flat np.add.at table sums each slot in term order from 0, as the
    trial-by-trial reference adds into it, and the directions keep their
    bits."""
    ctx = VariableContext(("x", "y", "z"))
    x, y, z = variables(ctx)
    xy = VariableContext(("x", "y"))
    u, v = variables(xy)
    polys = [x**3 * y - x**3 * z + x**2 * y + 2 * x * z - 2 * x + y**2 - z + 1,
             u**4 + u**2 * v - u**2 + u * v**2 - u * v + v**3 - 1]
    monkeypatch.setattr(numeric, "_angle_table", lambda seed, trials, n: np.zeros((trials, n)))
    leading = 0  # cancelled slots that lead their restriction
    for f in polys:
        n, cancels = f.context.n, 0
        for j in range(n):
            slots = {}
            for e, c in f.terms.items():
                slots.setdefault(e[j], []).append(c)
            cancelled = [e for e, cs in slots.items() if len(cs) > 1 and sum(cs) == 0]
            cancels += len(cancelled)
            leading += max(slots) in cancelled
        assert cancels
        got = sample_far_directions(f, 1.0, 2 * n, 0)
        want, skipped = far_points_reference(f, 1.0, 2 * n, 0, theta=np.zeros((2 * n, n)))
        assert got.skipped == skipped
        assert [[bits(w) for w in p] for p in got.directions] == \
            [[bits(w) for w in p] for p in (q.tolist() for q in want)]
    assert leading


def test_far_sampling_exact_zero_roots(xy):
    """Far out, the lower terms of x^400 - y + 1 underflow: a free x meets
    w^400, whose roots are exactly 0, and a free y meets a constant, and
    is skipped.  So _aberth has nothing to solve.  Undeflated, each w^400
    row ran 360 sweeps and ended unconverged with roots up to |w| = 0.17."""
    _, x, y = xy
    f = x**400 - y + 1

    def solved(a):
        raise AssertionError(f"_aberth handed {a.shape[0]} rows of degree {a.shape[1] - 1}")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric, "_aberth", solved)
        samples = sample_far_directions(f, 1e6, 4, 7)
        report = far_sample_report(f, 1e6, 4, 7)
    assert samples.skipped == 2  # trials 1 and 3
    assert len(samples.directions) == 2 * 400  # trials 0 and 2, every root kept
    assert all(u[0] == 0 for u in samples.directions)
    assert report.verdict == "pass"
    assert all(r == 0 for _, r in report.samples)


def test_far_sampling_deflates_below_a_nonzero_constant():
    """A row w^k * q(w) with q(0) != 0 keeps its k zero roots exact, and
    _aberth solves q alone."""
    ctx = VariableContext(("x", "y"))
    x, y = variables(ctx)
    # free x: w^3 * (w^2 + u^2), u the unit phase of y (R = 1), so k = 3
    samples = sample_far_directions(x**5 + x**3 * y**2, 1.0, 1, 3)
    xs = [u[0] for u in samples.directions]
    assert sum(z == 0 for z in xs) == 3
    assert all(abs(z) > 0.1 for z in xs if z != 0)


def test_far_sampling_clustered_roots_converge(xy):
    """Far out, each restriction of (x - y)^10 + x^9 has ten roots in a
    cluster, whose corrections rounding keeps above _ROOT_TOL: every row
    used to end unconverged after 500 sweeps.  From _BACKWARD_SWEEPS on,
    the backward-error bound stops each row, converged, at roots whose
    residuals meet it."""
    _, x, y = xy
    deflated, rows = numeric._deflated, []

    def recorded(a, k):
        z, converged, sweeps = deflated(a, k)
        rows.append((a, z, converged))
        return z, converged, sweeps

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric, "_deflated", recorded)
        report = far_sample_report((x - y)**10 + x**9)
    assert sum(len(converged) for _, _, converged in rows) == 100
    for a, z, converged in rows:
        assert converged.all()
        residual = np.abs(numeric._horner(a, z)[0])
        scale = numeric._horner(np.abs(a), np.abs(z))[0]
        assert (residual <= 8 * (a.shape[1] - 1) * np.finfo(float).eps * scale).all()
    assert report.verdict == "pass"


def test_seeded_tables_are_cached_read_only():
    theta = numeric._angle_table(5, 7, 3)
    assert numeric._angle_table(5, 7, 3) is theta
    perturbations = numeric._perturbations(5, 3)
    for array in (theta, *(u for u, _ in perturbations)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # the estimator's start directions come from default_rng([seed, k]), k < 8
    for k, (u, u_norm) in enumerate(perturbations):
        rng = np.random.default_rng([5, k])
        want = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert [bits(z) for z in u.tolist()] == [bits(z) for z in want.tolist()]
        assert u_norm == numeric._norm(want)
    # a table past the entry bound is drawn afresh, not kept
    size = numeric._angle_table.cache_info().currsize
    numeric._table(numeric._angle_table, 5, numeric._CACHED_ENTRIES, 2,
                   entries=2 * numeric._CACHED_ENTRIES)
    assert numeric._angle_table.cache_info().currsize == size


# -- ratio schedules -------------------------------------------------------------


def test_ratio_five_lines_cone_direction(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = loj_ratio_schedule(basis.generators, (0, 0, 1), TSchedule(10, 10, 5))
    assert report.verdict == "pass"
    for t, r in report.samples:
        assert abs(r - t ** -0.25) <= 1e-9 * t ** -0.25
    assert abs(report.fitted_decay_exponent + 0.25) < 1e-9


def test_ratio_five_lines_non_cone_direction(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = loj_ratio_schedule(basis.generators, (1, 1, 0), TSchedule(10, 10, 5))
    assert report.verdict == "fail"
    for _, r in report.samples:
        assert abs(r - 1.0) < 1e-9


def test_ratio_ray_inside_variety(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = loj_ratio_schedule(basis.generators, (0, 1, 1), TSchedule(10, 10, 5))
    assert report.verdict == "pass"
    assert all(r == 0 for _, r in report.samples)


def test_ratio_limit_law(five_lines):
    # r(t_last) approaches max_i |g_i^*(v)|^(1/d_i) when some form survives
    ctx, f1, f2 = five_lines
    from tcone.polyring import leading_form

    basis = buchberger([f1, f2], GREVLEX)
    sched = TSchedule(10, 10, 6)  # t_last = 1e6
    for v in [(1, 1, 0), (1, 0, 1), (2, 3, 0)]:
        vv = tuple(complex(c) for c in v)
        limit = max(
            abs(evaluate_complex(leading_form(g), vv)) ** (1.0 / total_degree(g))
            for g in basis.generators)
        assert limit > 0
        report = loj_ratio_schedule(basis.generators, vv, sched)
        r_last = report.samples[-1][1]
        assert abs(r_last - limit) / limit < 0.1


def test_ratio_rejects_bad_inputs(five_lines):
    ctx, f1, f2 = five_lines
    with pytest.raises(ValueError):
        loj_ratio_schedule([f1], (0, 0, 0), TSchedule(10, 10, 3))
    with pytest.raises(ValueError):
        TSchedule(10, 1, 3)
    with pytest.raises(ValueError):
        TSchedule(-1, 10, 3)
    for t0, factor, steps in ((math.inf, 10, 3), (10, math.inf, 3), (math.nan, 10, 3),
                              (10, 1e200, 3), (1e300, 1e10, 5)):
        with pytest.raises(ValueError):
            TSchedule(t0, factor, steps)
    assert TSchedule(1e300, 1e10, 1).values() == [1e300]


def test_schedule_steps_and_sampling_trials_are_capped(xy, monkeypatch):
    assert len(TSchedule(10, 1.01, numeric._MAX_STEPS).values()) == numeric._MAX_STEPS
    with pytest.raises(ValueError, match=f"at most {numeric._MAX_STEPS} steps"):
        TSchedule(10, 1.01, numeric._MAX_STEPS + 1)
    _, x, y = xy

    def drawn(*args):
        raise AssertionError("angle table drawn before the trials were checked")

    monkeypatch.setattr(numeric, "_angle_table", drawn)
    for trials in (0, -5, numeric._MAX_TRIALS + 1):
        with pytest.raises(ValueError, match="at most 100,000 trials"):
            far_sample_report(y**2 - x**3, trials=trials)


def test_far_sampling_caps_its_table_entries(xy, monkeypatch):
    """Trials times the larger of the number of terms and degree times
    variables is checked before any table is drawn: x^(10^12) - y would
    ask for terabytes, and a degree-d trial keeps up to d directions of
    one entry per variable."""
    _, x, y = xy
    six = variables(VariableContext(tuple(f"u{i}" for i in range(6))))
    u, v, w = variables(VariableContext(("u", "v", "w")))

    def drawn(*args):
        raise AssertionError("angle table drawn before the table size was checked")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric, "_angle_table", drawn)
        with pytest.raises(ValueError, match="^far sampling needs at most 10,000,000 table "
                                             r"entries \(.*\), not 6,000,000,000,000$"):
            far_sample_report(x**(10**12) - y, trials=3)
        monkeypatch.setattr(numeric, "_MAX_TABLE_ENTRIES", 12)
        # x^3 - y + 1 counts degree times variables, 3 * 2 = 6 entries a
        # trial, and x + y + 1 its 3 terms.  u0 - u1 counts its 6 variables,
        # and u^2 - v + w 2 * 3 = 6, where degree + 1 and the terms count 3.
        for f, trials, entries in ((x**3 - y + 1, 4, 24), (x + y + 1, 5, 15),
                                   (six[0] - six[1], 3, 18), (u**2 - v + w, 3, 18)):
            with pytest.raises(ValueError, match=f"not {entries}$"):
                sample_far_directions(f, 1e6, trials, 7)
    assert far_sample_report(x**3 - y + 1, trials=2).trials == 2  # 12 entries, at the cap
    assert far_sample_report(x + y + 1, trials=4).trials == 4
    assert far_sample_report(six[0] - six[1], trials=2).trials == 2
    assert far_sample_report(u**2 - v + w, trials=2).trials == 2


def test_far_sampling_caps_its_root_finding_work(xy, monkeypatch):
    """The root finder's work, trials * (degree**2 + 80 * degree), a sweep
    and the other work of each root, is capped before anything is drawn,
    after the table-size rule: x^(10^7) - y at 3 trials passes both caps,
    and the table's message is the one given.  The per-root term refuses
    x^44 - y + 1 at 100,000 trials, which trials * degree**2 admitted."""
    _, x, y = xy

    def drawn(*args):
        raise AssertionError("angle table drawn before the work was checked")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric, "_angle_table", drawn)
        with pytest.raises(ValueError, match="^far sampling needs at most 200,000,000 units of "
                                             r"root-finding work \(trials \* \(degree\*\*2 "
                                             r"\+ 80 \* degree\)\), not 200,880,000$"):
            far_sample_report(x**1000 - y + 1, trials=186)
        with pytest.raises(ValueError, match="not 545,600,000$"):
            far_sample_report(x**44 - y + 1, trials=100_000)
        with pytest.raises(ValueError, match="table entries"):
            far_sample_report(x**(10**7) - y, trials=3)
        monkeypatch.setattr(numeric, "_MAX_ROOT_WORK", 996)
        with pytest.raises(ValueError, match="not 1,245$"):
            far_sample_report(x**3 - y + 1, trials=5)
    assert far_sample_report(x**3 - y + 1, trials=4).trials == 4  # 996, at the cap


def test_far_sample_residuals_keep_their_bits_in_blocks_of_rows(xy, monkeypatch):
    """The top form is evaluated in blocks of rows whose cached powers, a
    value per row for each of the 12 distinct (variable, exponent) pairs
    of (x + y)^6, hold at most _MAX_TABLE_ENTRIES entries; a row's
    residual does not depend on the block it falls in, as long as that
    block has more than one row (see _evaluate_rows)."""
    _, x, y = xy
    f = (x + y)**6 - x * y + 1
    report = far_sample_report(f, trials=20)
    points, _ = numeric._far_points(f, 1e6, 20, 42)
    top = numeric._compile(leading_form(f))
    whole = numeric._evaluate_rows(top, points)
    assert [value for _, value in report.samples] == abs(whole).tolist()
    assert len(points) == 120

    class Rows(np.ndarray):
        """Points that record the length of each block of rows sliced from them."""
        blocks = []

        def __getitem__(self, key):
            part = super().__getitem__(key)
            if isinstance(key, slice):
                Rows.blocks.append(len(part))
            return part

    off = points + 0.25  # off V, so no value is near 0
    expected = [evaluate_complex(leading_form(f), p) for p in off.tolist()]
    for bound, blocks in ((2 * 12, 60), (3 * 12 + 11, 40), (5 * 12, 24), (7 * 12 + 5, 18),
                          (11 * 12, 11), (119 * 12, 2), (120 * 12, 1)):
        monkeypatch.setattr(numeric, "_MAX_TABLE_ENTRIES", bound)
        Rows.blocks = []
        assert numeric._evaluate_rows(top, points.view(Rows)).tobytes() == whole.tobytes()
        assert len(Rows.blocks) == blocks and sum(Rows.blocks) == 120
        assert max(Rows.blocks) * 12 <= bound
        assert np.allclose(numeric._evaluate_rows(top, off), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bad", [0.0, -1.0, 1.5, math.inf, math.nan])
def test_reports_reject_fractions_outside_unit_interval(five_lines, xy, bad):
    ctx, f1, f2 = five_lines
    with pytest.raises(ValueError, match="pass decay must lie in"):
        loj_ratio_schedule([f1, f2], (0, 0, 1), TSchedule(), pass_decay=bad)
    with pytest.raises(ValueError, match="pass decay must lie in"):
        distance_ratio_report([f1, f2], (0, 0, 1), TSchedule(), pass_decay=bad)
    _, x, y = xy
    with pytest.raises(ValueError, match="minimum fraction must lie in"):
        far_sample_report(y**2 - x**3, min_fraction=bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_reports_reject_tolerances_not_positive_finite(five_lines, xy, bad):
    ctx, f1, f2 = five_lines
    with pytest.raises(ValueError, match="plateau tolerance must be positive"):
        loj_ratio_schedule([f1, f2], (0, 0, 1), TSchedule(), plateau_tol=bad)
    with pytest.raises(ValueError, match="plateau tolerance must be positive"):
        distance_ratio_report([f1, f2], (0, 0, 1), TSchedule(), plateau_tol=bad)
    with pytest.raises(ValueError, match="residual tolerance must be positive"):
        distance_ratio_report([f1, f2], (0, 0, 1), TSchedule(), residual_tol=bad)
    with pytest.raises(ValueError, match="residual tolerance must be positive"):
        estimate_distance_upper([f1, f2], (0, 0, 1), residual_tol=bad)
    _, x, y = xy
    with pytest.raises(ValueError, match="residual tolerance must be positive"):
        far_sample_report(y**2 - x**3, residual_tol=bad)


def test_reports_reject_a_negative_seed(five_lines, xy):
    # Refused at each entry point with one message, also where V is empty
    # and no estimate would run.
    ctx, f1, f2 = five_lines
    _, x, y = xy
    calls = [lambda: distance_ratio_report([f1, f2], (0, 0, 1), TSchedule(), seed=-1),
             lambda: distance_ratio_report([f1 - f1 + 1], (0, 0, 1), TSchedule(), seed=-1),
             lambda: estimate_distance_upper([f1, f2], (0, 0, 1), seed=-1),
             lambda: far_sample_report(y**2 - x**3, seed=-1),
             lambda: sample_far_directions(y**2 - x**3, 1e6, 10, -1)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "the seed must be a nonnegative integer, not -1"
    assert far_sample_report(y**2 - x**3, trials=10, seed=0).verdict == "pass"


# -- distance estimation ----------------------------------------------------------


def test_distance_zero_on_variety(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    for t in (10.0, 1000.0):
        est = estimate_distance_upper(basis.generators, (0, t, t))
        assert est.converged
        assert est.bound < 1e-6 * t


def test_distance_tracks_branch_oracle(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    for t, oracle in BRANCH_DIST.items():
        est = estimate_distance_upper(basis.generators, (0, 0, t))
        assert est.converged
        # upper bound, and the polish lands essentially on the oracle point
        assert est.bound >= oracle * (1 - 1e-6)
        assert est.bound <= oracle * 1.2


def test_distance_landing_is_residual_certified(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    tol = 1e-10
    est = estimate_distance_upper(basis.generators, (0, 0, 100.0), residual_tol=tol)
    scale = max(1.0, math.sqrt(sum(abs(c) ** 2 for c in est.landed)))
    for g in basis.generators:
        d = total_degree(g)
        assert abs(evaluate_complex(g, est.landed)) / scale**d < tol
    squares = 0.0
    for a, b in zip((0, 0, 100.0), est.landed):
        squares += abs(a - b) ** 2
    assert est.bound == math.sqrt(squares)


def test_distance_exact_direction_lower_bound(five_lines):
    # dist((t,t,0), V) = t exactly; the estimate can never undershoot
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    for t in (10.0, 100.0):
        est = estimate_distance_upper(basis.generators, (t, t, 0))
        assert est.converged
        assert est.bound / t >= 0.5
        assert est.bound >= t * (1 - 1e-8)


def test_distance_no_convergence_for_empty_variety():
    ctx = VariableContext(("u",))
    u, = variables(ctx)
    basis = buchberger([u**2 + 1, u**2 + 2], GREVLEX)  # the whole ring
    est = estimate_distance_upper(basis.generators, (1.0,))
    assert not est.converged
    assert est.bound == math.inf
    assert est.landed is None


# -- distance reports ---------------------------------------------------------------


def test_distance_report_cone_direction_passes(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = distance_ratio_report(basis.generators, (0, 0, 1), TSchedule(10, 10, 3))
    assert report.verdict == "pass"
    ratios = [r for _, r in report.samples]
    assert ratios[1] <= 0.5 * ratios[0]
    assert ratios[2] <= 0.5 * ratios[1]


def test_distance_report_continues_along_the_branch(five_lines):
    # (0, 0, 1) lies on the cone: the branch y = 0, x^3 + z^2 = 0 runs off
    # along it.  On the reduced basis every fixed start at t = 1e5 lands at
    # the origin, ratio 3; each step after the first also starts from the
    # previous landing times the factor, which stays on the branch.
    ctx, f1, f2 = five_lines
    gens = buchberger([f1, f2], GREVLEX).generators
    sched = TSchedule()
    assert estimate_distance_upper(gens, (0, 0, 3e5)).bound / 1e5 == pytest.approx(3.0)
    report = distance_ratio_report(gens, (0, 0, 3), sched)
    assert report.verdict == "pass"
    values = [r for _, r in report.samples]
    assert all(b < a for a, b in zip(values, values[1:])) and values[-1] < 0.05
    warm = None
    for t, value in zip(sched.values(), values):
        est = estimate_distance_upper(gens, (0, 0, 3 * t), warm_start=warm)
        assert est.bound / t == value
        warm = [complex(10 * z.real, 10 * z.imag) for z in est.landed]


def test_distance_report_ray_in_variety(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = distance_ratio_report(basis.generators, (0, 1, 1), TSchedule(10, 10, 3))
    assert report.verdict == "pass"
    assert all(r < 1e-6 for _, r in report.samples)


def test_distance_report_non_cone_direction_fails(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = distance_ratio_report(basis.generators, (1, 1, 0), TSchedule(10, 10, 3))
    assert report.verdict == "fail"
    for _, r in report.samples:
        assert r >= 0.5


def test_distance_report_fails_on_whole_ring():
    # The solver cannot land on an empty V; the constant generator decides.
    ctx = VariableContext(("u",))
    u, = variables(ctx)
    basis = buchberger([u**2 + 1, u**2 + 2], GREVLEX)
    report = distance_ratio_report(basis.generators, (1,), TSchedule(10, 10, 3))
    assert report.verdict == "fail"
    assert report.diagnostics == "a generator is a nonzero constant: V is empty"
    assert all(r is None for _, r in report.samples)
    assert report.fitted_decay_exponent is None


@pytest.mark.parametrize("report", [loj_ratio_schedule, distance_ratio_report])
def test_two_steps_off_the_cone_are_inconclusive(xy, report):
    # (1, 1) is off the cone V(x*y) of <x*y - 1000>, but two steps can show
    # neither a decay nor a plateau.
    ctx, x, y = xy
    result = report([x * y - 1000], (1, 1), TSchedule(1000, 10, 2))
    assert result.verdict == "inconclusive"
    assert result.diagnostics == "neither clear decay nor a plateau over this schedule"
    assert all(r > 0 for _, r in result.samples)


@pytest.mark.parametrize("report", [loj_ratio_schedule, distance_ratio_report])
def test_plateau_needs_the_last_three_steps_to_span_a_factor_of_ten(xy, report):
    # Off the cone V(x^2) of <y - x^2>, the ratios level off.  Three steps
    # that span less than a factor of 10 in t are too short to call that
    # a plateau, however flat.
    ctx, x, y = xy
    gens = [y - x**2]
    assert report(gens, (1, 1), TSchedule(10, 10, 5)).verdict == "fail"
    fine = report(gens, (1, 1), TSchedule(1e4, 1.01, 5))
    assert fine.verdict == "inconclusive"
    values = [r for _, r in fine.samples]
    assert (max(values[-3:]) - min(values[-3:])) / max(values[-3:]) < 0.1  # flat
    span = numeric._PLATEAU_SPAN
    assert numeric._is_plateau([(1, 1.0), (span / 2, 1.0), (span, 1.0)], 0.1)
    assert not numeric._is_plateau([(1, 1.0), (span / 2, 1.0), (span * 0.99, 1.0)], 0.1)


@pytest.mark.parametrize("report", [loj_ratio_schedule, distance_ratio_report])
def test_non_radical_cone_reports(xy, report):
    # <(y - x^2)^2> is not radical; its cone is V(x^4) = V(x), and both ray
    # reports see that: the direction (0, 1) lies in it, (1, 1) and (1, 0)
    # do not.  Along (1, 0) the double root's flat residual once sent every
    # fixed distance start far off at t = 1e5 (ratio 58, inconclusive); the
    # start continued from the previous step keeps the plateau.
    ctx, x, y = xy
    basis = buchberger([(y - x**2)**2], GREVLEX)
    assert report(basis.generators, (0, 1), TSchedule()).verdict == "pass"
    assert report(basis.generators, (1, 1), TSchedule()).verdict == "fail"
    assert report(basis.generators, (1, 0), TSchedule()).verdict == "fail"


def test_report_input_errors(xy):
    ctx, x, y = xy
    zero = x - x
    # A zero generator is dropped, as everywhere an ideal's generators are read.
    assert (loj_ratio_schedule([x, zero], (1, 0), TSchedule())
            == loj_ratio_schedule([x], (1, 0), TSchedule()))
    with pytest.raises(ValueError, match="^zero ideal$"):
        estimate_distance_upper([zero], (1, 0))
    with pytest.raises(ValueError, match="^start point has 3 entries, expected 2$"):
        estimate_distance_upper([x], (1, 0, 0))
    with pytest.raises(ValueError, match="^warm start has 1 entries, expected 2$"):
        estimate_distance_upper([x], (1, 0), warm_start=(1,))
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        distance_ratio_report([x], (0, 0), TSchedule())
    with pytest.raises(ValueError, match="^unknown variable 'z'$"):
        substitute_partial(x * y, {"x": 1}, "z")


_X, _Y = variables(VariableContext(("x", "y")))
_A, _B, _C = variables(VariableContext(("a", "b", "c")))
_MIXED = "generators from different contexts"
_SHORT = "direction has 1 entries, expected 2"
_NEAR = "the ray must start at least 1 from the origin: t0 times the direction's norm is 0.3125"


@pytest.mark.parametrize("function,gens,v,message", [
    # Read in the ring of a, b, c, x - 1 would be a - 1.
    (loj_ratio_schedule, [_A * _B * _C - 1, _X - 1], (1, 1, 1), _MIXED),
    (loj_ratio_schedule, [_X * _Y - 1, _A * _B * _C - 1], (1, 1), _MIXED),
    (distance_ratio_report, [_X * _Y - 1, _A * _B * _C - 1], (1, 1), _MIXED),
    (distance_ratio_report, [_A * _B * _C - 1, _X - 1], (1, 1, 1), _MIXED),
    (estimate_distance_upper, [_X * _Y - 1, _A * _B * _C - 1], (1, 1), _MIXED),
    (estimate_distance_upper, [_A * _B * _C - 1, _X - 1], (1, 1, 1), _MIXED),
    (loj_ratio_schedule, [_X * _Y - 1], (1,), _SHORT),
    (distance_ratio_report, [_X * _Y - 1], (1,), _SHORT),
    # A constant generator runs no estimate, so the direction is checked up front.
    (distance_ratio_report, [_X - _X + 1], (1,), _SHORT),
    # From t0 = 10, a ray along (1/32, 0) starts 0.3125 from the origin.
    (loj_ratio_schedule, [_X * _Y - 1], (0.03125, 0), _NEAR),
    (distance_ratio_report, [_X * _Y - 1], (0.03125, 0), _NEAR),
], ids=["ratio-mixed-last", "ratio-mixed-first", "distance-mixed-first",
        "distance-mixed-last", "estimate-mixed-first", "estimate-mixed-last",
        "ratio-short-direction", "distance-short-direction", "distance-empty-short",
        "ratio-near-origin", "distance-near-origin"])
def test_ray_reports_check_one_ring_and_the_direction(function, gens, v, message):
    schedule = () if function is estimate_distance_upper else (TSchedule(),)
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(gens, v, *schedule)


def test_schedules_and_reports_are_values(five_lines):
    ctx, f1, f2 = five_lines
    assert TSchedule() == TSchedule(10.0, 10.0, 5)
    assert TSchedule(10, 2, 3) != TSchedule(10, 2, 4)
    for report in (loj_ratio_schedule, distance_ratio_report):
        assert report([f1, f2], (0, 0, 1), TSchedule()) == report([f1, f2], (0, 0, 1),
                                                                  TSchedule())
    sched = TSchedule()
    with pytest.raises(AttributeError):
        sched.t0 = 1.0
    assert sched.values() == [10.0, 100.0, 1000.0, 10000.0, 100000.0]


def test_levenberg_run_gives_up_at_its_iteration_cap(xy, monkeypatch):
    ctx, x, y = xy
    gens = [x**2 + y**2 - 1]
    evaluate = numeric._evaluator([numeric._compile(g) for g in gens], 2)
    partials = numeric._evaluator([numeric._compile(differentiate(g, j))
                                   for g in gens for j in range(2)], 2, jacobian=True)
    residual_at = functools.partial(numeric._residual_at, evaluate, [2], 1e-10)
    jacobian = functools.partial(numeric._real_jacobian, partials, 2)
    start, eye = (3 + 0j, 4 + 0j), np.eye(4)
    # From (3, 4) the sixth step lands near (0.6, 0.8); with five the run gives up.
    with np.errstate(all="ignore"):
        monkeypatch.setattr(numeric, "_MAX_ITERATIONS", 6)
        landed = numeric._levenberg_run(residual_at, jacobian, start, eye)
        assert abs(landed[0] - 0.6) < 1e-9 and abs(landed[1] - 0.8) < 1e-9
        monkeypatch.setattr(numeric, "_MAX_ITERATIONS", 5)
        assert numeric._levenberg_run(residual_at, jacobian, start, eye) is None


def test_estimate_survives_an_overflowing_jacobian(xy):
    # At (10, 0) on x^308 - y the residual is finite, but the partial
    # 308 x^307 is not: that run ends unconverged, and the estimate comes
    # from the other starts instead of raising EvaluationOverflowError.
    ctx, x, y = xy
    x0 = (10, 0)
    with pytest.raises(EvaluationOverflowError):
        evaluate_complex(differentiate(x**308 - y, 0), x0)
    est = estimate_distance_upper([x**308 - y], x0)
    assert est.converged
    assert est.bound == numeric._dist(x0, est.landed)


def test_polish_keeps_its_landing_at_an_overflowing_jacobian():
    def jacobian(z):
        raise EvaluationOverflowError("evaluation overflowed double precision")

    def residual_at(z):
        raise AssertionError("the polish evaluated a trial")

    landed = (3 + 0j, 4j)
    with np.errstate(all="ignore"):
        polished = numeric._tangential_polish(residual_at, jacobian, (0j, 0j), landed,
                                              np.eye(4))
    assert polished == landed


def test_levenberg_run_gives_up_on_a_step_below_its_floor():
    # The residual (1 + 1e20 Re z, 1e20 Im z) never lands.  From 0 the first
    # step, about -1e-20, lowers the cost from 1 to about 0 and is accepted,
    # but is below 1e-16 * (1 + ||z||): the run stops there, after the
    # residual at the start and at that one candidate.
    calls = []

    def residual_at(z):
        calls.append(z)
        return np.array([1 + 1e20 * z[0].real, 1e20 * z[0].imag]), False

    def jacobian(z):
        return 1e20 * np.eye(2)

    with np.errstate(all="ignore"):
        assert numeric._levenberg_run(residual_at, jacobian, (0j,), np.eye(2)) is None
    assert len(calls) == 2
