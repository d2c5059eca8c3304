"""Bit identity of the distance estimator with numpy's public route.

The estimator keeps its points as lists of Python complex, solves its
damped normal equations through the gufunc that np.linalg.solve wraps
and its polish's least squares through the one np.linalg.lstsq wraps,
both private numpy names, and takes its real Jacobian as one flat list
from the generated partials evaluator.  These tests pin each of these,
and the whole estimate, to the original route on numpy arrays through
the public calls, bit for bit, so they also run on the oldest numpy the
package admits.
"""

import functools
import random
import struct
import types

import numpy as np
import pytest

from tcone import numeric
from tcone.numeric import EvaluationOverflowError, estimate_distance_upper
from tcone.polyring import VariableContext, differentiate

from test_polyring import random_poly


def float_bits(x):
    return struct.pack("d", x)


def complex_bits(z):
    return struct.pack("dd", z.real, z.imag)


def point_bits(point):
    return b"".join(complex_bits(complex(z)) for z in point)


def real_jacobian_reference(evaluate, n, point):
    """The real Jacobian built as nested lists from the complex partials,
    two rows per generator."""
    values = evaluate(*point)
    rows = []
    for k in range(0, len(values), n):
        row = values[k:k + n]
        rows.append([x for d in row for x in (d.real, -d.imag)])
        rows.append([x for d in row for x in (d.imag, d.real)])
    return np.array(rows)


def levenberg_run_reference(singular, residual_at, jacobian, start, eye):
    """_levenberg_run on numpy arrays through np.linalg.solve, with
    LinAlgError for a singular pivot; each LinAlgError is counted in
    ``singular``.  Residual and Jacobian read each point with tolist()."""
    z = np.array(start, dtype=complex)
    try:
        res, lands = residual_at(z.tolist())
    except EvaluationOverflowError:
        return None
    if lands:
        return tuple(z)
    damping = numeric._INITIAL_DAMPING
    cost = float(res @ res)
    for _ in range(numeric._MAX_ITERATIONS):
        J = jacobian(z.tolist())
        A = J.T @ J
        b = -(J.T @ res)
        accepted = False
        while damping <= 1e12:
            try:
                delta = np.linalg.solve(A + damping * eye, b)
            except np.linalg.LinAlgError:
                singular.append(1)
                damping *= 10
                continue
            step = delta[0::2] + 1j * delta[1::2]
            candidate = z + step
            try:
                cand_res, cand_lands = residual_at(candidate.tolist())
            except EvaluationOverflowError:
                damping *= 10
                continue
            cand_cost = float(cand_res @ cand_res)
            if cand_cost < cost:
                z, res, cost, lands = candidate, cand_res, cand_cost, cand_lands
                damping = max(damping / 10, 1e-15)
                accepted = True
                break
            damping *= 10
        if not accepted:
            return None
        if lands:
            return tuple(z.tolist())
        if np.linalg.norm(step) < 1e-16 * (1.0 + np.linalg.norm(z)):
            return None
    return None


def tangential_polish_reference(residual_at, jacobian, x0, landed, eye):
    """_tangential_polish on numpy arrays through np.linalg.lstsq; its
    re-projections go through numeric._levenberg_run."""
    z = np.array(landed, dtype=complex)
    target = np.array(x0, dtype=complex)
    best = np.linalg.norm(z - target)
    if best == 0:
        return landed
    for _ in range(numeric._POLISH_CYCLES):
        d = target - z
        d_real = np.empty(2 * len(z))
        d_real[0::2] = d.real
        d_real[1::2] = d.imag
        J = jacobian(z.tolist())
        normal = np.linalg.lstsq(J, J @ d_real, rcond=None)[0]
        tangent = d_real - normal
        t_norm = np.linalg.norm(tangent)
        if t_norm < 1e-13 * (1.0 + best):
            break
        step = tangent[0::2] + 1j * tangent[1::2]
        alpha = 1.0
        improved = False
        while alpha > 1e-4:
            trial = z + alpha * step
            reprojected = numeric._levenberg_run(residual_at, jacobian, tuple(trial.tolist()), eye)
            if reprojected is not None:
                dist = numeric._dist(x0, reprojected)
                if dist < best * (1 - 1e-12):
                    z = np.array(reprojected, dtype=complex)
                    best = dist
                    improved = True
                    break
            alpha /= 2
        if not improved:
            break
    return tuple(z.tolist())


def use_reference_route(m, singular):
    """Route estimate_distance_upper through the references above: numpy
    arrays, np.linalg.solve with LinAlgError, np.linalg.lstsq, and the
    nested-list Jacobian of the complex partials."""
    evaluator = numeric._evaluator
    m.setattr(numeric, "_evaluator", lambda polys, n, jacobian=False: evaluator(polys, n))
    m.setattr(numeric, "_real_jacobian", real_jacobian_reference)
    m.setattr(numeric, "_levenberg_run", functools.partial(levenberg_run_reference, singular))
    m.setattr(numeric, "_tangential_polish", tangential_polish_reference)


def damped_systems(rng, count):
    """Seeded (J^T J + damping I, -J^T res) systems of 4x4 to 6x6.

    Half come from complex Jacobians (the estimator's block structure),
    half of those with a column dependent on another, so that the damping
    is lost against J^T J and LU meets an exact zero pivot; the rest are
    plain real Jacobians of 4 to 6 columns, some with fewer rows.
    """
    for _ in range(count):
        scale = 10.0 ** rng.integers(-3, 20)
        if rng.random() < 0.5:
            n, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            C = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * scale
            if rng.random() < 0.5:
                C[:, -1] = C[:, 0] * complex(*rng.standard_normal(2))
            J = real_jacobian_reference(lambda *z: tuple(C.ravel().tolist()), n, [0j] * n)
        else:
            cols = int(rng.integers(4, 7))
            J = rng.standard_normal((int(rng.integers(2, 9)), cols)) * scale
        damping = 10.0 ** rng.integers(-15, 4)
        res = rng.standard_normal(len(J))
        yield J.T @ J + damping * np.eye(J.shape[1]), -(J.T @ res)


def test_solve_bit_identical_to_numpy_solve():
    singular = 0
    with np.errstate(all="ignore"):
        for A, b in damped_systems(np.random.default_rng(14), 1500):
            got = numeric._solve(A, b)
            assert got.dtype == np.float64 and got.shape == b.shape
            try:
                want = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                singular += 1
                assert np.isnan(got).all()
                continue
            assert got.tobytes() == want.tobytes()
    assert singular >= 50  # the rank-deficient systems are exercised


def test_solve_singular_pivot_sets_the_invalid_flag():
    # why the estimator must hold np.errstate(all="ignore") around it
    A = np.ones((4, 4))
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            numeric._solve(A, np.ones(4))
    with np.errstate(all="ignore"):
        assert np.isnan(numeric._solve(A, np.ones(4))).all()


def partials_evaluators(gens, n):
    """The generators' partials evaluator, complex values and with the
    Jacobian epilogue."""
    partials = [numeric._compile(differentiate(g, j)) for g in gens for j in range(n)]
    return numeric._evaluator(partials, n), numeric._evaluator(partials, n, jacobian=True)


def test_real_jacobian_bit_identical_to_nested_lists():
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randint(1, 4)
        ctx = VariableContext(("x", "y", "z", "w")[:n])
        gens = [random_poly(ctx, rng) for _ in range(rng.randint(1, 4))]
        partials, flat = partials_evaluators(gens, n)
        point = [complex(rng.choice((rng.uniform(-9, 9), 0.0, -0.0)),
                         rng.choice((rng.uniform(-9, 9), 0.0, -0.0)))
                 for _ in range(n)]
        got = numeric._real_jacobian(flat, n, point)
        want = real_jacobian_reference(partials, n, point)
        assert got.shape == want.shape == (2 * len(gens), 2 * n)
        assert got.tobytes() == want.tobytes()


def test_jacobian_epilogue_raises_on_overflow(xy):
    _, x, y = xy
    _, flat = partials_evaluators([x**3 * y - 1], 2)
    with pytest.raises(EvaluationOverflowError):
        flat(1e200 + 0j, 1.0 + 0j)


def test_steps_bit_identical_to_numpy():
    """_steps forms delta[0::2] + 1j * delta[1::2] with numpy's bits,
    signed zeros and non-finite parts included; so do the candidate
    z + step and the polish's trial z + alpha * step."""
    rng = np.random.default_rng(16)
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-320, -1e308]
    with np.errstate(all="ignore"):
        for _ in range(400):
            size = 2 * int(rng.integers(1, 4))
            delta = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
            z = (rng.standard_normal(size // 2) + 1j * rng.standard_normal(size // 2)) \
                * 10.0 ** rng.integers(-20, 20)
            for k in np.flatnonzero(rng.random(size) < 0.3):
                delta[k] = specials[int(rng.integers(len(specials)))]
            for k in np.flatnonzero(rng.random(size // 2) < 0.3):
                z[k] = complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
            step = delta[0::2] + 1j * delta[1::2]
            got = numeric._steps(delta.tolist())
            assert point_bits(got) == step.tobytes()
            assert point_bits([a + b for a, b in zip(z.tolist(), got)]) == (z + step).tobytes()
            alpha = float(rng.choice([1.0, 0.5, 2.0 ** -13, 0.0]))
            trial = [x + complex(alpha * s.real - 0.0 * s.imag, alpha * s.imag + 0.0 * s.real)
                     for x, s in zip(z.tolist(), got)]
            assert point_bits(trial) == (z + alpha * step).tobytes()


def least_squares_systems(rng, count):
    """Seeded (J, b) least-squares problems of the polish's shapes.

    Half are real Jacobians of complex partials (2m x 2n, m and n from 1
    to 3), half of those with a column of partials dependent on another,
    so that J is rank deficient; the rest are plain real matrices of 1 to
    8 rows and 2 to 6 columns, some with a repeated or a zero column.
    Scales run from 1e-10 to 1e40; b is J times a vector or arbitrary.
    """
    for _ in range(count):
        scale = 10.0 ** rng.integers(-10, 41)
        if rng.random() < 0.5:
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            C = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * scale
            if rng.random() < 0.5 and n > 1:
                C[:, -1] = C[:, 0] * complex(*rng.standard_normal(2))
            J = real_jacobian_reference(lambda *z: tuple(C.ravel().tolist()), n, [0j] * n)
        else:
            J = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(2, 7)))) * scale
            if rng.random() < 0.3:
                J[:, -1] = J[:, 0] if rng.random() < 0.5 else 0.0
        if rng.random() < 0.5:
            b = J @ (rng.standard_normal(J.shape[1]) * 10.0 ** rng.integers(-5, 6))
        else:
            b = rng.standard_normal(len(J)) * scale
        yield J, b


def lstsq_reference(J, b):
    return np.linalg.lstsq(J, b, rcond=None)[0]


def test_lstsq_bit_identical_to_numpy_lstsq():
    deficient = 0
    with np.errstate(all="ignore"):
        for J, b in least_squares_systems(np.random.default_rng(16), 1500):
            got = numeric._lstsq(J, b)
            want = lstsq_reference(J, b)
            assert got.dtype == np.float64 and got.shape == want.shape == (J.shape[1],)
            assert got.tobytes() == want.tobytes()
            deficient += np.linalg.matrix_rank(J) < min(J.shape)
    assert deficient >= 100  # the rank-deficient systems are exercised


def test_lstsq_raises_where_numpy_lstsq_raises():
    # gelsd fails on a non-finite matrix: rank -1, every output NaN
    J = np.array([[np.inf, 1.0], [1.0, 1.0], [2.0, 2.0]])
    b = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError):
        lstsq_reference(J, b)
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            numeric._lstsq(J, b)


def test_lstsq_fallback_without_the_gufunc(monkeypatch):
    """Where numpy names no lstsq gufunc (numpy < 2), _lstsq makes the
    public call, with the same bits."""
    systems = list(least_squares_systems(np.random.default_rng(17), 300))
    with np.errstate(all="ignore"):
        direct = [numeric._lstsq(J, b).tobytes() for J, b in systems]
        umath = np.linalg._umath_linalg
        monkeypatch.setattr(np.linalg, "_umath_linalg", types.SimpleNamespace(
            **{name: value for name, value in vars(umath).items() if name != "lstsq"}))
        fallback = [numeric._lstsq(J, b).tobytes() for J, b in systems]
    assert fallback == direct == [lstsq_reference(J, b).tobytes() for J, b in systems]


def test_levenberg_skips_only_all_nan_solutions(xy, monkeypatch):
    """Only an all-NaN solution takes the singular branch.  A solution with
    some NaN entries, which np.linalg.solve returns without raising, is
    tried as a step, as the original did."""
    ctx, x, y = xy
    gens = [x - 1, y - 2]
    evaluate = numeric._evaluator([numeric._compile(g) for g in gens], 2)
    partials, flat = partials_evaluators(gens, 2)
    nan = float("nan")
    scripted = [np.array([nan, nan, 0.0, 1e-39]),  # NaN first
                "singular",
                np.array([0.5, 0.0, nan, 0.25])]  # NaN later

    def run(levenberg_run, jacobian, owner, name, on_singular):
        evaluated = []

        def residual_at(point):
            evaluated.append(point_bits(point))
            return numeric._residual_at(evaluate, [1, 1], 1e-10, point)

        script = list(scripted)
        solve = getattr(owner, name)

        def scripted_solve(a, b):
            if not script:
                return solve(a, b)
            out = script.pop(0)
            return on_singular() if isinstance(out, str) else out

        with monkeypatch.context() as m:
            m.setattr(owner, name, scripted_solve)
            with np.errstate(all="ignore"):
                landed = levenberg_run(residual_at, jacobian, (0j, 0j), np.eye(4))
        return landed, evaluated

    def raise_singular():
        raise np.linalg.LinAlgError("Singular matrix")

    got, got_points = run(numeric._levenberg_run,
                          functools.partial(numeric._real_jacobian, flat, 2),
                          numeric, "_solve", lambda: np.full(4, nan))
    want, want_points = run(functools.partial(levenberg_run_reference, []),
                            functools.partial(real_jacobian_reference, partials, 2),
                            np.linalg, "solve", raise_singular)
    assert point_bits(got) == point_bits(want)
    assert abs(got[0] - 1) < 1e-9 and abs(got[1] - 2) < 1e-9
    assert got_points == want_points
    assert sum(np.isnan(np.frombuffer(p, dtype=complex)).any() for p in got_points) == 2


def test_estimate_bit_identical_to_public_numpy_route(monkeypatch):
    """estimate_distance_upper equals the original route on numpy arrays,
    through np.linalg.solve with LinAlgError, np.linalg.lstsq and the
    nested-list Jacobian, bit for bit, polish included, on 100 seeded
    ideals with starts from 1 to 1e150."""
    rng = random.Random(14)
    cases = []
    while len(cases) < 100:
        n = rng.randint(2, 3)
        ctx = VariableContext(("x", "y", "z")[:n])
        gens = [random_poly(ctx, rng, max_degree=4, max_terms=4)
                for _ in range(rng.randint(1, n))]
        if any(g.is_constant() for g in gens):
            continue
        scale = rng.choice([1.0, 10.0, 1e3, 1e8, 1e20, 1e75, 1e150])
        x0 = tuple(scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(n))
        cases.append((gens, x0, rng.randrange(100)))

    def never(*args, **kwargs):
        raise AssertionError("a public numpy.linalg call")

    residual_at_original = numeric._residual_at
    polish_original = numeric._tangential_polish
    polished = []

    def run(evaluated):
        """The estimates, and in ``evaluated`` the bits of every point at
        which a residual was evaluated."""
        def residual_at(evaluate, degrees, tol, point):
            evaluated.append(point_bits(point))
            return residual_at_original(evaluate, degrees, tol, point)
        with monkeypatch.context() as m:
            m.setattr(numeric, "_residual_at", residual_at)
            return [estimate_distance_upper(*case) for case in cases]

    def polish(residual_at, jacobian, x0, landed, eye):
        out = polish_original(residual_at, jacobian, x0, landed, eye)
        polished.append(out != tuple(landed))
        return out

    got_points, want_points, singular = [], [], []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", never)
        if hasattr(np.linalg._umath_linalg, "lstsq"):  # numpy >= 2: no public lstsq
            m.setattr(np.linalg, "lstsq", never)
        m.setattr(numeric, "_tangential_polish", polish)
        got = run(got_points)
    use_reference_route(monkeypatch, singular)
    want = run(want_points)

    def key(est):
        landed = None if est.landed is None else point_bits(est.landed)
        return float_bits(est.bound), landed, est.converged

    for case, g, w in zip(cases, got, want):
        assert key(g) == key(w), case
    # The same residual evaluations, except at all-NaN points, which the
    # original evaluated (the evaluation raised, and the damping rose) when
    # np.linalg.solve returned NaN without raising, and a singular pivot
    # must not add.
    assert got_points == [p for p in want_points
                          if not np.isnan(np.frombuffer(p, dtype=complex)).all()]
    assert len(got_points) < len(want_points)
    assert singular  # the singular-pivot branch is exercised
    assert sum(polished) >= 50  # the polish moves most landings
    assert any(est.converged for est in want) and not all(est.converged for est in want)
