"""Bit identity of the distance estimator's linear algebra with numpy's public route.

The estimator solves its damped normal equations through the gufunc that
np.linalg.solve wraps, a private numpy name, and builds its real Jacobian
with strided assignments.  These tests pin both, and the whole estimate,
to the original public route bit for bit, so they also run on the oldest
numpy the package admits.
"""

import functools
import random
import struct

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


def real_jacobian_reference(evaluate, n, point):
    """The real Jacobian built as nested lists, two rows per generator."""
    values = evaluate(*point.tolist())
    rows = []
    for k in range(0, len(values), n):
        row = values[k:k + n]
        rows.append([x for d in row for x in (d.real, -d.imag)])
        rows.append([x for d in row for x in (d.imag, d.real)])
    return np.array(rows)


def levenberg_run_reference(singular, residual_at, jacobian, start, eye):
    """_levenberg_run through np.linalg.solve, with LinAlgError for a
    singular pivot; each LinAlgError is counted in ``singular``."""
    z = np.array(start, dtype=complex)
    try:
        res, lands = residual_at(z)
    except EvaluationOverflowError:
        return None
    if lands:
        return tuple(z)
    damping = numeric._INITIAL_DAMPING
    cost = float(res @ res)
    for _ in range(numeric._MAX_ITERATIONS):
        J = jacobian(z)
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
                cand_res, cand_lands = residual_at(candidate)
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
            return tuple(z)
        if np.linalg.norm(step) < 1e-16 * (1.0 + np.linalg.norm(z)):
            return None
    return None


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
            J = real_jacobian_reference(lambda *z: tuple(C.ravel().tolist()), n, np.zeros(n))
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


def test_real_jacobian_bit_identical_to_nested_lists():
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randint(1, 4)
        ctx = VariableContext(("x", "y", "z", "w")[:n])
        gens = [random_poly(ctx, rng) for _ in range(rng.randint(1, 4))]
        partials = numeric._evaluator(
            [numeric._compile(differentiate(g, j)) for g in gens for j in range(n)], n)
        point = np.array([complex(rng.choice((rng.uniform(-9, 9), 0.0, -0.0)),
                                  rng.choice((rng.uniform(-9, 9), 0.0, -0.0)))
                          for _ in range(n)])
        got = numeric._real_jacobian(partials, n, point)
        want = real_jacobian_reference(partials, n, point)
        assert got.shape == want.shape == (2 * len(gens), 2 * n)
        assert got.tobytes() == want.tobytes()


def test_levenberg_skips_only_all_nan_solutions(xy, monkeypatch):
    """Only an all-NaN solution takes the singular branch.  A solution with
    some NaN entries, which np.linalg.solve returns without raising, is
    tried as a step, as the original did."""
    ctx, x, y = xy
    gens = [x - 1, y - 2]
    evaluate = numeric._evaluator([numeric._compile(g) for g in gens], 2)
    partials = numeric._evaluator(
        [numeric._compile(differentiate(g, j)) for g in gens for j in range(2)], 2)
    nan = float("nan")
    scripted = [np.array([nan, nan, 0.0, 1e-39]),  # NaN first
                "singular",
                np.array([0.5, 0.0, nan, 0.25])]  # NaN later

    def run(levenberg_run, owner, name, on_singular):
        evaluated = []

        def residual_at(point):
            evaluated.append(point.tobytes())
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
                landed = levenberg_run(residual_at, functools.partial(
                    numeric._real_jacobian, partials, 2), (0j, 0j), np.eye(4))
        return landed, evaluated

    def raise_singular():
        raise np.linalg.LinAlgError("Singular matrix")

    got, got_points = run(numeric._levenberg_run, numeric, "_solve",
                          lambda: np.full(4, nan))
    want, want_points = run(functools.partial(levenberg_run_reference, []),
                            np.linalg, "solve", raise_singular)
    assert [complex_bits(z) for z in got] == [complex_bits(z) for z in want]
    assert abs(got[0] - 1) < 1e-9 and abs(got[1] - 2) < 1e-9
    assert got_points == want_points
    assert sum(np.isnan(np.frombuffer(p, dtype=complex)).any() for p in got_points) == 2


def test_estimate_bit_identical_to_public_numpy_route(monkeypatch):
    """estimate_distance_upper equals the original route through
    np.linalg.solve, LinAlgError and the nested-list Jacobian, bit for bit,
    on 100 seeded ideals with starts from 1 to 1e150."""
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

    def never(*args):
        raise AssertionError("np.linalg.solve called")

    residual_at_original = numeric._residual_at

    def run(evaluated):
        """The estimates, and in ``evaluated`` the bits of every point at
        which a residual was evaluated."""
        def residual_at(evaluate, degrees, tol, point):
            evaluated.append(point.tobytes())
            return residual_at_original(evaluate, degrees, tol, point)
        with monkeypatch.context() as m:
            m.setattr(numeric, "_residual_at", residual_at)
            return [estimate_distance_upper(*case) for case in cases]

    got_points, want_points, singular = [], [], []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", never)
        got = run(got_points)
    monkeypatch.setattr(numeric, "_levenberg_run",
                        functools.partial(levenberg_run_reference, singular))
    monkeypatch.setattr(numeric, "_real_jacobian", real_jacobian_reference)
    want = run(want_points)

    def key(est):
        landed = None if est.landed is None else [complex_bits(z) for z in est.landed]
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
    assert any(est.converged for est in want) and not all(est.converged for est in want)
