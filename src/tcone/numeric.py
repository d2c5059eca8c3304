"""Floating-point evidence for the geometric side of the cone computation.

Three kinds of checks, each yielding a :class:`VerificationReport`:

* ratio schedules: degree-normalized generator magnitudes along a ray
  t*v must decay when v lies in the cone and plateau when it does not;
* distance schedules: an upper bound on dist(t*v, V)/t from damped
  least-squares root landing must decay on cone directions;
* far-point sampling (hypersurfaces): directions of points on V far
  from the origin must nearly annihilate the cone generators.

All randomness flows from a single seed, split per trial/run, so every
report is bit-reproducible.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple, Sequence

from .polyring import Polynomial, differentiate, total_degree, leading_form

# numpy is imported inside the functions that use it, so that importing
# this module for its report types and verdicts does not load numpy.

ComplexPoint = tuple[complex, ...]
# A polynomial compiled for repeated evaluation: one (coefficient,
# ((variable index, exponent), ...)) entry per term, in f.terms order,
# listing only the nonzero exponents.
Compiled = tuple[tuple[complex, tuple[tuple[int, int], ...]], ...]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class EvaluationOverflowError(ArithmeticError):
    """Polynomial evaluation left the double-precision range."""


class TSchedule:
    """Geometric schedule t_k = t0 * factor**k, k = 0..steps-1."""

    __slots__ = ("t0", "factor", "steps")

    def __init__(self, t0: float = 10.0, factor: float = 10.0, steps: int = 5):
        if not (t0 > 0 and factor > 1 and steps >= 1):
            raise ValueError("need t0 > 0, factor > 1, steps >= 1")
        self.t0 = t0
        self.factor = factor
        self.steps = steps

    def values(self) -> list[float]:
        return [self.t0 * self.factor ** k for k in range(self.steps)]


class VerificationReport:
    """Numeric evidence record for one ray or sampling experiment."""

    __slots__ = ("kind", "samples", "fitted_decay_exponent", "verdict", "diagnostics",
                 "seed", "schedule", "direction", "radius", "trials")

    def __init__(self, kind: str,  # "ratio" | "distance" | "sample"
                 samples: tuple[tuple[float, float | None], ...],
                 fitted_decay_exponent: float | None,
                 verdict: str,  # "pass" | "fail" | "inconclusive"
                 diagnostics: str, seed: int | None = None,
                 schedule: TSchedule | None = None,
                 direction: ComplexPoint | None = None,
                 radius: float | None = None, trials: int | None = None):
        if not samples:
            raise ValueError("a report needs at least one sample")
        self.kind = kind
        self.samples = samples
        self.fitted_decay_exponent = fitted_decay_exponent
        self.verdict = verdict
        self.diagnostics = diagnostics
        self.seed = seed
        self.schedule = schedule
        self.direction = direction
        self.radius = radius
        self.trials = trials


class SolverOptions(NamedTuple):
    """Knobs for the damped least-squares distance estimator."""

    seed: int = 42
    residual_tol: float = 1e-10
    max_iterations: int = 300
    num_perturbations: int = 8
    perturbation_radius: float = 0.5
    initial_damping: float = 1e-3
    polish_cycles: int = 120


class DistanceEstimate(NamedTuple):
    bound: float
    landed: ComplexPoint | None
    converged: bool


class RootsResult(NamedTuple):
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool
    sweeps: int


class FarSamples(NamedTuple):
    directions: tuple[ComplexPoint, ...]
    radius: float
    trials: int
    skipped: int
    seed: int


def _coefficient(c) -> complex:
    try:
        return complex(float(c))
    except OverflowError:  # evaluation then ends non-finite, as it must
        return complex(math.inf)


def _compile(f: Polynomial) -> Compiled:
    """f with float coefficients and sparse exponents, for _evaluate."""
    return tuple((_coefficient(c), tuple((i, e) for i, e in enumerate(m.exponents) if e))
                 for m, c in f.terms.items())


def _evaluate(compiled: Compiled, xs: Sequence[complex]) -> complex:
    """Floating evaluation of a compiled polynomial, term by term.

    ``xs`` holds Python complex numbers; callers convert each point once.
    """
    total = 0j
    try:
        for coeff, powers in compiled:
            v = coeff
            for i, e in powers:
                v *= xs[i] ** e
            total += v
    except OverflowError as err:
        raise EvaluationOverflowError("evaluation overflowed double precision") from err
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise EvaluationOverflowError("evaluation overflowed double precision")
    return total


def evaluate_complex(f: Polynomial, point: Sequence[complex]) -> complex:
    """Floating evaluation of f at point, term by term."""
    if len(point) != f.context.n:
        raise ValueError(f"point has {len(point)} entries, expected {f.context.n}")
    return _evaluate(_compile(f), [complex(x) for x in point])


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Evaluate ascending-coefficient polynomial at z."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def roots_univariate(coeffs: Sequence[complex], tol: float = 1e-12) -> RootsResult:
    """All complex roots by simultaneous Weierstrass/Durand-Kerner iteration.

    ``coeffs`` are ascending (coeffs[k] multiplies z**k).  Initial
    guesses are powers of 0.4+0.9i scaled by Fujiwara's bound
    2*max_k |a_k|**(1/(n-k)) on the root moduli of the monic polynomial
    (1 when that is 0), so they start on the scale of the roots; sweeps
    run until the largest correction drops below tol times the root
    scale, or 500 sweeps.  A sweep that leaves a root non-finite ends
    the iteration unconverged.  Roots are returned even without
    convergence; per-root residuals let the caller judge them.
    """
    coeffs = [complex(c) for c in coeffs]
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not all(cmath.isfinite(c) for c in coeffs):
        raise ValueError("coefficients must be finite")
    magnitudes = [abs(c) for c in coeffs]
    if abs(coeffs[-1]) <= 1e-30 * max(magnitudes):
        raise ValueError("degenerate leading coefficient")
    lead = coeffs[-1]
    a = [c / lead for c in coeffs]

    radius = 2.0 * max(abs(c) ** (1.0 / (n - k)) for k, c in enumerate(a[:-1])) or 1.0
    base = 0.4 + 0.9j
    z = [radius * base ** (k + 1) for k in range(n)]

    sweeps = 0
    converged = False
    for sweeps in range(1, 501):
        max_correction = 0.0
        for i in range(n):
            denom = 1 + 0j
            for j in range(n):
                if j != i:
                    denom *= z[i] - z[j]
            if denom == 0:
                z[i] *= 1 + 1e-9 + 1e-9j  # deterministic nudge off a collision
                continue
            w = _horner(a, z[i]) / denom
            z[i] -= w
            max_correction = max(max_correction, abs(w))
        if not all(map(cmath.isfinite, z)):
            break  # left double precision; max() above passes over a NaN
        scale = max(1.0, max(abs(zi) for zi in z))
        if max_correction < tol * scale:
            converged = True
            break
    residuals = tuple(abs(_horner(a, zi)) for zi in z)
    return RootsResult(tuple(z), residuals, converged, sweeps)


def substitute_partial(f: Polynomial, fixed: Mapping[str, complex],
                       free_var: str) -> list[complex]:
    """Ascending coefficients of f restricted to one free variable."""
    names = f.context.names
    if free_var not in names:
        raise ValueError(f"unknown variable {free_var!r}")
    expected = set(names) - {free_var}
    if set(fixed) != expected:
        raise ValueError(f"fixed variables {sorted(fixed)} != {sorted(expected)}")
    free_index = names.index(free_var)
    degree = max((m.exponents[free_index] for m in f.terms), default=0)
    out = [0j] * (degree + 1)
    for m, c in f.terms.items():
        v = complex(float(c))
        for name, e in zip(names, m.exponents):
            if name != free_var and e:
                v *= complex(fixed[name]) ** e
        out[m.exponents[free_index]] += v
    return out


def _norm(point: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(z) ** 2 for z in point))


def sample_far_directions(f: Polynomial, radius: float, trials: int,
                          seed: int) -> FarSamples:
    """Unit directions of points on the hypersurface V(f) at norm >= radius.

    Per trial one coordinate is left free (round-robin) and the others
    are fixed to radius times random unit complex scalars; the
    univariate restriction is solved and points of norm >= radius are
    normalized and kept.  Deterministic for a fixed seed.
    """
    import numpy as np
    n = f.context.n
    if n < 2:
        raise ValueError("sampling needs at least two variables")
    if f.is_zero() or f.is_constant():
        raise ValueError("sampling needs a nonconstant polynomial")
    names = f.context.names
    directions: list[ComplexPoint] = []
    skipped = 0
    for trial in range(trials):
        j = trial % n
        rng = np.random.default_rng([seed, trial])
        fixed = {}
        for k, name in enumerate(names):
            if k != j:
                theta = rng.uniform(0.0, 2.0 * math.pi)
                fixed[name] = radius * complex(math.cos(theta), math.sin(theta))
        coeffs = substitute_partial(f, fixed, names[j])
        top = max(abs(c) for c in coeffs)
        while coeffs and abs(coeffs[-1]) <= 1e-30 * top:
            coeffs.pop()
        if len(coeffs) < 2:
            skipped += 1
            continue
        result = roots_univariate(coeffs, tol=1e-12)
        for root in result.roots:
            point = tuple(root if k == j else fixed[names[k]] for k in range(n))
            norm = _norm(point)
            if norm >= radius:
                directions.append(tuple(z / norm for z in point))
    return FarSamples(tuple(directions), radius, trials, skipped, seed)


def far_sample_report(f: Polynomial, radius: float = 1e6, trials: int = 100,
                      seed: int = 42, residual_tol: float = 1e-2,
                      min_fraction: float = 0.95) -> VerificationReport:
    """Sampling evidence that far directions annihilate the top form of f.

    Passes when at least ``min_fraction`` of the retained directions
    give a top-form residual below ``residual_tol``.
    """
    samples_obj = sample_far_directions(f, radius, trials, seed)
    form = _compile(leading_form(f))
    measured: list[tuple[float, float | None]] = []
    good = 0
    for u in samples_obj.directions:
        residual = abs(_evaluate(form, u))
        measured.append((radius, residual))
        if residual < residual_tol:
            good += 1
    if not measured:
        return VerificationReport(
            kind="sample", samples=((radius, None),), fitted_decay_exponent=None,
            verdict=INCONCLUSIVE,
            diagnostics=f"no directions retained ({samples_obj.skipped} trials skipped)",
            seed=seed, radius=radius, trials=trials)
    fraction = good / len(measured)
    verdict = PASS if fraction >= min_fraction else FAIL
    diagnostics = (f"{good}/{len(measured)} directions below residual "
                   f"{residual_tol:g} (fraction {fraction:.4f}, need {min_fraction:g}); "
                   f"{samples_obj.skipped} trials skipped")
    return VerificationReport(
        kind="sample", samples=tuple(measured), fitted_decay_exponent=None,
        verdict=verdict, diagnostics=diagnostics, seed=seed,
        radius=radius, trials=trials)


def _fit_decay_exponent(samples: Sequence[tuple[float, float | None]]) -> float | None:
    """Least-squares slope of log(value) against log(t) over positive values."""
    import numpy as np
    pts = [(math.log(t), math.log(v)) for t, v in samples if v is not None and v > 0]
    if len(pts) < 2:
        return None
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def _is_plateau(values: Sequence[float], plateau_tol: float) -> bool:
    tail = [v for v in values[-3:]]
    if len(tail) < 3 or any(v is None for v in tail):
        return False
    low, high = min(tail), max(tail)
    if high == 0:
        return False
    return (high - low) / high < plateau_tol


def loj_ratio_schedule(F: Sequence[Polynomial], v: Sequence[complex],
                       sched: TSchedule, pass_decay: float = 0.5,
                       plateau_tol: float = 0.1) -> VerificationReport:
    """Degree-normalized generator magnitudes along the ray t*v.

    Reports r(t) = max_i |g_i(t*v)|**(1/deg g_i) / t.  The ratio decays
    like a power of t on cone directions and converges to a positive
    constant when some top form survives at v.
    """
    gens = list(F)
    if any(g.is_zero() for g in gens) or not gens:
        raise ValueError("generators must be nonzero")
    if all(z == 0 for z in v):
        raise ValueError("direction must be nonzero")
    degrees = [total_degree(g) for g in gens]
    compiled = [_compile(g) for g in gens]
    samples: list[tuple[float, float | None]] = []
    overflow_at = None
    for t in sched.values():
        point = tuple(t * complex(z) for z in v)
        try:
            r = max(abs(_evaluate(g, point)) ** (1.0 / d)
                    for g, d in zip(compiled, degrees)) / t
        except EvaluationOverflowError:
            overflow_at = t
            samples.append((t, None))
            continue
        samples.append((t, r))
    values = [r for _, r in samples]
    if overflow_at is not None:
        verdict, diagnostics = INCONCLUSIVE, f"evaluation overflow at t={overflow_at:g}"
    elif all(r == 0 for r in values):
        verdict = PASS
        diagnostics = "all ratios vanish: the ray lies in the common zero set"
    elif (all(b < a for a, b in zip(values, values[1:]))
          and values[-1] < pass_decay * values[0]):
        verdict = PASS
        diagnostics = (f"strict decay, r(last)/r(first) = "
                       f"{values[-1] / values[0]:.3e} < {pass_decay:g}")
    elif _is_plateau(values, plateau_tol) and values[-1] > 0:
        verdict = FAIL
        diagnostics = (f"plateau near {values[-1]:.6g} over the last three steps "
                       f"(variation < {plateau_tol:g})")
    else:
        verdict = INCONCLUSIVE
        diagnostics = "neither clear decay nor a plateau over this schedule"
    return VerificationReport(
        kind="ratio", samples=tuple(samples),
        fitted_decay_exponent=_fit_decay_exponent(samples),
        verdict=verdict, diagnostics=diagnostics, seed=None,
        schedule=sched, direction=tuple(complex(z) for z in v))


# -- distance estimation ------------------------------------------------


def _residual_vector(gens: Sequence[Compiled], point: np.ndarray) -> np.ndarray:
    import numpy as np
    xs = [complex(x) for x in point]
    out = []
    for g in gens:
        val = _evaluate(g, xs)
        out += (val.real, val.imag)
    return np.array(out)


def _real_jacobian(jac_polys: Sequence[Sequence[Compiled]], point: np.ndarray) -> np.ndarray:
    import numpy as np
    xs = [complex(x) for x in point]
    rows = []
    for row in jac_polys:
        re_row, im_row = [], []
        for dg in row:
            d = _evaluate(dg, xs)
            re_row += (d.real, -d.imag)
            im_row += (d.imag, d.real)
        rows += (re_row, im_row)
    return np.array(rows)


def estimate_distance_upper(F: Sequence[Polynomial], x0: Sequence[complex],
                            opts: SolverOptions = SolverOptions()) -> DistanceEstimate:
    """Upper bound on the distance from x0 to the common zero set of F.

    Damped least-squares (Levenberg-style) iterations on the real and
    imaginary parts of the generators, started from x0 and from
    seeded random perturbations of relative radius
    ``opts.perturbation_radius``.  A run converges when every
    normalized residual |g_i(z)| / max(1,||z||)**deg(g_i) drops below
    ``opts.residual_tol``; the returned bound is the smallest
    ||x0 - z|| over converged runs, hence an upper bound on the true
    distance up to that residual tolerance.
    """
    import numpy as np
    gens = [g for g in F if not g.is_zero()]
    if not gens:
        raise ValueError("generators must not all be zero")
    n = gens[0].context.n
    x0 = tuple(complex(z) for z in x0)
    if len(x0) != n:
        raise ValueError(f"start point has {len(x0)} entries, expected {n}")
    degrees = [total_degree(g) for g in gens]
    jac_polys = [[_compile(differentiate(g, j)) for j in range(n)] for g in gens]
    gens = [_compile(g) for g in gens]

    def converged_at(z: Sequence[complex]) -> bool:
        scale = max(1.0, _norm(z))
        xs = [complex(x) for x in z]
        return all(abs(_evaluate(g, xs)) / scale ** d < opts.residual_tol
                   for g, d in zip(gens, degrees))

    starts = [x0]
    base_norm = _norm(x0)
    for k in range(opts.num_perturbations):
        rng = np.random.default_rng([opts.seed, k])
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u_norm = _norm(u)
        if u_norm == 0:
            u = np.ones(n, dtype=complex)
            u_norm = _norm(u)
        delta = (opts.perturbation_radius * base_norm / u_norm) * u
        starts.append(tuple(complex(x0[i] + delta[i]) for i in range(n)))

    best_bound = math.inf
    best_landed: ComplexPoint | None = None
    any_converged = False
    for start in starts:
        landed = _levenberg_run(gens, jac_polys, start, converged_at, opts)
        if landed is None:
            continue
        any_converged = True
        landed = _tangential_polish(gens, jac_polys, x0, landed, converged_at, opts)
        bound = _dist(x0, landed)
        if bound < best_bound:
            best_bound = bound
            best_landed = landed
    return DistanceEstimate(best_bound if any_converged else math.inf,
                            best_landed, any_converged)


def _dist(a: Sequence[complex], b: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


def _tangential_polish(gens, jac_polys, x0, landed, converged_at,
                       opts) -> ComplexPoint:
    """Slide a landed point along the variety toward x0.

    Alternates a step toward x0 projected onto the tangent space of the
    zero set with a damped least-squares re-projection.  Each accepted
    cycle strictly shrinks ||x0 - z||, so the result is still a
    residual-certified landing, only nearer to x0.  Deterministic; a
    best-effort local improvement, not a certified nearest point.
    """
    import numpy as np
    z = np.array(landed, dtype=complex)
    target = np.array(x0, dtype=complex)
    best = float(np.linalg.norm(z - target))
    if best == 0:
        return landed
    for _ in range(opts.polish_cycles):
        d = target - z
        d_real = np.empty(2 * len(z))
        d_real[0::2] = d.real
        d_real[1::2] = d.imag
        J = _real_jacobian(jac_polys, z)
        normal = np.linalg.lstsq(J, J @ d_real, rcond=None)[0]
        tangent = d_real - normal
        t_norm = float(np.linalg.norm(tangent))
        if t_norm < 1e-13 * (1.0 + best):
            break
        step = tangent[0::2] + 1j * tangent[1::2]
        alpha = 1.0
        improved = False
        while alpha > 1e-4:
            trial = z + alpha * step
            reprojected = _levenberg_run(gens, jac_polys, tuple(trial),
                                         converged_at, opts)
            if reprojected is not None:
                dist = _dist(x0, reprojected)
                if dist < best * (1 - 1e-12):
                    z = np.array(reprojected, dtype=complex)
                    best = dist
                    improved = True
                    break
            alpha /= 2
        if not improved:
            break
    return tuple(z)


def _levenberg_run(gens, jac_polys, start, converged_at, opts) -> ComplexPoint | None:
    import numpy as np
    n = len(start)
    z = np.array(start, dtype=complex)
    if converged_at(tuple(z)):
        return tuple(z)
    damping = opts.initial_damping
    try:
        res = _residual_vector(gens, z)
    except EvaluationOverflowError:
        return None
    cost = float(res @ res)
    eye = np.eye(2 * n)
    for _ in range(opts.max_iterations):
        J = _real_jacobian(jac_polys, z)
        A = J.T @ J
        b = -(J.T @ res)
        accepted = False
        while damping <= 1e12:
            try:
                delta = np.linalg.solve(A + damping * eye, b)
            except np.linalg.LinAlgError:
                damping *= 10
                continue
            step = delta[0::2] + 1j * delta[1::2]
            candidate = z + step
            try:
                cand_res = _residual_vector(gens, candidate)
            except EvaluationOverflowError:
                damping *= 10
                continue
            cand_cost = float(cand_res @ cand_res)
            if cand_cost < cost:
                z, res, cost = candidate, cand_res, cand_cost
                damping = max(damping / 10, 1e-15)
                accepted = True
                break
            damping *= 10
        if not accepted:
            return None
        if converged_at(tuple(z)):
            return tuple(z)
        if np.linalg.norm(step) < 1e-16 * (1.0 + np.linalg.norm(z)):
            return tuple(z) if converged_at(tuple(z)) else None
    return None


def distance_ratio_report(F: Sequence[Polynomial], v: Sequence[complex], sched: TSchedule,
                  opts: SolverOptions = SolverOptions(), pass_decay: float = 0.5,
                  plateau_tol: float = 0.1) -> VerificationReport:
    """Distance-ratio evidence along the ray t*v.

    Tabulates estimate_distance_upper(F, t*v)/t over the schedule.  The
    ratio must drop by at least ``1/pass_decay`` from first to last
    step on cone directions and plateaus at a positive level otherwise;
    solver non-convergence at any step makes the report inconclusive.
    """
    if all(z == 0 for z in v):
        raise ValueError("direction must be nonzero")
    vv = tuple(complex(z) for z in v)
    samples: list[tuple[float, float | None]] = []
    bounds: list[float | None] = []
    failed_steps = []
    for t in sched.values():
        est = estimate_distance_upper(F, tuple(t * z for z in vv), opts)
        if not est.converged:
            samples.append((t, None))
            bounds.append(None)
            failed_steps.append(t)
        else:
            samples.append((t, est.bound / t))
            bounds.append(est.bound)
    values = [r for _, r in samples]
    if failed_steps:
        verdict = INCONCLUSIVE
        diagnostics = ("solver did not converge at t = "
                       + ", ".join(f"{t:g}" for t in failed_steps))
    elif values[0] == 0 and values[-1] == 0:
        verdict = PASS
        diagnostics = "ray lies on the variety: distance bound is zero throughout"
    elif values[0] > 0 and values[-1] <= pass_decay * values[0]:
        verdict = PASS
        diagnostics = (f"ratio falls from {values[0]:.6g} to {values[-1]:.6g} "
                       f"(factor {values[0] / values[-1]:.3g})")
    elif _is_plateau(values, plateau_tol) and values[-1] > 0:
        verdict = FAIL
        diagnostics = (f"ratio plateaus near {values[-1]:.6g}: "
                       "the direction is not in the cone")
    else:
        verdict = INCONCLUSIVE
        diagnostics = "neither clear decay nor a plateau over this schedule"
    return VerificationReport(
        kind="distance", samples=tuple(samples),
        fitted_decay_exponent=_fit_decay_exponent(samples),
        verdict=verdict, diagnostics=diagnostics, seed=opts.seed,
        schedule=sched, direction=vv)
