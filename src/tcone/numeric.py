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

import functools
import math
import sys
from typing import Callable, Mapping, NamedTuple, Sequence

from .polyring import Polynomial, differentiate, total_degree, leading_form

# numpy is imported inside the functions that use it, so that importing
# this module for its report types and verdicts does not load numpy.

ComplexPoint = tuple[complex, ...]
# A polynomial compiled for repeated evaluation: one (coefficient,
# ((variable index, exponent), ...)) entry per term, in f.terms order,
# listing only the nonzero exponents.  _evaluator turns a list of them into
# one generated straight-line function, whose values are bit for bit those
# of the term loop (v = c; v *= x_i ** e ...; total += v, from 0j) that
# tests/test_numeric.py keeps as the reference: the same products and sums
# in the same order, with each power computed once.
Compiled = tuple[tuple[complex, tuple[tuple[int, int], ...]], ...]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class EvaluationOverflowError(ArithmeticError):
    """Polynomial evaluation left the double-precision range."""


# Work caps, checked before any work: a distance report costs about
# 30 ms a step, far sampling about 50 us a trial.
_MAX_STEPS = 100
_MAX_TRIALS = 100_000
_PLATEAU_SPAN = 10.0  # least t_last / t_first over a plateau's three steps (100 by default)


class TSchedule:
    """Geometric schedule t_k = t0 * factor**k, k < steps <= _MAX_STEPS, every t_k finite."""

    __slots__ = ("t0", "factor", "steps")

    def __init__(self, t0: float = 10.0, factor: float = 10.0, steps: int = 5):
        if not (0 < t0 < math.inf and 1 < factor < math.inf and steps >= 1):
            raise ValueError("need finite t0 > 0, finite factor > 1, steps >= 1")
        if steps > _MAX_STEPS:
            raise ValueError(f"a schedule has at most {_MAX_STEPS} steps, not {steps}")
        try:
            finite = t0 * factor ** (steps - 1) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"the schedule leaves double precision: "
                             f"t0 * factor**{steps - 1} overflows")
        self.t0 = t0
        self.factor = factor
        self.steps = steps

    def values(self) -> list[float]:
        return [self.t0 * self.factor ** k for k in range(self.steps)]


class VerificationReport(NamedTuple):
    """Numeric evidence record for one ray or sampling experiment."""

    kind: str  # "ratio" | "distance" | "sample"
    samples: tuple[tuple[float, float | None], ...]
    fitted_decay_exponent: float | None
    verdict: str  # "pass" | "fail" | "inconclusive"
    diagnostics: str
    seed: int | None = None
    schedule: TSchedule | None = None
    direction: ComplexPoint | None = None
    radius: float | None = None
    trials: int | None = None


# The damped least-squares distance estimator's fixed settings.
_MAX_ITERATIONS = 300  # Levenberg steps per run
_NUM_PERTURBATIONS = 8  # seeded starts besides x0
_PERTURBATION_RADIUS = 0.5  # of those starts, relative to ||x0||
_INITIAL_DAMPING = 1e-3
_POLISH_CYCLES = 120  # tangential slides toward x0 after a landing


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


def _require_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"the {what} must be positive and finite, not {value:g}")


def _require_seed(seed: int) -> None:
    """A negative seed names no generator; refused before numpy loads."""
    if seed < 0:
        raise ValueError(f"the seed must be a nonnegative integer, not {seed}")


def _require_fraction(what: str, value: float) -> None:
    if not 0 < value <= 1:
        raise ValueError(f"the {what} must lie in (0, 1], not {value:g}")


def _coefficient(c) -> complex:
    try:
        return complex(float(c))
    except OverflowError:  # evaluation then ends non-finite, as it must
        return complex(math.inf)


def _compile(f: Polynomial) -> Compiled:
    """f with float coefficients and sparse exponents, for _evaluator."""
    return tuple((_coefficient(c), tuple((i, k) for i, k in enumerate(e) if k))
                 for e, c in f.terms.items())


_OVERFLOW = "evaluation overflowed double precision"


@functools.lru_cache(maxsize=64)
def _compiled_source(source: str):
    """The code object of an evaluator's source.  The source depends only
    on the exponents, so the estimator's calls along one ray, which differ
    only in the start point, compile it once."""
    return compile(source, "<evaluator>", "exec")


def _evaluator(polys: Sequence[Compiled], n: int,
               jacobian: bool = False) -> Callable[..., Sequence]:
    """One function of x0..x{n-1} (Python complex) returning the value of each of ``polys``.

    The function is generated straight-line code: each power x_i ** e is
    computed once, and each value is summed from 0j in the compiled term
    order, every term as c * p * p ..., so each value is bit for bit the
    term loop's.  The source holds indices and exponents only; the
    coefficients are bound through the namespace.  It raises
    EvaluationOverflowError when a power overflows or a value is not
    finite.

    With ``jacobian``, ``polys`` are the partials dg_k/dz_j of m
    generators, row by row (k * n + j), and the function returns the
    real Jacobian of the generators' real and imaginary parts as one
    flat list of floats: for each generator the row [re, -im, ...] and
    then the row [im, re, ...] over its n partials, 2m rows of 2n.
    """
    namespace = {"isfinite": math.isfinite, "Overflow": EvaluationOverflowError,
                 "MESSAGE": _OVERFLOW}
    powers: dict[tuple[int, int], str] = {}  # (i, e) -> the local holding x_i ** e
    sums = []
    for k, poly in enumerate(polys):
        sums.append(f"v{k} = 0j")
        for t, (c, exps) in enumerate(poly):
            namespace[f"c{k}_{t}"] = c
            factors = [f"c{k}_{t}"] + [powers.setdefault((i, e), f"x{i}_{e}") for i, e in exps]
            sums.append(f"v{k} += {' * '.join(factors)}")
    result = "values"
    if jacobian:  # the partials of one generator are v{g}, ..., v{g + n - 1}
        rows = []
        for g in range(0, len(polys), n):
            rows += [f"v{k}.real, -v{k}.imag, " for k in range(g, g + n)]
            rows += [f"v{k}.imag, v{k}.real, " for k in range(g, g + n)]
        result = f"[{''.join(rows)}]"
    source = "\n".join([
        f"def evaluate({', '.join(f'x{i}' for i in range(n))}):",
        "    try:",
        *(f"        {name} = x{i} ** {e}" for (i, e), name in powers.items()),
        "        pass",  # the block needs a statement when no power is taken
        "    except OverflowError as err:",
        "        raise Overflow(MESSAGE) from err",
        *(f"    {line}" for line in sums),
        f"    values = ({''.join(f'v{k}, ' for k in range(len(polys)))})",
        "    for v in values:",
        "        if not (isfinite(v.real) and isfinite(v.imag)):",
        "            raise Overflow(MESSAGE)",
        f"    return {result}"])
    exec(_compiled_source(source), namespace)
    return namespace["evaluate"]


def evaluate_complex(f: Polynomial, point: Sequence[complex]) -> complex:
    """Floating evaluation of f at point, term by term."""
    if len(point) != f.context.n:
        raise ValueError(f"point has {len(point)} entries, expected {f.context.n}")
    return _evaluator([_compile(f)], f.context.n)(*[complex(x) for x in point])[0]


# Most complex entries in one block of the pairwise differences z_i - z_j
# of the batched root finder, so its workspace stays bounded at any degree.
_PAIR_BLOCK = 1 << 14

# The relative correction below which the root finder freezes a row.
_ROOT_TOL = 1e-12


def _horner(a: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(z) and p'(z) for each monic row of ``a`` (ascending) at each entry of z.

    Only the nonzero coefficient columns are visited: a run of g zero
    columns costs one power z**(g-1), not g multiplications.
    """
    import numpy as np

    def advance(p, dp, gap):  # p*z**gap and its derivative, from p and dp
        if gap == 1:
            return p * z, dp * z + p
        zg = z ** (gap - 1)
        return p * zg * z, (dp * z + gap * p) * zg

    n = a.shape[1] - 1
    p, dp = 1.0, 0.0  # the monic leading term; arrays from the first advance on
    prev = n
    for c in np.flatnonzero(a[:, :n].any(axis=0))[::-1]:
        p, dp = advance(p, dp, prev - c)
        p += a[:, c, None]
        prev = c
    if prev:
        p, dp = advance(p, dp, prev)
    return p, dp


def _pair_sums(z: np.ndarray) -> np.ndarray:
    """S[r, i] = sum over j != i of 1 / (z[r, i] - z[r, j]), block by block."""
    import numpy as np
    rows, n = z.shape
    out = np.empty_like(z)
    width = max(1, min(n, _PAIR_BLOCK // n))  # roots i per block
    height = max(1, min(rows, _PAIR_BLOCK // (width * n)))  # rows per block
    work = np.empty(height * width * n, dtype=complex)  # reused: fresh arrays page-fault
    for i in range(0, n, width):
        mine = np.arange(i, min(i + width, n))
        for r in range(0, rows, height):
            block = z[r:r + height]
            d = work[:len(block) * len(mine) * n].reshape(len(block), len(mine), n)
            np.subtract(block[:, i:i + width, None], block[:, None, :], out=d)
            d[:, mine - i, mine] = math.inf  # so the term j = i is 1/inf = 0
            np.reciprocal(d, out=d)
            d.sum(axis=2, out=out[r:r + height, i:i + width])
    return out


def _aberth(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of every monic row of ``a`` (ascending) together: (z, converged, sweeps).

    Aberth-Ehrlich iteration (Aberth 1973) on all rows at once, each sweep
    replacing every estimate z_i by z_i - p/(p' - p * sum_{j!=i} 1/(z_i - z_j)).
    The n starts are equally spaced, at angle offset 0.4, on the circle of
    radius rho = max_k |a_k|**(1/(n-k)) (1 when that is 0), the scale of
    the roots: their moduli are at most 2*rho (Fujiwara's bound).  A row
    is frozen once its largest correction drops below _ROOT_TOL times its
    root scale max(1, max |z_i|), after 500 sweeps, or, unconverged at its
    last finite estimates, when a sweep would leave a root non-finite.
    """
    import numpy as np
    rows, n = a.shape[0], a.shape[1] - 1
    with np.errstate(all="ignore"):
        radius = (np.abs(a[:, :n]) ** (1.0 / (n - np.arange(n)))).max(axis=1)
        radius[radius == 0] = 1.0
        z = radius[:, None] * np.exp(1j * (2 * math.pi / n * np.arange(n) + 0.4))
        converged = np.zeros(rows, dtype=bool)
        sweeps = np.zeros(rows, dtype=int)
        live = np.arange(rows)
        for _ in range(500):
            if not live.size:
                break
            zl = z[live]
            p, dp = _horner(a[live], zl)
            step = p / (dp - p * _pair_sums(zl))
            zl = zl - step
            sweeps[live] += 1
            finite = np.isfinite(zl).all(axis=1)
            done = np.abs(step).max(axis=1) < _ROOT_TOL * np.abs(zl).max(axis=1, initial=1.0)
            z[live[finite]] = zl[finite]
            converged[live[finite & done]] = True
            live = live[finite & ~done]
    return z, converged, sweeps


def _deflated(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_aberth`` on monic rows of ``a`` whose k lowest coefficients are 0.

    Their first k roots are exactly 0, and only the quotient, columns k
    on, is solved; with nothing left every row converged in 0 sweeps.
    Far out the lower terms of a high power underflow to 0, and on w**k
    p and p' underflow together: undeflated, the iteration would stop
    unconverged at |w| well above 0.
    """
    import numpy as np
    rows, n = a.shape[0], a.shape[1] - 1
    z = np.zeros((rows, n), dtype=complex)
    if k == n:
        return z, np.ones(rows, dtype=bool), np.zeros(rows, dtype=int)
    z[:, k:], converged, sweeps = _aberth(a[:, k:])
    return z, converged, sweeps


def roots_univariate(coeffs: Sequence[complex]) -> RootsResult:
    """All complex roots: the one-row call of the batched Aberth solver.

    ``coeffs`` are ascending (coeffs[k] multiplies z**k); the polynomial
    is made monic and, as in far sampling, its exact zero roots are
    deflated by ``_deflated`` (see ``_aberth`` for the starts and the
    stopping rule).  A sweep that would leave a root non-finite ends the
    iteration unconverged.  Roots are returned even without convergence;
    the residuals |p(z_i)| of the monic polynomial let the caller judge
    them.
    """
    import numpy as np
    a = np.array([complex(c) for c in coeffs])
    if len(a) < 2:
        raise ValueError("degree must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    if abs(a[-1]) <= 1e-30 * np.abs(a).max():
        raise ValueError("degenerate leading coefficient")
    a = (a / a[-1])[None, :]
    z, converged, sweeps = _deflated(a, int((a[0] != 0).argmax()))  # a[0, -1] = 1
    with np.errstate(all="ignore"):
        residuals = np.abs(_horner(a, z)[0][0])
    return RootsResult(tuple(z[0].tolist()), tuple(residuals.tolist()),
                       bool(converged[0]), int(sweeps[0]))


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
    degree = max((e[free_index] for e in f.terms), default=0)
    out = [0j] * (degree + 1)
    for e, c in f.terms.items():
        v = complex(float(c))
        for name, k in zip(names, e):
            if name != free_var and k:
                v *= complex(fixed[name]) ** k
        out[e[free_index]] += v
    return out


def _norm(point: Sequence[complex]) -> float:
    """The Euclidean norm, or inf when a square leaves double precision.

    The squares are added left to right from 0.0, as in an explicit loop:
    sum() of floats is compensated (Neumaier) from Python 3.12 on, which
    would change the last bit of some norms with the Python version.
    """
    total = 0.0
    try:
        for z in point:
            total += abs(z) ** 2
    except OverflowError:
        return math.inf
    return math.sqrt(total)


# The seeded tables below depend only on their arguments, so each is drawn
# once per process and kept, read-only, in a cache of _CACHED_TABLES
# entries.  Only tables of at most _CACHED_ENTRIES entries are kept, so the
# two caches hold at most 8 * (32 + 64) KiB = 768 KiB; larger ones are
# drawn afresh on each call.
_CACHED_TABLES = 8
_CACHED_ENTRIES = 4096


def _table(build: Callable, *key, entries: int):
    """build(*key), from build's cache when the table has few enough entries."""
    return (build if entries <= _CACHED_ENTRIES else build.__wrapped__)(*key)


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _angle_table(seed: int, trials: int, n: int) -> np.ndarray:
    """The angles theta (trials x n) of far sampling, read-only.

    Trial t draws its n - 1 angles from default_rng([seed, t]), uniform
    on [0, 2*pi), for every coordinate but the free one, t mod n, whose
    angle is 0.
    """
    import numpy as np
    theta = np.zeros((trials, n))
    for trial in range(trials):
        angles = np.random.default_rng([seed, trial]).uniform(0.0, 2.0 * math.pi, n - 1)
        j = trial % n
        theta[trial, :j], theta[trial, j + 1:] = angles[:j], angles[j:]
    theta.flags.writeable = False
    return theta


def _far_points(f: Polynomial, radius: float, trials: int,
                seed: int) -> tuple[np.ndarray, int]:
    """The retained far directions as rows of an array, and the skipped trials.

    See ``sample_far_directions``.  Every input is checked here, the seed
    before numpy loads.  The roots go into one table, trials by roots,
    NaN past each trial's degree, which reads the kept points in the
    order of trials, then roots.  The angles come from ``_angle_table``'s
    cache (at most 8 tables of at most 4,096 angles, 32 KiB each).
    """
    _require_seed(seed)
    import numpy as np
    n = f.context.n
    if n < 2:
        raise ValueError("sampling needs at least two variables")
    if f.is_zero() or f.is_constant():
        raise ValueError("sampling needs a nonconstant polynomial")
    if not 1 <= radius < math.inf:
        raise ValueError("the radius must be at least 1 and finite")
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"far sampling needs at least 1 and at most {_MAX_TRIALS:,} trials, "
                         f"not {trials:,}")
    # f compiled once in scaled form: term t contributes
    # scaled[t] * exp(i * sum_k e_tk * theta_k) * w**e_tj
    d = total_degree(f)
    try:
        exps = np.array(list(f.terms), dtype=np.int64)
    except OverflowError:
        raise ValueError("far sampling needs exponents below 2**63") from None
    # R >= 1 makes every factor R**(|e| - d) at most 1.
    scaled = np.array([_coefficient(c) * radius ** (sum(e) - d)
                       for e, c in f.terms.items()])
    if not np.isfinite(scaled).all():
        raise ValueError(f"coefficients scaled to radius {radius:g} leave double precision")

    theta = _table(_angle_table, seed, trials, n, entries=trials * n)
    rows = np.arange(trials)
    free = rows % n
    phase = sum(theta[:, k, None] * exps[:, k] for k in range(n))  # in a fixed order
    terms = scaled * np.exp(1j * phase)  # (trials, terms)
    coeffs = np.zeros((trials, d + 1), dtype=complex)
    # add.at goes through the indices in order, so each slot sums its terms
    # in term order, from 0.
    np.add.at(coeffs, (rows[:, None], exps[:, free].T), terms)

    # Leading coefficients below 1e-30 of the largest are dropped; a trial
    # whose restriction is then constant (degree 0) is skipped.  Every term
    # is finite, so no size is NaN, and the row maximum is Python's max.
    size = np.abs(coeffs)
    above = size[:, :0:-1] > 1e-30 * size.max(axis=1)[:, None]  # columns d, ..., 1
    degree = np.where(above.any(axis=1), d - above.argmax(axis=1), 0)
    low = (coeffs != 0).argmax(axis=1)  # column m is nonzero, so k <= m
    roots = np.full((trials, d), math.nan, dtype=complex)
    for m, k in set(zip(degree.tolist(), low.tolist())):  # rows of one (m, k) together
        if m:
            at = np.flatnonzero((degree == m) & (low == k))
            roots[at, :m] = _deflated(coeffs[at, :m + 1] / coeffs[at, m, None], k)[0]
    # ||z|| >= R in scaled form: |u_k| = 1 makes it hold for every finite
    # root, and a NaN fails it.
    norms = np.sqrt(n - 1 + np.abs(roots) ** 2)
    keep = norms >= 1.0
    trial = np.nonzero(keep)[0]  # the mask reads trials, then roots
    points = np.exp(1j * theta)[trial]
    points[np.arange(len(trial)), free[trial]] = roots[keep]
    return points / norms[keep, None], int((degree == 0).sum())


def sample_far_directions(f: Polynomial, radius: float, trials: int,
                          seed: int) -> FarSamples:
    """Unit directions of points on the hypersurface V(f) at norm >= radius.

    Per trial one coordinate z_j is left free (round-robin) and the
    others are fixed to R*u_k, with u_k random unit complex scalars.
    The restriction is solved in the scaled variable w = z_j/R: divided
    by R**deg f, a term c*z**e becomes c*R**(|e| - deg f)*prod u_k**e_k
    * w**e_j.  R must be at least 1 and finite, so no coefficient
    grows, and the top-degree terms, which decide the far directions,
    keep their size; below 1 the lower terms would swamp them.  All
    trials of one degree and one lowest nonzero power w**k are solved
    together by the batched Aberth solver, which finds the roots of the
    quotient by w**k; the other k roots are exactly 0.  Points with
    ||(u, w)|| >= 1 (the rule ||z|| >= R) are
    normalized and kept, in the order of trials, then roots.
    Deterministic for a fixed seed.
    """
    directions, skipped = _far_points(f, radius, trials, seed)
    return FarSamples(tuple(map(tuple, directions.tolist())), radius, trials, skipped, seed)


def _evaluate_rows(compiled: Compiled, points: np.ndarray) -> np.ndarray:
    """A compiled polynomial at every row of ``points``, term by term, with
    each power points[:, i] ** e taken once."""
    import numpy as np
    powers = {}
    total = np.zeros(len(points), dtype=complex)
    for coeff, factors in compiled:
        v = np.full(len(points), coeff)
        for i, e in factors:
            if (i, e) not in powers:
                powers[i, e] = points[:, i] ** e
            v *= powers[i, e]
        total += v
    return total


def far_sample_report(f: Polynomial, radius: float = 1e6, trials: int = 100,
                      seed: int = 42, residual_tol: float = 1e-2,
                      min_fraction: float = 0.95) -> VerificationReport:
    """Sampling evidence that far directions annihilate the top form of f.

    Passes when at least ``min_fraction`` of the retained directions
    give a top-form residual below ``residual_tol``.  ``residual_tol``
    must be positive and finite, ``min_fraction`` lie in (0, 1],
    ``trials`` run from 1 to _MAX_TRIALS and ``seed`` be nonnegative.
    """
    _require_positive("residual tolerance", residual_tol)
    _require_fraction("minimum fraction", min_fraction)
    directions, skipped = _far_points(f, radius, trials, seed)
    residuals = abs(_evaluate_rows(_compile(leading_form(f)), directions))
    samples = tuple((radius, r) for r in residuals.tolist()) or ((radius, None),)
    if not len(residuals):
        verdict, diagnostics = INCONCLUSIVE, f"no directions retained ({skipped} trials skipped)"
    else:
        good = int((residuals < residual_tol).sum())
        fraction = good / len(residuals)
        verdict = PASS if fraction >= min_fraction else FAIL
        diagnostics = (f"{good}/{len(residuals)} directions below residual "
                       f"{residual_tol:g} (fraction {fraction:.4f}, need {min_fraction:g}); "
                       f"{skipped} trials skipped")
    return VerificationReport(kind="sample", samples=samples, fitted_decay_exponent=None,
                              verdict=verdict, diagnostics=diagnostics, seed=seed,
                              radius=radius, trials=trials)


def _fit_decay_exponent(samples: Sequence[tuple[float, float | None]]) -> float | None:
    """Least-squares slope of log(value) against log(t) over positive values."""
    pts = [(math.log(t), math.log(v)) for t, v in samples if v is not None and v > 0]
    if len(pts) < 2:
        return None
    import numpy as np
    return float(np.polyfit([x for x, _ in pts], [y for _, y in pts], 1)[0])


def _is_plateau(samples: Sequence[tuple[float, float | None]], plateau_tol: float) -> bool:
    """Whether the last three (t, value) samples vary by less than
    plateau_tol relative to their largest, over a span of at least
    _PLATEAU_SPAN in t."""
    tail = [v for _, v in samples[-3:]]
    if len(tail) < 3 or None in tail or samples[-1][0] < _PLATEAU_SPAN * samples[-3][0]:
        return False
    high = max(tail)
    return high > 0 and (high - min(tail)) / high < plateau_tol


def loj_ratio_schedule(F: Sequence[Polynomial], v: Sequence[complex],
                       sched: TSchedule, pass_decay: float = 0.5,
                       plateau_tol: float = 0.1) -> VerificationReport:
    """Degree-normalized generator magnitudes along the ray t*v.

    Reports r(t) = max_i |g_i(t*v)|**(1/deg g_i) / t.  The ratio decays
    like a power of t on cone directions and converges to a positive
    constant when some top form survives at v.  A constant generator
    means V is empty, and so is its cone: every value is n/a and the
    verdict is fail.  ``pass_decay`` must lie in (0, 1], and
    ``plateau_tol`` be positive and finite.
    """
    _require_fraction("pass decay", pass_decay)
    _require_positive("plateau tolerance", plateau_tol)
    gens = list(F)
    if any(g.is_zero() for g in gens) or not gens:
        raise ValueError("generators must be nonzero")
    if all(z == 0 for z in v):
        raise ValueError("direction must be nonzero")
    degrees = [total_degree(g) for g in gens]
    evaluate = _evaluator([_compile(g) for g in gens], gens[0].context.n)
    samples: list[tuple[float, float | None]] = []
    overflowed = []
    empty = 0 in degrees
    for t in sched.values():
        point = [t * complex(z) for z in v]
        try:
            r = None if empty else max(abs(g) ** (1.0 / d)
                                       for g, d in zip(evaluate(*point), degrees)) / t
        except (EvaluationOverflowError, OverflowError):  # abs(g) may overflow too
            overflowed.append(t)
            r = None
        samples.append((t, r))
    values = [r for _, r in samples]
    if empty:
        verdict, diagnostics = FAIL, "a generator is a nonzero constant: V is empty"
    elif overflowed:
        verdict = INCONCLUSIVE
        diagnostics = "evaluation overflow at t=" + ", ".join(f"{t:g}" for t in overflowed)
    elif all(r == 0 for r in values):
        verdict = PASS
        diagnostics = "all ratios vanish: the ray lies in the common zero set"
    elif (all(b < a for a, b in zip(values, values[1:]))
          and values[-1] < pass_decay * values[0]):
        verdict = PASS
        diagnostics = (f"strict decay, r(last)/r(first) = "
                       f"{values[-1] / values[0]:.3e} < {pass_decay:g}")
    elif _is_plateau(samples, plateau_tol) and values[-1] > 0:
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


def _residual_at(evaluate: Callable[..., tuple[complex, ...]], degrees: Sequence[int],
                 tol: float, point: Sequence[complex]) -> tuple[np.ndarray, bool]:
    """The real residual vector of the generators at point, and whether it lands.

    One evaluation of each generator serves both.  The point lands on V
    when every normalized residual |g_i| / max(1, ||point||)**deg(g_i)
    is below ``tol``.  Raises EvaluationOverflowError when an evaluation,
    the norm, or the power of the scale in that test leaves double
    precision.
    """
    import numpy as np
    values = evaluate(*point)
    scale = max(1.0, _norm(point))
    if scale == math.inf:  # inf**d would let every point land
        raise EvaluationOverflowError("the norm overflowed double precision")
    try:
        lands = all(abs(v) / scale ** d < tol for v, d in zip(values, degrees))
    except OverflowError as err:
        raise EvaluationOverflowError("normalization overflowed double precision") from err
    return np.array(values).view(float), lands  # (re g_0, im g_0, re g_1, ...)


def _real_jacobian(partials: Callable[..., list[float]], n: int,
                   point: Sequence[complex]) -> np.ndarray:
    """The real Jacobian of the residual vector at point.

    ``partials`` is the generators' partials evaluator with the Jacobian
    epilogue (``_evaluator(..., jacobian=True)``): it already lays out
    the 2x2 block [[re, -im], [im, re]] of each partial dg_i/dz_j in
    rows 2i, 2i+1 and columns 2j, 2j+1, as one flat list.
    """
    import numpy as np
    return np.array(partials(*point)).reshape(-1, 2 * n)


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _perturbations(seed: int, n: int) -> tuple[tuple[np.ndarray, float], ...]:
    """The estimator's seeded start directions: (u_k, ||u_k||) for k < 8.

    u_k has standard normal real and imaginary parts, drawn from
    default_rng([seed, k]); all ones if that draw is 0.  Each u_k is
    read-only.
    """
    import numpy as np
    out = []
    for k in range(_NUM_PERTURBATIONS):
        rng = np.random.default_rng([seed, k])
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u_norm = _norm(u)
        if u_norm == 0:
            u = np.ones(n, dtype=complex)
            u_norm = _norm(u)
        u.flags.writeable = False
        out.append((u, u_norm))
    return tuple(out)


def estimate_distance_upper(F: Sequence[Polynomial], x0: Sequence[complex],
                            seed: int = 42, residual_tol: float = 1e-10) -> DistanceEstimate:
    """Upper bound on the distance from x0 to the common zero set of F.

    Damped least-squares (Levenberg-style) iterations on the real and
    imaginary parts of the generators, started from x0 and from
    perturbations of relative radius 0.5, drawn from ``seed`` (a
    nonnegative integer).  A run converges when every normalized
    residual |g_i(z)| / max(1,||z||)**deg(g_i) drops below
    ``residual_tol``; the returned bound is the smallest finite
    ||x0 - z|| over converged runs, hence an upper bound on the true
    distance up to that residual tolerance, which must be positive and
    finite.  ``converged`` is false when no run lands at a finite
    distance.
    """
    _require_positive("residual tolerance", residual_tol)
    _require_seed(seed)
    import numpy as np
    gens = [g for g in F if not g.is_zero()]
    if not gens:
        raise ValueError("generators must not all be zero")
    n = gens[0].context.n
    x0 = tuple(complex(z) for z in x0)
    if len(x0) != n:
        raise ValueError(f"start point has {len(x0)} entries, expected {n}")
    degrees = [total_degree(g) for g in gens]
    partials = _evaluator([_compile(differentiate(g, j)) for g in gens for j in range(n)], n,
                          jacobian=True)
    evaluate = _evaluator([_compile(g) for g in gens], n)

    residual_at = functools.partial(_residual_at, evaluate, degrees, residual_tol)
    jacobian = functools.partial(_real_jacobian, partials, n)

    starts = [x0]
    base_norm = _norm(x0)
    for u, u_norm in _table(_perturbations, seed, n, entries=_NUM_PERTURBATIONS * n):
        delta = (_PERTURBATION_RADIUS * base_norm / u_norm) * u
        starts.append(tuple(complex(x0[i] + delta[i]) for i in range(n)))

    best_bound = math.inf
    best_landed: ComplexPoint | None = None
    eye = np.eye(2 * n)
    for start in starts:
        with np.errstate(all="ignore"):  # far out, J.T @ J may overflow: no warning
            landed = _levenberg_run(residual_at, jacobian, start, eye)
            if landed is None:
                continue
            landed = _tangential_polish(residual_at, jacobian, x0, landed, eye)
            bound = _dist(x0, landed)
        if bound < best_bound:
            best_bound = bound
            best_landed = landed
    return DistanceEstimate(best_bound, best_landed, best_landed is not None)


def _dist(a: Sequence[complex], b: Sequence[complex]) -> float:
    return _norm([x - y for x, y in zip(a, b)])


def _steps(delta: Sequence[float]) -> list[complex]:
    """The complex vector delta[0::2] + 1j * delta[1::2], bit for bit as
    numpy forms it: 1j * (i + 0j) is (0*i - 0, 0*0 + i), then the real
    part r, as r + 0j, is added."""
    return [complex(r + (0.0 * i - 0.0), 0.0 + (0.0 + i))
            for r, i in zip(delta[0::2], delta[1::2])]


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a, b, rcond=None)[0] for a float64 matrix and vector, bit for bit.

    It calls the gufunc that np.linalg.lstsq wraps on numpy 2 (LAPACK's
    gelsd, with the wrapper's default rcond, eps * max(a.shape)) without
    the wrapper's conversions and errstate; numpy 1 names that gufunc
    differently, and there the public call is made.  A gelsd failure
    (SVD non-convergence) gives rank -1 and an all-NaN solution, and
    raises LinAlgError as np.linalg.lstsq does.
    """
    import numpy as np
    gufunc = getattr(np.linalg._umath_linalg, "lstsq", None)
    if gufunc is None:  # numpy < 2
        return np.linalg.lstsq(a, b, rcond=None)[0]
    x, _, rank, _ = gufunc(a, b[:, None], sys.float_info.epsilon * max(a.shape),
                          signature="ddd->ddid")
    if rank < 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:, 0]


def _tangential_polish(residual_at, jacobian, x0, landed, eye) -> ComplexPoint:
    """Slide a landed point along the variety toward x0.

    Alternates a step toward x0 projected onto the tangent space of the
    zero set with a damped least-squares re-projection.  Each accepted
    cycle strictly shrinks ||x0 - z||, so the result is still a
    residual-certified landing, only nearer to x0.  Deterministic; a
    best-effort local improvement, not a certified nearest point.

    Points are lists of Python complex, as in _levenberg_run.  numpy
    forms only J @ d and the least-squares solve (_lstsq, the gufunc
    behind np.linalg.lstsq); the differences, the step and each trial
    z + alpha * step are formed in Python with the operations numpy
    performs, and every norm is _norm's.
    """
    import numpy as np
    z = list(landed)
    best = _dist(x0, z)
    if best == 0:
        return landed
    for _ in range(_POLISH_CYCLES):
        d = [a - b for a, b in zip(x0, z)]
        d_real = np.array(d).view(float)  # (re d_0, im d_0, re d_1, ...)
        J = jacobian(z)
        tangent = (d_real - _lstsq(J, J @ d_real)).tolist()
        if _norm(tangent) < 1e-13 * (1.0 + best):
            break
        step = _steps(tangent)
        alpha = 1.0
        improved = False
        while alpha > 1e-4:
            # alpha * s as numpy multiplies: (alpha + 0j) * s
            trial = [x + complex(alpha * s.real - 0.0 * s.imag, alpha * s.imag + 0.0 * s.real)
                     for x, s in zip(z, step)]
            reprojected = _levenberg_run(residual_at, jacobian, trial, eye)
            if reprojected is not None:
                dist = _dist(x0, reprojected)
                if dist < best * (1 - 1e-12):
                    z = list(reprojected)
                    best = dist
                    improved = True
                    break
            alpha /= 2
        if not improved:
            break
    return tuple(z)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a float64 square matrix and vector, bit for bit.

    It calls the gufunc that np.linalg.solve wraps (``solve1``, whose
    float64 loop is LAPACK's gesv) without the wrapper's checks and
    errstate.  A singular pivot gives an all-NaN solution and sets the
    invalid flag, where np.linalg.solve raises LinAlgError; call it under
    ``np.errstate(all="ignore")``, or the flag becomes a RuntimeWarning.
    """
    import numpy as np
    return np.linalg._umath_linalg.solve1(a, b)


def _levenberg_run(residual_at, jacobian, start, eye) -> ComplexPoint | None:
    """Damped Gauss-Newton (Levenberg) iterations from start; the landed point or None.

    Each iteration solves (J^T J + damping * I) delta = -J^T res.  A step
    is accepted when it strictly lowers the squared residual; the damping,
    first _INITIAL_DAMPING, then falls tenfold to no less than 1e-15.
    Otherwise (a cost no lower, a residual that overflows, or a singular
    pivot) the damping rises tenfold and the same iteration solves again,
    until it passes 1e12 and the run gives up.  The run returns the first
    point that lands, and None after _MAX_ITERATIONS or once a step is
    below 1e-16 of ||z||.

    The point z is a list of Python complex.  numpy runs only what its
    bits depend on: J^T J, J^T res, the solve and res @ res.  Each step
    is read from delta.tolist() and the candidate z + step formed in
    Python with numpy's operations (_steps), so every bit is that of the
    same loop on numpy arrays; the step-size test takes _norm of the
    step and of z.
    The solve goes through _solve, the gufunc behind np.linalg.solve,
    because on these 4x4 to 6x6 systems the wrapper cost three to four
    times the solve itself.  A singular pivot returns all NaN instead of
    raising LinAlgError, and takes the branch LinAlgError took (damping
    * 10, solve again), so every step and every bit are those of
    np.linalg.solve.  An all-NaN solution that np.linalg.solve returned
    without raising (NaN spread from an overflowed J^T J) takes the same
    branch, as it did then through the overflow of its residual; a
    solution with some NaN entries is tried as a step, as before.  The
    caller must hold ``np.errstate(all="ignore")``: a singular pivot sets
    the invalid flag, and far out J^T J may overflow.
    """
    z = list(start)
    try:
        res, lands = residual_at(z)
    except EvaluationOverflowError:
        return None
    if lands:
        return tuple(z)
    damping = _INITIAL_DAMPING
    cost = float(res @ res)
    for _ in range(_MAX_ITERATIONS):
        J = jacobian(z)
        A = J.T @ J
        b = -(J.T @ res)
        accepted = False
        while damping <= 1e12:
            d = _solve(A + damping * eye, b).tolist()
            if d[0] != d[0] and all(x != x for x in d):  # all NaN
                damping *= 10
                continue
            step = _steps(d)
            candidate = [x + s for x, s in zip(z, step)]
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
        if _norm(step) < 1e-16 * (1.0 + _norm(z)):
            return None
    return None


def distance_ratio_report(F: Sequence[Polynomial], v: Sequence[complex], sched: TSchedule,
                          seed: int = 42, residual_tol: float = 1e-10,
                          pass_decay: float = 0.5,
                          plateau_tol: float = 0.1) -> VerificationReport:
    """Distance-ratio evidence along the ray t*v.

    Tabulates estimate_distance_upper(F, t*v)/t over the schedule.  The
    ratio must drop by at least ``1/pass_decay`` from first to last
    step on cone directions and plateaus at a positive level otherwise;
    solver non-convergence at any step makes the report inconclusive.
    A nonzero constant generator means V is empty: every value is n/a
    and the verdict is fail, as in ``loj_ratio_schedule``.  The
    thresholds are checked as there and in ``estimate_distance_upper``.
    """
    _require_positive("residual tolerance", residual_tol)
    _require_fraction("pass decay", pass_decay)
    _require_positive("plateau tolerance", plateau_tol)
    _require_seed(seed)
    if all(z == 0 for z in v):
        raise ValueError("direction must be nonzero")
    vv = tuple(complex(z) for z in v)
    empty = any(g.is_constant() and not g.is_zero() for g in F)
    samples: list[tuple[float, float | None]] = []
    failed_steps = []
    for t in sched.values():
        est = None if empty else estimate_distance_upper(
            F, tuple(t * z for z in vv), seed, residual_tol)
        if est is None or not est.converged:
            samples.append((t, None))
            failed_steps.append(t)
        else:
            samples.append((t, est.bound / t))
    values = [r for _, r in samples]
    if empty:
        verdict, diagnostics = FAIL, "a generator is a nonzero constant: V is empty"
    elif failed_steps:
        verdict = INCONCLUSIVE
        diagnostics = ("solver did not converge at t = "
                       + ", ".join(f"{t:g}" for t in failed_steps))
    elif all(r == 0 for r in values):
        verdict = PASS
        diagnostics = "ray lies on the variety: distance bound is zero throughout"
    elif values[0] > 0 and values[-1] <= pass_decay * values[0]:
        verdict = PASS
        factor = values[0] / values[-1] if values[-1] else math.inf
        diagnostics = (f"ratio falls from {values[0]:.6g} to {values[-1]:.6g} "
                       f"(factor {factor:.3g})")
    elif _is_plateau(samples, plateau_tol) and values[-1] > 0:
        verdict = FAIL
        diagnostics = (f"ratio plateaus near {values[-1]:.6g}: "
                       "the direction is not in the cone")
    else:
        verdict = INCONCLUSIVE
        diagnostics = "neither clear decay nor a plateau over this schedule"
    return VerificationReport(
        kind="distance", samples=tuple(samples),
        fitted_decay_exponent=_fit_decay_exponent(samples),
        verdict=verdict, diagnostics=diagnostics, seed=seed,
        schedule=sched, direction=vv)
