"""Seeded inputs for the benchmark and the ground truth that comes with them.

Polynomials here are plain dicts mapping exponent tuples to Fractions, with
their own arithmetic, so that the truth of an input (a member built as
sum h_i g_i, a point on a known line of the cone) never depends on the
program under test.  The program only ever sees the rendered ideal text.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

# The parseable ideals of tests/data, expanded, kept here so that the
# benchmark corpus cannot change under it.
CUSP = "vars x y\npoly x^2 - y^3\n"
FIVELINES = "vars x y z\npoly x*y\npoly x^3*z - y^2*z + z^3\n"
WHOLERING = "vars u\npoly u^2 + 1\npoly u^2 + 2\n"
# The degree-8 surface on which far sampling at radius 1e6 returns fail.
DEGREE8 = "vars x y z\npoly x^7*y - z^5*x^3 + y^8 - 3*x*y*z + 1\n"
# Far sampling of this curve raises OverflowError in the CLI.
X60 = "vars x y\npoly x^60 - y^59 + 1\n"
MALFORMED = "vars x y\npoly x*y +\n"

# Lines through the origin that make up each tangent cone at infinity.
FIVELINES_CONE = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, -1)]
FIVELINES_OFF = [(1, 1, 0), (1, 2, 3)]
CUSP_CONE = [(1, 0)]
CUSP_OFF = [(0, 1), (1, 1)]
# cyclic-4 contains the curve (t, -1/t, -t, 1/t); its ends give two lines.
CYCLIC4_CONE = [(1, 0, -1, 0), (0, 1, 0, -1)]

COEFFS = [c for c in range(-5, 6) if c]


# -- polynomial arithmetic on exponent dicts ------------------------------


def padd(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def top_form(f: dict) -> dict:
    d = max(sum(e) for e in f)
    return {e: c for e, c in f.items() if sum(e) == d}


def evaluate(f: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in f.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def order_key(kind: str, e: tuple):
    """Sort key of an exponent tuple under lex or grevlex."""
    if kind == "lex":
        return e
    return (sum(e), tuple(-x for x in reversed(e)))


def leading_exponent(f: dict, kind: str) -> tuple:
    return max(f, key=lambda e: order_key(kind, e))


def monic(f: dict, kind: str) -> dict:
    c = Fraction(f[leading_exponent(f, kind)])
    return {e: Fraction(a) / c for e, a in f.items()}


# -- text form ------------------------------------------------------------


def render(f: dict, names) -> str:
    """Ideal-file expression for f (terms by descending degree)."""
    pieces = []
    for e, c in sorted(f.items(), key=lambda t: (-sum(t[0]), t[0])):
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        mag = abs(Fraction(c))
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces) if pieces else "0"


def ideal_text(names, polys) -> str:
    return "vars " + " ".join(names) + "\n" + "".join(
        f"poly {render(p, names)}\n" for p in polys)


_TERM_RE = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_rendered(text: str, names) -> dict:
    """Exponent dict of an expanded polynomial as the program renders it."""
    index = {n: i for i, n in enumerate(names)}
    out: dict = {}
    for sign, body in _TERM_RE.findall(text):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * len(names)
        for factor in body.strip().split("*"):
            base, _, power = factor.partition("^")
            if base in index:
                exps[index[base]] += int(power or 1)
            else:
                coeff *= Fraction(base)
        out = padd(out, {tuple(exps): coeff})
    return out


def parse_ideal_text(text: str):
    """(names, polys) of an ideal file with expanded poly-lines."""
    names, polys = None, []
    for line in text.splitlines():
        keyword, _, rest = line.partition(" ")
        if keyword == "vars":
            names = rest.split()
        elif keyword == "poly":
            polys.append(parse_rendered(rest, names))
    return names, polys


# -- generators -----------------------------------------------------------


def cyclic(n: int):
    names = [f"x{i}" for i in range(n)]
    polys = []
    for k in range(1, n):
        f: dict = {}
        for i in range(n):
            e = [0] * n
            for j in range(k):
                e[(i + j) % n] += 1
            f = padd(f, {tuple(e): Fraction(1)})
        polys.append(f)
    polys.append({(1,) * n: Fraction(1), (0,) * n: Fraction(-1)})
    return names, polys


def katsura(n: int):
    names = [f"u{i}" for i in range(n + 1)]
    nv = n + 1

    def var(i):
        e = [0] * nv
        e[abs(i)] = 1
        return {tuple(e): Fraction(1)}

    polys = []
    for m in range(n):
        f = {tuple(1 if k == m else 0 for k in range(nv)): Fraction(-1)}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                f = padd(f, pmul(var(l), var(m - l)))
        polys.append(f)
    last = {(0,) * nv: Fraction(-1)}
    for i in range(nv):
        last = padd(last, {tuple(1 if k == i else 0 for k in range(nv)): Fraction(1 if i == 0 else 2)})
    polys.append(last)
    return names, polys


def monomials(nvars: int, degree: int):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


def dense(rng: random.Random, nvars: int, degrees) -> dict:
    """Every monomial of the given total degrees, each with a random nonzero coefficient.

    Generic coefficients give the same Groebner staircase for every seed,
    so the cost of a shape hardly depends on the seed.
    """
    return {e: Fraction(rng.choice(COEFFS)) for d in degrees for e in monomials(nvars, d)}


def dense_ideal(rng, nvars: int, ngens: int, degree: int):
    names = ["x", "y", "z", "w"][:nvars]
    return names, [dense(rng, nvars, range(degree + 1)) for _ in range(ngens)]


def line_ideal(rng):
    """Ideal of two dense combinations of x - a and y - b*z.

    Its variety contains the line x = a, y = b*z, so (0, b, 1) lies on the
    tangent cone at infinity whatever the other components are.
    """
    a, b = rng.choice(COEFFS), rng.choice(COEFFS)
    l1 = {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-a)}
    l2 = {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(-b)}
    gens = [padd(pmul(dense(rng, 3, (0, 1)), l1), pmul(dense(rng, 3, (0, 1)), l2))
            for _ in range(2)]
    return ["x", "y", "z"], gens, (0, b, 1)


def dense_surface(rng, degree: int):
    """Hypersurface with every monomial of degree d, 1 and 0 in x, y, z.

    The seed draws the affine part.  The top form is drawn from a fixed
    stream per degree: far from the origin it alone sets the root-finding
    work, which would otherwise vary by tens of percent between seeds.
    """
    top = dense(random.Random(f"top-form-{degree}"), 3, (degree,))
    return ["x", "y", "z"], [padd(top, dense(rng, 3, (1, 0)))]


def combination(rng, gens, nvars: int) -> dict:
    """sum h_i g_i with each h_i dense of degree <= 2 (generic, so the same
    support and reduction work for every seed)."""
    out: dict = {}
    for g in gens:
        out = padd(out, pmul(dense(rng, nvars, (0, 1, 2)), g))
    return out


def standard_monomials(leading, nvars: int, max_degree: int = 2):
    """Monomials of degree <= max_degree divisible by no leading exponent."""
    return [e for d in range(max_degree + 1) for e in monomials(nvars, d)
            if not any(all(a <= b for a, b in zip(lm, e)) for lm in leading)]


def random_rational(rng) -> Fraction:
    return Fraction(rng.choice(COEFFS), rng.randint(1, 4))


def scaled(r, v):
    return tuple(r * x for x in v)


def point_on_line(rng, direction):
    return scaled(random_rational(rng), direction)


def point_off_cone(rng, gens, nvars: int):
    """A rational point where some generator's top form is nonzero.

    The top form of any ideal element vanishes on the cone, so such a
    point is off the cone by construction.
    """
    tops = [top_form(g) for g in gens]
    while True:
        p = tuple(random_rational(rng) for _ in range(nvars))
        if any(evaluate(t, p) != 0 for t in tops):
            return p


def fmt_point(p) -> str:
    return ",".join(str(Fraction(x)) for x in p)
